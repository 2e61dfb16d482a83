"""Command line interface.

Exit codes: 0 success, 2 invalid input or arguments, 3 resolution hit the
depth cap with singular leaves remaining, 4 a trivial (no-progress) blowup
step was encountered, which can only happen with --no-normalize, 5 an
internal error (a broken invariant or any other unexpected exception),
141 the reader closed standard output early (128 + SIGPIPE). Codes 2 and 5
come with a JSON error report on stderr.
"""

import argparse
import json
import os
import sys

from .blowup import (
    blowup_charts,
    is_trivial_step,
    log_jacobian_ideal,
    newton_polyhedron,
)
from .errors import MalformedInputError, ToricError
from .io import (
    FORMATS,
    charts_payload,
    comparison_payload,
    ideal_payload,
    newton_payload,
    parse_input,
    problem_payload,
    semigroup_payload,
    serialize,
    suite_payload,
    tree_payload,
)
from .linalg import validate_characteristic
from .resolve import (
    DEFAULT_CHARACTERISTICS,
    DEFAULT_MAX_DEPTH,
    DEPTH_CAPPED,
    TRIVIAL_STALL,
    compare_characteristics,
    resolve,
    surface_termination_suite,
)

EXIT_OK = 0
EXIT_INVALID = 2
EXIT_DEPTH_CAPPED = 3
EXIT_TRIVIAL_STALL = 4
EXIT_INTERNAL = 5
EXIT_BROKEN_PIPE = 141


class _Parser(argparse.ArgumentParser):
    # report argument errors through the JSON contract, not usage text
    def error(self, message):
        raise ValueError(message)


def _build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="nashtoric",
        description="Nash blowups of affine toric varieties, computed combinatorially.",
    )
    sub = parser.add_subparsers(dest="command", required=True, metavar="command")

    def with_input(p):
        p.add_argument(
            "input",
            nargs="?",
            default="-",
            help="path to a JSON problem document, or - for stdin (default)",
        )

    def with_format(p):
        p.add_argument(
            "--format",
            choices=FORMATS,
            default=None,
            help="output format (default: the document's format field)",
        )

    def with_char(p):
        p.add_argument(
            "--char",
            type=int,
            default=None,
            metavar="P",
            help="characteristic override, 0 or a prime",
        )

    def with_normalize(p):
        p.add_argument(
            "--no-normalize",
            action="store_true",
            help="skip saturation of the blowup charts",
        )

    p = sub.add_parser("check", help="validate a problem document and echo it")
    with_input(p)
    with_format(p)

    p = sub.add_parser("mingen", help="minimal generators of the semigroup")
    with_input(p)
    with_format(p)

    p = sub.add_parser("saturate", help="minimal generators of the saturation")
    with_input(p)
    with_format(p)

    p = sub.add_parser("logjac", help="logarithmic Jacobian ideal exponents mod p")
    with_input(p)
    with_format(p)
    with_char(p)

    p = sub.add_parser("newton", help="Newton polyhedron of the ideal")
    with_input(p)
    with_format(p)
    with_char(p)

    p = sub.add_parser("blowup", help="one Nash blowup step: the vertex charts")
    with_input(p)
    with_format(p)
    with_char(p)
    with_normalize(p)

    p = sub.add_parser("resolve", help="iterate Nash blowups into a resolution tree")
    with_input(p)
    with_format(p)
    with_char(p)
    with_normalize(p)
    p.add_argument("--max-depth", type=int, default=None, metavar="N")

    p = sub.add_parser("compare", help="Newton polyhedra across characteristics")
    with_input(p)
    with_format(p)
    p.add_argument(
        "--char",
        type=int,
        action="append",
        default=None,
        metavar="P",
        help="characteristic to include; repeat for several "
        "(default: 0 and the document's characteristic, or "
        f"{' '.join(map(str, DEFAULT_CHARACTERISTICS))} when that is 0)",
    )

    p = sub.add_parser("suite", help="random normal-surface termination suite")
    with_format(p)
    p.add_argument("--seed", type=int, default=0, metavar="N")
    p.add_argument("--count", type=int, default=20, metavar="N")
    p.add_argument("--entry-bound", type=int, default=50, metavar="N")
    p.add_argument(
        "--char",
        type=int,
        action="append",
        default=None,
        metavar="P",
        help="characteristic to test; repeat for several "
        f"(default: {' '.join(map(str, DEFAULT_CHARACTERISTICS))})",
    )
    p.add_argument("--max-depth", type=int, default=DEFAULT_MAX_DEPTH, metavar="N")

    return parser


def _read_document(path: str) -> bytes:
    # bytes, so that parse_input makes the only UTF-8 decode
    if path == "-":
        return sys.stdin.buffer.read()
    try:
        with open(path, "rb") as fh:
            return fh.read()
    except OSError as exc:
        raise MalformedInputError(f"cannot read {path}: {exc}") from None


def _dispatch(args) -> int:
    if args.command == "suite":
        chars = tuple(args.char) if args.char else DEFAULT_CHARACTERISTICS
        summary = surface_termination_suite(
            args.seed,
            args.count,
            entry_bound=args.entry_bound,
            characteristics=chars,
            max_depth=args.max_depth,
        )
        print(serialize(suite_payload(summary), args.format or "json"))
        return EXIT_OK

    spec = parse_input(_read_document(args.input))
    fmt = args.format or spec.format

    if args.command == "check":
        print(serialize(problem_payload(spec), fmt))
        return EXIT_OK

    S = spec.semigroup()
    if args.command == "mingen":
        print(serialize(semigroup_payload(S), fmt))
        return EXIT_OK
    if args.command == "saturate":
        print(serialize(semigroup_payload(S.saturate()), fmt))
        return EXIT_OK
    if args.command == "compare":
        if args.char:
            chars = tuple(args.char)
        elif spec.characteristic:
            chars = (0, spec.characteristic)
        else:
            chars = DEFAULT_CHARACTERISTICS
        print(serialize(comparison_payload(compare_characteristics(S, chars)), fmt))
        return EXIT_OK

    ch = spec.characteristic if args.char is None else validate_characteristic(args.char)
    if args.command == "logjac":
        print(serialize(ideal_payload(log_jacobian_ideal(S, ch)), fmt))
        return EXIT_OK
    if args.command == "newton":
        N = newton_polyhedron(log_jacobian_ideal(S, ch))
        print(serialize(newton_payload(N), fmt))
        return EXIT_OK

    normalize = spec.normalize and not args.no_normalize
    if args.command == "blowup":
        N = newton_polyhedron(log_jacobian_ideal(S, ch))
        charts = blowup_charts(N, normalize)
        print(serialize(charts_payload(charts, characteristic=ch), fmt))
        if not normalize and is_trivial_step(N, charts):
            return EXIT_TRIVIAL_STALL
        return EXIT_OK

    max_depth = spec.max_depth if args.max_depth is None else args.max_depth
    tree = resolve(S, ch, normalize=normalize, max_depth=max_depth)
    print(serialize(tree_payload(tree), fmt))
    statuses = tree.statuses()
    if TRIVIAL_STALL in statuses:
        return EXIT_TRIVIAL_STALL
    if DEPTH_CAPPED in statuses:
        return EXIT_DEPTH_CAPPED
    return EXIT_OK


def _report(code: str, message: str):
    sys.stderr.write(json.dumps({"error": code, "message": message}) + "\n")


def main(argv=None) -> int:
    try:
        code = _dispatch(_build_parser().parse_args(argv))
        sys.stdout.flush()
        return code
    except BrokenPipeError:
        # the reader is gone; keep the interpreter's final flush from
        # raising again and stop as quietly as a writer killed by SIGPIPE
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        os.close(devnull)
        return EXIT_BROKEN_PIPE
    except ToricError as exc:
        _report(exc.code, exc.message)
        return EXIT_INVALID
    except ValueError as exc:
        _report("invalid-argument", str(exc))
        return EXIT_INVALID
    except Exception as exc:
        _report("internal-error", f"{type(exc).__name__}: {exc}")
        return EXIT_INTERNAL


def main_entry():
    raise SystemExit(main(sys.argv[1:]))
