import io
import json
import os
import subprocess
import sys

import pytest

import nashtoric
from nashtoric.blowup import blowup_charts, log_jacobian_ideal, newton_polyhedron
from nashtoric.cli import main
from nashtoric.cones import Cone, hilbert_basis
from nashtoric.errors import (
    CharacteristicError,
    DimensionError,
    FormatError,
    MalformedInputError,
    NotPointedError,
)
from nashtoric.io import (
    ProblemSpec,
    charts_payload,
    comparison_payload,
    ideal_payload,
    newton_payload,
    parse_input,
    problem_payload,
    semigroup_payload,
    serialize,
    tree_payload,
)
from nashtoric.resolve import (
    DEPTH_CAPPED,
    EXPANDED,
    MAX_DEPTH,
    ResolutionNode,
    ResolutionTree,
    compare_characteristics,
    resolve,
)
from nashtoric.semigroups import AffineSemigroup

CUSP_DOC = '{"dimension": 1, "characteristic": 2, "semigroup_generators": [[2], [3]]}'
THREEFOLD_DOC = (
    '{"dimension": 3, "characteristic": 2,'
    ' "dual_cone_rays": [[1, 0, 0], [0, 1, 0], [1, 1, 2]]}'
)


def test_parse_full_document():
    spec = parse_input(
        '{"dimension": 1, "characteristic": 3, "semigroup_generators": [[2], [3]],'
        ' "normalize": false, "max_depth": 5, "format": "text"}'
    )
    assert spec == ProblemSpec(
        dimension=1,
        characteristic=3,
        semigroup_generators=((2,), (3,)),
        normalize=False,
        max_depth=5,
        format="text",
    )
    assert spec.semigroup().minimal_generators() == ((2,), (3,))


def test_parse_defaults():
    spec = parse_input(CUSP_DOC)
    assert spec.normalize is True
    assert spec.max_depth == 64
    assert spec.format == "json"
    assert spec.dual_cone_rays is None and spec.cone_rays is None


def test_parse_accepts_bytes_and_dicts():
    spec = parse_input(CUSP_DOC.encode())
    assert spec == parse_input(json.loads(CUSP_DOC))


def test_parse_accepts_decimal_strings():
    spec = parse_input(
        '{"dimension": "2", "characteristic": "0",'
        ' "semigroup_generators": [["1", "0"], [0, "+1"], ["-0", 1]]}'
    )
    assert spec.dimension == 2
    assert spec.semigroup_generators == ((1, 0), (0, 1), (0, 1))


def test_parse_sources():
    dual = parse_input('{"dimension": 2, "characteristic": 0, "dual_cone_rays": [[1, 0], [1, 2]]}')
    assert dual.semigroup().minimal_generators() == ((1, 0), (1, 1), (1, 2))
    primal = parse_input('{"dimension": 2, "characteristic": 0, "cone_rays": [[1, 0], [1, 2]]}')
    assert primal.semigroup().minimal_generators() == ((0, 1), (1, 0), (2, -1))


def test_parse_rejects_non_pointed_cone_rays():
    spec = parse_input('{"dimension": 2, "characteristic": 0, "cone_rays": [[1, 0], [-1, 0]]}')
    with pytest.raises(NotPointedError):
        spec.semigroup()


@pytest.mark.parametrize(
    "doc,err",
    [
        ('{"characteristic": 0, "semigroup_generators": [[1]]}', MalformedInputError),
        ('{"dimension": 1, "semigroup_generators": [[1]]}', MalformedInputError),
        ('{"dimension": 1, "characteristic": 0}', MalformedInputError),
        (
            '{"dimension": 1, "characteristic": 0, "semigroup_generators": [[1]],'
            ' "cone_rays": [[1]]}',
            MalformedInputError,
        ),
        (
            '{"dimension": 1, "characteristic": 0, "semigroup_generators": [[1]],'
            ' "extra": 1}',
            MalformedInputError,
        ),
        ('{"dimension": 0, "characteristic": 0, "semigroup_generators": [[1]]}', DimensionError),
        ('{"dimension": 2, "characteristic": 0, "semigroup_generators": [[1]]}', DimensionError),
        ('{"dimension": 1, "characteristic": 4, "semigroup_generators": [[1]]}', CharacteristicError),
        ('{"dimension": -2, "characteristic": 4, "semigroup_generators": [[1]]}', DimensionError),
        (
            '{"dimension": 1, "characteristic": 0, "semigroup_generators": [[1]],'
            ' "normalize": "yes"}',
            MalformedInputError,
        ),
        (
            '{"dimension": 1, "characteristic": 0, "semigroup_generators": [[1]],'
            ' "normalize": 1}',
            MalformedInputError,
        ),
        (
            '{"dimension": 1, "characteristic": 0, "semigroup_generators": [[1]],'
            ' "max_depth": 0}',
            MalformedInputError,
        ),
        (
            '{"dimension": 1, "characteristic": 0, "semigroup_generators": [[1]],'
            f' "max_depth": {MAX_DEPTH + 1}}}',
            MalformedInputError,
        ),
        (
            '{"dimension": 1, "characteristic": 0, "semigroup_generators": [[1]],'
            ' "format": "xml"}',
            FormatError,
        ),
        ('{"dimension": 1, "characteristic": 0, "semigroup_generators": []}', MalformedInputError),
        ('{"dimension": 1, "characteristic": 0, "semigroup_generators": [3]}', MalformedInputError),
        ('{"dimension": 1, "characteristic": 0, "semigroup_generators": [[1.5]]}', MalformedInputError),
        ('{"dimension": 1, "characteristic": 0, "semigroup_generators": [["x"]]}', MalformedInputError),
        ('{"dimension": true, "characteristic": 0, "semigroup_generators": [[1]]}', MalformedInputError),
        ('{"dimension": 1.5, "characteristic": 0, "semigroup_generators": [[1]]}', MalformedInputError),
        ("[]", MalformedInputError),
        ("{", MalformedInputError),
        # str.isdigit accepts all three; int() rejects the first, reads the others
        ('{"dimension": "\u00b2", "characteristic": 0, "semigroup_generators": [[1]]}', MalformedInputError),
        ('{"dimension": "\uff13", "characteristic": 0, "semigroup_generators": [[1, 0, 0]]}', MalformedInputError),
        ('{"dimension": 1, "characteristic": 0, "semigroup_generators": [["-\u0663"]]}', MalformedInputError),
    ],
)
def test_parse_errors(doc, err):
    with pytest.raises(err):
        parse_input(doc)


def test_parse_rejects_deep_nesting():
    with pytest.raises(MalformedInputError, match="nested too deeply"):
        parse_input("[" * 100000 + "]" * 100000)
    with pytest.raises(MalformedInputError):
        parse_input('{"dimension": ' + "[" * 100000 + "]" * 100000 + "}")


def test_parse_rejects_bad_utf8():
    with pytest.raises(MalformedInputError):
        parse_input(b"\xff\xfe")


def test_parse_rejects_over_long_integers(tmp_path, capsys):
    # one digit past the interpreter's limit on integer string conversion,
    # as a JSON number and as a decimal string
    limit = getattr(sys, "get_int_max_str_digits", lambda: 0)()
    if not limit:
        pytest.skip("no limit on integer string conversion")
    digits = "1" * (limit + 1)
    for name, entry in (("number", digits), ("string", f'"{digits}"')):
        text = f'{{"dimension": 1, "characteristic": 0, "semigroup_generators": [[{entry}]]}}'
        with pytest.raises(MalformedInputError):
            parse_input(text)
        doc = tmp_path / f"{name}.json"
        doc.write_text(text)
        code, out, err = run_cli(capsys, "check", str(doc))
        assert code == 2 and out == ""
        assert json.loads(err)["error"] == "malformed-document"


def test_problem_round_trip():
    spec = parse_input(
        '{"dimension": 2, "characteristic": 5, "dual_cone_rays": [[1, 0], [3, 7]],'
        ' "normalize": false, "max_depth": 9, "format": "dot"}'
    )
    assert parse_input(serialize(problem_payload(spec))) == spec


def test_round_trip_preserves_huge_entries():
    big = 2**70
    doc = {
        "dimension": 2,
        "characteristic": 0,
        "semigroup_generators": [[1, 0], [0, 1], [big, -big]],
    }
    spec = parse_input(json.dumps(doc))
    assert spec.semigroup_generators[2] == (big, -big)
    out = serialize(problem_payload(spec))
    assert f'"{big}"' in out
    assert f'"-{big}"' in out
    assert parse_input(out) == spec


def test_canonical_json_is_key_order_insensitive():
    a = parse_input('{"dimension": 1, "characteristic": 2, "semigroup_generators": [[2], [3]]}')
    b = parse_input('{"semigroup_generators": [[2], [3]], "characteristic": 2, "dimension": 1}')
    assert serialize(problem_payload(a)) == serialize(problem_payload(b))
    payload = json.loads(serialize(problem_payload(a)))
    assert payload == problem_payload(a)


def test_semigroup_and_hilbert_payloads(cusp):
    assert semigroup_payload(cusp) == {
        "kind": "semigroup",
        "dimension": 1,
        "minimal_generators": [[2], [3]],
    }
    # no command emits a Hilbert basis, so there is no payload for one
    basis = hilbert_basis(Cone.from_rays(((1, 0), (1, 2)), 2))
    assert basis.elements == ((1, 0), (1, 1), (1, 2))
    with pytest.raises(FormatError):
        serialize(basis)


def test_ideal_and_newton_payloads(cusp):
    ideal = log_jacobian_ideal(cusp, 2)
    assert ideal_payload(ideal) == {
        "kind": "log-jacobian",
        "dimension": 1,
        "characteristic": 2,
        "minimal_generators": [[2], [3]],
        "exponents": [[3]],
    }
    N = newton_polyhedron(ideal)
    payload = newton_payload(N)
    assert payload["kind"] == "newton-polyhedron"
    assert payload["vertices"] == [[3]]
    assert payload["recession_rays"] == [[1]]


def test_charts_payload(threefold):
    N = newton_polyhedron(log_jacobian_ideal(threefold, 2))
    charts = blowup_charts(N, normalize=False)
    payload = charts_payload(charts, characteristic=2)
    assert payload["kind"] == "blowup"
    assert payload["characteristic"] == 2
    assert payload["normalize"] is False
    assert [c["vertex"] for c in payload["charts"]] == [[2, 2, 1], [2, 3, 3], [3, 2, 3]]
    for chart in payload["charts"]:
        assert len(chart["generators"]) == 5
    assert charts_payload([]) == {"kind": "blowup", "charts": []}


def test_tree_payload_and_json(cusp):
    tree = resolve(cusp, 2)
    assert serialize(tree_payload(tree)) == (
        '{"characteristic":2,"dimension":1,"kind":"resolution-tree",'
        '"max_depth":64,"normalize":true,"root":{"children":[{"node":'
        '{"children":[],"depth":1,"generators":[[1]],"status":"smooth-leaf"},'
        '"vertex":[3]}],"depth":0,"generators":[[2],[3]],"status":"expanded"}}'
    )


def test_comparison_payload(cusp):
    payload = comparison_payload(compare_characteristics(cusp, (2, 3)))
    assert payload["kind"] == "characteristic-comparison"
    assert payload["entries"] == [
        {"characteristic": 2, "exponents": [[3]], "vertices": [[3]]},
        {"characteristic": 3, "exponents": [[2]], "vertices": [[2]]},
    ]
    assert payload["pairs"] == [{"first": 2, "second": 3, "vertices_equal": False}]
    assert payload["all_equal"] is False


def test_serialize_rejects_non_payloads(cusp):
    # serialize renders payload dicts only, never the library objects
    for result in ([(1, 2), (3, 4)], object(), cusp, resolve(cusp, 2)):
        with pytest.raises(FormatError):
            serialize(result)
    with pytest.raises(FormatError):
        serialize({}, format="yaml")


def test_dot_rendering(cusp, threefold):
    out = serialize(tree_payload(resolve(cusp, 2)), "dot")
    assert out == "\n".join(
        [
            "digraph resolution {",
            "  node [shape=box];",
            '  n0 [label="(2) (3)\\nexpanded"];',
            '  n1 [label="(1)\\nsmooth-leaf"];',
            '  n0 -> n1 [label="(3)"];',
            "}",
        ]
    )
    big = serialize(tree_payload(resolve(threefold, 2)), "dot")
    assert big.count("->") == 15
    assert big.count("label=") == 31

    with pytest.raises(FormatError):
        serialize(semigroup_payload(cusp), "dot")


def test_text_rendering(cusp, threefold):
    tree_text = serialize(tree_payload(resolve(cusp, 2)), "text")
    assert tree_text == "\n".join(
        [
            "resolution tree: characteristic=2 normalize=true max_depth=64",
            "  [depth 0] expanded: (2) (3)",
            "    via (3) [depth 1] smooth-leaf: (1)",
        ]
    )
    assert serialize(semigroup_payload(cusp), "text") == "semigroup: dimension=1\n  minimal generators: (2) (3)"
    spec = parse_input(CUSP_DOC)
    assert serialize(problem_payload(spec), "text").startswith("problem: dimension=1 characteristic=2")
    ideal_text = serialize(ideal_payload(log_jacobian_ideal(cusp, 2)), "text")
    assert "exponents: (3)" in ideal_text
    newton_text = serialize(newton_payload(newton_polyhedron(log_jacobian_ideal(cusp, 2))), "text")
    assert "vertices: (3)" in newton_text
    charts = blowup_charts(newton_polyhedron(log_jacobian_ideal(threefold, 2)), True)
    charts_text = serialize(charts_payload(charts, characteristic=2), "text")
    assert "chart at (2,2,1):" in charts_text
    cmp_text = serialize(comparison_payload(compare_characteristics(cusp, (2, 3))), "text")
    assert "vertices(2) vs vertices(3): different" in cmp_text
    assert "all equal: false" in cmp_text
    with pytest.raises(FormatError):
        serialize([(1, 2)], "text")


def test_deepest_tree_serializes(cusp):
    # a chain as deep as any tree resolve may build, one node per level
    node = ResolutionNode(cusp, MAX_DEPTH, DEPTH_CAPPED, ())
    for depth in reversed(range(MAX_DEPTH)):
        node = ResolutionNode(cusp, depth, EXPANDED, (((3,), node),))
    payload = tree_payload(ResolutionTree(node, 2, True, MAX_DEPTH))
    last = json.loads(serialize(payload, "json"))["root"]
    for _ in range(MAX_DEPTH):
        (child,) = last["children"]
        last = child["node"]
    assert last["depth"] == MAX_DEPTH and last["status"] == DEPTH_CAPPED
    assert serialize(payload, "dot").count("->") == MAX_DEPTH
    text = serialize(payload, "text").splitlines()
    assert len(text) == MAX_DEPTH + 2
    assert text[-1].startswith("  " * (MAX_DEPTH + 1) + f"via (3) [depth {MAX_DEPTH}]")


# CLI


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def cusp_path(tmp_path):
    path = tmp_path / "cusp.json"
    path.write_text(CUSP_DOC)
    return str(path)


def threefold_path(tmp_path):
    path = tmp_path / "threefold.json"
    path.write_text(THREEFOLD_DOC)
    return str(path)


def test_cli_check_and_stdin(tmp_path, capsys, monkeypatch):
    code, out, err = run_cli(capsys, "check", cusp_path(tmp_path))
    assert code == 0 and err == ""
    assert json.loads(out) == {
        "dimension": 1,
        "characteristic": 2,
        "normalize": True,
        "max_depth": 64,
        "format": "json",
        "semigroup_generators": [[2], [3]],
    }
    # the CLI reads sys.stdin.buffer
    monkeypatch.setattr("sys.stdin", io.TextIOWrapper(io.BytesIO(CUSP_DOC.encode())))
    code2, out2, _ = run_cli(capsys, "check")
    assert code2 == 0 and out2 == out


def test_cli_mingen_saturate(tmp_path, capsys):
    code, out, _ = run_cli(capsys, "mingen", cusp_path(tmp_path))
    assert code == 0
    assert json.loads(out)["minimal_generators"] == [[2], [3]]
    code, out, _ = run_cli(capsys, "saturate", cusp_path(tmp_path))
    assert code == 0
    assert json.loads(out)["minimal_generators"] == [[1]]


def test_cli_logjac_newton(tmp_path, capsys):
    path = cusp_path(tmp_path)
    code, out, _ = run_cli(capsys, "logjac", path)
    assert code == 0
    assert json.loads(out)["exponents"] == [[3]]  # document characteristic 2
    code, out, _ = run_cli(capsys, "logjac", path, "--char", "3")
    assert json.loads(out)["exponents"] == [[2]]
    code, out, _ = run_cli(capsys, "newton", path, "--char", "0")
    payload = json.loads(out)
    assert payload["vertices"] == [[2]]
    assert payload["exponents"] == [[2], [3]]


def test_cli_blowup_exit_codes(tmp_path, capsys):
    path = cusp_path(tmp_path)
    code, out, _ = run_cli(capsys, "blowup", path, "--no-normalize")
    assert code == 4
    payload = json.loads(out)
    assert payload["charts"] == [{"vertex": [3], "generators": [[2], [3]]}]
    code, out, _ = run_cli(capsys, "blowup", path)
    assert code == 0
    assert json.loads(out)["charts"] == [{"vertex": [3], "generators": [[1]]}]


def test_cli_resolve_exit_codes(tmp_path, capsys):
    cusp = cusp_path(tmp_path)
    threefold = threefold_path(tmp_path)
    code, out, _ = run_cli(capsys, "resolve", cusp)
    assert code == 0
    assert json.loads(out)["root"]["status"] == "expanded"
    code, _, _ = run_cli(capsys, "resolve", cusp, "--no-normalize")
    assert code == 4
    code, out, _ = run_cli(capsys, "resolve", threefold, "--max-depth", "1")
    assert code == 3
    assert "depth-capped" in out
    code, _, _ = run_cli(capsys, "resolve", threefold)
    assert code == 0


def test_cli_compare(tmp_path, capsys):
    code, out, _ = run_cli(capsys, "compare", threefold_path(tmp_path))
    assert code == 0
    payload = json.loads(out)
    assert [e["characteristic"] for e in payload["entries"]] == [0, 2]
    assert payload["all_equal"] is False
    code, out, _ = run_cli(capsys, "compare", cusp_path(tmp_path), "--char", "2", "--char", "3")
    assert [e["characteristic"] for e in json.loads(out)["entries"]] == [2, 3]


def test_cli_suite(capsys):
    args = ("suite", "--seed", "5", "--count", "3", "--entry-bound", "8")
    code, out, _ = run_cli(capsys, *args)
    assert code == 0
    payload = json.loads(out)
    assert payload["kind"] == "surface-suite"
    assert payload["count"] == 3
    assert len(payload["runs"]) == 3
    assert payload["all_terminated"] is True
    code2, out2, _ = run_cli(capsys, *args)
    assert out2 == out


def test_cli_format_selection(tmp_path, capsys):
    path = cusp_path(tmp_path)
    _, out, _ = run_cli(capsys, "mingen", path, "--format", "text")
    assert out.startswith("semigroup:")
    doc = tmp_path / "text.json"
    doc.write_text(
        '{"dimension": 1, "characteristic": 2, "semigroup_generators": [[2], [3]],'
        ' "format": "text"}'
    )
    _, out, _ = run_cli(capsys, "mingen", str(doc))
    assert out.startswith("semigroup:")
    code, out, _ = run_cli(capsys, "resolve", path, "--format", "dot")
    assert code == 0
    assert out.startswith("digraph resolution {")


def test_cli_error_reports(tmp_path, capsys):
    code, out, err = run_cli(capsys, "mingen", str(tmp_path / "missing.json"))
    assert code == 2 and out == ""
    assert json.loads(err)["error"] == "malformed-document"
    bad = tmp_path / "bad.json"
    bad.write_text('{"dimension": 1}')
    code, _, err = run_cli(capsys, "mingen", str(bad))
    assert code == 2
    assert json.loads(err)["error"] == "malformed-document"
    code, _, err = run_cli(capsys, "logjac", cusp_path(tmp_path), "--char", "4")
    assert code == 2
    assert json.loads(err)["error"] == "composite-characteristic"
    pseudoprime = tmp_path / "pseudoprime.json"
    pseudoprime.write_text(
        '{"dimension":2,"characteristic":"318665857834031151167461",'
        '"dual_cone_rays":[[1,0],[1,3]]}'
    )
    code, out, err = run_cli(capsys, "logjac", str(pseudoprime))
    assert code == 2 and out == ""
    assert json.loads(err)["error"] == "composite-characteristic"
    code, _, err = run_cli(capsys, "newton", cusp_path(tmp_path), "--format", "dot")
    assert code == 2
    assert json.loads(err)["error"] == "unsupported-format"
    code, _, err = run_cli(capsys, "suite", "--entry-bound", "0")
    assert code == 2
    assert json.loads(err)["error"] == "invalid-argument"
    code, out, err = run_cli(capsys, "suite", "--count", "1", "--entry-bound", "1")
    assert code == 2 and out == ""
    assert json.loads(err) == {
        "error": "invalid-argument",
        "message": "entry bound must be at least 2",
    }
    code, _, err = run_cli(capsys, "resolve", cusp_path(tmp_path), "--max-depth", "0")
    assert code == 2
    assert json.loads(err)["error"] == "invalid-argument"
    too_deep = str(MAX_DEPTH + 1)
    for argv in (
        ("resolve", cusp_path(tmp_path), "--max-depth", too_deep),
        ("suite", "--count", "1", "--max-depth", too_deep),
    ):
        code, out, err = run_cli(capsys, *argv)
        assert code == 2 and out == ""
        assert json.loads(err) == {
            "error": "invalid-argument",
            "message": f"max_depth must be between 1 and {MAX_DEPTH}",
        }
    deep = tmp_path / "deep.json"
    deep.write_text(CUSP_DOC[:-1] + f', "max_depth": {too_deep}}}')
    code, out, err = run_cli(capsys, "resolve", str(deep))
    assert code == 2 and out == ""
    assert json.loads(err)["error"] == "malformed-document"
    pointless = tmp_path / "line.json"
    pointless.write_text('{"dimension": 2, "characteristic": 0, "cone_rays": [[1, 0], [-1, 0]]}')
    code, _, err = run_cli(capsys, "mingen", str(pointless))
    assert code == 2
    assert json.loads(err)["error"] == "non-pointed"
    flat = tmp_path / "flat.json"
    flat.write_text('{"dimension": 3, "characteristic": 0, "cone_rays": [[1, 0, 0], [0, 1, 0]]}')
    code, out, err = run_cli(capsys, "mingen", str(flat))
    assert code == 2 and out == ""
    assert json.loads(err) == {
        "error": "not-full-dimensional",
        "message": "cone_rays must span a full-dimensional cone",
    }
    for name, data in (
        ("nested.json", ("[" * 100000 + "]" * 100000).encode()),
        ("superscript.json", '{"dimension": "\u00b2", "characteristic": 0, "semigroup_generators": [[1]]}'.encode()),
        # the CLI reads bytes and leaves the only UTF-8 decode to parse_input
        ("latin.json", b"\xff{}"),
    ):
        doc = tmp_path / name
        doc.write_bytes(data)
        code, out, err = run_cli(capsys, "check", str(doc))
        assert code == 2 and out == ""
        assert json.loads(err)["error"] == "malformed-document"
    # argument errors follow the same contract instead of printing usage
    for extra in (("--bogus",), ("--max-depth", "abc"), ("--parallel",)):
        code, out, err = run_cli(capsys, "resolve", cusp_path(tmp_path), *extra)
        assert code == 2 and out == ""
        report = json.loads(err)
        assert report["error"] == "invalid-argument"
        assert extra[0] in report["message"]


def test_cli_rejects_non_utf8_stdin():
    # a strict text stdin would raise UnicodeDecodeError before parse_input
    src = os.path.dirname(os.path.dirname(nashtoric.__file__))
    env = dict(os.environ, PYTHONPATH=src, PYTHONIOENCODING="utf-8:strict")
    proc = subprocess.run(
        [sys.executable, "-m", "nashtoric", "check"],
        input=b"\xff{}",
        capture_output=True,
        env=env,
        timeout=60,
    )
    assert proc.returncode == 2 and proc.stdout == b""
    assert json.loads(proc.stderr)["error"] == "malformed-document"


def test_cli_help_still_prints_usage(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["resolve", "-h"])
    assert exc.value.code == 0
    assert "--max-depth" in capsys.readouterr().out


def test_cli_internal_error_report(tmp_path, capsys, monkeypatch):
    def broken(*args, **kwargs):
        raise RuntimeError("broken invariant")

    monkeypatch.setattr("nashtoric.cli.resolve", broken)
    code, out, err = run_cli(capsys, "resolve", cusp_path(tmp_path))
    assert code == 5 and out == ""
    assert json.loads(err) == {
        "error": "internal-error",
        "message": "RuntimeError: broken invariant",
    }


@pytest.mark.parametrize("command", ["logjac", "resolve"])
def test_cli_closed_stdout_exits_quietly(command):
    # the reader is gone before any output is written, as in `... | head -0`
    src = os.path.dirname(os.path.dirname(nashtoric.__file__))
    env = dict(os.environ, PYTHONPATH=src)
    read_end, write_end = os.pipe()
    os.close(read_end)
    try:
        proc = subprocess.Popen(
            [sys.executable, "-m", "nashtoric", command],
            stdin=subprocess.PIPE,
            stdout=write_end,
            stderr=subprocess.PIPE,
            env=env,
        )
    finally:
        os.close(write_end)
    _, err = proc.communicate(THREEFOLD_DOC.encode(), timeout=120)
    assert err == b""
    assert proc.returncode == 141
