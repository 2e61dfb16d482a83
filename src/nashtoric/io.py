"""Problem documents, canonical JSON, DOT and plain-text rendering.

Vectors are JSON arrays of integers. Entries outside the signed 64-bit
range are emitted as decimal strings; the parser accepts both forms
wherever an integer is allowed, so serialization round-trips exactly.
JSON output is canonical: sorted keys, no whitespace, deterministic
(and therefore byte-identical) across runs.
"""

import json
from dataclasses import dataclass
from itertools import count as _counter

from .blowup import MonomialIdealExponents, NewtonPolyhedron
from .cones import Cone
from .errors import (
    DimensionError,
    FormatError,
    MalformedInputError,
    NotFullDimensionalError,
    NotPointedError,
)
from .linalg import images, validate_characteristic
from .resolve import DEFAULT_MAX_DEPTH, MAX_DEPTH
from .resolve import CharacteristicComparison, ResolutionTree, SuiteSummary
from .semigroups import AffineSemigroup

INT64_MIN = -(2**63)
INT64_MAX = 2**63 - 1

FORMATS = ("json", "dot", "text")

_SOURCES = ("semigroup_generators", "dual_cone_rays", "cone_rays")
_FIELDS = _SOURCES + ("dimension", "characteristic", "normalize", "max_depth", "format")


@dataclass(frozen=True)
class ProblemSpec:
    dimension: int
    characteristic: int
    semigroup_generators: tuple = None
    dual_cone_rays: tuple = None
    cone_rays: tuple = None
    normalize: bool = True
    max_depth: int = DEFAULT_MAX_DEPTH
    format: str = "json"

    def semigroup(self) -> AffineSemigroup:
        if self.semigroup_generators is not None:
            return AffineSemigroup(self.dimension, self.semigroup_generators)
        # σ is pointed and full-dimensional exactly when σ̌ is, so the cone
        # of either field is checked as given, before any Hilbert basis
        if self.dual_cone_rays is not None:
            field, rays = "dual_cone_rays", self.dual_cone_rays
        else:
            field, rays = "cone_rays", self.cone_rays
        try:
            cone = Cone.from_rays(rays, self.dimension)
        except NotPointedError:
            raise NotPointedError(f"{field} must span a pointed cone") from None
        except NotFullDimensionalError:
            raise NotFullDimensionalError(f"{field} must span a full-dimensional cone") from None
        if field == "cone_rays":
            cone = cone.dual()
        return AffineSemigroup.from_cone(cone)


def _as_int(value, name: str) -> int:
    if isinstance(value, bool):
        raise MalformedInputError(f"{name} must be an integer")
    if isinstance(value, int):
        return value
    if isinstance(value, str):
        body = value[1:] if value[:1] in ("-", "+") else value
        # str.isdigit also accepts superscripts and other scripts' digits
        if body.isascii() and body.isdigit():
            try:
                return int(value)
            except ValueError:
                # past the interpreter's limit on decimal digits
                raise MalformedInputError(f"{name} has too many digits") from None
    raise MalformedInputError(f"{name} must be an integer or a decimal string")


def _vector_list(value, name: str, dim: int):
    if not isinstance(value, (list, tuple)) or not value:
        raise MalformedInputError(f"{name} must be a nonempty list of vectors")
    out = []
    for i, vec in enumerate(value):
        if not isinstance(vec, (list, tuple)):
            raise MalformedInputError(f"{name}[{i}] must be a list of integers")
        if len(vec) != dim:
            raise DimensionError(
                f"{name}[{i}] has length {len(vec)}, expected {dim}"
            )
        out.append(tuple(_as_int(c, f"{name}[{i}][{j}]") for j, c in enumerate(vec)))
    return tuple(out)


def parse_input(document) -> ProblemSpec:
    """Validate a problem document (JSON text, bytes, or parsed dict)."""
    if isinstance(document, (bytes, bytearray)):
        try:
            document = document.decode("utf-8")
        except UnicodeDecodeError as exc:
            raise MalformedInputError(f"input is not UTF-8: {exc}") from None
    if isinstance(document, str):
        try:
            data = json.loads(document)
        except ValueError as exc:
            # JSONDecodeError, or a number past the limit on decimal digits
            raise MalformedInputError(f"invalid JSON: {exc}") from None
        except RecursionError:
            raise MalformedInputError("invalid JSON: nested too deeply") from None
    else:
        data = document
    if not isinstance(data, dict):
        raise MalformedInputError("problem document must be a JSON object")
    unknown = set(data) - set(_FIELDS)
    if unknown:
        raise MalformedInputError(f"unknown fields: {', '.join(sorted(unknown))}")
    for required in ("dimension", "characteristic"):
        if required not in data:
            raise MalformedInputError(f"missing field: {required}")
    dim = _as_int(data["dimension"], "dimension")
    if dim < 1:
        raise DimensionError("dimension must be a positive integer")
    ch = validate_characteristic(_as_int(data["characteristic"], "characteristic"))
    sources = [k for k in _SOURCES if data.get(k) is not None]
    if len(sources) != 1:
        raise MalformedInputError(
            "exactly one of semigroup_generators, dual_cone_rays, cone_rays is required"
        )
    vectors = _vector_list(data[sources[0]], sources[0], dim)
    normalize = data.get("normalize", True)
    if not isinstance(normalize, bool):
        raise MalformedInputError("normalize must be a boolean")
    max_depth = _as_int(data.get("max_depth", DEFAULT_MAX_DEPTH), "max_depth")
    if not 1 <= max_depth <= MAX_DEPTH:
        raise MalformedInputError(f"max_depth must be between 1 and {MAX_DEPTH}")
    fmt = data.get("format", "json")
    if fmt not in FORMATS:
        raise FormatError(f"format must be one of: {', '.join(FORMATS)}")
    return ProblemSpec(
        dimension=dim,
        characteristic=ch,
        normalize=normalize,
        max_depth=max_depth,
        format=fmt,
        **{sources[0]: vectors},
    )


def _enc_vec(v):
    return [c if INT64_MIN <= c <= INT64_MAX else str(c) for c in v]


def _enc_vecs(vs):
    # `_enc_vec` written out: every node of a tree prints its generators, and
    # a call per vector costs more than the range test
    return [[c if INT64_MIN <= c <= INT64_MAX else str(c) for c in v] for v in vs]


def problem_payload(spec: ProblemSpec) -> dict:
    out = {
        "dimension": spec.dimension,
        "characteristic": spec.characteristic,
        "normalize": spec.normalize,
        "max_depth": spec.max_depth,
        "format": spec.format,
    }
    for key in _SOURCES:
        value = getattr(spec, key)
        if value is not None:
            out[key] = _enc_vecs(value)
    return out


def semigroup_payload(S: AffineSemigroup) -> dict:
    return {
        "kind": "semigroup",
        "dimension": S.dim,
        "minimal_generators": _enc_vecs(S.minimal_generators()),
    }


def ideal_payload(ideal: MonomialIdealExponents) -> dict:
    return {
        "kind": "log-jacobian",
        "dimension": ideal.semigroup.dim,
        "characteristic": ideal.characteristic,
        "minimal_generators": _enc_vecs(ideal.semigroup.minimal_generators()),
        "exponents": _enc_vecs(ideal.exponents),
    }


def newton_payload(N: NewtonPolyhedron) -> dict:
    return {
        "kind": "newton-polyhedron",
        "dimension": N.semigroup.dim,
        "characteristic": N.characteristic,
        "exponents": _enc_vecs(N.exponents),
        "recession_rays": _enc_vecs(N.semigroup.cone.rays),
        "vertices": _enc_vecs(N.vertices),
    }


def charts_payload(charts, characteristic) -> dict:
    """The charts of one blowup, never empty: E is nonempty and σ̌ is
    pointed, so the Newton polyhedron has a vertex."""
    return {
        "kind": "blowup",
        "charts": [
            {
                "vertex": _enc_vec(c.vertex),
                "generators": _enc_vecs(c.semigroup.minimal_generators()),
            }
            for c in charts
        ],
        "dimension": charts[0].semigroup.dim,
        "normalize": charts[0].normalized,
        "characteristic": characteristic,
    }


def _payload_node(T, g, depth, status, children) -> dict:
    """`ResolutionTree.unfold`'s builder for `tree_payload`: the dict of
    the node g·T (T when g is None), its generators T's minimal generators
    mapped by g, with no node or image built."""
    gens = T.minimal_generators()
    return {
        "generators": _enc_vecs(gens if g is None else images(g, gens)),
        "depth": depth,
        "status": status,
        "children": [{"vertex": _enc_vec(v), "node": child} for v, child in children],
    }


def tree_payload(tree: ResolutionTree) -> dict:
    """The tree as a payload dict, written from its class graph by one
    walk (`ResolutionTree.unfold`), so no `ResolutionNode` is built."""
    return {
        "kind": "resolution-tree",
        "dimension": tree.semigroup.dim,
        "characteristic": tree.characteristic,
        "normalize": tree.normalize,
        "max_depth": tree.max_depth,
        "root": tree.unfold(tree.semigroup, 0, tree.link, _payload_node),
    }


def comparison_payload(report: CharacteristicComparison) -> dict:
    return {
        "kind": "characteristic-comparison",
        "dimension": report.semigroup.dim,
        "minimal_generators": _enc_vecs(report.semigroup.minimal_generators()),
        "entries": [
            {
                "characteristic": e.characteristic,
                "exponents": _enc_vecs(e.exponents),
                "vertices": _enc_vecs(e.vertices),
            }
            for e in report.entries
        ],
        "pairs": [
            {"first": a, "second": b, "vertices_equal": eq}
            for a, b, eq in report.pairs
        ],
        "all_equal": report.all_equal,
    }


def suite_payload(summary: SuiteSummary) -> dict:
    return {
        "kind": "surface-suite",
        "seed": summary.seed,
        "count": summary.count,
        "entry_bound": summary.entry_bound,
        "characteristics": list(summary.characteristics),
        "max_depth": summary.max_depth,
        "all_terminated": summary.all_terminated,
        "all_leaves_smooth": summary.all_leaves_smooth,
        "all_characteristic_independent": summary.all_characteristic_independent,
        "max_depth_observed": summary.max_depth_observed,
        "runs": [
            {
                "rays": _enc_vecs(r.rays),
                "depths": list(r.depths),
                "terminated": r.terminated,
                "leaves_smooth": r.leaves_smooth,
                "characteristic_independent": r.characteristic_independent,
            }
            for r in summary.runs
        ],
    }


def serialize(payload: dict, format: str = "json") -> str:
    """Render a payload from one of the *_payload builders above."""
    if format not in FORMATS:
        raise FormatError(f"format must be one of: {', '.join(FORMATS)}")
    if not isinstance(payload, dict):
        raise FormatError(f"cannot serialize object of type {type(payload).__name__}")
    if format == "json":
        return json.dumps(payload, sort_keys=True, separators=(",", ":"))
    if format == "dot":
        return _render_dot(payload)
    return _render_text(payload)


def _vec_str(v) -> str:
    return "(" + ",".join(str(c) for c in v) + ")"


def _vecs_str(vs) -> str:
    return " ".join(_vec_str(v) for v in vs) if vs else "(none)"


def _bool_str(b) -> str:
    return "true" if b else "false"


def _render_dot(payload: dict) -> str:
    if payload.get("kind") != "resolution-tree":
        raise FormatError("dot output is only defined for resolution trees")
    lines = [
        "digraph resolution {",
        "  node [shape=box];",
    ]
    ids = _counter()

    def walk(node) -> str:
        nid = f"n{next(ids)}"
        label = f"{_vecs_str(node['generators'])}\\n{node['status']}"
        lines.append(f'  {nid} [label="{label}"];')
        for child in node["children"]:
            cid = walk(child["node"])
            lines.append(f'  {nid} -> {cid} [label="{_vec_str(child["vertex"])}"];')
        return nid

    walk(payload["root"])
    del walk  # walk names itself; the del breaks that reference cycle
    lines.append("}")
    return "\n".join(lines)


def _render_text(payload: dict) -> str:
    kind = payload.get("kind")
    lines = []
    if kind is None:
        lines.append(
            "problem: dimension={} characteristic={} normalize={} max_depth={} format={}".format(
                payload["dimension"],
                payload["characteristic"],
                _bool_str(payload["normalize"]),
                payload["max_depth"],
                payload["format"],
            )
        )
        for key in _SOURCES:
            if key in payload:
                lines.append(f"  {key}: {_vecs_str(payload[key])}")
    elif kind == "semigroup":
        lines.append(f"semigroup: dimension={payload['dimension']}")
        lines.append(f"  minimal generators: {_vecs_str(payload['minimal_generators'])}")
    elif kind == "log-jacobian":
        lines.append(
            f"log-jacobian ideal: characteristic={payload['characteristic']}"
        )
        lines.append(f"  minimal generators: {_vecs_str(payload['minimal_generators'])}")
        lines.append(f"  exponents: {_vecs_str(payload['exponents'])}")
    elif kind == "newton-polyhedron":
        lines.append(
            f"newton polyhedron: characteristic={payload['characteristic']}"
        )
        lines.append(f"  exponents: {_vecs_str(payload['exponents'])}")
        lines.append(f"  recession rays: {_vecs_str(payload['recession_rays'])}")
        lines.append(f"  vertices: {_vecs_str(payload['vertices'])}")
    elif kind == "blowup":
        lines.append(
            f"blowup charts: characteristic={payload['characteristic']}"
            f" normalize={_bool_str(payload['normalize'])}"
        )
        for chart in payload["charts"]:
            lines.append(
                f"  chart at {_vec_str(chart['vertex'])}: {_vecs_str(chart['generators'])}"
            )
    elif kind == "resolution-tree":
        lines.append(
            "resolution tree: characteristic={} normalize={} max_depth={}".format(
                payload["characteristic"],
                _bool_str(payload["normalize"]),
                payload["max_depth"],
            )
        )
        todo = [(payload["root"], 1, None)]  # preorder: children pushed reversed
        while todo:
            node, indent, via = todo.pop()
            label = f"[depth {node['depth']}] {node['status']}"
            if via is not None:
                label = f"via {_vec_str(via)} {label}"
            lines.append("  " * indent + label + ": " + _vecs_str(node["generators"]))
            todo += [(c["node"], indent + 1, c["vertex"]) for c in reversed(node["children"])]
    elif kind == "characteristic-comparison":
        lines.append("characteristic comparison:")
        lines.append(f"  minimal generators: {_vecs_str(payload['minimal_generators'])}")
        for entry in payload["entries"]:
            lines.append(
                "  characteristic {}: exponents {} | vertices {}".format(
                    entry["characteristic"],
                    _vecs_str(entry["exponents"]),
                    _vecs_str(entry["vertices"]),
                )
            )
        for pair in payload["pairs"]:
            verdict = "equal" if pair["vertices_equal"] else "different"
            lines.append(
                f"  vertices({pair['first']}) vs vertices({pair['second']}): {verdict}"
            )
        lines.append(f"  all equal: {_bool_str(payload['all_equal'])}")
    elif kind == "surface-suite":
        lines.append(
            "surface suite: seed={} count={} entry_bound={} characteristics={} max_depth={}".format(
                payload["seed"],
                payload["count"],
                payload["entry_bound"],
                ",".join(str(c) for c in payload["characteristics"]),
                payload["max_depth"],
            )
        )
        lines.append(f"  all terminated: {_bool_str(payload['all_terminated'])}")
        lines.append(f"  all leaves smooth: {_bool_str(payload['all_leaves_smooth'])}")
        lines.append(
            "  all characteristic independent: "
            + _bool_str(payload["all_characteristic_independent"])
        )
        lines.append(f"  max depth observed: {payload['max_depth_observed']}")
        for run in payload["runs"]:
            lines.append(
                "  rays {}: depths {} terminated={} smooth={} independent={}".format(
                    _vecs_str(run["rays"]),
                    ",".join(str(d) for d in run["depths"]),
                    _bool_str(run["terminated"]),
                    _bool_str(run["leaves_smooth"]),
                    _bool_str(run["characteristic_independent"]),
                )
            )
    else:
        raise FormatError(f"no text rendering for kind {kind!r}")
    return "\n".join(lines)
