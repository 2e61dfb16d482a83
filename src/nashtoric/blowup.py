"""One combinatorial Nash blowup step.

Pipeline: admissible d-subsets of minimal generators (determinant nonzero
mod p) give the ideal exponents; their convex hull plus the semigroup's
cone is the Newton polyhedron; each vertex yields an affine chart.
"""

from dataclasses import dataclass
from itertools import combinations

from .errors import ToricError
from .cones import Cone, irreducible, polyhedron_vertices
from .linalg import columns_matrix, det_mod, validate_characteristic, vsub
from .semigroups import AffineSemigroup


@dataclass(frozen=True)
class MonomialIdealExponents:
    semigroup: AffineSemigroup
    characteristic: int
    exponents: tuple
    raw_exponents: tuple


def log_jacobian_ideal(S: AffineSemigroup, characteristic) -> MonomialIdealExponents:
    """Exponent set of the logarithmic Jacobian ideal modulo p.

    E = sums of d distinct minimal generators whose determinant does not
    vanish mod p (p = 0 reads as: does not vanish over Z). The public
    exponents are the ideal's minimal generators, those that are no other
    exponent plus an element of S (`irreducible`); the raw list is kept
    for invariance checks.
    """
    p = validate_characteristic(characteristic)
    gens = S.minimal_generators()
    raw = set()
    for subset in combinations(gens, S.dim):
        if det_mod(columns_matrix(subset), p):
            raw.add(tuple(map(sum, zip(*subset))))
    if not raw:
        raise RuntimeError(
            "log-Jacobian ideal is empty, but a full-lattice generator set "
            "always has an admissible subset"
        )
    kept = irreducible(raw, S.cone.halfspaces, lambda g, _: S.membership(g))
    return MonomialIdealExponents(S, p, kept, tuple(sorted(raw)))


@dataclass(frozen=True)
class NewtonPolyhedron:
    semigroup: AffineSemigroup
    characteristic: int
    exponents: tuple
    recession_cone: Cone
    vertices: tuple


def newton_polyhedron(ideal: MonomialIdealExponents) -> NewtonPolyhedron:
    """Vertices of conv(exponents) + cone(semigroup)."""
    S = ideal.semigroup
    vertices = polyhedron_vertices(ideal.exponents, S.cone)
    return NewtonPolyhedron(S, ideal.characteristic, ideal.exponents, S.cone, vertices)


@dataclass(frozen=True)
class BlowupChart:
    vertex: tuple
    semigroup: AffineSemigroup
    normalized: bool


def blowup_charts(N: NewtonPolyhedron, normalize: bool = True):
    """One chart per Newton polyhedron vertex, in vertex order.

    The chart at v is generated by the parent's minimal generators together
    with e - v for every exponent e. With normalize the chart is its
    saturation cone(σ^∨ ∪ (E - v)) ∩ Z^d, built straight from that cone.
    """
    S = N.semigroup
    charts = []
    for v in N.vertices:
        shifts = tuple(vsub(e, v) for e in N.exponents)
        try:
            if normalize:
                cone = Cone.from_rays(S.cone.rays + shifts, S.dim)
                chart = AffineSemigroup.from_cone(cone)
            else:
                chart = AffineSemigroup(S.dim, S.minimal_generators() + shifts)
        except ToricError as exc:
            # chart cones are provably pointed and full-dimensional, chart
            # semigroups have full group; reaching this means the
            # construction itself is broken
            raise RuntimeError(
                f"blowup chart at vertex {v} violated construction invariants: {exc}"
            ) from exc
        charts.append(BlowupChart(v, chart, normalize))
    return tuple(charts)


def is_trivial_step(N: NewtonPolyhedron, charts) -> bool:
    """True when the single chart reproduces the parent semigroup.

    Only meaningful for charts built without normalization.
    """
    if len(charts) != 1:
        return False
    return (
        charts[0].semigroup.minimal_generators()
        == N.semigroup.minimal_generators()
    )
