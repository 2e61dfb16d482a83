"""One combinatorial Nash blowup step.

Pipeline: admissible d-subsets of minimal generators (determinant nonzero
mod p) give the ideal exponents; their convex hull plus the semigroup's
cone is the Newton polyhedron; each vertex yields an affine chart, built
on the tangent cone at the vertex, converted once per chart: its lattice
points (`AffineSemigroup.from_cone`) or, unnormalized, the semigroup that
the chart's generators span in it (`AffineSemigroup.in_cone`).

The admissible subsets are the bases of the generators' matroid over F_p
(over Q for p = 0), so conv(E) is the image of its base polytope.
`nash_blowup` uses that to build the charts without the C(n, d)
enumeration: Edmonds' greedy algorithm finds a vertex, the single
exchanges B - b + g of its basis span the chart cone, and a walk along the
bounded edges reaches every other vertex.

The exchanges also generate the unnormalized chart Γ + <E - v>, Γ the
semigroup and v = sum B. Each g - b is a raw exponent minus v, and a raw
exponent is a minimal one plus an element of Γ. Conversely, by Brualdi's
symmetric exchange (Brualdi 1969) every basis B' admits a bijection
s: B - B' -> B' - B with every B - b + s(b) a basis, so sum B' - v is a
sum of exchange directions. Hence Γ + <E - v> = Γ + <g - b : B - b + g a
basis mod p>, and one walk serves both chart kinds. Most of Γ's generators
are redundant there: a generator g with some exchange is b + (g - b), so
B, the generators with no exchange (only p > 0 leaves any) and the
directions already generate the chart.

A resolution node needs the start basis and its exchanges twice, to test
a stall and to start the walk; `walk_start` computes them once for both.
"""

from dataclasses import dataclass
from itertools import chain

from .errors import ToricError
from .cones import Cone, irreducible, polyhedron_vertices_and_facets
from .linalg import (
    adjugate,
    columns_matrix,
    dot,
    independent_rows,
    maximal_minors,
    validate_characteristic,
    vneg,
    vsub,
)
from .semigroups import AffineSemigroup


_EMPTY_IDEAL = (
    "log-Jacobian ideal is empty, but a full-lattice generator set "
    "always has an admissible subset"
)


def _vsum(vectors):
    return tuple(map(sum, zip(*vectors)))


@dataclass(frozen=True)
class MonomialIdealExponents:
    semigroup: AffineSemigroup
    characteristic: int
    exponents: tuple


def log_jacobian_ideal(S: AffineSemigroup, characteristic) -> MonomialIdealExponents:
    """Exponent set of the logarithmic Jacobian ideal modulo p.

    E = sums of d distinct minimal generators whose determinant does not
    vanish mod p (p = 0 reads as: does not vanish over Z), all determinants
    from one `maximal_minors` sweep. The exponents kept are the ideal's
    minimal generators, those that are no other exponent plus an element
    of S (`irreducible`).
    """
    p = validate_characteristic(characteristic)
    gens = S.minimal_generators()
    raw = {
        _vsum([gens[i] for i in T])
        for T, minor in maximal_minors(gens)
        if (minor % p if p else minor)
    }
    if not raw:
        raise RuntimeError(_EMPTY_IDEAL)
    kept = irreducible(raw, S.cone.halfspaces, lambda g, _: S.membership(g))
    return MonomialIdealExponents(S, p, kept)


@dataclass(frozen=True)
class NewtonPolyhedron:
    """conv(exponents) + recession_cone, with its sorted vertices and its
    facets: the normals (h0, h), as tuples (h0,) + h, with
    h0 + <h, x> >= 0 on the polyhedron, (1, 0) included when the far face
    is a facet. The facets through a vertex cut out its tangent cone."""

    semigroup: AffineSemigroup
    characteristic: int
    exponents: tuple
    recession_cone: Cone
    vertices: tuple
    facets: tuple


def newton_polyhedron(ideal: MonomialIdealExponents) -> NewtonPolyhedron:
    """Vertices and facets of conv(exponents) + cone(semigroup), from one
    conversion of the homogenized cone (`polyhedron_vertices_and_facets`)."""
    S = ideal.semigroup
    vertices, facets = polyhedron_vertices_and_facets(ideal.exponents, S.cone)
    return NewtonPolyhedron(
        S, ideal.characteristic, ideal.exponents, S.cone, vertices, facets
    )


@dataclass(frozen=True)
class BlowupChart:
    vertex: tuple
    semigroup: AffineSemigroup
    normalized: bool


def blowup_charts(N: NewtonPolyhedron, normalize: bool = True):
    """One chart per Newton polyhedron vertex, in vertex order.

    The chart at v is Γ + <E - v>, generated by the parent's minimal
    generators and e - v for every exponent e; with normalize, its
    saturation. Both are built on the tangent cone at v, cone(σ^∨ ∪
    (E - v)), cut out by N's facets through v (h0 + <h, v> = 0), a few per
    vertex where E - v lists every exponent. `nash_blowup` builds the same
    charts by a walk (unnormalized ones from other generators); this
    enumeration stays for the `blowup` command and as the walk's oracle.
    """
    S = N.semigroup
    gens = S.minimal_generators()
    charts = []
    for v in N.vertices:
        through = [h[1:] for h in N.facets if h[0] + dot(h[1:], v) == 0]
        tangent = Cone.from_halfspaces(through, S.dim)
        # only an unnormalized chart reads its generators
        shifts = (vsub(e, v) for e in N.exponents)
        charts.append(_chart(v, tangent, chain(gens, shifts), normalize))
    return tuple(charts)


def _chart(v, tangent, generators, normalize):
    """The chart at vertex v, tangent the Newton polyhedron's tangent cone
    at v: with normalize, tangent ∩ Z^d; without, the semigroup the
    generators span, whose cone is tangent."""
    try:
        if normalize:
            chart = AffineSemigroup.from_cone(tangent)
        else:
            chart = AffineSemigroup.in_cone(tangent, generators)
    except ToricError as exc:
        # chart cones are provably pointed and full-dimensional and chart
        # semigroups have full group: reaching this is a construction bug
        raise RuntimeError(
            f"blowup chart at vertex {v} violated construction invariants: {exc}"
        ) from exc
    return BlowupChart(v, chart, normalize)


def nash_blowup(S: AffineSemigroup, characteristic, normalize: bool = True, start=None):
    """The charts of one blowup step, in vertex order.

    Equal to blowup_charts(newton_polyhedron(log_jacobian_ideal(S, p)),
    normalize), up to the generator lists of unnormalized charts, but
    built by a walk on the vertices, without E. A vertex is the sum of a
    greedy basis B. Both chart kinds are built on its tangent cone, one
    conversion of σ^∨'s rays and the exchange directions g - b; the
    directions with B and the generators that have no exchange generate
    the unnormalized chart (module docstring). Each extreme ray u of that
    cone outside σ^∨ is a bounded edge; the sum w_e of the facet normals
    through u is least on exactly that edge, and the greedy basis under
    (w_e, -u) sits at its far end. Bounded edges connect all vertices of
    a polyhedron whose recession cone is pointed.

    The walk begins at `walk_start(S, p)`; start passes that triple in when
    the caller already has it, as resolution does from its stall test.
    """
    p = validate_characteristic(characteristic)
    gens = S.minimal_generators()
    if start is None:
        start = walk_start(S, p)
    seen = {_vsum(start[0])}
    # each basis comes with its exchanges and the edge back to where it
    # was reached from
    todo = [(start, None)]
    charts = []
    while todo:
        (basis, directions, unexchanged), back = todo.pop()
        tangent = Cone.from_rays(S.cone.rays + directions, S.dim)
        charts.append(_chart(_vsum(basis), tangent, basis + unexchanged + directions, normalize))
        for u in tangent.rays:
            if u == back or S.cone.contains(u):
                continue
            w_e = _vsum([h for h in tangent.halfspaces if not dot(h, u)])
            far = _greedy_basis(gens, lambda g: (dot(w_e, g), -dot(u, g), g), p)
            v = _vsum(far)
            if v not in seen:
                seen.add(v)
                todo.append(((far,) + _exchanges(far, gens, p), vneg(u)))
    return tuple(sorted(charts, key=lambda c: c.vertex))


def walk_start(S: AffineSemigroup, p):
    """The walk's start basis B with its exchanges, as the triple
    (B, directions, unexchanged) of `_exchanges`; p already validated.
    B is the greedy basis under (<w, g>, g), w the sum of the facet
    normals: the walk's first vertex."""
    gens = S.minimal_generators()
    w = _vsum(S.cone.halfspaces)
    basis = _greedy_basis(gens, lambda g: (dot(w, g), g), p)
    return (basis,) + _exchanges(basis, gens, p)


def _greedy_basis(gens, key, p):
    """Edmonds' greedy algorithm: the basis of the generators' matroid mod p
    that is least under key, as the generators kept in key order.

    A generator is kept when it is independent of those kept before, which
    is what `independent_rows` answers for the key-sorted list.
    """
    order = sorted(gens, key=key)
    d = len(order[0])
    kept = independent_rows(order, p)
    if len(kept) < d:
        raise RuntimeError(_EMPTY_IDEAL)
    return tuple(order[i] for i in kept)


def _exchanges(basis, gens, p):
    """Directions g - b of the base polytope's edges at the basis, and the
    generators outside the basis with no exchange.

    B - b + g is a basis exactly when det(B with b replaced by g) is
    nonzero mod p, and by Cramer's rule that determinant is the entry of
    adj(B)·g in b's row, so one adjugate answers every exchange. A
    generator has none when every entry of adj(B)·g vanishes mod p; over
    Q, adj(B)·g = det(B)·B^-1·g is never zero, so only p > 0 leaves any.
    """
    adj, _ = adjugate(columns_matrix(basis))
    directions = {}  # each direction once, in first-seen order
    unexchanged = []
    for g in gens:
        if g in basis:
            continue
        exchanged = False
        for row, b in zip(adj, basis):
            t = dot(row, g)
            if t % p if p else t:
                directions[vsub(g, b)] = None
                exchanged = True
        if not exchanged:
            unexchanged.append(g)
    return tuple(directions), tuple(unexchanged)


def is_trivial_step(N: NewtonPolyhedron, charts) -> bool:
    """True when the single chart reproduces the parent semigroup.

    Only meaningful for charts built without normalization. The `blowup`
    command has the charts in hand; `stalls` answers the same question
    from the walk's start basis, without a chart.
    """
    if len(charts) != 1:
        return False
    return charts[0].semigroup.minimal_generators() == N.semigroup.minimal_generators()


def stalls(S: AffineSemigroup, start) -> bool:
    """Is the unnormalized Nash blowup of S a trivial step, one chart equal
    to S? Answered without building a chart, from start = `walk_start(S, p)`.

    With B the start basis and v = sum B, S stalls exactly when every
    direction g - b lies in Γ. Then the tangent cone at v is σ^∨, the
    recession cone, so v is the only vertex, and its chart
    Γ + <directions> is Γ. Conversely, a stall has one chart, the one at
    v, and it contains every direction.
    """
    return all(S.membership(u) for u in start[1])
