"""One combinatorial Nash blowup step.

Pipeline: admissible d-subsets of minimal generators (determinant nonzero
mod p) give the ideal exponents; their convex hull plus the semigroup's
cone is the Newton polyhedron; each vertex yields an affine chart, built
on the tangent cone at the vertex, made once per chart: its lattice
points (`AffineSemigroup.from_cone`) or, unnormalized, the semigroup that
the chart's generators span in it (`AffineSemigroup._in_cone`).

`nash_blowup` builds the charts without the C(n, d) enumeration. For a
normal surface it reads them off the Hilbert basis in closed form, for
both chart kinds (`_surface_charts`). Otherwise it walks (`_walk`): the
admissible subsets are the bases of the generators' matroid over F_p (over
Q for p = 0), so conv(E) is the image of its base polytope; Edmonds'
greedy algorithm finds a vertex, the single exchanges B - b + g of its
basis span the chart cone, and a walk along the bounded edges reaches
every other vertex.

The exchanges also generate the unnormalized chart Γ + <E - v>, Γ the
semigroup and v = sum B. Each g - b is a raw exponent minus v, and a raw
exponent is a minimal one plus an element of Γ. Conversely, by Brualdi's
symmetric exchange (Brualdi 1969) every basis B' admits a bijection
s: B - B' -> B' - B with every B - b + s(b) a basis, so sum B' - v is a
sum of exchange directions. Hence Γ + <E - v> = Γ + <g - b : B - b + g a
basis mod p> for any basis B that sums to v, and one walk, or one closed
form, serves both chart kinds. Most of Γ's generators are redundant
there: a generator g with some exchange is b + (g - b), so B, the
generators with no exchange (only p > 0 leaves any) and the directions
already generate the chart.

At a basis B mod p, adj(B)·g vanishes mod p exactly when g does, so the
generators with no exchange are those outside B that are 0 mod p, and no
direction lies in Γ. An unnormalized step therefore stalls exactly when
all but d minimal generators are 0 mod p (`stalls`), read off residues
without a basis.
"""

from dataclasses import dataclass
from itertools import chain

from .cones import Cone, irreducible, polyhedron_vertices_and_facets
from .linalg import (
    adjugate,
    columns_matrix,
    cross2,
    dot,
    independent_rows,
    maximal_minors,
    primitive,
    validate_characteristic,
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
    of S (`irreducible`). A semigroup known to be saturated is all of
    its cone's lattice points, and `irreducible` asks only about points
    of the cone, so it gets no member test; the flag is read, never
    computed.
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
    member = None if S._saturated is True else (lambda g, _: S.membership(g))
    kept = irreducible(raw, S.cone.halfspaces, member)
    return MonomialIdealExponents(S, p, kept)


@dataclass(frozen=True)
class NewtonPolyhedron:
    """conv(exponents) + the semigroup's cone, with its sorted vertices and
    its facets: the normals (h0, h), as tuples (h0,) + h, with
    h0 + <h, x> >= 0 on the polyhedron, (1, 0) included when the far face
    is a facet. The facets through a vertex cut out its tangent cone."""

    semigroup: AffineSemigroup
    characteristic: int
    exponents: tuple
    vertices: tuple
    facets: tuple


def newton_polyhedron(ideal: MonomialIdealExponents) -> NewtonPolyhedron:
    """Vertices and facets of conv(exponents) + cone(semigroup), from one
    conversion of the homogenized cone (`polyhedron_vertices_and_facets`)."""
    S = ideal.semigroup
    vertices, facets = polyhedron_vertices_and_facets(ideal.exponents, S.cone)
    return NewtonPolyhedron(S, ideal.characteristic, ideal.exponents, vertices, facets)


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
    vertex where E - v lists every exponent: the dual of the cone their
    normals generate. `nash_blowup` builds the same charts without E
    (unnormalized ones from other generators); this enumeration stays for
    the `blowup` command and as its oracle.
    """
    S = N.semigroup
    gens = S.minimal_generators()
    charts = []
    for v in N.vertices:
        through = [h[1:] for h in N.facets if h[0] + dot(h[1:], v) == 0]
        tangent = Cone.from_rays(through, S.dim).dual()
        # only an unnormalized chart reads its generators
        shifts = (vsub(e, v) for e in N.exponents)
        charts.append(_chart(v, tangent, chain(gens, shifts), normalize))
    return tuple(charts)


def _chart(v, tangent, generators, normalize):
    """The chart at vertex v, tangent the Newton polyhedron's tangent cone
    at v: with normalize, tangent ∩ Z^d; without, the semigroup the
    generators span, whose cone is tangent. Neither is checked: the tangent
    cone is pointed and full-dimensional, the generators are integer tuples
    of length d made in this module, and they span a semigroup that
    contains the parent, so its group is Z^d (`AffineSemigroup._in_cone`)."""
    if normalize:
        chart = AffineSemigroup.from_cone(tangent)
    else:
        chart = AffineSemigroup._in_cone(tangent, generators)
    return BlowupChart(v, chart, normalize)


def nash_blowup(S: AffineSemigroup, characteristic, normalize: bool = True):
    """The charts of one blowup step, in vertex order: equal to
    blowup_charts(newton_polyhedron(log_jacobian_ideal(S, p)), normalize),
    up to the generator lists of unnormalized charts, but built without E.
    The charts of a semigroup known to be a normal surface, of either kind,
    come in closed form (`_surface_charts`); all else walks (`_walk`). The
    flag is read, never computed: a lattice-point surface has it, and a
    surface given by generators has it once its minimal generators are read
    (`AffineSemigroup._certify`), as `resolve` reads them before a blowup.
    """
    p = validate_characteristic(characteristic)
    if S.dim == 2 and S._saturated is True:
        return _surface_charts(S, p, normalize)
    return _walk(S, p, normalize)


def _surface_charts(S, p, normalize):
    """The charts of a normal surface in a validated characteristic p.

    Along the Hilbert basis a_0, ..., a_m, ordered by a facet normal (the
    order `_hirzebruch_jung` proves strict), the Newton vertices are the
    sums s_i = a_i + a_{i+1} where their chain turns, and s_0 and s_{m-1},
    in every characteristic. Each tangent cone is the cone of the edges to
    its neighbouring vertices, with a_0 and a_m at the two ends (README,
    "Surfaces in closed form"), built from the two edge directions by one
    cross product and two `primitive` calls (`Cone._from_rays_2d`): they
    are integer tuples made here, so no input is checked first. The
    normalized chart is its lattice points, the two rays of a smooth one.
    The unnormalized chart at s_i is generated by the basis (a_i, a_{i+1})
    and its exchange directions (`_exchanges`): its determinant is 1, so it
    is a basis mod every p, and these give Γ + <E - s_i> (module
    docstring).
    """
    h = S.cone.halfspaces[0]
    a = sorted(S.minimal_generators(), key=lambda g: dot(h, g))
    s = [_vsum(pair) for pair in zip(a, a[1:])]
    turns = [t for r, t, u in zip(s, s[1:], s[2:]) if cross2(vsub(t, r), vsub(u, t))]
    vertices = list(dict.fromkeys((s[0], *turns, s[-1])))  # s_0 is s_{m-1} if m = 1
    charts = []
    for j, v in enumerate(vertices):
        back = vsub(vertices[j - 1], v) if j else a[0]
        ahead = vsub(vertices[j + 1], v) if j < len(vertices) - 1 else a[-1]
        tangent = Cone._from_rays_2d((back, ahead))
        if tangent is None:
            # the edges at a vertex span a pointed full-dimensional cone
            raise RuntimeError(f"blowup chart at vertex {v} has edges {back}, {ahead}")
        generators = ()
        if not normalize:
            i = s.index(v)
            basis = (a[i], a[i + 1])
            # a Hilbert basis is primitive, so no generator is 0 mod p and
            # every one outside the basis has an exchange
            generators = basis + _exchanges(basis, a, p)[0]
        charts.append(_chart(v, tangent, generators, normalize))
    return tuple(sorted(charts, key=lambda c: c.vertex))


def _walk(S: AffineSemigroup, p, normalize):
    """`nash_blowup` in a validated characteristic p by a walk on the
    vertices: the path for d >= 3 and for semigroups not known to be
    saturated, and the tests' reference for the closed form.

    A vertex is the sum of a greedy basis B. Both chart kinds are built on
    its tangent cone, σ^∨ extended by the exchange directions g - b
    (`Cone._extended`, seeded once per walk); the directions with B and
    the generators that have no exchange generate the unnormalized chart
    (module docstring). Each extreme ray u of that cone outside σ^∨, that
    is no ray of σ^∨ (an extreme ray lying in σ^∨ is extreme there), is a
    bounded edge; the sum w_e of the facet normals through u is least on
    exactly that edge, and the greedy basis under (w_e, -u) sits at its
    far end. Bounded edges connect all vertices of a polyhedron whose
    recession cone is pointed. The walk begins at the greedy basis under
    (<w, g>, g), w the sum of σ^∨'s facet normals.

    A polyhedron meets the ray v + t·u, t > 0, of a bounded edge in that
    edge and nothing more, so a vertex already seen on the open ray is the
    edge's far end, and the edge computes no greedy basis: the edge back
    to where the walk came from is one of these. The far ends found from
    v lie on v's other rays, so the primitive directions from v to the
    vertices seen when v's chart is built answer for all of v's edges, and
    each vertex costs one greedy basis, the one that finds it.
    """
    gens = S.minimal_generators()
    cone = S.cone
    incidence = cone._incidence() if S.dim > 2 else None  # 2D scans
    in_dual = set(cone.rays)
    w = _vsum(cone.halfspaces)
    todo = [_greedy_basis(gens, lambda g: (dot(w, g), g), p)]
    seen = {_vsum(todo[0])}
    charts = []
    while todo:
        basis = todo.pop()
        v = _vsum(basis)
        directions, unexchanged = _exchanges(basis, gens, p)
        tangent = cone._extended(directions, incidence)
        charts.append(_chart(v, tangent, basis + unexchanged + directions, normalize))
        ahead = {primitive(vsub(x, v)) for x in seen if x != v}
        for u in tangent.rays:
            if u in ahead or u in in_dual:
                continue
            w_e = _vsum([h for h in tangent.halfspaces if not dot(h, u)])
            far = _greedy_basis(gens, lambda g: (dot(w_e, g), -dot(u, g), g), p)
            seen.add(_vsum(far))
            todo.append(far)
    return tuple(sorted(charts, key=lambda c: c.vertex))


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
    generator has none when every entry of adj(B)·g vanishes mod p, and
    since B·adj(B) = det(B)·I with det(B) a unit mod p, that happens
    exactly when g ≡ 0 mod p: the unexchanged generators are those outside
    B that are 0 mod p, and none over Q.
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
    from residues mod p, without a chart.
    """
    if len(charts) != 1:
        return False
    return charts[0].semigroup.minimal_generators() == N.semigroup.minimal_generators()


def stalls(S: AffineSemigroup, characteristic) -> bool:
    """Is the unnormalized Nash blowup of S in characteristic p a trivial
    step, one chart equal to S? True exactly when d minimal generators
    have a coordinate not divisible by p (for p = 0, every generator
    counts), answered without a basis or a chart.

    Let B be a greedy basis mod p, such as the walk's start, and v = sum B.
    S stalls exactly when every direction g - b lies in Γ: then the tangent
    cone at v is σ^∨, v is the only vertex and its chart Γ + <directions>
    is Γ; conversely, a stall has one chart, the one at v, containing
    every direction. Three steps reduce this to residues:

    1. No direction g - b lies in Γ, or g = b + (g - b) would not be a
       minimal generator; so S stalls exactly when B has no exchanges.
    2. g has no exchange when adj(B)·g ≡ 0 mod p, and as B·adj(B) =
       det(B)·I with det(B) a unit mod p, that holds exactly when g ≡ 0
       mod p.
    3. The generators span Z^d, so at least d of them are nonzero mod p,
       and the generators outside B all vanish exactly when d are
       nonzero. For p = 0 that is n = d: only a smooth S stalls, the
       toric case of Nobile's theorem.
    """
    p = validate_characteristic(characteristic)
    gens = S.minimal_generators()
    if not p:
        return len(gens) == S.dim
    return sum(any(x % p for x in g) for g in gens) == S.dim
