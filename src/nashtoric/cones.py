"""Pointed full-dimensional rational cones, as the paper's σ and σ̌.

A Cone stores its sorted primitive extreme rays and sorted primitive inward
facet normals. Both depend only on the cone, so `==` is exact, and the
normals are the extreme rays of the dual cone, which `dual` makes by
swapping the two lists. `Cone.from_rays(rays, d)` is the one public
constructor: inputs that span a cone containing a line raise
NotPointedError, and otherwise inputs of rank < d raise
NotFullDimensionalError. A cone given by facet normals is the dual of the
cone they generate. It checks its inputs and hands the nonzero ones to
`Cone._from_nonzero`, the conversion itself.

`Cone.from_rays` makes one double-description pass for every cone: the
facets come out of it with the inputs on each, the extreme rays are the
inputs with maximal facet sets, and no second conversion runs. Inputs of
rank r < d are first completed by d - r unit vectors, which leave the cone
pointed exactly when the inputs' cone is, so every pass has full-rank
normals. `Cone._extended` adds rays to a cone, seeding the same loop
(`_double_description`) with the cone's facets, as a blowup's walk does.

2D cones take their own paths: one cross-product
scan for the two extreme rays instead of a conversion (two inputs, such as
a surface chart's two edge directions, take one cross product), and the
Hirzebruch-Jung chain as the Hilbert basis instead of parallelepiped points,
or the two rays themselves when their determinant is ±1.
The scan reads the nonzero inputs as given, before any of them is made
primitive, deduplicated or sorted; only the two rays it keeps are made
primitive, and every other dimension canonicalizes the inputs first.
A simplicial cone in any dimension costs one adjugate of its d rays for its
facets and one more for its Hilbert basis, which it reads off the
barycentric numerators of its parallelepiped's points.

`_barycentric_box` is the one enumeration of parallelepiped points. The
numerators D·λ of the points of d independent vectors, D = |det|, are the
group their signed adjugate's columns generate in (Z/D)^d, which is Z^d
modulo the vectors' lattice and so has order D; it is closed one column at
a time and its order checked against D. `parallelepiped_points` maps every
numerator back to its point. A simplicial cone's facet values are its
numerators over positive integers, so numerator dominance is its own
reduction, and its Hilbert basis is its rays and the points of the minimal
nonzero numerators. Other cones in d >= 3 reduce the parallelepiped points
of a triangulation.

`irreducible` is the one reduction behind every minimal generating set: the
Hilbert basis here, the semigroup's minimal generators and the minimal
exponents of the log-Jacobian ideal. Its dominance test is a bitset one
after Kung, Luccio & Preparata (1975): one sort per facet gives each point
the mask of the earlier points at most it on every facet, so one AND with
the mask of the kept points finds every kept point it might be reduced by.
A member test is asked about those only, the latest kept first, which are
the queries a pairwise scan of the kept points makes, in its order.
"""

from dataclasses import dataclass
from math import gcd
from operator import mul

from .errors import DimensionError, NotFullDimensionalError, NotPointedError
from .linalg import (
    adjugate,
    cross2,
    dot,
    identity,
    independent_rows,
    integer,
    primitive,
    rank,
    vec,
    vsub,
    xgcd,
)


def _simplicial_facets(rows):
    """The primitive signed adjugate columns of d independent rows: column j
    lies on every row's hyperplane but the j-th and is positive on the j-th.
    A singular list raises DimensionError."""
    adj, det_M = adjugate(rows)
    sign = 1 if det_M > 0 else -1
    return [primitive(tuple(sign * a for a in col)) for col in zip(*adj)]


def _pointed_extreme_rays(normals, basis):
    """Extreme rays of {x : <n,x> >= 0 for all n} as sorted (ray, mask)
    pairs, bit i of mask set when <normals[i], ray> is 0; basis holds the
    indices of dim independent normals, so the normals have full rank.

    The double description (`_double_description`) starts from the
    simplicial cone of the basis normals, whose rays are the signed
    adjugate columns, and inserts the other normals.
    """
    seed_mask = sum(1 << i for i in basis)
    rays = [
        (r, seed_mask ^ (1 << i))
        for r, i in zip(_simplicial_facets(tuple(normals[i] for i in basis)), basis)
    ]
    rest = sorted(set(range(len(normals))).difference(basis))
    return _double_description(rays, normals, rest, len(basis))


def _double_description(rays, normals, order, dim):
    """The sorted (ray, mask) pairs of a pointed cone in Z^dim, given by
    such pairs (bit j set when the ray lies on normals[j], for every normal
    inserted so far), cut by normals[i] for i in order.

    Incremental double description (Motzkin et al. 1953; Fukuda & Prodon,
    1996). A ray on the positive side of the new normal and one on the
    negative side are combined only when they are adjacent: their common
    zero set has at least dim-2 members and lies in no third ray's zero
    set.
    """
    for i in order:
        n = normals[i]
        bit = 1 << i
        pos = []
        neg = []
        kept = []
        for r, z in rays:
            s = sum(map(mul, n, r))
            if s > 0:
                pos.append((r, z, s))
                kept.append((r, z))
            elif s < 0:
                neg.append((r, z, -s))
            else:
                kept.append((r, z | bit))
        if not neg:
            rays = kept
            continue
        masks = [z for _, z in rays]
        for rp, zp, sp in pos:
            for rn, zn, sn in neg:
                common = zp & zn
                if common.bit_count() < dim - 2:
                    continue
                # distinct extreme rays have distinct zero sets
                if any(z & common == common for z in masks if z != zp and z != zn):
                    continue
                w = [sn * a + sp * b for a, b in zip(rp, rn)]
                g = gcd(*w)  # w != 0: rp and rn lie on opposite sides of n
                kept.append((tuple([a // g for a in w]), common | bit))
        rays = kept
    # every normal has been tested against every ray, so each mask is the
    # ray's whole zero set
    return tuple(sorted(dict(rays).items()))


def _extreme_inputs(inputs, facets):
    """The extreme rays of cone(inputs), read off its facets, (normal,
    mask) pairs with bit i of mask set when inputs[i] lies on the facet.

    The face an input generates is cut out by the facets through it. The
    lineality space is the least face, generated by the inputs in it, so
    an input on every facet lies on a line of the cone: NotPointedError.
    Otherwise an input whose set of facets is maximal among the others
    spans an extreme ray.
    """
    on = [0] * len(inputs)
    for j, (_, z) in enumerate(facets):
        while z:
            low = z & -z
            on[low.bit_length() - 1] |= 1 << j
            z ^= low
    if (1 << len(facets)) - 1 in on:
        raise NotPointedError("cone contains a line")
    maximal = []
    for f in sorted(set(on), key=int.bit_count, reverse=True):
        if all(f & m != f for m in maximal):
            maximal.append(f)
    maximal = set(maximal)
    return tuple(r for r, f in zip(inputs, on) if f in maximal)


def _hirzebruch_jung(u1, u2):
    """Hilbert basis of the 2D cone spanned by independent primitive u1, u2,
    yielded in order along the cone, from the ray counterclockwise of which
    the other lies.

    The Hirzebruch-Jung chain (Oda 1988, ch. 1; Cox-Little-Schenck §10.2):
    w0 = u1, w1 is the lattice point with det(u1, w1) = 1 moved into the
    cone by the least multiple of u1, and w_{i+1} = b_i w_i - w_{i-1} with
    b_i = ceil(det(w_{i-1}, u2) / det(w_i, u2)) until w_i reaches u2. The
    values det(w_i, u2) strictly decrease to 0, so the chain has one step per
    basis element and lists no other lattice point. A generator, so that a
    caller that stops early (`AffineSemigroup._certify`) pays only for the
    steps it reads.
    """
    if cross2(u1, u2) < 0:
        u1, u2 = u2, u1
    _, x, y = xgcd(u1[0], u1[1])
    w = (-y, x)
    k = -(cross2(w, u2) // cross2(u1, u2))
    w = (w[0] + k * u1[0], w[1] + k * u1[1])
    yield u1
    prev = u1
    while cross2(w, u2):
        yield w
        b = -(-cross2(prev, u2) // cross2(w, u2))
        prev, w = w, (b * w[0] - prev[0], b * w[1] - prev[1])
    yield u2


class Cone:
    __slots__ = ("dim", "rays", "halfspaces")

    def __init__(self, dim, rays, halfspaces):
        self.dim = dim
        self.rays = rays
        self.halfspaces = halfspaces

    @classmethod
    def from_rays(cls, rays, dim):
        """The cone the rays generate in dimension dim, by one
        double-description pass, if it is pointed and full-dimensional. The
        cone that facet normals cut out is `from_rays(normals, dim).dual()`.

        The facet normals are the extreme rays of the dual cone, each with
        the inputs on it, and the extreme rays are the inputs whose facet
        sets are maximal under inclusion. Inputs of rank r < d convert
        with the d - r unit vectors `independent_rows` keeps after them, so
        that a line in their cone is reported first (`_extreme_inputs`),
        and otherwise raise NotFullDimensionalError.

        Exactly d independent primitive inputs (after the 2D scan) stop at
        the pass's seed: one adjugate gives the facets, and the inputs are
        the rays.
        """
        rays = [vec(r) for r in rays]
        dim = integer(dim, "dimension")
        if dim < 1:
            raise DimensionError("dimension must be positive")
        for r in rays:
            if len(r) != dim:
                raise DimensionError(f"ray {r} does not have length {dim}")
        return cls._from_nonzero([r for r in rays if any(r)], dim)

    @classmethod
    def _from_nonzero(cls, rays, dim):
        """`from_rays` for nonzero integer tuples of length dim that the
        library made, such as a blowup's chart cone inputs: the same
        conversion without the `vec`, length and zero checks."""
        if dim == 2 and len(rays) >= 2:
            fast = cls._from_rays_2d(rays)
            if fast is not None:
                return fast
        norm = sorted({primitive(r) for r in rays})
        if len(norm) == dim:
            simplicial = cls._from_rays_simplicial(norm)
            if simplicial is not None:
                return simplicial
        n = len(norm)
        basis = independent_rows(norm)
        units = []
        if len(basis) < dim:
            # a functional positive on the inputs' cone minus 0 extends by
            # 1 on a complement of unit vectors, so the completed cone has
            # a line exactly when the inputs' cone does
            eye = list(identity(dim))
            units = [eye[i - n] for i in independent_rows(norm + eye)[len(basis):]]
            basis += tuple(range(n, n + len(units)))
            norm += units
        facets = _pointed_extreme_rays(norm, basis)
        rays = _extreme_inputs(norm, facets)
        if units:
            raise NotFullDimensionalError("cone is not full-dimensional")
        return cls(dim, rays, tuple(h for h, _ in facets))

    @classmethod
    def _from_rays_simplicial(cls, norm):
        """d independent primitive inputs without the insertion loop.

        The double description's seed is the whole answer: the inputs are
        the extreme rays and the signed adjugate columns the facets. A
        singular list returns None for the general pass.
        """
        try:
            facets = _simplicial_facets(norm)
        except DimensionError:
            return None
        return cls(len(norm), tuple(norm), tuple(sorted(facets)))

    @classmethod
    def _from_rays_2d(cls, rays):
        """2D cones without any conversion.

        One scan over the nonzero inputs, as given, keeps the most clockwise
        ray lo and the most counterclockwise ray hi. The cone is pointed and
        full-dimensional exactly when lo is strictly clockwise of hi and
        every ray lies between them; otherwise return None for the generic
        construction. A cross product's sign does not change under positive
        scaling, and a verified lo and hi are the cone's two extreme
        directions whatever the input order, so only they are made
        primitive: multiples and repeats need no canonical form first.

        Two inputs, such as a surface chart's two edge directions, need no
        scan: they span a pointed full-dimensional cone exactly when their
        cross product is nonzero, and its sign orders them.
        """
        if len(rays) == 2:
            lo, hi = rays
            turn = cross2(lo, hi)
            if not turn:
                return None
            if turn < 0:
                lo, hi = hi, lo
        else:
            lo = hi = rays[0]
            for r in rays:
                if cross2(hi, r) > 0:
                    hi = r
                elif cross2(r, lo) > 0:
                    lo = r
            if cross2(lo, hi) <= 0 or any(cross2(lo, r) < 0 or cross2(r, hi) < 0 for r in rays):
                return None
        lo = primitive(lo)
        hi = primitive(hi)
        # the inward normals of the faces at lo and at hi
        n_lo = (-lo[1], lo[0])
        n_hi = (hi[1], -hi[0])
        return cls(
            2,
            (lo, hi) if lo < hi else (hi, lo),
            (n_lo, n_hi) if n_lo < n_hi else (n_hi, n_lo),
        )

    def _incidence(self):
        """The facet normals with the masks of the rays on them."""
        return [
            (h, sum(1 << i for i, r in enumerate(self.rays) if not dot(h, r)))
            for h in self.halfspaces
        ]

    def _extended(self, directions, incidence=None):
        """`_from_nonzero(self.rays + directions, dim)`, for nonzero integer
        tuples of length dim. A pass over the rays first would end at this
        cone's facets with the rays on each (`_incidence`, which a caller
        extending many times passes in), so the double description starts
        there and inserts each new primitive direction once, in order. 2D
        takes the scan (`_from_rays_2d`).
        """
        if self.dim == 2:
            fast = Cone._from_rays_2d(self.rays + tuple(directions))
            if fast is not None:
                return fast
        inputs = dict.fromkeys(self.rays)
        for r in directions:
            inputs.setdefault(primitive(r))
        inputs = list(inputs)
        new = range(len(self.rays), len(inputs))
        facets = _double_description(incidence or self._incidence(), inputs, new, self.dim)
        rays = _extreme_inputs(inputs, facets)
        return Cone(self.dim, tuple(sorted(rays)), tuple(h for h, _ in facets))

    def contains(self, point) -> bool:
        if len(point) != self.dim:
            raise DimensionError(f"point {point} does not have length {self.dim}")
        for n in self.halfspaces:
            if dot(n, point) < 0:
                return False
        return True

    def dual(self):
        # the facet normals are the dual's extreme rays, and the reverse
        return Cone(self.dim, self.halfspaces, self.rays)

    def __eq__(self, other):
        return (
            isinstance(other, Cone)
            and self.dim == other.dim
            and self.rays == other.rays
            and self.halfspaces == other.halfspaces
        )

    def __hash__(self):
        return hash((self.dim, self.rays, self.halfspaces))

    def __repr__(self):
        return f"Cone(dim={self.dim}, rays={list(self.rays)})"


def _simplicial_pieces(rays, halfspaces):
    """Placing triangulation anchored at the lexicographically smallest ray.

    rays are the extreme rays of a face of a cone whose facet
    normals are halfspaces. A facet of the face is its set of rays on some
    normal's hyperplane that has rank one less. Each output tuple spans a
    simplicial cone; the union is the whole face with pairwise disjoint
    interiors.
    """
    rays = tuple(sorted(rays))
    k = rank(rays)
    if len(rays) == k:
        return (rays,)
    r0 = rays[0]
    pieces = set()
    # facets through r0 are covered by their own cones
    for facet in {
        tuple(r for r in rays if dot(h, r) == 0)
        for h in halfspaces
        if dot(h, r0) > 0
    }:
        if rank(facet) == k - 1:
            for sub in _simplicial_pieces(facet, halfspaces):
                pieces.add(tuple(sorted(sub + (r0,))))
    return tuple(sorted(pieces))


def _barycentric_box(vectors):
    """(D, numerators) of d independent vectors v_1, ..., v_d in Z^d.

    D is |det|, and the numerators are the vectors c = D·λ of the lattice
    points x = Σ λ_j v_j with every λ_j in [0, 1), as tuples, the origin
    first. The point of c is Σ c_j v_j / D (`_box_points`).

    With A the transpose of the rows' adjugate, negated when det < 0,
    A·x = D·λ(x), so the numerators are the group the columns of A (the
    rows of the signed adjugate) generate in (Z/D)^d, of order D (see
    `parallelepiped_points`). It is closed one generator at a time: if the
    k-th multiple of a generator is the first in the group so far, the
    group's k translates by its multiples are disjoint and make the next
    group, each coset once, so the order is the product of the k. It is
    checked against D, and RuntimeError raised before the group could grow
    past it.
    """
    adj, det_v = adjugate(vectors)
    D = abs(det_v)
    # coordinate j of every numerator so far, in list j
    numerators = [[0] for _ in vectors]
    sign = 1 if det_v > 0 else -1
    order = 1
    members = None
    for row in adj:
        step = [sign * a % D for a in row]
        if order == 1:
            # the first multiple in the trivial group is the order of step
            k = D // gcd(D, *step)
        else:
            if members is None:
                members = set(zip(*numerators))
            k = 1
            while tuple([k * s % D for s in step]) not in members:
                k += 1
        if k == 1:
            continue
        order *= k
        if order > D:
            raise RuntimeError(
                f"parallelepiped has at least {order} lattice points, "
                f"expected |det| = {D}"
            )
        numerators = [
            [(c + t * s) % D for t in range(k) for c in column]
            for column, s in zip(numerators, step)
        ]
        members = None
    if order != D:
        raise RuntimeError(
            f"parallelepiped has {order} lattice points, expected |det| = {D}"
        )
    return D, list(zip(*numerators))


def _box_points(vectors, D, numerators):
    """The points Σ c_j v_j / D of the numerators c."""
    rows = tuple(zip(*vectors))
    return [tuple([sum(map(mul, row, c)) // D for row in rows]) for c in numerators]


def parallelepiped_points(vectors):
    """Lattice points with all barycentric coordinates in [0, 1), sorted.

    Exactly |det| many, one per coset of Z^d modulo the lattice L the
    vectors generate, read in barycentric numerators (`_barycentric_box`).
    Their group has order D = |det|: with A·x = D·λ(x) for the signed
    adjugate A, x ↦ A·x mod D maps Z^d onto it, and A·x ≡ 0 mod D exactly
    when λ(x) is integral, that is x in L, so the group is Z^d / L, of
    order [Z^d : L] = D. An element read in [0, D)^d is the numerator of
    the one point of its coset in the parallelepiped. The closure's order
    is checked against D; at D = 1 the origin is the only point.
    """
    vectors = tuple(vec(v) for v in vectors)
    d = len(vectors)
    if d == 0 or any(len(v) != d for v in vectors):
        raise DimensionError("need d vectors in Z^d")
    D, numerators = _barycentric_box(vectors)
    return tuple(sorted(_box_points(vectors, D, numerators)))


@dataclass(frozen=True)
class HilbertBasis:
    cone: Cone
    elements: tuple


def hilbert_basis(cone: Cone) -> HilbertBasis:
    """Unique minimal generating set of cone ∩ Z^d.

    In dimension 2 it is the two rays when their determinant is ±1, a
    lattice basis, and otherwise the Hirzebruch-Jung chain between them.
    In higher dimensions a simplicial cone keeps its rays and the points of
    its parallelepiped's minimal nonzero numerators, under the
    componentwise order (`_simplicial_hilbert_basis`): numerator dominance
    is the cone's own reduction. With A·x = D·λ(x) as in
    `parallelepiped_points`, row j of A vanishes on every ray but r_j and is
    positive on r_j, so it is the inward normal of facet j times a positive
    integer g_j, and the facet values of a parallelepiped point x are its
    numerators c(x) = A·x over (g_1, ..., g_d). So x - y, a lattice point,
    lies in the cone exactly when c(x) >= c(y) componentwise. Any other
    cone has `irreducible` reduce the rays and the parallelepiped points of
    a triangulation on its own facets.
    """
    if cone.dim == 2:
        u1, u2 = cone.rays
        if abs(cross2(u1, u2)) == 1:
            return HilbertBasis(cone, cone.rays)
        return HilbertBasis(cone, tuple(sorted(_hirzebruch_jung(u1, u2))))
    if len(cone.rays) == cone.dim:
        return HilbertBasis(cone, _simplicial_hilbert_basis(cone.rays))
    return HilbertBasis(cone, _hilbert_basis_by_pieces(cone))


def _simplicial_hilbert_basis(rays):
    """Sorted Hilbert basis of the cone of d independent primitive rays.

    Its lattice points are parallelepiped points plus sums of rays, so the
    rays and the nonzero parallelepiped points generate, and numerator
    dominance reduces them (`hilbert_basis`). No ray reduces a point, whose
    numerators are all below D, while r_j has D·e_j. No point x reduces a
    ray r_j: c(x) <= D·e_j would make x = (c_j(x) / D)·r_j a lattice point
    strictly between 0 and the primitive r_j. So `irreducible` keeps the
    minimal nonzero numerators, with the identity as the facets, and only
    those are mapped back to points. At D = 1 the rays alone are the basis.
    """
    D, numerators = _barycentric_box(rays)
    if D == 1:
        return rays
    minimal = irreducible(numerators[1:], identity(len(rays)))
    return tuple(sorted(rays + tuple(_box_points(rays, D, minimal))))


def _hilbert_basis_by_pieces(cone: Cone):
    """Sorted Hilbert basis of a cone of any dimension.

    The rays and the nonzero parallelepiped points of every simplicial piece
    generate cone ∩ Z^d; the irreducible ones are the basis. A simplicial
    cone is its own single piece. When no piece adds a point, the sorted
    primitive extreme rays are the basis: none is a sum of other nonzero
    lattice points of the cone.
    """
    candidates = set(cone.rays)
    for piece in _simplicial_pieces(cone.rays, cone.halfspaces):
        for x in parallelepiped_points(piece):
            if any(x):
                candidates.add(x)
    if len(candidates) == len(cone.rays):
        return cone.rays
    return irreducible(candidates, cone.halfspaces)


def irreducible(points, halfspaces, member=None):
    """Sorted points that are no kept point plus an element of the semigroup.

    The semigroup lies in the pointed cone cut out by halfspaces, and is all
    of cone ∩ Z^d unless member(x - k, kept) tests it. Points are visited by
    (sum of facet values y(x), x), a grading positive on the cone minus 0;
    x is dropped when some kept k has y(x) >= y(k), that is x - k in the
    cone, and member, if given, holds.

    Dominance is tested by bitsets. Each point gets the mask of the points
    before it in the grading whose facet values are all at most its own:
    the AND over the facets of one prefix mask per facet, from one stable
    sort per facet, so ties count. Without member, x is dropped when that
    mask meets the kept points, which are then the minima of the points
    under the componentwise order of facet values (Kung, Luccio &
    Preparata, JACM 1975). With member, x is dropped when member holds for
    some kept k in the mask, tried from the latest kept down: x - k is then
    lowest in the grading, so a member search from it is shortest. These
    are the queries, in their order, of a pairwise scan of the kept points
    from the latest down.
    """
    graded = []
    for x in set(points):
        y = tuple([sum(map(mul, h, x)) for h in halfspaces])
        graded.append((sum(y), x, y))
    graded.sort()
    n = len(graded)
    # only points before x in the grading can be kept when x is tested
    below = [(1 << j) - 1 for j in range(n)]
    for i in range(len(halfspaces)):
        column = [y[i] for _, _, y in graded]
        # the sort is stable, so a point tied with x on this facet and
        # before it in the grading is already in the prefix mask
        mask = 0
        for j in sorted(range(n), key=column.__getitem__):
            mask |= 1 << j
            below[j] &= mask
    kept = []
    kept_mask = 0
    for j, (_, x, _) in enumerate(graded):
        hits = below[j] & kept_mask
        if member is not None:
            while hits:
                k = hits.bit_length() - 1
                if member(vsub(x, graded[k][1]), kept):
                    break
                hits ^= 1 << k
        if not hits:
            kept.append(x)
            kept_mask |= 1 << j
    return tuple(sorted(kept))


def polyhedron_vertices_and_facets(points, cone: Cone):
    """(vertices, facets) of P = conv(points) + cone, both sorted.

    One conversion answers both: the homogenized cone generated by (1, p)
    for the points and (0, r) for the recession rays is pointed and
    full-dimensional with the recession cone. Its extreme rays are (1, v)
    exactly at the vertices v, and its halfspaces are the normals (h0, h)
    with h0 + <h, x> >= 0 cutting out P, among them (1, 0) for the far
    face x0 = 0. The tangent cone of P at v is cut out by the h with
    h0 + <h, v> = 0. No points leave P empty, with neither.
    """
    pts = sorted({vec(p) for p in points})
    for p in pts:
        if len(p) != cone.dim:
            raise DimensionError(f"point {p} does not have length {cone.dim}")
    if not pts:
        return (), ()
    lifted = [(1,) + p for p in pts] + [(0,) + r for r in cone.rays]
    hom = Cone.from_rays(lifted, cone.dim + 1)
    return tuple(sorted(r[1:] for r in hom.rays if r[0] > 0)), hom.halfspaces


def polyhedron_vertices(points, cone: Cone):
    """Sorted vertices of conv(points) + cone."""
    return polyhedron_vertices_and_facets(points, cone)[0]
