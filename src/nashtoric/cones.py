"""Rational polyhedral cones with synchronized V- and H-descriptions.

A Cone stores primitive generator rays and primitive inward facet normals.
For pointed cones the rays are exactly the extreme rays; for cones with
lineality the stored generators are +-pairs of the Hermite basis of the
lineality lattice plus the extreme rays of the pointed part, the cone
intersected with the span of its facet normals. Both depend only on the
cone, so each cone has one description and `==` is exact. Halfspace lists
follow the same convention on the dual side, so `halfspaces` always
generates the dual cone and `contains` is a plain sign check in every case.

`Cone.from_rays` makes one double-description pass for every cone: the
facets come out of it with the inputs on each, the extreme rays are the
inputs with maximal facet sets, projected onto the span of the facet
normals, and no second conversion runs.

Pointed full-dimensional 2D cones take their own paths: one cross-product
scan for the two extreme rays instead of a conversion, and the
Hirzebruch-Jung chain as the Hilbert basis instead of parallelepiped points.

`irreducible` is the one reduction behind every minimal generating set: the
Hilbert basis here, the semigroup's minimal generators and the minimal
exponents of the log-Jacobian ideal.
"""

from dataclasses import dataclass
from itertools import product
from operator import ge

from .errors import DimensionError, NotFullDimensionalError, NotPointedError
from .linalg import (
    adjugate,
    columns_matrix,
    cross2,
    dot,
    hermite_basis,
    identity,
    images,
    independent_rows,
    kernel_basis,
    mat_vec,
    primitive,
    rank,
    unimodular_dual,
    vec,
    vneg,
    vsub,
    xgcd,
)


def _pointed_extreme_rays(normals, basis):
    """Extreme rays of {x : <n,x> >= 0 for all n} as sorted (ray, mask)
    pairs, bit i of mask set when <normals[i], ray> is 0; basis holds the
    indices of dim independent normals.

    Incremental double description (Motzkin et al. 1953; Fukuda & Prodon,
    1996). The basis normals cut out a simplicial cone whose rays are
    the signed adjugate columns. The other normals are added one at
    a time. Every ray carries the bitmask of the normals it lies on; a ray
    on the positive side of the new normal and one on the negative side are
    combined only when they are adjacent: their common zero set has at least
    dim-2 members and lies in no third ray's zero set.
    """
    dim = len(basis)
    adj, det_A = adjugate(tuple(normals[i] for i in basis))
    sign = 1 if det_A > 0 else -1
    seed_mask = 0
    for i in basis:
        seed_mask |= 1 << i
    rays = [
        (primitive(tuple(sign * adj[k][j] for k in range(dim))), seed_mask ^ (1 << i))
        for j, i in enumerate(basis)
    ]
    seeded = set(basis)
    for i, n in enumerate(normals):
        if i in seeded:
            continue
        bit = 1 << i
        pos = []
        neg = []
        kept = []
        for r, z in rays:
            s = dot(n, r)
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
                w = primitive(tuple(sn * a + sp * b for a, b in zip(rp, rn)))
                kept.append((w, common | bit))
        rays = kept
        if not rays:
            break
    # every normal has been tested against every ray, so each mask is the
    # ray's whole zero set
    return tuple(sorted(dict(rays).items()))


def _kernel_lattice(normals, dim):
    """Hermite basis of the lattice of {x : <n,x> = 0 for all n}."""
    if not normals:
        return identity(dim)
    return tuple(zip(*kernel_basis(normals)))


def _extreme_inputs(inputs, facets, halfspaces, dim):
    """(lines, rays) of cone(inputs): the Hermite basis of its lineality
    lattice and the extreme rays of its pointed part, read off its facets,
    (normal, mask) pairs with bit i of mask set when inputs[i] lies on the
    facet, and its halfspaces.

    The face an input generates is cut out by the facets through it. The
    lineality space is the least face, generated by the inputs in it, so it
    is 0 unless some input lies on every facet, and only then is the kernel
    of the halfspaces computed. An input whose set of facets is maximal
    among the others lies on an extreme ray modulo the lines; projected
    orthogonally onto the span of the facet normals, the complement of the
    lines, and made primitive, it is that ray.
    """
    on = [0] * len(inputs)
    inputs_mask = (1 << len(inputs)) - 1
    for j, (_, z) in enumerate(facets):
        z &= inputs_mask
        while z:
            low = z & -z
            on[low.bit_length() - 1] |= 1 << j
            z ^= low
    everything = (1 << len(facets)) - 1
    maximal = []
    for f in sorted(set(on) - {everything}, key=int.bit_count, reverse=True):
        if all(f & m != f for m in maximal):
            maximal.append(f)
    maximal = set(maximal)
    extreme = [r for r, f in zip(inputs, on) if f in maximal]
    if everything not in on:
        return (), extreme
    lines = _kernel_lattice(halfspaces, dim)
    # with Gram matrix G of the lines, det(G)*x - lines^T adj(G) (lines x)
    # is det(G) > 0 times the projection of x
    gram = tuple(tuple(dot(a, b) for b in lines) for a in lines)
    adj, det_gram = adjugate(gram)
    columns = tuple(zip(*lines))
    out = []
    for r in extreme:
        c = mat_vec(adj, mat_vec(lines, r))
        x = tuple(det_gram * a - dot(col, c) for a, col in zip(r, columns))
        out.append(primitive(x))
    return lines, out


def _with_line_pairs(lines, rays):
    out = set(rays)
    for line in lines:
        out.add(line)
        out.add(vneg(line))
    return tuple(sorted(out))


def _hirzebruch_jung(u1, u2):
    """Hilbert basis of the 2D cone spanned by independent primitive u1, u2.

    The Hirzebruch-Jung chain (Oda 1988, ch. 1; Cox-Little-Schenck §10.2):
    w0 = u1, w1 is the lattice point with det(u1, w1) = 1 moved into the
    cone by the least multiple of u1, and w_{i+1} = b_i w_i - w_{i-1} with
    b_i = ceil(det(w_{i-1}, u2) / det(w_i, u2)) until w_i reaches u2. The
    values det(w_i, u2) strictly decrease to 0, so the chain has one step per
    basis element and lists no other lattice point.
    """
    if cross2(u1, u2) < 0:
        u1, u2 = u2, u1
    _, x, y = xgcd(u1[0], u1[1])
    w = (-y, x)
    k = -(cross2(w, u2) // cross2(u1, u2))
    w = (w[0] + k * u1[0], w[1] + k * u1[1])
    chain = [u1]
    prev = u1
    while cross2(w, u2):
        chain.append(w)
        b = -(-cross2(prev, u2) // cross2(w, u2))
        prev, w = w, (b * w[0] - prev[0], b * w[1] - prev[1])
    chain.append(u2)
    return tuple(sorted(chain))


class Cone:
    __slots__ = ("dim", "rays", "halfspaces", "pointed", "full_dim")

    def __init__(self, dim, rays, halfspaces, pointed, full_dim):
        self.dim = dim
        self.rays = rays
        self.halfspaces = halfspaces
        self.pointed = pointed
        self.full_dim = full_dim

    @classmethod
    def from_rays(cls, rays, dim=None):
        """The cone the rays generate, by one double-description pass.

        The facet normals are the extreme rays of the dual cone's pointed
        part, each with the inputs on it. The lines are the Hermite basis
        of the normals' kernel, and the extreme rays are the inputs whose
        facet sets are maximal under inclusion, projected onto the span of
        the facet normals and made primitive.
        """
        rays = [vec(r) for r in rays]
        if dim is None:
            if not rays:
                raise DimensionError("cannot infer dimension from an empty ray list")
            dim = len(rays[0])
        if dim < 1:
            raise DimensionError("dimension must be positive")
        for r in rays:
            if len(r) != dim:
                raise DimensionError(f"ray {r} does not have length {dim}")
        norm = sorted({primitive(r) for r in rays if any(r)})
        if dim == 2 and len(norm) >= 2:
            fast = cls._from_rays_2d(norm)
            if fast is not None:
                return fast
        # the dual's ± lines, independent of the inputs, cut it down to
        # its pointed part
        basis = independent_rows(norm)
        n = len(norm)
        dual_lines = _kernel_lattice(norm, dim) if len(basis) < dim else ()
        facets = _pointed_extreme_rays(
            tuple(norm) + dual_lines + tuple(map(vneg, dual_lines)),
            basis + tuple(range(n, n + len(dual_lines))),
        )
        halfspaces = _with_line_pairs(dual_lines, [h for h, _ in facets])
        lines, rays = _extreme_inputs(norm, facets, halfspaces, dim)
        rays = _with_line_pairs(lines, rays)
        return cls(dim, rays, halfspaces, not lines, not dual_lines)

    @classmethod
    def _from_rays_2d(cls, norm):
        """Pointed full-dimensional 2D cones without any conversion.

        One scan keeps the most clockwise ray lo and the most
        counterclockwise ray hi. The cone is pointed and full-dimensional
        exactly when lo is strictly clockwise of hi and every ray lies
        between them; otherwise return None for the generic construction.
        """
        lo = hi = norm[0]
        for r in norm[1:]:
            if cross2(hi, r) > 0:
                hi = r
            elif cross2(r, lo) > 0:
                lo = r
        if cross2(lo, hi) <= 0 or any(cross2(lo, r) < 0 or cross2(r, hi) < 0 for r in norm):
            return None
        halfspaces = tuple(sorted(((-lo[1], lo[0]), (hi[1], -hi[0]))))
        return cls(2, tuple(sorted((lo, hi))), halfspaces, True, True)

    @classmethod
    def from_halfspaces(cls, normals, dim=None):
        # canonicalize the normal set as generators of the dual cone
        return cls.from_rays(normals, dim).dual()

    def image(self, g, dual=None):
        """The cone g·C for g in GL(d, Z) (rows), without a conversion.

        Defined for pointed full-dimensional cones, whose lists are just
        their primitive extreme rays and inward facet normals. A unimodular
        g keeps vectors primitive and <g^-T h, g x> = <h, x>, so the rays
        map by g, the normals by dual = g^-T (computed when not given), and
        re-sorting gives the lists `from_rays` builds from the mapped rays.
        """
        if not self.pointed:
            raise NotPointedError("image needs a pointed cone")
        if not self.full_dim:
            raise NotFullDimensionalError("image needs a full-dimensional cone")
        if len(g) != self.dim:
            raise DimensionError(f"map has {len(g)} rows, expected {self.dim}")
        if dual is None:
            dual = unimodular_dual(g)
        return Cone(self.dim, images(g, self.rays), images(dual, self.halfspaces), True, True)

    def contains(self, point) -> bool:
        for n in self.halfspaces:
            if dot(n, point) < 0:
                return False
        return True

    def dual(self):
        # both lists follow one convention, so dualizing swaps them
        return Cone(self.dim, self.halfspaces, self.rays, self.full_dim, self.pointed)

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


def interior_point(cone: Cone):
    """Integer point strictly inside every facet halfspace: the ray sum.

    Every stored normal is nonzero and >= 0 on every stored ray, line pairs
    cancel, and the rays span Q^d, so each normal is > 0 on the sum.
    """
    if not cone.full_dim:
        raise NotFullDimensionalError("interior point needs a full-dimensional cone")
    w = tuple(map(sum, zip(*cone.rays)))
    if not all(dot(n, w) > 0 for n in cone.halfspaces):
        raise RuntimeError("full-dimensional cone has no interior point")
    return w


def _simplicial_pieces(rays, halfspaces):
    """Placing triangulation anchored at the lexicographically smallest ray.

    rays are the extreme rays of a face of a pointed cone whose facet
    normals are halfspaces. A facet of the face is its set of rays on some
    normal's hyperplane that has rank one less. Each output tuple spans a
    simplicial cone; the union is the whole face with pairwise disjoint
    interiors.
    """
    rays = tuple(sorted(rays))
    if not rays:
        return ()
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


def triangulate(cone: Cone):
    if not cone.pointed:
        raise NotPointedError("triangulation needs a pointed cone")
    if not cone.full_dim:
        raise NotFullDimensionalError("triangulation needs a full-dimensional cone")
    return tuple(
        Cone.from_rays(piece, cone.dim)
        for piece in _simplicial_pieces(cone.rays, cone.halfspaces)
    )


def parallelepiped_points(vectors):
    """Lattice points with all barycentric coordinates in [0, 1).

    Exactly |det| many: one representative per coset of Z^d modulo the
    lattice the vectors generate, read off the box [0, H[k][k]) under its
    Hermite basis H and translated into the half-open parallelepiped.
    """
    vectors = tuple(vec(v) for v in vectors)
    d = len(vectors)
    if d == 0 or any(len(v) != d for v in vectors):
        raise DimensionError("need d vectors in Z^d")
    M = columns_matrix(vectors)
    Madj, dM = adjugate(M)
    H = hermite_basis(vectors, d)
    points = []
    for z in product(*(range(H[k][k]) for k in range(d))):
        # floor of the rational barycentric coordinates; // floors for any sign
        shift = tuple(dot(Madj[i], z) // dM for i in range(d))
        points.append(
            tuple(z[i] - sum(M[i][j] * shift[j] for j in range(d)) for i in range(d))
        )
    if len(points) != abs(dM):
        raise RuntimeError(
            f"parallelepiped has {len(points)} lattice points, "
            f"expected |det| = {abs(dM)}"
        )
    return tuple(sorted(points))


@dataclass(frozen=True)
class HilbertBasis:
    cone: Cone
    elements: tuple


def hilbert_basis(cone: Cone) -> HilbertBasis:
    """Unique minimal generating set of cone ∩ Z^d for a pointed cone.

    In dimension 2 it is the Hirzebruch-Jung chain between the two rays; in
    higher dimensions `irreducible` reduces the rays and the parallelepiped
    points of a triangulation.
    """
    if not cone.pointed:
        raise NotPointedError("Hilbert basis needs a pointed cone")
    if not cone.full_dim:
        raise NotFullDimensionalError("Hilbert basis needs a full-dimensional cone")
    if cone.dim == 2:
        return HilbertBasis(cone, _hirzebruch_jung(*cone.rays))
    return HilbertBasis(cone, _hilbert_basis_by_pieces(cone))


def _hilbert_basis_by_pieces(cone: Cone):
    """Sorted Hilbert basis of a pointed full-dimensional cone of any dimension.

    The rays and the nonzero parallelepiped points of every simplicial piece
    generate cone ∩ Z^d; the irreducible ones are the basis.
    """
    candidates = set(cone.rays)
    for piece in _simplicial_pieces(cone.rays, cone.halfspaces):
        for x in parallelepiped_points(piece):
            if any(x):
                candidates.add(x)
    return irreducible(candidates, cone.halfspaces)


def irreducible(points, halfspaces, member=None):
    """Sorted points that are no kept point plus an element of the semigroup.

    The semigroup lies in the pointed cone cut out by halfspaces, and is all
    of cone ∩ Z^d unless member(x - k, kept) tests it. Points are visited by
    (sum of facet values y(x), x), a grading positive on the cone minus 0;
    x is dropped when some kept k has y(x) >= y(k), that is x - k in the
    cone, and member, if given, holds. The latest kept k come first: x - k
    is then lowest in the grading, so a member search from it is shortest.
    """
    values = {x: tuple(dot(h, x) for h in halfspaces) for x in points}
    kept = []
    for x in sorted(values, key=lambda x: (sum(values[x]), x)):
        y = values[x]
        if not any(
            all(map(ge, y, values[k]))
            and (member is None or member(vsub(x, k), kept))
            for k in reversed(kept)
        ):
            kept.append(x)
    return tuple(sorted(kept))


def polyhedron_vertices_and_facets(points, cone: Cone):
    """(vertices, facets) of P = conv(points) + cone, both sorted.

    One conversion answers both: the homogenized cone generated by (1, p)
    for the points and (0, r) for the recession rays has the extreme rays
    (1, v) exactly at the vertices v, and its halfspaces are the normals
    (h0, h) with h0 + <h, x> >= 0 cutting out P (± pairs when P is not
    full-dimensional, and (1, 0) when the far face x0 = 0 is a facet).
    The tangent cone of P at v is cut out by the h with h0 + <h, v> = 0.
    A recession cone with a line leaves P without vertices; no points leave
    it empty, with neither.
    """
    pts = sorted({vec(p) for p in points})
    for p in pts:
        if len(p) != cone.dim:
            raise DimensionError(f"point {p} does not have length {cone.dim}")
    if not pts:
        return (), ()
    lifted = [(1,) + p for p in pts] + [(0,) + r for r in cone.rays]
    hom = Cone.from_rays(lifted, cone.dim + 1)
    vertices = sorted(r[1:] for r in hom.rays if r[0] > 0) if cone.pointed else ()
    return tuple(vertices), hom.halfspaces


def polyhedron_vertices(points, cone: Cone):
    """Sorted vertices of conv(points) + cone."""
    return polyhedron_vertices_and_facets(points, cone)[0]
