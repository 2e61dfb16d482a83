"""Rational polyhedral cones with synchronized V- and H-descriptions.

A Cone stores primitive generator rays and primitive inward facet normals.
For pointed cones the rays are exactly the extreme rays; for cones with
lineality the stored generators are +-pairs of the Hermite basis of the
lineality lattice plus the extreme rays of the pointed part, the cone
intersected with the span of its facet normals. Both depend only on the
cone, so each cone has one description and `==` is exact. Halfspace lists
follow the same convention on the dual side, so `halfspaces` always
generates the dual cone and `contains` is a plain sign check in every case.

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
    primitive,
    rank,
    unimodular_dual,
    vec,
    vneg,
    vsub,
    xgcd,
)


def _pointed_extreme_rays(normals, dim):
    """Extreme rays of {x : <n,x> >= 0 for all n}; the normals have rank dim.

    Incremental double description (Motzkin et al. 1953; Fukuda & Prodon,
    1996). The first dim independent normals, found by one
    `independent_rows` echelon, cut out a simplicial cone whose rays are
    the signed adjugate columns. The other normals are added one at
    a time. Every ray carries the bitmask of the normals it lies on; a ray
    on the positive side of the new normal and one on the negative side are
    combined only when they are adjacent: their common zero set has at least
    dim-2 members and lies in no third ray's zero set.
    """
    normals = tuple(normals)
    basis = independent_rows(normals)
    A = tuple(normals[i] for i in basis)
    adj = adjugate(A)
    sign = 1 if sum(A[0][k] * adj[k][0] for k in range(dim)) > 0 else -1
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
    return tuple(sorted({r for r, _ in rays}))


def _h_to_v(normals, dim):
    """Generator description of {x : <n,x> >= 0 for all n}.

    Returns (lines, rays): the Hermite basis of the lineality space's
    lattice and the extreme rays of the pointed part, the cone intersected
    with the span of the normals. The ±lines as extra normals cut out that
    intersection, so both lists depend only on the cone.
    """
    if dim < 1:
        raise DimensionError("dimension must be positive")
    normals = tuple(n for n in normals if any(n))
    if not normals:
        return identity(dim), ()
    # the Smith form of a tall normal list can blow up its entries, and
    # without lineality only the rank is needed
    if rank(normals) == dim:
        return (), _pointed_extreme_rays(normals, dim)
    lines = hermite_basis(zip(*kernel_basis(normals)), dim)
    rays = _pointed_extreme_rays(normals + lines + tuple(map(vneg, lines)), dim)
    return lines, rays


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
        halfspaces = _with_line_pairs(*_h_to_v(norm, dim))
        lines, prays = _h_to_v(halfspaces, dim)
        rays = _with_line_pairs(lines, prays)
        full = bool(rays) and rank(rays) == dim
        return cls(dim, rays, halfspaces, not lines, full)

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
    Madj = adjugate(M)
    dM = sum(M[0][k] * Madj[k][0] for k in range(d))
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


def polyhedron_vertices(points, cone: Cone):
    """Sorted vertices of conv(points) + cone.

    One conversion answers it: the homogenized cone generated by (1, p) for
    the points and (0, r) for the recession rays has the extreme rays
    (1, v) exactly at the vertices v. A recession cone with a line leaves
    the polyhedron without vertices.
    """
    pts = sorted({vec(p) for p in points})
    if not pts or not cone.pointed:
        return ()
    lifted = [(1,) + p for p in pts] + [(0,) + r for r in cone.rays]
    hom = Cone.from_rays(lifted, cone.dim + 1)
    return tuple(sorted(r[1:] for r in hom.rays if r[0] > 0))
