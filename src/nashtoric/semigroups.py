"""Finitely generated affine semigroups in Z^d.

Construction enforces the two standing hypotheses: the cone spanned by the
generators is pointed, and the generators span all of Z^d as a group.
Everything downstream (membership, minimal generators, saturation,
smoothness) is exact.
"""

import operator
from collections import Counter
from dataclasses import dataclass
from functools import cmp_to_key
from math import gcd

from .errors import (
    DimensionError,
    NotFullLatticeError,
    NotPointedError,
    NotSaturatedError,
)
from .cones import Cone, hilbert_basis, irreducible, polyhedron_vertices
from .linalg import (
    adjugate,
    columns_matrix,
    cross2,
    group_is_full_lattice,
    images,
    independent_rows,
    vec,
    vsub,
)


def _generated_member(x, gens, cone, cache) -> bool:
    """Is x a finite sum of the given generators?

    Iterative depth-first search on x minus partial sums, pruned by cone
    membership; the search is a DAG because every generator is strictly
    positive on the cone's grading. Each frame on the stack is a point v
    with the index of the next generator g to try. The search ends at the
    first child v - g known to lie in the semigroup, and then every point
    on the stack is in it too, so all are cached True; a point is cached
    False once every child in the cone has come back False. cache maps
    points to known answers and must map the origin to True; it may
    persist across calls while every entry stays right for the generator
    list passed.
    """
    hit = cache.get(x)
    if hit is not None:
        return hit
    n = len(gens)
    path = [x]
    nexts = [0]
    while path:
        v = path[-1]
        i = nexts[-1]
        while i < n:
            w = vsub(v, gens[i])
            i += 1
            r = cache.get(w)
            if r is True:
                cache.update(dict.fromkeys(path, True))
                return True
            if r is None and cone.contains(w):
                break
        else:
            cache[v] = False
            path.pop()
            nexts.pop()
            continue
        nexts[-1] = i
        path.append(w)
        nexts.append(0)
    return False


class AffineSemigroup:
    __slots__ = (
        "dim",
        "generators",
        "_cone",
        "_minimal",
        "_saturated",
        "_member_cache",
    )

    def __init__(self, dim, generators):
        dim = operator.index(dim)
        if dim < 1:
            raise DimensionError("dimension must be positive")
        gens = set()
        for g in generators:
            t = vec(g)
            if len(t) != dim:
                raise DimensionError(f"generator {t} does not have length {dim}")
            if any(t):
                gens.add(t)
        if not gens:
            raise NotFullLatticeError("no nonzero generators")
        gens = tuple(sorted(gens))
        cone = Cone.from_rays(gens, dim)
        if not cone.pointed:
            raise NotPointedError("generators span a cone containing a line")
        if not group_is_full_lattice(gens, dim):
            raise NotFullLatticeError("generators do not span Z^d as a group")
        self._set(dim, gens, cone, None, None)

    def _set(self, dim, generators, cone, minimal, saturated):
        self.dim = dim
        self.generators = generators
        self._cone = cone
        self._minimal = minimal
        self._saturated = saturated
        self._member_cache = {(0,) * dim: True}
        return self

    @classmethod
    def from_cone(cls, cone: Cone) -> "AffineSemigroup":
        """The saturated semigroup cone ∩ Z^d, generated by its Hilbert basis."""
        hb = hilbert_basis(cone)
        return cls.__new__(cls)._set(cone.dim, hb.elements, cone, hb.elements, True)

    @property
    def cone(self) -> Cone:
        return self._cone

    def membership(self, x) -> bool:
        x = vec(x)
        if len(x) != self.dim:
            raise DimensionError(f"point {x} does not have length {self.dim}")
        if not self._cone.contains(x):
            return False
        if self._saturated is True:
            # saturated means the semigroup is exactly cone ∩ Z^d
            return True
        gens = self.minimal_generators()
        return _generated_member(x, gens, self._cone, self._member_cache)

    def minimal_generators(self):
        """The unique minimal generating set, lexicographically sorted.

        g is redundant when g - k is generated by the kept ones for a kept
        k. The searches for g look only below g in the grading, where every
        generator is already generated by the kept ones and no later kept
        generator can change an answer. So every entry of the one cache
        the sweep fills says whether a point lies in S, and `membership`
        keeps using it.
        """
        if self._minimal is None:
            cone = self._cone
            cache = self._member_cache
            cache.update(dict.fromkeys(self.generators, True))
            self._minimal = irreducible(
                self.generators,
                cone.halfspaces,
                lambda g, kept: _generated_member(g, kept, cone, cache),
            )
        return self._minimal

    def image(self, g, dual=None) -> "AffineSemigroup":
        """The semigroup g·S for g in GL(d, Z) (rows), without a conversion.

        g keeps the standing hypotheses, saturation and minimality, so both
        generator lists map by g, re-sorted, and the saturation flag stays.
        dual is g^-T for the cone's `Cone.image`, when the caller has it.
        """
        gens = images(g, self.generators)
        if self._minimal == self.generators:
            minimal = gens
        else:
            minimal = None if self._minimal is None else images(g, self._minimal)
        return AffineSemigroup.__new__(AffineSemigroup)._set(
            self.dim, gens, self._cone.image(g, dual), minimal, self._saturated
        )

    def saturate(self) -> "AffineSemigroup":
        if self._saturated is True:
            return self
        return AffineSemigroup.from_cone(self._cone)

    def is_saturated(self) -> bool:
        if self._saturated is None:
            sat = AffineSemigroup.from_cone(self._cone)
            self._saturated = self.minimal_generators() == sat.minimal_generators()
        return self._saturated

    def is_smooth(self) -> bool:
        """Free on a lattice basis. The minimal generators span Z^d as a
        group, so d of them are a lattice basis."""
        return len(self.minimal_generators()) == self.dim

    def __eq__(self, other):
        # the same semigroup from any generating set: the minimal one is unique
        return (
            isinstance(other, AffineSemigroup)
            and self.dim == other.dim
            and self.minimal_generators() == other.minimal_generators()
        )

    def __hash__(self):
        return hash((self.dim, self.minimal_generators()))

    def __repr__(self):
        return f"AffineSemigroup(dim={self.dim}, generators={list(self.generators)})"


class LatticePairing:
    """The pairing matrix <h, x> of S, facet normals h by minimal
    generators x, for telling GL(d, Z) classes apart.

    g·S has the minimal generators g·x and the normals g^-T h, so its
    matrix is S's with rows and columns permuted: `key`, the sorted rows
    and the sorted columns, each sorted first, is a class invariant.
    `map_to` finds the g between two semigroups with equal keys.
    """

    __slots__ = ("dim", "columns", "profiles", "key", "_frame")

    def __init__(self, S: AffineSemigroup):
        hs = S.cone.halfspaces
        self.dim = S.dim
        # each minimal generator's column, and that column sorted
        self.columns = {
            x: tuple([sum(map(operator.mul, h, x)) for h in hs]) for x in S.minimal_generators()
        }
        self.profiles = {x: tuple(sorted(c)) for x, c in self.columns.items()}
        self.key = (
            self.dim,
            tuple(sorted([tuple(sorted(r)) for r in zip(*self.columns.values())])),
            tuple(sorted(self.profiles.values())),
        )
        self._frame = None

    def _basis(self):
        """d independent minimal generators A, rarest profile first, with
        the columns of adj(A), det(A) and, for each prefix of A, the sorted
        facet value tuples of its members."""
        if self._frame is None:
            count = Counter(self.profiles.values())
            order = sorted(self.columns, key=lambda x: (count[self.profiles[x]], x))
            A = tuple(order[i] for i in independent_rows(order))
            adj, det_A = adjugate(columns_matrix(A))
            prefixes = [sorted(zip(*(self.columns[a] for a in A[: k + 1]))) for k in range(self.dim)]
            self._frame = A, tuple(zip(*adj)), det_A, prefixes
        return self._frame

    def map_to(self, other: "LatticePairing"):
        """Some g in GL(d, Z) (rows) with g·R == S for R and S the two
        semigroups, or None if there is none.

        g is fixed by the images B of the independent generators A, g =
        B·adj(A)/det(A), and maps them to minimal generators of S. g
        permutes the facets too, so for every prefix of A the sorted facet
        value tuples of its images must be those of the prefix; a
        depth-first search extends B one image at a time under this test.
        A full B is accepted when g is integral and maps R's minimal
        generators onto S's. Both sets span Z^d as a group, so g then maps
        Z^d onto itself and is unimodular, and the generators determine S.
        """
        if self.key != other.key:
            return None
        A, adj_columns, det_A, prefixes = self._basis()
        d = len(A)
        target = other.columns
        by_profile = {}
        for y, c in other.profiles.items():
            by_profile.setdefault(c, []).append(y)

        def search(B):
            k = len(B)
            if k == d:
                g = []
                for b in zip(*B):
                    row = []
                    for a in adj_columns:
                        q, r = divmod(sum(map(operator.mul, b, a)), det_A)
                        if r:
                            return None
                        row.append(q)
                    g.append(tuple(row))
                mapped = {tuple([sum(map(operator.mul, row, x)) for row in g]) for x in self.columns}
                return tuple(g) if mapped == target.keys() else None
            # the lookup itself matches the one-member prefix
            for y in by_profile[self.profiles[A[k]]]:
                if y in B or k and sorted(zip(*(target[b] for b in B + (y,)))) != prefixes[k]:
                    continue
                g = search(B + (y,))
                if g is not None:
                    return g
            return None

        return search(())


def _ccw_cmp(a, b):
    c = cross2(a, b)
    if c > 0:
        return -1
    if c < 0:
        return 1
    # same direction: shorter first
    la = a[0] * a[0] + a[1] * a[1]
    lb = b[0] * b[0] + b[1] * b[1]
    if la < lb:
        return -1
    if la > lb:
        return 1
    return 0


@dataclass(frozen=True)
class SurfaceProfile:
    semigroup: AffineSemigroup
    ordered_generators: tuple

    def consecutive_determinants(self):
        gens = self.ordered_generators
        return tuple(cross2(gens[i], gens[i + 1]) for i in range(len(gens) - 1))


def surface_profile(S: AffineSemigroup) -> SurfaceProfile:
    """Minimal generators in counterclockwise order, clockwise-most first.

    Well defined because the cone is pointed, so all generators fit in an
    open half-plane and the cross product comparator is a total order up to
    collinear pairs, which are broken by length.
    """
    if S.dim != 2:
        raise DimensionError("surface profile needs dimension 2")
    ordered = sorted(S.minimal_generators(), key=cmp_to_key(_ccw_cmp))
    return SurfaceProfile(S, tuple(ordered))


def boundary_generators_crosscheck(S: AffineSemigroup):
    """Lattice points on the compact edges of conv(Γ ∖ {0}), sorted.

    For a saturated 2D semigroup this set must coincide with the minimal
    generators; tests compare the two independently computed sides.
    """
    if S.dim != 2:
        raise DimensionError("boundary cross-check needs dimension 2")
    if not S.is_saturated():
        raise NotSaturatedError("boundary cross-check is defined for saturated semigroups")
    gens = S.minimal_generators()
    chain = sorted(polyhedron_vertices(gens, S.cone), key=cmp_to_key(_ccw_cmp))
    pts = set(chain)
    for a, b in zip(chain, chain[1:]):
        step = vsub(b, a)
        g = gcd(step[0], step[1])
        sx, sy = step[0] // g, step[1] // g
        for t in range(1, g):
            pts.add((a[0] + t * sx, a[1] + t * sy))
    return tuple(sorted(pts))
