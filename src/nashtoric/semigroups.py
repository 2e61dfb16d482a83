"""Finitely generated affine semigroups in Z^d.

Every semigroup meets the two standing hypotheses: the cone spanned by the
generators is pointed, and the generators span all of Z^d as a group.
`__init__` and `in_cone` check both (`_checked`); `from_cone` (the lattice
points of a pointed full-dimensional cone) and `image` (a GL(d, Z) image)
hold them by construction. Everything downstream (membership, minimal
generators, saturation, smoothness) is exact.
"""

import operator
from collections import Counter

from .errors import DimensionError, NotFullLatticeError, NotPointedError
from .cones import Cone, hilbert_basis, irreducible
from .linalg import (
    adjugate,
    columns_matrix,
    group_is_full_lattice,
    images,
    independent_rows,
    vec,
    vsub,
)


def _frame(points):
    """(frame, extras) for a list of points, or None below rank d: frame
    = (adj(K), det(K)) with det(K) > 0 for K the first d independent
    points, and extras the other points, in order. Usually the first d
    points are independent, and one adjugate finds out."""
    d = len(points[0])
    if len(points) < d:
        return None
    basis = range(d)
    try:
        adj, det_K = adjugate(columns_matrix(points[:d]))
    except DimensionError:
        basis = independent_rows(points)
        if len(basis) < d:
            return None
        adj, det_K = adjugate(columns_matrix([points[i] for i in basis]))
    if det_K < 0:
        adj = [[-a for a in row] for row in adj]
        det_K = -det_K
    return (adj, det_K), [x for i, x in enumerate(points) if i not in basis]


def _generated_member(x, gens, cone, cache, frame=None) -> bool:
    """Is x a finite sum of the given generators, and of the frame's?

    frame, when given, is (adj(K), det(K)) with det(K) > 0 for d
    independent generators K, left out of gens: x = K·a + gens·c has the
    basis coordinates a = adj(K)·(x - gens·c) / det(K). A point w whose
    numerators adj(K)·w are >= 0 and divisible by det(K) is in N·K and
    ends the search, so the search steps only along gens (the extras):
    w is generated exactly when it is in N·K or some w - g is generated.
    Without a frame, N·K is {0}, which the cache holds.

    Iterative depth-first search on x minus partial sums, pruned by cone
    membership; the search is a DAG because every generator is strictly
    positive on the cone's grading. Each entry on the stack is a point v
    with the index of the next generator g to try. The search ends at the
    first child v - g known to lie in the semigroup, and then every point
    on the stack is in it too, so all are cached True; a point is cached
    False once it is outside N·K and every child in the cone has come
    back False, which by the recursion above says it is not generated,
    frame or not. cache maps points to known answers and must map the
    origin to True; it may persist across calls while every entry stays
    right for the generators passed, the frame's included.
    """
    hit = cache.get(x)
    if hit is not None:
        return hit
    rows, det_K = frame or ((), 0)

    def in_frame(w):
        if not det_K:
            return False
        for row in rows:
            q = sum(map(operator.mul, row, w))
            if q < 0 or q % det_K:
                return False
        return True

    if in_frame(x):
        return True
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
            if r is None and cone.contains(w):
                if in_frame(w):
                    r = True
                else:
                    break
            if r is True:
                cache.update(dict.fromkeys(path, True))
                return True
        else:
            cache[v] = False
            path.pop()
            nexts.pop()
            continue
        nexts[-1] = i
        path.append(w)
        nexts.append(0)
    return False


def _nonzero_sorted(generators, dim):
    """The distinct nonzero generators, sorted, each checked to have length dim."""
    gens = set()
    for g in generators:
        t = vec(g)
        if len(t) != dim:
            raise DimensionError(f"generator {t} does not have length {dim}")
        if any(t):
            gens.add(t)
    if not gens:
        raise NotFullLatticeError("no nonzero generators")
    return tuple(sorted(gens))


class AffineSemigroup:
    __slots__ = (
        "dim",
        "generators",
        "_cone",
        "_minimal",
        "_saturated",
        "_member_cache",
        "_frame",
    )

    def __init__(self, dim, generators):
        dim = operator.index(dim)
        if dim < 1:
            raise DimensionError("dimension must be positive")
        gens = _nonzero_sorted(generators, dim)
        self._checked(gens, Cone.from_rays(gens, dim))

    @classmethod
    def in_cone(cls, cone: Cone, generators) -> "AffineSemigroup":
        """The semigroup the generators span, for a caller that already has
        their cone: checked as in `__init__`, without its conversion."""
        return cls.__new__(cls)._checked(_nonzero_sorted(generators, cone.dim), cone)

    def _checked(self, gens, cone):
        if not cone.pointed:
            raise NotPointedError("generators span a cone containing a line")
        if not group_is_full_lattice(gens, cone.dim):
            raise NotFullLatticeError("generators do not span Z^d as a group")
        return self._set(cone.dim, gens, cone, None, None)

    def _set(self, dim, generators, cone, minimal, saturated):
        self.dim = dim
        self.generators = generators
        self._cone = cone
        self._minimal = minimal
        self._saturated = saturated
        self._member_cache = {(0,) * dim: True}
        self._frame = None
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
        """Is x in S? Saturated: x is in the cone. Otherwise `_generated`
        over the minimal generators."""
        x = vec(x)
        if len(x) != self.dim:
            raise DimensionError(f"point {x} does not have length {self.dim}")
        if not self._cone.contains(x):
            return False
        if self._saturated is True:
            # saturated means the semigroup is exactly cone ∩ Z^d
            return True
        return self._generated(x, self.minimal_generators())

    def minimal_generators(self):
        """The unique minimal generating set, lexicographically sorted: the
        sweep of `irreducible` with `_generated` as its member test."""
        if self._minimal is None:
            self._member_cache.update(dict.fromkeys(self.generators, True))
            self._minimal = irreducible(self.generators, self._cone.halfspaces, self._generated)
        return self._minimal

    def _generated(self, x, points) -> bool:
        """Is x, a point of the cone, a sum of points? They are minimal
        generators: the sweep's kept points in grading order, or all.

        The sweep asks only about x below the generator it tests, where the
        kept points generate every element of S, so every answer and cache
        entry says whether a point lies in S. The first search the cache
        does not answer whose points reach rank d fixes the frame K, the
        first d independent points. Kept points stay kept, so K and the
        points outside it, which later searches step along, are the points.
        """
        if x in self._member_cache:
            return self._member_cache[x]
        if self._frame is None:
            found = _frame(points)
            if found is None:
                return _generated_member(x, points, self._cone, self._member_cache)
            self._frame = found[0], set(points).difference(found[1])
        frame, K = self._frame
        extras = [p for p in points if p not in K]
        return _generated_member(x, extras, self._cone, self._member_cache, frame)

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
        """The first d independent minimal generators A, rarest profile
        first, with the columns of adj(A), det(A) > 0 (`_frame`) and, for
        each prefix of A, the sorted facet value tuples of its members."""
        if self._frame is None:
            count = Counter(self.profiles.values())
            order = sorted(self.columns, key=lambda x: (count[self.profiles[x]], x))
            (adj, det_A), extras = _frame(order)
            extras = set(extras)
            A = tuple(x for x in order if x not in extras)
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

        todo = [()]  # partial image lists B, popped in the search's order
        while todo:
            B = todo.pop()
            k = len(B)
            # the lookup itself matches the one-member prefix
            if k > 1 and sorted(zip(*(target[b] for b in B))) != prefixes[k - 1]:
                continue
            if k < d:
                todo += [B + (y,) for y in reversed(by_profile[self.profiles[A[k]]]) if y not in B]
                continue
            g = [[sum(map(operator.mul, b, a)) for a in adj_columns] for b in zip(*B)]
            if any(q % det_A for row in g for q in row):
                continue
            g = tuple([tuple([q // det_A for q in row]) for row in g])
            mapped = {tuple([sum(map(operator.mul, row, x)) for row in g]) for x in self.columns}
            if mapped == target.keys():
                return g
        return None

