"""Finitely generated affine semigroups in Z^d.

Every semigroup meets the two standing hypotheses: the cone spanned by the
generators is pointed, and the generators span all of Z^d as a group.
`__init__`, whose generators come from outside, converts their cone, which
rejects a line, and checks the group. The other constructors hold both by
construction: `from_cone` (the lattice points of a cone), `image` (a
GL(d, Z) image) and `_in_cone`, the blowup chart constructor given the
cone by its caller, whose chart contains its parent (the proof is in
`_in_cone`) and so has the parent's group, Z^d. An image is its
mapped minimal generators and no cone: a semigroup built without one
converts its generators' cone (`Cone.from_rays`) when `cone` is first
read. Lattice points are the converse: in d >= 3 `from_cone` keeps the
cone and computes the Hilbert basis only when the minimal generators are
first read, and until then smoothness and the class key read the cone.
Everything else downstream (membership, minimal generators, saturation)
is exact and reads a semigroup through its minimal generators.
A semigroup given by generators G is saturated exactly when G contains
the Hilbert basis H of its cone, which is then its minimal generating set
(`AffineSemigroup._certify`): in 2D, where H is the Hirzebruch-Jung chain,
and on a cone of d rays with determinant ±1, reading the minimal
generators tests this first and needs no sweep when it holds.
Membership in a semigroup that is not known to be saturated is one
depth-first search, `AffineSemigroup._generated`, in the basis coordinates
of the first d independent generators in grading order, which are minimal.
`resolve` tells GL(d, Z) classes apart by `LatticePairing`, and normal
surfaces by the normal form of their cones (`_surface_normal_form`).
"""

import operator
from collections import Counter

from .errors import DimensionError, NotFullDimensionalError, NotFullLatticeError, NotPointedError
from .cones import Cone, _hirzebruch_jung, hilbert_basis, irreducible
from .linalg import (
    adjugate,
    columns_matrix,
    cross2,
    det,
    dot,
    group_is_full_lattice,
    images,
    independent_rows,
    integer,
    vec,
    vsub,
    xgcd,
)


_NOT_FULL_LATTICE = "generators do not span Z^d as a group"
# the least dimension in which a lattice-point semigroup is read through
# its cone until its Hilbert basis is needed: below it the basis costs
# about as much as an image (in 2D, the Hirzebruch-Jung chain)
_CONE_DIM = 3


def _frame(points):
    """(K, (adj(K), det(K))) for a full-rank list of points: K the first d
    independent points, in order, and det(K) > 0. Usually the first d
    points are independent, and one adjugate finds out."""
    K = tuple(points[: len(points[0])])
    try:
        adj, det_K = adjugate(columns_matrix(K))
    except DimensionError:
        K = tuple(points[i] for i in independent_rows(points))
        adj, det_K = adjugate(columns_matrix(K))
    if det_K < 0:
        adj = [[-a for a in row] for row in adj]
        det_K = -det_K
    return K, (adj, det_K)


def _unimodular(cone):
    """Has the cone d rays with determinant ±1? They are then its Hilbert
    basis: a lattice basis generates every lattice point of its cone."""
    return len(cone.rays) == cone.dim and abs(adjugate(cone.rays)[1]) == 1


def _nonzero_sorted(generators, dim):
    """The distinct nonzero generators, integer tuples, sorted, each checked
    to have length dim."""
    gens = set()
    for g in generators:
        if len(g) != dim:
            raise DimensionError(f"generator {g} does not have length {dim}")
        if any(g):
            gens.add(g)
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
        dim = integer(dim, "dimension")
        if dim < 1:
            raise DimensionError("dimension must be positive")
        gens = _nonzero_sorted(map(vec, generators), dim)
        try:
            cone = Cone.from_rays(gens, dim)
        except NotPointedError:
            raise NotPointedError("generators span a cone containing a line") from None
        except NotFullDimensionalError:
            raise NotFullLatticeError(_NOT_FULL_LATTICE) from None
        if not group_is_full_lattice(gens, dim):
            raise NotFullLatticeError(_NOT_FULL_LATTICE)
        self._set(dim, gens, cone, None, None)

    @classmethod
    def _in_cone(cls, cone: Cone, generators) -> "AffineSemigroup":
        """The unnormalized blowup chart the generators, integer tuples,
        span in the cone its caller built for them, without `__init__`'s
        conversion, `vec` pass or group check: only the generators' lengths
        are checked, and zeros dropped.

        A chart's group is Z^d by construction, since the chart contains its
        parent Γ, whose group is Z^d. Every minimal generator g of Γ is a
        chart generator of the walk (`blowup._walk`) or a sum of them: g is
        in the basis B, or g has no exchange and is listed, or
        g = b + (g - b) with g - b an exchange direction. The closed form's
        chart (`blowup._surface_charts`) lists a basis of determinant 1,
        and the enumeration's (`blowup.blowup_charts`) lists Γ's minimal
        generators outright."""
        gens = _nonzero_sorted(generators, cone.dim)
        return cls.__new__(cls)._set(cone.dim, gens, cone, None, None)

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
        """The saturated semigroup cone ∩ Z^d, generated by its Hilbert basis.

        The cone determines the semigroup, so from `_CONE_DIM` on the basis
        waits until the minimal generators are first read (`generators` is
        None until then), and a semigroup that is only tested for
        smoothness or keyed (`LatticePairing`) never computes it. Below it
        the basis is made at once.
        """
        hb = hilbert_basis(cone).elements if cone.dim < _CONE_DIM else None
        return cls.__new__(cls)._set(cone.dim, hb, cone, hb, True)

    @property
    def cone(self) -> Cone:
        """The generators' cone, converted on first read if built without one."""
        if self._cone is None:
            self._cone = Cone.from_rays(self.generators, self.dim)
        return self._cone

    def membership(self, x) -> bool:
        """Is x in S? Saturated, which reading the minimal generators may
        certify (`_certify`): x is in the cone. Otherwise `_generated`."""
        x = vec(x)
        if not self.cone.contains(x):
            return False
        if self._saturated is not True:
            gens = self.minimal_generators()
            if self._saturated is not True:
                return self._generated(x, gens)
        # saturated means the semigroup is exactly cone ∩ Z^d
        return True

    def minimal_generators(self):
        """The unique minimal generating set, lexicographically sorted: the
        Hilbert basis of a lattice-point semigroup that deferred it
        (`from_cone`); the Hilbert basis of the cone when the saturation
        certificate finds it among the generators (`_certify`), in 2D
        always and in any d on a cone of d rays with determinant ±1; else,
        or when the flag already reads False, the sweep of `irreducible`
        with `_generated` as its member test."""
        if self.generators is None:
            self.generators = self._minimal = hilbert_basis(self._cone).elements
        elif self._minimal is None and (self._saturated is False or self._certify(False) is None):
            self._member_cache.update(dict.fromkeys(self.generators, True))
            self._minimal = irreducible(self.generators, self.cone.halfspaces, self._generated)
        return self._minimal

    def _certify(self, full):
        """The cone's Hilbert basis H when the generators G contain it, else
        None; wherever H is read, the saturation flag is set.

        S is saturated exactly when H ⊆ G, and H is then its minimal
        generating set: a saturated S has H as its minimal generating set,
        which lies in every generating set; and H ⊆ G ⊆ S ⊆ cone ∩ Z^d with
        H generating cone ∩ Z^d forces S = cone ∩ Z^d. H is read where it
        is cheap: in 2D the Hirzebruch-Jung chain, walked from one ray and
        stopped at its first element outside G, so a test costs at most
        |G| + 1 steps and decides the flag either way; in any d the d rays
        of a cone with determinant ±1, which are their own Hilbert basis.
        With full, any other cone computes H (`hilbert_basis`); without,
        it returns None and leaves the flag unset.
        """
        gens = set(self.generators)
        cone = self.cone
        if self.dim == 2:
            # H read up to its first element outside G, if there is one
            chain = []
            for w in _hirzebruch_jung(*cone.rays):
                chain.append(w)
                if w not in gens:
                    break
            H = tuple(sorted(chain))
        elif _unimodular(cone):
            H = cone.rays
        elif full:
            H = hilbert_basis(cone).elements
        else:
            return None
        self._saturated = gens.issuperset(H)
        if not self._saturated:
            return None
        self._minimal = H
        return H

    def _generated(self, x, points) -> bool:
        """Is x, a point of the cone, a sum of points? They are minimal
        generators: the sweep's kept points in grading order, or all.

        The sweep asks only about x below the generator it tests, where the
        kept points generate every element of S, so every answer and cache
        entry says whether a point lies in S.

        The search runs in the basis coordinates of a frame, d independent
        generators K with det(K) > 0 (`_frame`). x = K·a + F·c, for
        F the points outside K, has a = adj(K)·(x - F·c) / det(K), so a
        point w whose numerators adj(K)·w are >= 0 and divisible by det(K)
        is in N·K and ends the search, which steps only along F: w is in S
        exactly when it is in N·K or some w - f is. The first search the
        cache does not answer fixes K: the first d independent generators
        in the grading order of `irreducible`. A generator independent of
        those before it is minimal, so K is the first d independent
        minimal generators in grading order. The sweep may search before it
        has kept all of K; N·K still lies in S, so its answers stay exact.

        Iterative depth-first search on x minus partial sums, pruned by cone
        membership; the search is a DAG because every generator is strictly
        positive on the grading. Each stack entry is a point v with the
        index of the next f to try. The search ends at the first child
        v - f known to lie in S, and then every point on the stack is in S
        too, so all are cached True; a point is cached False once it is
        outside N·K and every child in the cone has come back False.
        """
        cache = self._member_cache
        if x in cache:
            return cache[x]
        cone = self.cone
        if self._frame is None:
            grading = [sum(c) for c in zip(*cone.halfspaces)]
            K, frame = _frame(sorted(self.generators, key=lambda g: (dot(grading, g), g)))
            self._frame = frame, set(K)
        (rows, det_K), K = self._frame
        extras = [p for p in points if p not in K]
        n = len(extras)

        def in_frame(w):
            for row in rows:
                q = sum(map(operator.mul, row, w))
                if q < 0 or q % det_K:
                    return False
            return True

        if in_frame(x):
            return True
        path = [x]
        nexts = [0]
        while path:
            v = path[-1]
            i = nexts[-1]
            while i < n:
                w = vsub(v, extras[i])
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

    def image(self, g) -> "AffineSemigroup":
        """g·S for g in GL(d, Z) (rows): S's minimal generators mapped by g,
        both its generators and its minimal generators, with S's saturation
        flag and no cone. g needs d rows of d integers and determinant ±1."""
        g = tuple(map(vec, g))
        if len(g) != self.dim:
            raise DimensionError(f"map has {len(g)} rows, expected {self.dim}")
        for row in g:
            if len(row) != self.dim:
                raise DimensionError(f"map row {row} does not have length {self.dim}")
        if det(g) not in (1, -1):
            raise ValueError("a unimodular map needs determinant ±1")
        return self._image(g)

    def _image(self, g) -> "AffineSemigroup":
        """`image` for a map the caller has checked to be d rows of d
        integers with determinant ±1, such as `resolve`'s composed maps."""
        gens = images(g, self.minimal_generators())
        return AffineSemigroup.__new__(AffineSemigroup)._set(
            self.dim, gens, None, gens, self._saturated
        )

    def saturate(self) -> "AffineSemigroup":
        if self._saturated is True:
            return self
        return AffineSemigroup.from_cone(self.cone)

    def is_saturated(self) -> bool:
        """Is S all of cone ∩ Z^d? Decided once, by whether the generators
        contain the cone's Hilbert basis (`_certify`)."""
        if self._saturated is None:
            self._certify(True)
        return self._saturated

    def is_smooth(self) -> bool:
        """Free on a lattice basis. The minimal generators span Z^d as a
        group, so d of them are a lattice basis.

        A lattice-point semigroup that deferred its Hilbert basis reads its
        cone instead: it is smooth exactly when the cone has d rays with
        determinant ±1, which are then its Hilbert basis, kept as such.
        """
        if self.generators is None:
            if not _unimodular(self.cone):
                return False
            self.generators = self._minimal = self.cone.rays
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
        gens = self.minimal_generators() if self.generators is None else self.generators
        return f"AffineSemigroup(dim={self.dim}, generators={list(gens)})"


class LatticePairing:
    """The pairing matrix <h, x> of S, facet normals h by points x, for
    telling GL(d, Z) classes apart: `resolve` keys every class by it but
    the normal surfaces, 2D semigroups flagged saturated, which it keys by
    their normal form (`_surface_normal_form`) in both graph kinds.

    The points are S's minimal generators, or, when S's saturation flag is
    set, the primitive extreme rays of its cone: the cone determines a
    saturated S, so its Hilbert basis is never read (it may not be
    computed, `from_cone`). The key records which kind of point it
    pairs, so a saturated S is only ever matched to a saturated one. g·S
    has the points g·x and the normals g^-T h, so its matrix is S's with
    rows and columns permuted: `key`, the kind, the sorted rows and the
    sorted columns, each sorted first, is a class invariant. `map_to`
    finds the g between two semigroups with equal keys.
    """

    __slots__ = ("dim", "columns", "profiles", "key", "_frame")

    def __init__(self, S: AffineSemigroup):
        cone = S.cone
        hs = cone.halfspaces
        by_rays = S._saturated is True
        self.dim = S.dim
        # each point's column, and that column sorted
        self.columns = {
            x: tuple([sum(map(operator.mul, h, x)) for h in hs])
            for x in (cone.rays if by_rays else S.minimal_generators())
        }
        self.profiles = {x: tuple(sorted(c)) for x, c in self.columns.items()}
        self.key = (
            self.dim,
            by_rays,
            tuple(sorted([tuple(sorted(r)) for r in zip(*self.columns.values())])),
            tuple(sorted(self.profiles.values())),
        )
        self._frame = None

    def _basis(self):
        """The first d independent points A, rarest profile first, with the
        columns of adj(A), det(A) > 0 (`_frame`) and, for each prefix of A,
        the sorted facet value tuples of its members."""
        if self._frame is None:
            count = Counter(self.profiles.values())
            order = sorted(self.columns, key=lambda x: (count[self.profiles[x]], x))
            A, (adj, det_A) = _frame(order)
            prefixes = [sorted(zip(*(self.columns[a] for a in A[: k + 1]))) for k in range(self.dim)]
            self._frame = A, tuple(zip(*adj)), det_A, prefixes
        return self._frame

    def map_to(self, other: "LatticePairing"):
        """Some g in GL(d, Z) (rows) with g·R == S for R and S the two
        semigroups, or None if there is none.

        g is fixed by the images B of the independent points A, g =
        B·adj(A)/det(A), and maps them to points of S. g permutes the
        facets too, so for every prefix of A the sorted facet value tuples
        of its images must be those of the prefix; a depth-first search
        extends B one image at a time under this test. A full B is accepted
        when g is integral, maps R's points onto S's and has determinant
        ±1. The points determine the semigroup: its minimal generators, or
        the rays of a saturated one's cone. Minimal generators span Z^d as
        a group, so an integral g between them is unimodular anyway, but
        rays can span a proper sublattice, and an integral g of another
        determinant can map one cone's rays onto another's.
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
            # g maps a spanning set onto one, so it is nonsingular
            if mapped == target.keys() and abs(adjugate(g)[1]) == 1:
                return g
        return None


def _surface_normal_form(u1, u2):
    """((n, q), A) for the 2D cone on independent primitive rays u1, u2:
    A in GL(2, Z) (rows) sends one ray to (1, 0) and the other to (q, n),
    n > 0 and 0 <= q < n.

    For each order (x, y) of the rays one xgcd gives s·x_0 + t·x_1 = 1, so
    the rows (s, t) and ±(-x_1, x_0), signed to make the second entry of
    the image of y positive, send x to (1, 0) and y to (b, n), with
    n = |det(x, y)|. Subtracting k = floor(b / n) times the second row
    from the first leaves x where it is and moves y to (b mod n, n). The
    two orders give a and a^-1 mod n, and the order with the smaller is
    kept, so (n, q) is the Hirzebruch-Jung normal form: a complete
    GL(2, Z) invariant (Oda 1988, ch. 1; Cox-Little-Schenck §10.1), and
    two cones with one key are mapped onto each other by A_S^-1·A_R.
    """
    best = None
    for x, y in ((u1, u2), (u2, u1)):
        _, s, t = xgcd(x[0], x[1])
        det_xy = cross2(x, y)
        n = abs(det_xy)
        row = (-x[1], x[0]) if det_xy > 0 else (x[1], -x[0])
        k, a = divmod(s * y[0] + t * y[1], n)
        if best is None or a < best[0][1]:
            best = ((n, a), ((s - k * row[0], t - k * row[1]), row))
    return best
