import random
from itertools import combinations_with_replacement

import numpy as np
import pytest

from nashtoric import semigroups
from nashtoric.blowup import (
    blowup_charts,
    log_jacobian_ideal,
    nash_blowup,
    newton_polyhedron,
)
from nashtoric.cones import Cone, hilbert_basis, irreducible
from nashtoric.errors import (
    DimensionError,
    NotFullLatticeError,
    NotPointedError,
)
from nashtoric.linalg import dot, group_is_full_lattice, images
from nashtoric.resolve import resolve
from nashtoric.semigroups import AffineSemigroup, _frame

from oracles import (
    boundary_generators_crosscheck,
    brute_force_minimal_generators,
    generator_sums,
    hilbert_basis_by_triangulation,
    permutation_det,
    random_saturated_surface,
    random_unsaturated_generators,
    resolve_reference,
    surface_profile,
)


def test_construction_validates():
    with pytest.raises(NotPointedError):
        AffineSemigroup(2, [(1, 0), (-1, 0), (0, 1)])
    with pytest.raises(NotFullLatticeError):
        AffineSemigroup(2, [(2, 0), (0, 1)])
    with pytest.raises(NotFullLatticeError):
        AffineSemigroup(1, [(2,), (4,)])
    with pytest.raises(NotFullLatticeError):
        AffineSemigroup(2, [(0, 0)])
    with pytest.raises(DimensionError):
        AffineSemigroup(2, [(1, 0, 0)])
    with pytest.raises(DimensionError):
        AffineSemigroup(0, [])
    # a dimension follows the integer rule of max_depth and seed
    with pytest.raises(TypeError):
        AffineSemigroup(True, [(2,), (3,)])


def test_in_cone_builds_what_init_builds():
    # _in_cone takes the generators' cone from its caller and checks only
    # their lengths: on generators __init__ accepts it builds the same
    # semigroup. Its only inputs, blowup charts, have group Z^d by
    # construction (test_blowup.py::test_unnormalized_charts_have_full_group),
    # so only __init__ rejects outside input
    cases = [
        (2, [(1, 0), (-1, 0), (0, 1)], NotPointedError),
        (2, [(2, 0), (0, 1)], NotFullLatticeError),
        (1, [(2,), (4,)], NotFullLatticeError),
        (2, [(0, 0)], NotFullLatticeError),
        # a line is reported before a missing dimension
        (2, [(1, 0), (-1, 0)], NotPointedError),
        (2, [(1, 0), (2, 0)], NotFullLatticeError),
        (2, [(0, 0), (2, 0), (3, 0), (0, 1), (1, 1), (2, 0)], None),
        (3, [(2, 0, 0), (3, 0, 0), (0, 1, 0), (0, 0, 2), (1, 1, 1)], None),
    ]
    for dim, gens, error in cases:
        if error is not None:
            with pytest.raises(error):
                AffineSemigroup(dim, gens)
            continue
        cone = Cone.from_rays(gens, dim)
        S = AffineSemigroup(dim, gens)
        T = AffineSemigroup._in_cone(cone, iter(gens))
        assert T.generators == S.generators and T.cone == S.cone
        assert T.minimal_generators() == S.minimal_generators()
    with pytest.raises(DimensionError):
        AffineSemigroup._in_cone(Cone.from_rays([(1, 0), (0, 1)], 2), [(1, 0, 0)])


def test_zero_generators_are_dropped():
    S = AffineSemigroup(1, [(0,), (2,), (3,)])
    assert S.generators == ((2,), (3,))


def test_membership_numerical(cusp):
    inside = {0, 2, 3, 4, 5, 6, 7, 8, 9, 10}
    for n in range(-3, 11):
        assert cusp.membership((n,)) == (n in inside)


def test_membership_saturated_equals_cone(threefold):
    rng = random.Random(401)
    cone = threefold.cone
    for _ in range(300):
        z = tuple(rng.randint(-4, 4) for _ in range(3))
        assert threefold.membership(z) == cone.contains(z)


def test_membership_dimension_check(cusp):
    with pytest.raises(DimensionError):
        cusp.membership((1, 2))


def test_minimal_generators_fixed(cusp, threefold):
    assert cusp.minimal_generators() == ((2,), (3,))
    assert threefold.minimal_generators() == (
        (0, 1, 0),
        (1, 0, 0),
        (1, 1, 1),
        (1, 1, 2),
    )
    S = AffineSemigroup(2, [(1, 0), (0, 1), (1, 1), (2, 3)])
    assert S.minimal_generators() == ((0, 1), (1, 0))


def test_minimal_generators_random():
    rng = random.Random(402)
    for _ in range(60):
        S = random_saturated_surface(rng, bound=9)
        mins = S.minimal_generators()
        # regenerating from the minimal set changes nothing
        T = AffineSemigroup(2, mins)
        assert T.minimal_generators() == mins
        # each minimal generator is not reachable from the others
        for g in mins:
            rest = [h for h in mins if h != g]
            if not rest:
                continue
            try:
                R = AffineSemigroup(2, rest)
            except NotFullLatticeError:
                continue
            assert not R.membership(g)
        # padding with sums leaves the minimal set alone
        padded = list(mins)
        for _ in range(3):
            a, b = padded[rng.randrange(len(mins))], padded[rng.randrange(len(padded))]
            padded.append((a[0] + b[0], a[1] + b[1]))
        assert AffineSemigroup(2, padded).minimal_generators() == mins


def test_minimal_generators_against_brute_force():
    rng = random.Random(406)
    seen = {"tie": 0, "dropped": 0, "unsaturated": 0}
    for dim in (1, 2, 3, 4):
        for _ in range(40):
            S = AffineSemigroup(dim, random_unsaturated_generators(rng, dim))
            mins = S.minimal_generators()
            assert list(mins) == brute_force_minimal_generators(S.generators, dim)
            w = tuple(map(sum, zip(*S.cone.halfspaces)))
            seen["tie"] += len({dot(w, g) for g in S.generators}) < len(S.generators)
            seen["dropped"] += len(mins) < len(S.generators)
            seen["unsaturated"] += dim < 4 and not S.is_saturated()
    assert min(seen.values()) >= 20, seen


def _padded(rng, points, count=3):
    """The points and count sums of random nonempty subsets of them."""
    points = list(points)
    return points + [
        tuple(map(sum, zip(*rng.sample(points, rng.randint(1, len(points))))))
        for _ in range(count)
    ]


def test_the_saturation_certificate_is_exact(monkeypatch):
    # S is saturated exactly when its generators contain its cone's Hilbert
    # basis H, which is then its minimal generating set. Where H is cheap
    # (2D, or d rays of determinant ±1) the certificate decides the flag
    # and skips the sweep when it holds; is_saturated decides it in every d
    swept = []

    def spying_irreducible(points, halfspaces, member):
        swept.append(points)
        return irreducible(points, halfspaces, member)

    monkeypatch.setattr(semigroups, "irreducible", spying_irreducible)
    rng = random.Random(444)
    seen = {}
    for dim, count in ((1, 24), (2, 36), (3, 36), (4, 12)):
        for t in range(count):
            recipe = ("unsaturated", "hilbert", "smooth")[t % 3]
            if recipe == "unsaturated":
                gens = random_unsaturated_generators(rng, dim)
            elif recipe == "hilbert":
                cone = Cone.from_rays(random_unsaturated_generators(rng, dim), dim)
                points = list(hilbert_basis(cone).elements)
                inner = [x for x in points if x not in cone.rays]
                if inner and t % 2:
                    # one element of H dropped: sums never make it again
                    points.remove(rng.choice(inner))
                    recipe = "hilbert-less-one"
                gens = _padded(rng, points)
            else:
                points = list(_random_unimodular(rng, dim))
                if t % 2:
                    # b replaced by 2b and 3b: the cone stays smooth, and
                    # the group full, but b is missing
                    b = points.pop()
                    points += [tuple(2 * x for x in b), tuple(3 * x for x in b)]
                    recipe = "smooth-less-one"
                gens = _padded(rng, points)
            try:
                S = AffineSemigroup(dim, gens)
            except NotFullLatticeError:
                continue
            mins = brute_force_minimal_generators(gens, dim)
            truth = mins == list(hilbert_basis_by_triangulation(S.cone))
            smooth_cone = len(S.cone.rays) == dim and abs(permutation_det(S.cone.rays)) == 1
            swept.clear()
            assert list(S.minimal_generators()) == mins, gens
            if dim <= 2 or smooth_cone:
                assert S._saturated is truth, gens
            else:
                assert S._saturated is None, gens
            assert bool(swept) == (S._saturated is not True), gens
            assert S.is_saturated() is truth and S._saturated is truth, gens
            # tested before the minimal generators are read: the
            # certificate in every d, then the same minimal set
            T = AffineSemigroup(dim, gens)
            swept.clear()
            assert T.is_saturated() is truth, gens
            assert list(T.minimal_generators()) == mins, gens
            assert bool(swept) != truth, gens
            key = (recipe, truth)
            seen[key] = seen.get(key, 0) + 1
            key = ("cheap" if dim <= 2 or smooth_cone else "full", truth)
            seen[key] = seen.get(key, 0) + 1
    assert seen.keys() == {
        ("unsaturated", True),
        ("unsaturated", False),
        ("hilbert", True),
        ("hilbert-less-one", False),
        ("smooth", True),
        ("smooth-less-one", False),
        ("cheap", True),
        ("cheap", False),
        ("full", True),
        ("full", False),
    }, seen
    assert min(seen.values()) >= 3, seen


def test_the_certificate_stops_at_the_first_chain_element_outside(monkeypatch):
    # the cone of (1, 0), (1, 1), (1, 10000) has a Hirzebruch-Jung chain of
    # 10,001 elements, and (1, 2) is the first one outside the generators
    steps = []
    chain = semigroups._hirzebruch_jung

    def counted(u1, u2):
        for w in chain(u1, u2):
            steps.append(w)
            yield w

    monkeypatch.setattr(semigroups, "_hirzebruch_jung", counted)
    gens = ((1, 0), (1, 1), (1, 10000))
    S = AffineSemigroup(2, gens)
    assert S.minimal_generators() == gens
    assert S._saturated is False and 0 < len(steps) <= 4, steps
    assert not AffineSemigroup(2, gens).is_saturated()
    assert len(steps) <= 8, steps


def test_a_failed_certificate_is_not_read_again(monkeypatch):
    # a normalized root given by unsaturated generators: `resolve` decides
    # its flag first (`is_saturated`), and the minimal generators read
    # after it sweep without walking the chain again
    gens = [(1, 0), (1, 2), (1, 3), (2, 5)]
    want = resolve_reference(AffineSemigroup(2, gens), 0).shape()
    calls = []
    certify = AffineSemigroup._certify

    def counted(self, full):
        calls.append(self.generators)
        return certify(self, full)

    monkeypatch.setattr(AffineSemigroup, "_certify", counted)
    S = AffineSemigroup(2, gens)
    tree = resolve(S, 0)
    assert S._saturated is False and S.minimal_generators() == ((1, 0), (1, 2), (1, 3))
    assert len(calls) == 1, calls
    assert tree.shape() == want


def test_saturate(cusp, threefold):
    sat = cusp.saturate()
    assert sat.minimal_generators() == ((1,),)
    assert not cusp.is_saturated()
    assert sat.is_saturated()
    assert threefold.is_saturated()
    assert threefold.saturate() is threefold
    # saturation contains the original semigroup
    for g in cusp.generators:
        assert sat.membership(g)


def test_saturate_nontrivial_surface():
    # (1,2) is in the cone and the lattice but not the semigroup
    S = AffineSemigroup(2, [(1, 0), (1, 1), (1, 3)])
    assert not S.is_saturated()
    assert S.saturate().minimal_generators() == ((1, 0), (1, 1), (1, 2), (1, 3))


def _random_unimodular(rng, dim):
    rows = [[int(i == j) for j in range(dim)] for i in range(dim)]
    for _ in range(3 if dim > 1 else 0):
        i, j = rng.sample(range(dim), 2)
        k = rng.choice((-2, -1, 1, 2))
        rows[i] = [a + k * b for a, b in zip(rows[i], rows[j])]
    rng.shuffle(rows)
    return tuple(tuple(s * a for a in row) for s, row in zip(rng.choices((-1, 1), k=dim), rows))


def test_membership_against_brute_force_sums():
    # membership shares the minimal-generator sweep's cache, so it must
    # answer alike before and after the sweep and on images
    rng = random.Random(408)
    seen = {"in": 0, "out": 0}
    # fewer 4D draws: each has about twice the sums of a 3D draw under its cap
    for dim, count in ((1, 25), (2, 25), (3, 25), (4, 6)):
        for _ in range(count):
            gens = random_unsaturated_generators(rng, dim)
            S = AffineSemigroup(dim, gens)
            w = tuple(map(sum, zip(*S.cone.halfspaces)))
            cap = 2 * max(dot(w, x) for x in S.generators)
            sums = generator_sums(S.generators, w, cap)
            near = list(sums) + [(0,) * dim]
            points = set(near)
            for _ in range(40):
                a, b = rng.choice(near), rng.choice(S.generators)
                points.add(tuple(x - y + rng.randint(-1, 1) for x, y in zip(a, b)))
            points = sorted(x for x in points if dot(w, x) <= cap)
            g = _random_unimodular(rng, dim)
            before = AffineSemigroup(dim, gens)
            after = AffineSemigroup(dim, gens)
            after.minimal_generators()
            fresh_image = AffineSemigroup(dim, gens).image(g)
            truth = {x: not any(x) or x in sums for x in points}
            for x in points:
                assert before.membership(x) == truth[x]
                assert after.membership(x) == truth[x]
            # before has swept by now, so its image knows its minimal generators
            for T in (before.image(g), fresh_image):
                for x in points:
                    assert T.membership(tuple(dot(row, x) for row in g)) == truth[x]
            for t in truth.values():
                seen["in" if t else "out"] += 1
    assert min(seen.values()) >= 200, seen


def test_frame_leaf_test_checks_sign_and_divisibility():
    # every generator has first coordinate 1, so the points of S at level
    # n are (n, y) for y a sum of n second coordinates; the frame K is the
    # first two generators, and the third is the only extra
    for gens, det_K, outside in (
        # det(K) = 2: (n, 1) has the basis coordinates (n - 1/2, 1/2)
        (((1, 0), (1, 2), (1, 3)), 2, ((1, 1), (2, 1), (3, 1))),
        # det(K) = 1: (1, 2) = -(1, 0) + 2 (1, 1), (2, 5) = -3 (1, 0) + 5 (1, 1)
        (((1, 0), (1, 1), (1, 3)), 1, ((1, 2), (2, 5), (3, 8))),
    ):
        K, (adj, d) = _frame(gens)
        extras = [x for x in gens if x not in K]
        assert (d, extras) == (det_K, [gens[2]])
        assert all(x[1] <= 3 * x[0] for x in outside)  # all in the cone
        S = AffineSemigroup(2, gens)
        assert S.minimal_generators() == gens
        assert not any(S.membership(x) for x in outside)
        for n in range(1, 6):
            level = {sum(c) for c in combinations_with_replacement([g[1] for g in gens], n)}
            for y in range(-1, 3 * n + 2):
                assert S.membership((n, y)) == (y in level), (gens, n, y)


def test_sweep_below_rank_d_frames_by_the_generators_in_grading_order(monkeypatch):
    # grading x + y: (3, 0) is tested while the only kept point is (2, 0),
    # below rank d, and the first search, for (1, 0), fixes the frame from
    # the generators in grading order, (2, 0), (3, 0), (4, 0), (1, 5), ...:
    # K is (2, 0) and (1, 5), the first independent pair, and every later
    # search runs in its coordinates
    gens = [(2, 0), (3, 0), (4, 0), (1, 5), (0, 7), (4, 10)]
    searches = []

    def spying_irreducible(points, halfspaces, member):
        def spy(x, kept):
            t = member(x, kept)
            searches.append((x, S._frame and S._frame[1]))
            return t

        return irreducible(points, halfspaces, spy)

    monkeypatch.setattr(semigroups, "irreducible", spying_irreducible)
    S = AffineSemigroup(2, gens)
    assert S.minimal_generators() == ((0, 7), (1, 5), (2, 0), (3, 0))
    assert list(S.minimal_generators()) == brute_force_minimal_generators(gens, 2)
    K = {(2, 0), (1, 5)}
    assert searches[0] == ((1, 0), K)
    assert all(frame == K for _, frame in searches)
    assert S._frame[0][1] == 10  # det of (2, 0), (1, 5)
    sums = generator_sums(S.minimal_generators(), (1, 1), 20)
    for x in range(21):
        for y in range(21 - x):
            assert S.membership((x, y)) == ((x, y) in sums or x == y == 0)


def test_a_query_after_a_searchless_sweep_frames_by_the_grading():
    # the facet normals (1, 0) and (-4, 5) grade (5, 4), (4, 4), (0, 3) by
    # 5, 8, 15, and no generator minus an earlier one is in the cone, so
    # the sweep makes no search and fixes no frame; the first query the
    # cache does not answer fixes K = (5, 4), (4, 4) from that order, not
    # the first independent minimal generators in lexicographic order
    S = AffineSemigroup(2, [(0, 3), (4, 4), (5, 4)])
    assert S.minimal_generators() == ((0, 3), (4, 4), (5, 4))
    assert S._frame is None
    assert S.cone.contains((5, 8)) and not S.membership((5, 8))
    (_, det_K), K = S._frame
    assert K == {(4, 4), (5, 4)} and det_K == 4


def test_extras_join_after_the_frame_is_fixed():
    # the frame (3) is fixed when 5 is tested (5 - 3 = 2 is no sum), and
    # later searches step along 5, kept outside it: 13 - 5 = 8 = 3 + 5
    S = AffineSemigroup(1, [(3,), (5,), (13,)])
    assert S.minimal_generators() == ((3,), (5,))
    assert [n for n in range(16) if not S.membership((n,))] == [1, 2, 4, 7]
    # the frame (2, 5), (3, 0) is fixed when (5, 4) is tested, and
    # (16, 8) - (5, 4) = (11, 4) = (5, 4) + 2 (3, 0) needs (5, 4)
    gens = [(2, 5), (3, 0), (5, 4), (8, 4), (16, 8)]
    T = AffineSemigroup(2, gens)
    assert T.minimal_generators() == ((2, 5), (3, 0), (5, 4))
    assert list(T.minimal_generators()) == brute_force_minimal_generators(gens, 2)


def test_a_semigroup_builds_at_most_one_frame(monkeypatch):
    # the first search the cache does not answer fixes the frame, so a
    # sweep whose searches are all cache hits builds none, and membership
    # queries after the sweep build one only if the sweep did not
    built = []
    hits = []

    def counting_frame(points):
        found = _frame(points)
        built.append(found is not None)
        return found

    def spying_irreducible(points, halfspaces, member):
        def spy(x, kept):
            hits.append(x in S._member_cache)
            return member(x, kept)

        return irreducible(points, halfspaces, spy)

    monkeypatch.setattr(semigroups, "_frame", counting_frame)
    monkeypatch.setattr(semigroups, "irreducible", spying_irreducible)
    rng = random.Random(411)
    seen = {"all hits": 0, "searched": 0, "in": 0, "out": 0}
    for dim, count in ((1, 30), (2, 30), (3, 30), (4, 12)):
        for t in range(count):
            level = t % 3 == 0 and dim > 1
            if level:
                # every search a hit, on an unsaturated semigroup: points
                # at height 1 of a functional, e1, e1 + e2, e1 + m e2 past
                # the missing e1 + 2 e2, and e1 + e_i, pairwise
                # incomparable, padded with twice each vertex v of their
                # hull, which only v reduces, under a unimodular map
                m = rng.randint(3, 5)
                points = [(1,) + (0,) * (dim - 1), (1, 1) + (0,) * (dim - 2)]
                vertices = [points[0], (1, m) + (0,) * (dim - 2)]
                vertices += [tuple(int(j in (0, i)) for j in range(dim)) for i in range(2, dim)]
                doubles = [tuple(2 * x for x in v) for v in vertices]
                gens = images(_random_unimodular(rng, dim), points + vertices[1:] + doubles)
            else:
                gens = random_unsaturated_generators(rng, dim)
            built.clear()
            hits.clear()
            S = AffineSemigroup(dim, gens)
            S.minimal_generators()
            assert sum(built) <= 1
            if level:
                assert hits and all(hits) and not S._saturated, gens
            if hits and all(hits):
                assert not any(built), gens
                seen["all hits"] += 1
            elif hits:
                seen["searched"] += 1
            w = tuple(map(sum, zip(*S.cone.halfspaces)))
            cap = max(dot(w, x) for x in S.generators)
            sums = generator_sums(S.generators, w, cap)
            points = set(sums)
            for x in sums:
                for g in S.generators:
                    points.add(tuple(a - b + rng.randint(-1, 1) for a, b in zip(x, g)))
            for x in sorted(points):
                if dot(w, x) <= cap:
                    t = not any(x) or x in sums
                    assert S.membership(x) == t, (gens, x)
                    seen["in" if t else "out"] += 1
            assert sum(built) <= 1
    assert min(seen["all hits"], seen["searched"]) >= 10, seen
    assert min(seen["in"], seen["out"]) >= 200, seen


def test_a_first_query_reads_the_certificate_before_searching():
    # a surface given by its Hilbert basis is certified saturated when its
    # minimal generators are first read, so a first membership query, which
    # reads them, answers from the cone and builds no frame
    H = hilbert_basis(Cone.from_rays(((1, 0), (7, 11)), 2)).elements
    S = AffineSemigroup(2, H)
    assert S._saturated is None
    found = S.membership((3, 2))
    assert S._saturated is True and S._frame is None
    searched = AffineSemigroup(2, H)
    assert found is searched._generated((3, 2), H) is True
    assert searched._frame is not None


def test_a_searching_sweep_frames_by_the_first_independent_minimal_generators(monkeypatch):
    # whatever rank the kept points have at the first search, and whether
    # the sweep or a later query fixes it, the frame K is the first d
    # independent minimal generators in grading order, and membership in
    # its coordinates agrees with the sums of the generators; searched
    # holds the rank of the kept points at each search
    searched = []

    def spying_irreducible(points, halfspaces, member):
        def spy(x, kept):
            if x not in S._member_cache:
                searched.append(int(np.linalg.matrix_rank(np.array(kept))))
            return member(x, kept)

        return irreducible(points, halfspaces, spy)

    monkeypatch.setattr(semigroups, "irreducible", spying_irreducible)
    # the sets are drawn from their own stream, apart from the query points
    rng, jitter = random.Random(412), random.Random(413)
    seen = {"framed": 0, "below rank d": 0, "framed later": 0, "in": 0, "out": 0}
    for dim in (1, 2, 3, 4):
        for _ in range(100):
            gens = random_unsaturated_generators(rng, dim)
            searched.clear()
            S = AffineSemigroup(dim, gens)
            w = tuple(map(sum, zip(*S.cone.halfspaces)))
            graded = sorted(S.minimal_generators(), key=lambda x: (dot(w, x), x))
            K = []
            for x in graded:
                if np.linalg.matrix_rank(np.array(K + [x])) > len(K):
                    K.append(x)
            assert len(K) == dim
            if searched:
                assert S._frame[1] == set(K), gens
                seen["framed"] += 1
                # the kept points of the first search were below rank d
                seen["below rank d"] += searched[0] < dim
            else:
                assert S._frame is None
            cap = max(dot(w, x) for x in S.generators)
            sums = generator_sums(S.generators, w, cap)
            points = set(sums)
            for x in sums:
                for g in S.generators:
                    points.add(tuple(a - b + jitter.randint(-1, 1) for a, b in zip(x, g)))
            for x in sorted(points):
                if dot(w, x) <= cap:
                    t = not any(x) or x in sums
                    assert S.membership(x) == t, (gens, x)
                    seen["in" if t else "out"] += 1
            if not searched and S._frame is not None:
                assert S._frame[1] == set(K), gens
                seen["framed later"] += 1
    assert seen["framed"] >= 100 and seen["below rank d"] >= 10, seen
    assert seen["framed later"] >= 50, seen
    assert min(seen["in"], seen["out"]) >= 200, seen


def test_an_image_carries_one_list_the_mapped_minimal_generators():
    # (4, 0) = 2 (2, 0) and (4, 10) = 2 (1, 5) + (2, 0) are not minimal;
    # the image of S, swept or not, is generated by the images of the
    # minimal ones alone, and is the semigroup of all the images
    gens = [(2, 0), (3, 0), (4, 0), (1, 5), (0, 7), (4, 10)]
    g = ((2, 1), (1, 1))
    swept = AffineSemigroup(2, gens)
    swept.minimal_generators()
    for S in (AffineSemigroup(2, gens), swept):
        T = S.image(g)
        assert T.generators == T.minimal_generators() == images(g, S.minimal_generators())
        assert len(T.generators) == 4
        assert T == AffineSemigroup(2, images(g, S.generators))
        assert not T.is_saturated()


def test_is_smooth():
    assert AffineSemigroup(2, [(1, 0), (0, 1)]).is_smooth()
    assert AffineSemigroup(2, [(1, 3), (2, 7)]).is_smooth()
    assert not AffineSemigroup(1, [(2,), (3,)]).is_smooth()
    assert not AffineSemigroup(2, [(1, 0), (1, 1), (1, 2)]).is_smooth()
    rng = random.Random(409)
    seen = {"smooth": 0, "singular": 0}
    for dim in (1, 2, 3, 4):
        for t in range(30):
            if t % 3 == 0:
                # a lattice basis padded with sums of its members
                gens = _padded(rng, _random_unimodular(rng, dim))
            else:
                gens = random_unsaturated_generators(rng, dim)
            S = AffineSemigroup(dim, gens)
            mins = S.minimal_generators()
            smooth = len(mins) == dim and abs(permutation_det(mins)) == 1
            assert S.is_smooth() == smooth
            seen["smooth" if smooth else "singular"] += 1
    assert min(seen.values()) >= 30, seen


def test_from_cone_is_saturated_and_full():
    rng = random.Random(403)
    for _ in range(60):
        S = random_saturated_surface(rng, bound=12)
        assert S.is_saturated()
        assert group_is_full_lattice(S.minimal_generators(), 2)


def test_equality_and_hash(cusp):
    same = AffineSemigroup(1, [(3,), (2,), (2,)])
    assert same == cusp
    assert hash(same) == hash(cusp)
    assert AffineSemigroup(1, [(1,)]) != cusp
    # a redundant generator does not change the semigroup
    redundant = AffineSemigroup(1, [(2,), (3,), (5,)])
    assert redundant.generators != cusp.generators
    assert redundant == cusp
    assert hash(redundant) == hash(cusp)
    # the walk generates the unnormalized chart at 2 from the basis and the
    # direction 3 - 2, the enumeration from 2, 3 and E - v = {0, 1}: both are N
    (walk,) = nash_blowup(cusp, 0, normalize=False)
    N = newton_polyhedron(log_jacobian_ideal(cusp, 0))
    (enumerated,) = blowup_charts(N, normalize=False)
    assert walk.semigroup.generators == ((1,), (2,))
    assert enumerated.semigroup.generators == ((1,), (2,), (3,))
    assert walk == enumerated
    assert hash(walk) == hash(enumerated)


def test_surface_profile():
    S = AffineSemigroup.from_cone(Cone.from_rays(((1, 0), (1, 2)), 2))
    profile = surface_profile(S)
    assert profile.ordered_generators == ((1, 0), (1, 1), (1, 2))
    assert profile.consecutive_determinants() == (1, 1)


def test_surface_profile_orders_counterclockwise():
    rng = random.Random(404)
    for _ in range(60):
        S = random_saturated_surface(rng)
        ordered = surface_profile(S).ordered_generators
        assert sorted(ordered) == list(S.minimal_generators())
        dets = surface_profile(S).consecutive_determinants()
        assert all(d > 0 for d in dets)


def test_surface_profile_dimension_check(threefold):
    with pytest.raises(DimensionError):
        surface_profile(threefold)


def test_boundary_generators_crosscheck():
    rng = random.Random(405)
    for _ in range(40):
        S = random_saturated_surface(rng, bound=15)
        assert boundary_generators_crosscheck(S) == S.minimal_generators()
    # roots as the surfaces benchmark draws them: dual cone rays in [1, 50]^2
    for _ in range(60):
        while True:
            a = (rng.randint(1, 50), rng.randint(1, 50))
            b = (rng.randint(1, 50), rng.randint(1, 50))
            if a[0] * b[1] - a[1] * b[0]:
                break
        S = AffineSemigroup.from_cone(Cone.from_rays((a, b), 2))
        assert boundary_generators_crosscheck(S) == S.minimal_generators()


def test_boundary_generators_crosscheck_requires_saturated(cusp):
    S = AffineSemigroup(2, [(1, 0), (1, 1), (1, 3)])
    with pytest.raises(ValueError):
        boundary_generators_crosscheck(S)
    with pytest.raises(DimensionError):
        boundary_generators_crosscheck(cusp)
