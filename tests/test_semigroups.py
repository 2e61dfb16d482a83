import random
from itertools import combinations_with_replacement

import pytest

from nashtoric import semigroups
from nashtoric.blowup import (
    blowup_charts,
    log_jacobian_ideal,
    nash_blowup,
    newton_polyhedron,
)
from nashtoric.cones import Cone, irreducible
from nashtoric.errors import (
    DimensionError,
    NotFullLatticeError,
    NotPointedError,
)
from nashtoric.linalg import dot, group_is_full_lattice
from nashtoric.semigroups import AffineSemigroup, _frame, _generated_member

from oracles import (
    boundary_generators_crosscheck,
    brute_force_minimal_generators,
    generator_sums,
    permutation_det,
    random_unsaturated_generators,
    surface_profile,
)


def random_saturated_surface(rng, bound=20):
    while True:
        a = (rng.randint(-bound, bound), rng.randint(-bound, bound))
        b = (rng.randint(-bound, bound), rng.randint(-bound, bound))
        if a[0] * b[1] - a[1] * b[0] == 0:
            continue
        return AffineSemigroup.from_cone(Cone.from_rays((a, b), 2))


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


def test_in_cone_checks_what_construction_checks():
    # in_cone takes the generators' cone from its caller and checks the
    # rest as __init__ does, with the same semigroup or the same error
    cases = [
        (2, [(1, 0), (-1, 0), (0, 1)], NotPointedError),
        (2, [(2, 0), (0, 1)], NotFullLatticeError),
        (1, [(2,), (4,)], NotFullLatticeError),
        (2, [(0, 0)], NotFullLatticeError),
        (2, [(0, 0), (2, 0), (3, 0), (0, 1), (1, 1), (2, 0)], None),
        (3, [(2, 0, 0), (3, 0, 0), (0, 1, 0), (0, 0, 2), (1, 1, 1)], None),
    ]
    for dim, gens, error in cases:
        cone = Cone.from_rays(gens, dim)
        if error is not None:
            with pytest.raises(error):
                AffineSemigroup.in_cone(cone, gens)
            continue
        S = AffineSemigroup(dim, gens)
        T = AffineSemigroup.in_cone(cone, iter(gens))
        assert T.generators == S.generators and T.cone == S.cone
        assert T.minimal_generators() == S.minimal_generators()
    with pytest.raises(DimensionError):
        AffineSemigroup.in_cone(Cone.from_rays([(1, 0), (0, 1)]), [(1, 0, 0)])


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
        (adj, d), extras = _frame(gens)
        assert (d, extras) == (det_K, [gens[2]])
        assert all(x[1] <= 3 * x[0] for x in outside)  # all in the cone
        S = AffineSemigroup(2, gens)
        assert S.minimal_generators() == gens
        assert not any(S.membership(x) for x in outside)
        for n in range(1, 6):
            level = {sum(c) for c in combinations_with_replacement([g[1] for g in gens], n)}
            for y in range(-1, 3 * n + 2):
                assert S.membership((n, y)) == (y in level), (gens, n, y)


def test_sweep_below_rank_d_has_no_frame():
    # grading x + y: (3, 0) and (4, 0) are tested while the kept points lie
    # on one ray, by frame-less searches; the first two kept points stay
    # dependent, so the frame is the first independent pair (2, 0), (1, 5)
    gens = [(2, 0), (3, 0), (4, 0), (1, 5), (0, 7), (4, 10)]
    assert _frame([(2, 0)]) is None and _frame([(2, 0), (3, 0)]) is None
    (adj, d), extras = _frame([(2, 0), (3, 0), (1, 5), (0, 7)])
    assert (d, extras) == (10, [(3, 0), (0, 7)])
    S = AffineSemigroup(2, gens)
    assert S.minimal_generators() == ((0, 7), (1, 5), (2, 0), (3, 0))
    assert list(S.minimal_generators()) == brute_force_minimal_generators(gens, 2)
    sums = generator_sums(S.minimal_generators(), (1, 1), 20)
    for x in range(21):
        for y in range(21 - x):
            assert S.membership((x, y)) == ((x, y) in sums or x == y == 0)


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
            if t % 3 == 0:
                # a lattice basis padded with sums: many searches are hits
                basis = _random_unimodular(rng, dim)
                gens = list(basis) + [
                    tuple(map(sum, zip(*rng.sample(basis, rng.randint(1, dim)))))
                    for _ in range(3)
                ]
            else:
                gens = random_unsaturated_generators(rng, dim)
            built.clear()
            hits.clear()
            S = AffineSemigroup(dim, gens)
            S.minimal_generators()
            assert sum(built) <= 1
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


def test_framed_search_answers_as_the_frameless_one():
    # fresh caches, the generators in grading order on both sides; a point
    # outside S makes either search visit every point it can reach, and
    # the framed one reaches fewer (it steps along fewer generators and
    # stops in N·K). A point in S can cost the framed search more: in
    # <6, 7, 8, 11>, 17 caches 7 points framed against 6 frame-less.
    rng = random.Random(410)
    seen = {"in": 0, "out": 0, "fewer": 0}
    for dim in (1, 2, 3, 4):
        for _ in range(40):
            S = AffineSemigroup(dim, random_unsaturated_generators(rng, dim))
            w = tuple(map(sum, zip(*S.cone.halfspaces)))
            graded = sorted(S.minimal_generators(), key=lambda x: (dot(w, x), x))
            frame, extras = _frame(graded)
            cap = 2 * max(dot(w, x) for x in graded)
            for x in generator_sums(graded, w, cap // 2):
                for g in graded:
                    y = tuple(a - b + rng.randint(-1, 1) for a, b in zip(x, g))
                    if not S.cone.contains(y):
                        continue
                    plain, framed = {(0,) * dim: True}, {(0,) * dim: True}
                    t = _generated_member(y, graded, S.cone, plain)
                    assert _generated_member(y, extras, S.cone, framed, frame) == t
                    if not t:
                        assert framed.keys() <= plain.keys()
                        seen["fewer"] += len(framed) < len(plain)
                    seen["in" if t else "out"] += 1
    assert min(seen.values()) >= 200, seen


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
                basis = _random_unimodular(rng, dim)
                gens = list(basis) + [
                    tuple(map(sum, zip(*rng.sample(basis, rng.randint(1, dim)))))
                    for _ in range(3)
                ]
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
