import operator
import random
import sys
from itertools import combinations
from math import gcd

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from nashtoric import blowup
from nashtoric.blowup import (
    blowup_charts,
    is_trivial_step,
    log_jacobian_ideal,
    nash_blowup,
    newton_polyhedron,
    stalls,
)
from nashtoric.cones import Cone, polyhedron_vertices
from nashtoric.errors import (
    CharacteristicError,
    NotFullDimensionalError,
    NotPointedError,
    ToricError,
)
from nashtoric.linalg import (
    columns_matrix,
    cross2,
    det,
    dot,
    group_is_full_lattice,
    images,
    primitive,
    vsub,
)
from nashtoric.resolve import resolve
from nashtoric.semigroups import AffineSemigroup, LatticePairing

from oracles import (
    log_jacobian_by_kernel,
    log_jacobian_reference,
    random_saturated_surface,
    random_unsaturated_generators,
    small_numerical_semigroups,
    surface_blowup,
    surface_profile,
)

# charts of the threefold in characteristic 2, keyed by Newton vertex
CHART_GENS = {
    (2, 2, 1): {(1, 0, 0), (0, 1, 0), (1, 1, 1), (1, 0, 2), (0, 1, 2)},
    (3, 2, 3): {(1, 0, 0), (1, 1, 1), (1, 1, 2), (-1, 0, -2), (-1, 1, 0)},
    (2, 3, 3): {(0, 1, 0), (1, 1, 1), (1, 1, 2), (0, -1, -2), (1, -1, 0)},
}
SATURATED_GENS = {
    (2, 2, 1): {(1, 0, 0), (0, 1, 0), (1, 0, 2), (0, 1, 2), (1, 0, 1), (0, 1, 1)},
    (3, 2, 3): {(1, 0, 0), (-1, 1, 0), (0, 0, -1), (-1, 0, -2), (1, 1, 2), (0, 1, 1)},
    (2, 3, 3): {(1, -1, 0), (0, 1, 0), (0, 0, -1), (0, -1, -2), (1, 1, 2), (1, 0, 1)},
}


def test_numerical_semigroup_ideal(cusp):
    assert log_jacobian_ideal(cusp, 0).exponents == ((2,), (3,))
    assert log_jacobian_ideal(cusp, 2).exponents == ((3,),)
    assert log_jacobian_ideal(cusp, 3).exponents == ((2,),)
    assert log_jacobian_ideal(cusp, 5).exponents == ((2,), (3,))
    assert log_jacobian_reference(cusp, 2)[1] == ((3,),)
    assert log_jacobian_reference(cusp, 0)[1] == ((2,), (3,))


def test_threefold_ideal(threefold):
    I0 = log_jacobian_ideal(threefold, 0)
    I2 = log_jacobian_ideal(threefold, 2)
    assert I0.exponents == ((2, 2, 1), (2, 2, 2), (2, 3, 3), (3, 2, 3))
    assert I2.exponents == ((2, 2, 1), (2, 3, 3), (3, 2, 3))
    # every 3-subset determinant is odd except the one giving (2,2,2)
    assert log_jacobian_reference(threefold, 0)[1] == I0.exponents
    assert log_jacobian_reference(threefold, 2)[1] == I2.exponents
    assert I0.characteristic == 0 and I2.characteristic == 2


def test_ideal_minimalization_drops_reachable_exponents():
    # (4,-13) = (2,-7) + 2*(1,-3) is reachable, so it leaves the minimal set
    S = AffineSemigroup.from_cone(Cone.from_rays(((1, -5), (3, -8)), 2))
    assert S.minimal_generators() == ((1, -5), (1, -4), (1, -3), (3, -8))
    assert log_jacobian_reference(S, 0)[1] == (
        (2, -9), (2, -8), (2, -7), (4, -13), (4, -12), (4, -11),
    )
    assert log_jacobian_ideal(S, 0).exponents == ((2, -9), (2, -8), (2, -7), (4, -12), (4, -11))
    assert log_jacobian_reference(S, 2)[1] == ((2, -9), (2, -7), (4, -13), (4, -11))
    assert log_jacobian_ideal(S, 2).exponents == ((2, -9), (2, -7), (4, -11))


def test_ideal_minimalization_contract():
    rng = random.Random(505)
    cases = [(random_saturated_surface(rng, bound=9), (0, 2)) for _ in range(30)]
    # unsaturated semigroups, where membership is narrower than the cone
    cases += [
        (AffineSemigroup(dim, random_unsaturated_generators(rng, dim)), (2, 3))
        for dim in (1, 2, 3, 4)
        for _ in range(15)
    ]
    p_divides = {2: 0, 3: 0}
    only_cone = 0
    for S, chars in cases:
        for p in chars:
            kept = set(log_jacobian_ideal(S, p).exponents)
            raw = log_jacobian_reference(S, p)[1]
            assert kept <= set(raw)
            for e in raw:
                steps = [vsub(e, k) for k in kept if k != e]
                reachable = any(S.membership(g) for g in steps)
                assert reachable == (e not in kept)
                only_cone += not reachable and any(S.cone.contains(g) for g in steps)
            if p:
                dets = [
                    det(columns_matrix(sub))
                    for sub in combinations(S.minimal_generators(), S.dim)
                ]
                p_divides[p] += any(d and d % p == 0 for d in dets)
    # p kills some nonzero determinants, and some exponent is another one
    # plus a cone point outside the semigroup
    assert min(p_divides.values()) >= 20 and only_cone >= 20, (p_divides, only_cone)


@settings(max_examples=80, deadline=None, derandomize=True, database=None)
@given(st.integers(1, 4), st.sampled_from((0, 2, 3, 5)), st.integers(0, 2**32))
def test_ideal_matches_one_determinant_per_subset(dim, p, seed):
    S = AffineSemigroup(dim, random_unsaturated_generators(random.Random(seed), dim))
    assert log_jacobian_ideal(S, p).exponents == log_jacobian_reference(S, p)[0]


def test_ideal_matches_the_dual_matroid():
    # admissible d-subsets read off the (n - d)-minors of the relations
    rng = random.Random(20)
    p_dependent = 0
    for case in range(120):
        dim = case % 4 + 1
        S = AffineSemigroup(dim, random_unsaturated_generators(rng, dim))
        raws = {p: log_jacobian_reference(S, p)[1] for p in (0, 2, 3, 5)}
        for p, raw in raws.items():
            assert raw == log_jacobian_by_kernel(S, p), (S, p)
        p_dependent += sum(raws[p] != raws[0] for p in (2, 3, 5))
    assert p_dependent >= 100, p_dependent


def test_ideal_rejects_composite_characteristic(cusp):
    for bad in (4, 6, 1, -2):
        with pytest.raises(CharacteristicError):
            log_jacobian_ideal(cusp, bad)
        with pytest.raises(CharacteristicError):
            nash_blowup(cusp, bad)


def test_newton_polyhedron_fixed(cusp, threefold):
    N2 = newton_polyhedron(log_jacobian_ideal(cusp, 2))
    assert N2.vertices == ((3,),)
    N0 = newton_polyhedron(log_jacobian_ideal(cusp, 0))
    assert N0.vertices == ((2,),)

    T0 = newton_polyhedron(log_jacobian_ideal(threefold, 0))
    T2 = newton_polyhedron(log_jacobian_ideal(threefold, 2))
    assert T0.vertices == ((2, 2, 1), (2, 2, 2), (2, 3, 3), (3, 2, 3))
    assert T2.vertices == ((2, 2, 1), (2, 3, 3), (3, 2, 3))
    assert (2, 2, 2) in T0.vertices and (2, 2, 2) not in T2.vertices


def test_vertices_lie_in_exponents():
    rng = random.Random(501)
    for _ in range(40):
        S = random_saturated_surface(rng)
        for p in (0, 3):
            N = newton_polyhedron(log_jacobian_ideal(S, p))
            assert set(N.vertices) <= set(N.exponents)
            assert N.vertices


def test_vertices_same_from_raw_exponents():
    rng = random.Random(502)
    for _ in range(40):
        S = random_saturated_surface(rng)
        N = newton_polyhedron(log_jacobian_ideal(S, 2))
        assert polyhedron_vertices(log_jacobian_reference(S, 2)[1], S.cone) == N.vertices


def test_vertex_sets_characteristic_independent_for_surfaces():
    rng = random.Random(503)
    for _ in range(30):
        S = random_saturated_surface(rng)
        v0 = newton_polyhedron(log_jacobian_ideal(S, 0)).vertices
        for p in (2, 3, 5):
            assert newton_polyhedron(log_jacobian_ideal(S, p)).vertices == v0


def test_threefold_charts(threefold):
    N = newton_polyhedron(log_jacobian_ideal(threefold, 2))
    charts = blowup_charts(N, normalize=False)
    assert tuple(c.vertex for c in charts) == N.vertices
    assert {c.vertex: set(c.semigroup.minimal_generators()) for c in charts} == CHART_GENS
    assert all(not c.normalized for c in charts)
    assert not is_trivial_step(N, charts)

    saturated = blowup_charts(N, normalize=True)
    assert {
        c.vertex: set(c.semigroup.minimal_generators()) for c in saturated
    } == SATURATED_GENS
    assert all(c.normalized for c in saturated)
    for c in saturated:
        assert c.semigroup.is_saturated()


def random_generator_semigroup(rng, dim):
    """Pointed semigroup with full group, often not saturated."""
    while True:
        gens = [
            tuple(rng.randint(0, 3) for _ in range(dim))
            for _ in range(rng.randint(dim, dim + 2))
        ]
        if rng.random() < 0.5:
            gens.extend(tuple(3 * (i == j) for j in range(dim)) for i in range(dim))
        try:
            return AffineSemigroup(dim, gens)
        except ToricError:
            continue


def test_normalized_charts_match_saturated_generator_charts():
    # the former construction: the checked generator semigroup, saturated;
    # unnormalized charts against that semigroup itself
    rng = random.Random(505)
    unsaturated = 0
    for i in range(60):
        dim = 4 if i % 10 == 0 else rng.randint(1, 3)
        S = random_generator_semigroup(rng, dim)
        if i % 3 == 0:
            S = S.saturate()
        unsaturated += not S.is_saturated()
        for p in (0, 2, 3):
            N = newton_polyhedron(log_jacobian_ideal(S, p))
            charts = blowup_charts(N, normalize=True)
            unnormalized = blowup_charts(N, normalize=False)
            assert tuple(c.vertex for c in charts) == N.vertices
            assert tuple(c.vertex for c in unnormalized) == N.vertices
            for chart, raw in zip(charts, unnormalized):
                shifts = [vsub(e, chart.vertex) for e in N.exponents]
                generated = AffineSemigroup(dim, list(S.minimal_generators()) + shifts)
                oracle = generated.saturate()
                assert chart.semigroup == oracle
                assert chart.semigroup.cone == oracle.cone
                assert chart.semigroup.minimal_generators() == oracle.minimal_generators()
                assert raw.semigroup.cone == generated.cone
                assert raw.semigroup.minimal_generators() == generated.minimal_generators()
    assert unsaturated > 10


def test_normalized_blowup_matches_enumeration(cusp, threefold):
    # the walk on the base polytope against E, its Newton polyhedron and
    # the charts built from E - v, for both chart kinds; unnormalized walk
    # charts list exchange directions where the oracle lists E - v, and
    # charts compare their semigroups, not their generator lists
    rng = random.Random(506)
    cases = [cusp, threefold]
    for i in range(60):
        dim = 1 + i % 4
        cases.append(AffineSemigroup(dim, random_unsaturated_generators(rng, dim)))
    for _ in range(12):
        cases.append(random_saturated_surface(rng))
        rays = [tuple(rng.randint(0, 4) for _ in range(3)) for _ in range(rng.randint(3, 4))]
        try:
            cases.append(AffineSemigroup.from_cone(Cone.from_rays(rays, 3)))
        except (NotPointedError, NotFullDimensionalError):
            pass
    multi = depends_on_p = 0
    for S in cases:
        vertex_sets = set()
        for p in (0, 2, 3, 5):
            N = newton_polyhedron(log_jacobian_ideal(S, p))
            for normalize in (True, False):
                expected = blowup_charts(N, normalize)
                charts = nash_blowup(S, p, normalize)
                assert charts == expected
                assert all(c.normalized == normalize for c in charts)
            multi += len(charts) > 1
            vertex_sets.add(tuple(c.vertex for c in charts))
        depends_on_p += len(vertex_sets) > 1
    assert multi >= 20 and depends_on_p >= 20, (multi, depends_on_p)


# u of the `fourfold-step` benchmark roots, cone_rays e1, e2, e3, u: one
# root per lattice class of u = (a, b, c, n), n <= 5, 6-10 generators
FOURFOLD_ROOTS = (
    (0, 1, 1, 2), (1, 1, 1, 2), (0, 0, 2, 3), (0, 1, 1, 3), (0, 1, 2, 3), (0, 0, 3, 4),
    (0, 1, 1, 4), (0, 1, 2, 4), (0, 1, 3, 4), (0, 2, 2, 4), (0, 2, 3, 4), (1, 2, 2, 4),
    (2, 2, 2, 4), (0, 0, 2, 5), (0, 0, 3, 5), (0, 0, 4, 5), (0, 1, 1, 5), (0, 1, 2, 5),
    (0, 1, 3, 5), (0, 1, 4, 5), (0, 2, 3, 5),
)


def test_normalized_blowup_matches_enumeration_on_fourfold_roots():
    # the walk's charts come from exchange directions, the enumeration's
    # from the Newton facets through each vertex, and both match the cone
    # of σ^∨ and E - v
    e = ((1, 0, 0, 0), (0, 1, 0, 0), (0, 0, 1, 0))
    for u in FOURFOLD_ROOTS:
        S = AffineSemigroup.from_cone(Cone.from_rays(e + (u,), 4).dual())
        assert 6 <= len(S.minimal_generators()) <= 10
        for p in (0, 2):
            N = newton_polyhedron(log_jacobian_ideal(S, p))
            charts = blowup_charts(N, normalize=True)
            assert charts == nash_blowup(S, p, normalize=True)
            for chart in charts:
                shifts = tuple(vsub(x, chart.vertex) for x in N.exponents)
                assert chart.semigroup.cone == Cone.from_rays(S.cone.rays + shifts, 4)


def test_blowup_matches_enumeration_on_the_33_generator_root():
    # cone_rays e1, e2, e3, (3,5,7,11), the root of the console digests:
    # the walk against C(33, 4) subsets, both chart kinds, and the stall
    # read off residues mod p against the enumerated unnormalized charts
    e = ((1, 0, 0, 0), (0, 1, 0, 0), (0, 0, 1, 0))
    S = AffineSemigroup.from_cone(Cone.from_rays(e + ((3, 5, 7, 11),), 4).dual())
    assert len(S.minimal_generators()) == 33
    for p in (0, 2):
        N = newton_polyhedron(log_jacobian_ideal(S, p))
        for normalize in (True, False):
            expected = blowup_charts(N, normalize)
            charts = nash_blowup(S, p, normalize)
            assert len(charts) == 35
            assert [
                (c.vertex, c.semigroup.minimal_generators()) for c in charts
            ] == [(c.vertex, c.semigroup.minimal_generators()) for c in expected]
            if not normalize:
                assert stalls(S, p) == is_trivial_step(N, expected)


def test_saturated_ideal_needs_no_member_test(monkeypatch):
    # the root is known to be saturated, so its sweep asks no membership;
    # the same semigroup from its generators is not known to be, and its
    # sweep asks `membership` about every dominated pair, with the same
    # exponents
    e = ((1, 0, 0, 0), (0, 1, 0, 0), (0, 0, 1, 0))
    S = AffineSemigroup.from_cone(Cone.from_rays(e + ((3, 5, 7, 11),), 4).dual())
    queries = []
    membership = AffineSemigroup.membership

    def counted(T, x):
        queries.append(T)
        return membership(T, x)

    monkeypatch.setattr(AffineSemigroup, "membership", counted)
    for p, count in ((0, 313), (2, 303)):
        exponents = log_jacobian_ideal(S, p).exponents
        assert len(exponents) == count and not queries
        T = AffineSemigroup(4, S.minimal_generators())
        assert log_jacobian_ideal(T, p).exponents == exponents
        assert queries and set(map(id, queries)) == {id(T)}
        queries.clear()


# a class four levels below the dual (6,3,7,11) root whose normalized Nash
# blowup has a chart equivalent to itself in characteristic 0, so iterated
# blowups of that root never resolve it
SELF_LOOP_WITNESS = (
    (-14, 0, -9, -18), (-5, -7, -14, -18), (-4, 1, -4, -5), (2, -1, -6, -2),
    (4, 3, 7, 10), (7, -2, 4, 7), (14, 4, 12, 23),
)


def test_characteristic_zero_self_loop_witness():
    W = AffineSemigroup(4, SELF_LOOP_WITNESS)
    # paired through its cone, as a lattice-point semigroup: W's p = 0
    # chart in its own class is one, so W is one too
    key = LatticePairing(AffineSemigroup.from_cone(W.cone))
    for p, count in ((0, 11), (2, 11), (3, 10), (5, 11), (7, 11)):
        charts = nash_blowup(W, p)
        assert charts == blowup_charts(newton_polyhedron(log_jacobian_ideal(W, p)))
        assert len(charts) == count
        loops = [
            c.vertex for c in charts if key.map_to(LatticePairing(c.semigroup)) is not None
        ]
        assert loops == ([] if p in (2, 3) else [(8, -7, -9, -3)]), p


def test_surface_blowup_closed_form():
    # the surfaces draw: rays with entries in [1, 50], as
    # `surface_termination_suite` draws them; every distinct non-smooth
    # node of each root's tree, in each characteristic the suite runs
    rng = random.Random(213)
    roots = nodes = 0
    while roots < 100:
        a = (rng.randint(1, 50), rng.randint(1, 50))
        b = (rng.randint(1, 50), rng.randint(1, 50))
        if a[0] * b[1] - a[1] * b[0] == 0:
            continue
        roots += 1
        S = AffineSemigroup.from_cone(Cone.from_rays((a, b), 2))
        for p in (0, 2, 3, 5):
            N = newton_polyhedron(log_jacobian_ideal(S, p))
            assert sorted((c.vertex, c.semigroup.minimal_generators()) for c in blowup_charts(N)) == (
                surface_blowup(S)
            )
        # every p against the proof: the closed form `nash_blowup` takes on
        # a normal surface, the walk and the oracle's cross-product order;
        # unnormalized, the closed form against the walk
        seen = set()
        for node in resolve(S, 0).nodes():
            T = node.semigroup
            if T.is_smooth() or T.minimal_generators() in seen:
                continue
            seen.add(T.minimal_generators())
            want = surface_blowup(T)
            for p in (0, 2, 3, 5):
                assert _vertex_gens(nash_blowup(T, p)) == want
                assert _vertex_gens(blowup._walk(T, p, True)) == want
                assert _vertex_cone_gens(nash_blowup(T, p, False)) == (
                    _vertex_cone_gens(blowup._walk(T, p, False))
                )
        nodes += len(seen)
    assert nodes >= 500


def test_surface_vertex_rule():
    # README, "Surfaces in closed form": along the Hilbert basis a_0, ...,
    # a_m with a_{i-1} + a_{i+1} = b_i a_i, an interior sum s_i (0 < i <
    # m - 1) is a Newton vertex exactly when b_i b_{i+1} != 4, since its two
    # steps have cross product det(a_{i-1}, a_i)(4 - b_i b_{i+1}). The chart
    # map on the string: the tangent cone at a vertex s_i is spanned by
    # s_{i-1} - s_i = b_i a_i - 2 a_{i+1} and s_{i+1} - s_i = b_{i+1} a_{i+1}
    # - 2 a_i, by a_0 at i = 0 and by a_m at i = m - 1, so its index is
    # (b_i b_{i+1} - 4) / (gcd(b_i, 2) gcd(b_{i+1}, 2)) inside and
    # b_1 / gcd(b_1, 2), b_{m-1} / gcd(b_{m-1}, 2) at the ends. Every normal
    # surface class of index n <= 40, the lattice points on (1, 0) and
    # (q, n), against the vertices and charts of the enumeration path
    roots = charts = 0
    interior = {"vertex": 0, "on an edge": 0}
    for n in range(2, 41):
        for q in range(n):
            if gcd(q, n) != 1:
                continue
            roots += 1
            S = AffineSemigroup.from_cone(Cone.from_rays(((1, 0), (q, n)), 2))
            N = newton_polyhedron(log_jacobian_ideal(S, 0))
            vertices = N.vertices
            cones = {c.vertex: c.semigroup.cone for c in blowup_charts(N)}
            a = surface_profile(S).ordered_generators
            m = len(a) - 1
            b = [None]
            for before, at, after in zip(a, a[1:], a[2:]):
                w = (before[0] + after[0], before[1] + after[1])
                b_i = w[0] // at[0] if at[0] else w[1] // at[1]
                assert w == (b_i * at[0], b_i * at[1]) and b_i >= 2
                b.append(b_i)
            s = [(u[0] + v[0], u[1] + v[1]) for u, v in zip(a, a[1:])]
            assert s[0] in vertices and s[-1] in vertices
            for i in range(1, len(s) - 1):
                steps = vsub(s[i], s[i - 1]), vsub(s[i + 1], s[i])
                turn = 4 - b[i] * b[i + 1]
                assert cross2(*steps) == cross2(a[i - 1], a[i]) * turn
                assert (s[i] in vertices) == (turn != 0), (n, q, i)
                interior["vertex" if turn else "on an edge"] += 1
            assert set(vertices) <= set(s)
            for i, v in enumerate(s):
                if v not in vertices:
                    continue
                x, y = a[i], a[i + 1]
                back = a[0] if i == 0 else vsub(s[i - 1], v)
                ahead = a[m] if i == m - 1 else vsub(s[i + 1], v)
                if i > 0:
                    assert back == (b[i] * x[0] - 2 * y[0], b[i] * x[1] - 2 * y[1])
                if i < m - 1:
                    assert ahead == (b[i + 1] * y[0] - 2 * x[0], b[i + 1] * y[1] - 2 * x[1])
                rays = cones[v].rays
                assert set(rays) == {primitive(back), primitive(ahead)}, (n, q, i)
                if 0 < i < m - 1:
                    index = (b[i] * b[i + 1] - 4) // (gcd(b[i], 2) * gcd(b[i + 1], 2))
                else:
                    end = b[1] if i == 0 else b[m - 1]
                    index = end // gcd(end, 2)
                assert abs(cross2(*rays)) == index, (n, q, i)
                charts += 1
    assert roots == 489
    # 2443 interior sums, 682 of them vertices
    assert min(interior.values()) >= 600, interior
    # every root has m >= 2, so s_0 and s_{m-1} are two vertices
    assert charts == interior["vertex"] + 2 * roots, charts


def test_unnormalized_surface_closed_form_is_the_walk():
    # the `unnormalized` draw: rays with entries in [1, 20], resolved
    # without normalization to depth 6; every distinct non-smooth node of
    # each root's p = 0 tree, in p = 0, 2, 3 and 5. The saturated ones take
    # the closed form, the others walk
    rng = random.Random(444)
    roots = 0
    seen = set()
    saturated = 0
    while roots < 100:
        a = (rng.randint(1, 20), rng.randint(1, 20))
        b = (rng.randint(1, 20), rng.randint(1, 20))
        if a[0] * b[1] - a[1] * b[0] == 0:
            continue
        roots += 1
        S = AffineSemigroup.from_cone(Cone.from_rays((a, b), 2))
        for node in resolve(S, 0, normalize=False, max_depth=6).nodes():
            T = node.semigroup
            if T.is_smooth() or T.minimal_generators() in seen:
                continue
            seen.add(T.minimal_generators())
            saturated += T.is_saturated()
            for p in (0, 2, 3, 5):
                assert _vertex_cone_gens(nash_blowup(T, p, False)) == (
                    _vertex_cone_gens(blowup._walk(T, p, False))
                )
    assert saturated >= 200 and len(seen) - saturated >= 500, (saturated, len(seen))


def _vertex_gens(charts):
    return [(c.vertex, c.semigroup.minimal_generators()) for c in charts]


def _vertex_cone_gens(charts):
    return [(c.vertex, c.semigroup.cone, c.semigroup.minimal_generators()) for c in charts]


def test_normal_surfaces_take_the_closed_form(monkeypatch, threefold):
    # the selection reads the dimension and the saturation flag, which the
    # certificate sets on a surface given by generators when its minimal
    # generators are first read: every normal surface takes the closed
    # form, for both chart kinds, and every other semigroup walks
    closed = []
    walked = []
    surface_charts = blowup._surface_charts
    walk = blowup._walk

    def counted_closed(S, p, normalize):
        closed.append(S)
        return surface_charts(S, p, normalize)

    def counted_walk(S, p, normalize):
        walked.append(S)
        return walk(S, p, normalize)

    monkeypatch.setattr(blowup, "_surface_charts", counted_closed)
    monkeypatch.setattr(blowup, "_walk", counted_walk)
    S = AffineSemigroup.from_cone(Cone.from_rays(((1, 0), (7, 11)), 2))
    unsaturated = [(1, 0), (1, 1), (2, 5), (3, 7)]
    for p in (0, 2):
        for normalize in (True, False):
            shapes = set()
            # the lattice points, then the same semigroup given by its
            # Hilbert basis, not known to be saturated until it is read
            for R in (S, AffineSemigroup(2, S.minimal_generators())):
                closed.clear()
                walked.clear()
                shapes.add(resolve(R, p, normalize).shape())
                assert closed[0] is R and R._saturated is True
                assert all(T._saturated is True for T in closed)
                assert all(T._saturated is False for T in walked)
                # normalized charts are lattice points; unnormalized ones
                # below this root are not all saturated
                assert bool(walked) != normalize, (p, normalize)
            assert len(shapes) == 1
        closed.clear()
        walked.clear()
        resolve(AffineSemigroup(2, unsaturated), p)
        assert [T.generators for T in walked] == [tuple(unsaturated)] and closed
        closed.clear()
        resolve(threefold, p)
        assert walked[1:] and not closed


def _charts_in(charts, S):
    """The sorted vertices of the charts g·S in the class of S, each map g
    checked: unimodular, and onto the chart's minimal generators."""
    key = LatticePairing(S)
    found = []
    for c in charts:
        g = key.map_to(LatticePairing(c.semigroup))
        if g is not None:
            assert det(g) in (1, -1)
            assert images(g, S.minimal_generators()) == c.semigroup.minimal_generators()
            found.append(c.vertex)
    return sorted(found)


# a class of the normalized p = 2 graph of the cone-form (3,5,7,11) root
# whose blowup has two charts equivalent to itself in p = 2 and none in
# p = 0, so iterated blowups of that root never resolve it in p = 2
P2_SELF_LOOP_WITNESS = (
    (-10, 0, 0, 3), (-5, 1, 0, 1), (0, 2, 0, -1), (1, -3, -1, 2),
    (1, 0, 1, -1), (6, -2, -1, 0), (10, -1, -2, -1),
)


def test_characteristic_two_self_loop_witness():
    W = AffineSemigroup(4, P2_SELF_LOOP_WITNESS)
    assert W.minimal_generators() == P2_SELF_LOOP_WITNESS and W.is_saturated()
    for p in (0, 2):
        charts = nash_blowup(W, p)
        assert charts == blowup_charts(newton_polyhedron(log_jacobian_ideal(W, p)))
        assert len(charts) == 8
        assert _charts_in(charts, W) == ([(-13, -2, 0, 5), (-4, -3, -3, 5)] if p == 2 else []), p


# two classes of the normalized p = 3 graph of the dual-form (4,1,2,7)
# root, at depths 2 and 3, each with two charts in the other: a 2-cycle,
# so iterated blowups of that root never resolve it in p = 3
P3_CYCLE_7 = (
    (-2, -1, 0, -3), (-2, 0, -1, -5), (-1, 0, 0, -1), (-1, 1, 0, 0),
    (1, 1, 0, 1), (2, 2, 0, 3), (3, 0, 1, 5),
)
P3_CYCLE_9 = (
    (-2, -1, 0, -3), (-2, 0, -1, -5), (-1, 0, 0, -1), (0, 1, 0, 1),
    (1, 2, 0, 3), (2, 1, 0, 2), (3, 0, 1, 5), (3, 2, 0, 4), (4, 3, 0, 6),
)


def test_characteristic_three_two_cycle_witness():
    A, B = AffineSemigroup(4, P3_CYCLE_7), AffineSemigroup(4, P3_CYCLE_9)
    assert A.minimal_generators() == P3_CYCLE_7 and A.is_saturated()
    assert B.minimal_generators() == P3_CYCLE_9 and B.is_saturated()
    for S, other, count, edges in (
        (A, B, 6, [(-2, -1, 0, -4), (-1, 1, 0, -1)]),
        (B, A, 8, [(3, 6, -1, 5), (8, 6, 1, 15)]),
    ):
        charts = nash_blowup(S, 3)
        assert charts == blowup_charts(newton_polyhedron(log_jacobian_ideal(S, 3)))
        assert len(charts) == count
        assert _charts_in(charts, other) == edges
        assert _charts_in(charts, S) == []
    # only p = 3 closes the cycle: elsewhere B has no chart in A's class
    for p in (0, 2, 5):
        assert _charts_in(nash_blowup(B, p), A) == [], p


# a class of the normalized p = 2 graph of the cone-form (4,1,2,7) root
# with two charts equivalent to itself in p = 2 and none in p = 0
P2_CONE_4127_SELF_LOOP = (
    (-2, -1, 2, 1), (-1, 1, -3, 2), (0, 2, 3, -2), (1, -3, -2, 1),
    (2, 1, -4, 0), (2, 5, 4, -5), (4, 4, -3, -3),
)


def test_characteristic_two_self_loop_on_the_4127_cone():
    W = AffineSemigroup(4, P2_CONE_4127_SELF_LOOP)
    assert W.minimal_generators() == P2_CONE_4127_SELF_LOOP and W.is_saturated()
    for p in (0, 2):
        charts = nash_blowup(W, p)
        assert charts == blowup_charts(newton_polyhedron(log_jacobian_ideal(W, p)))
        assert len(charts) == 8
        assert _charts_in(charts, W) == ([(5, 12, 1, -8), (7, 8, 2, -9)] if p == 2 else []), p


def test_greedy_basis_is_gale_minimal():
    """Edmonds/Gale: the i-th least key of the greedy basis is at most the
    i-th least key of every basis of the matroid, here the d-subsets with
    a determinant nonzero mod p."""
    rng = random.Random(211)
    seen = {"skipped": 0, "no basis": 0}
    for _ in range(400):
        d = rng.randint(1, 3)
        p = rng.choice((0, 2, 3))
        gens = {
            tuple(rng.randint(-3, 3) for _ in range(d))
            for _ in range(rng.randint(d, 7))
        }
        gens = sorted(g for g in gens if any(g))
        if len(gens) < d:
            continue
        w, u = (tuple(rng.randint(-2, 2) for _ in range(d)) for _ in range(2))
        key = lambda g: (dot(w, g), -dot(u, g), g)
        # a basis mod p: a determinant that is nonzero, and nonzero mod p if p > 0
        minors = ((A, det(columns_matrix(A))) for A in combinations(gens, d))
        bases = [A for A, m in minors if (m % p if p else m)]
        if not bases:
            seen["no basis"] += 1
            with pytest.raises(RuntimeError, match="log-Jacobian ideal is empty"):
                blowup._greedy_basis(gens, key, p)
            continue
        B = blowup._greedy_basis(gens, key, p)
        m = det(columns_matrix(B))
        assert m % p if p else m
        assert list(B) == sorted(B, key=key)
        least = [key(g) for g in B]
        for A in bases:
            assert all(map(operator.le, least, sorted(map(key, A))))
        if B != tuple(sorted(gens, key=key)[:d]):
            seen["skipped"] += 1
    assert min(seen.values()) >= 20, seen


def test_trivial_step_on_numerical_semigroup(cusp):
    N = newton_polyhedron(log_jacobian_ideal(cusp, 2))
    charts = blowup_charts(N, normalize=False)
    assert len(charts) == 1
    assert charts[0].vertex == (3,)
    assert charts[0].semigroup.minimal_generators() == ((2,), (3,))
    assert is_trivial_step(N, charts)

    normalized = blowup_charts(N, normalize=True)
    assert normalized[0].semigroup.minimal_generators() == ((1,),)
    assert not is_trivial_step(N, normalized)


def test_stall_from_residues_matches_the_enumerated_charts(cusp):
    # stalls counts the minimal generators that are nonzero mod p, the
    # enumeration compares the one chart built from E - v with the parent;
    # a smooth semigroup stalls trivially, so only singular ones are
    # counted, and in p = 0 none of them stalls
    rng = random.Random(515)
    cases = [cusp]
    for i in range(150):
        dim = 1 + i % 4
        cases.append(AffineSemigroup(dim, random_unsaturated_generators(rng, dim)))
    outcomes = {True: 0, False: 0}
    for S in cases:
        for p in (0, 2, 3, 5, 7):
            N = newton_polyhedron(log_jacobian_ideal(S, p))
            expected = is_trivial_step(N, blowup_charts(N, normalize=False))
            assert stalls(S, p) == expected, (S, p)
            if p == 0:
                assert expected == S.is_smooth(), S
            if not S.is_smooth():
                outcomes[expected] += 1
    assert min(outcomes.values()) >= 30, outcomes


def test_walk_charts_keep_only_the_basis_and_unexchanged_generators(monkeypatch):
    # an exchangeable generator g is b + (g - b), so B, the generators with
    # no exchange (those outside B that are 0 mod p) and the directions
    # generate Γ + <directions>, and no direction lies in Γ; every basis
    # the walk visits is checked against the chart built from all of Γ's
    # generators, and against the walk's own chart at its vertex
    rng = random.Random(517)
    visited = []
    exchanges = blowup._exchanges

    def recorded(basis, gens, p):
        out = exchanges(basis, gens, p)
        visited.append((basis,) + out)
        return out

    monkeypatch.setattr(blowup, "_exchanges", recorded)
    bases = with_unexchanged = needed = 0
    for i in range(80):
        dim = 1 + i % 4
        S = AffineSemigroup(dim, random_unsaturated_generators(rng, dim))
        gens = S.minimal_generators()
        for p in (0, 2, 3, 5):
            visited.clear()
            charts = {c.vertex: c.semigroup for c in nash_blowup(S, p, normalize=False)}
            assert len(visited) == len(charts)
            for basis, directions, unexchanged in visited:
                assert unexchanged == tuple(
                    g for g in gens if g not in basis and p and not any(x % p for x in g)
                )
                assert not any(S.membership(u) for u in directions)
                chart = AffineSemigroup(dim, basis + unexchanged + directions)
                oracle = AffineSemigroup(dim, gens + directions)
                assert chart.cone == oracle.cone
                assert chart.minimal_generators() == oracle.minimal_generators()
                assert charts[blowup._vsum(basis)].cone == oracle.cone
                assert charts[blowup._vsum(basis)].minimal_generators() == (
                    oracle.minimal_generators()
                )
                bases += 1
                with_unexchanged += bool(unexchanged)
                needed += bool(set(unexchanged) & set(chart.minimal_generators()))
    # without the unexchanged generators the charts counted in needed
    # would lose a minimal generator
    assert bases >= 1000 and with_unexchanged >= 100 and needed >= 80, (
        bases, with_unexchanged, needed,
    )


def test_charts_contain_parent_generators(threefold):
    rng = random.Random(504)
    cases = [threefold] + [random_saturated_surface(rng) for _ in range(15)]
    for S in cases:
        N = newton_polyhedron(log_jacobian_ideal(S, 2))
        for chart in blowup_charts(N, normalize=False):
            for g in S.minimal_generators():
                assert chart.semigroup.membership(g)


def test_unnormalized_charts_have_full_group(monkeypatch):
    # `_in_cone` does not check a chart's group: a chart contains its
    # parent, whose group is Z^d. Every unnormalized chart the walk, the
    # surface closed form and the enumeration build is checked here, on
    # the charts of whole trees in d = 1 to 4
    in_cone = AffineSemigroup._in_cone.__func__
    built = {"_walk": 0, "_surface_charts": 0, "blowup_charts": 0}

    def spied(cls, cone, generators):
        generators = tuple(generators)
        built[sys._getframe(2).f_code.co_name] += 1
        assert group_is_full_lattice(generators, cone.dim), generators
        return in_cone(cls, cone, generators)

    monkeypatch.setattr(AffineSemigroup, "_in_cone", classmethod(spied))
    e = ((1, 0, 0, 0), (0, 1, 0, 0), (0, 0, 1, 0))
    roots = [(S, (0, 2, 3), 64) for S in small_numerical_semigroups()] + [
        (AffineSemigroup.from_cone(Cone.from_rays(((15, 14), (12, 18)), 2)), (0, 2, 3), 6),
        (AffineSemigroup(2, [(2, 0), (3, 0), (0, 1), (1, 1)]), (0, 2, 3), 6),
        (AffineSemigroup(3, [(0, 3, 3), (1, 0, 1), (2, 2, 0), (3, 1, 3)]), (0, 2, 3), 4),
        (AffineSemigroup.from_cone(Cone.from_rays(e + ((1, 2, 2, 4),), 4)), (0, 2), 3),
    ]
    for S, ps, cap in roots:
        for p in ps:
            blowup_charts(newton_polyhedron(log_jacobian_ideal(S, p)), normalize=False)
            resolve(S, p, normalize=False, max_depth=cap)
    assert built["_walk"] >= 1000, built
    assert built["_surface_charts"] >= 6 and built["blowup_charts"] >= 600, built


def test_surface_blowup_vertices_fixed():
    # dual cone generated by (1,0),(1,2): two Newton vertices, any p
    S = AffineSemigroup.from_cone(Cone.from_rays(((1, 0), (1, 2)), 2))
    for p in (0, 2, 3):
        N = newton_polyhedron(log_jacobian_ideal(S, p))
        assert N.vertices == ((2, 1), (2, 3))


def test_smooth_blowup_is_trivial():
    S = AffineSemigroup(2, [(1, 0), (0, 1)])
    N = newton_polyhedron(log_jacobian_ideal(S, 0))
    charts = blowup_charts(N, normalize=False)
    assert len(charts) == 1
    assert is_trivial_step(N, charts)
    assert charts[0].semigroup == S


def test_empty_ideal_raises_runtime_error(monkeypatch):
    S = AffineSemigroup(2, [(1, 0), (1, 1), (1, 2)])
    # every minor of the sweep reads as zero
    monkeypatch.setattr(
        blowup,
        "maximal_minors",
        lambda gens: ((T, 0) for T in combinations(range(len(gens)), len(gens[0]))),
    )
    with pytest.raises(RuntimeError, match="log-Jacobian ideal is empty"):
        log_jacobian_ideal(S, 0)


def test_the_walk_computes_one_greedy_basis_per_vertex(monkeypatch, threefold):
    # a vertex already seen on the ray of a bounded edge is its far end,
    # so only the edges to new vertices compute a greedy basis, and each
    # vertex is reached by one; one per edge but the edge back took 4, 5,
    # 69 and 53 for these 4, 3, 19 and 17 charts. The charts stay those
    # of the enumeration (`test_normalized_blowup_matches_enumeration`)
    e = ((1, 0, 0, 0), (0, 1, 0, 0), (0, 0, 1, 0))
    fourfold = AffineSemigroup.from_cone(Cone.from_rays(e + ((3, 5, 7, 11),), 4))
    walked = [0]
    greedy = blowup._greedy_basis

    def counted(gens, key, p):
        walked[0] += 1
        return greedy(gens, key, p)

    monkeypatch.setattr(blowup, "_greedy_basis", counted)
    for S, p, normalize, count in (
        (threefold, 0, True, 4),
        (threefold, 2, False, 3),
        (fourfold, 0, True, 19),
        (fourfold, 2, True, 17),
    ):
        walked[0] = 0
        assert len(nash_blowup(S, p, normalize)) == walked[0] == count, (S.dim, p)
