import random
from itertools import combinations
from math import gcd

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from nashtoric import cones, semigroups
from nashtoric.blowup import nash_blowup
from nashtoric.cones import (
    Cone,
    hilbert_basis,
    parallelepiped_points,
    polyhedron_vertices,
    polyhedron_vertices_and_facets,
)
from nashtoric.errors import (
    DimensionError,
    NotFullDimensionalError,
    NotPointedError,
)
from nashtoric.linalg import (
    columns_matrix,
    cross2,
    det,
    dot,
    independent_rows,
    primitive,
    rank,
    smith_normal_form,
    vneg,
    vsub,
)
from nashtoric.semigroups import AffineSemigroup

from oracles import (
    box_parallelepiped,
    brute_force_hilbert,
    cone_bruteforce,
    extreme_rays_bruteforce,
    frac_solve,
    hermite_box_points,
    hilbert_basis_by_triangulation,
    in_cone_2d,
    interior_point,
    mat_mul,
    pairwise_irreducible,
    random_unsaturated_generators,
    triangulate,
    vertices_via_lp,
)


def random_pointed_cone(rng, dim, bound=6, extra=2):
    """The cone of dim..dim+extra random rays, redrawn until they span a
    pointed full-dimensional cone."""
    while True:
        k = rng.randint(dim, dim + extra)
        rays = [
            tuple(rng.randint(-bound, bound) for _ in range(dim)) for _ in range(k)
        ]
        rays = [r for r in rays if any(r)]
        try:
            return Cone.from_rays(rays, dim)
        except (NotPointedError, NotFullDimensionalError):
            continue


def _outcome(rays, dim):
    """The cone the rays generate, or the type of the error they raise."""
    try:
        return Cone.from_rays(rays, dim)
    except (NotPointedError, NotFullDimensionalError) as exc:
        return type(exc)


def _check_against_bruteforce(rays, dim):
    """Cone.from_rays against the oracle: its two lists, or the error its
    flags name, a line first. Returns the flags (pointed, full_dim)."""
    want_rays, want_halfspaces, pointed, full_dim = cone_bruteforce(rays, dim)
    if pointed and full_dim:
        c = Cone.from_rays(rays, dim)
        assert (c.rays, c.halfspaces) == (want_rays, want_halfspaces)
    else:
        with pytest.raises(NotFullDimensionalError if pointed else NotPointedError):
            Cone.from_rays(rays, dim)
    return pointed, full_dim


def _combination(rng, span, dim):
    """A random integer combination of the span vectors."""
    coeffs = [rng.randint(-2, 2) for _ in span]
    return tuple(sum(c * b[i] for c, b in zip(coeffs, span)) for i in range(dim))


def test_from_rays_canonicalizes():
    c = Cone.from_rays(((2, 0), (0, 3), (1, 1)), 2)
    # (1,1) is interior, rays are primitivized
    assert c.rays == ((0, 1), (1, 0))
    assert c == Cone.from_rays(((0, 1), (1, 0)), 2)


def test_from_rays_dimension_checks():
    with pytest.raises(DimensionError):
        Cone.from_rays(((1, 0), (0, 1, 0)), 2)


def test_dimension_is_an_integer():
    # a dimension follows the integer rule of max_depth and seed
    with pytest.raises(TypeError):
        Cone.from_rays([(1, 0, 0), (0, 1, 0)], 3.0)


def test_dual_fixed():
    c = Cone.from_rays(((1, 0), (1, 2)), 2)
    assert c.dual().rays == ((0, 1), (2, -1))
    assert c.dual().dual() == c


def test_halfplane_is_not_pointed():
    with pytest.raises(NotPointedError, match="line"):
        Cone.from_rays(((1, 0), (-1, 0), (0, 1)), 2)


def test_halfline_is_not_full_dim():
    with pytest.raises(NotFullDimensionalError):
        Cone.from_rays(((2, 4),), 2)
    # no inputs, or only zero, span the cone {0}
    for rays in ((), ((0, 0),), ((0, 0), (0, 0))):
        with pytest.raises(NotFullDimensionalError):
            Cone.from_rays(rays, 2)
    # beyond the brute-force oracle's d <= 5; -e1 lies in the second cone,
    # so completing it by every unit vector would report a line
    for rays in (
        ((-1, 0, 0, 0, 0, 0),),
        ((-2, -3, 0, 0, 0, 0), (0, 1, 0, 0, 0, 0)),
        (),
        ((0,) * 6,),
    ):
        with pytest.raises(NotFullDimensionalError):
            Cone.from_rays(rays, 6)


def test_whole_plane():
    with pytest.raises(NotPointedError):
        Cone.from_rays(((1, 0), (-1, 0), (0, 1), (0, -1)), 2)
    # a line is reported before a missing dimension
    for rays, dim in (
        (((1, 0), (-1, 0)), 2),
        (((1, 0, 0), (-1, 0, 0), (0, 1, 0)), 3),
        (((1, 2, 0), (2, 4, 0), (-1, -2, 0)), 3),
        # a line, though no two inputs are opposite
        (((1, 1, 0, 0, 0, 0), (-1, 0, 0, 0, 0, 0), (0, -1, 0, 0, 0, 0)), 6),
        (((1, 2, 3, 0, 0, 0), (-1, -2, -3, 0, 0, 0), (0, 0, 0, 1, 0, 0)), 6),
    ):
        with pytest.raises(NotPointedError):
            Cone.from_rays(rays, dim)


def test_halfspaces_are_valid_and_tight():
    rng = random.Random(301)
    for _ in range(150):
        dim = rng.randint(2, 3)
        c = random_pointed_cone(rng, dim)
        for h in c.halfspaces:
            for r in c.rays:
                assert dot(h, r) >= 0
        # double description is involutive on the canonical form
        assert Cone.from_rays(c.halfspaces, dim).dual() == c


def test_biduality_random():
    rng = random.Random(302)
    for _ in range(150):
        dim = rng.randint(2, 3)
        c = random_pointed_cone(rng, dim)
        assert c.dual().dual().rays == c.rays


def test_dual_swaps_the_two_descriptions():
    # dual() swaps the lists of a fresh conversion, whose halfspaces
    # convert to the dual; the error kinds are counted so that the draw
    # stays spread over every outcome
    rng = random.Random(303)
    seen = {"cone": 0, "lineality": 0, "lower": 0, "both": 0}
    for _ in range(300):
        dim = rng.randint(1, 5)
        span = [tuple(rng.randint(-3, 3) for _ in range(dim)) for _ in range(dim)]
        span = span[: rng.randint(1, dim)]
        rays = [_combination(rng, span, dim) for _ in range(rng.randint(1, dim + 3))]
        if rng.random() < 0.3:
            rays.append(tuple(-x for x in rays[0]))
        c = _outcome(rays, dim)
        if c is NotPointedError:
            seen["both" if rank(rays) < dim else "lineality"] += 1
            continue
        if c is NotFullDimensionalError:
            seen["lower"] += 1
            continue
        d = c.dual()
        assert (d.rays, d.halfspaces) == (c.halfspaces, c.rays)
        assert d == Cone.from_rays(c.halfspaces, dim)
        assert d.dual() == c
        seen["cone"] += 1
    assert min(seen.values()) > 30, seen


@st.composite
def _ray_lists(draw):
    """(dim, rays) in dims 1-5: rays in a random span, sometimes with a line."""
    dim = draw(st.integers(1, 5))
    entry = st.integers(-3, 3)
    span = draw(st.lists(st.tuples(*[entry] * dim), min_size=1, max_size=dim))
    coeffs = st.lists(st.integers(-2, 2), min_size=len(span), max_size=len(span))
    rays = [
        tuple(sum(a * b[i] for a, b in zip(cs, span)) for i in range(dim))
        for cs in draw(st.lists(coeffs, min_size=1, max_size=dim + 3))
    ]
    if draw(st.booleans()):
        rays.append(tuple(-x for x in rays[0]))
    return dim, rays


@settings(max_examples=150, deadline=None, derandomize=True, database=None)
@given(_ray_lists(), st.data())
def test_cone_descriptions_are_canonical(case, data):
    # a cone, or an error, depends on the cone the inputs generate only
    dim, rays = case
    c = _outcome(rays, dim)
    shuffled = data.draw(st.permutations(rays))
    assert _outcome(shuffled, dim) == c
    extra = data.draw(st.lists(st.sampled_from(rays), max_size=4))
    assert _outcome(rays + extra, dim) == c
    n = len(rays)
    scales = data.draw(st.lists(st.integers(1, 5), min_size=n, max_size=n))
    scaled = [tuple(s * x for x in r) for s, r in zip(scales, rays)]
    assert _outcome(scaled, dim) == c
    if not isinstance(c, Cone):
        return
    assert Cone.from_rays(c.rays, dim) == c
    assert c.dual().dual() == c
    assert Cone.from_rays(c.halfspaces, dim).dual() == c


def test_pointed_extreme_rays_match_bruteforce():
    rng = random.Random(310)
    checked = 0
    while checked < 200:
        dim = rng.randint(1, 5)
        w = tuple(rng.randint(-3, 3) for _ in range(dim))
        normals = []
        for _ in range(rng.randint(dim, dim + 6)):
            n = tuple(rng.randint(-4, 4) for _ in range(dim))
            # most normals keep w inside, so the cone is rarely just {0}
            if rng.random() < 0.8 and dot(n, w) < 0:
                n = tuple(-x for x in n)
            if any(n):
                normals.append(n)
        # a sum of two normals is redundant but tight on a lower face, the
        # case where adjacency needs the third-ray test
        for _ in range(rng.randint(0, 3)):
            if len(normals) > 1:
                a, b = rng.sample(normals, 2)
                if any(x + y for x, y in zip(a, b)):
                    normals.append(tuple(x + y for x, y in zip(a, b)))
        if not normals or rank(normals) < dim:
            continue
        normals = sorted(set(normals))
        found = cones._pointed_extreme_rays(normals, independent_rows(normals))
        assert tuple(r for r, _ in found) == extreme_rays_bruteforce(normals, dim)
        # each mask is the set of normals the ray lies on
        for r, mask in found:
            assert mask == sum(1 << i for i, n in enumerate(normals) if dot(n, r) == 0)
        checked += 1


def _random_ray_set(rng, dim):
    """Random rays: generic, containing a line, or inside a proper subspace."""
    k = rng.randint(1, dim + 2)
    rays = [tuple(rng.randint(-4, 4) for _ in range(dim)) for _ in range(k)]
    kind = rng.randrange(3)
    if kind == 1:
        rays.append(tuple(-x for x in rays[0]))
    elif kind == 2 and dim > 1:
        basis = rays[: rng.randint(1, dim - 1)]
        rays = [_combination(rng, basis, dim) for _ in range(rng.randint(1, dim + 1))]
    return rays


def test_from_rays_matches_bruteforce_conversion():
    rng = random.Random(311)
    cases = [
        (_random_ray_set(rng, dim), dim) for dim in range(1, 6) for _ in range(40)
    ]
    shapes = set()
    for rays, dim in cases:
        shapes.add((dim > 2,) + _check_against_bruteforce(rays, dim))
    # lineality and lower-dimensional inputs occur beyond the plane, alone
    # and together: a line in inputs of rank < d is the case the unit
    # vector completion must report first
    assert {
        (True, False, True),
        (True, True, False),
        (True, True, True),
        (True, False, False),
    } <= shapes


def test_from_rays_ignores_added_combinations_of_rays():
    # nonnegative combinations of the rays are no new extreme rays: the
    # single conversion must drop them by their facet sets, and they
    # change no error either
    rng = random.Random(317)
    kinds = {Cone: 0, NotFullDimensionalError: 0, NotPointedError: 0}
    for dim in range(1, 6):
        for _ in range(60):
            rays = _random_ray_set(rng, dim)
            c = _outcome(rays, dim)
            gens = c.rays if isinstance(c, Cone) else [r for r in rays if any(r)]
            if not gens:
                continue
            extra = []
            for _ in range(rng.randint(1, 4)):
                picked = rng.sample(gens, rng.randint(1, len(gens)))
                coeffs = [rng.randint(0, 3) for _ in picked]
                extra.append(
                    tuple(sum(a * r[i] for a, r in zip(coeffs, picked)) for i in range(dim))
                )
            assert _outcome(rays + extra, dim) == c
            assert _outcome(extra + list(gens), dim) == c
            kinds[type(c) if isinstance(c, Cone) else c] += 1
    assert min(kinds.values()) >= 60, kinds


def _directions(rng, C):
    """Directions to extend C by: a random mix of fresh vectors, positive
    combinations of C's rays (interior or on a facet), multiples of its
    rays, and 2r - q for rays r, q on a common facet, which lies beyond r
    in that facet's hyperplane and leaves r no longer extreme; then
    non-primitive multiples and repeats of those, shuffled."""
    dim = C.dim
    D = []
    while not D:
        if rng.random() < 0.4:
            for _ in range(rng.randint(1, 2)):
                u = tuple(rng.randint(-4, 4) for _ in range(dim))
                if any(u):
                    D.append(u)
        h = rng.choice(C.halfspaces)
        facet = [r for r in C.rays if not dot(h, r)]
        for rays in (C.rays, facet):
            if rng.random() < 0.5:
                coeffs = [rng.randint(1, 3) for _ in rays]
                D.append(tuple(sum(c * r[i] for c, r in zip(coeffs, rays)) for i in range(dim)))
        if rng.random() < 0.5:
            k = rng.randint(1, 3)
            D.append(tuple(k * x for x in rng.choice(C.rays)))
        if rng.random() < 0.6:
            r, q = rng.sample(facet, 2)
            D.append(tuple(2 * a - b for a, b in zip(r, q)))
    for _ in range(rng.randint(0, 2)):
        k = rng.randint(2, 4)
        D.append(tuple(k * x for x in rng.choice(D)))
    D += [rng.choice(D) for _ in range(rng.randint(0, 2))]
    rng.shuffle(D)
    return D


def test_extended_cone_matches_the_conversion_from_scratch(monkeypatch):
    # `Cone._extended` starts the double description from C's facets and
    # their incidences and inserts only the new directions: it must be what
    # converting C's rays and the directions together makes, or raise the
    # same error, with or without the incidences handed in
    rng = random.Random(320)
    seen = dict.fromkeys(("grown", "ray dropped", "unchanged", "line"), 0)
    for dim in (3, 4, 5):
        for _ in range(80):
            C = random_pointed_cone(rng, dim, bound=4)
            D = _directions(rng, C)
            try:
                want = Cone._from_nonzero(list(C.rays) + D, dim)
            except NotPointedError:
                for incidence in (None, C._incidence()):
                    with pytest.raises(NotPointedError):
                        C._extended(D, incidence)
                seen["line"] += 1
                continue
            for incidence in (None, C._incidence()):
                got = C._extended(D, incidence)
                assert (got.rays, got.halfspaces) == (want.rays, want.halfspaces), (C, D)
            seen["unchanged" if want == C else "grown"] += 1
            seen["ray dropped"] += not set(C.rays) <= set(want.rays)
    assert min(seen.values()) >= 20, seen

    # directions that are all rays of C, some scaled or repeated, insert
    # nothing: the double description ends at C's own facets and rays
    for dim in (3, 4, 5):
        for _ in range(10):
            C = random_pointed_cone(rng, dim, bound=4)
            D = []
            for k in rng.choices((1, 2, 3), k=4):
                D.append(tuple(k * x for x in rng.choice(C.rays)))
            for incidence in (None, C._incidence()):
                got = C._extended(D, incidence)
                assert (got.rays, got.halfspaces) == (C.rays, C.halfspaces), (C, D)

    # a 2D cone takes the scan, here past a repeat, non-primitive inputs
    # and a ray, (1, 3), that stops being extreme
    C = Cone.from_rays(((1, 0), (1, 3)), 2)
    D = [(2, 2), (0, 3), (-2, 8), (-1, 4), (2, 6)]
    want = Cone._from_nonzero(list(C.rays) + D, 2)

    def unused(*args):
        raise AssertionError("a 2D cone ran the double description")

    monkeypatch.setattr(cones, "_double_description", unused)
    got = C._extended(D)
    assert (got.rays, got.halfspaces) == (want.rays, want.halfspaces) == (
        ((-1, 4), (1, 0)),
        ((0, 1), (4, 1)),
    )


def test_2d_shortcut_matches_generic_conversion(monkeypatch):
    rng = random.Random(313)
    shortcut = Cone._from_rays_2d
    cases = []
    for i in range(4000):
        bound = (2, 50)[i % 2]
        rays = [
            tuple(rng.randint(-bound, bound) for _ in range(2))
            for _ in range(rng.randint(2, 7))
        ]
        norm = sorted({primitive(r) for r in rays if any(r)})
        if len(norm) >= 2:
            cases.append((rays, shortcut(norm)))
    # raw lists, which the scan reads before any canonical form, each with
    # the cone from_rays builds while the scan is in place
    raw_cases = [(kind, raw, _outcome(raw, 2)) for kind, raw in _raw_2d_lists(rng)]
    monkeypatch.setattr(Cone, "_from_rays_2d", classmethod(lambda cls, norm: None))
    seen = {"pointed": 0, "line": 0, "half-plane": 0, "plane": 0}
    for rays, fast in cases:
        if fast is None:
            # with two distinct primitive rays only lineality can decline
            with pytest.raises(NotPointedError):
                Cone.from_rays(rays, 2)
            seen[("plane", "half-plane", "line")[len(cone_bruteforce(rays, 2)[1])]] += 1
        else:
            assert fast == Cone.from_rays(rays, 2)
            seen["pointed"] += 1
    assert min(seen.values()) >= 20, seen
    raw_seen = dict.fromkeys(("multiples", "single", "opposite"), 0)
    expected = {"multiples": Cone, "single": NotFullDimensionalError, "opposite": NotPointedError}
    for kind, raw, scanned in raw_cases:
        ref = _outcome(raw, 2)
        assert scanned == ref, (kind, raw)
        raw_seen[kind] += (type(ref) if isinstance(ref, Cone) else ref) is expected[kind]
    assert min(raw_seen.values()) >= 100, raw_seen


def test_two_edge_cone_matches_the_conversion(monkeypatch):
    # a surface chart's tangent cone comes from its two edge directions by
    # one cross product (`_from_rays_2d` on two inputs), in either order and
    # before either is made primitive; the generic conversion is the
    # reference, with the 2D shortcut off
    rng = random.Random(331)
    cases = []
    seen = dict.fromkeys(("primitive", "multiple", "parallel", "opposite"), 0)
    for i in range(1200):
        bound = (3, 60)[i % 2]
        while True:
            a, b = (tuple(rng.randint(-bound, bound) for _ in range(2)) for _ in range(2))
            if cross2(a, b):
                break
        k, m = (1, 1) if i % 3 == 0 else (rng.randint(1, 6), rng.randint(1, 6))
        pair = ((k * a[0], k * a[1]), (m * b[0], m * b[1]))
        fast = Cone._from_rays_2d(pair)
        assert fast == Cone._from_rays_2d(pair[::-1])
        cases.append((pair, fast))
        seen["multiple" if primitive(pair[0]) + primitive(pair[1]) != pair[0] + pair[1] else "primitive"] += 1
        s = rng.choice((-1, 1)) * rng.randint(1, 6)
        line = (pair[0], (s * a[0], s * a[1]))
        for rays in (line, line[::-1]):
            assert Cone._from_rays_2d(rays) is None
        seen["parallel" if s > 0 else "opposite"] += 1
    monkeypatch.setattr(Cone, "_from_rays_2d", classmethod(lambda cls, rays: None))
    for pair, fast in cases:
        assert fast == Cone.from_rays(pair, 2)
    assert min(seen.values()) >= 150, seen


def _raw_2d_lists(rng):
    """Unnormalized 2D input lists, shuffled: a few directions, each given
    1-3 times as multiples up to 6 (so repeats and non-primitive inputs),
    with up to 2 zero vectors mixed in. "single" lists have one direction,
    given 2-3 times, and "opposite" lists add a negative multiple of one of
    theirs."""
    for i in range(1800):
        kind = ("multiples", "single", "opposite")[i % 3]
        bound = (3, 40)[i % 2]
        size = 1 if kind == "single" else rng.randint(2, 4)
        dirs = []
        while len(dirs) < size:
            u = (rng.randint(-bound, bound), rng.randint(-bound, bound))
            if any(u):
                dirs.append(u)
        if kind == "opposite":
            k = rng.randint(1, 6)
            dirs.append((-k * dirs[0][0], -k * dirs[0][1]))
        raw = [
            (k * u[0], k * u[1])
            for u in dirs
            for k in rng.sample(range(1, 7), rng.randint(2 if kind == "single" else 1, 3))
        ]
        raw += [(0, 0)] * rng.randint(0, 2)
        rng.shuffle(raw)
        yield kind, raw


def _random_unimodular(rng, dim):
    """A random matrix in GL(dim, Z): row additions and sign flips of the
    identity, so its rows and columns are primitive and independent."""
    M = [[int(i == j) for j in range(dim)] for i in range(dim)]
    for _ in range(3 * dim):
        if dim > 1:
            i, j = rng.sample(range(dim), 2)
            k = rng.choice((-2, -1, 1, 2))
            M[i] = [a + k * b for a, b in zip(M[i], M[j])]
        if rng.random() < 0.3:
            i = rng.randrange(dim)
            M[i] = [-a for a in M[i]]
    return M


def test_simplicial_exit_matches_general_pass(monkeypatch):
    # d independent inputs stop at the double description's seed; adding
    # their sum, a new primitive input for d > 1, forces the general pass,
    # and so does switching the exit off
    rng = random.Random(318)
    cases = []
    seen = {"positive": 0, "negative": 0, "non-primitive": 0, "unimodular": 0}
    for i in range(200):
        dim = 1 + i % 5
        if i % 4 == 0:
            rays = [list(col) for col in zip(*_random_unimodular(rng, dim))]
        else:
            while True:
                rays = [[rng.randint(-4, 4) for _ in range(dim)] for _ in range(dim)]
                if det(rays):
                    break
        if rng.random() < 0.4:
            j = rng.randrange(dim)
            rays[j] = [rng.randint(2, 3) * x for x in rays[j]]
        rays = [tuple(r) for r in rays]
        fast = Cone.from_rays(rays, dim)
        assert len(fast.rays) == dim
        cases.append((rays, fast))
        if dim > 1:
            total = tuple(map(sum, zip(*rays)))
            assert Cone.from_rays(rays + [total], dim) == fast
        D = det(rays)
        seen["positive" if D > 0 else "negative"] += 1
        seen["non-primitive"] += any(primitive(r) != r for r in rays)
        seen["unimodular"] += abs(D) == 1
    monkeypatch.setattr(Cone, "_from_rays_simplicial", classmethod(lambda cls, norm: None))
    for rays, fast in cases:
        assert Cone.from_rays(rays, len(rays)) == fast
    assert min(seen.values()) >= 20, seen


def test_singular_d_list_matches_bruteforce():
    # d distinct primitive inputs without full rank reach the exit and
    # must fall through to the general pass
    rng = random.Random(319)
    shapes = set()
    checked = 0
    while checked < 100:
        dim = rng.randint(2, 5)
        if rng.random() < 0.5:
            basis = [tuple(rng.randint(-3, 3) for _ in range(dim)) for _ in range(dim - 1)]
            rays = [_combination(rng, basis, dim) for _ in range(dim)]
        else:
            # a line through the first input
            rays = [tuple(rng.randint(-3, 3) for _ in range(dim)) for _ in range(dim - 1)]
            rays.append(tuple(-x for x in rays[0]))
        norm = {primitive(r) for r in rays if any(r)}
        if len(norm) != dim or rank(list(norm)) == dim:
            continue
        shapes.add(_check_against_bruteforce(rays, dim))
        checked += 1
    assert {(False, False), (True, False)} <= shapes, shapes


def test_tall_normal_list_converts():
    # converting the 32 facets back must not take the Smith form of that
    # tall normal list: its entries grow past 40,000 bits within seconds
    rays = (
        (0, 1, 1, 1, -2, 2),
        (0, 2, 3, 1, 1, 0),
        (1, -3, 0, -2, -1, 5),
        (1, -2, 1, -3, 0, 3),
        (1, -1, -2, 4, 1, 0),
        (1, -1, 2, 1, 5, -2),
        (1, 0, 3, -1, -1, 4),
        (1, 2, 1, 5, 3, 5),
        (1, 3, 3, -3, 4, 1),
        (1, 5, -3, 0, -1, 2),
    )
    c = Cone.from_rays(rays, 6)
    assert len(c.halfspaces) == 32
    assert c.rays == tuple(sorted(rays))
    for h in c.halfspaces:
        tight = [r for r in c.rays if dot(h, r) == 0]
        assert all(dot(h, r) >= 0 for r in rays)
        assert rank(tight) == 5
    assert Cone.from_rays(c.halfspaces, 6).dual() == c


def test_contains_needs_a_point_of_length_d():
    # zip would silently drop the third coordinate, or miss one
    c = Cone.from_rays(((1, 0), (0, 1)), 2)
    assert c.contains((1, 0)) and not c.contains((1, -7))
    for point in ((1, 0, -7), (1,), ()):
        with pytest.raises(DimensionError, match="length 2"):
            c.contains(point)


def test_containment_2d_against_cramer():
    rng = random.Random(303)
    for _ in range(60):
        c = random_pointed_cone(rng, 2)
        r1, r2 = c.rays
        for _ in range(60):
            z = (rng.randint(-12, 12), rng.randint(-12, 12))
            assert c.contains(z) == in_cone_2d((r1, r2), z)


def test_interior_point():
    c = Cone.from_rays(((1, 0, 0), (0, 1, 0), (1, 1, 2)), 3)
    w = interior_point(c)
    for h in c.halfspaces:
        assert dot(h, w) > 0
    # pointed wedge between nearly opposite rays still has an interior point
    thin = Cone.from_rays(((5, 6), (6, 5)), 2)
    w = interior_point(thin)
    assert all(dot(h, w) > 0 for h in thin.halfspaces)


def test_interior_point_raises_on_broken_invariant():
    # a hand-built cone whose halfspaces contradict each other
    broken = Cone(2, ((0, 1), (1, 0)), ((-1, 0), (1, 0)))
    with pytest.raises(RuntimeError, match="interior point"):
        interior_point(broken)


def test_interior_point_random():
    rng = random.Random(304)
    for _ in range(250):
        dim = rng.randint(1, 5)
        c = random_pointed_cone(rng, dim)
        w = interior_point(c)
        assert w == tuple(map(sum, zip(*c.rays)))
        assert all(dot(h, w) > 0 for h in c.halfspaces)
        # a line through the first ray leaves no cone to convert
        with pytest.raises(NotPointedError):
            Cone.from_rays(c.rays + (vneg(c.rays[0]),), dim)


def test_triangulate_square_cone():
    c = Cone.from_rays(((1, 0, 0), (0, 1, 0), (1, 0, 1), (0, 1, 1)), 3)
    pieces = triangulate(c)
    assert len(pieces) == 2
    for piece in pieces:
        assert len(piece.rays) == 3
        assert set(piece.rays) <= set(c.rays)
        assert det(columns_matrix(piece.rays)) != 0
    shared = set(pieces[0].rays) & set(pieces[1].rays)
    assert len(shared) == 2


def test_triangulate_simplicial_passthrough():
    c = Cone.from_rays(((1, 0), (1, 2)), 2)
    pieces = triangulate(c)
    assert len(pieces) == 1
    assert pieces[0].rays == c.rays


def test_triangulate_errors():
    # the cones triangulate once refused are not built
    with pytest.raises(NotPointedError):
        Cone.from_rays(((1, 0), (-1, 0), (0, 1)), 2)
    with pytest.raises(NotFullDimensionalError):
        Cone.from_rays(((1, 0, 0),), 3)


def test_triangulate_random():
    rng = random.Random(305)
    non_simplicial_facets = 0
    for _ in range(120):
        dim = rng.randint(2, 5)
        if dim >= 4 and rng.random() < 0.5:
            # cones over 0/1 polytopes have facets with more than dim-1 rays
            while True:
                rays = [
                    tuple(rng.randint(0, 1) for _ in range(dim - 1)) + (1,)
                    for _ in range(rng.randint(dim + 1, dim + 5))
                ]
                try:
                    c = Cone.from_rays(rays, dim)
                    break
                except NotFullDimensionalError:
                    continue
        else:
            c = random_pointed_cone(rng, dim, extra=4)
        if dim >= 4 and any(
            sum(dot(h, r) == 0 for r in c.rays) > dim - 1 for h in c.halfspaces
        ):
            non_simplicial_facets += 1
        pieces = triangulate(c)
        assert pieces
        for piece in pieces:
            assert len(piece.rays) == dim
            assert set(piece.rays) <= set(c.rays)
            w = interior_point(piece)
            assert c.contains(w)
            # piece interiors are pairwise disjoint
            for other in pieces:
                if other is not piece:
                    assert not all(dot(h, w) > 0 for h in other.halfspaces)
        # random cone points are covered by some piece
        for _ in range(20):
            coeffs = [rng.randint(0, 4) for _ in c.rays]
            z = tuple(
                sum(a * r[i] for a, r in zip(coeffs, c.rays)) for i in range(dim)
            )
            assert any(piece.contains(z) for piece in pieces)
    assert non_simplicial_facets >= 10


def test_parallelepiped_points_fixed():
    assert parallelepiped_points(((1, 0), (1, 2))) == ((0, 0), (1, 1))
    assert parallelepiped_points(((1, 0, 0), (0, 1, 0), (1, 1, 2))) == (
        (0, 0, 0),
        (1, 1, 1),
    )
    assert parallelepiped_points(((1, 0), (0, 1))) == ((0, 0),)
    assert parallelepiped_points(((2, 0), (0, 2))) == (
        (0, 0),
        (0, 1),
        (1, 0),
        (1, 1),
    )


def test_parallelepiped_points_errors():
    with pytest.raises(DimensionError):
        parallelepiped_points(((1, 0),))
    with pytest.raises(DimensionError):
        parallelepiped_points(((1, 0), (2, 0)))
    with pytest.raises(DimensionError):
        parallelepiped_points(((1, 0, 0), (0, 1, 0), (1, 1, 0)))
    with pytest.raises(DimensionError):
        parallelepiped_points(((1, 2, 3, 4), (0, 1, 0, 1), (1, 3, 3, 5), (2, 0, 1, 1)))


def test_parallelepiped_points_against_box_oracle():
    rng = random.Random(306)
    checked = 0
    while checked < 120:
        dim = rng.randint(1, 3)
        vecs = tuple(
            tuple(rng.randint(-5, 5) for _ in range(dim)) for _ in range(dim)
        )
        if det(vecs) == 0:
            continue
        columns = tuple(tuple(vecs[j][i] for j in range(dim)) for i in range(dim))
        pts = parallelepiped_points(columns)
        assert list(pts) == box_parallelepiped(columns)
        assert len(pts) == abs(det(vecs))
        checked += 1
    # Z^3 / 2Z^3 is not cyclic: columns 2e1, 2e2, 2e3 under a unimodular skew
    skew = mat_mul(
        ((1, 0, 0), (2, 1, 0), (-1, 3, 1)), ((1, 1, 2), (0, 1, -1), (0, 0, 1))
    )
    columns = tuple(tuple(2 * skew[i][j] for i in range(3)) for j in range(3))
    pts = parallelepiped_points(columns)
    assert list(pts) == box_parallelepiped(columns)
    assert len(pts) == 8
    # Z^3 / L is (Z/2)×(Z/4) or (Z/3)^3: the diagonal under a milder
    # unimodular map, so that the box scan stays small
    shear = ((1, 1, 0), (-1, 1, 1), (1, 0, -1))
    assert abs(det(shear)) == 1
    for diagonal in ((1, 2, 4), (3, 3, 3)):
        columns = tuple(tuple(shear[i][j] * diagonal[j] for i in range(3)) for j in range(3))
        assert smith_normal_form(columns_matrix(columns))[1] == tuple(
            tuple(diagonal[i] * (i == j) for j in range(3)) for i in range(3)
        )
        pts = parallelepiped_points(columns)
        assert list(pts) == box_parallelepiped(columns)
        assert len(pts) == abs(det(columns))
    # d = 4 against the Hermite box, whose scan of a bounding box is too
    # large here, and every point on its barycentric coordinates; the
    # non-cyclic groups (Z/2)×(Z/4), (Z/3)^3 and (Z/2)^4 under random
    # unimodular maps on both sides
    cases = []
    while len(cases) < 40:
        vecs = tuple(tuple(rng.randint(-3, 3) for _ in range(4)) for _ in range(4))
        if det(vecs):
            cases.append((vecs, None))
    for diagonal in ((1, 1, 2, 4), (1, 3, 3, 3), (2, 2, 2, 2)):
        M = mat_mul(
            mat_mul(_random_unimodular(rng, 4), [[diagonal[i] * (i == j) for j in range(4)] for i in range(4)]),
            _random_unimodular(rng, 4),
        )
        cases.append((tuple(zip(*M)), diagonal))
    for vecs, diagonal in cases:
        M = columns_matrix(vecs)
        if diagonal is not None:
            assert [row[i] for i, row in enumerate(smith_normal_form(M)[1])] == list(diagonal)
        pts = parallelepiped_points(vecs)
        assert list(pts) == hermite_box_points(vecs)
        assert len(pts) == abs(det(vecs))
        assert all(0 <= lam < 1 for x in pts for lam in frac_solve(M, x))


@pytest.mark.parametrize(
    "columns",
    [
        ((1, 0, 0), (0, 1, 0), (0, 0, 1)),
        ((1, 2, 0), (0, 1, 0), (3, 1, 1)),
        ((1, 0, 0), (0, 1, 0), (1, 1, 2)),
        ((2, 0, 0, 0), (0, 1, 0, 0), (0, 0, 3, 0), (1, 1, 1, 5)),
    ],
)
def test_parallelepiped_points_checks_the_group_order(monkeypatch, columns):
    # a group of numerators whose order disagrees with |det| must raise,
    # also when |det| is 1. Modulo a doubled determinant the adjugate's
    # columns generate a group of order 2^d·|det|, caught before it passes
    # 2·|det|, and the doubled adjugate's a group of order |det|, caught at
    # the end
    original = cones.adjugate
    assert len(parallelepiped_points(columns)) == abs(det(columns))
    for scale in (1, 2):

        def doubled(M):
            adj, det_M = original(M)
            return tuple(tuple(scale * a for a in row) for row in adj), 2 * det_M

        monkeypatch.setattr(cones, "adjugate", doubled)
        with pytest.raises(RuntimeError, match="expected \\|det\\|"):
            parallelepiped_points(columns)


def test_hilbert_basis_fixed():
    hb = hilbert_basis(Cone.from_rays(((1, 0), (1, 2)), 2))
    assert hb.elements == ((1, 0), (1, 1), (1, 2))
    hb = hilbert_basis(Cone.from_rays(((1, 0), (0, 1)), 2))
    assert hb.elements == ((0, 1), (1, 0))
    hb = hilbert_basis(Cone.from_rays(((1, 0, 0), (0, 1, 0), (1, 1, 2)), 3))
    assert hb.elements == ((0, 1, 0), (1, 0, 0), (1, 1, 1), (1, 1, 2))
    # rays always belong to the basis
    hb = hilbert_basis(Cone.from_rays(((2, -1), (-1, 2)), 2))
    assert (2, -1) in hb.elements and (-1, 2) in hb.elements


def test_hilbert_basis_errors():
    # the cones hilbert_basis once refused are not built
    with pytest.raises(NotPointedError):
        Cone.from_rays(((1, 0), (-1, 0), (0, 1)), 2)
    with pytest.raises(NotFullDimensionalError):
        Cone.from_rays(((1, 1),), 2)


def test_hilbert_basis_against_brute_force():
    rng = random.Random(307)
    checked = 0
    while checked < 25:
        dim = rng.randint(2, 3)
        c = random_pointed_cone(rng, dim)
        try:
            expected = brute_force_hilbert(
                c.rays, c.halfspaces, dim, volume_limit=3_000_000
            )
        except RuntimeError:
            continue
        assert list(hilbert_basis(c).elements) == expected
        checked += 1
    # 2D takes the Hirzebruch-Jung chain; the general path is its reference
    seen = dict.fromkeys(("ccw", "cw", "unimodular", "dual", "large", "brute"), 0)
    for i in range(240):
        if i % 4 == 0:
            # a random unimodular matrix: its columns span a smooth cone
            a, b = (1, 0), (0, 1)
            for _ in range(6):
                k = rng.randint(-4, 4)
                a, b = b, (a[0] + k * b[0], a[1] + k * b[1])
            if rng.random() < 0.5:
                a = (-a[0], -a[1])
        else:
            bound = (4, 20, 90)[i % 4 - 1]
            while True:
                a, b = (
                    tuple(rng.randint(-bound, bound) for _ in range(2)) for _ in range(2)
                )
                if cross2(a, b):
                    break
        c = Cone.from_rays((a, b), 2)
        for cone in (c, c.dual()):
            elements = hilbert_basis(cone).elements
            assert elements == cones._hilbert_basis_by_pieces(cone)
            D = cross2(*cone.rays)
            seen["ccw" if D > 0 else "cw"] += 1
            seen["unimodular"] += abs(D) == 1
            seen["dual"] += cone is not c
            seen["large"] += abs(D) >= 1000
            if max(map(abs, cone.rays[0] + cone.rays[1])) > 20:
                continue  # the oracle's graded box would be too large
            try:
                expected = brute_force_hilbert(
                    cone.rays, cone.halfspaces, 2, volume_limit=200_000
                )
            except RuntimeError:
                continue
            assert list(elements) == expected
            seen["brute"] += 1
    assert min(seen.values()) >= 40, seen


def test_simplicial_hilbert_basis_against_brute_force():
    # simplicial cones keep the rays and the points of the minimal nonzero
    # numerators; the graded scan knows nothing of numerators. Rays are
    # drawn from [-1, 3] in d = 4 so that the scan's box stays small; cones
    # whose box is still too large are drawn again
    rng = random.Random(321)
    seen = {3: [], 4: []}
    for dim, low, count in ((3, -3, 30), (4, -1, 20)):
        while len(seen[dim]) < count:
            rays = [tuple(rng.randint(low, 3) for _ in range(dim)) for _ in range(dim)]
            if not det(rays):
                continue
            c = Cone.from_rays(rays, dim)
            D = abs(det(c.rays))
            if not 2 <= D <= 30:
                continue
            try:
                expected = brute_force_hilbert(
                    c.rays, c.halfspaces, dim, volume_limit=100_000
                )
            except RuntimeError:
                continue
            assert list(hilbert_basis(c).elements) == expected
            seen[dim].append(D)
    assert all(max(Ds) >= 15 and len(set(Ds)) >= 8 for Ds in seen.values()), seen


def test_unimodular_2d_hilbert_basis_is_the_chain():
    # `hilbert_basis` returns a 2D cone's rays without the Hirzebruch-Jung
    # walk when their determinant is ±1; the walk is the reference on every
    # normal surface root of index n <= 40, the lattice points on (1, 0) and
    # (a, n), and on every chart of its blowup
    roots = 0
    seen = {"unimodular": 0, "chain": 0}
    for n in range(2, 41):
        for a in range(n):
            if gcd(a, n) != 1:
                continue
            root = Cone.from_rays(((1, 0), (a, n)), 2)
            charts = nash_blowup(AffineSemigroup.from_cone(root), 0)
            for cone in (root, *(c.semigroup.cone for c in charts)):
                assert hilbert_basis(cone).elements == tuple(sorted(cones._hirzebruch_jung(*cone.rays)))
                seen["unimodular" if abs(cross2(*cone.rays)) == 1 else "chain"] += 1
            roots += 1
    assert roots == 489
    assert min(seen.values()) >= 400, seen


def test_hilbert_basis_matches_the_triangulation_route():
    # simplicial cones read minimal numerators instead of a triangulation,
    # and index-1 pieces skip the box; the reference always takes the
    # general route, with Hermite box points
    rng = random.Random(320)
    seen = {"unimodular": 0, "simplicial": 0, "non-simplicial": 0}
    for i in range(270):
        dim = 3 + i % 3
        kind = ("unimodular", "simplicial", "non-simplicial")[i // 3 % 3]
        if kind == "unimodular":
            c = Cone.from_rays(zip(*_random_unimodular(rng, dim)), dim)
        elif kind == "simplicial":
            while True:
                rays = [tuple(rng.randint(-3, 3) for _ in range(dim)) for _ in range(dim)]
                if abs(det(rays)) > 1:
                    break
            c = Cone.from_rays(rays, dim)
        else:
            while True:
                c = random_pointed_cone(rng, dim, bound=2, extra=3)
                if len(c.rays) > dim:
                    break
        D = abs(det(c.rays)) if len(c.rays) == dim else 0
        seen[("non-simplicial", "unimodular")[D == 1] if D < 2 else "simplicial"] += 1
        assert hilbert_basis(c).elements == hilbert_basis_by_triangulation(c)
    assert min(seen.values()) >= 40, seen


def _recorded(log, answer=None):
    """A member test that logs every query with the kept points it sees
    and answers by answer(x, kept), or without it by a rule on x alone."""

    def member(x, kept):
        log.append((x, tuple(kept)))
        if answer is None:
            return sum(x) % 3 != 1
        return answer(x, kept)

    return member


def test_irreducible_matches_the_pairwise_sweep(monkeypatch):
    # the bitset sweep keeps what the pairwise scan keeps and makes its
    # member queries, with the same kept list, in the same order
    rng = random.Random(325)
    seen = {"ties": 0, "duplicates": 0, "queries": 0, "dropped": 0}
    for t in range(240):
        dim = 2 + t % 3
        if t % 4 == 0:
            # the orthant: facet values are coordinates, ties everywhere
            halfspaces = tuple(tuple(int(i == j) for j in range(dim)) for i in range(dim))
        else:
            halfspaces = random_pointed_cone(rng, dim, bound=3).halfspaces
        cone = Cone.from_rays(halfspaces, dim).dual()
        points = []
        size = rng.randint(3, 40)
        while len(points) < size:
            x = tuple(
                sum(rng.randint(0, 2) * r[i] for r in cone.rays) for i in range(dim)
            )
            if any(x):
                points.append(x)
        points += rng.sample(points, rng.randint(0, 3))
        values = [tuple(dot(h, x) for h in halfspaces) for x in set(points)]
        seen["ties"] += any(len(set(col)) < len(col) for col in zip(*values))
        seen["duplicates"] += len(set(points)) < len(points)
        expected = pairwise_irreducible(points, halfspaces)
        assert cones.irreducible(points, halfspaces) == expected
        seen["dropped"] += len(expected) < len(set(points))
        logs = ([], [])
        kept = [
            f(list(points), halfspaces, _recorded(log))
            for f, log in zip((cones.irreducible, pairwise_irreducible), logs)
        ]
        assert kept[0] == kept[1] and logs[0] == logs[1]
        seen["queries"] += len(logs[0])
    assert cones.irreducible((), ((1, 0), (0, 1))) == ()
    assert min(seen.values()) >= 60, seen
    # minimal generators: two copies of one semigroup, one swept by each,
    # make the same queries and end with the same cache and frame
    rng = random.Random(326)
    searched = 0
    for dim, count in ((2, 30), (3, 30), (4, 12)):
        for _ in range(count):
            gens = random_unsaturated_generators(rng, dim)
            runs = []
            for sweep in (cones.irreducible, pairwise_irreducible):
                log = []
                monkeypatch.setattr(
                    semigroups,
                    "irreducible",
                    lambda points, halfspaces, member, sweep=sweep, log=log: sweep(
                        points, halfspaces, _recorded(log, member)
                    ),
                )
                S = AffineSemigroup(dim, gens)
                runs.append((S.minimal_generators(), log, S._member_cache, S._frame))
            assert runs[0] == runs[1], gens
            searched += bool(runs[0][1])
    assert searched >= 40, searched


def test_polyhedron_vertices_fixed():
    quadrant = Cone.from_rays(((1, 0), (0, 1)), 2)
    assert polyhedron_vertices(((0, 0), (1, 0), (0, 1), (1, 1)), quadrant) == ((0, 0),)
    assert polyhedron_vertices(((2, 1), (1, 2), (3, 3)), quadrant) == ((1, 2), (2, 1))
    assert polyhedron_vertices(((0, 0), (1, 1), (2, 2)), quadrant) == ((0, 0),)
    ray = Cone.from_rays(((1,),), 1)
    assert polyhedron_vertices(((2,), (3,)), ray) == ((2,),)
    # a point strictly between two others on a hull edge is not a vertex
    assert polyhedron_vertices(((0, 2), (1, 1), (2, 0)), quadrant) == ((0, 2), (2, 0))


def test_polyhedron_vertices_2d_matches_lp_oracle():
    rng = random.Random(308)
    for _ in range(80):
        c = random_pointed_cone(rng, 2)
        pts = tuple(
            (rng.randint(-8, 8), rng.randint(-8, 8))
            for _ in range(rng.randint(1, 9))
        )
        fast = polyhedron_vertices(pts, c)
        assert fast == vertices_via_lp(pts, c.rays, 2)
        assert set(fast) <= set(pts)


def test_polyhedron_vertices_3d_sanity():
    rng = random.Random(309)
    for dim in (3, 4, 5):
        for _ in range(25):
            c = random_pointed_cone(rng, dim)
            pts = tuple(
                tuple(rng.randint(-5, 5) for _ in range(dim))
                for _ in range(rng.randint(1, 6))
            )
            verts = polyhedron_vertices(pts, c)
            assert verts == vertices_via_lp(pts, c.rays, dim)


def test_polyhedron_vertices_degenerate_recession_cones():
    # a recession cone of rank < d, or with a line, is not built
    rng = random.Random(312)
    checked = 0
    while checked < 60:
        dim = rng.randint(3, 5)
        k = rng.randint(0, dim - 1)
        rays = [tuple(rng.randint(-4, 4) for _ in range(dim)) for _ in range(k)]
        pointed, full_dim = _check_against_bruteforce(rays, dim)
        if pointed:
            assert not full_dim
            checked += 1
    with pytest.raises(NotFullDimensionalError):
        Cone.from_rays(((1, 0, 2, 0, -1), (0, 1, -1, 3, 0)), 5)
    with pytest.raises(NotPointedError):
        Cone.from_rays(((1, 0, 0, 0), (-1, 0, 0, 0), (0, 1, 0, 0)), 4)


def test_polyhedron_vertices_checks_point_lengths():
    quadrant = Cone.from_rays(((1, 0), (0, 1)), 2)
    with pytest.raises(DimensionError, match=r"point \(1, 2, 3\) does not have length 2"):
        polyhedron_vertices([(1, 2, 3)], quadrant)
    with pytest.raises(DimensionError, match=r"point \(4,\) does not have length 2"):
        polyhedron_vertices_and_facets([(0, 0), (4,)], quadrant)


def test_polyhedron_facets_cut_out_every_tangent_cone():
    """Every facet (h0, h) holds on the points and the recession rays and is
    tight on one of them, and the far face x0 = 0 of the full-dimensional
    recession cone is one. At every vertex v the facets through v cut out
    the tangent cone cone(rays + (P - v)), the V-description's."""
    rng = random.Random(313)
    seen = {"one point": 0, "points of rank < d": 0, "several vertices": 0}
    for cases in range(320):
        dim = 1 + cases % 5
        cone = random_pointed_cone(rng, dim, bound=4)
        pts = [
            tuple(rng.randint(-4, 4) for _ in range(dim))
            for _ in range(rng.randint(1, 7))
        ]
        vertices, facets = polyhedron_vertices_and_facets(pts, cone)
        assert vertices == polyhedron_vertices(pts, cone)
        assert vertices and set(vertices) <= set(pts)
        assert (1,) + (0,) * dim in facets
        for h in facets:
            values = [h[0] + dot(h[1:], p) for p in pts] + [dot(h[1:], r) for r in cone.rays]
            assert min(values) == 0
        for v in vertices:
            through = [h[1:] for h in facets if h[0] + dot(h[1:], v) == 0]
            tangent = Cone.from_rays(list(cone.rays) + [vsub(p, v) for p in pts], dim)
            assert Cone.from_rays(through, dim).dual() == tangent
        seen["one point"] += len(set(pts)) == 1
        seen["points of rank < d"] += rank([vsub(p, pts[0]) for p in pts]) < dim
        seen["several vertices"] += len(vertices) > 1
    assert min(seen.values()) >= 40, seen
