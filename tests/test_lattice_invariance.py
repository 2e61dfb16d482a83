"""Metamorphic tests: a Nash blowup commutes with GL(d, Z).

A unimodular g maps every d-subset determinant to ± itself, so the same
subsets stay admissible mod p; the ideal exponents, the Newton vertices,
the charts and whole resolution trees must map by g. `resolve` relies on
this to blow up each lattice class once, so its images of semigroups, its
class matcher and its trees are checked here too.
"""

import random
from math import gcd

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from nashtoric.blowup import log_jacobian_ideal, nash_blowup, newton_polyhedron
from nashtoric.cones import Cone
from nashtoric.errors import DimensionError, NotFullDimensionalError
from nashtoric.io import serialize, tree_payload
from nashtoric.linalg import det, dot, group_is_full_lattice, identity, images
from nashtoric.resolve import ResolutionTree, _composed, resolve
from nashtoric.semigroups import AffineSemigroup, LatticePairing, _surface_normal_form

from oracles import (
    log_jacobian_reference,
    random_unsaturated_generators,
    reference_payload,
    resolve_reference,
)


@st.composite
def _generators(draw):
    """(dim, generators) in dims 1-3: first coordinate positive, so the
    cone is pointed, and the generators span Z^dim as a group."""
    dim = draw(st.integers(1, 3))
    vector = st.tuples(st.integers(1, 4), *[st.integers(-3, 3)] * (dim - 1))
    gens = draw(st.lists(vector, min_size=dim, max_size=dim + 3))
    assume(group_is_full_lattice(gens, dim))
    return dim, gens


@st.composite
def _unimodular(draw, dim):
    """Rows of a random element of GL(dim, Z): elementary operations on the
    identity, then a signed permutation of the rows."""
    rows = [list(r) for r in identity(dim)]
    if dim > 1:
        for _ in range(draw(st.integers(0, 4))):
            i, j = draw(st.lists(st.integers(0, dim - 1), min_size=2, max_size=2, unique=True))
            k = draw(st.integers(-2, 2))
            rows[i] = [a + k * b for a, b in zip(rows[i], rows[j])]
    rows = draw(st.permutations(rows))
    signs = draw(st.lists(st.sampled_from((-1, 1)), min_size=dim, max_size=dim))
    return tuple(tuple(s * a for a in row) for s, row in zip(signs, rows))


def _apply(g, x):
    return tuple(dot(row, x) for row in g)


def _mapped(g, points):
    return tuple(sorted(_apply(g, x) for x in points))


def _mapped_tree(g, node):
    """The tree below node with every vector mapped by g, re-sorted."""
    return (
        _mapped(g, node.semigroup.minimal_generators()),
        node.status,
        node.depth,
        tuple(sorted((_apply(g, v), _mapped_tree(g, c)) for v, c in node.children)),
    )


@settings(max_examples=60, deadline=None, derandomize=True, database=None)
@given(_generators(), st.data())
def test_blowup_commutes_with_unimodular_maps(case, data):
    dim, gens = case
    g = data.draw(_unimodular(dim))
    one = identity(dim)
    S = AffineSemigroup(dim, gens)
    T = AffineSemigroup(dim, [_apply(g, x) for x in gens])
    assert T.minimal_generators() == _mapped(g, S.minimal_generators())
    p = data.draw(st.sampled_from((0, 2, 3)))
    ideal, image = log_jacobian_ideal(S, p), log_jacobian_ideal(T, p)
    assert image.exponents == _mapped(g, ideal.exponents)
    assert log_jacobian_reference(T, p)[1] == _mapped(g, log_jacobian_reference(S, p)[1])
    vertices = newton_polyhedron(ideal).vertices
    assert newton_polyhedron(image).vertices == _mapped(g, vertices)
    charts = nash_blowup(S, p)
    assert tuple(c.vertex for c in charts) == vertices
    assert sorted(
        (_apply(g, c.vertex), _mapped(g, c.semigroup.minimal_generators()))
        for c in charts
    ) == [(c.vertex, c.semigroup.minimal_generators()) for c in nash_blowup(T, p)]
    # unnormalized 3D trees grow fast, so they stop after two steps
    for normalize, depth in ((True, 3), (False, 2)):
        tree = resolve(S, p, normalize=normalize, max_depth=depth)
        mapped = resolve(T, p, normalize=normalize, max_depth=depth)
        assert _mapped_tree(one, mapped.root) == _mapped_tree(g, tree.root)


def test_surface_closed_form_commutes_with_unimodular_maps():
    # every normal surface class of index 2 <= n <= 30, the lattice points
    # on (1, 0) and (q, n), moved by the g taking a middle pair a_j, a_{j+1}
    # of its Hilbert basis, in chain order, to e1, e2: an element inside
    # the cone then has first coordinate 0, so the closed form reads its
    # string entry on the second coordinate
    one = identity(2)
    roots = 0
    for n in range(2, 31):
        for q in range(1, n):
            if gcd(q, n) != 1:
                continue
            roots += 1
            S = AffineSemigroup.from_cone(Cone.from_rays(((1, 0), (q, n)), 2))
            a = sorted(S.minimal_generators(), key=lambda x: dot(S.cone.halfspaces[0], x))
            j = (len(a) - 2) // 2
            (x0, x1), (y0, y1) = a[j], a[j + 1]
            # consecutive basis elements have determinant d = ±1, so d times
            # the adjugate inverts the matrix with columns a_j, a_{j+1}
            d = x0 * y1 - x1 * y0
            g = ((d * y1, -d * y0), (-d * x1, d * x0))
            T = AffineSemigroup.from_cone(Cone.from_rays(_mapped(g, S.cone.rays), 2))
            assert (0, 1) in T.minimal_generators() and (0, 1) not in T.cone.rays
            for p in (0, 2, 3):
                for normalize in (True, False):
                    assert [_mapped_chart(one, c) for c in nash_blowup(T, p, normalize)] == (
                        sorted(_mapped_chart(g, c) for c in nash_blowup(S, p, normalize))
                    ), (n, q, p, normalize)
    assert roots == 277


def _mapped_chart(g, chart):
    T = chart.semigroup
    return _apply(g, chart.vertex), _mapped(g, T.minimal_generators()), _mapped(g, T.cone.rays)


@settings(max_examples=25, deadline=None, derandomize=True, database=None)
@given(_generators(), st.data())
def test_generator_order_and_repeats_change_nothing(case, data):
    dim, gens = case
    S = AffineSemigroup(dim, gens)
    shuffled = data.draw(st.permutations(gens))
    extra = data.draw(st.lists(st.sampled_from(gens), max_size=4))
    T = AffineSemigroup(dim, shuffled + extra)
    assert T == S and T.minimal_generators() == S.minimal_generators()
    p = data.draw(st.sampled_from((0, 2, 3)))
    assert log_jacobian_ideal(T, p).exponents == log_jacobian_ideal(S, p).exponents
    assert nash_blowup(T, p) == nash_blowup(S, p)
    for normalize, depth in ((True, 3), (False, 2)):
        tree = resolve(S, p, normalize=normalize, max_depth=depth)
        assert resolve(T, p, normalize=normalize, max_depth=depth).shape() == tree.shape()


@settings(max_examples=60, deadline=None, derandomize=True, database=None)
@given(_generators(), st.data())
def test_images_equal_fresh_construction(case, data):
    dim, gens = case
    g = data.draw(_unimodular(dim))
    S = AffineSemigroup(dim, gens)
    if data.draw(st.booleans()):
        # image maps the minimal generators when they are known already
        S.minimal_generators()
    fresh = AffineSemigroup(dim, [_apply(g, x) for x in gens])
    T = S.image(g)
    assert T == fresh
    assert T.cone == fresh.cone
    assert T.cone.halfspaces == fresh.cone.halfspaces
    assert T.minimal_generators() == fresh.minimal_generators()
    assert T.is_saturated() == S.is_saturated()
    saturated = AffineSemigroup.from_cone(S.cone)
    fresh = AffineSemigroup.from_cone(Cone.from_rays(_mapped(g, S.cone.rays), dim))
    assert saturated.image(g) == fresh
    assert saturated.image(g).minimal_generators() == fresh.minimal_generators()
    assert S.image(g).cone == fresh.cone


def test_images_need_a_unimodular_map():
    S = AffineSemigroup(2, [(1, 0), (1, 1), (1, 2)])
    with pytest.raises(ValueError):
        S.image(((2, 0), (0, 1)))
    with pytest.raises(ValueError):
        S.image(((1, 1), (1, 1)))
    with pytest.raises(DimensionError):
        S.image(((1, 0),))
    # d rows of the wrong length are a shape error, not a determinant one
    for g in (((1, 0, 0), (0, 1, 0)), ((1,), (0, 1))):
        with pytest.raises(DimensionError, match="length 2"):
            S.image(g)
    # `resolve` composes its class maps unchecked by `image` and checks
    # each product once, by the same determinant: another one is a bug
    for g, det_g in ((((1, 2), (2, 4)), 0), (((2, 0), (0, 1)), 2)):
        with pytest.raises(RuntimeError, match=f"determinant {det_g}, expected ±1"):
            _composed(None, g)


def test_images_need_an_integer_map():
    # det 1 but not integral: it would take (1, 0) to (0.5, 0)
    S = AffineSemigroup.from_cone(Cone.from_rays([(1, 0), (1, 3)], 2))
    with pytest.raises(TypeError):
        S.image(((0.5, 0), (0, 2)))


@settings(max_examples=60, deadline=None, derandomize=True, database=None)
@given(_generators(), st.data())
def test_matcher_maps_a_semigroup_onto_its_image(case, data):
    dim, gens = case
    h = data.draw(_unimodular(dim))
    S = AffineSemigroup(dim, gens)
    T = AffineSemigroup(dim, [_apply(h, x) for x in gens])
    source, target = LatticePairing(S), LatticePairing(T)
    assert source.key == target.key
    g = source.map_to(target)
    assert g is not None
    # g need not be h when S has symmetries, but it must give the same image
    assert S.image(g) == S.image(h)
    assert S.image(g).minimal_generators() == T.minimal_generators()


@settings(max_examples=40, deadline=None, derandomize=True, database=None)
@given(st.integers(3, 4), st.data())
def test_matcher_maps_a_cone_onto_its_image(dim, data):
    # lattice-point semigroups in d >= 3 are paired on their cones' rays,
    # and neither side computes its Hilbert basis to be matched
    vector = st.tuples(st.integers(1, 4), *[st.integers(-3, 3)] * (dim - 1))
    rays = data.draw(st.lists(vector, min_size=dim, max_size=dim + 2))
    try:
        cone = Cone.from_rays(rays, dim)
    except NotFullDimensionalError:
        assume(False)
    h = data.draw(_unimodular(dim))
    S = AffineSemigroup.from_cone(cone)
    T = AffineSemigroup.from_cone(Cone.from_rays(images(h, cone.rays), dim))
    source, target = LatticePairing(S), LatticePairing(T)
    assert source.key == target.key
    g = source.map_to(target)
    assert S.generators is None and T.generators is None
    assert g is not None and det(g) in (1, -1)
    assert S.image(g).minimal_generators() == T.minimal_generators()


def test_matcher_separates_a_pair_with_equal_keys():
    # Found by a search over generator sets in [0, 3]^2 with one point on
    # each axis, bucketed by key. Both cones are the first quadrant, so a
    # map between them fixes or swaps e1 and e2, and neither sends one
    # generator set onto the other.
    R = AffineSemigroup(2, [(0, 3), (1, 3), (2, 0), (3, 2)])
    S = AffineSemigroup(2, [(0, 3), (2, 0), (3, 1), (3, 2)])
    assert R.minimal_generators() == ((0, 3), (1, 3), (2, 0), (3, 2))
    assert S.minimal_generators() == ((0, 3), (2, 0), (3, 1), (3, 2))
    assert R.cone == S.cone
    assert LatticePairing(R).key == LatticePairing(S).key
    assert LatticePairing(R).map_to(LatticePairing(S)) is None
    assert LatticePairing(S).map_to(LatticePairing(R)) is None


def test_matcher_separates_two_surfaces_of_one_index():
    # the lattice points of the cones on (1, 0), (1, 5) and on (1, 0),
    # (2, 5): both of index 5, but of the classes (5, 1) and (5, 2), so
    # a key that read the index alone would merge two different trees
    R = AffineSemigroup.from_cone(Cone.from_rays([(1, 0), (1, 5)], 2))
    S = AffineSemigroup.from_cone(Cone.from_rays([(1, 0), (2, 5)], 2))
    assert LatticePairing(R).map_to(LatticePairing(S)) is None
    assert LatticePairing(S).map_to(LatticePairing(R)) is None
    assert resolve(R, 0).shape() != resolve(S, 0).shape()


def test_matcher_needs_a_unimodular_map_between_cones():
    # found by a search over 3D cones: R has 5 Hilbert basis elements and
    # S has 7, yet their ray pairings have equal keys, and an integral map
    # of determinant 3 sends R's rays onto S's. Keyed on rays, a match
    # must also have determinant ±1
    R = AffineSemigroup.from_cone(Cone.from_rays([(-1, 0, 1), (0, 1, 2), (2, 1, 3)], 3))
    S = AffineSemigroup.from_cone(Cone.from_rays([(1, -2, -1), (1, -2, 2), (2, -1, 1)], 3))
    g = ((0, -1, 1), (1, 0, -1), (0, 4, -1))
    assert det(g) == 3 and set(images(g, R.cone.rays)) == set(S.cone.rays)
    assert LatticePairing(R).key == LatticePairing(S).key
    assert LatticePairing(R).map_to(LatticePairing(S)) is None
    assert LatticePairing(S).map_to(LatticePairing(R)) is None
    assert (len(R.minimal_generators()), len(S.minimal_generators())) == (5, 7)


def test_matcher_passes_over_a_non_integral_candidate():
    # the search's first full candidate B gives g = B·adj(A)/det(A) with
    # non-integral entries; the next one is the map
    S = AffineSemigroup.from_cone(Cone.from_rays([(1, 2, 2), (2, 0, 3), (3, 4, 1)], 3))
    T = S.image(((-1, -1, -1), (-1, 0, -1), (-1, -1, 0)))
    g = LatticePairing(S).map_to(LatticePairing(T))
    assert g == ((2, -2, -3), (0, -1, -1), (3, -2, -3))
    assert S.image(g).minimal_generators() == T.minimal_generators()


def _normal_surfaces():
    """The lattice points of the cones on (1, 0) and (a, n), 2 <= n <= 40
    and gcd(a, n) = 1: every class of normal surface singularity of index
    at most 40, most of them several times."""
    return [
        AffineSemigroup.from_cone(Cone.from_rays([(1, 0), (a, n)], 2))
        for n in range(2, 41)
        for a in range(1, n)
        if gcd(a, n) == 1
    ]


def test_normal_form_classes_are_the_matcher_classes():
    # the normal form (n, q) keys normal surfaces in `resolve` in place of
    # LatticePairing and map_to: both must split the roots alike
    roots = _normal_surfaces()
    assert len(roots) == 489
    by_form = {}
    for i, S in enumerate(roots):
        by_form.setdefault(_surface_normal_form(*S.cone.rays)[0], []).append(i)
    by_match = []  # (pairing of the first member, member indices)
    for i, S in enumerate(roots):
        pairing = LatticePairing(S)
        for first, members in by_match:
            if first.map_to(pairing) is not None:
                members.append(i)
                break
        else:
            by_match.append((pairing, [i]))
    assert len(by_form) == len(by_match) == 302
    assert sorted(by_form.values()) == sorted(members for _, members in by_match)


def _random_unimodular(rng):
    """Rows of an element of GL(2, Z): shears of the identity, then a row
    swap and signs, each drawn from rng."""
    rows = [[1, 0], [0, 1]]
    for _ in range(rng.randint(1, 4)):
        i = rng.randint(0, 1)
        k = rng.randint(-3, 3)
        rows[i] = [a + k * b for a, b in zip(rows[i], rows[1 - i])]
    rng.shuffle(rows)
    signs = [rng.choice((-1, 1)) for _ in rows]
    return tuple(tuple(s * a for a in row) for s, row in zip(signs, rows))


def test_normal_form_is_invariant_and_its_hits_map_exactly():
    # each root and a random GL(2, Z) image of it, keyed as `resolve` keys
    # them: the image has the root's key, A sends the rays to (1, 0) and
    # (q, n), and every hit's map sends its class's representative onto
    # the semigroup keyed
    rng = random.Random(2022)
    roots = _normal_surfaces()
    graph = ResolutionTree(roots[0], 0, True, 1)
    hits = 0
    for S in roots:
        h = _random_unimodular(rng)
        T = AffineSemigroup.from_cone(Cone.from_rays(images(h, S.cone.rays), 2))
        (n, q), A = _surface_normal_form(*S.cone.rays)
        assert _surface_normal_form(*T.cone.rays)[0] == (n, q)
        assert sorted(images(A, S.cone.rays)) == sorted([(1, 0), (q, n)])
        for U in (S, T):
            k, g = graph._key(U, 1)
            if g is not None:
                hits += 1
                assert graph.classes[k][0].image(g) == U
    # the graph made roots[0] class 0 when it was built, so every key in
    # the loop hits but the 301 that make the other classes
    assert len(graph.classes) == 302
    assert hits == 2 * len(roots) - 301


# the deepest tree drawn per (dim, saturated root, normalize): unnormalized
# and unsaturated 4D trees take seconds per level
_DEPTH_LIMIT = {
    (2, True, True): 4,
    (2, True, False): 4,
    (2, False, True): 4,
    (2, False, False): 4,
    (3, True, True): 4,
    (3, True, False): 3,
    (3, False, True): 3,
    (3, False, False): 2,
    (4, True, True): 2,
    (4, True, False): 2,
    (4, False, True): 1,
    (4, False, False): 1,
}


@st.composite
def _root(draw):
    """(dim, generators, saturated): a saturated root with cone rays
    e_1, ..., e_{d-1}, u, or an unsaturated one, in dims 2-4, listed under
    a random basis change."""
    dim = draw(st.integers(2, 4))
    saturated = draw(st.booleans())
    if saturated:
        u = draw(st.tuples(*[st.integers(1, 6)] * dim))
        rays = list(identity(dim)[:-1]) + [u]
        gens = AffineSemigroup.from_cone(Cone.from_rays(rays, dim)).minimal_generators()
    else:
        gens = random_unsaturated_generators(random.Random(draw(st.integers(0, 10**6))), dim)
    g = draw(_unimodular(dim))
    return dim, [_apply(g, x) for x in gens], saturated


@settings(max_examples=60, deadline=None, derandomize=True, database=None)
@given(_root(), st.data())
def test_resolve_matches_the_plain_recursion(root, data):
    dim, gens, saturated = root
    normalize = data.draw(st.booleans())
    p = data.draw(st.sampled_from((0, 2, 3)))
    depth = data.draw(st.integers(1, _DEPTH_LIMIT[dim, saturated, normalize]))
    S = AffineSemigroup(dim, gens)
    tree = resolve(S, p, normalize=normalize, max_depth=depth)
    reference = resolve_reference(S, p, normalize=normalize, max_depth=depth)
    assert serialize(tree_payload(tree)) == serialize(reference_payload(reference))
