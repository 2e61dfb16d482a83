"""Metamorphic tests: a Nash blowup commutes with GL(d, Z).

A unimodular g maps every d-subset determinant to ± itself, so the same
subsets stay admissible mod p; the ideal exponents, the Newton vertices,
the charts and whole resolution trees must map by g. `resolve` relies on
this to blow up each lattice class once, so its images of cones and
semigroups, its class matcher and its trees are checked here too.
"""

import random

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from nashtoric.blowup import log_jacobian_ideal, nash_blowup, newton_polyhedron
from nashtoric.cones import Cone
from nashtoric.io import serialize, tree_payload
from nashtoric.linalg import dot, group_is_full_lattice, identity
from nashtoric.resolve import resolve
from nashtoric.semigroups import AffineSemigroup, LatticePairing

from oracles import log_jacobian_reference, random_unsaturated_generators, resolve_reference


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
    assert S.cone.image(g).halfspaces == fresh.cone.halfspaces


def test_images_need_a_unimodular_map():
    S = AffineSemigroup(2, [(1, 0), (1, 1), (1, 2)])
    with pytest.raises(ValueError):
        S.image(((2, 0), (0, 1)))
    with pytest.raises(ValueError):
        S.cone.image(((1, 1), (1, 1)))


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
    assert serialize(tree_payload(tree)) == serialize(tree_payload(reference))
