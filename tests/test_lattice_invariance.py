"""Metamorphic tests: a Nash blowup commutes with GL(d, Z).

A unimodular g maps every d-subset determinant to ± itself, so the same
subsets stay admissible mod p; the ideal exponents, the Newton vertices,
the charts and whole resolution trees must map by g.
"""

from hypothesis import assume, given, settings
from hypothesis import strategies as st

from nashtoric.blowup import log_jacobian_ideal, nash_blowup, newton_polyhedron
from nashtoric.linalg import dot, group_is_full_lattice, identity
from nashtoric.resolve import resolve
from nashtoric.semigroups import AffineSemigroup


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
    assert image.raw_exponents == _mapped(g, ideal.raw_exponents)
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
