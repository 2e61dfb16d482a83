import gc
import hashlib
import random
import sys

import pytest

from nashtoric import blowup
from nashtoric.blowup import log_jacobian_ideal, nash_blowup, newton_polyhedron, walk_start
from nashtoric.cones import Cone
from nashtoric.errors import CharacteristicError
from nashtoric.io import parse_input, serialize, tree_payload
from nashtoric.resolve import (
    DEPTH_CAPPED,
    EXPANDED,
    MAX_DEPTH,
    SMOOTH_LEAF,
    TRIVIAL_STALL,
    compare_characteristics,
    resolve,
    surface_termination_suite,
)
from nashtoric.semigroups import AffineSemigroup

from oracles import resolve_reference


def random_saturated_surface(rng, bound=20):
    while True:
        a = (rng.randint(1, bound), rng.randint(1, bound))
        b = (rng.randint(1, bound), rng.randint(1, bound))
        if a[0] * b[1] - a[1] * b[0] != 0:
            return AffineSemigroup.from_cone(Cone.from_rays((a, b), 2))


def test_threefold_char2_tree(threefold):
    tree = resolve(threefold, 2)
    assert tree.characteristic == 2
    assert tree.normalize is True
    assert tree.max_depth == 64
    assert tree.depth() == 2
    nodes = list(tree.nodes())
    assert len(nodes) == 16
    assert tree.statuses() == {EXPANDED, SMOOTH_LEAF}

    root = tree.root
    assert root.status == EXPANDED
    assert len(root.semigroup.minimal_generators()) == 4
    assert tuple(v for v, _ in root.children) == ((2, 2, 1), (2, 3, 3), (3, 2, 3))

    middle = [n for n in nodes if n.depth == 1]
    assert len(middle) == 3
    for node in middle:
        assert node.status == EXPANDED
        assert len(node.semigroup.minimal_generators()) == 6
        assert len(node.children) == 4

    leaves = [n for n in nodes if n.depth == 2]
    assert len(leaves) == 12
    for node in leaves:
        assert node.status == SMOOTH_LEAF
        assert node.children == ()
        assert len(node.semigroup.minimal_generators()) == 3
        assert node.semigroup.is_smooth()


def test_threefold_char0_tree(threefold):
    # the extra vertex (2,2,2) gives a fourth chart and a shallower tree
    tree = resolve(threefold, 0)
    assert tree.depth() == 1
    root = tree.root
    assert root.status == EXPANDED
    assert tuple(v for v, _ in root.children) == (
        (2, 2, 1), (2, 2, 2), (2, 3, 3), (3, 2, 3),
    )
    for _, child in root.children:
        assert child.status == SMOOTH_LEAF
        assert len(child.semigroup.minimal_generators()) == 3


def test_cusp_stalls_without_normalization(cusp):
    for p in (2, 3):
        tree = resolve(cusp, p, normalize=False)
        assert tree.depth() == 0
        assert tree.root.status == TRIVIAL_STALL
        assert tree.root.children == ()
        assert list(tree.nodes()) == [tree.root]
    # char 0 reaches the smooth chart even without saturating
    tree0 = resolve(cusp, 0, normalize=False)
    assert tree0.depth() == 1
    assert tree0.statuses() == {EXPANDED, SMOOTH_LEAF}


def test_cusp_resolves_with_normalization(cusp):
    tree = resolve(cusp, 2, normalize=True)
    assert tree.depth() == 1
    assert tree.root.status == EXPANDED
    ((vertex, child),) = tree.root.children
    assert vertex == (3,)
    assert child.status == SMOOTH_LEAF
    assert child.semigroup.minimal_generators() == ((1,),)


def test_depth_cap(threefold):
    tree = resolve(threefold, 2, max_depth=1)
    assert tree.depth() == 1
    assert tree.root.status == EXPANDED
    assert {n.status for n in tree.nodes() if n.depth == 1} == {DEPTH_CAPPED}
    for node in tree.nodes():
        if node.status == DEPTH_CAPPED:
            assert node.children == ()
            assert not node.semigroup.is_smooth()


def test_smooth_input_is_a_leaf():
    S = AffineSemigroup(2, [(1, 0), (0, 1)])
    tree = resolve(S, 5)
    assert tree.root.status == SMOOTH_LEAF
    assert tree.depth() == 0
    assert tree.root.semigroup is S


def test_resolve_argument_validation(cusp):
    with pytest.raises(ValueError):
        resolve(cusp, 2, max_depth=0)
    with pytest.raises(ValueError, match=str(MAX_DEPTH)):
        resolve(cusp, 2, max_depth=MAX_DEPTH + 1)
    with pytest.raises(ValueError, match=str(MAX_DEPTH)):
        surface_termination_suite(0, 0, max_depth=MAX_DEPTH + 1)
    with pytest.raises(CharacteristicError):
        resolve(cusp, 4)


def test_max_depth_must_be_an_integer():
    # a depth of 1.5 is never reached, so nothing would be capped
    S = AffineSemigroup.from_cone(Cone.from_rays(((1, 0), (13, 47)), 2))
    for bad in (1.5, True, False, "2"):
        with pytest.raises(TypeError):
            resolve(S, 0, max_depth=bad)
        with pytest.raises(TypeError):
            surface_termination_suite(0, 1, max_depth=bad)
    tree = resolve(S, 0, max_depth=1)
    assert tree.depth() == 1
    assert DEPTH_CAPPED in tree.statuses()
    assert '"max_depth":1,' in serialize(tree_payload(tree))


def test_normalized_capped_nodes_skip_the_blowup(threefold, monkeypatch):
    full = resolve(threefold, 2)
    module = sys.modules[resolve.__module__]
    calls = []

    def counted(S, p, normalize=True, start=None):
        calls.append(S)
        return nash_blowup(S, p, normalize, start)

    monkeypatch.setattr(module, "nash_blowup", counted)
    capped = resolve(threefold, 2, max_depth=1)
    # only the root is blown up; its depth-1 charts are capped untouched
    assert len(calls) == 1
    expected = (
        full.root.semigroup.minimal_generators(),
        EXPANDED,
        tuple(
            (v, (child.semigroup.minimal_generators(), DEPTH_CAPPED, ()))
            for v, child in full.root.children
        ),
    )
    assert capped.shape() == expected


def _capped_prefix(node, cap):
    """Shape of the tree below node as resolve(..., max_depth=cap) must build it."""
    gens = node.semigroup.minimal_generators()
    if node.depth < cap:
        return (
            gens,
            node.status,
            tuple((v, _capped_prefix(child, cap)) for v, child in node.children),
        )
    return (gens, DEPTH_CAPPED if node.status == EXPANDED else node.status, ())


def test_unnormalized_capped_nodes_skip_the_blowup(cusp, monkeypatch):
    S = AffineSemigroup.from_cone(Cone.from_rays(((4, 1), (3, 2)), 2))
    full = resolve(S, 2, normalize=False, max_depth=6)
    depth1 = [child for _, child in full.root.children]
    vertex_counts = [
        len(newton_polyhedron(log_jacobian_ideal(c.semigroup, 2)).vertices)
        for c in depth1
        if not c.semigroup.is_smooth()
    ]
    # one capped node has two vertices, so it cannot stall
    assert sorted(vertex_counts) == [1, 1, 2]
    module = sys.modules[resolve.__module__]
    calls = []

    def counted(T, p, normalize=True, start=None):
        calls.append(T)
        return nash_blowup(T, p, normalize, start)

    def enumeration(*args, **kwargs):
        raise AssertionError("unnormalized resolve enumerated the ideal exponents")

    monkeypatch.setattr(module, "nash_blowup", counted)
    for name in ("log_jacobian_ideal", "newton_polyhedron", "blowup_charts"):
        monkeypatch.setattr(module, name, enumeration, raising=False)
    capped = resolve(S, 2, normalize=False, max_depth=1)
    # only the root is blown up; a stall at the cap is read off the
    # exchanges and a capped node builds no chart
    assert calls == [S]
    assert capped.shape() == _capped_prefix(full.root, 1)
    assert {c.status for _, c in capped.root.children} == {TRIVIAL_STALL, DEPTH_CAPPED}
    # <2,5> blows up to the cusp in p = 3, which stalls right at the cap
    root = AffineSemigroup(1, [(2,), (5,)])
    calls.clear()
    tree = resolve(root, 3, normalize=False, max_depth=1)
    assert calls == [root]
    ((_, child),) = tree.root.children
    assert child.semigroup.minimal_generators() == cusp.minimal_generators()
    assert child.status == TRIVIAL_STALL
    assert tree.shape() == _capped_prefix(resolve(root, 3, normalize=False).root, 1)


def test_unnormalized_nodes_compute_one_start_basis(cusp, monkeypatch):
    # the stall test's start basis and exchanges also start the walk, so a
    # non-smooth node costs one start basis whether it stalls, sits at the
    # cap, or is blown up; a node whose lattice class was blown up before
    # takes the mapped charts and ignores its basis
    root = AffineSemigroup.from_cone(Cone.from_rays(((1, 0, 0), (0, 1, 0), (2, 5, 7)), 3))
    module = sys.modules[resolve.__module__]
    calls = []

    def counted(S, p):
        calls.append(S)
        return walk_start(S, p)

    # the resolve module's binding serves the nodes; the blowup module's
    # would serve a walk that had to find its own start
    for bound in (module, blowup):
        monkeypatch.setattr(bound, "walk_start", counted)
    expanded = 0
    for S in (cusp, root):
        for p in (0, 2):
            calls.clear()
            tree = resolve(S, p, normalize=False, max_depth=3)
            singular = [n.semigroup for n in tree.nodes() if n.status != SMOOTH_LEAF]
            assert len(calls) == len(singular)
            assert {id(T) for T in calls} == {id(T) for T in singular}
            expanded += sum(n.status == EXPANDED for n in tree.nodes())
    assert expanded >= 3


def test_unnormalized_threefold_matches_the_plain_recursion():
    # a 3D unsaturated semigroup with six generators, none redundant: the
    # sweeps and stall tests of its unsaturated nodes run the framed search
    root = AffineSemigroup(3, [(4, 2, 0), (3, 1, 2), (2, -1, -3), (4, -3, 3), (3, 0, -2), (2, -2, 0)])
    for p, nodes in ((0, 111), (2, 3), (3, 68)):
        tree = resolve(root, p, normalize=False, max_depth=2)
        assert tree.shape() == resolve_reference(root, p, normalize=False, max_depth=2).shape()
        assert len(list(tree.nodes())) == nodes


def test_resolve_is_deterministic(threefold):
    a = resolve(threefold, 2)
    b = resolve(threefold, 2)
    assert a.shape() == b.shape()
    assert serialize(tree_payload(a)) == serialize(tree_payload(b))


def test_node_invariants(threefold, cusp):
    trees = [
        resolve(threefold, 2),
        resolve(threefold, 0),
        resolve(cusp, 2, normalize=False),
        resolve(threefold, 2, max_depth=1),
    ]
    rng = random.Random(602)
    for _ in range(5):
        trees.append(resolve(random_saturated_surface(rng), 2))
    for tree in trees:
        for node in tree.nodes():
            assert (node.status == EXPANDED) == bool(node.children)
            assert node.status in {SMOOTH_LEAF, EXPANDED, TRIVIAL_STALL, DEPTH_CAPPED}
            if node.status == SMOOTH_LEAF:
                assert node.semigroup.is_smooth()
            else:
                assert not node.semigroup.is_smooth()
            for _, child in node.children:
                assert child.depth == node.depth + 1
            assert node.depth <= tree.max_depth


def test_compare_characteristics_threefold(threefold):
    cmp = compare_characteristics(threefold, (0, 2))
    assert not cmp.all_equal
    assert cmp.pairs == ((0, 2, False),)
    assert tuple(e.characteristic for e in cmp.entries) == (0, 2)
    assert (2, 2, 2) in cmp.entries[0].vertices
    assert (2, 2, 2) not in cmp.entries[1].vertices


def test_compare_characteristics_cusp(cusp):
    cmp = compare_characteristics(cusp, (2, 3))
    assert [(e.characteristic, e.exponents, e.vertices) for e in cmp.entries] == [
        (2, ((3,),), ((3,),)),
        (3, ((2,),), ((2,),)),
    ]
    assert cmp.pairs == ((2, 3, False),)
    assert not cmp.all_equal


def test_compare_characteristics_surfaces_agree():
    rng = random.Random(603)
    for _ in range(15):
        S = random_saturated_surface(rng)
        cmp = compare_characteristics(S, (0, 2, 3, 5))
        assert cmp.all_equal
        assert len(cmp.pairs) == 6


def test_compare_characteristics_empty(cusp):
    # as `surface_termination_suite`: an empty list is an error, not a report
    with pytest.raises(ValueError, match="at least one characteristic"):
        compare_characteristics(cusp, ())


def test_two_chart_surface_resolution():
    S = AffineSemigroup.from_cone(Cone.from_rays(((1, 0), (1, 2)), 2))
    shapes = set()
    for p in (0, 2, 3):
        tree = resolve(S, p)
        assert tree.depth() == 1
        assert tuple(v for v, _ in tree.root.children) == ((2, 1), (2, 3))
        assert all(c.status == SMOOTH_LEAF for _, c in tree.root.children)
        shapes.add(tree.shape())
    assert len(shapes) == 1


def test_suite_summary_coherent():
    summary = surface_termination_suite(11, 5, entry_bound=12)
    assert summary.seed == 11
    assert summary.count == 5
    assert summary.entry_bound == 12
    assert summary.characteristics == (0, 2, 3, 5)
    assert len(summary.runs) == 5
    for run in summary.runs:
        assert len(run.rays) == 2
        for ray in run.rays:
            assert len(ray) == 2
        assert len(run.depths) == 4
        assert run.terminated
        assert run.leaves_smooth
        assert run.characteristic_independent
    assert summary.all_terminated
    assert summary.all_leaves_smooth
    assert summary.all_characteristic_independent
    assert summary.max_depth_observed == max(max(r.depths) for r in summary.runs)


def test_suite_reproducible():
    a = surface_termination_suite(7, 4, entry_bound=10)
    b = surface_termination_suite(7, 4, entry_bound=10)
    assert a == b


def test_suite_edge_cases():
    empty = surface_termination_suite(0, 0)
    assert empty.runs == ()
    assert empty.max_depth_observed == 0
    assert empty.all_terminated
    with pytest.raises(ValueError):
        surface_termination_suite(0, -1)
    with pytest.raises(CharacteristicError):
        surface_termination_suite(0, 1, characteristics=(4,))
    # no characteristic resolves nothing, so it is refused before the draw
    for count in (0, 2):
        with pytest.raises(ValueError, match="characteristics"):
            surface_termination_suite(0, count, characteristics=())
    # entries in [1, 1] give only the ray (1, 1), so the draw never ends
    for bound in (1, 0, -3):
        with pytest.raises(ValueError, match="at least 2"):
            surface_termination_suite(0, 1, entry_bound=bound)
    # count and entry_bound must be integers, as max_depth must
    for bad in (2.5, True, "3", None):
        with pytest.raises(TypeError):
            surface_termination_suite(0, bad, entry_bound=5, characteristics=(0,))
        with pytest.raises(TypeError):
            surface_termination_suite(0, 1, entry_bound=bad, characteristics=(0,))
    runs = surface_termination_suite(0, 3, entry_bound=2).runs
    assert len(runs) == 3
    assert all(set(ray) <= {1, 2} for run in runs for ray in run.rays)


def test_fourfold_root_blows_up_each_lattice_class_once(monkeypatch):
    document = (
        '{"dimension": 4, "characteristic": 0, '
        '"cone_rays": [[1,0,0,0], [0,1,0,0], [0,0,1,0], [3,5,7,11]]}'
    )
    module = sys.modules[resolve.__module__]
    calls = []

    def counted(S, p, normalize=True, start=None):
        calls.append(S)
        return nash_blowup(S, p, normalize, start)

    monkeypatch.setattr(module, "nash_blowup", counted)
    tree = resolve(parse_input(document).semigroup(), 0)
    nodes = list(tree.nodes())
    assert len(nodes) == 2389
    assert tree.depth() == 7
    # 338 nodes are blown up, but they fall into 89 lattice classes
    assert sum(node.status == EXPANDED for node in nodes) == 338
    assert len(calls) == 89
    text = serialize(tree_payload(tree))
    assert hashlib.sha256(text.encode()).hexdigest() == (
        "4c3fe2ea591ddee8e44165b880859e897cbf990f53a360faac6682cb598bbf03"
    )


def test_resolution_and_rendering_leave_no_cyclic_garbage():
    # a recursive closure is a reference cycle; with the collector off,
    # one left behind by resolve or by a renderer shows up in gc.collect()
    S = AffineSemigroup.from_cone(Cone.from_rays([(1, 0), (47, 50)], 2))
    gc.collect()
    gc.disable()
    try:
        tree = resolve(S, 0)
        assert gc.collect() == 0
        payload = tree_payload(tree)
        for format in ("dot", "text"):
            serialize(payload, format)
            assert gc.collect() == 0, format
    finally:
        gc.enable()
