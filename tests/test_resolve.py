import gc
import hashlib
import math
import random
import sys

import numpy as np
import pytest

from nashtoric import blowup, cli
from nashtoric.blowup import log_jacobian_ideal, nash_blowup, newton_polyhedron
from nashtoric.cones import Cone
from nashtoric.errors import CharacteristicError
from nashtoric.io import parse_input, serialize, tree_payload
from nashtoric.resolve import (
    DEPTH_CAPPED,
    EXPANDED,
    MAX_DEPTH,
    SMOOTH_LEAF,
    TRIVIAL_STALL,
    ResolutionTree,
    compare_characteristics,
    resolve,
    surface_termination_suite,
)
from nashtoric.semigroups import AffineSemigroup, LatticePairing, _surface_normal_form

from oracles import resolve_reference, small_numerical_semigroups
from test_blowup import P2_SELF_LOOP_WITNESS
from test_console import CONSOLE, DUAL_3D_P0
from test_perfbench import workloads


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


def test_numerical_semigroups_stall_within_one_step_in_characteristic_two():
    # README, "How `resolve` works": in p = 2 the least odd generator is the
    # chart's only odd minimal generator, so a curve stalls at height <= 1;
    # (resolved, stalled) in the other characteristics, unnormalized
    curves = small_numerical_semigroups()
    assert len(curves) == 205
    counts = {0: (205, 0), 2: (0, 205), 3: (27, 178), 5: (79, 126), 7: (120, 85)}
    for p, expected in counts.items():
        trees = [resolve(S, p, normalize=False) for S in curves]
        resolved = [T for T in trees if T.statuses() <= {EXPANDED, SMOOTH_LEAF}]
        stalled = [T for T in trees if TRIVIAL_STALL in T.statuses()]
        assert (len(resolved), len(stalled)) == expected, p
        if p == 2:
            assert all(T.depth() <= 1 for T in stalled)


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


def test_characteristic_reads_any_integer_type_but_bool():
    # numpy integers are read through operator.index, as max_depth is, and
    # the results carry a plain int
    S = AffineSemigroup.from_cone(Cone.from_rays(((1, 0), (13, 47)), 2))
    for p in (2, 3):
        ideal = log_jacobian_ideal(S, np.int64(p))
        assert type(ideal.characteristic) is int and ideal.characteristic == p
        assert ideal.exponents == log_jacobian_ideal(S, p).exponents
        tree = resolve(S, np.int64(p))
        assert type(tree.characteristic) is int
        assert tree.shape() == resolve(S, p).shape()
    for bad in (2.0, "2", None, True):
        with pytest.raises(CharacteristicError):
            resolve(S, bad)
        with pytest.raises(CharacteristicError):
            log_jacobian_ideal(S, bad)


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

    def counted(S, p, normalize=True):
        calls.append(S)
        return nash_blowup(S, p, normalize)

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

    def counted(T, p, normalize=True):
        calls.append(T)
        return nash_blowup(T, p, normalize)

    def enumeration(*args, **kwargs):
        raise AssertionError("unnormalized resolve enumerated the ideal exponents")

    monkeypatch.setattr(module, "nash_blowup", counted)
    for name in ("log_jacobian_ideal", "newton_polyhedron", "blowup_charts"):
        monkeypatch.setattr(module, name, enumeration, raising=False)
    capped = resolve(S, 2, normalize=False, max_depth=1)
    # only the root is blown up; a stall at the cap is read off residues
    # mod p and a capped node builds no chart
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


def test_unnormalized_exchanges_run_once_per_chart_built(cusp, monkeypatch):
    # a stall is read off residues mod p, so only a walk computes exchanges,
    # once per chart it builds: a node that stalls, sits at the cap, or is
    # expanded from a lattice class met before computes none
    root = AffineSemigroup.from_cone(Cone.from_rays(((1, 0, 0), (0, 1, 0), (2, 5, 7)), 3))
    module = sys.modules[resolve.__module__]
    exchanges = blowup._exchanges
    walks = []  # (semigroup, charts built)
    calls = {"walk": 0, "elsewhere": 0}
    inside = [False]

    def counted_exchanges(basis, gens, p):
        calls["walk" if inside[0] else "elsewhere"] += 1
        return exchanges(basis, gens, p)

    def counted_blowup(S, p, normalize=True):
        inside[0] = True
        try:
            charts = nash_blowup(S, p, normalize)
        finally:
            inside[0] = False
        walks.append((S, len(charts)))
        return charts

    monkeypatch.setattr(blowup, "_exchanges", counted_exchanges)
    monkeypatch.setattr(module, "nash_blowup", counted_blowup)
    unwalked = {TRIVIAL_STALL: 0, DEPTH_CAPPED: 0, EXPANDED: 0}
    for S in (cusp, root, _dual_root((15, 14), (12, 18))):
        for p in (0, 2, 3):
            walks.clear()
            calls.update(walk=0, elsewhere=0)
            tree = resolve(S, p, normalize=False, max_depth=3)
            assert calls == {"walk": sum(n for _, n in walks), "elsewhere": 0}
            walked = {id(T) for T, _ in walks}
            for node in tree.nodes():
                if id(node.semigroup) not in walked and node.status != SMOOTH_LEAF:
                    unwalked[node.status] += 1
            assert len(walked) == len(walks)
    # the expanded nodes counted here are linked: expanded from their class
    assert min(unwalked.values()) >= 5, unwalked


def test_unnormalized_stall_test_reads_no_basis_and_no_cone(monkeypatch, cone_conversions):
    # dual (15,14),(12,18), p = 0, to depth 6: 153 nodes and 32 blowups.
    # Reading a stall off the start basis's exchanges took 186 exchanges,
    # 141 membership searches and 69 image cone conversions, for nodes
    # that stall, sit at the cap or are expanded from their class
    module = sys.modules[resolve.__module__]
    calls = {"blowup": 0, "exchanges": 0, "membership": 0}

    def counter(name, f):
        def counted(*args, **kwargs):
            calls[name] += 1
            return f(*args, **kwargs)

        return counted

    monkeypatch.setattr(module, "nash_blowup", counter("blowup", nash_blowup))
    monkeypatch.setattr(blowup, "_exchanges", counter("exchanges", blowup._exchanges))
    monkeypatch.setattr(
        AffineSemigroup, "membership", counter("membership", AffineSemigroup.membership)
    )
    tree = resolve(_dual_root((15, 14), (12, 18)), 0, normalize=False, max_depth=6)
    assert len(list(tree.nodes())) == 153
    assert calls == {"blowup": 32, "exchanges": 77, "membership": 0}
    assert cone_conversions == [0]


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


def test_surface_height_is_at_most_log2_of_the_index():
    # every normal 2D class of index n is the lattice points of the cone
    # on (1,0), (a,n), 0 <= a < n, gcd(a, n) = 1; its tree's height is at
    # most ceil(log2 n), and exactly that at a = n - 1
    roots = 0
    for n in range(2, 41):
        bound = (n - 1).bit_length()
        for a in range(n):
            if math.gcd(a, n) != 1:
                continue
            S = AffineSemigroup.from_cone(Cone.from_rays(((1, 0), (a, n)), 2))
            depth = resolve(S, 0).depth()
            assert depth <= bound, (a, n)
            assert a < n - 1 or depth == bound, (a, n)
            roots += 1
    assert roots == 489


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
    assert [r.rays for r in a.runs] == [
        ((2, 1), (7, 1)),
        ((1, 3), (2, 9)),
        ((9, 4), (10, 1)),
        ((1, 1), (1, 2)),
    ]
    assert [r.depths for r in a.runs] == [(1,) * 4, (2,) * 4, (1,) * 4, (0,) * 4]


def test_suite_edge_cases():
    empty = surface_termination_suite(0, 0)
    assert empty.runs == ()
    assert empty.max_depth_observed == 0
    assert empty.all_terminated
    with pytest.raises(ValueError):
        surface_termination_suite(0, -1)
    # a seed of None would draw from the OS and report "seed": null, so
    # no run could be replayed; the others would be printed as the seed
    for seed in (None, True, "abc", 1.5):
        with pytest.raises(TypeError):
            surface_termination_suite(seed, 1)
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

    def counted(S, p, normalize=True):
        calls.append(S)
        return nash_blowup(S, p, normalize)

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
    # resolve's class memo links classes by index, so a class whose chart
    # lies in its own class, as the p = 2 self-loop witness's does, is no
    # reference cycle and needs no cleanup; with the collector off, a
    # cycle left behind by resolve or by a renderer shows up in gc.collect()
    S = AffineSemigroup.from_cone(Cone.from_rays([(1, 0), (47, 50)], 2))
    W = AffineSemigroup(4, P2_SELF_LOOP_WITNESS)
    gc.collect()
    gc.disable()
    try:
        tree = resolve(S, 0)
        assert gc.collect() == 0
        payload = tree_payload(tree)
        for format in ("dot", "text"):
            serialize(payload, format)
            assert gc.collect() == 0, format
        assert len(list(resolve(W, 2, max_depth=2).nodes())) == 41
        assert gc.collect() == 0
    finally:
        gc.enable()


def _dual_root(a, b):
    return AffineSemigroup.from_cone(Cone.from_rays([a, b], 2))


def _witness():
    return AffineSemigroup(4, P2_SELF_LOOP_WITNESS)


def _dual_1224():
    return AffineSemigroup.from_cone(
        Cone.from_rays([(1, 0, 0, 0), (0, 1, 0, 0), (0, 0, 1, 0), (1, 2, 2, 4)], 4)
    )


@pytest.mark.parametrize(
    "root, characteristics, normalize, max_depths",
    [
        (((33, 16), (16, 49)), (0, 2, 3, 5), True, (64,)),
        (((47, 48), (27, 25)), (0, 2, 3, 5), True, (64,)),
        (((43, 44), (47, 8)), (0, 2, 3, 5), True, (64,)),
        (((11, 35), (35, 11)), (0, 2, 3, 5), True, (64,)),
        (_witness, (2,), True, range(1, 6)),
        (_dual_1224, (2,), True, range(1, 6)),
        (((1, 7), (12, 11)), (0, 2, 3), False, (6,)),
        (((15, 14), (12, 18)), (0, 2, 3), False, (6,)),
    ],
    ids=[
        "33-16-16-49",
        "47-48-27-25",
        "43-44-47-8",
        "11-35-35-11",
        "self-loop-witness-depths-1-5",
        "dual-1224-depths-1-5",
        "unnormalized-1-7-12-11",
        "unnormalized-15-14-12-18",
    ],
)
def test_class_links_give_the_plain_recursion(root, characteristics, normalize, max_depths):
    # a child expanded through its class link gets the map g·h from the
    # link instead of the one map_to finds; the (11,35) root is its own
    # image under the swap, and two of the linked children in its tree
    # get a g·h other than map_to's, in each characteristic. The p = 2
    # roots with cyclic class graphs run every cap from 1 to 5, so each
    # class level meets the cap; the unnormalized roots end in stalls
    # and caps, tested once per class
    S = root() if callable(root) else _dual_root(*root)
    if not callable(root) and root[0] == root[1][::-1]:
        assert S.image(((0, 1), (1, 0))) == S
    for p in characteristics:
        for max_depth in max_depths:
            tree = resolve(S, p, normalize=normalize, max_depth=max_depth)
            reference = resolve_reference(S, p, normalize=normalize, max_depth=max_depth)
            assert tree.shape() == reference.shape(), (p, max_depth)


def test_a_linked_child_is_neither_keyed_nor_matched(monkeypatch, cone_conversions):
    # 71 nodes in 11 classes: only the root and the charts of a blowup
    # are keyed, and no mapped chart reads its cone; keying every
    # expanded node took 27 keys, 16 matches and 38 chart cone images.
    # A normal surface is keyed by its normal form, so 8 of the 19 keys
    # hit a class with no search and no pairing is built
    module = sys.modules[resolve.__module__]
    calls = {"blowup": 0, "key": 0, "hit": 0, "pairing": 0}

    def counter(name, f):
        def counted(*args, **kwargs):
            calls[name] += 1
            return f(*args, **kwargs)

        return counted

    key = module._ClassGraph._key

    def counted_key(graph, S, level):
        k, g = key(graph, S, level)
        calls["hit"] += g is not None
        return k, g

    monkeypatch.setattr(module, "nash_blowup", counter("blowup", nash_blowup))
    monkeypatch.setattr(module, "_surface_normal_form", counter("key", _surface_normal_form))
    monkeypatch.setattr(module._ClassGraph, "_key", counted_key)
    monkeypatch.setattr(module, "LatticePairing", counter("pairing", LatticePairing))
    tree = resolve(_dual_root((33, 16), (16, 49)), 5)
    nodes = list(tree.nodes())
    assert len(nodes) == 71
    assert sum(node.status == EXPANDED for node in nodes) == 27
    assert calls == {"blowup": 11, "key": 19, "hit": 8, "pairing": 0}
    assert cone_conversions == [0]


def test_unfold_rejects_a_class_map_that_is_not_unimodular():
    # unfold checks each map once, where it composes it, and maps the
    # children through the unchecked `AffineSemigroup._image`; every link's
    # map is unimodular by construction, so one of determinant 2, alone,
    # composed, or on a chart's link, is a bug
    module = sys.modules[resolve.__module__]
    S = _dual_root((33, 16), (16, 49))
    graph = module._ClassGraph(S, 5, True, 64)
    assert graph.root == (0, None)
    double = ((2, 0), (0, 1))
    with pytest.raises(RuntimeError, match="determinant 2,"):
        graph.unfold(S, 0, (0, double))
    with pytest.raises(RuntimeError, match="determinant -2,"):
        graph.unfold(S, 0, (0, double), ((0, 1), (1, 0)))
    links = graph.classes[0][4]
    j = next(j for j, link in enumerate(links) if not isinstance(link, str))
    links[j] = (links[j][0], double)
    with pytest.raises(RuntimeError, match="determinant 2,"):
        graph.unfold(S, 0, graph.root)
    # the payload writer takes the same walk, and so the same checks
    with pytest.raises(RuntimeError, match="determinant 2,"):
        tree_payload(ResolutionTree._of_graph(graph, S))


def _unfolded(tree):
    """The tree as its unfolded nodes: `tree_payload` writes it with the
    reference writer `io._node_payload`, and `statuses` and `depth` read
    it node by node."""
    return ResolutionTree(tree.root, tree.characteristic, tree.normalize, tree.max_depth)


def test_the_graph_writes_and_reads_what_the_unfolded_tree_does(monkeypatch, capsys, tmp_path):
    # `tree_payload` writes a tree `resolve` returned from its class graph,
    # and `statuses` and `depth` read the graph's links: every format's
    # bytes and both answers equal those of the unfolded nodes, on every
    # `resolve` console row, on seed-0 prefixes of the benchmark's corpora,
    # and on the p = 2 roots whose class graphs have cycles, at every cap
    # from 1 to 5
    trees, printed = [], {}
    for _, command, document, _, _ in CONSOLE:
        if command.split()[0] != "resolve":
            continue
        recorded = []
        monkeypatch.setattr(
            cli, "tree_payload", lambda tree: recorded.append(tree) or tree_payload(tree)
        )
        path = tmp_path / "problem.json"
        path.write_text(document)
        cli.main([*command.split(), str(path)])
        (tree,) = recorded
        fmt = command.split("--format ")[1] if "--format" in command else "json"
        printed[tree] = fmt, capsys.readouterr().out
        trees.append(tree)
    for name, groups in (("surfaces", 20), ("threefolds", 4), ("unnormalized", 20)):
        for problem in workloads.corpus(workloads.WORKLOADS[name], 0, groups):
            if problem.command == "resolve":
                spec = parse_input(problem.document)
                trees.append(
                    resolve(spec.semigroup(), spec.characteristic, spec.normalize, spec.max_depth)
                )
    for make_root in (_witness, _dual_1224):
        trees += [resolve(make_root(), 2, max_depth=max_depth) for max_depth in range(1, 6)]
    assert len(trees) == 12 + 80 + 8 + 60 + 10
    for tree in trees:
        payload = tree_payload(tree)
        assert tree._root is None
        unfolded = _unfolded(tree)
        reference = {fmt: serialize(tree_payload(unfolded), fmt) for fmt in ("json", "dot", "text")}
        # names, not texts, so that a failure does not diff a 4D tree's text
        differ = [fmt for fmt, text in reference.items() if serialize(payload, fmt) != text]
        if tree in printed and printed[tree][1] != reference[printed[tree][0]] + "\n":
            differ.append("cli")
        assert differ == [], tree.semigroup.minimal_generators()
        assert tree.statuses() == unfolded.statuses()
        assert tree.depth() == unfolded.depth()


def test_the_cli_prints_a_tree_with_no_node_and_no_image(monkeypatch, capsys, tmp_path):
    # 71 nodes, most of them mapped from a class met before: the CLI writes
    # them and reads the exit code off the class graph, so it builds no
    # node and maps no semigroup; reading `root` afterwards unfolds them
    module = sys.modules[resolve.__module__]
    counts = {"node": 0, "image": 0}
    node, image = module.ResolutionNode, AffineSemigroup._image
    recorded = []

    def counted_node(*args):
        counts["node"] += 1
        return node(*args)

    def counted_image(S, g):
        counts["image"] += 1
        return image(S, g)

    def recorded_resolve(*args, **kwargs):
        recorded.append(resolve(*args, **kwargs))
        return recorded[-1]

    monkeypatch.setattr(module, "ResolutionNode", counted_node)
    monkeypatch.setattr(AffineSemigroup, "_image", counted_image)
    monkeypatch.setattr(cli, "resolve", recorded_resolve)
    path = tmp_path / "problem.json"
    path.write_text('{"dimension": 2, "characteristic": 5, "dual_cone_rays": [[33,16],[16,49]]}')
    assert cli.main(["resolve", str(path)]) == 0
    assert counts == {"node": 0, "image": 0}
    assert capsys.readouterr().out.count('"generators"') == 71
    (tree,) = recorded
    tree.root
    assert counts["node"] == 71 and counts["image"] > 0
    monkeypatch.undo()
    assert tree.shape() == resolve_reference(_dual_root((33, 16), (16, 49)), 5).shape()


@pytest.mark.parametrize(
    "make_root, max_depth, nodes, counts",
    [
        (_witness, 4, 371, (6, 12, 6, 44)),
        (_dual_1224, 5, 1703, (9, 30, 21, 70)),
        (_witness, 1, 9, (1, 1, 0, 9)),
        (_dual_1224, 1, 7, (1, 1, 0, 7)),
    ],
    ids=["self-loop-witness", "dual-1224", "self-loop-witness-depth-1", "dual-1224-depth-1"],
)
def test_only_the_root_and_built_charts_are_keyed(
    monkeypatch, make_root, max_depth, nodes, counts
):
    # p = 2 roots whose classes form cycles. Keying each chart image whose
    # chart had no link yet took 46 and 63 keys, 40 and 37 of them of no
    # built chart, and 40 and 54 matches; now each chart is keyed at most
    # once, on its representative, never as an image. Testing each node's
    # status took 371 and 1703 smooth tests, one per node; now the root and
    # each built chart are tested once, and the tree, unfolded when its
    # `root` is first read (here before the spies go), only after the last
    # key, match, blowup and test. At the cap 1 only the root is keyed
    S = make_root()
    module = sys.modules[resolve.__module__]
    built, keyed, matches, events = [], [], [], []
    map_to = LatticePairing.map_to
    is_smooth = AffineSemigroup.is_smooth
    node = module.ResolutionNode

    def counted_blowup(T, p, normalize=True):
        events.append("blowup")
        charts = nash_blowup(T, p, normalize)
        built.append(charts)
        return charts

    def counted_key(T):
        events.append("key")
        keyed.append(T)
        return LatticePairing(T)

    def counted_match(self, other):
        events.append("match")
        matches.append(other)
        return map_to(self, other)

    def counted_smooth(self):
        events.append("smooth")
        return is_smooth(self)

    def logged_node(*args):
        events.append("node")
        return node(*args)

    monkeypatch.setattr(module, "nash_blowup", counted_blowup)
    monkeypatch.setattr(module, "LatticePairing", counted_key)
    monkeypatch.setattr(LatticePairing, "map_to", counted_match)
    monkeypatch.setattr(AffineSemigroup, "is_smooth", counted_smooth)
    monkeypatch.setattr(module, "ResolutionNode", logged_node)
    tree = resolve(S, 2, max_depth=max_depth)
    tree.root
    monkeypatch.undo()
    assert len(list(tree.nodes())) == nodes
    charts = {id(c.semigroup) for made in built for c in made}
    assert [T for T in keyed if id(T) not in charts] == [S]
    assert len({id(T) for T in keyed}) == len(keyed)
    smooth_tests = events.count("smooth")
    assert smooth_tests == 1 + len(charts)
    assert (len(built), len(keyed), len(matches), smooth_tests) == counts
    first_node = events.index("node")
    assert set(events[first_node:]) == {"node"} and events.count("node") == nodes
    assert tree.shape() == resolve_reference(S, 2, max_depth=max_depth).shape()


@pytest.mark.parametrize(
    "make_root, p, max_depth, counts",
    [
        (lambda: parse_input(DUAL_3D_P0).semigroup(), 0, 64, (7, 0)),
        (_dual_1224, 2, 5, (9, 1)),
    ],
    ids=["dual-3d-p0", "dual-1224-p2-cap-5"],
)
def test_only_a_class_representative_computes_a_hilbert_basis(
    monkeypatch, make_root, p, max_depth, counts
):
    # a lattice-point chart in d >= 3 is tested for smoothness on its
    # rays and keyed on its cone, and an unfolded node linked to a class
    # is read off the class's representative. So resolve computes the
    # Hilbert bases of the semigroups it blows up and of the charts it
    # caps, whose nodes print them, each once, the unfold of `root`
    # included; computing one per chart took 48 and 69
    S = make_root()
    module = sys.modules[resolve.__module__]
    semigroups = sys.modules[AffineSemigroup.__module__]
    computed, built, capped = [], [], []
    hilbert_basis = semigroups.hilbert_basis
    link = module._ClassGraph._link

    def counted_blowup(T, p, normalize=True):
        built.append(T.cone.rays)
        return nash_blowup(T, p, normalize)

    def counted_hilbert(cone):
        computed.append(cone.rays)
        return hilbert_basis(cone)

    def logged_link(self, T, depth):
        status = link(self, T, depth)
        if status == DEPTH_CAPPED:
            capped.append(T.cone.rays)
        return status

    monkeypatch.setattr(module, "nash_blowup", counted_blowup)
    monkeypatch.setattr(semigroups, "hilbert_basis", counted_hilbert)
    monkeypatch.setattr(module._ClassGraph, "_link", logged_link)
    tree = resolve(S, p, max_depth=max_depth)
    tree.root
    monkeypatch.undo()
    assert (len(built), len(capped)) == counts
    assert sorted(computed) == sorted(built + capped)
    assert tree.shape() == resolve_reference(S, p, max_depth=max_depth).shape()
