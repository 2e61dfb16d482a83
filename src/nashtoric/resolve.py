"""Iterated Nash blowups: resolution trees, characteristic comparison,
and a randomized termination suite for normal surface singularities."""

import random
from dataclasses import dataclass
from itertools import combinations

from .blowup import log_jacobian_ideal, nash_blowup, newton_polyhedron, stalls
from .cones import Cone
from .linalg import adjugate, cross2, det, integer, mat_mul, mat_vec, validate_characteristic
from .semigroups import AffineSemigroup, LatticePairing, _surface_normal_form

SMOOTH_LEAF = "smooth-leaf"
EXPANDED = "expanded"
TRIVIAL_STALL = "trivial-stall"
DEPTH_CAPPED = "depth-capped"

# serializing a tree recurses once per level, and Python's default recursion
# limit stops JSON output near depth 330
MAX_DEPTH = 200
# the depth cap when a caller or a document names none, and the
# characteristics the suite and `compare` run when none are named
DEFAULT_MAX_DEPTH = 64
DEFAULT_CHARACTERISTICS = (0, 2, 3, 5)


@dataclass(frozen=True)
class ResolutionNode:
    semigroup: AffineSemigroup
    depth: int
    status: str
    children: tuple  # pairs (vertex, ResolutionNode)

    def nodes(self):
        yield self
        for _, child in self.children:
            yield from child.nodes()


class ResolutionTree:
    """A resolution tree. `resolve` returns one that holds its class graph
    (`_ClassGraph`) and root semigroup: `root`, and so `nodes()` and
    `shape()`, is unfolded from the graph on first read and then kept,
    `statuses()` and `depth()` read the graph's links, and
    `io.tree_payload` writes the tree from the graph, so none of the
    three builds a node. A tree made from a root node,
    `ResolutionTree(root, characteristic, normalize, max_depth)`, reads
    its nodes."""

    __slots__ = ("semigroup", "characteristic", "normalize", "max_depth", "_root", "_graph")

    def __init__(self, root: ResolutionNode, characteristic, normalize, max_depth):
        self.semigroup = root.semigroup
        self.characteristic = characteristic
        self.normalize = normalize
        self.max_depth = max_depth
        self._root = root
        self._graph = None

    @classmethod
    def _of_graph(cls, graph, S):
        tree = cls.__new__(cls)
        tree.semigroup = S
        tree.characteristic = graph.p
        tree.normalize = graph.normalize
        tree.max_depth = graph.max_depth
        tree._root = None
        tree._graph = graph
        return tree

    @property
    def root(self) -> ResolutionNode:
        if self._root is None:
            self._root = self._graph.unfold(self.semigroup, 0, self._graph.root)
        return self._root

    def nodes(self):
        return self.root.nodes()

    def statuses(self):
        if self._graph is None:
            return {node.status for node in self.nodes()}
        return self._graph.reach()[0]

    def depth(self) -> int:
        if self._graph is None:
            return max(node.depth for node in self.nodes())
        return self._graph.reach()[1]

    def shape(self):
        """Hashable structural fingerprint: generators, status and the
        vertex-labelled children of every node, recursively."""
        return _shape(self.root)


def _shape(node: ResolutionNode):
    return (
        node.semigroup.minimal_generators(),
        node.status,
        tuple((v, _shape(child)) for v, child in node.children),
    )


def resolve(
    S: AffineSemigroup,
    characteristic,
    normalize: bool = True,
    max_depth: int = DEFAULT_MAX_DEPTH,
) -> ResolutionTree:
    """Blow up repeatedly until every branch is smooth, stalls, or hits
    the depth cap.

    A node is tested in the order smooth, stall (unnormalized only), cap,
    and only then blown up: an unnormalized stall is read off the minimal
    generators' residues mod p (`stalls`), so neither a stall nor a node
    at the cap computes a basis or builds a chart.

    A Nash blowup commutes with GL(d, Z), so the call builds the graph of
    the lattice classes below S (`_ClassGraph`), which blows up each class
    and tests each of its charts once, and returns a tree that holds it:
    the tree's nodes are unfolded from the graph, read-only, when `root`
    is first read, and the CLI prints the tree from the graph without
    them (`io.tree_payload`). A node S that is g·R for a class's
    representative R gets R's charts mapped by g, re-sorted by vertex:
    each is its chart's minimal generators mapped by g, with no cone
    (`AffineSemigroup._image`; g is checked unimodular once, where it is
    composed, `_composed`). A mapped node takes its status and charts
    from its class's links, so none converts its cone. The minimal
    generators determine a semigroup and its charts, so this serves both
    chart kinds in every dimension. A normalized chart in d >= 3 is keyed
    on its cone instead, which determines it, so only the semigroups blown
    up and the charts at the cap compute a Hilbert basis, and a normal
    surface, in either graph kind, is keyed by its normal form (n, q), a
    complete invariant, so its class is found with no search (`_ClassGraph`).
    """
    p = validate_characteristic(characteristic)
    max_depth = _check_max_depth(max_depth)
    return ResolutionTree._of_graph(_ClassGraph(S, p, normalize, max_depth), S)


def _tree_node(T, g, depth, status, children):
    """`_ClassGraph.unfold`'s node for the tree's `root`."""
    return ResolutionNode(T if g is None else T._image(g), depth, status, tuple(children))


class _ClassGraph:
    """The lattice classes below one `resolve` root, built breadth first.

    Class k is (R, label, level, charts, links): its representative R,
    R's key label, the least depth of its nodes, R's charts, and per
    chart j of R a link, `_link(chart j, level + 1)`: a status, or (k', h)
    with h·Q == chart j for Q class k''s representative (h None when chart
    j is Q). `root` is the root's link. The class list is walked in order
    while it grows, so a class is first met at its least depth, and only
    the root and R's own charts are keyed, each at most once. A status
    link is its class's: smooth counts minimal generators, and a stall
    counts those nonzero mod p, which any g ∈ GL(d, Z) keeps, being
    invertible mod p. Links are indices, so a class whose chart lies in
    its own class makes no reference cycle.

    The tree `resolve` returns holds the graph and reads it three ways,
    none of which changes it: `unfold` walks the links into the tree's
    nodes, on the first read of `root`, or into `io.tree_payload`'s
    dicts, and `reach` reads the statuses and the depth.

    A class is keyed by the `LatticePairing` of R, its label, and found by
    `map_to`, except a normal surface (d = 2 and the saturation flag set,
    read and never computed, as `nash_blowup` selects its closed form): it
    is keyed by its normal form (n, q), and its label is the A in GL(2, Z)
    that sends R's rays to (1, 0) and (q, n) (`_surface_normal_form`).
    Every chart of a normalized graph qualifies, and so does a saturated
    root: a normalized graph tests any root whose saturation is unknown,
    in any dimension, once (`AffineSemigroup._certify`), so that it keys
    as its charts do. A 2D semigroup of an unnormalized graph has its flag
    decided by the same certificate when `is_smooth` first reads its
    minimal generators, before it is keyed; saturation is a class
    invariant, so a class is never keyed both ways. A normalized chart in
    d >= 3 is keyed on its cone and tested for smoothness on its rays, so
    only a representative, which is blown up, computes its Hilbert basis.
    """

    __slots__ = ("p", "normalize", "max_depth", "buckets", "classes", "root")

    def __init__(self, S, p, normalize, max_depth):
        self.p = p
        self.normalize = normalize
        self.max_depth = max_depth
        self.buckets = {}  # LatticePairing key or (n, q) -> [class index]
        self.classes = []
        if normalize and S._saturated is None:
            S.is_saturated()
        self.root = self._link(S, 0)
        for _, _, level, charts, links in self.classes:
            links.extend(self._link(c.semigroup, level + 1) for c in charts)

    def _link(self, S, depth):
        """S's status as a node at depth, tested in the order smooth,
        stall, cap; else `_key(S, depth)`."""
        if S.is_smooth():
            return SMOOTH_LEAF
        if not self.normalize and stalls(S, self.p):
            return TRIVIAL_STALL
        if depth == self.max_depth:
            return DEPTH_CAPPED
        return self._key(S, depth)

    def _key(self, S, level):
        """(k, g) with g·R == S for class k's representative R, g None
        when S is R, blown up here. The selection reads only the dimension
        and the saturation flag, in both graph kinds. A normal form is a
        complete invariant, so its bucket holds one class, and a hit is
        g = A_S^-1·A_R, where A^-1 = det(A)·adj(A) as det(A) = ±1."""
        if S.dim == 2 and S._saturated is True:
            key, label = _surface_normal_form(*S.cone.rays)
            bucket = self.buckets.setdefault(key, [])
            if bucket:
                k = bucket[0]
                adj, det_A = adjugate(label)
                inverse = [[det_A * x for x in row] for row in adj]
                return k, mat_mul(inverse, self.classes[k][1])
        else:
            label = LatticePairing(S)
            bucket = self.buckets.setdefault(label.key, [])
            for k in bucket:
                g = self.classes[k][1].map_to(label)
                if g is not None:
                    return k, g
        bucket.append(len(self.classes))
        self.classes.append((S, label, level, nash_blowup(S, self.p, self.normalize), []))
        return len(self.classes) - 1, None

    def unfold(self, T, depth, link, g=None, node=_tree_node):
        """The node of g·T (T when g is None) for T the chart or root whose
        link is `link`, read off the graph: it makes no key, no blowup and
        no status test. This one walk serves both the tree's `root` and
        `io.tree_payload`: each node is `node(T, g, depth, status,
        children)`, its children a list of pairs (vertex, child's node)
        already sorted, built bottom-up. The default makes a
        `ResolutionNode`, with g·T the image `T._image(g)`.

        A child g·(chart j) whose chart never computed its minimal
        generators (a lattice-point chart keyed on its cone, `from_cone`)
        but is h·Q for a class representative Q is read off Q instead, as
        the image of Q under g·h, so the chart's Hilbert basis is never
        computed. Each map is checked unimodular where it is composed
        (`_composed`) and passed down with the node it maps, so no image
        checks it again.
        """
        if isinstance(link, str):
            return node(T, g, depth, link, [])
        if depth == self.max_depth:
            return node(T, g, depth, DEPTH_CAPPED, [])
        k, h = link
        f = g if h is None else _composed(g, h)
        _, _, _, charts, links = self.classes[k]
        children = []
        for c, link_j in zip(charts, links):
            # the child is f_j·T_j, linked by link_j
            v, T_j, f_j = c.vertex, c.semigroup, f
            if T_j.generators is None and not isinstance(link_j, str) and link_j[1] is not None:
                k_j, h_j = link_j
                T_j, link_j = self.classes[k_j][0], (k_j, None)
                f_j = _composed(f, h_j)
            if f is not None:
                v = mat_vec(f, v)
            children.append((v, T_j, link_j, f_j))
        if f is not None:
            children.sort(key=lambda child: child[0])
        nodes = [
            (v, self.unfold(T_j, depth + 1, link_j, f_j, node)) for v, T_j, link_j, f_j in children
        ]
        return node(T, g, depth, EXPANDED, nodes)

    def reach(self):
        """(statuses, depth): the set of the unfolded tree's node statuses
        and its greatest node depth, read off the links with no node built.
        A node's status and children depend only on its link and depth, so
        each level visits each class once."""
        statuses, depth, level = set(), 0, [self.root]
        while True:
            classes = set()
            for link in level:
                if isinstance(link, str):
                    statuses.add(link)
                else:
                    classes.add(link[0])
            if not classes:
                return statuses, depth
            if depth == self.max_depth:
                statuses.add(DEPTH_CAPPED)
                return statuses, depth
            statuses.add(EXPANDED)
            level = [link_j for k in classes for link_j in self.classes[k][4]]
            depth += 1


def _composed(g, h):
    """g·h, or h when g is None, checked once for determinant ±1 so that the
    nodes it maps take the unchecked `AffineSemigroup._image`. Every link's
    map is unimodular by construction, so a product that is not is a bug."""
    f = h if g is None else mat_mul(g, h)
    det_f = det(f)
    if det_f not in (1, -1):
        raise RuntimeError(f"class map {f} has determinant {det_f}, expected ±1")
    return f


def _check_max_depth(max_depth) -> int:
    max_depth = integer(max_depth, "max_depth")
    if not 1 <= max_depth <= MAX_DEPTH:
        raise ValueError(f"max_depth must be between 1 and {MAX_DEPTH}")
    return max_depth


@dataclass(frozen=True)
class CharacteristicEntry:
    characteristic: int
    exponents: tuple
    vertices: tuple


@dataclass(frozen=True)
class CharacteristicComparison:
    semigroup: AffineSemigroup
    entries: tuple
    pairs: tuple  # triples (char_a, char_b, vertices_equal)

    @property
    def all_equal(self) -> bool:
        return all(eq for _, _, eq in self.pairs)


def compare_characteristics(S: AffineSemigroup, characteristics) -> CharacteristicComparison:
    """Newton polyhedron vertices of S over several characteristics, with
    pairwise equality verdicts."""
    characteristics = tuple(characteristics)
    if not characteristics:
        raise ValueError("characteristics must name at least one characteristic")
    entries = []
    for ch in characteristics:
        ideal = log_jacobian_ideal(S, ch)
        N = newton_polyhedron(ideal)
        entries.append(
            CharacteristicEntry(ideal.characteristic, ideal.exponents, N.vertices)
        )
    pairs = tuple(
        (a.characteristic, b.characteristic, a.vertices == b.vertices)
        for a, b in combinations(entries, 2)
    )
    return CharacteristicComparison(S, tuple(entries), pairs)


@dataclass(frozen=True)
class SuiteRun:
    rays: tuple
    depths: tuple
    terminated: bool
    leaves_smooth: bool
    characteristic_independent: bool


@dataclass(frozen=True)
class SuiteSummary:
    seed: int
    count: int
    entry_bound: int
    characteristics: tuple
    max_depth: int
    runs: tuple
    all_terminated: bool
    all_leaves_smooth: bool
    all_characteristic_independent: bool
    max_depth_observed: int


def surface_termination_suite(
    seed: int,
    count: int,
    entry_bound: int = 50,
    characteristics=DEFAULT_CHARACTERISTICS,
    max_depth: int = DEFAULT_MAX_DEPTH,
) -> SuiteSummary:
    """Resolve random normal surface semigroups over several characteristics.

    Each run draws two independent rays with entries in [1, entry_bound],
    takes the saturated semigroup of the spanned cone, and resolves it with
    normalization once per characteristic. Reported per run: tree depths,
    termination below the cap, smoothness of all leaves, and whether the
    trees agree across characteristics. The seed, an integer, makes runs
    replayable.
    """
    chars = tuple(validate_characteristic(c) for c in characteristics)
    if not chars:
        raise ValueError("characteristics must name at least one characteristic")
    seed = integer(seed, "seed")
    count = integer(count, "count")
    if count < 0:
        raise ValueError("count must be nonnegative")
    entry_bound = integer(entry_bound, "entry_bound")
    # below 2 the only ray is (1, 1), and two rays are never independent
    if entry_bound < 2:
        raise ValueError("entry bound must be at least 2")
    max_depth = _check_max_depth(max_depth)
    rng = random.Random(seed)
    runs = []
    while len(runs) < count:
        a = (rng.randint(1, entry_bound), rng.randint(1, entry_bound))
        b = (rng.randint(1, entry_bound), rng.randint(1, entry_bound))
        if cross2(a, b) == 0:
            continue
        cone = Cone.from_rays((a, b), 2)
        S = AffineSemigroup.from_cone(cone)
        trees = [resolve(S, ch, normalize=True, max_depth=max_depth) for ch in chars]
        statuses = [tree.statuses() for tree in trees]
        terminated = all(DEPTH_CAPPED not in st for st in statuses)
        leaves_smooth = all(st <= {SMOOTH_LEAF, EXPANDED} for st in statuses)
        shapes = {tree.shape() for tree in trees}
        runs.append(
            SuiteRun(
                cone.rays,
                tuple(tree.depth() for tree in trees),
                terminated,
                leaves_smooth,
                len(shapes) <= 1,
            )
        )
    return SuiteSummary(
        seed,
        count,
        entry_bound,
        chars,
        max_depth,
        tuple(runs),
        all(r.terminated for r in runs),
        all(r.leaves_smooth for r in runs),
        all(r.characteristic_independent for r in runs),
        max((max(r.depths) for r in runs), default=0),
    )
