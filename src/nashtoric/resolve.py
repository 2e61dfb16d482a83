"""Iterated Nash blowups: resolution trees, characteristic comparison,
and a randomized termination suite for normal surface singularities."""

import operator
import random
from dataclasses import dataclass

from .blowup import (
    BlowupChart,
    log_jacobian_ideal,
    nash_blowup,
    newton_polyhedron,
    stalls,
    walk_start,
)
from .cones import Cone
from .linalg import cross2, mat_vec, unimodular_dual, validate_characteristic
from .semigroups import AffineSemigroup, LatticePairing

SMOOTH_LEAF = "smooth-leaf"
EXPANDED = "expanded"
TRIVIAL_STALL = "trivial-stall"
DEPTH_CAPPED = "depth-capped"

# serializing a tree recurses once per level, and Python's default recursion
# limit stops JSON output near depth 330
MAX_DEPTH = 200


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


@dataclass(frozen=True)
class ResolutionTree:
    root: ResolutionNode
    characteristic: int
    normalize: bool
    max_depth: int

    def nodes(self):
        return self.root.nodes()

    def statuses(self):
        return {node.status for node in self.nodes()}

    def depth(self) -> int:
        return max(node.depth for node in self.nodes())

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
    max_depth: int = 64,
) -> ResolutionTree:
    """Blow up repeatedly until every branch is smooth, stalls, or hits
    the depth cap.

    A node is tested in the order smooth, stall (unnormalized only), cap,
    and only then blown up: an unnormalized stall is read off the
    exchanges at the walk's start basis (`stalls`), so neither a stall
    nor a node at the cap builds a chart, and the walk starts from that
    basis and its exchanges.

    A Nash blowup commutes with GL(d, Z), so each lattice class of nodes
    is blown up once per call. A node S is looked up in the bucket of its
    `LatticePairing` key; if g·R == S for a stored R, the charts of S are
    R's charts mapped by g, re-sorted by vertex, and its start basis goes
    unused. Otherwise S is blown up (`nash_blowup`) and stored. The
    minimal generators determine a semigroup and its charts, so this
    serves both chart kinds in every dimension.
    """
    p = validate_characteristic(characteristic)
    max_depth = _check_max_depth(max_depth)
    buckets = {}  # LatticePairing key -> [(pairing, charts)], for this call

    def expand(S, depth):
        if S.is_smooth():
            return ResolutionNode(S, depth, SMOOTH_LEAF, ())
        start = None
        if not normalize:
            start = walk_start(S, p)
            if stalls(S, start):
                return ResolutionNode(S, depth, TRIVIAL_STALL, ())
        if depth == max_depth:
            return ResolutionNode(S, depth, DEPTH_CAPPED, ())
        pairing = LatticePairing(S)
        bucket = buckets.setdefault(pairing.key, [])
        for R, known in bucket:
            g = R.map_to(pairing)
            if g is not None:
                dual = unimodular_dual(g)
                mapped = (
                    BlowupChart(mat_vec(g, c.vertex), c.semigroup.image(g, dual), c.normalized)
                    for c in known
                )
                charts = tuple(sorted(mapped, key=lambda c: c.vertex))
                break
        else:
            charts = nash_blowup(S, p, normalize, start)
            bucket.append((pairing, charts))
        children = tuple((c.vertex, expand(c.semigroup, depth + 1)) for c in charts)
        return ResolutionNode(S, depth, EXPANDED, children)

    root = expand(S, 0)
    # expand reaches itself through its closure; without the cycle the
    # buckets are freed here, not by the cyclic garbage collector
    del expand
    return ResolutionTree(root, p, normalize, max_depth)


def _integer(value, name) -> int:
    if isinstance(value, bool):
        raise TypeError(f"{name} must be an integer, not a bool")
    return operator.index(value)


def _check_max_depth(max_depth) -> int:
    max_depth = _integer(max_depth, "max_depth")
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
    pairs = []
    for i in range(len(entries)):
        for j in range(i + 1, len(entries)):
            pairs.append(
                (
                    entries[i].characteristic,
                    entries[j].characteristic,
                    entries[i].vertices == entries[j].vertices,
                )
            )
    return CharacteristicComparison(S, tuple(entries), tuple(pairs))


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
    characteristics=(0, 2, 3, 5),
    max_depth: int = 64,
) -> SuiteSummary:
    """Resolve random normal surface semigroups over several characteristics.

    Each run draws two independent rays with entries in [1, entry_bound],
    takes the saturated semigroup of the spanned cone, and resolves it with
    normalization once per characteristic. Reported per run: tree depths,
    termination below the cap, smoothness of all leaves, and whether the
    trees agree across characteristics. The seed makes runs replayable.
    """
    chars = tuple(validate_characteristic(c) for c in characteristics)
    if not chars:
        raise ValueError("characteristics must name at least one characteristic")
    count = _integer(count, "count")
    if count < 0:
        raise ValueError("count must be nonnegative")
    entry_bound = _integer(entry_bound, "entry_bound")
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
