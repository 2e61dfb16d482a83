"""The library path of one problem, and the checks on its output.

`solve` follows `nashtoric.cli._dispatch` for the `resolve` and `blowup`
commands: io.parse_input, ProblemSpec.semigroup(), the computation, the
payload and io.serialize. It looks every library function up on its module
at call time, so the tracing harness can rebind them.
"""

import hashlib
import importlib
import json

LAYERS = ("linalg", "lp", "cones", "semigroups", "blowup", "resolve", "io")

# The CLI's exit codes for the two expected non-zero outcomes.
EXIT_DEPTH_CAPPED = 3
EXIT_TRIVIAL_STALL = 4

_STATUSES = ("smooth-leaf", "expanded", "trivial-stall", "depth-capped")


def library():
    """The package modules by layer name. `import_module` is used because
    the package attribute `nashtoric.resolve` is the function, not the
    module."""
    return {name: importlib.import_module("nashtoric." + name) for name in LAYERS}


def solve(lib, problem):
    """Document to serialized JSON. Returns (text, exit code, objects)."""
    nt_io = lib["io"]
    spec = nt_io.parse_input(problem.document)
    S = spec.semigroup()
    p = spec.characteristic
    if problem.command == "resolve":
        rs = lib["resolve"]
        tree = rs.resolve(S, p, normalize=spec.normalize, max_depth=spec.max_depth)
        text = nt_io.serialize(nt_io.tree_payload(tree), spec.format)
        statuses = tree.statuses()
        if rs.TRIVIAL_STALL in statuses:
            return text, EXIT_TRIVIAL_STALL, tree
        if rs.DEPTH_CAPPED in statuses:
            return text, EXIT_DEPTH_CAPPED, tree
        return text, 0, tree
    bl = lib["blowup"]
    N = bl.newton_polyhedron(bl.log_jacobian_ideal(S, p))
    charts = bl.blowup_charts(N, spec.normalize)
    text = nt_io.serialize(nt_io.charts_payload(charts, characteristic=p), spec.format)
    if not spec.normalize and bl.is_trivial_step(N, charts):
        return text, EXIT_TRIVIAL_STALL, (S, N, charts)
    return text, 0, (S, N, charts)


def digest(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


def problem_key(problem) -> str:
    """Identifies a problem across seeds, for the stored digest table."""
    return digest(problem.command + "\n" + problem.document)[:16]


def _det(rows):
    """Integer determinant by fraction-free (Bareiss) elimination."""
    m = [list(r) for r in rows]
    n = len(m)
    sign, prev = 1, 1
    for k in range(n - 1):
        if m[k][k] == 0:
            swap = next((i for i in range(k + 1, n) if m[i][k]), None)
            if swap is None:
                return 0
            m[k], m[swap] = m[swap], m[k]
            sign = -sign
        for i in range(k + 1, n):
            for j in range(k + 1, n):
                m[i][j] = (m[i][j] * m[k][k] - m[i][k] * m[k][j]) // prev
        prev = m[k][k]
    return sign * m[n - 1][n - 1]


def _tree_walk(tree, payload):
    """Pairs (node object, node payload) over the whole tree, iteratively."""
    stack = [(tree.root, payload["root"])]
    while stack:
        node, data = stack.pop()
        yield node, data
        stack.extend(
            (child, entry["node"])
            for (_, child), entry in zip(node.children, data["children"])
        )


def check(problem, objects, payload):
    """Invariants that hold on any seed; returns a list of violations."""
    bad = []
    if problem.command == "resolve":
        tree = objects
        capped = payload["max_depth"]
        for node, data in _tree_walk(tree, payload):
            gens = [tuple(g) for g in data["generators"]]
            status = data["status"]
            kids = data["children"]
            if status not in _STATUSES:
                bad.append(f"unknown status {status}")
            if (status == "expanded") != bool(kids):
                bad.append(f"{status} node with {len(kids)} children")
            if status == "depth-capped" and data["depth"] != capped:
                bad.append("depth cap below max_depth")
            if problem.normalize and not kids and status not in ("smooth-leaf", "depth-capped"):
                bad.append(f"normalized leaf is {status}")
            if status == "smooth-leaf" and (
                len(gens) != problem.dimension or abs(_det(gens)) != 1
            ):
                bad.append(f"smooth leaf {gens} is not a lattice basis")
            vertices = [tuple(k["vertex"]) for k in kids]
            if vertices != sorted(set(vertices)):
                bad.append("chart vertices repeat or are out of order")
            for _, child in node.children:
                if not all(child.semigroup.cone.contains(g) for g in gens):
                    bad.append("a chart cone misses a parent generator")
    else:
        S, N, charts = objects
        if len(charts) != len(N.vertices) or len(payload["charts"]) != len(N.vertices):
            bad.append(f"{len(charts)} charts for {len(N.vertices)} Newton vertices")
        gens = S.minimal_generators()
        for chart in charts:
            if not all(chart.semigroup.cone.contains(g) for g in gens):
                bad.append(f"chart at {chart.vertex} misses a parent generator")
    return bad


class GroupAgreement:
    """Checks that the problems of one group give the same tree in every
    characteristic; used where the paper's claim says they must."""

    def __init__(self, size):
        self.size = size
        self.roots = {}

    def add(self, problem, payload):
        """Returns the pids of a finished group that disagrees, else ()."""
        entries = self.roots.setdefault(problem.group, [])
        entries.append((problem.pid, json.dumps(payload["root"], sort_keys=True)))
        if len(entries) < self.size:
            return ()
        del self.roots[problem.group]
        first = entries[0][1]
        if all(root == first for _, root in entries):
            return ()
        return tuple(pid for pid, _ in entries)
