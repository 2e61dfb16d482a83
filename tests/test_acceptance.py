"""Acceptance gate: one criterion per test, one PASS/FAIL line each.

Run with `python3 -m pytest tests/test_acceptance.py -v -s` to see the
per-criterion report lines alongside the pytest verdicts.
"""

import io
import json
import random
import time
from contextlib import contextmanager, redirect_stderr, redirect_stdout
from itertools import combinations

from nashtoric.blowup import blowup_charts, log_jacobian_ideal, newton_polyhedron
from nashtoric.cli import main
from nashtoric.cones import Cone, hilbert_basis, parallelepiped_points
from nashtoric.errors import NotFullDimensionalError, NotPointedError
from nashtoric.linalg import det, group_is_full_lattice, kernel_basis
from nashtoric.resolve import resolve, surface_termination_suite
from nashtoric.semigroups import AffineSemigroup

from oracles import brute_force_hilbert, surface_profile, surface_resolution_shape, triangulate

CUSP_DOC = '{"dimension": 1, "characteristic": 0, "semigroup_generators": [[2], [3]]}'
THREEFOLD_DOC = (
    '{"dimension": 3, "characteristic": 2,'
    ' "dual_cone_rays": [[1, 0, 0], [0, 1, 0], [1, 1, 2]]}'
)

THREEFOLD_CHARTS = {
    (2, 2, 1): {(1, 0, 0), (0, 1, 0), (1, 1, 1), (1, 0, 2), (0, 1, 2)},
    (3, 2, 3): {(1, 0, 0), (1, 1, 1), (1, 1, 2), (-1, 0, -2), (-1, 1, 0)},
    (2, 3, 3): {(0, 1, 0), (1, 1, 1), (1, 1, 2), (0, -1, -2), (1, -1, 0)},
}
THREEFOLD_SATURATIONS = {
    (2, 2, 1): {(1, 0, 0), (0, 1, 0), (1, 0, 2), (0, 1, 2), (1, 0, 1), (0, 1, 1)},
    (3, 2, 3): {(1, 0, 0), (-1, 1, 0), (0, 0, -1), (-1, 0, -2), (1, 1, 2), (0, 1, 1)},
    (2, 3, 3): {(1, -1, 0), (0, 1, 0), (0, 0, -1), (0, -1, -2), (1, 1, 2), (1, 0, 1)},
}


@contextmanager
def report(n: int):
    try:
        yield
    except BaseException:
        print(f"ACCEPTANCE {n}: FAIL", flush=True)
        raise
    print(f"ACCEPTANCE {n}: PASS", flush=True)


def run_cli(*argv):
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        code = main(list(argv))
    return code, out.getvalue(), err.getvalue()


def leaf_depth_nodes(root):
    stack = [root]
    while stack:
        node = stack.pop()
        yield node
        for child in node["children"]:
            stack.append(child["node"])


def test_criterion_1_numerical_semigroup_ideals(tmp_path):
    with report(1):
        path = tmp_path / "cusp.json"
        path.write_text(CUSP_DOC)
        start = time.monotonic()
        expected = {2: [[3]], 3: [[2]], 0: [[2], [3]], 5: [[2], [3]]}
        for p, exps in expected.items():
            code, out, _ = run_cli("logjac", str(path), "--char", str(p))
            assert code == 0
            assert json.loads(out)["exponents"] == exps
        assert time.monotonic() - start < 1.0


def test_criterion_2_threefold_pipeline(tmp_path):
    with report(2):
        start = time.monotonic()
        S = AffineSemigroup.from_cone(
            Cone.from_rays(((1, 0, 0), (0, 1, 0), (1, 1, 2)), 3)
        )
        # a. minimal generators
        assert set(S.minimal_generators()) == {
            (1, 0, 0), (0, 1, 0), (1, 1, 1), (1, 1, 2),
        }
        # b. ideal exponents in characteristic 0 and 2
        I0 = log_jacobian_ideal(S, 0)
        I2 = log_jacobian_ideal(S, 2)
        assert set(I0.exponents) == {(2, 2, 1), (2, 3, 3), (3, 2, 3), (2, 2, 2)}
        assert set(I2.exponents) == {(2, 2, 1), (2, 3, 3), (3, 2, 3)}
        # c. Newton vertices differ between the characteristics
        N0 = newton_polyhedron(I0)
        N2 = newton_polyhedron(I2)
        assert set(N2.vertices) == {(2, 2, 1), (3, 2, 3), (2, 3, 3)}
        assert (2, 2, 2) in N0.vertices
        assert set(N0.vertices) != set(N2.vertices)
        # d. raw charts
        charts = blowup_charts(N2, normalize=False)
        assert {
            c.vertex: set(c.semigroup.minimal_generators()) for c in charts
        } == THREEFOLD_CHARTS
        # e. saturated charts
        saturated = blowup_charts(N2, normalize=True)
        assert {
            c.vertex: set(c.semigroup.minimal_generators()) for c in saturated
        } == THREEFOLD_SATURATIONS
        # f. resolution depth and leaf shape per characteristic
        path = tmp_path / "threefold.json"
        path.write_text(THREEFOLD_DOC)
        code, out, _ = run_cli("resolve", str(path), "--char", "2")
        assert code == 0
        nodes = list(leaf_depth_nodes(json.loads(out)["root"]))
        assert max(n["depth"] for n in nodes) == 2
        leaves = [n for n in nodes if not n["children"]]
        assert all(n["status"] == "smooth-leaf" for n in leaves)
        deep = [n for n in nodes if n["depth"] == 2]
        assert deep and all(len(n["generators"]) == 3 for n in deep)
        code, out, _ = run_cli("resolve", str(path), "--char", "0")
        assert code == 0
        nodes = list(leaf_depth_nodes(json.loads(out)["root"]))
        assert max(n["depth"] for n in nodes) == 1
        assert all(
            n["status"] == "smooth-leaf" for n in nodes if not n["children"]
        )
        assert time.monotonic() - start < 5.0


def test_criterion_3_surface_vertices():
    with report(3):
        start = time.monotonic()
        rng = random.Random(20303)
        checked = 0
        while checked < 200:
            a = (rng.randint(-50, 50), rng.randint(-50, 50))
            b = (rng.randint(-50, 50), rng.randint(-50, 50))
            if a[0] * b[1] - a[1] * b[0] == 0:
                continue
            S = AffineSemigroup.from_cone(Cone.from_rays((a, b), 2))
            gens = surface_profile(S).ordered_generators
            sums = {
                tuple(x + y for x, y in zip(gens[i], gens[i + 1]))
                for i in range(len(gens) - 1)
            }
            v0 = newton_polyhedron(log_jacobian_ideal(S, 0)).vertices
            assert set(v0) <= sums
            for p in (2, 3, 5, 7):
                vp = newton_polyhedron(log_jacobian_ideal(S, p)).vertices
                assert vp == v0
            checked += 1
        assert time.monotonic() - start < 60.0


def test_criterion_4_surface_resolution_suite():
    with report(4):
        start = time.monotonic()
        summary = surface_termination_suite(
            20404, 100, entry_bound=50, characteristics=(0, 2, 3, 5), max_depth=64
        )
        assert len(summary.runs) == 100
        assert summary.all_terminated
        assert summary.all_leaves_smooth
        assert summary.all_characteristic_independent
        # each tree is the one the closed form of tests/oracles unfolds
        for run in summary.runs:
            S = AffineSemigroup.from_cone(Cone.from_rays(run.rays, 2))
            assert resolve(S, 0).shape() == surface_resolution_shape(S), run.rays
        assert time.monotonic() - start < 120.0


def test_criterion_5_gale_duality():
    with report(5):
        rng = random.Random(20505)
        checked = 0
        while checked < 100:
            d = rng.randint(1, 3)
            n = rng.randint(d, 6)
            A = [tuple(rng.randint(-10, 10) for _ in range(n)) for _ in range(d)]
            # A's invariant factors are d ones: its columns generate Z^d
            if not group_is_full_lattice(list(zip(*A)), d):
                continue
            B = kernel_basis(A)
            c = n - d
            for K in combinations(range(n), c):
                comp = [j for j in range(n) if j not in K]
                det_b = det([B[i] for i in K]) if c else 1
                det_a = det([[A[i][j] for j in comp] for i in range(d)]) if d else 1
                assert abs(det_b) == abs(det_a)
                for p in (2, 3, 5):
                    assert (det_b % p != 0) == (det_a % p != 0)
            checked += 1


def test_criterion_6_hilbert_basis_oracle():
    with report(6):
        rng = random.Random(20606)
        checked = 0
        while checked < 100:
            dim = rng.choice((2, 3))
            k = rng.randint(dim, dim + 2)
            rays = [
                tuple(rng.randint(-6, 6) for _ in range(dim)) for _ in range(k)
            ]
            rays = [r for r in rays if any(r)]
            if not rays:
                continue
            try:
                cone = Cone.from_rays(rays, dim)
            except (NotPointedError, NotFullDimensionalError):
                continue
            try:
                expected = brute_force_hilbert(
                    cone.rays, cone.halfspaces, dim, volume_limit=3_000_000
                )
            except RuntimeError:
                continue
            assert list(hilbert_basis(cone).elements) == expected
            for piece in triangulate(cone):
                assert len(parallelepiped_points(piece.rays)) == abs(det(piece.rays))
            checked += 1


def test_criterion_7_trivial_blowup_behavior(tmp_path):
    with report(7):
        path = tmp_path / "cusp.json"
        path.write_text(CUSP_DOC)
        code, out, _ = run_cli("blowup", str(path), "--char", "2", "--no-normalize")
        assert code == 4
        assert json.loads(out)["charts"] == [{"vertex": [3], "generators": [[2], [3]]}]
        code, _, _ = run_cli("resolve", str(path), "--char", "2", "--no-normalize")
        assert code == 4
        code, out, _ = run_cli("resolve", str(path), "--char", "2")
        assert code == 0
        root = json.loads(out)["root"]
        nodes = list(leaf_depth_nodes(root))
        assert max(n["depth"] for n in nodes) == 1
        assert all(
            n["status"] == "smooth-leaf" for n in nodes if not n["children"]
        )


def test_criterion_8_deterministic_output(tmp_path):
    with report(8):
        path = tmp_path / "threefold.json"
        path.write_text(THREEFOLD_DOC)
        runs = []
        for argv in (
            ("resolve", str(path)),
            ("resolve", str(path)),
        ):
            code, out, _ = run_cli(*argv)
            assert code == 0
            runs.append(out)
        assert len(set(runs)) == 1
