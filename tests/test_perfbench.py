"""The benchmark's contract with the package, without running the benchmark.

`perfbench/` looks library functions up by name: `tracing.TARGETS` and
`linalg.det` are rebound on the modules of `pipeline.library()`, and
`pipeline.solve` follows the CLI's `blowup` and `resolve` commands. A name
the package drops would otherwise fail only in a traced run, and an image
that converts its cone on the timed path would only show as time. The three
harness files are loaded by path, as they are, under private module names.
"""

import importlib.util
import json
import sys
import types
from pathlib import Path

import pytest

from nashtoric.cli import main
from nashtoric.semigroups import AffineSemigroup

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


def _load(name):
    spec = importlib.util.spec_from_file_location(
        "perfbench_" + name, PERFBENCH / (name + ".py")
    )
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


pipeline = _load("pipeline")
tracing = _load("tracing")
workloads = _load("workloads")


def test_every_traced_name_resolves_on_the_library():
    lib = pipeline.library()
    for module, path, _, _ in tracing.TARGETS:
        owner = lib[module]
        for part in path.split("."):
            owner = getattr(owner, part)
        assert callable(owner), (module, path)
    assert callable(lib["linalg"].det)


# (command, document fields, the exit code of the CLI)
DOCUMENTS = (
    (
        "blowup",
        {"dimension": 3, "characteristic": 2, "cone_rays": [[1, 0, 0], [0, 1, 0], [1, 1, 2]]},
        0,
    ),
    # one chart equal to the parent: the is_trivial_step branch
    (
        "blowup",
        {
            "dimension": 2,
            "characteristic": 2,
            "semigroup_generators": [[2, 0], [3, 0], [0, 1]],
            "normalize": False,
        },
        pipeline.EXIT_TRIVIAL_STALL,
    ),
    (
        "resolve",
        {
            "dimension": 2,
            "characteristic": 0,
            "dual_cone_rays": [[2, 7], [5, 3]],
            "normalize": False,
            "max_depth": 6,
        },
        0,
    ),
    # depth caps, and linked nodes whose cones the check reads first
    (
        "resolve",
        {
            "dimension": 2,
            "characteristic": 0,
            "dual_cone_rays": [[15, 14], [12, 18]],
            "normalize": False,
            "max_depth": 6,
        },
        pipeline.EXIT_DEPTH_CAPPED,
    ),
)


@pytest.mark.parametrize("command, fields, code", DOCUMENTS)
def test_solve_follows_the_cli_and_passes_its_checks(command, fields, code, tmp_path, capsys):
    document = json.dumps(fields, sort_keys=True)
    problem = workloads.Problem(
        0, 0, command, document, fields["dimension"], fields.get("normalize", True)
    )
    text, exit_code, objects = pipeline.solve(pipeline.library(), problem)
    assert exit_code == code
    assert pipeline.check(problem, objects, json.loads(text)) == []
    path = tmp_path / "problem.json"
    path.write_text(document)
    assert main([command, str(path)]) == code
    assert capsys.readouterr().out == text + "\n"


def test_no_image_converts_its_cone_while_solve_runs(monkeypatch, cone_conversions):
    # solve writes each tree from its class graph, so it makes no image and
    # converts no cone. The unfold `pipeline.check` starts with, reading
    # `tree.root`, expands a node g·R from R's class: the images it makes
    # (`_image`, the map checked where it is composed) are read through
    # their minimal generators only; one that read its cone would pay a
    # conversion per node
    made = [0]
    image = AffineSemigroup._image

    def counted(S, g):
        made[0] += 1
        return image(S, g)

    monkeypatch.setattr(AffineSemigroup, "_image", counted)
    lib = pipeline.library()
    for name, groups in (("surfaces", 20), ("threefolds", 4), ("unnormalized", 20)):
        made[0] = 0
        trees = [
            pipeline.solve(lib, problem)[2]
            for problem in workloads.corpus(workloads.WORKLOADS[name], 0, groups)
        ]
        assert made[0] == 0, name
        assert cone_conversions == [0], name
        for tree in trees:
            tree.root
        assert made[0] > 0, name
        assert cone_conversions == [0], name


def _calls(monkeypatch, targets, workload_groups):
    """Per workload, how often each (owner, name) target ran while the
    first groups of its seed-0 corpus were solved."""
    lib = pipeline.library()
    calls = [0] * len(targets)

    def counted(k, original):
        def call(*args):
            calls[k] += 1
            return original(*args)

        return call

    for k, (owner, name) in enumerate(targets):
        monkeypatch.setattr(owner, name, counted(k, getattr(owner, name)))
    counts = {}
    for workload, groups in workload_groups:
        calls[:] = [0] * len(targets)
        for problem in workloads.corpus(workloads.WORKLOADS[workload], 0, groups):
            pipeline.solve(lib, problem)
        counts[workload] = tuple(calls)
    return counts


def _sides(monkeypatch, module, names, workload_groups):
    """Per workload, whether each named function of module ran while the
    first groups of its seed-0 corpus were solved."""
    owner = pipeline.library()[module]
    counts = _calls(monkeypatch, [(owner, name) for name in names], workload_groups)
    return {w: tuple(c > 0 for c in row) for w, row in counts.items()}


# (workload, groups): `surfaces` on the normal-surface side of a
# selection only, `threefolds` on the other only, `unnormalized` on both:
# its roots and saturated charts are normal surfaces, its other charts not
SIDES = (("surfaces", 10), ("unnormalized", 2), ("threefolds", 1))


def test_the_benchmark_has_a_workload_on_each_side_of_the_closed_form(monkeypatch):
    # 2D semigroups flagged saturated take `nash_blowup`'s closed form and
    # every other blowup the walk
    sides = _sides(monkeypatch, "blowup", ("_surface_charts", "_walk"), SIDES)
    assert sides == {
        "surfaces": (True, False),
        "unnormalized": (True, True),
        "threefolds": (False, True),
    }, sides


def test_the_benchmark_has_a_workload_on_each_side_of_the_surface_key(monkeypatch):
    # 2D semigroups flagged saturated are keyed by their normal form and
    # every other class by a LatticePairing
    sides = _sides(monkeypatch, "resolve", ("_surface_normal_form", "LatticePairing"), SIDES)
    assert sides == {
        "surfaces": (True, False),
        "unnormalized": (True, True),
        "threefolds": (False, True),
    }, sides


def test_the_benchmark_has_a_workload_on_each_side_of_the_seeded_pass(monkeypatch):
    # a d >= 3 walk chart extends σ̌'s cone (`Cone._extended`): a
    # double-description pass (`_cut`) seeded with σ̌'s facets, where a
    # conversion from scratch seeds it with a frame's simplicial cone. 2D
    # walk charts take the scan, the closed form none, and the `blowup`
    # command converts from scratch
    cones = pipeline.library()["cones"]
    passes = types.SimpleNamespace(seeded=cones._cut, scratch=cones._cut)

    def by_caller(*args):
        seeded = sys._getframe(1).f_code.co_name == "_extended"
        return (passes.seeded if seeded else passes.scratch)(*args)

    monkeypatch.setattr(cones, "_cut", by_caller)
    targets = (
        (passes, "seeded"),
        (passes, "scratch"),
        (cones.Cone, "_from_nonzero"),
    )
    counts = _calls(monkeypatch, targets, SIDES + (("fourfold-step", 2),))
    seeded = {w: extended > 0 for w, (extended, _, _) in counts.items()}
    assert seeded == {
        "surfaces": False,
        "unnormalized": False,
        "threefolds": True,
        "fourfold-step": False,
    }, counts
    assert counts["fourfold-step"][1] > 0, counts
    # the first `threefolds` group converts its root, once per
    # characteristic, and no chart from scratch
    roots = len(workloads.WORKLOADS["threefolds"].characteristics)
    assert counts["threefolds"][2] == roots, counts


def test_the_benchmark_has_a_workload_on_each_side_of_the_deferred_basis(monkeypatch):
    # a lattice-point semigroup in d >= 3 computes its Hilbert basis only
    # when blown up, and a 2D one at once: `threefolds` must stay on one
    # side of that selection and `surfaces` on the other, where every root
    # and every chart still computes its chain
    lib = pipeline.library()
    counts = {"hilbert": 0, "blowups": 0, "charts": 0}
    hilbert_basis = lib["semigroups"].hilbert_basis
    nash_blowup = lib["resolve"].nash_blowup

    def counted_hilbert(cone):
        counts["hilbert"] += 1
        return hilbert_basis(cone)

    def counted_blowup(S, p, normalize=True):
        charts = nash_blowup(S, p, normalize)
        counts["blowups"] += 1
        counts["charts"] += len(charts)
        return charts

    def solved(name, groups):
        counts.update(dict.fromkeys(counts, 0))
        problems = workloads.corpus(workloads.WORKLOADS[name], 0, groups)
        for problem in problems:
            pipeline.solve(lib, problem)
        return len(problems)

    monkeypatch.setattr(lib["semigroups"], "hilbert_basis", counted_hilbert)
    monkeypatch.setattr(lib["resolve"], "nash_blowup", counted_blowup)
    solved("threefolds", 2)
    assert counts["hilbert"] == counts["blowups"] > 0, counts
    roots = solved("surfaces", 10)
    assert counts["hilbert"] == roots + counts["charts"] > roots, counts
