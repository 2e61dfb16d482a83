"""Benchmark runner: time to solution of Nash blowup problems.

    python3 perfbench/run.py --workload surfaces --seed 1 --seconds 25 --trace 0

Single process, single thread, closed loop: one problem at a time, each
taken from its JSON document to serialized JSON output along the library
path of the CLI. With --trace 0 the run reports the end-to-end metrics,
measured with tracing off and scaled to a fixed machine speed (see Gauge);
with --trace 1 it traces a fixed corpus prefix and reports the per-layer
metrics. The last line of standard output is the
result object; the line before it holds the details (sample counts, the
tail percentile, the environment). See perfbench/README.md.

Exit codes: 0 result printed, 1 the benchmark itself failed, 2 the
package sources are missing from src/.
"""

import argparse
import json
import math
import os
import platform
import resource
import statistics
import subprocess
import sys
import traceback
from collections import Counter
from time import perf_counter

import pipeline
import tracing
import workloads

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(HERE, "out")

DEFAULT_SEED = 0  # the seed of the stored output digests
SETUP_PROBES = 5  # fresh processes timed for setup_s; the median is reported

def _span_metrics(name, *stats):
    return tuple((f"{name}.{stat}", "count" if stat == "calls" else "s") for stat in stats)


PER_LAYER = (
    *_span_metrics("cones.from_rays", "calls", "s", "self_s"),
    ("cones.from_rays.rays_in", "count"),
    ("cones.from_rays.rays_in_max", "count"),
    ("linalg.det.calls", "count"),
    *_span_metrics("lp.rational_feasible", "calls", "s"),
    ("lp.rational_feasible.constraints", "count"),
    ("lp.rational_feasible.feasible_ratio", "ratio"),
    *_span_metrics("cones.polyhedron_vertices", "calls", "s", "self_s"),
    ("cones.polyhedron_vertices.vertex_ratio", "ratio"),
    *_span_metrics("cones.hilbert_basis", "calls", "s", "self_s"),
    ("cones.hilbert_basis.elements", "count"),
    *_span_metrics("cones.parallelepiped_points", "calls"),
    ("cones.parallelepiped_points.points", "count"),
    *_span_metrics("semigroups.from_cone", "calls", "s"),
    *_span_metrics("semigroups.init", "calls", "s", "self_s"),
    *_span_metrics("semigroups.minimal_generators", "calls", "s", "self_s"),
    *_span_metrics("semigroups.membership", "calls", "s"),
    *_span_metrics("blowup.log_jacobian_ideal", "calls", "s", "self_s"),
    ("blowup.log_jacobian_ideal.subsets", "count"),
    ("blowup.log_jacobian_ideal.exponent_ratio", "ratio"),
    *_span_metrics("blowup.newton_polyhedron", "calls", "s"),
    ("blowup.newton_polyhedron.vertices", "count"),
    *_span_metrics("blowup.blowup_charts", "calls", "s", "self_s"),
    ("blowup.blowup_charts.charts", "count"),
    *_span_metrics("linalg.smith_normal_form", "calls", "s"),
    *_span_metrics("linalg.group_is_full_lattice", "calls", "s"),
    *_span_metrics("resolve.resolve", "s", "self_s"),
    ("resolve.nodes", "count"),
    ("resolve.expansions", "count"),
    ("resolve.expansions.distinct", "count"),
    ("resolve.repeat_share", "ratio"),
    ("resolve.depth_max", "count"),
    ("io.parse_input.s", "s"),
    ("io.serialize.s", "s"),
    ("io.bytes_out", "B"),
    *((f"{layer}.self_s", "s") for layer in ("linalg", "lp", "cones", "semigroups", "blowup", "resolve", "io")),
    ("trace.problems", "count"),
    ("trace.problem_s", "s"),
    ("trace.unattributed_s", "s"),
    ("trace.overhead", "ratio"),
)


def _load_package():
    """Import nashtoric from this checkout's src/ and nowhere else."""
    if not os.path.isfile(os.path.join(SRC, "nashtoric", "__init__.py")):
        sys.stderr.write(f"perfbench: no package sources at {SRC}/nashtoric\n")
        raise SystemExit(2)
    sys.path.insert(0, SRC)
    import nashtoric

    if os.path.dirname(os.path.dirname(os.path.abspath(nashtoric.__file__))) != SRC:
        sys.stderr.write(f"perfbench: nashtoric was imported from {nashtoric.__file__}\n")
        raise SystemExit(2)


# -- the pieces every mode shares -------------------------------------------


def _setup(workload_name, seed, groups=None):
    """Import, corpus generation and one warm-up problem: the work a run
    does before its first timed problem."""
    lib = pipeline.library()
    w = workloads.WORKLOADS[workload_name]
    problems = workloads.corpus(w, seed, groups)
    pipeline.solve(lib, workloads.warmup_problem(w))
    return lib, w, problems


def _run_one(lib, problem):
    """(seconds, text, exit code, objects, error) for one problem."""
    start = perf_counter()
    try:
        text, code, objects = pipeline.solve(lib, problem)
    except Exception:  # counted as a failed problem; the run goes on
        return perf_counter() - start, None, None, None, traceback.format_exc()
    return perf_counter() - start, text, code, objects, None


class Gauge:
    """The machine's speed, measured between problems.

    On the shared machine this was built on, speed moves by 20-50% within
    seconds, and a 25 s run of one corpus read up to 40% slower than the
    run before. So a fixed kernel that uses no package code runs between
    problems, at least every GAP_S of problem time, and each problem time
    is scaled by NOMINAL_S over the median of the WINDOW kernel samples
    just before it and the WINDOW just after it. Scaled times are seconds
    of a machine on which the kernel takes NOMINAL_S. A change to the
    package does not move the kernel, so it moves scaled times as it moves
    wall times. The raw times are kept in the details.
    """

    NOMINAL_S = 2e-3  # the kernel's median time here, when the machine ran fast
    GAP_S = 0.02
    WINDOW = 2

    _MATRIX = ((3, 1, 4, 1), (5, 9, 2, 6), (5, 3, 5, 8), (9, 7, 9, 3))

    def __init__(self):
        self.samples = []
        self.marks = []  # per problem: samples taken before it started
        self._since = float("inf")

    def sample(self):
        start = perf_counter()
        seen = {}
        for i in range(500):
            seen[(i, i % 7)] = pipeline._det(self._MATRIX) + i
        self.samples.append(perf_counter() - start)
        self._since = 0.0

    def before_problem(self, previous_s=0.0):
        self._since += previous_s
        if self._since >= self.GAP_S:
            self.sample()
        self.marks.append(len(self.samples))

    def factor(self, mark):
        """NOMINAL_S over the median kernel time around a mark."""
        window = self.samples[max(0, mark - self.WINDOW): mark + self.WINDOW]
        return self.NOMINAL_S / statistics.median(window)

    def scale(self, times):
        self.sample()  # the window of the last problems needs a later sample
        return [t * self.factor(mark) for t, mark in zip(times, self.marks)]


class Ledger:
    """Failures, output digests and invariant checks of one run."""

    def __init__(self, workload):
        self.failed = {}
        self.digests = {}  # pid -> (problem key, output digest)
        self.outcomes = Counter()  # CLI exit code -> problems; 3 and 4 are not failures
        self.agreement = (
            pipeline.GroupAgreement(len(workload.characteristics))
            if workload.same_tree_every_p
            else None
        )

    def record(self, problem, text, code, objects, error):
        """Check one output; returns its parsed payload, or None."""
        if error is not None:
            self.fail(problem.pid, error.strip().splitlines()[-1])
            return None
        self.outcomes[code] += 1
        self.digests[problem.pid] = (pipeline.problem_key(problem), pipeline.digest(text))
        try:
            payload = json.loads(text)
            bad = pipeline.check(problem, objects, payload)
        except Exception as exc:  # a malformed output is a failure, not a crash
            bad = [f"check raised {exc!r}"]
            payload = None
        for message in bad[:1]:
            self.fail(problem.pid, message)
        if self.agreement is not None and payload is not None:
            for pid in self.agreement.add(problem, payload):
                self.fail(pid, "trees differ across characteristics")
        return payload

    def fail(self, pid, message):
        if pid not in self.failed:
            self.failed[pid] = message
            if len(self.failed) <= 5:
                sys.stderr.write(f"perfbench: problem {pid} failed: {message}\n")

    def compare_stored(self, workload_name):
        """Match outputs against the stored digests; returns how many were
        in the table. Problems of any seed are matched by their key."""
        with open(os.path.join(HERE, "digests.json")) as fh:
            table = json.load(fh).get(workload_name, {})
        checked = 0
        for pid, (key, value) in self.digests.items():
            expected = table.get(key)
            if expected is None:
                continue
            checked += 1
            if expected != value:
                self.fail(pid, "output digest differs from the stored one")
        return checked

    def combined_digest(self):
        return pipeline.digest("".join(d for _, (_, d) in sorted(self.digests.items())))


def _tail(times, percentile):
    """Nearest-rank percentile and how many samples lie beyond it."""
    ordered = sorted(times)
    rank = max(1, math.ceil(percentile / 100 * len(ordered)))
    return ordered[rank - 1], len(ordered) - rank


def _metric(value, unit):
    return {"value": value, "unit": unit}


def _environment(seed):
    cpu = platform.processor() or None
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    sources = os.path.join(SRC, "nashtoric")
    tree = []
    for name in sorted(os.listdir(sources)):
        if name.endswith(".py"):
            with open(os.path.join(sources, name)) as fh:
                tree.append(name + fh.read())
    try:
        commit = subprocess.run(
            ["git", "rev-parse", "HEAD"],
            cwd=ROOT,
            capture_output=True,
            text=True,
            timeout=10,
            env={**os.environ, "GIT_CEILING_DIRECTORIES": os.path.dirname(ROOT)},
        ).stdout.strip() or None
    except (OSError, subprocess.SubprocessError):
        commit = None
    return {
        "python": platform.python_version(),
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_model": cpu,
        "platform": platform.platform(),
        "commit": commit,
        "source_sha256": pipeline.digest("".join(tree)),
        "seed": seed,
    }


def _setup_seconds(workload_name, seed):
    """Wall time from spawning a fresh interpreter to the end of its setup."""
    start = perf_counter()
    proc = subprocess.Popen(
        [sys.executable, os.path.abspath(__file__), "--setup-probe",
         "--workload", workload_name, "--seed", str(seed)],
        stdout=subprocess.PIPE,
        text=True,
    )
    try:
        line = proc.stdout.readline()
        elapsed = perf_counter() - start
        proc.stdout.read()
    finally:
        proc.stdout.close()
        status = proc.wait(timeout=60)
    if line.strip() != "ready" or status != 0:
        raise RuntimeError(f"setup probe exited with {status}")
    return elapsed


# -- the two kinds of run ---------------------------------------------------


def _timed_loop(lib, problems, ledger, seconds=float("inf"), run=_run_one, on_payload=None):
    """Problems in order until `seconds` of problem time or the corpus
    ends. Returns (wall times, scaled times)."""
    gauge = Gauge()
    times = []
    busy = 0.0
    for problem in problems:
        if busy >= seconds:
            break
        gauge.before_problem(times[-1] if times else 0.0)
        elapsed, text, code, objects, error = run(lib, problem)
        busy += elapsed
        times.append(elapsed)
        payload = ledger.record(problem, text, code, objects, error)
        if on_payload is not None and payload is not None:
            on_payload(payload)
    return times, gauge.scale(times)


def measure(workload_name, seed, seconds, groups=None, probes=SETUP_PROBES):
    """Untraced run: `seconds` of problem time, or the whole of a fixed
    corpus. Returns (metrics, details, ledger)."""
    setup = [_setup_seconds(workload_name, seed) for _ in range(probes)]
    lib, w, problems = _setup(workload_name, seed, groups)
    ledger = Ledger(w)
    times, scaled = _timed_loop(lib, problems, ledger, float("inf") if w.run_whole else seconds)
    checked = ledger.compare_stored(workload_name)
    tail, beyond = _tail(scaled, w.tail_percentile)
    n = len(times)
    metrics = {
        "problem_s.p50": _metric(statistics.median(scaled), "s"),
        "problem_s.tail": _metric(tail, "s"),
        "problems_per_s": _metric(n / sum(scaled), "1/s"),
        "setup_s": _metric(statistics.median(setup), "s"),
        "peak_rss_mb": _metric(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MiB"),
        "ok_frac": _metric(1 - len(ledger.failed) / n, "ratio"),
    }
    details = {
        "n": n,
        "tail_percentile": w.tail_percentile,
        "beyond_tail": beyond,
        "wall": {
            "problem_s.p50": statistics.median(times),
            "problem_s.tail": _tail(times, w.tail_percentile)[0],
            "problems_per_s": n / sum(times),
            "busy_s": sum(times),
        },
        "setup_samples_s": setup,
        "speed": sum(times) / sum(scaled),  # wall over scaled: > 1 on a slow machine
        "digest_checked": checked,
        "outcomes": dict(ledger.outcomes),
        "times_s": times,  # wall, by corpus position; written to the out file only
    }
    return metrics, details, ledger


def _tree_stats(payload, stats):
    """Nodes, expansions, distinct (p, generators) expansions, depth."""
    if payload.get("kind") != "resolution-tree":
        return
    p = payload["characteristic"]
    stack = [payload["root"]]
    while stack:
        node = stack.pop()
        stats["nodes"] += 1
        stats["depth_max"] = max(stats["depth_max"], node["depth"])
        if node["status"] == "expanded":
            stats["expansions"] += 1
            stats["distinct"].add((p, json.dumps(node["generators"])))
        stack.extend(child["node"] for child in node["children"])


def trace(workload_name, seed, groups=None):
    """Traced run over a fixed corpus prefix, then the same prefix untraced
    in a fresh process for the overhead. Returns (metrics, details, ledger,
    tracer)."""
    w = workloads.WORKLOADS[workload_name]
    groups = w.trace_groups if groups is None else groups
    lib, w, problems = _setup(workload_name, seed, groups)
    ledger = Ledger(w)
    tracer = tracing.Tracer()
    tracer.install(lib)

    def traced_one(lib, problem):
        tracer.begin(problem.pid)
        try:
            return _run_one(lib, problem)
        finally:
            tracer.end()

    stats = {"nodes": 0, "expansions": 0, "depth_max": 0, "distinct": set()}
    try:
        times, scaled = _timed_loop(
            lib, problems, ledger, run=traced_one, on_payload=lambda p: _tree_stats(p, stats)
        )
    finally:
        tracer.restore()
    busy = sum(times)
    if not tracer.restored():
        raise RuntimeError("tracing wrappers were not restored")
    checked = ledger.compare_stored(workload_name)
    replay = json.loads(
        subprocess.run(
            [sys.executable, os.path.abspath(__file__), "--replay", str(groups),
             "--workload", workload_name, "--seed", str(seed)],
            capture_output=True,
            text=True,
            timeout=170,
            check=True,
        ).stdout
    )
    if replay["digest"] != ledger.combined_digest():
        ledger.fail(-1, "traced outputs differ from untraced outputs")

    layer = tracer.layer_metrics(busy)
    distinct = len(stats["distinct"])
    layer.update(
        {
            "resolve.nodes": stats["nodes"],
            "resolve.expansions": stats["expansions"],
            "resolve.expansions.distinct": distinct,
            "resolve.repeat_share": 1 - distinct / stats["expansions"] if stats["expansions"] else 0.0,
            "resolve.depth_max": stats["depth_max"],
            "trace.problems": len(problems),
            "trace.problem_s": busy,
            "trace.overhead": sum(scaled) / replay["scaled_s"] - 1,
        }
    )
    metrics = {name: _metric(layer.get(name, 0), unit) for name, unit in PER_LAYER}
    details = {
        "n": len(problems),
        "groups": groups,
        "untraced_s": replay["busy_s"],
        "overhead_wall": busy / replay["busy_s"] - 1,
        "spans": len(tracer.spans),
        "digest_checked": checked,
        "outcomes": dict(ledger.outcomes),
    }
    return metrics, details, ledger, tracer


def _replay(workload_name, seed, groups):
    """The untraced side of a traced run, in a fresh process."""
    lib, w, problems = _setup(workload_name, seed, groups)
    ledger = Ledger(w)
    times, scaled = _timed_loop(lib, problems, ledger)
    print(json.dumps({"busy_s": sum(times), "scaled_s": sum(scaled), "digest": ledger.combined_digest()}))


# -- self-test ----------------------------------------------------------------


def selftest():
    """A few problems per workload, both modes: every declared metric is
    emitted with its unit, tracing leaves no wrapper behind, nothing fails
    and every output matches its stored digest."""
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    declared = {
        0: {m["name"]: m["unit"] for m in spec["end_to_end"]},
        1: {m["name"]: m["unit"] for m in spec["per_layer"]},
    }
    problems = []
    if [w["name"] for w in spec["workloads"]] != list(workloads.WORKLOADS):
        problems.append("BENCHMARK.json workloads differ from workloads.WORKLOADS")
    for name in workloads.WORKLOADS:
        m0, d0, l0 = measure(name, DEFAULT_SEED, float("inf"), groups=1, probes=1)
        m1, d1, l1, _ = trace(name, DEFAULT_SEED, groups=1)
        for mode, metrics in ((0, m0), (1, m1)):
            emitted = {k: v["unit"] for k, v in metrics.items()}
            if emitted != declared[mode]:
                problems.append(f"{name} trace {mode}: metrics or units differ from BENCHMARK.json")
        leftovers = tracing.Tracer.leftovers()
        if leftovers:
            problems.append(f"{name}: tracing wrappers still bound: {leftovers}")
        if l0.failed or l1.failed:
            problems.append(f"{name}: failures {l0.failed or l1.failed}")
        if d0["digest_checked"] != d0["n"] or d1["digest_checked"] != d1["n"]:
            problems.append(f"{name}: outputs without a stored digest")
        print(f"selftest {name}: {d0['n']} problems, {d1['spans']} spans", flush=True)
    for message in problems:
        print("selftest FAIL: " + message)
    print("selftest " + ("FAIL" if problems else "PASS"))
    return 1 if problems else 0


# -- command line -------------------------------------------------------------


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=25.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--selftest", action="store_true", help="quick check of the benchmark")
    parser.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    parser.add_argument("--replay", type=int, metavar="GROUPS", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)

    _load_package()
    if args.selftest:
        return selftest()
    if args.workload not in workloads.WORKLOADS:
        parser.error("--workload must be one of: " + ", ".join(workloads.WORKLOADS))
    if args.setup_probe:
        _setup(args.workload, args.seed)
        print("ready", flush=True)
        return 0
    if args.replay is not None:
        _replay(args.workload, args.seed, args.replay)
        return 0

    if args.trace:
        metrics, details, ledger, tracer = trace(args.workload, args.seed)
    else:
        metrics, details, ledger = measure(args.workload, args.seed, args.seconds)
    attempted = details["n"]
    details.update(
        workload=args.workload,
        trace=args.trace,
        seconds=args.seconds,
        env=_environment(args.seed),
        failures={str(k): v for k, v in list(ledger.failed.items())[:20]},
    )
    result = {
        "correct": not ledger.failed,
        "attempted": attempted,
        "failed": len(ledger.failed),
        "metrics": metrics,
    }
    os.makedirs(OUT, exist_ok=True)
    stem = os.path.join(OUT, f"{args.workload}-trace{args.trace}")
    with open(stem + ".json", "w") as fh:
        json.dump({"details": details, "result": result}, fh)
    if args.trace:
        tracer.dump(stem + "-spans.json.gz", details)
    details.pop("times_s", None)
    print(json.dumps({"details": details}))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
