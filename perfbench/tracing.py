"""Spans and counters around the calls into each layer, from outside.

The harness rebinds public functions of the package for the duration of a
traced run and restores them afterwards; the library itself is untouched.
Three kinds of binding are rebound:

- module functions, in every `nashtoric.*` module that holds them, because
  `from .cones import polyhedron_vertices` copies the binding into
  blowup, semigroups and the package namespace;
- methods, on their class;
- classmethods (`Cone.from_rays`, `AffineSemigroup.from_cone`), as a new
  classmethod around the original function.

A span is (name, start, end, parent, problem id), kept in memory and
written out at the end. Spans are only recorded while a problem is open,
so the benchmark's own checks between problems stay out of the trace.
`linalg.det` is called ~45000 times per 4D step and gets a counter only.
"""

import gzip
import json
import sys
from collections import defaultdict
from math import comb
from time import perf_counter


def _lp(c, args, kwargs, res):
    c["lp.rational_feasible.constraints"] += len(args[0])
    c["lp.rational_feasible.feasible"] += res is not None


def _from_rays(c, args, kwargs, res):
    n = len(args[1])  # args[0] is the class
    c["cones.from_rays.rays_in"] += n
    c["cones.from_rays.rays_in_max"] = max(c["cones.from_rays.rays_in_max"], n)


def _vertices(c, args, kwargs, res):
    c["cones.polyhedron_vertices.points"] += len(set(map(tuple, args[0])))
    c["cones.polyhedron_vertices.vertices"] += len(res)


def _hilbert(c, args, kwargs, res):
    c["cones.hilbert_basis.elements"] += len(res.elements)


def _parallelepiped(c, args, kwargs, res):
    c["cones.parallelepiped_points.points"] += len(res)


def _logjac(c, args, kwargs, res):
    S = res.semigroup
    c["blowup.log_jacobian_ideal.subsets"] += comb(len(S.minimal_generators()), S.dim)
    c["blowup.log_jacobian_ideal.exponents"] += len(res.exponents)


def _newton(c, args, kwargs, res):
    c["blowup.newton_polyhedron.vertices"] += len(res.vertices)


def _charts(c, args, kwargs, res):
    c["blowup.blowup_charts.charts"] += len(res)


def _bytes_out(c, args, kwargs, res):
    c["io.bytes_out"] += len(res.encode())


# (module, attribute path, span name, counter hook run after the call)
TARGETS = (
    ("linalg", "smith_normal_form", "linalg.smith_normal_form", None),
    ("linalg", "group_is_full_lattice", "linalg.group_is_full_lattice", None),
    ("lp", "rational_feasible", "lp.rational_feasible", _lp),
    ("cones", "Cone.from_rays", "cones.from_rays", _from_rays),
    ("cones", "polyhedron_vertices", "cones.polyhedron_vertices", _vertices),
    ("cones", "hilbert_basis", "cones.hilbert_basis", _hilbert),
    ("cones", "parallelepiped_points", "cones.parallelepiped_points", _parallelepiped),
    ("semigroups", "AffineSemigroup.__init__", "semigroups.init", None),
    ("semigroups", "AffineSemigroup.from_cone", "semigroups.from_cone", None),
    ("semigroups", "AffineSemigroup.minimal_generators", "semigroups.minimal_generators", None),
    ("semigroups", "AffineSemigroup.membership", "semigroups.membership", None),
    ("blowup", "log_jacobian_ideal", "blowup.log_jacobian_ideal", _logjac),
    ("blowup", "newton_polyhedron", "blowup.newton_polyhedron", _newton),
    ("blowup", "blowup_charts", "blowup.blowup_charts", _charts),
    ("resolve", "resolve", "resolve.resolve", None),
    ("io", "parse_input", "io.parse_input", None),
    # payload and JSON text together make up io.serialize
    ("io", "tree_payload", "io.serialize", None),
    ("io", "charts_payload", "io.serialize", None),
    ("io", "serialize", "io.serialize", _bytes_out),
)


class Tracer:
    def __init__(self):
        self.names = []
        self.spans = []  # (name index, start, end, parent index or -1, problem id)
        self.counters = defaultdict(int)
        self.problem = None
        self._stack = []
        self._patches = []  # (owner, attribute, original object)
        self._det_calls = [0]

    # -- installing and restoring -------------------------------------------

    def install(self, lib):
        for module, path, name, hook in TARGETS:
            owner = lib[module]
            *outer, attr = path.split(".")
            for part in outer:
                owner = getattr(owner, part)
            if outer:
                self._patch_class(owner, attr, name, hook)
            else:
                self._patch_function(getattr(owner, attr), name, hook)
        det = lib["linalg"].det
        calls = self._det_calls

        def counted_det(M):
            calls[0] += 1
            return det(M)

        counted_det.perfbench_wrapper = True
        self._rebind_everywhere(det, counted_det)

    def _patch_class(self, cls, attr, name, hook):
        original = cls.__dict__[attr]
        if isinstance(original, classmethod):
            wrapped = classmethod(self._wrap(original.__func__, name, hook))
        else:
            wrapped = self._wrap(original, name, hook)
        self._patches.append((cls, attr, original))
        setattr(cls, attr, wrapped)

    def _patch_function(self, fn, name, hook):
        self._rebind_everywhere(fn, self._wrap(fn, name, hook))

    def _rebind_everywhere(self, original, wrapped):
        for modname, module in list(sys.modules.items()):
            if modname != "nashtoric" and not modname.startswith("nashtoric."):
                continue
            for attr, value in list(vars(module).items()):
                if value is original:
                    self._patches.append((module, attr, original))
                    setattr(module, attr, wrapped)

    def restore(self):
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)

    @staticmethod
    def leftovers():
        """Names in any nashtoric module or class still bound to a wrapper."""
        found = []
        for modname, module in list(sys.modules.items()):
            if modname != "nashtoric" and not modname.startswith("nashtoric."):
                continue
            for attr, value in list(vars(module).items()):
                if getattr(value, "perfbench_wrapper", False):
                    found.append(f"{modname}.{attr}")
                if isinstance(value, type):
                    for member, inner in vars(value).items():
                        if getattr(getattr(inner, "__func__", inner), "perfbench_wrapper", False):
                            found.append(f"{modname}.{attr}.{member}")
        return found

    def restored(self) -> bool:
        """True when every rebound name holds its original object again."""
        return all(
            vars(owner).get(attr) is original for owner, attr, original in self._patches
        )

    def _wrap(self, fn, name, hook):
        if name not in self.names:
            self.names.append(name)
        index = self.names.index(name)
        spans, stack, counters = self.spans, self._stack, self.counters

        def wrapper(*args, **kwargs):
            problem = self.problem
            if problem is None:
                return fn(*args, **kwargs)
            me = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(me)
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = perf_counter()
                stack.pop()
                spans[me] = (index, start, end, parent, problem)
            if hook is not None:
                self.problem = None  # hook calls into the library are not spans
                try:
                    hook(counters, args, kwargs, result)
                finally:
                    self.problem = problem
            return result

        wrapper.__wrapped__ = fn
        wrapper.__name__ = getattr(fn, "__name__", name)
        wrapper.perfbench_wrapper = True
        return wrapper

    # -- recording -----------------------------------------------------------

    def begin(self, pid):
        self.problem = pid

    def end(self):
        self.problem = None
        self._stack.clear()

    # -- results -------------------------------------------------------------

    def layer_metrics(self, problem_s):
        """Per-span-name calls, inclusive and self seconds; module self
        seconds; and the part of the traced problem time no span covers.

        Inclusive time counts only spans with no ancestor of the same name,
        so recursion (Cone.from_rays inside Cone.from_rays) is not counted
        twice. Self time is duration minus the durations of direct children.
        """
        spans = self.spans
        n_names = len(self.names)
        calls = [0] * n_names
        incl = [0.0] * n_names
        self_s = [0.0] * n_names
        covered = [0.0] * len(spans)
        for name, start, end, parent, _ in spans:
            if parent >= 0:
                covered[parent] += end - start
        for i, (name, start, end, parent, _) in enumerate(spans):
            dur = end - start
            calls[name] += 1
            self_s[name] += dur - covered[i]
            up = parent
            while up >= 0 and spans[up][0] != name:
                up = spans[up][3]
            if up < 0:
                incl[name] += dur
        out = {}
        modules = {}
        for i, name in enumerate(self.names):
            out[name + ".calls"] = calls[i]
            out[name + ".s"] = incl[i]
            out[name + ".self_s"] = self_s[i]
            module = name.split(".")[0]
            modules[module] = modules.get(module, 0.0) + self_s[i]
        for module, value in modules.items():
            out[module + ".self_s"] = value
        attributed = sum(modules.values())
        out["trace.unattributed_s"] = problem_s - attributed
        c = self.counters
        out.update(c)
        out["linalg.det.calls"] = self._det_calls[0]

        def ratio(num, den):
            return num / den if den else 0.0

        out["lp.rational_feasible.feasible_ratio"] = ratio(
            c["lp.rational_feasible.feasible"], out.get("lp.rational_feasible.calls", 0)
        )
        out["cones.polyhedron_vertices.vertex_ratio"] = ratio(
            c["cones.polyhedron_vertices.vertices"], c["cones.polyhedron_vertices.points"]
        )
        out["blowup.log_jacobian_ideal.exponent_ratio"] = ratio(
            c["blowup.log_jacobian_ideal.exponents"], c["blowup.log_jacobian_ideal.subsets"]
        )
        return out

    def dump(self, path, meta):
        """Write every span, compressed, with the name table and `meta`.
        Start and end are nanoseconds since the first span began."""
        t0 = self.spans[0][1] if self.spans else 0.0
        spans = [
            (name, round((start - t0) * 1e9), round((end - t0) * 1e9), parent, problem)
            for name, start, end, parent, problem in self.spans
        ]
        with gzip.open(path, "wt") as fh:
            json.dump(
                {
                    "meta": meta,
                    "names": self.names,
                    "fields": ["name", "start_ns", "end_ns", "parent", "problem"],
                    "spans": spans,
                },
                fh,
                separators=(",", ":"),
            )
