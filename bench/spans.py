"""Outside-in tracing: spans around the package's public functions.

The tracer rebinds each traced function in every loaded ``brstkdv.*``
module that holds it (and in ``verify.CHECKS``), so calls made from inside
the package are traced too; it changes no program code.  It also counts
``numpy.fft.rfft``/``irfft`` calls and integrator steps.

Spans are kept in memory, one stack per thread.  A span that starts on a
thread whose stack is empty (a ``run_all`` pool thread) takes the main
thread's innermost open span as its parent.  A span's self time is its
duration minus the part of it that its children cover; children that ran
concurrently on pool threads are merged before subtracting.
"""

from __future__ import annotations

import functools
import os
import sys
import threading
import time

# (module, attribute or Class.method, span name); several functions may
# share a span name, as the two grid maps do.
TARGETS = (
    ("brstkdv.cli", "run", "cli.run"),
    ("brstkdv.solver", "evolve", "solver.evolve"),
    ("brstkdv.solver", "evaluate_functional", "solver.evaluate_functional"),
    ("brstkdv.solver", "spectral_derivative", "solver.spectral_derivative"),
    ("brstkdv.solver", "Trajectory.export_csv", "solver.export_csv"),
    ("brstkdv.solver", "Trajectory.export_manifest", "solver.export_manifest"),
    ("brstkdv.reductions", "build_system", "reductions.build_system"),
    ("brstkdv.reductions", "miura_map", "reductions.maps"),
    ("brstkdv.reductions", "ckdv_to_mkdv", "reductions.maps"),
    ("brstkdv.reductions", "zero_curvature_components",
     "reductions.zero_curvature_components"),
    ("brstkdv.grammar", "parse", "grammar.parse"),
    ("brstkdv.sl2", "canonical_brst_rules", "sl2.canonical_brst_rules"),
    ("brstkdv.verify", "run_all", "verify.run_all"),
)

GRADED_FUNCTIONS = ("total_x_derivative", "apply_derivation", "t_prolong",
                    "reduce_on_shell", "substitute_family", "euler_operator",
                    "odd_gradient")


class Span:
    __slots__ = ("name", "start", "end", "parent", "ffts", "steps",
                 "step_ffts", "terms_out", "nbytes", "system")

    def __init__(self, name, start, parent):
        self.name = name
        self.start = start
        self.end = None
        self.parent = parent
        self.ffts = 0          # FFTs made while this span was innermost
        self.steps = 0         # integrator steps taken directly inside it
        self.step_ffts = 0     # the part of ffts made inside those steps
        self.terms_out = 0     # len() of an exact-algebra result
        self.nbytes = 0        # size of an exported file
        self.system = None     # system name of an evolve call


class Tracer:
    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.spans = []
        self.unspanned_ffts = 0
        self._local = threading.local()
        self._main_stack = self._stack()
        self._lock = threading.Lock()
        self._undo = []

    def _stack(self):
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def open(self, name):
        stack = self._stack()
        if stack:
            parent = stack[-1]
        elif stack is not self._main_stack and self._main_stack:
            parent = self._main_stack[-1]
        else:
            parent = None
        span = Span(name, self.clock(), parent)
        stack.append(span)
        self.spans.append(span)
        return span

    def close(self, span):
        span.end = self.clock()
        self._stack().pop()

    # -- counters ---------------------------------------------------------

    def count_fft(self):
        stack = self._stack()
        if stack:
            top = stack[-1]
            top.ffts += 1
            if getattr(self._local, "in_step", False):
                top.step_ffts += 1
        else:
            with self._lock:
                self.unspanned_ffts += 1

    # -- wrapping ---------------------------------------------------------

    def wrap(self, fn, name, after=None):
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = tracer.open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer.close(span)
            if after is not None:
                after(span, args, kwargs, result)
            return result

        return traced

    def _rebind(self, orig, new):
        """Replace ``orig`` wherever a loaded brstkdv module holds it."""
        for mod in list(sys.modules.values()):
            if not getattr(mod, "__name__", "").startswith("brstkdv"):
                continue
            for attr, val in list(vars(mod).items()):
                if val is orig:
                    self._undo.append((setattr, mod, attr, orig))
                    setattr(mod, attr, new)
        checks = getattr(sys.modules.get("brstkdv.verify"), "CHECKS", {})
        for key, val in list(checks.items()):
            if val is orig:
                self._undo.append((dict.__setitem__, checks, key, orig))
                checks[key] = new

    def install(self):
        """Wrap the traced functions, the FFT entry points and the stepper."""
        import numpy.fft

        import brstkdv.cli  # noqa: F401  (loads every traced module)
        from brstkdv import graded, solver, verify

        def terms_out(span, args, kwargs, result):
            span.terms_out = len(result)

        def exported(span, args, kwargs, result):
            path = args[1] if len(args) > 1 else kwargs["path"]
            span.nbytes = os.path.getsize(path)

        def evolved(span, args, kwargs, result):
            system = args[1] if len(args) > 1 else kwargs["system"]
            span.system = system.name

        hooks = {"solver.export_csv": exported, "solver.export_manifest": exported,
                 "solver.evolve": evolved}
        for modname, attr, name in TARGETS:
            mod = sys.modules[modname]
            if "." in attr:
                cls_name, meth = attr.split(".")
                cls = getattr(mod, cls_name)
                orig = vars(cls)[meth]
                self._undo.append((setattr, cls, meth, orig))
                setattr(cls, meth, self.wrap(orig, name, hooks.get(name)))
            else:
                orig = getattr(mod, attr)
                self._rebind(orig, self.wrap(orig, name, hooks.get(name)))
        for fname in GRADED_FUNCTIONS:
            orig = getattr(graded, fname)
            self._rebind(orig, self.wrap(orig, "graded." + fname, terms_out))
        for check_name, orig in list(verify.CHECKS.items()):
            self._rebind(orig, self.wrap(orig, "verify." + check_name))

        tracer = self
        for fname in ("rfft", "irfft"):
            orig = getattr(numpy.fft, fname)

            def counted(*args, _orig=orig, **kwargs):
                tracer.count_fft()
                return _orig(*args, **kwargs)

            self._undo.append((setattr, numpy.fft, fname, orig))
            setattr(numpy.fft, fname, counted)

        advance = solver._Stepper.advance

        def stepped(stepper, *args, **kwargs):
            tracer._local.in_step = True
            try:
                return advance(stepper, *args, **kwargs)
            finally:
                tracer._local.in_step = False
                stack = tracer._stack()
                if stack:
                    stack[-1].steps += 1

        self._undo.append((setattr, solver._Stepper, "advance", advance))
        solver._Stepper.advance = stepped

    def uninstall(self):
        while self._undo:
            setter, obj, key, orig = self._undo.pop()
            setter(obj, key, orig)


# ---------------------------------------------------------------------------
# span arithmetic

def covered(intervals, lo, hi):
    """Length of [lo, hi] covered by the union of the given intervals."""
    total, reach = 0.0, lo
    for a, b in sorted(intervals):
        a, b = max(a, reach), min(b, hi)
        if b > a:
            total += b - a
            reach = b
    return total


def self_times(spans):
    """Map each span to its duration minus the time its children cover."""
    children = {}
    for s in spans:
        if s.parent is not None:
            children.setdefault(id(s.parent), []).append((s.start, s.end))
    return {id(s): (s.end - s.start)
            - covered(children.get(id(s), ()), s.start, s.end)
            for s in spans}


def aggregate(spans):
    """Per span name: calls, total and self seconds, and summed counters."""
    own = self_times(spans)
    out = {}
    for s in spans:
        a = out.setdefault(s.name, {"calls": 0, "total_s": 0.0, "self_s": 0.0,
                                    "ffts": 0, "steps": 0, "step_ffts": 0,
                                    "terms_out": 0, "nbytes": 0, "by_system": {}})
        a["calls"] += 1
        a["total_s"] += s.end - s.start
        a["self_s"] += own[id(s)]
        a["ffts"] += s.ffts
        a["steps"] += s.steps
        a["step_ffts"] += s.step_ffts
        a["terms_out"] += s.terms_out
        a["nbytes"] += s.nbytes
        if s.system is not None:
            steps, ffts = a["by_system"].get(s.system, (0, 0))
            a["by_system"][s.system] = (steps + s.steps, ffts + s.step_ffts)
    return out


def unattributed_share(spans, lo, hi):
    """Share of [lo, hi] that no span covers."""
    if hi <= lo:
        return 0.0
    return 1.0 - covered([(s.start, s.end) for s in spans], lo, hi) / (hi - lo)


# ---------------------------------------------------------------------------
# per-layer metrics of one traced iteration

COUNTED = ("solver.evaluate_functional", "solver.spectral_derivative",
           "reductions.build_system", "grammar.parse")
TIMED = COUNTED + ("solver.export_csv", "solver.export_manifest",
                   "reductions.maps", "reductions.zero_curvature_components",
                   "sl2.canonical_brst_rules", "cli.run")
STEPPED_SYSTEMS = ("kdv", "mkdv", "ckdv")


def layer_metrics(agg, check_names, wall):
    """Flatten an :func:`aggregate` into the benchmark's per-layer names.

    Times are shares of the iteration's wall time ``wall``: a layer the
    workload never enters reads 0, which as a time would read the same on
    every run.
    """
    empty = {"calls": 0, "total_s": 0.0, "self_s": 0.0, "ffts": 0, "steps": 0,
             "step_ffts": 0, "terms_out": 0, "nbytes": 0, "by_system": {}}

    def get(name):
        return agg.get(name, empty)

    def ratio(a, b):
        return a / b if b else 0.0

    m = {}
    ev = get("solver.evolve")
    m["solver.evolve.self_share"] = ev["self_s"] / wall
    m["solver.evolve.calls"] = ev["calls"]
    m["solver.evolve.steps"] = ev["steps"]
    m["solver.evolve.fft_calls"] = ev["ffts"]
    m["solver.evolve.fft_per_step"] = ratio(ev["step_ffts"], ev["steps"])
    for system in STEPPED_SYSTEMS:
        steps, ffts = ev["by_system"].get(system, (0, 0))
        m[f"solver.evolve.{system}.fft_per_step"] = ratio(ffts, steps)
    for name in TIMED:
        m[name + ".self_share"] = get(name)["self_s"] / wall
    for name in COUNTED:
        m[name + ".calls"] = get(name)["calls"]
    m["solver.evaluate_functional.fft_calls"] = get("solver.evaluate_functional")["ffts"]
    m["solver.export_csv.bytes"] = get("solver.export_csv")["nbytes"]
    for fname in GRADED_FUNCTIONS:
        a = get("graded." + fname)
        m[f"graded.{fname}.self_share"] = a["self_s"] / wall
        m[f"graded.{fname}.calls"] = a["calls"]
        m[f"graded.{fname}.terms_out"] = a["terms_out"]
    checks_sum = 0.0
    for check in check_names:
        total = get("verify." + check)["total_s"]
        m[f"verify.{check}.total_share"] = total / wall
        checks_sum += total
    # above 1 while the checks share run_all's pool (and wait on the GIL)
    m["verify.overlap"] = ratio(checks_sum, get("verify.run_all")["total_s"])
    return m
