"""One repeat of one workload, in a fresh interpreter.

    python3 bench/child.py <simulate|verify|algebra> <seed> <traced 0|1|setup>

Prints one JSON line: when it was ready (``time.monotonic``, so the parent
can subtract its spawn time), calibration times after set-up, the
iteration's wall time with the host-speed samples taken during it, peak
RSS, the correctness checks and, when traced, the per-layer metrics.  With
``setup`` it stops after set-up and its calibration.  Exits 3 when the
package cannot be imported from the checkout's ``src``.
"""

import json
import os
import resource
import sys
import threading
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(ROOT, ".bench_out")


class Simulate:
    """``brstkdv simulate`` in process: integrate, evaluate, export."""

    def __init__(self, seed):
        import shutil

        import inputs
        from brstkdv import cli

        self.cli = cli
        self.k, self.x0, self.argv = inputs.simulate_args(seed)
        self.out = os.path.join(ROOT, inputs.SIMULATE_OUT)
        self.even = inputs.EVEN_DIAGNOSTICS
        shutil.rmtree(self.out, ignore_errors=True)

    def run(self):
        self.rc = self.cli.run(self.argv)
        return {}

    def check(self):
        import hashlib

        import checks

        with open(os.path.join(self.out, "trajectory.csv")) as fh:
            csv_text = fh.read()
        with open(os.path.join(self.out, "manifest.json"), "rb") as fh:
            manifest = fh.read()
        found, err = checks.simulate_checks(self.rc, csv_text, manifest.decode(),
                                            self.k, self.x0, self.even)
        return found, {"soliton_err": err,
                       "manifest_sha256": hashlib.sha256(manifest).hexdigest()}


class Verify:
    """``brstkdv verify all``: the program's ``verify.run_all()`` as shipped,
    with its 4-thread pool, giving the eight reports."""

    def __init__(self, seed):
        from brstkdv import verify

        self.verify = verify

    def run(self):
        self.reports = [(r.check, r.status) for r in self.verify.run_all()]
        return {}

    def check(self):
        import checks

        expected = list(self.verify.CHECKS) + ["check_conservation_classical"]
        return checks.verify_checks(self.reports, expected), {}


class Algebra:
    """The exact layer alone: a Fraction phase and a sympy phase."""

    def __init__(self, seed):
        import inputs
        from brstkdv import graded, parameter, parse
        from brstkdv.reductions import build_system

        self.g = graded
        self.polys = [parse(text) for text in inputs.rational_texts(seed)]
        self.kdv = build_system("kdv")
        self.tform = build_system("t-form", beta=parameter("beta"),
                                  s=parameter("s"))
        self.sizes = {}

    def run(self):
        g, kdv, sizes = self.g, self.kdv, self.sizes
        t0 = time.perf_counter()
        for i, p in enumerate(self.polys):
            d1 = g.total_x_derivative(p)
            d = d1
            for _ in range(3):
                d = g.total_x_derivative(d)
            sizes[f"euler_of_dx_{i}"] = len(g.euler_operator(d1, "u"))
            g.reduce_on_shell(g.t_prolong(p), kdv)
            dd = g.apply_derivation(g.apply_derivation(p, kdv.brst), kdv.brst)
            if dd.has_markers():
                dd = g.reduce_on_shell(dd, kdv)
            sizes[f"delta_squared_{i}"] = len(dd)
            if p.parity():
                sizes[f"odd_gradient_of_dx_{i}"] = len(g.odd_gradient(d1, "c"))
        t1 = time.perf_counter()
        tf = self.tform
        ghost_residual = (g.GradedPoly.gen(g.marker("c"), odd_syms=frozenset({"c"}))
                          - tf.rhs["c"])
        for name, dens in sorted(tf.densities.items()):
            rate = g.reduce_on_shell(g.t_prolong(dens.density), tf)
            sizes[f"premise_{name}"] = len(g.euler_operator(rate, "T"))
            if dens.kind == "classical":
                grad = g.euler_operator(dens.density, "T")
                sizes[f"ghost_theorem_{name}"] = len(g.reduce_on_shell(
                    g.substitute_family(ghost_residual, "c", grad), tf))
        t2 = time.perf_counter()
        return {"rational_s": t1 - t0, "symbolic_s": t2 - t1}

    def check(self):
        import checks

        return checks.algebra_checks(self.sizes), {}


WORKLOADS = {"simulate": Simulate, "verify": Verify, "algebra": Algebra}


def calibrate(rounds=5):
    """Times of a fixed piece of work that uses no program code:
    interpreted loops like the exact layer's, and 512-point FFTs like the
    integrator's."""
    import numpy as np

    times = []
    for _ in range(rounds):
        t = time.perf_counter()
        acc, table = 0, {}
        for i in range(40000):
            acc += i * i % 7
            table[i & 255] = (acc, i)
        a = np.cos(np.arange(512) * 0.1)
        for _ in range(200):
            a = np.fft.irfft(np.fft.rfft(a), 512)
        times.append(time.perf_counter() - t)
    return times


class Sampler(threading.Thread):
    """Times a small piece of interpreted work every ``period`` seconds
    while the workload runs, so that times can be scaled by the host's speed
    during them rather than only around them."""

    def __init__(self, period=0.05):
        super().__init__(daemon=True)
        self.period = period
        self.samples = []
        self.done = threading.Event()

    def run(self):
        while not self.done.wait(self.period):
            t = time.perf_counter()
            acc, table = 0, {}
            for i in range(4000):
                acc += i * i % 7
                table[i & 255] = (acc, i)
            self.samples.append(time.perf_counter() - t)

    def stop(self):
        self.done.set()
        self.join()
        return self.samples


def main(argv):
    workload, seed, mode = argv[0], int(argv[1]), argv[2]
    sys.path.insert(0, SRC)
    t0 = time.perf_counter()
    try:
        import brstkdv.cli
    except ImportError as exc:
        print(f"cannot import brstkdv from {SRC}: {exc}", file=sys.stderr)
        return 3
    if not os.path.abspath(brstkdv.cli.__file__).startswith(SRC + os.sep):
        print(f"brstkdv was imported from outside {SRC}", file=sys.stderr)
        return 3
    import_s = time.perf_counter() - t0
    work = WORKLOADS[workload](seed)
    ready = time.monotonic()
    cal_before = calibrate()
    if mode == "setup":
        print(json.dumps({"ready": ready, "import_s": import_s,
                          "cal_before": cal_before}))
        return 0
    tracer = None
    if mode == "1":
        import spans

        tracer = spans.Tracer()
        tracer.install()
    sampler = Sampler()
    sampler.start()
    start = time.perf_counter()
    phases = work.run()
    end = time.perf_counter()
    speed = sampler.stop()
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    if tracer is not None:
        tracer.uninstall()
    found, extra = work.check()

    result = {"ready": ready, "import_s": import_s, "peak_rss_mb": peak_rss_mb,
              "cal_before": cal_before, "speed": speed,
              "wall_raw_s": end - start, "phases": phases,
              "checks": found, **extra}
    if tracer is not None:
        from brstkdv.verify import CHECKS

        layers = spans.layer_metrics(spans.aggregate(tracer.spans), list(CHECKS),
                                     end - start)
        layers["unattributed_share"] = spans.unattributed_share(tracer.spans, start, end)
        result["layers"] = layers
        os.makedirs(OUT, exist_ok=True)
        index = {id(s): i for i, s in enumerate(tracer.spans)}
        dump = [[s.name, s.start - start, s.end - start, index.get(id(s.parent))]
                for s in tracer.spans]
        with open(os.path.join(OUT, f"spans-{workload}.json"), "w") as fh:
            json.dump(dump, fh)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
