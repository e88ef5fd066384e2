"""The repository benchmark.

    python3 bench/run.py --workload <simulate|verify|algebra|all> --seed N \
        --seconds S --trace <0|1>

Runs repeats of a workload one at a time, each in a fresh interpreter
(``bench/child.py``), until ``--seconds`` have passed (at least two).  A
fresh interpreter per repeat is what a CLI user pays for, and it keeps
sympy's result cache from carrying over between repeats.

``--trace 0`` reports the end-to-end metrics of ``BENCHMARK.json`` as
medians over repeats.  ``--trace 1`` alternates untraced and traced repeats
(at least two of each) and reports the per-layer metrics: layer shares and
counts from the traced repeats, ``trace_overhead`` from comparing the two
kinds, and phase shares and soliton error from the untraced ones.  Earlier
lines of standard output show the machine and every end-to-end quantity
with its unit, spread and sample count; the last line is the JSON result.
The full result, with every repeat, goes to
``.bench_out/result-<workload>-trace<0|1>.json``.

Exits 2 without a result when the package is not in the checkout.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time

BENCH = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH)
OUT = os.path.join(ROOT, ".bench_out")
WORKLOADS = ("simulate", "verify", "algebra")
MIN_REPEATS = 2
# A run that gives fewer set-ups than this (verify's repeats take about
# 10 s) adds children that only set up, so setup_s is a median of several.
MIN_SETUPS = 8
EXACT_UNITS = ("count", "B", "fft/step")
CHILD_TIMEOUT_S = 60
# The shared host's speed swings by up to 1.5x within a second, so times
# are scaled to a reference host (2-core Xeon VM) that runs child.calibrate()
# in CAL_REF_S and child.Sampler's work in SPEED_REF_S.  Set-up time is
# scaled by the calibration just after it; the iteration by the mean of the
# samples taken during it (calibrations around run_all's pool tracked it
# poorly).  Raw seconds go to the table and the result file.
CAL_REF_S = 0.010
SPEED_REF_S = 0.001

# The seven end-to-end quantities of the workloads.  BENCHMARK.json reports
# the three that every workload has; the rest are printed here and reported
# per layer by the traced run.
SUMMARY = (("setup_s", "s"), ("wall_s", "s"), ("peak_rss_mb", "MB"),
           ("failed_share", "ratio"), ("soliton_err", "1"), ("rational_s", "s"),
           ("symbolic_s", "s"), ("setup_raw_s", "s"), ("wall_raw_s", "s"))


class ProgramMissing(RuntimeError):
    pass


def machine():
    """Where the numbers were measured."""
    from importlib.metadata import version

    info = {"nproc": os.cpu_count(), "cpus_usable": len(os.sched_getaffinity(0)),
            "cpu_model": platform.processor() or "unknown",
            "python": platform.python_version(), "numpy": version("numpy"),
            "sympy": version("sympy"), "platform": platform.platform()}
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    info["cpu_model"] = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    for index, key in ((2, "l2"), (3, "l3")):
        try:
            with open(f"/sys/devices/system/cpu/cpu0/cache/index{index}/size") as fh:
                info[key] = fh.read().strip()
        except OSError:
            info[key] = "unknown"
    return info


def run_child(workload, seed, mode):
    """One repeat in a fresh interpreter (``mode`` "0" untraced, "1" traced,
    "setup" set-up only), its times scaled to the reference host; None when
    it crashed."""
    env = dict(os.environ, PYTHONHASHSEED="0")
    spawned = time.monotonic()
    try:
        proc = subprocess.run(
            [sys.executable, os.path.join(BENCH, "child.py"), workload,
             str(seed), mode],
            cwd=ROOT, env=env, capture_output=True, text=True,
            timeout=CHILD_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        print(f"{workload}: repeat timed out after {CHILD_TIMEOUT_S} s",
              file=sys.stderr)
        return None
    if proc.returncode == 3:
        raise ProgramMissing(proc.stderr.strip())
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        print(f"{workload}: repeat exited {proc.returncode}\n{proc.stderr[-2000:]}",
              file=sys.stderr)
        return None
    sample = json.loads(lines[-1])
    sample["traced"] = mode == "1"
    sample["setup_raw_s"] = sample["ready"] - spawned
    setup_scale = CAL_REF_S / statistics.mean(sample["cal_before"])
    sample["setup_s"] = sample["setup_raw_s"] * setup_scale
    sample["import_s"] *= setup_scale
    if mode == "setup":
        return sample
    sample["wall_s"] = sample["wall_raw_s"] * SPEED_REF_S / statistics.mean(
        sample["speed"])
    scale = sample["wall_s"] / sample["wall_raw_s"]
    sample["phases"] = {k: v * scale for k, v in sample["phases"].items()}
    return sample


def measure(workload, seed, seconds, trace):
    """Repeat until ``seconds`` have passed, stopping early rather than
    overrunning by more than half a repeat; traced runs alternate kinds.
    An untraced run then sets up alone until it has ``MIN_SETUPS`` set-ups."""
    began = time.monotonic()
    samples, setups, crashed = [], [], 0
    while True:
        traced = bool(trace) and len(samples) % 2 == 1
        sample = run_child(workload, seed, "1" if traced else "0")
        if sample is None:
            crashed += 1
            if crashed > 1:
                break
            continue
        samples.append(sample)
        elapsed = time.monotonic() - began
        per_repeat = elapsed / (len(samples) + crashed)
        if (len(samples) >= MIN_REPEATS * (1 + trace)
                and elapsed + per_repeat / 2 >= seconds):
            break
    while not trace and len(samples) + len(setups) < MIN_SETUPS and crashed <= 1:
        sample = run_child(workload, seed, "setup")
        if sample is None:
            crashed += 1
        else:
            setups.append(sample)
    return samples, setups, crashed


def describe(values):
    return {"median": statistics.median(values), "min": min(values),
            "max": max(values), "n": len(values)}


def summarize(workload, samples, setups, crashed, trace, layer_units):
    """Fold the repeats into metrics, correctness counts and a table."""
    from checks import manifests_identical

    plain = [s for s in samples if not s["traced"]]
    traced = [s for s in samples if s["traced"]]
    found = [c for s in samples for c in s["checks"]]
    if workload == "simulate":
        found += manifests_identical([s["manifest_sha256"] for s in samples])
    attempted = len(found) + crashed
    failed = sum(1 for _, ok in found if not ok) + crashed
    for name, ok in found:
        if not ok:
            print(f"{workload}: check failed: {name}", file=sys.stderr)

    stats = {"failed_share": describe([failed / max(attempted, 1)])}
    for key in ("setup_s", "import_s", "setup_raw_s"):
        stats[key] = describe([s[key] for s in plain + setups])
    for key in ("wall_s", "peak_rss_mb", "wall_raw_s"):
        stats[key] = describe([s[key] for s in plain])
    for key in ("rational_s", "symbolic_s"):
        if plain[0]["phases"]:
            stats[key] = describe([s["phases"][key] for s in plain])
    if workload == "simulate":
        stats["soliton_err"] = describe([s["soliton_err"] for s in plain])

    layers = {}
    if traced:
        for name, unit in layer_units.items():
            values = [s["layers"][name] for s in traced if name in s["layers"]]
            if not values:
                continue
            if unit in EXACT_UNITS and len(set(values)) > 1:
                print(f"{workload}: count {name} differs between repeats: "
                      f"{sorted(set(values))}", file=sys.stderr)
            layers[name] = describe(values)
        wall_traced = statistics.median(s["wall_s"] for s in traced)
        layers["trace_overhead"] = describe([wall_traced / stats["wall_s"]["median"] - 1])
        zero = describe([0.0])
        for key in ("import_s", "failed_share", "soliton_err"):
            layers[key] = stats.get(key, zero)
        for phase in ("rational", "symbolic"):
            shares = [s["phases"][phase + "_s"] / s["wall_s"] for s in plain if s["phases"]]
            layers[phase + "_share"] = describe(shares) if shares else zero

    print(f"{workload}: {len(plain)} untraced and {len(traced)} traced repeats, "
          f"{len(setups)} set-up only, "
          f"{attempted} checks, {failed} failed")
    for name, unit in SUMMARY:
        d = stats.get(name)
        cell = ("n/a" if d is None else
                f"{d['median']:.6g} {unit}  (min {d['min']:.6g}, max {d['max']:.6g}, n={d['n']})")
        print(f"  {name:<14} {cell}")
    return stats, layers, attempted, failed


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    spec_path = os.path.join(ROOT, "BENCHMARK.json")
    if not os.path.isfile(os.path.join(ROOT, "src", "brstkdv", "__init__.py")):
        print(f"no brstkdv package under {ROOT}/src", file=sys.stderr)
        return 2
    with open(spec_path) as fh:
        spec = json.load(fh)
    wanted = spec["per_layer"] if args.trace else spec["end_to_end"]
    units = {m["name"]: m["unit"] for m in wanted}
    layer_units = {m["name"]: m["unit"] for m in spec["per_layer"]}

    env = machine()
    print("machine: " + json.dumps(env, sort_keys=True))
    workloads = WORKLOADS if args.workload == "all" else (args.workload,)
    metrics, attempted, failed = {}, 0, 0
    os.makedirs(OUT, exist_ok=True)
    for workload in workloads:
        try:
            samples, setups, crashed = measure(workload, args.seed, args.seconds,
                                               args.trace)
        except ProgramMissing as exc:
            print(f"cannot run the program: {exc}", file=sys.stderr)
            return 2
        if {False, bool(args.trace)} - {s["traced"] for s in samples}:
            print(f"{workload}: too many repeats crashed", file=sys.stderr)
            return 1
        stats, layers, a, f = summarize(workload, samples, setups, crashed,
                                        args.trace, layer_units)
        attempted += a
        failed += f
        source = layers if args.trace else stats
        prefix = "" if len(workloads) == 1 else workload + "."
        for name, unit in units.items():
            metrics[prefix + name] = {"value": source[name]["median"], "unit": unit}
        record = {"workload": workload, "seed": args.seed, "seconds": args.seconds,
                  "trace": args.trace, "machine": env, "attempted": a, "failed": f,
                  "metrics": {**stats, **layers},
                  "samples": [{k: v for k, v in s.items() if k not in ("checks", "layers")}
                              for s in samples],
                  "setup_only_samples": setups}
        with open(os.path.join(OUT, f"result-{workload}-trace{args.trace}.json"),
                  "w") as fh:
            json.dump(record, fh, indent=1, sort_keys=True)
    print(json.dumps({"correct": failed == 0, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
