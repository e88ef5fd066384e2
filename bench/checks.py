"""Correctness checks on workload outputs.

Each function takes a workload's outputs and returns ``[(name, passed)]``;
every failed entry counts in ``failed_share``.  They are pure, so the tests
can show that each one fails on a corrupted output.
"""

from __future__ import annotations

import json

import numpy as np

# max |u - u_exact| / 4k^2 at t_end is about 1.6e-10 at k = 0.7; the periodic
# images of the soliton stay below 1e-11 for k >= 0.7 on L = 40.
SOLITON_TOL = 1e-8
EVEN_DRIFT_TOL = 1e-8   # pinned conservation tolerances of the test suite
ODD_DRIFT_TOL = 1e-6
ZERO_FLOOR = 1e-8       # below this initial value, drift is absolute


def drift(values):
    vals = np.asarray(values, dtype=float)
    d = float(np.max(np.abs(vals - vals[0])))
    ref = abs(float(vals[0]))
    return d / ref if ref > ZERO_FLOOR else d


def soliton_error(csv_text, manifest, k, x0):
    """max |u - u_exact| / 4k^2 over the CSV's last snapshot, with
    u_exact = 4k^2 sech^2(k (x - x0 + 4k^2 t)) wrapped onto the period."""
    length, n = manifest["grid"]["L"], manifest["grid"]["N"]
    lines = csv_text.splitlines()
    header = lines[0].split(",")
    rows = np.array([[float(v) for v in ln.split(",")] for ln in lines[-n:]])
    t, x, u = rows[:, 0], rows[:, 1], rows[:, header.index("u")]
    if np.ptp(t) != 0.0 or t[0] != manifest["times"][-1]:
        return float("inf")
    z = (x - x0 + 4.0 * k * k * t[0] + length / 2) % length - length / 2
    exact = 4.0 * k * k / np.cosh(k * z) ** 2
    return float(np.max(np.abs(u - exact)) / (4.0 * k * k))


def simulate_checks(rc, csv_text, manifest_text, k, x0, even):
    """Exit code, soliton accuracy and drift of every recorded density;
    ``even`` names the densities held to the even-sector tolerance.

    Returns the checks and the soliton error (inf when unreadable)."""
    checks = [("exit_code", rc == 0)]
    try:
        manifest = json.loads(manifest_text)
        err = soliton_error(csv_text, manifest, k, x0)
    except (ValueError, KeyError, IndexError):
        return checks + [("outputs_readable", False)], float("inf")
    checks.append(("soliton_err", err <= SOLITON_TOL))
    for name, values in sorted(manifest["diagnostics"].items()):
        tol = EVEN_DRIFT_TOL if name in even else ODD_DRIFT_TOL
        checks.append((f"drift_{name}", drift(values) <= tol))
    return checks, err


def verify_checks(statuses, expected):
    """Every report passes and every registered check reported."""
    checks = [(name, status == "pass") for name, status in statuses]
    reported = {name for name, _ in statuses}
    checks.append(("all_checks_reported", set(expected) <= reported))
    return checks


def algebra_checks(sizes):
    """Every identity is exact: each named result has no surviving terms."""
    return [(name, size == 0) for name, size in sorted(sizes.items())]


def manifests_identical(digests):
    """One check per repeat after the first: same seed, same manifest bytes."""
    return [(f"manifest_repeat_{i}", d == digests[0])
            for i, d in enumerate(digests[1:], 1)]
