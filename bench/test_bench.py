"""Tests of the benchmark's own machinery: span arithmetic, the FFT counter,
seeded inputs and the correctness checks.

    python3 -m pytest bench -q
"""

import hashlib
import json
import os
import sys
import threading

import numpy as np
import pytest

BENCH = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH)
sys.path.insert(0, os.path.join(ROOT, "src"))
sys.path.insert(0, BENCH)

import checks  # noqa: E402
import inputs  # noqa: E402
import spans  # noqa: E402


class FakeClock:
    def __init__(self, *ticks):
        self.ticks = list(ticks)

    def __call__(self):
        return self.ticks.pop(0)


def make_span(name, start, end, parent=None):
    s = spans.Span(name, start, parent)
    s.end = end
    return s


@pytest.fixture
def tracer():
    t = spans.Tracer()
    t.install()
    yield t
    t.uninstall()


# -- span arithmetic --------------------------------------------------------

def test_nested_spans_give_self_times():
    t = spans.Tracer(clock=FakeClock(0.0, 1.0, 3.0, 4.0, 4.5, 10.0))
    outer = t.open("outer")
    a = t.open("a")
    t.close(a)
    b = t.open("b")
    t.close(b)
    t.close(outer)
    own = spans.self_times(t.spans)
    assert own[id(outer)] == pytest.approx(10.0 - 2.0 - 0.5)
    assert own[id(a)] == pytest.approx(2.0)
    agg = spans.aggregate(t.spans)
    assert agg["outer"]["calls"] == 1 and agg["outer"]["total_s"] == 10.0


def test_overlapping_children_are_merged():
    root = make_span("run_all", 0.0, 10.0)
    kids = [make_span("x", 1.0, 6.0, root), make_span("y", 4.0, 8.0, root),
            make_span("z", 9.5, 12.0, root)]
    own = spans.self_times([root] + kids)
    assert own[id(root)] == pytest.approx(10.0 - 7.0 - 0.5)
    assert spans.covered([(1, 6), (2, 3), (4, 8)], 0, 10) == pytest.approx(7.0)


def test_unattributed_share():
    ss = [make_span("a", 1.0, 3.0), make_span("b", 2.0, 5.0)]
    assert spans.unattributed_share(ss, 0.0, 10.0) == pytest.approx(0.6)


def test_pool_thread_spans_take_the_main_span_as_parent():
    t = spans.Tracer()
    root = t.open("run_all")

    def check():
        t.close(t.open("check"))

    worker = threading.Thread(target=check)
    worker.start()
    worker.join(timeout=10)
    assert not worker.is_alive()
    t.close(root)
    (check,) = [s for s in t.spans if s.name == "check"]
    assert check.parent is root


def test_overlap_is_the_checks_time_over_run_alls():
    def span_agg(total):
        return {"calls": 1, "total_s": total, "self_s": 0.0, "ffts": 0, "steps": 0,
                "step_ffts": 0, "terms_out": 0, "nbytes": 0, "by_system": {}}

    agg = {"verify.run_all": span_agg(2.0), "verify.check_a": span_agg(1.5),
           "verify.check_b": span_agg(2.5)}
    m = spans.layer_metrics(agg, ["check_a", "check_b"], wall=2.0)
    assert m["verify.overlap"] == pytest.approx(2.0)
    assert m["verify.check_b.total_share"] == pytest.approx(1.25)
    assert spans.layer_metrics({}, ["check_a"], wall=1.0)["verify.overlap"] == 0.0


# -- the installed tracer ---------------------------------------------------

def test_one_spectral_derivative_is_two_ffts(tracer):
    from brstkdv import solver

    x = np.linspace(0.0, 2 * np.pi, 64, endpoint=False)
    solver.spectral_derivative(np.sin(x), 1, 2 * np.pi)
    (span,) = tracer.spans
    assert span.name == "solver.spectral_derivative"
    assert span.ffts == 2 and tracer.unspanned_ffts == 0


def test_calls_inside_the_package_are_traced(tracer):
    from brstkdv import reductions

    x = np.linspace(0.0, 40.0, 64, endpoint=False)
    reductions.miura_map(np.exp(-(x - 20.0) ** 2), 40.0)
    outer, inner = tracer.spans
    assert (outer.name, inner.name) == ("reductions.maps", "solver.spectral_derivative")
    assert inner.parent is outer and outer.ffts == 0 and inner.ffts == 2


def test_graded_results_are_counted(tracer):
    from brstkdv import graded, parse

    graded.total_x_derivative(parse("u^2"))
    agg = spans.aggregate(tracer.spans)
    assert agg["graded.total_x_derivative"]["terms_out"] == 1
    assert agg["graded.total_x_derivative"]["calls"] == 1


def test_uninstall_restores_every_binding():
    from brstkdv import graded, reductions, solver, verify

    before = (graded.euler_operator, reductions.total_x_derivative,
              solver.Trajectory.export_csv, np.fft.rfft, dict(verify.CHECKS))
    t = spans.Tracer()
    t.install()
    assert reductions.total_x_derivative is not before[1]
    t.uninstall()
    after = (graded.euler_operator, reductions.total_x_derivative,
             solver.Trajectory.export_csv, np.fft.rfft, dict(verify.CHECKS))
    assert after == before


# -- seeded inputs ----------------------------------------------------------

def digest(seed):
    _, _, argv = inputs.simulate_args(seed)
    return hashlib.sha256("\n".join(argv + inputs.rational_texts(seed)).encode()).digest()


def test_same_seed_gives_identical_inputs():
    assert digest(7) == digest(7)
    assert digest(7) != digest(8)
    for seed in range(20):
        k, x0, argv = inputs.simulate_args(seed)
        assert 0.7 <= k <= 0.9 and abs(x0 - 20.0) <= 1.0
        assert f"k={k:.6f},x0={x0:.6f}" in argv


def test_rational_inputs_parse():
    from brstkdv import parse

    texts = inputs.rational_texts(3)
    assert [parse(t).parity() for t in texts[:2]] == [0, 1]


# -- correctness checks fail on corrupted outputs -----------------------------

@pytest.fixture(scope="module")
def simulate_output(tmp_path_factory):
    from brstkdv import cli

    out = tmp_path_factory.mktemp("simulate")
    k, x0, argv = inputs.simulate_args(5)
    argv[argv.index("--out") + 1] = str(out)
    argv[argv.index("--t-end") + 1] = "0.1"
    rc = cli.run(argv)
    csv_text = (out / "trajectory.csv").read_text()
    manifest = (out / "manifest.json").read_text()
    return rc, csv_text, manifest, k, x0


def failed(found):
    return sorted(name for name, ok in found if not ok)


def test_simulate_checks_pass_on_real_output(simulate_output):
    found, err = checks.simulate_checks(*simulate_output, inputs.EVEN_DIAGNOSTICS)
    assert failed(found) == [] and 0 < err < checks.SOLITON_TOL


def test_simulate_checks_fail_on_corruption(simulate_output):
    rc, csv_text, manifest, k, x0 = simulate_output
    even = inputs.EVEN_DIAGNOSTICS
    assert failed(checks.simulate_checks(1, csv_text, manifest, k, x0, even)[0]) == [
        "exit_code"]

    lines = csv_text.splitlines()
    cols = lines[-1].split(",")
    u = lines[0].split(",").index("u")
    cols[u] = repr(float(cols[u]) + 1e-3)
    bad_csv = "\n".join(lines[:-1] + [",".join(cols)]) + "\n"
    assert failed(checks.simulate_checks(rc, bad_csv, manifest, k, x0, even)[0]) == [
        "soliton_err"]

    doc = json.loads(manifest)
    doc["diagnostics"]["H1"][-1] *= 1 + 1e-7
    doc["diagnostics"]["H5"][-1] += 1e-5 * (1 + abs(doc["diagnostics"]["H5"][0]))
    found = checks.simulate_checks(rc, csv_text, json.dumps(doc), k, x0, even)[0]
    assert failed(found) == ["drift_H1", "drift_H5"]

    assert failed(checks.manifests_identical(["a", "a", "b"])) == ["manifest_repeat_2"]


def test_verify_checks_fail_on_corruption():
    names = ["check_a", "check_b"]
    ok = [("check_a", "pass"), ("check_b", "pass")]
    assert failed(checks.verify_checks(ok, names)) == []
    assert failed(checks.verify_checks([("check_a", "pass"), ("check_b", "fail")],
                                       names)) == ["check_b"]
    assert failed(checks.verify_checks(ok[:1], names)) == ["all_checks_reported"]


def test_algebra_identity_detects_a_corrupted_result():
    from brstkdv import graded, parse

    p = parse(inputs.rational_texts(1)[0])
    exact = graded.total_x_derivative(p)
    corrupted = exact + parse("1/7*u^2*u_xx")
    sizes = {"euler_of_dx": len(graded.euler_operator(exact, "u")),
             "euler_of_corrupted_dx": len(graded.euler_operator(corrupted, "u"))}
    assert failed(checks.algebra_checks(sizes)) == ["euler_of_corrupted_dx"]


def test_benchmark_json_lists_every_reported_layer_metric():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    from brstkdv.verify import CHECKS

    listed = {m["name"] for m in spec["per_layer"]}
    produced = set(spans.layer_metrics({}, list(CHECKS), wall=1.0))
    produced |= {"unattributed_share", "trace_overhead", "import_s", "failed_share",
                 "soliton_err", "rational_share", "symbolic_share"}
    assert listed == produced
