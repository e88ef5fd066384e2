"""The named verification checks: they pass on the shipped structure and,
just as importantly, fail when the structure is deliberately corrupted."""

import dataclasses
import json
import tracemalloc

import numpy as np
import pytest

import brstkdv.verify
from brstkdv import parse
from brstkdv.reductions import build_system, reconstruct_connection, upsilon_rules
from brstkdv.sl2 import structure_table
from brstkdv.solver import (
    FieldState,
    Trajectory,
    _Stepper,
    evolve,
    evolve_many,
    soliton_initial,
    spectral_derivative,
)
from brstkdv.verify import (
    CHECKS,
    CheckReport,
    check_conservation,
    check_gradient_ghost,
    check_miura_chain,
    check_nilpotency,
    check_system_invariance,
    check_upsilon_covariance,
    check_zero_curvature,
    run_all,
)

IDX = {"0": 0, "+": 1, "-": 2}


def test_registry_is_complete():
    assert set(CHECKS) == {
        "check_nilpotency",
        "check_upsilon_covariance",
        "check_system_invariance",
        "check_gradient_ghost",
        "check_conservation",
        "check_miura_chain",
        "check_zero_curvature",
    }


def test_nilpotency_passes():
    rep = check_nilpotency()
    assert rep.status == "pass"
    assert rep.tolerance == 0.0
    assert len(rep.metrics) == 12 + 1 + 2  # canonical + reduced ghost + two family points
    assert all(v == 0.0 for v in rep.metrics.values())


SLICES = {"slice_a_0": 0.0, "slice_a_plus": 0.0,
          "slice_b_miura": 0.0, "slice_b_plus": 0.0, "slice_b_minus": 0.0}


def test_covariance_passes_and_is_exact():
    rep = check_upsilon_covariance()
    assert rep.status == "pass"
    assert rep.metrics == {"covariance_defect": 0.0, "dx_commutation_defect": 0.0, **SLICES}


def test_invariance_battery_passes():
    rep = check_system_invariance()
    assert rep.status == "pass"
    assert len(rep.metrics) == 8  # four systems, two evolving fields each


def test_gradient_ghost_battery_passes():
    rep = check_gradient_ghost()
    assert rep.status == "pass"
    labels = [f"T{p}_{tag}" for tag in ("symbolic", "beta_1", "beta_1/2")
              for p in ("", "_power")] + ["u_quadratic"]
    assert sorted(rep.metrics) == sorted(labels + [nm + "_premise" for nm in labels])
    assert len(rep.metrics) == 14
    assert set(rep.metrics.values()) == {0.0}


def test_gauge_slices_pass_exactly():
    # the slice identities are the registered covariance check's metrics
    rep = check_upsilon_covariance()
    assert rep.status == "pass" and rep.tolerance == 0.0
    assert {k: v for k, v in rep.metrics.items() if k.startswith("slice_")} == SLICES


def test_gradient_ghost_argument_validation():
    with pytest.raises(ValueError):
        check_gradient_ghost(density=parse("u"))


def test_invariance_rejects_out_of_scope_systems():
    with pytest.raises(ValueError, match="no evolution rule to reduce marker 'cm_t'"):
        check_system_invariance(build_system("mkdv"))


@pytest.mark.parametrize("name, params, unreduced", [
    ("kdv", {"alpha": 1, "s": 2}, None),
    ("kdv", {"alpha": -2, "s": 1}, None),
    ("t-form", {"beta": 1, "s": 2}, None),
    ("t-form", {"beta": "1/2", "s": 1}, None),
    ("t-form", {"beta": "beta", "s": "s"}, None),
    ("harry-dym", {}, None),
    ("mkdv", {}, "cm_t"),  # cm has only an x rule
    ("ckdv", {}, "cw_t"),  # cw has only an x rule
    ("upsilon", {}, None),  # T's flow alone: u and c have none
])
def test_invariance_check_covers_the_catalog(name, params, unreduced):
    sys_ = build_system(name, **params)
    if unreduced:
        with pytest.raises(ValueError, match=f"no evolution rule to reduce marker '{unreduced}'"):
            check_system_invariance(sys_)
        return
    rep = check_system_invariance(sys_)
    assert rep.status == "pass" and len(rep.metrics) == len(sys_.evolving_fields())
    if "c" in sys_.evolving_fields():
        # one odd generator without a rule of its own reaches its marker
        base = dict(sys_.brst.base)
        base["c"] = base["c"] + parse("c*cq", odd=("c", "cq"))
        wrong = dataclasses.replace(sys_, brst=dataclasses.replace(sys_.brst, base=base))
        with pytest.raises(ValueError, match="no evolution rule to reduce marker 'cq_t'"):
            check_system_invariance(wrong)


# --- mutation sensitivity -------------------------------------------------------

def test_nilpotency_fails_for_jacobi_violating_table():
    f = [list(map(list, m)) for m in structure_table()]
    f[IDX["0"]][IDX["+"]][IDX["+"]] = 2
    f[IDX["+"]][IDX["0"]][IDX["+"]] = -2
    rep = check_nilpotency(structure=f)
    assert rep.status == "fail"
    assert any(v > 0 for v in rep.metrics.values())


@pytest.mark.parametrize("a, b, c, failing", [
    ("+", "-", "0", {"slice_a_0"}),
    ("0", "+", "+", {"slice_a_plus", "slice_b_plus"}),
])
def test_gauge_slices_fail_for_a_corrupted_constant(a, b, c, failing):
    # f_{+-}^0 = 2 is still a Lie algebra (see test_sl2), but not the one
    # whose slices give these flows; f_{0+}^+ = 2 reaches slice B too
    f = [list(map(list, m)) for m in structure_table()]
    f[IDX[a]][IDX[b]][IDX[c]] = 2
    f[IDX[b]][IDX[a]][IDX[c]] = -2
    rep = check_upsilon_covariance(structure=f)
    assert rep.status == "fail"
    assert {k for k, v in rep.metrics.items() if v} == failing


def test_gauge_slices_fail_for_a_detuned_modified_flow(monkeypatch):
    # -5 R^2 R_x for -6 R^2 R_x: the Miura map no longer carries the slice-B
    # flow onto kdv's, and no structure table reaches this metric
    mk = build_system("mkdv")
    wrong = dataclasses.replace(mk, rhs={"R": parse("R_xxx - 5*R^2*R_x"), "c": mk.rhs["c"]})
    monkeypatch.setattr(brstkdv.verify, "build_system",
                        lambda name, **kw: wrong if name == "mkdv" else build_system(name, **kw))
    rep = check_upsilon_covariance()
    assert rep.status == "fail"
    assert {k: v for k, v in rep.metrics.items() if v} == {"slice_b_miura": 3.0}


def test_covariance_fails_for_wrong_advection_weight(monkeypatch):
    # T c_x for 2 T c_x in the T law: T no longer transforms with weight two
    laws = upsilon_rules()
    base = {**laws.base, "T": laws.base["T"] - parse("T*c_x", odd=("c",))}
    monkeypatch.setattr(brstkdv.verify, "upsilon_rules",
                        lambda: dataclasses.replace(laws, base=base))
    rep = check_upsilon_covariance()
    assert rep.status == "fail"
    assert rep.metrics["covariance_defect"] == 5.0


def test_invariance_fails_for_detuned_ghost_flow():
    kdv = build_system("kdv")
    wrong = dataclasses.replace(
        kdv, rhs={"u": kdv.rhs["u"], "c": parse("c_xxx + 2*u*c_x", odd=("c",))})
    rep = check_system_invariance(wrong)
    assert rep.status == "fail"


def test_gradient_ghost_fails_for_a_non_conserved_density():
    # the integral of u^3 is not constant under kdv, and its gradient 3 u^2
    # does not solve the ghost flow
    rep = check_gradient_ghost(density=parse("u^3"), system=build_system("kdv"))
    assert rep.status == "fail"
    assert rep.metrics == {"given_premise": 1.0, "given": 1.0}


def test_conservation_fails_for_non_conserved_functional():
    # integral of T^3 alone is not constant under the quadratic flow (the
    # conserved cubic functional needs the -T_x^2/2 companion term)
    from brstkdv.reductions import ConservedDensity
    tf = build_system("t-form", beta=1, s=2)
    fake = ConservedDensity("I3", parse("T^3"))
    n = 256
    x = 40.0 * np.arange(n) / n
    st = FieldState(0.0, 40.0, n,
                    {"T": 1.0 + 0.2 * np.cos(2 * np.pi * x / 40.0),
                     "c": np.zeros(n)})
    traj = evolve(st, tf, 1.0, 1e-3, record_every=100,
                  diagnostics=[fake, tf.density("H0"), tf.density("H1")])
    rep = check_conservation(traj, ["I3"], tolerance=1e-8)
    assert rep.status == "fail"
    rep_good = check_conservation(traj, ["H0", "H1"], tolerance=1e-8)
    assert rep_good.status == "pass"


def test_zero_curvature_fails_off_the_gauge_slice(monkeypatch):
    def off_slice(state, gauge_slice):  # T = u instead of the slice's u/2
        u = state.fields["u"]
        return reconstruct_connection(
            FieldState(state.t, state.L, state.N, {"u": u, "T": u}), gauge_slice)

    monkeypatch.setattr(brstkdv.verify, "reconstruct_connection", off_slice)
    rep = check_zero_curvature()
    assert rep.status == "fail"
    assert rep.metrics["component_minus"] > 1e-5


def test_zero_curvature_streams_its_snapshots():
    # holding a connection for each of the 101 snapshots takes ~3 MB; the
    # five-snapshot window of the time stencil needs a tenth of that
    trajectory = evolve_many([brstkdv.verify._soliton_run()], 1e-3)[0]
    tracemalloc.start()
    try:
        rep = check_zero_curvature(trajectory)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert rep.status == "pass"
    assert peak < 1_000_000


def test_miura_chain_fails_for_wrong_miura_sign(monkeypatch):
    def wrong_miura(R, length):  # 2(R_x + R^2) instead of 2(R_x - R^2)
        R = np.asarray(R, dtype=float)
        return 2.0 * (spectral_derivative(R, 1, length) + R * R)

    monkeypatch.setattr(brstkdv.verify, "miura_map", wrong_miura)
    rep = check_miura_chain()
    assert rep.status == "fail"
    assert rep.metrics["mkdv_to_kdv_linf"] > 1e-5


def test_miura_chain_fails_for_wrong_ckdv_map(monkeypatch):
    # (w_x - 2 w^2)/(2w) instead of (w_x - w^2)/(2w); the sign flip of w^2
    # would not do, as it is the map composed with the flow's symmetry w -> -w
    def wrong_ckdv(w, length):
        w = np.asarray(w, dtype=float)
        return (spectral_derivative(w, 1, length) - 2.0 * w * w) / (2.0 * w)

    monkeypatch.setattr(brstkdv.verify, "ckdv_to_mkdv", wrong_ckdv)
    rep = check_miura_chain()
    assert rep.status == "fail"
    assert rep.metrics["ckdv_to_mkdv_residual"] > 1e-5


def test_conservation_requires_recorded_diagnostics():
    kdv = build_system("kdv")
    st = soliton_initial(0.5, 20.0, "kdv", 40.0, 128)
    traj = evolve(st, kdv, 0.01, 1e-3, diagnostics=[kdv.density("H0")])
    with pytest.raises(ValueError):
        check_conservation(traj, ["H5"])
    one = Trajectory([st], {"H0": traj.diagnostics["H0"][:1]})
    with pytest.raises(ValueError, match="^need at least two recorded snapshots$"):
        check_conservation(one, ["H0"])


def test_conservation_needs_a_density_name():
    # given no names, a trajectory without diagnostics passed on no metrics
    traj = evolve(soliton_initial(0.7, 20.0, "kdv"), build_system("kdv"), 0.01, 1e-3)
    with pytest.raises(ValueError, match="^check_conservation needs at least one density name$"):
        check_conservation(traj, [])
    with pytest.raises(ValueError, match=r"^trajectory lacks diagnostics "
                                         r"\['H1g', 'H3', 'H5', 'Ht0', 'Ht1'\]$"):
        check_conservation(traj)


def test_conservation_refuses_a_bare_string_of_densities():
    # a bare string is not read as the one-letter names "H" and "0"
    traj = evolve(soliton_initial(0.7, 20.0, "kdv"), build_system("kdv"), 0.01, 1e-3,
                  diagnostics=["H0"])
    for trajectory in (traj, None):  # refused before any default run
        with pytest.raises(ValueError, match="^densities is a sequence of names, "
                                             "not the string 'H0'$"):
            check_conservation(trajectory, "H0")


def test_time_stencil_needs_five_equispaced_snapshots():
    states = [FieldState(t, 1.0, 4, {}) for t in (0.0, 0.1, 0.2, 0.3, 0.5)]
    with pytest.raises(ValueError, match="^need at least five snapshots for the time stencil$"):
        list(brstkdv.verify._snapshot_rates(states[:4], range(4)))
    with pytest.raises(ValueError, match="^snapshots must be equispaced in time$"):
        list(brstkdv.verify._snapshot_rates(states, range(5)))


# --- report plumbing --------------------------------------------------------------

def test_report_json_round_trip():
    rep = check_upsilon_covariance()
    doc = json.loads(json.dumps(rep.to_dict(), sort_keys=True, indent=2))
    assert doc == rep.to_dict()
    assert doc["status"] == rep.status and doc["metrics"] == rep.metrics
    assert doc["claim"] and isinstance(doc["claim"], str)
    assert set(doc) == {"check", "status", "metrics", "tolerance", "claim"}


def test_status_threshold_semantics():
    def status(*metrics):
        return CheckReport("x", dict(enumerate(metrics)), 1.0, "demo").status

    assert status() == "fail"  # no metric is no evidence
    assert status(0.5) == status(1.0) == status(0.5, 1.0) == "pass"
    assert status(1.0 + 1e-12) == status(0.5, 2.0) == "fail"
    assert status(float("nan")) == status(0.5, float("nan")) == "fail"
    exact = CheckReport("y", {"terms": 0.0}, 0.0, "demo")
    assert exact.status == "pass" and exact.to_dict()["status"] == "pass"
    assert dataclasses.replace(exact, metrics={"terms": 1.0}).to_dict()["status"] == "fail"


def test_run_all_everything_passes(monkeypatch):
    passes, rows, advance = [], [], _Stepper.advance

    def counted(runs, dt):
        passes.append([run[1].name for run in runs])
        return evolve_many(runs, dt)

    def stepped(stepper, hats, t):
        rows.append(len(hats))
        return advance(stepper, hats, t)

    monkeypatch.setattr(brstkdv.verify, "evolve_many", counted)
    monkeypatch.setattr(_Stepper, "advance", stepped)
    reports = run_all()
    names = [r.check for r in reports]
    assert names == list(CHECKS) + ["check_conservation_classical"]
    # one soliton run serves both conservation reports and the curvature
    # check; it and the three legs of the substitution chain share one pass
    assert [sorted(names) for names in passes] == [["ckdv", "kdv", "kdv", "mkdv"]]
    # the soliton's u and gradient ghost and each leg's even field are rows;
    # the legs' zero ghosts are not, and the ckdv leg leaves after 200 steps
    assert rows == [5] * 200 + [4] * 800
    failing = {r.check: r.metrics for r in reports if r.status != "pass"}
    assert failing == {}
    # the battery runs both gauge slices, under the covariance check
    covariance = reports[names.index("check_upsilon_covariance")].metrics
    assert {k: v for k, v in covariance.items() if k.startswith("slice_")} == SLICES
