"""Pseudospectral machinery: differentiation, quadrature, stepping,
guards, and trajectory export."""

import json
import warnings
from fractions import Fraction
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from brstkdv import parse
from brstkdv.graded import GradedPoly
from brstkdv import solver
from brstkdv.reductions import build_system
from brstkdv.solver import (
    _Stepper,
    BlowUpError,
    FieldState,
    SingularityError,
    Trajectory,
    evaluate,
    evaluate_functional,
    evaluate_many,
    evaluator,
    evolve,
    evolve_many,
    soliton_initial,
    spectral_derivative,
    step,
)


def grid(length, n):
    return length * np.arange(n) / n


def P(text):
    return parse(text, odd=("c",))


# --- spectral derivatives -------------------------------------------------------

def test_derivative_of_trig_modes():
    length, n = 10.0, 128
    x = grid(length, n)
    k = 2 * np.pi / length * 3
    f = np.sin(k * x)
    fx = spectral_derivative(f, 1, length)
    assert np.max(np.abs(fx - k * np.cos(k * x))) < 1e-11
    fxx = spectral_derivative(f, 2, length)
    assert np.max(np.abs(fxx + k * k * f)) < 1e-10
    f3 = spectral_derivative(f, 3, length)
    assert np.max(np.abs(f3 + k ** 3 * np.cos(k * x))) < 1e-9
    f4 = spectral_derivative(f, 4, length)
    assert np.max(np.abs(f4 - k ** 4 * f)) < 1e-8


def test_derivative_of_constants_and_linearity():
    length, n = 7.0, 64
    assert np.allclose(spectral_derivative(np.full(n, 3.7), 1, length), 0.0)
    x = grid(length, n)
    f = np.cos(2 * np.pi * x / length)
    g = np.sin(4 * np.pi * x / length)
    got = spectral_derivative(2 * f + 3 * g, 1, length)
    want = 2 * spectral_derivative(f, 1, length) + 3 * spectral_derivative(g, 1, length)
    assert np.max(np.abs(got - want)) < 1e-12


def test_derivatives_of_sech_squared():
    # spectrally smooth on a wide domain; chain-rule forms with s = sech(kz),
    # t = tanh(kz):  (sech^2)' = -2k s^2 t, then 4k^2 s^2 t^2 - 2k^2 s^4,
    # then -8k^3 s^2 t^3 + 16k^3 s^4 t
    length, n = 40.0, 512
    x = grid(length, n)
    k = 0.7
    z = x - 20.0
    s, t = 1.0 / np.cosh(k * z), np.tanh(k * z)
    f = s ** 2
    f1 = -2.0 * k * s ** 2 * t
    f2 = 4.0 * k ** 2 * s ** 2 * t ** 2 - 2.0 * k ** 2 * s ** 4
    f3 = -8.0 * k ** 3 * s ** 2 * t ** 3 + 16.0 * k ** 3 * s ** 4 * t
    assert np.max(np.abs(spectral_derivative(f, 1, length) - f1)) < 1e-10
    assert np.max(np.abs(spectral_derivative(f, 2, length) - f2)) < 1e-9
    assert np.max(np.abs(spectral_derivative(f, 3, length) - f3)) < 1e-8


def test_derivative_validation():
    with pytest.raises(ValueError):
        spectral_derivative(np.zeros(64), 5, 1.0)
    with pytest.raises(ValueError):
        spectral_derivative(np.zeros(64), 0, 1.0)
    with pytest.raises(ValueError):
        spectral_derivative(np.zeros(48), 1, 1.0)  # not a power of two


@pytest.mark.parametrize("length", [-5.0, 0.0, float("inf"), float("nan")])
def test_derivative_rejects_bad_length(length):
    # the (ik)^order table divides by the length
    with pytest.raises(ValueError, match="domain length must be finite and positive"):
        spectral_derivative(np.zeros(64), 1, length)


def test_dealias_projects_high_modes():
    # the 2/3-rule filter every plan applies to powers and products
    length, n = 10.0, 128
    dealias = solver._Plan(((),), n, length)._filter
    x = grid(length, n)
    low = np.cos(2 * np.pi * 5 * x / length)
    high = np.cos(2 * np.pi * (n // 3 + 4) * x / length)
    assert np.max(np.abs(dealias(low) - low)) < 1e-12
    assert np.max(np.abs(dealias(high))) < 1e-12
    assert np.max(np.abs(dealias(low + high) - low)) < 1e-12


# --- states and trajectories ------------------------------------------------------

def test_field_state_validation():
    with pytest.raises(ValueError):
        FieldState(0.0, 10.0, 48, {"u": np.zeros(48)})
    with pytest.raises(ValueError):
        FieldState(0.0, 10.0, 64, {"u": np.zeros(32)})
    st = FieldState(0.5, 10.0, 64, {"u": np.zeros(64)})
    assert st.x[0] == 0.0 and st.x[-1] == pytest.approx(10.0 * 63 / 64)
    st2 = st.replace(t=1.0)
    assert st2.t == 1.0 and st2.L == st.L


@pytest.mark.parametrize("length", [-1.0, 0.0, float("inf"), float("nan")])
def test_field_state_rejects_bad_length(length):
    with pytest.raises(ValueError):
        FieldState(0.0, length, 64, {"u": np.zeros(64)})


def test_field_state_leaves_callers_dict_alone():
    u = [0.0] * 64
    given = {"u": u}
    st = FieldState(0.0, 10.0, 64, given)
    assert given == {"u": u} and given["u"] is u
    assert st.fields is not given
    assert isinstance(st.fields["u"], np.ndarray)


def test_trajectory_times_must_increase():
    a = FieldState(0.0, 10.0, 64, {"u": np.zeros(64)})
    b = FieldState(0.0, 10.0, 64, {"u": np.zeros(64)})
    with pytest.raises(ValueError):
        Trajectory(states=[a, b])


def test_csv_export(tmp_path):
    n = 8
    st0 = FieldState(0.0, 4.0, n, {"u": np.arange(n, dtype=float), "c": np.zeros(n)})
    st1 = FieldState(0.5, 4.0, n, {"u": np.ones(n), "c": np.zeros(n)})
    traj = Trajectory(states=[st0, st1])
    path = tmp_path / "out.csv"
    traj.export_csv(path)
    lines = path.read_text().splitlines()
    assert lines[0] == "t,x,c,u"
    assert len(lines) == 1 + 2 * n
    row = lines[1].split(",")
    assert float(row[0]) == 0.0 and float(row[3]) == 0.0


def _per_cell_csv(traj):
    """The CSV text as one repr(float(...)) per cell."""
    syms = sorted(traj.states[0].fields)
    out = [",".join(["t", "x"] + syms) + "\n"]
    for st in traj.states:
        x = st.x
        for i in range(st.N):
            row = [repr(float(st.t)), repr(float(x[i]))]
            row += [repr(float(st.fields[s][i])) for s in syms]
            out.append(",".join(row) + "\n")
    return "".join(out)


def test_csv_rows_match_per_cell_formatting(tmp_path):
    n = 8
    u = np.array([0.1, 1 / 3, -0.0, 1e-300, -2.5e300, 5e-324, 2.0 / 3.0 - 1e-17, 7.0])
    c = np.array([np.nan, np.inf, -np.inf, 0.0, 1e16, -1e-5, 123456789.125, 0.3])
    traj = Trajectory(states=[FieldState(0.1 + 0.2, 0.7, n, {"u": u, "c": c}),
                              FieldState(1 / 3, 0.7, n, {"u": c, "c": u})])
    path = tmp_path / "out.csv"
    traj.export_csv(path)
    assert path.read_bytes() == _per_cell_csv(traj).encode()


def test_manifest_export_is_deterministic(tmp_path):
    n = 8
    st0 = FieldState(0.0, 4.0, n, {"u": np.zeros(n)})
    st1 = FieldState(0.5, 4.0, n, {"u": np.ones(n)})
    traj = Trajectory(states=[st0, st1], diagnostics={"H0": [0.0, 0.0]},
                      meta={"system": "kdv", "dt": 0.5})
    p1, p2 = tmp_path / "a.json", tmp_path / "b.json"
    traj.export_manifest(p1, config={"n": "8"})
    traj.export_manifest(p2, config={"n": "8"})
    assert p1.read_bytes() == p2.read_bytes()
    doc = json.loads(p1.read_text())
    assert doc["grid"] == {"L": 4.0, "N": 8}
    assert doc["config"] == {"n": "8"}
    assert doc["times"] == [0.0, 0.5]


# --- quadrature -----------------------------------------------------------------

def test_functional_of_constant_field():
    n, length = 64, 12.0
    st = FieldState(0.0, length, n, {"T": 0.7 * np.ones(n), "c": np.zeros(n)})
    tpoly = parse("T", odd=("c",))
    assert evaluate_functional(tpoly, st) == pytest.approx(0.7 * length, abs=1e-12)


def test_functional_of_exact_derivative_vanishes():
    # integral of T c_x with constant T: the mean of a spectral derivative is 0
    n, length = 128, 10.0
    x = grid(length, n)
    st = FieldState(0.0, length, n,
                    {"T": 2.0 * np.ones(n), "c": np.sin(2 * np.pi * x / length)})
    val = evaluate_functional(parse("T*c_x", odd=("c",)), st)
    assert abs(val) < 1e-13


def test_cubic_functional_against_closed_form():
    # integral of (u c_xxx + 3/2 u^2 c_x) with u = sin x, c = cos x on [0, 2 pi):
    # c_xxx = sin x, c_x = -sin x, so the value is pi - 0
    n = 256
    length = 2 * np.pi
    x = grid(length, n)
    st = FieldState(0.0, length, n, {"u": np.sin(x), "c": np.cos(x)})
    val = evaluate_functional(P("u*c_xxx + 3/2*u^2*c_x"), st)
    assert val == pytest.approx(np.pi, abs=1e-10)


def test_functional_against_pointwise_riemann_sum():
    n, length = 256, 17.0
    x = grid(length, n)
    u = 1.0 + 0.3 * np.cos(2 * np.pi * x / length)
    c = np.sin(4 * np.pi * x / length)
    st = FieldState(0.0, length, n, {"u": u, "c": c})
    cx = spectral_derivative(c, 1, length)
    want = np.mean(u * u * cx) * length
    got = evaluate_functional(P("u^2*c_x"), st)
    assert got == pytest.approx(want, abs=1e-12)


def test_functional_rejects_markers_and_ghost_squares():
    st = FieldState(0.0, 10.0, 64, {"u": np.zeros(64), "c": np.zeros(64)})
    with pytest.raises(ValueError):
        evaluate_functional(P("u_t"), st)
    with pytest.raises(ValueError):
        evaluate_functional(P("u*c*c_x"), st)


# --- stepping -------------------------------------------------------------------

def test_zero_state_is_fixed_point():
    n = 64
    st = FieldState(0.0, 20.0, n, {"u": np.zeros(n), "c": np.zeros(n)})
    out = step(st, build_system("kdv"), 1e-2)
    assert np.allclose(out.fields["u"], 0.0) and np.allclose(out.fields["c"], 0.0)
    assert out.t == pytest.approx(1e-2)


def test_constant_state_is_fixed_point_of_quadratic_flow():
    n = 64
    tf = build_system("t-form", beta=1, s=2)
    st = FieldState(0.0, 20.0, n, {"T": 1.3 * np.ones(n), "c": np.zeros(n)})
    out = step(st, tf, 1e-2)
    assert np.max(np.abs(out.fields["T"] - 1.3)) < 1e-14


def test_translation_equivariance():
    kdv = build_system("kdv")
    st = soliton_initial(0.7, 20.0, "kdv", 40.0, 256)
    shift = 32
    rolled = FieldState(0.0, 40.0, 256,
                        {k: np.roll(v, shift) for k, v in st.fields.items()})
    a = evolve(st, kdv, 0.05, 1e-3, record_every=1000).states[-1]
    b = evolve(rolled, kdv, 0.05, 1e-3, record_every=1000).states[-1]
    for k in ("u", "c"):
        assert np.max(np.abs(np.roll(a.fields[k], shift) - b.fields[k])) < 1e-10


def test_record_every_semantics():
    kdv = build_system("kdv")
    st = soliton_initial(0.5, 20.0, "kdv", 40.0, 128, ghost="none")
    traj = evolve(st, kdv, 0.1, 0.01, record_every=3)
    assert np.allclose(traj.times, [0.0, 0.03, 0.06, 0.09, 0.1])
    assert traj.meta["system"] == "kdv"
    assert traj.meta["record_every"] == 3


def test_evolve_compiles_each_density_once(monkeypatch):
    # one compile per evolving field (u, c) and one per density, however
    # many snapshots are recorded; per-snapshot compiling made 2 + 7 * 101
    kdv = build_system("kdv")
    st = soliton_initial(0.5, 20.0, "kdv", 40.0, 64)
    calls = []
    compile_terms = solver._compile_terms

    def counted(poly, odd_fields):
        calls.append(poly)
        return compile_terms(poly, odd_fields)

    monkeypatch.setattr(solver, "_compile_terms", counted)
    dens = [kdv.density(nm) for nm in sorted(kdv.densities)]
    assert len(dens) == 7
    traj = evolve(st, kdv, 0.1, 1e-3, record_every=1, diagnostics=dens)
    assert len(traj.states) == 101
    assert len(calls) == 9


def test_evolve_diagnostics_are_the_quadrature_of_each_snapshot():
    kdv = build_system("kdv")
    st = soliton_initial(0.6, 20.0, "kdv", 40.0, 128)
    dens = [kdv.density(nm) for nm in sorted(kdv.densities)]
    traj = evolve(st, kdv, 0.05, 1e-3, record_every=10, diagnostics=dens)
    for d in dens:
        assert traj.diagnostics[d.name] == [evaluate_functional(d, s) for s in traj.states]


def test_evolve_rejects_duplicate_diagnostic_names():
    kdv = build_system("kdv")
    st = soliton_initial(0.5, 20.0, "kdv", 40.0, 64)
    h0 = kdv.density("H0")
    with pytest.raises(ValueError, match="'H0'"):
        evolve(st, kdv, 0.01, 1e-3, diagnostics=[h0, kdv.density("H1"), h0])


def test_evolve_validation():
    kdv = build_system("kdv")
    st = soliton_initial(0.5, 20.0, "kdv", 40.0, 128)
    with pytest.raises(ValueError):
        evolve(st, kdv, 0.0, 1e-3)
    with pytest.raises(ValueError):
        evolve(st, kdv, 0.1005, 1e-3)  # not an integer number of steps


def test_evolve_rejects_negative_dt():
    st = soliton_initial(0.5, 20.0, "kdv", 40.0, 128)
    with pytest.raises(ValueError, match="dt"):
        evolve(st, build_system("kdv"), 0.1, -1e-3)


def test_evolve_rejects_zero_dt():
    st = soliton_initial(0.5, 20.0, "kdv", 40.0, 128)
    with pytest.raises(ValueError, match="dt"):
        evolve(st, build_system("kdv"), 0.1, 0.0)
    with pytest.raises(ValueError, match="dt"):
        step(st, build_system("kdv"), 0.0)


@pytest.mark.parametrize("t_end", [float("inf"), float("nan"), float("-inf")])
def test_evolve_rejects_non_finite_t_end(t_end):
    st = soliton_initial(0.5, 20.0, "kdv", 40.0, 128)
    with pytest.raises(ValueError, match="t_end must be finite"):
        evolve(st, build_system("kdv"), t_end, 1e-3)


def test_evolve_rejects_zero_record_stride():
    st = soliton_initial(0.5, 20.0, "kdv", 40.0, 128)
    with pytest.raises(ValueError, match="record_every"):
        evolve(st, build_system("kdv"), 0.1, 1e-3, record_every=0)


def test_systems_without_complete_evolution_laws_cannot_run():
    ups = build_system("upsilon")
    n = 64
    st = FieldState(0.0, 20.0, n,
                    {"u": np.zeros(n), "T": np.zeros(n), "c": np.zeros(n)})
    with pytest.raises(ValueError):
        step(st, ups, 1e-3)


def test_blow_up_detection():
    kdv = build_system("kdv")
    n = 128
    u = np.zeros(n)
    u[0] = 1e308  # finite, but u*u_x overflows in the first step
    st = FieldState(0.0, 40.0, n, {"u": u, "c": np.zeros(n)})
    with pytest.raises(BlowUpError) as ei:
        evolve(st, kdv, 0.01, 1e-3)
    assert ei.value.t == pytest.approx(1e-3)


def test_blow_up_in_the_ghost_row_names_the_ghost():
    kdv = build_system("kdv")
    # the u-flow never reads the ghost, so only the ghost row goes bad
    st = soliton_initial(0.5, 20.0, "kdv", 40.0, 128, ghost="none")
    c = st.fields["c"].copy()
    c[0] = 1e308  # finite, but c_x overflows in the first step
    with pytest.raises(BlowUpError, match="field 'c'") as ei:
        evolve(st.replace(fields={**st.fields, "c": c}), kdv, 0.01, 1e-3)
    assert ei.value.t == pytest.approx(1e-3)


@pytest.mark.parametrize("bad", [np.inf, np.nan])
def test_non_finite_initial_state_is_rejected_before_any_transform(bad):
    kdv = build_system("kdv")
    st = soliton_initial(0.5, 20.0, "kdv", 40.0, 128)
    c = st.fields["c"].copy()
    c[3] = bad
    with warnings.catch_warnings():
        warnings.simplefilter("error")  # an FFT of the bad row would warn
        with pytest.raises(ValueError, match="initial field 'c' is not finite"):
            evolve(st.replace(fields={**st.fields, "c": c}), kdv, 0.01, 1e-3)


def test_evaluate_matches_the_hand_typed_modified_flow():
    n, length = 128, 40.0
    x = grid(length, n)
    v = 0.9 / np.cosh(0.8 * (x - length / 2))
    rhs = build_system("mkdv").rhs["R"]  # R_xxx - 6 R^2 R_x
    want = spectral_derivative(v, 3, length) - 6 * v * v * spectral_derivative(v, 1, length)
    assert np.max(np.abs(evaluate(rhs, {"R": v}, length) - want)) < 1e-12
    with pytest.raises(KeyError, match="'R'"):
        evaluate(rhs, {"u": v}, length)


def test_evaluate_many_reads_each_grid_once(monkeypatch):
    n, length = 64, 10.0
    x = grid(length, n)
    fields = {"u": np.sin(2 * np.pi * x / length), "T": np.cos(2 * np.pi * x / length)}
    polys = [parse("u_x*T"), parse("u_x + T_xx"), GradedPoly.number(3), GradedPoly.zero()]
    calls = []
    real = solver.spectral_derivative
    monkeypatch.setattr(solver, "spectral_derivative",
                        lambda f, o, ln: calls.append(o) or real(f, o, ln))
    rows = evaluate_many(polys, fields, length)
    assert sorted(calls) == [1, 2]  # u_x once for both rows that read it
    assert rows.shape == (4, n)
    for row, p in zip(rows, polys):
        assert np.array_equal(row, evaluate(p, fields, length))


def test_evaluator_compiles_once(monkeypatch):
    n, length = 64, 10.0
    x = grid(length, n)
    fields = {"u": np.sin(2 * np.pi * x / length), "c": np.cos(2 * np.pi * x / length)}
    polys = [P("u_x*c + u^2*c_xx"), P("u_xx")]
    calls = []
    compile_terms = solver._compile_terms
    monkeypatch.setattr(solver, "_compile_terms",
                        lambda p, odd: calls.append(p) or compile_terms(p, odd))
    values = evaluator(polys)
    rows = [values(fields, length) for _ in range(3)]
    assert len(calls) == 2
    assert all(np.array_equal(r, evaluate_many(polys, fields, length)) for r in rows)


def test_positivity_guard_fires():
    hd = build_system("harry-dym")
    n = 128
    x = grid(20.0, n)
    T = 1.0 + 1.5 * np.cos(2 * np.pi * x / 20.0)  # dips below zero
    st = FieldState(0.0, 20.0, n, {"T": T, "c": np.zeros(n)})
    with pytest.raises(SingularityError):
        step(st, hd, 1e-4)


def test_guards_run_on_every_rk_stage():
    # min T = 1e-3 clears the floor at t = 0, but the half-step stages take T
    # below zero; guarded on the first stage only, T^(1/2) went NaN there and
    # the step was reported as a blow-up
    hd = build_system("harry-dym")
    n = 128
    x = grid(20.0, n)
    T = 1.0 + 0.999 * np.cos(2 * np.pi * x / 20.0)
    st = FieldState(0.0, 20.0, n, {"T": T, "c": np.zeros(n)})
    with warnings.catch_warnings():
        warnings.filterwarnings("ignore", message=".*stability bound", category=UserWarning)
        with pytest.raises(SingularityError, match=r"positivity floor .* at t = 0\.0005"):
            evolve(st, hd, 1e-3, 1e-3)


def test_nonvanishing_guard_fires():
    ck = build_system("ckdv")
    n = 128
    x = grid(20.0, n)
    w = np.cos(2 * np.pi * x / 20.0)  # crosses zero
    st = FieldState(0.0, 20.0, n, {"w": w, "c": np.zeros(n)})
    with pytest.raises(SingularityError):
        step(st, ck, 1e-4)


def test_cfl_advisory_for_variable_dispersion():
    hd = build_system("harry-dym")
    n = 128
    x = grid(20.0, n)
    T = 1.0 + 0.1 * np.cos(2 * np.pi * x / 20.0)
    st = FieldState(0.0, 20.0, n, {"T": T, "c": np.zeros(n)})
    with pytest.warns(UserWarning, match="stability"):
        # the unstable modes drive a stage's T below zero
        with pytest.raises(SingularityError, match="positivity floor"):
            evolve(st, hd, 0.5, 0.05)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        evolve(st, hd, 0.01, 2e-3)  # inside the stability region: no advisory


def test_cfl_advisory_points_at_the_caller():
    hd = build_system("harry-dym")
    n = 128
    T = 1.0 + 0.1 * np.cos(2 * np.pi * grid(20.0, n) / 20.0)
    st = FieldState(0.0, 20.0, n, {"T": T, "c": np.zeros(n)})
    for run in (lambda: evolve(st, hd, 0.05, 0.05),
                lambda: evolve_many([(st, hd, 1, ())], 0.05, 0.05)):
        with pytest.warns(UserWarning, match="stability") as seen:
            run()
        assert {w.filename for w in seen} == {__file__}


def test_guard_violation_raises_before_the_advisory():
    # the advisory raises |T| to negative powers: T = 0 would divide by zero
    # and sign-changing T would draw a huge step-size warning first
    hd = build_system("harry-dym")
    n = 64
    x = grid(20.0, n)
    for T in (np.zeros(n), 0.1 * np.cos(2 * np.pi * x / 20.0)):
        state = FieldState(0.0, 20.0, n, {"T": T, "c": np.zeros(n)})
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(SingularityError, match="at t = 0"):
                evolve(state, hd, 0.01, 1e-3)


@pytest.mark.parametrize("name, sym", [("harry-dym", "T"), ("ckdv", "w")])
def test_guards_trip_on_nan(name, sym):
    stepper = _Stepper([build_system(name)], 10.0, 16, 1e-3)
    assert stepper.fields[0] == sym
    g = np.ones(16)
    g[3] = np.nan
    with pytest.raises(SingularityError, match="nan"):
        stepper._check_guards({0: g}, 0.0)


_RUNNABLE = {name: build_system(name) for name in ("kdv", "mkdv", "ckdv", "harry-dym")}
_AMPLITUDE = st.floats(-5.0, 5.0, allow_nan=False)


@settings(max_examples=100)
@given(st.sampled_from(sorted(_RUNNABLE)), st.sampled_from([16, 32, 64]),
       _AMPLITUDE, _AMPLITUDE, _AMPLITUDE, st.floats(1e-4, 0.05), st.integers(1, 20))
def test_evolve_records_to_t_end_or_raises_a_library_error(name, n, a, b, c, dt, steps):
    system = _RUNNABLE[name]
    x = grid(20.0, n)
    kx = 2 * np.pi * x / 20.0
    even, ghost = system.even_fields[0], system.odd_fields[0]
    state = FieldState(0.0, 20.0, n, {even: a + b * np.cos(kx) + c * np.sin(kx),
                                      ghost: np.sin(kx)})
    t_end = steps * dt
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        warnings.filterwarnings("ignore", message=".*stability bound", category=UserWarning)
        try:
            traj = evolve(state, system, t_end, dt, record_every=3)
        except (solver.SolverError, ValueError):
            return
    times = traj.times
    assert all(t1 > t0 for t0, t1 in zip(times, times[1:]))
    assert times[-1] == t_end


def _same_trajectory(a, b):
    assert [s.t for s in a.states] == [s.t for s in b.states]
    for sa, sb in zip(a.states, b.states):
        assert sa.fields.keys() == sb.fields.keys()
        assert all(np.array_equal(sa.fields[k], sb.fields[k]) for k in sa.fields)
    assert a.diagnostics == b.diagnostics
    assert a.meta == b.meta


_RUN = st.tuples(st.sampled_from(sorted(_RUNNABLE)), st.integers(1, 4), st.booleans(),
                 st.floats(0.0, 0.3))


@settings(max_examples=30)
@given(st.lists(_RUN, min_size=1, max_size=4), st.sampled_from([32, 64]), st.integers(1, 6))
def test_evolve_many_matches_each_runs_own_evolve(specs, n, steps):
    # every stage works row by row, so stacking runs changes no bit
    kx = 2 * np.pi * grid(20.0, n) / 20.0
    runs = []
    for name, every, with_densities, a in specs:
        system = _RUNNABLE[name]
        state = FieldState(0.0, 20.0, n, {system.even_fields[0]: 1.0 + a * np.cos(kx),
                                          system.odd_fields[0]: np.sin(kx)})
        dens = ([system.densities[k] for k in sorted(system.densities)]
                if with_densities else [])
        runs.append((state, system, every, dens))
    t_end = steps * 1e-3
    for run, traj in zip(runs, evolve_many(runs, t_end, 1e-3)):
        _same_trajectory(traj, evolve(run[0], run[1], t_end, 1e-3, run[2], run[3]))


@pytest.mark.parametrize("length, n, t", [(30.0, 64, 0.0), (20.0, 32, 0.0), (20.0, 64, 0.5)])
def test_evolve_many_needs_one_grid_and_start_time(length, n, t):
    kdv = build_system("kdv")
    st = soliton_initial(0.5, 10.0, "kdv", 20.0, 64)
    other = soliton_initial(0.5, 10.0, "kdv", length, n).replace(t=t)
    with pytest.raises(ValueError, match="same t on the same L and N"):
        evolve_many([(st, kdv, 1, ()), (other, kdv, 1, ())], 1.0, 1e-3)


def test_lockstep_errors_name_the_run():
    n = 64
    kx = 2 * np.pi * grid(20.0, n) / 20.0
    kdv, mk, hd = (build_system(nm) for nm in ("kdv", "mkdv", "harry-dym"))
    good = [(FieldState(0.0, 20.0, n, {"u": np.cos(kx), "c": np.zeros(n)}), kdv, 1, ()),
            (FieldState(0.0, 20.0, n, {"R": np.cos(kx), "c": np.zeros(n)}), mk, 1, ())]
    crossing = FieldState(0.0, 20.0, n, {"T": np.cos(kx), "c": np.zeros(n)})
    with pytest.raises(SingularityError, match=r"field 'T' of run 2 \(harry-dym\)"):
        evolve_many(good + [(crossing, hd, 1, ())], 0.01, 1e-3)
    u = np.zeros(n)
    u[0] = 1e308  # finite, but u*u_x overflows in the first step
    huge = FieldState(0.0, 20.0, n, {"u": u, "c": np.zeros(n)})
    with pytest.raises(BlowUpError, match=r"field 'u' of run 1 \(kdv\)"):
        evolve_many([good[1], (huge, kdv, 1, ())], 0.01, 1e-3)


def test_harry_dym_run_conserves_fractional_density():
    hd = build_system("harry-dym")
    n = 128
    x = grid(20.0, n)
    T = 1.0 + 0.1 * np.cos(2 * np.pi * x / 20.0)
    st = FieldState(0.0, 20.0, n, {"T": T, "c": np.zeros(n)})
    traj = evolve(st, hd, 1.0, 2e-3, record_every=100,
                  diagnostics=[hd.density("H0"), hd.density("H1")])
    for name in ("H0", "H1"):
        vals = np.array(traj.diagnostics[name])
        assert np.max(np.abs(vals - vals[0])) / abs(vals[0]) < 1e-10
    assert np.min(traj.states[-1].fields["T"]) > 0.85
    # the field really moved
    assert np.max(np.abs(traj.states[-1].fields["T"] - T)) > 1e-3


def test_mkdv_short_run_conserves_classical_densities():
    mk = build_system("mkdv")
    st = soliton_initial(0.6, 20.0, "mkdv", 40.0, 256)
    traj = evolve(st, mk, 0.2, 1e-3, record_every=50,
                  diagnostics=[mk.density("H0"), mk.density("H1")])
    h1 = np.array(traj.diagnostics["H1"])
    assert np.max(np.abs(h1 - h1[0])) / abs(h1[0]) < 1e-9


# --- the compiled evaluation plan -------------------------------------------------

def _reference_nonlinear_hat(system, state):
    """The physical-space evaluator: read each grid with (ik)^order, filter
    each power other than 1 and each product, sum the terms on the grid and
    take one rfft.  The constant-coefficient dispersion a*f_xxx belongs to
    the integrating factor and is left out."""
    n, length = state.N, state.L
    k = 2 * np.pi / length * np.fft.rfftfreq(n, d=1.0 / n)
    mask = np.arange(n // 2 + 1) <= n // 3

    def grid(sym, order):
        mult = (1j * k) ** order
        if order % 2:
            mult[-1] = 0.0
        return np.fft.irfft(np.fft.rfft(state.fields[sym]) * mult, n)

    def filt(a):
        return np.fft.irfft(np.fft.rfft(a) * mask, n)

    out = {}
    for f in system.evolving_fields():
        val = np.zeros(n)
        for coeff, even, odd in system.rhs[f].terms():
            factors = [(sym, order, float(e)) for (sym, order), e in even]
            factors += [(sym, order, 1.0) for sym, order in odd]
            if factors == [(f, 3, 1.0)]:
                continue
            acc = 1.0
            for i, (sym, order, e) in enumerate(factors):
                g = grid(sym, order) if e == 1.0 else filt(grid(sym, order) ** e)
                acc = g if i == 0 else filt(acc * g)
            val += float(coeff) * acc
        out[f] = np.fft.rfft(val)
    return out


# no catalog plan has a lone linear term, a constant or more than three
# factors: a lone c_x, a constant 1/3, four-factor products (two filtered
# levels) and rows that mix one, two and four factors
_STUB = SimpleNamespace(
    name="stub", even_fields=["u"], odd_fields=["c"],
    rhs={"u": P("1/3 + 2*u*u_x - u^2*u_x*u_xx*u_xxx + 1/2*u_x^3*u_xx - u_xxx"),
         "c": P("c_x - u^2*u_x*u_xx*c_x + 3*u*c_xx")},
    evolving_fields=lambda: ("u", "c"))


@pytest.mark.parametrize("system", [
    pytest.param(build_system("kdv"), id="kdv"),
    pytest.param(build_system("mkdv"), id="mkdv"),
    pytest.param(build_system("ckdv"), id="ckdv"),
    pytest.param(build_system("harry-dym"), id="harry-dym"),
    pytest.param(build_system("kdv", alpha=2), id="kdv-alpha=2"),
    pytest.param(build_system("kdv", alpha=-2), id="kdv-alpha=-2"),
    pytest.param(_STUB, id="stub"),
])
def test_plan_matches_physical_space_evaluator(system):
    # band-limited data whose mode 25 puts products above the N/3 cutoff,
    # so the filtering order matters
    n, length = 128, 20.0
    z = 2 * np.pi * grid(length, n) / length
    f = 1.0 + 0.3 * np.cos(z) + 0.2 * np.sin(2 * z) + 0.05 * np.cos(25 * z)
    c = 0.5 * np.sin(z) + 0.1 * np.cos(3 * z) + 0.05 * np.sin(25 * z)
    st = FieldState(0.0, length, n, {system.even_fields[0]: f, "c": c})
    stepper = _Stepper([system], length, n, 1e-3)
    hats = np.fft.rfft([st.fields[f] for f in stepper.fields])
    got = dict(zip(stepper.fields, stepper.nonlinear_hat(hats, 0.0)))
    want = _reference_nonlinear_hat(system, st)
    assert set(got) == set(want)
    for sym in want:
        scale = np.max(np.abs(want[sym]))
        assert scale > 0
        assert np.max(np.abs(got[sym] - want[sym])) <= 1e-12 * scale


def _ffts_per_step(monkeypatch, systems, states):
    stepper = _Stepper(systems, states[0].L, states[0].N, 1e-3)
    hats = np.fft.rfft([st.fields[f] for st, rows in zip(states, stepper.spans)
                        for f in stepper.fields[rows]])
    calls = []

    def counted(fn):
        def wrapper(*args, **kwargs):
            calls.append(fn.__name__)
            return fn(*args, **kwargs)
        return wrapper

    for name in ("fft", "ifft", "rfft", "irfft"):
        monkeypatch.setattr(np.fft, name, counted(getattr(np.fft, name)))
    stepper.advance(hats, 0.0)
    return len(calls)


# per RK stage: one irfft reads every (field, order) grid, one rfft/irfft
# round trip filters all powers, one round trip per product level filters
# the terms that go on past it, and one rfft takes every term to spectral
# space; the constant-coefficient dispersion never reaches the grid
#   kdv:       grids | no powers | u*u_x, u*c_x end at level 1 | rfft = 2
#   mkdv:      grids | R^2 | three two-factor terms | rfft = 4
#   ckdv:      grids | w^-2, w^-1, w^2, w_x^2, w_x^3 | three three-factor
#              terms filtered at level 1 | rfft = 6
#   harry-dym: grids | T^-2.5, T^-1.5, T^-0.5, T^0.5, T_x^3 | T^-1.5*T_x
#              filtered at level 1 | rfft = 6
@pytest.mark.parametrize("name, ceiling", [
    pytest.param(name, ceiling, id=name)
    for name, ceiling in [("kdv", 8), ("mkdv", 16), ("ckdv", 24), ("harry-dym", 24)]])
def test_step_fft_count(monkeypatch, name, ceiling):
    system = build_system(name)
    n = 128
    f = 1.0 + 0.3 * np.cos(2 * np.pi * grid(40.0, n) / 40.0)
    st = FieldState(0.0, 40.0, n, {system.even_fields[0]: f, "c": np.zeros(n)})
    assert 0 < _ffts_per_step(monkeypatch, [system], [st]) <= ceiling


def test_stacked_runs_step_on_the_fft_calls_of_the_costliest(monkeypatch):
    # kdv + kdv + mkdv in one stepper: mkdv's 16 calls carry the kdv rows too
    n = 128
    f = 1.0 + 0.3 * np.cos(2 * np.pi * grid(40.0, n) / 40.0)
    systems = [build_system(nm) for nm in ("kdv", "kdv", "mkdv")]
    states = [FieldState(0.0, 40.0, n, {s.even_fields[0]: f, "c": np.zeros(n)})
              for s in systems]
    assert _ffts_per_step(monkeypatch, systems, states) <= 16


def test_symbolic_family_parameter_fails_loudly():
    tf = build_system("t-form", beta="beta", s=2)
    n = 64
    st = FieldState(0.0, 20.0, n, {"T": np.ones(n), "c": np.zeros(n)})
    with pytest.raises(ValueError, match="beta"):
        evolve(st, tf, 0.01, 1e-3)
    with pytest.raises(ValueError, match="beta"):
        evaluate_functional(tf.density("H1"), st)


# --- initial data ----------------------------------------------------------------

def test_soliton_profiles():
    st = soliton_initial(0.7, 20.0, "kdv", 40.0, 256)
    assert st.fields["u"].max() == pytest.approx(4 * 0.7 ** 2, abs=1e-9)
    gx = spectral_derivative(st.fields["u"], 1, 40.0)
    assert np.max(np.abs(st.fields["c"] - gx)) < 1e-12
    st = soliton_initial(0.6, 20.0, "mkdv", 40.0, 256, ghost="none")
    assert st.fields["R"].max() == pytest.approx(0.6, abs=1e-9)
    assert np.allclose(st.fields["c"], 0.0)
    st = soliton_initial(0.0, 20.0, "kdv", 40.0, 128)
    assert np.allclose(st.fields["u"], 0.0)


def test_soliton_ghost_options():
    arr = np.full(128, 0.25)
    st = soliton_initial(0.5, 20.0, "kdv", 40.0, 128, ghost=arr)
    assert np.allclose(st.fields["c"], 0.25)
    with pytest.raises(ValueError):
        soliton_initial(0.5, 20.0, "harry-dym", 40.0, 128)
    with pytest.raises(ValueError):
        soliton_initial(0.5, 20.0, "kdv", 40.0, 128, ghost="bogus")


def test_kdv_soliton_translates_at_its_speed():
    # the quadratic-advection normalisation makes the speed -4k^2 (leftward)
    k = 0.7
    kdv = build_system("kdv")
    st = soliton_initial(k, 20.0, "kdv", 40.0, 512, ghost="none")
    t_end = 0.25
    traj = evolve(st, kdv, t_end, 1e-3, record_every=10 ** 6)
    x = st.x
    z = np.mod(x - 20.0 + 4 * k * k * t_end + 20.0, 40.0) - 20.0
    want = 4 * k * k / np.cosh(k * z) ** 2
    assert np.max(np.abs(traj.states[-1].fields["u"] - want)) < 1e-7
