"""Pseudospectral machinery: differentiation, quadrature, stepping,
guards, and trajectory export."""

import dataclasses
import json
import re
import tracemalloc
import warnings
from fractions import Fraction
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from brstkdv import parse
from brstkdv.graded import GradedPoly
from brstkdv import solver, verify
from brstkdv.reductions import build_system
from brstkdv.solver import (
    _raise,
    _Stepper,
    BlowUpError,
    FieldState,
    SingularityError,
    Trajectory,
    evaluate_functional,
    evaluator,
    evolve,
    evolve_many,
    soliton_initial,
    spectral_derivative,
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
    # any int order >= 1: d^5/dx^5 sin 3x = 243 cos 3x
    x = grid(2 * np.pi, 64)
    d5 = spectral_derivative(np.sin(3 * x), 5, 2 * np.pi)
    assert np.max(np.abs(d5 - 243 * np.cos(3 * x))) < 1e-7  # round-off times 32^5
    for order in (0, -1, 2.0, 2.5, True, "1"):
        with pytest.raises(ValueError, match="order must be an int >= 1"):
            spectral_derivative(np.zeros(64), order, 1.0)
    with pytest.raises(ValueError):
        spectral_derivative(np.zeros(48), 1, 1.0)  # not a power of two
    # one order per row of a stack, each row as its own call gives it
    f = np.stack([np.sin(3 * x), np.cos(x)])
    want = np.stack([d5, spectral_derivative(np.cos(x), 1, 2 * np.pi)])
    assert np.array_equal(spectral_derivative(f, [5, 1], 2 * np.pi), want)
    assert np.array_equal(spectral_derivative(f[:, None], (5, 1), 2 * np.pi), want[:, None])
    with pytest.raises(ValueError, match="order must be an int >= 1, got 0$"):
        spectral_derivative(f, [1, 0], 1.0)


@pytest.mark.parametrize("length", [-5.0, 0.0, float("inf"), float("nan")])
def test_derivative_rejects_bad_length(length):
    # the (ik)^order table divides by the length
    with pytest.raises(ValueError, match="domain length must be finite and positive"):
        spectral_derivative(np.zeros(64), 1, length)


def test_dealias_projects_high_modes():
    # the 2/3 rule is an RK stage's one truncation: for every catalog flow,
    # each row's spectrum is exactly zero above mode N/3, though the
    # products reach mode N/2
    length, n = 20.0, 128
    z = 2 * np.pi * grid(length, n) / length
    f = 1.0 + 0.3 * np.cos(z) + 0.05 * np.cos(30 * z) + 0.01 * np.sin(60 * z)
    c = 0.5 * np.sin(z) + 0.05 * np.cos(45 * z)
    for system in [build_system(name) for name in ("kdv", "mkdv", "ckdv", "harry-dym")] + [
            build_system("t-form", beta=-2, s=2)]:
        stepper = _Stepper([system], length, n, 1e-3)
        hats = np.fft.rfft([f, c])
        out = stepper.nonlinear_hat(hats, 0.0)
        assert np.all(out[:, n // 3 + 1:] == 0), system.name
        assert np.all(np.abs(out[:, 1:n // 3 + 1]).max(axis=1) > 0), system.name
        grids = np.fft.irfft(hats[stepper.read_rows] * stepper.read_mult, n)
        raw = np.fft.rfft(stepper.terms.products(grids, stepper.work))
        assert np.abs(raw[:, n // 3 + 1:]).max() > 1e-3 * np.abs(raw).max(), system.name


# --- states and trajectories ------------------------------------------------------

def test_field_state_validation():
    with pytest.raises(ValueError):
        FieldState(0.0, 10.0, 48, {"u": np.zeros(48)})
    with pytest.raises(ValueError):
        FieldState(0.0, 10.0, 64, {"u": np.zeros(32)})
    st = FieldState(0.5, 10.0, 64, {"u": np.zeros(64)})
    assert st.x[0] == 0.0 and st.x[-1] == pytest.approx(10.0 * 63 / 64)
    st2 = dataclasses.replace(st, t=1.0)
    assert st2.t == 1.0 and st2.L == st.L


def test_grid_points_do_not_overflow():
    # L * arange(N) / N overflowed to inf at L = 1e308
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        x = FieldState(0.0, 1e308, 8, {}).x
    assert np.isfinite(x).all() and x[-1] == 7 * (1e308 / 8)
    for length in (40.0, 17.0, 2 * np.pi, 1e-3):  # the same bits for a power-of-two N
        assert np.array_equal(FieldState(0.0, length, 64, {}).x, length * np.arange(64) / 64)


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


@pytest.mark.parametrize("n", [64.0, True, "64", np.float64(64)])
def test_field_state_grid_size_must_be_an_int(n):
    with pytest.raises(ValueError, match="^grid size must be a power of two >= 4, got "):
        FieldState(0.0, 20.0, n, {"u": np.zeros(64)})


def test_field_state_takes_a_numpy_int_grid_size():
    assert FieldState(0.0, 20.0, np.int64(64), {"u": np.zeros(64)}).N == 64


def test_trajectory_needs_a_state():
    with pytest.raises(ValueError, match="^a trajectory needs at least one state$"):
        Trajectory([])


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
    out = evolve(st, build_system("kdv"), 1e-2, 1e-2).states[-1]
    assert np.allclose(out.fields["u"], 0.0) and np.allclose(out.fields["c"], 0.0)
    assert out.t == pytest.approx(1e-2)


def test_constant_state_is_fixed_point_of_quadratic_flow():
    n = 64
    tf = build_system("t-form", beta=1, s=2)
    st = FieldState(0.0, 20.0, n, {"T": 1.3 * np.ones(n), "c": np.zeros(n)})
    out = evolve(st, tf, 1e-2, 1e-2).states[-1]
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
    assert np.allclose([s.t for s in traj.states], [0.0, 0.03, 0.06, 0.09, 0.1])
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


@pytest.mark.parametrize("t_end, every, snapshots", [
    pytest.param(0.05, 10, 6, id="6-snapshots"),
    pytest.param(0.048, 2, 25, id="25-snapshots"),
])
def test_evolve_diagnostics_are_the_quadrature_of_each_snapshot(t_end, every, snapshots):
    kdv = build_system("kdv")
    st = soliton_initial(0.6, 20.0, "kdv", 40.0, 128)
    dens = [kdv.density(nm) for nm in sorted(kdv.densities)]
    traj = evolve(st, kdv, t_end, 1e-3, record_every=every, diagnostics=dens)
    assert len(traj.states) == snapshots
    for d in dens:
        assert traj.diagnostics[d.name] == [evaluate_functional(d, s) for s in traj.states]


def traced_peak(call):
    """The peak of the memory that ``call()`` allocates, in bytes."""
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        tracemalloc.reset_peak()
        call()
        return tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()


def test_diagnostics_pass_holds_one_snapshot_at_a_time():
    # the default simulate run's soliton and densities over 11 snapshots: the
    # diagnostics add to the run's peak at most what one snapshot's evaluator
    # call holds, where a pass over the stacked snapshots adds about 11 times that
    kdv = build_system("kdv")
    dens = [kdv.density(nm) for nm in sorted(kdv.densities)]
    st = soliton_initial(0.7, 20.0, "kdv", 40.0, 512)
    values = evaluator(dens)
    values(st.fields, st.L)  # fills the multiplier cache
    one = traced_peak(lambda: values(st.fields, st.L))
    runs = []

    def run(diagnostics):
        return traced_peak(lambda: runs.append(
            evolve(st, kdv, 0.1, 1e-3, record_every=10, diagnostics=diagnostics)))

    run(dens)  # compiles the stepper's terms
    bare, full = run(()), run(dens)
    assert len(dens) == 7 and [len(t.states) for t in runs] == [11] * 3
    assert full - bare < 1.5 * one


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


@pytest.mark.parametrize("t_end, dt", [
    pytest.param(2.5e-10, 1e-10, id="half-a-step-short"),
    pytest.param(1e-12, 1e-3, id="no-step"),
])
def test_evolve_measures_the_span_in_steps(t_end, dt):
    # a tolerance scaled to max(1, |t_end|) once took 2.5 steps as 2 and
    # a span far below one step as none
    st = soliton_initial(0.7, 20.0, "kdv", 40.0, 64)
    with pytest.raises(ValueError, match="t_end - t must be an integer number of steps"):
        evolve(st, build_system("kdv"), t_end, dt)


@pytest.mark.parametrize("t_end, dt", [(1.0, 1e-320), (1e10, 1e-300)])
def test_evolve_rejects_a_step_count_beyond_float_range(t_end, dt):
    # (t_end - t) / dt overflowed to inf, which int() cannot round
    st = soliton_initial(0.7, 20.0, "kdv", 40.0, 64)
    with pytest.raises(ValueError, match=r"dt .* is too small: \(t_end - t\) / dt overflows"):
        evolve(st, build_system("kdv"), t_end, dt)


def test_evolve_rejects_a_step_count_a_float_cannot_count(monkeypatch):
    # 1e300 steps passed as an integer number of steps, and the run began
    st = soliton_initial(0.7, 20.0, "kdv", 40.0, 64)
    monkeypatch.setattr(np.fft, "rfft", None)  # the check precedes every transform
    with pytest.raises(ValueError, match=r"^dt 1e-300 is too small: .* exceeds 2\*\*53 steps$"):
        evolve(st, build_system("kdv"), 1.0, 1e-300)


def test_a_million_steps_are_still_accepted(monkeypatch):
    class Stepped(Exception):
        pass

    def advance(self, hats, t):
        raise Stepped

    monkeypatch.setattr(solver._Stepper, "advance", advance)
    with pytest.raises(Stepped):
        evolve(soliton_initial(0.7, 20.0, "kdv", 40.0, 64), build_system("kdv"), 1.0, 1e-6)


def test_evolve_rejects_negative_dt():
    st = soliton_initial(0.5, 20.0, "kdv", 40.0, 128)
    with pytest.raises(ValueError, match="dt"):
        evolve(st, build_system("kdv"), 0.1, -1e-3)


def test_evolve_rejects_zero_dt():
    st = soliton_initial(0.5, 20.0, "kdv", 40.0, 128)
    with pytest.raises(ValueError, match="dt"):
        evolve(st, build_system("kdv"), 0.1, 0.0)


@pytest.mark.parametrize("t_end", [float("inf"), float("nan"), float("-inf")])
def test_evolve_rejects_non_finite_t_end(t_end):
    st = soliton_initial(0.5, 20.0, "kdv", 40.0, 128)
    with pytest.raises(ValueError, match="t_end must be finite"):
        evolve(st, build_system("kdv"), t_end, 1e-3)


def test_evolve_rejects_zero_record_stride():
    st = soliton_initial(0.5, 20.0, "kdv", 40.0, 128)
    with pytest.raises(ValueError, match="record_every"):
        evolve(st, build_system("kdv"), 0.1, 1e-3, record_every=0)


def test_evolve_rejects_a_bool_record_stride():
    st = soliton_initial(0.5, 20.0, "kdv", 40.0, 128)
    with pytest.raises(ValueError, match="^record_every must be an int >= 1, got True$"):
        evolve(st, build_system("kdv"), 0.1, 1e-3, record_every=True)


def test_evolve_many_needs_a_run():
    with pytest.raises(ValueError, match="^evolve_many needs at least one run$"):
        evolve_many([], 1e-3)


def test_diagnostics_by_name_match_the_densities_bit_for_bit():
    kdv = build_system("kdv")
    st = soliton_initial(0.6, 20.0, "kdv", 40.0, 128)
    names = sorted(kdv.densities)
    by_name = evolve(st, kdv, 0.02, 1e-3, record_every=5, diagnostics=names)
    by_object = evolve(st, kdv, 0.02, 1e-3, record_every=5,
                       diagnostics=[kdv.density(nm) for nm in names])
    assert by_name.diagnostics == by_object.diagnostics
    assert list(by_name.diagnostics) == names
    for a, b in zip(by_name.states, by_object.states, strict=True):
        assert a.t == b.t
        for f in a.fields:
            assert a.fields[f].tobytes() == b.fields[f].tobytes()


def test_an_unknown_diagnostic_name_is_the_catalogs_key_error():
    kdv = build_system("kdv")
    st = soliton_initial(0.5, 20.0, "kdv", 40.0, 64)
    with pytest.raises(KeyError) as ei:
        evolve(st, kdv, 0.01, 1e-3, diagnostics=["H0", "Hx"])
    assert ei.value.args == ("system 'kdv' has no density 'Hx'; "
                             "available: H0, H1, H1g, H3, H5, Ht0, Ht1",)
    # with several runs, the message names the run
    with pytest.raises(KeyError) as ei:
        evolve_many([(st, kdv, 0.01, 1, ["H0"]), (st, kdv, 0.01, 1, ["Hx"])], 1e-3)
    assert ei.value.args == ("diagnostics of run 1 (kdv): system 'kdv' has no density 'Hx'; "
                             "available: H0, H1, H1g, H3, H5, Ht0, Ht1",)


def test_systems_without_complete_evolution_laws_cannot_run():
    ups = build_system("upsilon")
    n = 64
    st = FieldState(0.0, 20.0, n,
                    {"u": np.zeros(n), "T": np.zeros(n), "c": np.zeros(n)})
    with pytest.raises(ValueError):
        evolve(st, ups, 1e-3, 1e-3)


def test_a_system_that_cannot_be_integrated_says_so_before_the_state_is_read():
    ups, kdv, n = build_system("upsilon"), build_system("kdv"), 64
    st = FieldState(0.0, 20.0, n, {"u": np.ones(n)})  # no T: not the problem
    why = "leaves ['u', 'c'] without an evolution law and cannot be integrated"
    with pytest.raises(ValueError) as ei:
        evolve(st, ups, 1e-3, 1e-3)
    assert ei.value.args == (f"system 'upsilon' {why}",)
    ok = FieldState(0.0, 20.0, n, {"u": np.ones(n), "c": np.zeros(n)})
    with pytest.raises(ValueError) as ei:
        evolve_many([(ok, kdv, 1e-3, 1, []), (st, ups, 1e-3, 1, [])], 1e-3)
    assert ei.value.args == (f"system 'upsilon' of run 1 (upsilon) {why}",)


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
        evolve(dataclasses.replace(st, fields={**st.fields, "c": c}), kdv, 0.01, 1e-3)
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
            evolve(dataclasses.replace(st, fields={**st.fields, "c": c}), kdv, 0.01, 1e-3)


def test_a_missing_field_is_named_before_any_transform(monkeypatch):
    kdv, mk = build_system("kdv"), build_system("mkdv")
    u = np.cos(2 * np.pi * grid(20.0, 64) / 20.0)
    lone = FieldState(0.0, 20.0, 64, {"u": u})
    monkeypatch.setattr(np.fft, "rfft", None)  # the check precedes every transform
    with pytest.raises(ValueError, match="^initial state has no field 'c'$"):
        evolve(lone, kdv, 0.01, 1e-3)
    other = FieldState(0.0, 20.0, 64, {"R": u, "c": np.zeros(64)})
    with pytest.raises(ValueError, match=r"^initial state of run 1 \(kdv\) has no field 'c'$"):
        evolve_many([(other, mk, 0.01, 1, ()), (lone, kdv, 0.01, 1, ())], 1e-3)
    with pytest.raises(ValueError, match=r"^initial state of run 0 \(kdv\) has no field 'u'$"):
        evolve_many([(dataclasses.replace(other, fields={"c": u}), kdv, 0.01, 1, ()),
                     (other, mk, 0.01, 1, ())], 1e-3)


def test_a_diagnostic_field_missing_from_the_state_is_named_before_any_step(monkeypatch):
    kdv, h0 = build_system("kdv"), build_system("mkdv").density("H0")  # reads R
    st = soliton_initial(0.7, 20.0, "kdv", 40.0, 64)
    steps = []
    monkeypatch.setattr(_Stepper, "advance", lambda self, hats, t: steps.append(t))
    with pytest.raises(ValueError, match="^diagnostic 'H0' reads field 'R', "
                                         "which the state does not have$"):
        evolve(st, kdv, 1.0, 1e-3, diagnostics=[h0])
    with pytest.raises(ValueError, match=r"^diagnostic 'H0' of run 1 \(kdv\) reads field 'R'"):
        evolve_many([(st, kdv, 1.0, 1, ["H0"]), (st, kdv, 1.0, 1, [h0])], 1e-3)
    assert steps == []


def test_a_law_with_an_odd_generator_outside_the_ghosts_is_refused():
    flow = dataclasses.replace(build_system("kdv"), rhs={
        "u": P("u_xxx"), "c": parse("odd: c, d; c_xxx + u*d")})
    st = soliton_initial(0.7, 20.0, "kdv", 40.0, 64)
    with pytest.raises(ValueError, match="^odd generator 'd' is not a ghost field here$"):
        evolve(st, flow, 0.01, 1e-3)


def test_evaluate_matches_the_hand_typed_modified_flow():
    n, length = 128, 40.0
    x = grid(length, n)
    v = 0.9 / np.cosh(0.8 * (x - length / 2))
    rhs = build_system("mkdv").rhs["R"]  # R_xxx - 6 R^2 R_x
    want = spectral_derivative(v, 3, length) - 6 * v * v * spectral_derivative(v, 1, length)
    assert np.max(np.abs(evaluator([rhs])({"R": v}, length)[0] - want)) < 1e-12
    with pytest.raises(KeyError, match="'R'"):
        evaluator([rhs])({"u": v}, length)[0]


def test_evaluate_many_reads_each_grid_once(monkeypatch):
    n, length = 64, 10.0
    x = grid(length, n)
    fields = {"u": np.sin(2 * np.pi * x / length), "T": np.cos(2 * np.pi * x / length)}
    polys = [parse("u_x*T"), parse("u_x + T_xx"), parse("T_x"), GradedPoly.number(3),
             GradedPoly.zero()]
    calls = []
    for name in ("rfft", "irfft"):
        real = getattr(np.fft, name)
        monkeypatch.setattr(np.fft, name, lambda a, *args, name=name, real=real, **kwargs:
                            calls.append((name, np.shape(a))) or real(a, *args, **kwargs))
    rows = evaluator(polys)(fields, length)
    # one FFT pair reads u_x, T_x and T_xx: u_x once for both rows
    assert calls == [("rfft", (3, n)), ("irfft", (3, n // 2 + 1))]
    assert rows.shape == (5, n)
    for row, p in zip(rows, polys):
        assert np.array_equal(row, evaluator([p])(fields, length)[0])


def test_evaluator_reads_stacked_fields_row_by_row():
    n, length = 64, 10.0
    z = 2 * np.pi * grid(length, n) / length
    stacked = {"u": np.stack([np.sin(z), 1.0 + 0.5 * np.cos(2 * z), np.cos(3 * z)]),
               "T": np.stack([np.cos(z), np.sin(z), 2.0 + np.sin(4 * z)])}
    polys = [parse("u_x*T^2"), parse("u_xxxxx + T_x"), GradedPoly.number(3)]
    rows = evaluator(polys)(stacked, length)
    assert rows.shape == (3, 3, n)
    for b in range(3):
        one = evaluator(polys)({k: v[b] for k, v in stacked.items()}, length)
        assert np.array_equal(rows[:, b], one)


def test_fifth_and_higher_derivatives_read_on_grids():
    # the evaluator, and the advisory that reads u_5x as u_7x's amplitude
    n, length = 64, 2 * np.pi
    x = grid(length, n)
    got = evaluator([parse("u_xxxxx")])({"u": np.sin(3 * x)}, length)[0]
    assert np.max(np.abs(got - 243 * np.cos(3 * x))) < 1e-7
    flow = dataclasses.replace(build_system("kdv"),
                               rhs={"u": P("u_5x*u_7x"), "c": P("c_xxx")})
    st = FieldState(0.0, length, n, {"u": 1e-3 * np.sin(x), "c": np.zeros(n)})
    # dt * max|u_5x| * kmax^7 = 1e-3 * 1e-3 * 21^7
    with pytest.warns(UserWarning, match=r"kmax\^7 ~ 1\.8e\+03 exceeds"):
        end = evolve(st, flow, 0.002, 1e-3).states[-1]
    assert np.isfinite(end.fields["u"]).all()


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
    assert all(np.array_equal(r, evaluator(polys)(fields, length)) for r in rows)


def ref_pointwise(terms, grids, out):
    """Add coeff * prod grid^e over compiled terms, unfiltered, into ``out``."""
    for coeff, fs in terms:
        acc = 1.0
        for s, o, e in fs:
            acc = acc * _raise(grids[s, o], e)
        out += coeff * acc
    return out


# a derivative takes only the positive ones; 9 takes np.power
_EXPONENTS = (-2, -1, Fraction(1, 2), 1, 2, 3, 9)


@st.composite
def evaluated_polys(draw):
    """A ghost-linear polynomial in u, T and the ghost c (derivatives up to
    the 5th), or a constant alone; the constant always sorts first."""
    q = st.fractions(-4, 4, max_denominator=4).filter(bool)
    if draw(st.booleans()) and draw(st.booleans()):
        return GradedPoly.number(draw(q), {"c"})
    poly = GradedPoly.number(draw(q), {"c"}) if draw(st.booleans()) else GradedPoly.zero({"c"})
    for _ in range(draw(st.integers(1, 4))):
        term = GradedPoly.number(draw(q), {"c"})
        for _ in range(draw(st.integers(1, 3))):
            order = draw(st.integers(0, 5))
            e = draw(st.sampled_from(_EXPONENTS[3:] if order else _EXPONENTS))
            term = term * GradedPoly.gen(draw(st.sampled_from(["u", "T"])), order, e, {"c"})
        if draw(st.booleans()):
            term = term * GradedPoly.gen("c", draw(st.integers(0, 5)), 1, {"c"})
        poly = poly + term
    return poly


@settings(max_examples=60)
@given(st.lists(evaluated_polys(), min_size=1, max_size=4), st.sampled_from([(16,), (3, 16)]),
       st.integers(0, 2 ** 32 - 1))
def test_evaluator_matches_the_pointwise_loop_bit_for_bit(polys, shape, seed):
    # the per-term loop the compiled-term table replaced, read from the same
    # grids: each row sums its terms, its constant first, unfiltered
    rng = np.random.default_rng(seed)
    fields = {s: rng.uniform(0.5, 2.0, shape) for s in ("u", "T", "c")}
    length = 7.0
    compiled = [solver._compile_terms(p, {"c"}) for p in polys]
    keys = sorted({x[:2] for terms in compiled for _, fs in terms for x in fs})
    grids = dict(zip(keys, solver._grids(keys, fields, length)))
    want = np.array([ref_pointwise(terms, grids, np.zeros(shape)) for terms in compiled])
    assert evaluator(polys)(fields, length).tobytes() == want.tobytes()


def test_positivity_guard_fires():
    hd = build_system("harry-dym")
    n = 128
    x = grid(20.0, n)
    T = 1.0 + 1.5 * np.cos(2 * np.pi * x / 20.0)  # dips below zero
    st = FieldState(0.0, 20.0, n, {"T": T, "c": np.zeros(n)})
    with pytest.raises(SingularityError):
        evolve(st, hd, 1e-4, 1e-4)


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
        evolve(st, ck, 1e-4, 1e-4)


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
                lambda: evolve_many([(st, hd, 0.05, 1, ())], 0.05)):
        with pytest.warns(UserWarning, match="stability") as seen:
            run()
        assert {w.filename for w in seen} == {__file__}


def test_fifth_order_linear_flow_is_exact():
    # u_5x and c_5x go whole into the integrating factor, so sin 3x travels
    # as sin(3x + 243 t) at a dt where explicit RK4 would be unstable for
    # every mode above 3 (dt*k^5 > 2.83)
    kdv = build_system("kdv")
    flow = dataclasses.replace(kdv, rhs={"u": P("u_xxxxx"), "c": P("c_xxxxx")})
    n, length = 64, 2 * np.pi
    x = grid(length, n)
    st = FieldState(0.0, length, n, {"u": np.sin(3 * x), "c": np.sin(3 * x)})
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        end = evolve(st, flow, 0.1, 0.01).states[-1]
    for f in ("u", "c"):
        assert np.max(np.abs(end.fields[f] - np.sin(3 * x + 243 * 0.1))) < 1e-12


def test_growing_linear_mode_blows_up_without_numpy_warnings():
    # -u_xx grows mode k like exp(k^2 t): the factor of mode 32 overflows at
    # dt = 1, which is a blow-up at t = dt and no overflow warning
    kdv = build_system("kdv")
    flow = dataclasses.replace(kdv, rhs={"u": P("-u_xx"), "c": P("c_xxx")})
    n, length = 64, 2 * np.pi
    st = FieldState(0.0, length, n, {"u": np.sin(grid(length, n)), "c": np.zeros(n)})
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(BlowUpError, match="'u'.*t = 1"):
            evolve(st, flow, 1.0, 1.0)


def test_cfl_advisory_reads_each_terms_own_order():
    # u^2*u_5x stays in the term table: its bound is dt*max(u^2)*kmax^5 with
    # kmax = 21 on 64 points of [0, 2 pi)
    kdv = build_system("kdv")
    flow = dataclasses.replace(kdv, rhs={"u": P("u^2*u_xxxxx"), "c": P("c_xxxxx")})
    n, length = 64, 2 * np.pi
    st = FieldState(0.0, length, n, {"u": 1.0 + 0.1 * np.sin(grid(length, n)),
                                     "c": np.zeros(n)})
    with pytest.warns(UserWarning, match=r"field 'u': .*kmax\^5 ~ 4\.94e\+04 exceeds") as seen:
        with pytest.raises(BlowUpError):
            evolve(st, flow, 0.1, 0.01)
    assert {w.filename for w in seen} == {__file__}
    assert len(seen) == 1


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
        stepper.terms.guard({0: g}, 0.0, stepper.names)


def test_a_runs_last_state_is_guarded():
    # no stage reads the last step's output: T went to -0.075 at t_end and
    # the run returned it, with a NaN H1 from T^(3/2)
    hd = build_system("harry-dym")
    n = 128
    T = 1.0 + 0.9 * np.cos(2 * np.pi * grid(20.0, n) / 20.0)
    st = FieldState(0.0, 20.0, n, {"T": T, "c": np.zeros(n)})
    with warnings.catch_warnings():
        warnings.filterwarnings("ignore", message=".*stability bound", category=UserWarning)
        with pytest.raises(SingularityError, match=r"positivity floor .* at t = 0\.04$"):
            evolve(st, hd, 0.04, 0.02, diagnostics=["H1"])


def test_a_diagnostic_outside_its_domain_fails_before_step_1(monkeypatch):
    # the soliton's tails (5e-12) fail u^(1/2)'s floor at t = 0; the error
    # came only after the last step and named no run, diagnostic or time
    kdv = build_system("kdv")
    st = soliton_initial(0.7, 20.0, "kdv", 40.0, 64)
    monkeypatch.setattr(solver, "_Stepper", None)  # no stepper is built
    with pytest.raises(SingularityError, match=r"^diagnostic 'u\^1/2' of run 1 \(kdv\) at t = 0: "
                                               r"field 'u' reached .* <= positivity floor"):
        evolve_many([(st, kdv, 0.01, 1, ()), (st, kdv, 0.01, 1, [parse("u^(1/2)")])], 1e-3)


def test_a_diagnostic_leaving_its_domain_fails_at_that_snapshot(monkeypatch):
    # dispersion turns cos x - cos 3x towards cos x + cos 3x: min u goes from
    # 1.6e-3 to -6.4e-4 by t = 0.04, the fourth recorded snapshot of twenty
    n = 32
    x = grid(2 * np.pi, n)
    st = FieldState(0.0, 2 * np.pi, n, {"u": 0.017 + 0.01 * (np.cos(x) - np.cos(3 * x)),
                                        "c": np.zeros(n)})
    steps, advance = [], solver._Stepper.advance
    monkeypatch.setattr(solver._Stepper, "advance",
                        lambda self, hats, t: steps.append(t) or advance(self, hats, t))
    with pytest.raises(SingularityError, match=r"^diagnostics of run 1 \(kdv\) at t = 0\.04: "
                                               r"field 'u' reached -6\.362e-04"):
        evolve_many([(st, build_system("kdv"), 0.2, 10, ()),
                     (st, build_system("kdv"), 0.2, 10, [parse("u^(1/2)")])], 1e-3)
    assert len(steps) == 40


def test_evaluate_functional_is_guarded():
    # T^(3/2) of a sign-changing T was NaN on half the grid, and so the integral
    hd = build_system("harry-dym")
    n = 64
    T = np.cos(2 * np.pi * grid(20.0, n) / 20.0)
    st = FieldState(0.0, 20.0, n, {"T": T, "c": np.zeros(n)})
    with pytest.raises(SingularityError, match=r"^field 'T' reached -1\.000e\+00 <= positivity"):
        evaluate_functional(hd.density("H1"), st)


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
    times = [s.t for s in traj.states]
    assert all(t1 > t0 for t0, t1 in zip(times, times[1:]))
    assert times[-1] == t_end


def _same_trajectory(a, b):
    assert [s.t for s in a.states] == [s.t for s in b.states]
    for sa, sb in zip(a.states, b.states):
        assert sa.fields.keys() == sb.fields.keys()
        assert all(_same_bits(sa.fields[k], sb.fields[k]) for k in sa.fields)
    assert a.diagnostics == b.diagnostics
    assert a.meta == b.meta


def _same_bits(a, b):
    return a.dtype == b.dtype and a.tobytes() == b.tobytes()


# the last entry scales the ghost sin(kx): a zero ghost (of mixed-sign
# zeros) is left out of the stack, a nonzero one is a row
_RUN = st.tuples(st.sampled_from(sorted(_RUNNABLE)), st.integers(1, 4), st.booleans(),
                 st.floats(0.0, 0.3), st.integers(1, 12), st.sampled_from([1.0, 0.0, -0.0]))


@settings(max_examples=30)
@given(st.lists(_RUN, min_size=1, max_size=4), st.sampled_from([32, 64]))
@example([("kdv", 3, True, 0.2, 7, 0.0), ("mkdv", 3, True, 0.2, 12, 1.0),
          ("harry-dym", 3, True, 0.2, 12, -0.0), ("ckdv", 3, True, 0.2, 12, 1.0)], 64)
def test_evolve_many_matches_each_runs_own_evolve(specs, n):
    # every stage works row by row, so stacking runs, and a run leaving the
    # stack at its own end time, changes no bit
    kx = 2 * np.pi * grid(20.0, n) / 20.0
    runs = []
    for name, every, with_densities, a, steps, ghost in specs:
        system = _RUNNABLE[name]
        state = FieldState(0.0, 20.0, n, {system.even_fields[0]: 1.0 + a * np.cos(kx),
                                          system.odd_fields[0]: ghost * np.sin(kx)})
        dens = ([system.densities[k] for k in sorted(system.densities)]
                if with_densities else [])
        runs.append((state, system, steps * 1e-3, every, dens))
    for run, traj in zip(runs, evolve_many(runs, 1e-3)):
        _same_trajectory(traj, evolve(run[0], run[1], run[2], 1e-3, run[3], run[4]))


@pytest.mark.parametrize("length, n, t", [(30.0, 64, 0.0), (20.0, 32, 0.0), (20.0, 64, 0.5)])
def test_evolve_many_needs_one_grid_and_start_time(length, n, t):
    kdv = build_system("kdv")
    st = soliton_initial(0.5, 10.0, "kdv", 20.0, 64)
    other = dataclasses.replace(soliton_initial(0.5, 10.0, "kdv", length, n), t=t)
    with pytest.raises(ValueError, match="same t on the same L and N"):
        evolve_many([(st, kdv, 1.0, 1, ()), (other, kdv, 1.0, 1, ())], 1e-3)


def test_evolve_many_validates_each_runs_end_time():
    kdv = build_system("kdv")
    st = soliton_initial(0.5, 10.0, "kdv", 20.0, 64)
    for t_end, message in [(float("nan"), "t_end of run 1 .kdv. must be finite"),
                           (0.0, "t_end of run 1 .kdv. must exceed"),
                           (0.0105, "t_end - t of run 1 .kdv. must be an integer")]:
        with pytest.raises(ValueError, match=message):
            evolve_many([(st, kdv, 0.01, 1, ()), (st, kdv, t_end, 1, ())], 1e-3)


def test_lockstep_errors_name_the_run():
    n = 64
    kx = 2 * np.pi * grid(20.0, n) / 20.0
    kdv, mk, hd = (build_system(nm) for nm in ("kdv", "mkdv", "harry-dym"))
    good = [(FieldState(0.0, 20.0, n, {"u": np.cos(kx), "c": np.zeros(n)}), kdv, 0.01, 1, ()),
            (FieldState(0.0, 20.0, n, {"R": np.cos(kx), "c": np.zeros(n)}), mk, 0.01, 1, ())]
    crossing = FieldState(0.0, 20.0, n, {"T": np.cos(kx), "c": np.zeros(n)})
    with pytest.raises(SingularityError, match=r"field 'T' of run 2 \(harry-dym\)"):
        evolve_many(good + [(crossing, hd, 0.01, 1, ())], 1e-3)
    u = np.zeros(n)
    u[0] = 1e308  # finite, but u*u_x overflows in the first step
    huge = FieldState(0.0, 20.0, n, {"u": u, "c": np.zeros(n)})
    with pytest.raises(BlowUpError, match=r"field 'u' of run 1 \(kdv\)"):
        evolve_many([good[1], (huge, kdv, 0.01, 1, ())], 1e-3)


def test_a_run_is_named_by_its_index_after_others_leave_the_stack():
    # u^2*u_5x blows up at t = 0.03 (see the advisory test), after run 0
    # has left the stack at t = 0.01 and the rows were restacked
    n, length = 64, 2 * np.pi
    x = grid(length, n)
    kdv, mk = build_system("kdv"), build_system("mkdv")
    flow = dataclasses.replace(kdv, rhs={"u": P("u^2*u_xxxxx"), "c": P("c_xxxxx")})
    runs = [(FieldState(0.0, length, n, {"u": 0.1 * np.cos(x), "c": np.zeros(n)}),
             kdv, 0.01, 1, ()),
            (FieldState(0.0, length, n, {"R": 0.1 * np.cos(x), "c": np.zeros(n)}),
             mk, 0.1, 1, ()),
            (FieldState(0.0, length, n, {"u": 1.0 + 0.1 * np.sin(x), "c": np.zeros(n)}),
             flow, 0.1, 1, ())]
    with pytest.warns(UserWarning, match=r"field 'u' of run 2 \(kdv\): "):
        with pytest.raises(BlowUpError, match=r"field 'u' of run 2 \(kdv\)") as ei:
            evolve_many(runs, 0.01)
    assert ei.value.t == pytest.approx(0.03)


# --- zero ghosts --------------------------------------------------------------------

_ZERO_GHOST_SYSTEMS = {**_RUNNABLE, "t-form": build_system("t-form", beta=1, s=2)}


def _rows_per_step(monkeypatch):
    """The list that each later step appends its number of stacked rows to."""
    rows, advance = [], _Stepper.advance

    def counted(stepper, hats, t):
        rows.append(len(hats))
        return advance(stepper, hats, t)

    monkeypatch.setattr(_Stepper, "advance", counted)
    return rows


@pytest.mark.parametrize("zero", [0.0, -0.0], ids=["plus-zero", "minus-zero"])
@pytest.mark.parametrize("name", sorted(_ZERO_GHOST_SYSTEMS))
def test_a_zero_ghost_is_not_integrated_and_stays_plus_zero(monkeypatch, name, zero):
    # no even law reads the ghost, so the even field of a zero-ghost run is
    # bit for bit that of a nonzero-ghost run; the zero ghost is no row, and
    # every snapshot after t0 holds +0.0 in it, also from a -0.0 start
    system, n = _ZERO_GHOST_SYSTEMS[name], 64
    kx = 2 * np.pi * grid(20.0, n) / 20.0
    even = system.even_fields[0]
    f = 1.0 + 0.2 * np.cos(kx) + 0.1 * np.sin(2 * kx)
    rows = _rows_per_step(monkeypatch)
    ghostly = evolve(FieldState(0.0, 20.0, n, {even: f, "c": np.sin(kx)}),
                     system, 0.02, 1e-3, 5)
    assert rows == [2] * 20
    rows.clear()
    start = FieldState(0.0, 20.0, n, {even: f, "c": np.full(n, zero)})
    traj = evolve(start, system, 0.02, 1e-3, 5)
    assert rows == [1] * 20
    assert [s.t for s in traj.states] == [s.t for s in ghostly.states]
    assert all(_same_bits(a.fields[even], b.fields[even])
               for a, b in zip(traj.states, ghostly.states))
    assert traj.states[0].fields["c"] is start.fields["c"]
    for snap in traj.states[1:]:
        assert not snap.fields["c"].any() and not np.signbit(snap.fields["c"]).any()
    assert len({id(s.fields["c"]) for s in traj.states}) == len(traj.states)  # fresh arrays


def test_blow_ups_name_their_run_and_field_past_left_out_rows():
    n, kdv = 128, build_system("kdv")
    calm = soliton_initial(0.5, 20.0, "kdv", 40.0, n, ghost="none")
    ghostly = soliton_initial(0.5, 20.0, "kdv", 40.0, n)
    c, u = np.zeros(n), np.zeros(n)
    c[0] = u[0] = 1e308  # finite, but c_x and u*u_x overflow in the first step
    bad_c = dataclasses.replace(calm, fields={**calm.fields, "c": c})
    bad_u = dataclasses.replace(calm, fields={**calm.fields, "u": u})
    for states, message in [([calm, bad_c], r"field 'c' of run 1 \(kdv\)"),
                            ([calm, ghostly, calm, bad_u], r"field 'u' of run 3 \(kdv\)"),
                            ([ghostly, bad_u, calm], r"field 'u' of run 1 \(kdv\)")]:
        with pytest.raises(BlowUpError, match=message) as ei:
            evolve_many([(s, kdv, 0.01, 1, ()) for s in states], 1e-3)
        assert ei.value.t == pytest.approx(1e-3)


def test_a_zero_ghost_gets_no_step_size_advisory():
    # T^(-1/2) c_xxx is as stiff as T's own dispersion, but zero cannot grow
    hd, n = build_system("harry-dym"), 128
    z = 2 * np.pi * grid(20.0, n) / 20.0
    T = 1.0 + 0.1 * np.cos(z)
    for ghost, fields in [(np.zeros(n), ["T"]), (np.sin(z), ["T", "c"])]:
        with pytest.warns(UserWarning, match="stability") as seen:
            evolve(FieldState(0.0, 20.0, n, {"T": T, "c": ghost}), hd, 0.05, 0.05)
        assert [str(w.message).split("'")[1] for w in seen] == fields


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


# --- the compiled term table, truncated once ---------------------------------------

def _reference_nonlinear_hat(system, state):
    """The physical-space evaluator: read each grid with (ik)^order, form
    each term pointwise, sum the terms on the grid, take one rfft and keep
    the modes up to N/3.  Every constant-coefficient linear term in the
    row's own field belongs to the integrating factor and is left out."""
    n, length = state.N, state.L
    k = 2 * np.pi / length * np.fft.rfftfreq(n, d=1.0 / n)
    mask = np.arange(n // 2 + 1) <= n // 3

    def grid(sym, order):
        mult = (1j * k) ** order
        if order % 2:
            mult[-1] = 0.0
        return np.fft.irfft(np.fft.rfft(state.fields[sym]) * mult, n)

    out = {}
    for f in system.evolving_fields():
        val = np.zeros(n)
        for coeff, even, odd in system.rhs[f].terms():
            factors = [(sym, order, float(e)) for (sym, order), e in even]
            factors += [(sym, order, 1.0) for sym, order in odd]
            if len(factors) == 1 and factors[0][::2] == (f, 1.0):
                continue
            acc = 1.0
            for sym, order, e in factors:
                acc = acc * grid(sym, order) ** e
            val += float(coeff) * acc
        out[f] = np.fft.rfft(val) * mask
    return out


# no catalog system has a constant, more than three factors or a linear term
# in another row's field: a constant 1/3, four-factor products (three product
# levels) and rows that mix two and four factors, beside the self terms c_x
# and -u_xxx that go to the integrating factor; then two even fields, each
# row a lone linear factor of the other, which takes the product path
_STUB = SimpleNamespace(
    name="stub", even_fields=["u"], odd_fields=["c"],
    rhs={"u": P("1/3 + 2*u*u_x - u^2*u_x*u_xx*u_xxx + 1/2*u_x^3*u_xx - u_xxx"),
         "c": P("c_x - u^2*u_x*u_xx*c_x + 3*u*c_xx")},
    evolving_fields=lambda: ("u", "c"))
_CROSS = SimpleNamespace(
    name="cross", even_fields=["u", "T"], odd_fields=[],
    rhs={"u": P("T_x"), "T": P("u_x")}, evolving_fields=lambda: ("u", "T"))


@pytest.mark.parametrize("system", [
    pytest.param(build_system("kdv"), id="kdv"),
    pytest.param(build_system("mkdv"), id="mkdv"),
    pytest.param(build_system("ckdv"), id="ckdv"),
    pytest.param(build_system("harry-dym"), id="harry-dym"),
    pytest.param(build_system("kdv", alpha=2), id="kdv-alpha=2"),
    pytest.param(build_system("kdv", alpha=-2), id="kdv-alpha=-2"),
    pytest.param(_STUB, id="stub"),
    pytest.param(_CROSS, id="cross-row"),
])
def test_rk_stage_matches_physical_space_reference(system):
    # band-limited data whose mode 25 puts products above the N/3 cutoff,
    # so a truncation between the factors would show
    n, length = 128, 20.0
    z = 2 * np.pi * grid(length, n) / length
    f = 1.0 + 0.3 * np.cos(z) + 0.2 * np.sin(2 * z) + 0.05 * np.cos(25 * z)
    c = 0.5 * np.sin(z) + 0.1 * np.cos(3 * z) + 0.05 * np.sin(25 * z)
    st = FieldState(0.0, length, n, dict(zip(system.evolving_fields(), (f, c))))
    stepper = _Stepper([system], length, n, 1e-3)
    hats = np.fft.rfft([st.fields[f] for f in stepper.fields])
    got = dict(zip(stepper.fields, stepper.nonlinear_hat(hats, 0.0)))
    want = _reference_nonlinear_hat(system, st)
    assert set(got) == set(want)
    for sym in want:
        scale = np.max(np.abs(want[sym]))
        assert scale > 0
        assert np.max(np.abs(got[sym] - want[sym])) <= 1e-12 * scale


# --- the stage's work arrays against the stage as first written ------------------

def _oracle_stage(stepper, hats, t):
    """The RK stage as it was first written: the powers stacked and
    concatenated after the grids, each row's terms added into a zero
    spectrum, then its constants."""
    terms, m = stepper.terms, stepper.n // 2 + 1
    grids = np.fft.irfft(hats[stepper.read_rows] * stepper.read_mult, stepper.n)
    terms.guard({r: grids[i] for r, i in stepper.guard_reads}, t, stepper.names)
    vals = grids
    if terms.powers:
        vals = np.concatenate((grids, np.stack([_raise(grids[i], e)
                                                for i, e in terms.raise_from])))
    acc = vals[terms.first]
    for idx in terms.levels:
        acc[:len(idx)] *= vals[idx]
    spec = np.fft.rfft(acc) * (terms.coeffs[:, None] * (np.arange(m) <= stepper.cutoff))
    out = np.zeros((len(stepper.fields), m), dtype=complex)
    for r, k, _ in terms.adds:
        if k is not None:
            out[r] += spec[k]
    for r, k, c in terms.adds:
        if k is None:
            out[r, 0] += c * stepper.n
    return out


def _oracle_advance(stepper, hats, t):
    """The IF-RK4 step as it was first written, on the oracle's stages."""
    dt = stepper.dt
    with np.errstate(invalid="ignore", over="ignore", divide="ignore"):
        e2_hats, e_hats = stepper.E2 * hats, stepper.E * hats
        a = _oracle_stage(stepper, hats, t)
        b = _oracle_stage(stepper, e2_hats + stepper.half_E2 * a, t + 0.5 * dt)
        c = _oracle_stage(stepper, e2_hats + 0.5 * dt * b, t + 0.5 * dt)
        d = _oracle_stage(stepper, e_hats + stepper.dt_E2 * c, t + dt)
        return e_hats + stepper.sixth_E * a + stepper.third_E2 * (b + c) + dt / 6.0 * d


def _lockstep_runs():
    """run_all's lockstep pass: kdv with every density, then the chain's legs."""
    densities = verify._kdv_densities("classical") + verify._kdv_densities("brst-invariant")
    return [verify._soliton_run(densities), *verify._miura_runs()]


# a ghost row that is all integrating factor, and a flow that is all of it
_BLANK_ROW = SimpleNamespace(
    name="blank-row", even_fields=["u"], odd_fields=["c"],
    rhs={"u": P("3*u*u_x + u_xxx"), "c": P("c_xxx")}, evolving_fields=lambda: ("u", "c"))
_LINEAR = SimpleNamespace(
    name="linear", even_fields=["u"], odd_fields=["c"],
    rhs={"u": P("u_xxx"), "c": P("c_5x")}, evolving_fields=lambda: ("u", "c"))


def _stage_case(case):
    """A stepper and the spectra of its initial rows."""
    if case == "run_all":
        runs = _lockstep_runs()
        states, systems = [r[0] for r in runs], [r[1] for r in runs]
        zero = [{f for f in s.fields if not s.fields[f].any()} for s in states]
        stepper = _Stepper(systems, verify._LENGTH, verify._N, verify._DT, None, zero)
    else:
        system = {"stub": _STUB, "blank-row": _BLANK_ROW, "linear": _LINEAR}.get(
            case) or build_system(case)
        n, length = 128, 20.0
        z = 2 * np.pi * grid(length, n) / length
        f = 1.0 + 0.3 * np.cos(z) + 0.2 * np.sin(2 * z) + 0.05 * np.cos(25 * z)
        c = 0.5 * np.sin(z) + 0.1 * np.cos(3 * z) + 0.05 * np.sin(25 * z)
        states = [FieldState(0.0, length, n, dict(zip(system.evolving_fields(), (f, c))))]
        stepper = _Stepper([system], length, n, 1e-3)
    return stepper, np.fft.rfft([st.fields[f] for st, rows in zip(states, stepper.spans)
                                 for f in stepper.fields[rows]])


@pytest.mark.parametrize("case", ["run_all", "harry-dym", "stub", "blank-row", "linear"])
def test_stage_matches_the_stacked_oracle(case):
    # run_all's stack raises w to negative powers under the nonvanishing
    # guard, harry-dym T to fractional ones; the stub has a constant term,
    # blank-row a row with no table term, and linear no table at all
    stepper, hats = _stage_case(case)
    powers = {e for *_, e in stepper.terms.powers}
    assert {"run_all": min(powers, default=0) < 0 and stepper.terms.guards,
            "harry-dym": any(e != int(e) for e in powers),
            "stub": stepper.consts, "blank-row": len(stepper.terms.first) and not stepper.heads,
            "linear": not len(stepper.terms.first)}[case]
    for h, t in [(hats, 0.0), (0.9 * hats, 5e-4)]:
        assert np.array_equal(stepper.nonlinear_hat(h, t), _oracle_stage(stepper, h, t))
        assert np.array_equal(stepper.advance(h, t), _oracle_advance(stepper, h, t))


def test_a_stage_and_a_step_return_arrays_of_their_own():
    # advance holds four stage outputs at once, and the caller the step's
    stepper, hats = _stage_case("run_all")
    buffers = (*stepper.work, stepper.spectra)
    a = stepper.nonlinear_hat(hats, 0.0)
    kept = a.copy()
    b = stepper.nonlinear_hat(0.9 * hats, 0.0)
    assert a.tobytes() == kept.tobytes()
    assert not any(np.shares_memory(a, x) for x in (b, hats, *buffers))
    step = stepper.advance(hats, 0.0)
    kept = step.copy()
    after = stepper.advance(step, 1e-3)
    assert step.tobytes() == kept.tobytes()
    assert not any(np.shares_memory(step, x) for x in (after, hats, *buffers))


def _hd_runs():
    x = grid(20.0, 128)
    st = FieldState(0.0, 20.0, 128, {"T": 1.0 + 0.3 * np.cos(2 * np.pi * x / 20.0),
                                     "c": 0.1 * np.sin(2 * np.pi * x / 20.0)})
    return [(st, build_system("harry-dym"), 0.01, 10, ["H1"])]


@pytest.mark.parametrize("runs, dt", [pytest.param(_lockstep_runs, verify._DT, id="run_all"),
                                      pytest.param(_hd_runs, 1e-4, id="harry-dym")])
def test_evolve_many_matches_the_oracle_stepper_byte_for_byte(monkeypatch, runs, dt):
    def flat(trajectories):
        return b"".join(
            np.float64([s.t for s in tr.states]).tobytes()
            + b"".join(s.fields[f].tobytes() for s in tr.states for f in sorted(s.fields))
            + np.float64([v for k in sorted(tr.diagnostics) for v in tr.diagnostics[k]]).tobytes()
            for tr in trajectories)

    got = flat(evolve_many(runs(), dt))
    monkeypatch.setattr(_Stepper, "advance", _oracle_advance)
    assert got == flat(evolve_many(runs(), dt))


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


# per RK stage: one irfft reads every (field, order) grid and one rfft takes
# every term, formed pointwise, to spectral space, where the 2/3 mask is the
# one truncation; the constant-coefficient dispersion never reaches the grid,
# so every system's step makes 4 * 2 calls
@pytest.mark.parametrize("name", ["kdv", "mkdv", "ckdv", "harry-dym"])
def test_step_fft_count(monkeypatch, name):
    system = build_system(name)
    n = 128
    f = 1.0 + 0.3 * np.cos(2 * np.pi * grid(40.0, n) / 40.0)
    st = FieldState(0.0, 40.0, n, {system.even_fields[0]: f, "c": np.zeros(n)})
    assert 0 < _ffts_per_step(monkeypatch, [system], [st]) <= 8


def test_stacked_runs_step_on_the_fft_calls_of_the_costliest(monkeypatch):
    # kdv + kdv + mkdv in one stepper: each stage's two calls carry every row
    n = 128
    f = 1.0 + 0.3 * np.cos(2 * np.pi * grid(40.0, n) / 40.0)
    systems = [build_system(nm) for nm in ("kdv", "kdv", "mkdv")]
    states = [FieldState(0.0, 40.0, n, {s.even_fields[0]: f, "c": np.zeros(n)})
              for s in systems]
    assert _ffts_per_step(monkeypatch, systems, states) <= 8


def test_one_truncation_keeps_the_mass_of_under_resolved_mkdv():
    # N = 128 resolves neither the sech nor the cos(6 pi x / L) product
    # modes; filtering R^2 before multiplying by R_x lets the integral of R
    # drift by 1.1e-5 by t = 0.5, one mask per stage by 2.4e-8
    n, length = 128, 40.0
    x = grid(length, n)
    r = 1.5 / np.cosh(1.5 * (x - 20.0)) + 0.3 * np.cos(6 * np.pi * x / length)
    st = solver.initial_state("R", r, length, ghost="none")
    traj = evolve(st, build_system("mkdv"), 0.5, 2e-4, record_every=2500, diagnostics=["H0"])
    h0 = traj.diagnostics["H0"]
    assert abs(h0[-1] - h0[0]) < 1e-6


def test_symbolic_family_parameter_fails_loudly():
    tf = build_system("t-form", beta="beta", s=2)
    n = 64
    st = FieldState(0.0, 20.0, n, {"T": np.ones(n), "c": np.zeros(n)})
    with pytest.raises(ValueError, match="beta"):
        evolve(st, tf, 0.01, 1e-3)
    with pytest.raises(ValueError, match="beta"):
        evaluate_functional(tf.density("H1"), st)


@pytest.mark.parametrize("poly, what", [
    pytest.param(P("u") * 10 ** 400, "coefficient", id="coefficient"),
    # more digits than Python prints: the message must not format them
    pytest.param(P("u") * 10 ** 5000, "coefficient", id="coefficient-5001-digits"),
    pytest.param(P(f"u^{10 ** 400}"), "exponent", id="exponent"),
    pytest.param(P(f"u^(-{10 ** 400})"), "exponent", id="negative-exponent"),
])
def test_exact_values_beyond_float_range_fail_loudly(poly, what):
    st = soliton_initial(0.7, 20.0, "kdv", 40.0, 64)
    with pytest.raises(ValueError, match=f"^{what} is too large to evaluate on a grid$"):
        evaluate_functional(poly, st)


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


@pytest.mark.parametrize("system", ["kdv", "mkdv"])
def test_soliton_centre_is_taken_modulo_the_period(system):
    # x0 = 60 on L = 40 left only the tail (max u 4.9e-12)
    a = soliton_initial(0.7, 20.0, system, 40.0, 256)
    for x0 in (60.0, -20.0):
        b = soliton_initial(0.7, x0, system, 40.0, 256)
        assert all(np.array_equal(a.fields[f], b.fields[f]) for f in a.fields)


def test_soliton_near_the_end_of_the_domain_is_not_cut():
    # cut at x = L, the profile jumped and its spectral gradient ghost peaked
    # at 17.4 instead of the centred 1.06
    k, length, n = 0.7, 40.0, 512
    edge = soliton_initial(k, length - 0.1, "kdv", length, n)
    inner = soliton_initial(k, length / 2 - 0.1, "kdv", length, n)
    assert edge.fields["u"].max() == pytest.approx(4 * k * k, rel=1e-3)
    for f in ("u", "c"):
        assert np.max(np.abs(edge.fields[f] - np.roll(inner.fields[f], n // 2))) < 1e-12
    assert np.abs(edge.fields["c"]).max() == pytest.approx(1.0558, abs=1e-3)


def test_narrow_soliton_does_not_warn():
    # sech^2 overflows in the far tails of k = 20, where the profile is 0
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        st = soliton_initial(20.0, 20.0, "kdv", 40.0, 512)
    assert st.fields["u"].max() == 1600.0
    assert st.fields["u"].min() == 0.0 and np.isfinite(st.fields["c"]).all()


@pytest.mark.parametrize("k, system", [(1e200, "kdv"), (float("inf"), "kdv"),
                                       (float("nan"), "mkdv"), (-float("inf"), "mkdv")])
def test_soliton_amplitude_must_be_finite(k, system):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValueError, match=rf"^soliton amplitude .* at k = {re.escape(repr(k))} is not finite$"):
            soliton_initial(k, 20.0, system, 40.0, 64)


def test_evolve_rejects_a_string_of_diagnostics():
    # iterated by character, "H0" asked for a density "H"
    st = soliton_initial(0.5, 20.0, "kdv", 40.0, 64)
    with pytest.raises(ValueError, match="^diagnostics is a sequence of names or densities, "
                                         "not the string 'H0'$"):
        evolve(st, build_system("kdv"), 0.01, 1e-3, diagnostics="H0")
    runs = [(st, build_system("kdv"), 0.01, 1, ["H0"]), (st, build_system("kdv"), 0.01, 1, "H0")]
    with pytest.raises(ValueError, match="^diagnostics of run 1 \\(kdv\\) is a sequence"):
        evolve_many(runs, 1e-3)


def test_evaluator_rejects_fields_of_unequal_shape():
    # a (1,) grid used to broadcast against the (8,) one
    fields = {"u": np.arange(8.0), "w": np.array([2.0])}
    with pytest.raises(ValueError, match=r"^fields of unequal shape: 'u' \(8,\), 'w' \(1,\)$"):
        evaluator([parse("u*w")])(fields, 1.0)[0]
    with pytest.raises(ValueError, match="unequal shape"):
        evaluator([parse("u")])({"u": np.zeros((2, 8)), "c": np.zeros(8)}, 1.0)
