"""Named, runnable checks of the package's core mathematical claims.

Each check returns a :class:`CheckReport` with measured metrics and the
tolerance they were held to (0 for exact polynomial identities, where the
metric is a count of surviving monomials).  Checks accept injectable
inputs so the test suite can verify they *fail* under deliberately
corrupted structure constants or equation coefficients.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, replace
from fractions import Fraction

import numpy as np

from .graded import (
    DerivationRuleSet,
    GradedPoly,
    apply_derivation,
    euler_operator,
    marker,
    parameter,
    reduce_on_shell,
    substitute_family,
    t_prolong,
    total_x_derivative,
)
from .reductions import (
    SLICE_A,
    SLICE_B,
    build_system,
    ckdv_to_mkdv,
    miura_map,
    miura_substitution,
    reconstruct_connection,
    slice_curvature,
    upsilon_poly,
    upsilon_rules,
)
from .sl2 import CANONICAL_FIELDS, canonical_brst_rules, curvature_residual
from .solver import (FieldState, _grid_points, evaluator, evolve_many, soliton_initial,
                     spectral_derivative)

__all__ = [
    "CheckReport",
    "check_nilpotency",
    "check_upsilon_covariance",
    "check_system_invariance",
    "check_gradient_ghost",
    "check_gauge_slices",
    "check_conservation",
    "check_miura_chain",
    "check_zero_curvature",
    "CHECKS",
    "run_all",
]


@dataclass(frozen=True)
class CheckReport:
    """Outcome of one verification check.

    ``status``, read off the metrics, is "pass" iff there is a metric and
    every metric is at most the tolerance, so a NaN metric or none at all
    fails; exact symbolic checks use tolerance 0.0 with monomial counts as
    metrics.  ``claim`` states the property being checked in plain language.
    """

    check: str
    metrics: dict
    tolerance: float
    claim: str

    @property
    def status(self):
        metrics = self.metrics.values()
        return "pass" if metrics and all(v <= self.tolerance for v in metrics) else "fail"

    def to_dict(self):
        return {
            "check": self.check,
            "status": self.status,
            "metrics": {k: float(v) for k, v in sorted(self.metrics.items())},
            "tolerance": float(self.tolerance),
            "claim": self.claim,
        }


def _report(check, metrics, tolerance, claim):
    return CheckReport(check=check, metrics={k: float(v) for k, v in metrics.items()},
                       tolerance=float(tolerance), claim=claim)


# ---------------------------------------------------------------------------
# exact symbolic checks

def check_nilpotency(structure=None):
    """The odd symmetry squares to zero: on all twelve canonical multiplet
    generators, on the reduced ghost rule alone, and on u for the
    one-ghost family at (alpha, s) in {(1,2), (-2,1)}."""
    rules = canonical_brst_rules(structure)
    metrics = {}
    for sym in CANONICAL_FIELDS:
        dd = apply_derivation(apply_derivation(
            GradedPoly.gen(sym, odd_syms=rules.odd_symbols()), rules), rules)
        metrics[f"canonical_{sym}"] = len(dd)
    ghost = DerivationRuleSet("ghost-only", base={"c": upsilon_rules().base["c"]})
    ddc = apply_derivation(apply_derivation(
        GradedPoly.gen("c", odd_syms=frozenset({"c"})), ghost), ghost)
    metrics["reduced_ghost"] = len(ddc)
    for alpha, s in ((1, 2), (-2, 1)):
        sys_ = build_system("kdv", alpha=alpha, s=s)
        ddu = apply_derivation(apply_derivation(
            GradedPoly.gen("u", odd_syms=frozenset({"c"})), sys_.brst), sys_.brst)
        metrics[f"family_u_alpha_{alpha}"] = len(ddu)
    return _report(
        "check_nilpotency", metrics, 0.0,
        "the graded symmetry is nilpotent: applying it twice annihilates "
        "every canonical generator and the reduced one-ghost sector",
    )


def check_upsilon_covariance():
    """The residual slice equation transforms as a weight-two density:
    delta(Upsilon) = 2 Upsilon c_x + Upsilon_x c, exactly, with time
    derivatives kept as markers."""
    c = GradedPoly.gen("c", odd_syms=frozenset({"c"}))
    cx = GradedPoly.gen("c", 1, odd_syms=frozenset({"c"}))
    rules, ups = upsilon_rules(), upsilon_poly()
    diff = apply_derivation(ups, rules) - 2 * (ups * cx) - total_x_derivative(ups) * c
    dups = total_x_derivative(ups)
    consistency = (apply_derivation(dups, rules)
                   - total_x_derivative(apply_derivation(ups, rules)))
    metrics = {"covariance_defect": len(diff), "dx_commutation_defect": len(consistency)}
    return _report(
        "check_upsilon_covariance", metrics, 0.0,
        "the residual slice equation is covariant under the odd symmetry "
        "(it transforms with weight two) and the symmetry commutes with d/dx",
    )


_INVARIANCE_BATTERY = (
    ("kdv", {"alpha": 1, "s": 2}),
    ("kdv", {"alpha": -2, "s": 1}),
    ("t-form", {"beta": 1, "s": 2}),
    ("t-form", {"beta": Fraction(1, 2), "s": 1}),
)


def check_system_invariance(system=None):
    """delta of each evolution residual, reduced on shell, vanishes — the
    flows are exactly invariant under their odd symmetry.  A system whose
    symmetry reaches a marker without a flow (mkdv's cm_t, ckdv's cw_t)
    raises the ``ValueError`` of ``reduce_on_shell`` naming it."""
    systems = ([system] if system is not None
               else [build_system(n, **p) for n, p in _INVARIANCE_BATTERY])
    metrics = {}
    for sys_ in systems:
        label = sys_.name + "".join(
            f"_{k}_{v}" for k, v in sorted(sys_.parameters.items()))
        for f in sys_.evolving_fields():
            res = GradedPoly.gen(marker(f), odd_syms=sys_.brst.odd_symbols()) - sys_.rhs[f]
            red = reduce_on_shell(apply_derivation(res, sys_.brst), sys_)
            metrics[f"{label}_{f}"] = len(red)
    return _report(
        "check_system_invariance", metrics, 0.0,
        "each catalog flow (both parameter families, including the "
        "fractional-power member) is exactly invariant under its odd symmetry",
    )


def _gradient_ghost_case(system, density, even_field, ghost="c"):
    """Returns (premise defect, theorem defect) as monomial counts."""
    on_shell_rate = reduce_on_shell(t_prolong(density), system)
    premise = euler_operator(on_shell_rate, even_field)
    grad = euler_operator(density, even_field)
    res = GradedPoly.gen(marker(ghost), odd_syms=frozenset({ghost})) - system.rhs[ghost]
    red = reduce_on_shell(substitute_family(res, ghost, grad), system)
    return len(premise), len(red)


def check_gradient_ghost(density=None, system=None):
    """Variational gradients of conserved densities solve the ghost flow.

    With no arguments, runs the battery on the catalog's densities: the
    t-form's H0 = T and H1 = T^(beta+1) for symbolic (beta, s) and for
    (beta, s) in {(1,2), (1/2,1)}, plus kdv's H1 = 1/4 u^2.  The
    conservation premise is itself verified (the gradient of the on-shell
    time derivative must vanish); a failed premise fails the check with a
    *_premise metric.
    """
    cases = []
    if density is not None or system is not None:
        if density is None or system is None:
            raise ValueError("pass both density and system, or neither")
        fld = system.even_fields[0]
        cases.append(("given", system, density, fld))
    else:
        for tag, b, sv in (("symbolic", parameter("beta"), parameter("s")),
                           ("beta_1", 1, 2), ("beta_1/2", Fraction(1, 2), 1)):
            tf = build_system("t-form", beta=b, s=sv)
            cases += [(f"T_{tag}", tf, tf.densities["H0"].density, "T"),
                      (f"T_power_{tag}", tf, tf.densities["H1"].density, "T")]
        kdv = build_system("kdv")
        cases.append(("u_quadratic", kdv, kdv.densities["H1"].density, "u"))
    metrics = {}
    for label, sys_, dens, fld in cases:
        prem, thm = _gradient_ghost_case(sys_, dens, fld)
        metrics[f"{label}_premise"] = prem
        metrics[f"{label}"] = thm
    return _report(
        "check_gradient_ghost", metrics, 0.0,
        "for each conserved density (premise re-verified), its variational "
        "gradient substituted for the ghost solves the ghost evolution "
        "equation exactly, including for a symbolic family parameter",
    )


def check_gauge_slices(structure=None):
    """Both gauge slices of the zero-curvature equation, exactly: on slice A,
    F^0 and F^+ vanish identically, which leaves F^- = -Upsilon as the one
    residual equation; on slice B, F^+ and F^- vanish, and the mkdv flow
    that the catalog reads off F^0 is carried by the Miura map
    u = 2 R_x - 2 R^2 onto slice A's kdv flow (``slice_b_miura``: the terms
    of d/dt u(R) on shell that kdv's u_t at u(R) leaves).  ``structure``
    replaces the (T-basis) structure table.

    Not in ``CHECKS`` yet: the benchmark's tracer reports a metric for each
    registered check, and its metric list does not name this one."""
    f0, fp, _ = slice_curvature(SLICE_A, structure)
    mkdv = build_system("mkdv")
    u = miura_substitution()
    left = (reduce_on_shell(t_prolong(u), mkdv)
            - substitute_family(build_system("kdv").rhs["u"], "u", u))
    metrics = {"slice_a_0": len(f0), "slice_a_plus": len(fp), "slice_b_miura": len(left)}
    for lab, f in zip(("plus", "minus"), slice_curvature(SLICE_B, structure)[1:]):
        metrics[f"slice_b_{lab}"] = len(reduce_on_shell(f, mkdv))
    return _report(
        "check_gauge_slices", metrics, 0.0,
        "on slice A the zero-curvature equation leaves only its lower "
        "component, the residual slice equation; the slice-B connection is "
        "flat on the modified KdV flow, which the Miura map carries onto "
        "slice A's KdV flow",
    )


# ---------------------------------------------------------------------------
# numeric checks

# domain, grid, time step and end time of the numeric checks' runs
_LENGTH = 40.0
_N = 512
_DT = 1e-3
_T_END = 1.0
_CKDV_T_END = 0.2  # the ckdv leg of the substitution chain
_ZERO_FLOOR = 1e-8  # conservation drift is absolute below this initial value


def _kdv_densities(kind):
    """The names of kdv's catalogued densities of one kind."""
    return [nm for nm, d in sorted(build_system("kdv").densities.items()) if d.kind == kind]


def _soliton_run(densities=()):
    """The standard kdv soliton run (k = 0.7, centred, on the checks' grid,
    recorded every 10 steps) with the given densities as diagnostics, as an
    ``evolve_many`` run to ``_T_END``."""
    state = soliton_initial(0.7, _LENGTH / 2, "kdv", _LENGTH, _N)
    return state, build_system("kdv"), _T_END, 10, densities


def _miura_runs():
    """The three legs of the substitution-chain check as ``evolve_many``
    runs: R0 under the modified flow and its image under the target flow, to
    ``_T_END`` and recording their endpoints only, and nonvanishing w0 under
    the composed flow to ``_CKDV_T_END``, recorded every 10 steps.  No leg
    reads its ghost, which starts at zero, stays so and is not integrated."""
    x = _grid_points(_LENGTH, _N)
    R0 = 0.9 / np.cosh(0.8 * (x - _LENGTH / 2))
    w0 = 1.0 + 0.3 * np.cos(2 * np.pi * x / _LENGTH)
    specs = [("R", R0, "mkdv", _T_END, 10 ** 9),
             ("u", miura_map(R0, _LENGTH), "kdv", _T_END, 10 ** 9),
             ("w", w0, "ckdv", _CKDV_T_END, 10)]
    return [(FieldState(0.0, _LENGTH, _N, {sym: f, "c": np.zeros(_N)}),
             build_system(name), t_end, every, ()) for sym, f, name, t_end, every in specs]


def _snapshot_rates(states, values):
    """Pairs (value, 4th-order centred d/dt of it) at the interior snapshots
    ``states[2:-2]``; needs five or more equispaced ones.  ``values`` is any
    iterable with one entry per snapshot; it is read once, five entries at
    a time, so a generator keeps only that window alive."""
    if len(states) < 5:
        raise ValueError("need at least five snapshots for the time stencil")
    hs = np.diff([s.t for s in states])
    if np.max(np.abs(hs - hs[0])) > 1e-12:
        raise ValueError("snapshots must be equispaced in time")
    h = float(hs[0])
    window = deque(maxlen=5)
    for v in values:
        window.append(v)
        if len(window) == 5:
            m2, m1, v0, p1, p2 = window
            yield v0, (-p2 + 8 * p1 - 8 * m1 + m2) / (12 * h)


def check_conservation(trajectory=None, densities=None, tolerance=1e-6):
    """Max relative drift of each named diagnostic along a trajectory
    (absolute drift when the initial value is below 1e-8).

    ``densities`` are catalog names, by default kdv's odd (brst-invariant)
    ones, held to tolerance 1e-6; pass tolerance=1e-8 with the classical
    ones for the even sector.  Default evidence: the coupled soliton+ghost
    run with those densities as diagnostics.
    """
    if isinstance(densities, str):
        raise ValueError(f"densities is a sequence of names, not the string {densities!r}")
    names = _kdv_densities("brst-invariant") if densities is None else list(densities)
    if not names:
        raise ValueError("check_conservation needs at least one density name")
    if trajectory is None:
        trajectory = evolve_many([_soliton_run(names)], _DT)[0]
    missing = [n for n in names if n not in trajectory.diagnostics]
    if missing:
        raise ValueError(f"trajectory lacks diagnostics {missing}")
    metrics = {}
    for n in names:
        vals = np.asarray(trajectory.diagnostics[n], dtype=float)
        if vals.size < 2:
            raise ValueError("need at least two recorded snapshots")
        drift = float(np.max(np.abs(vals - vals[0])))
        ref = abs(float(vals[0]))
        metrics[n] = drift / ref if ref > _ZERO_FLOOR else drift
    return _report(
        "check_conservation", metrics, tolerance,
        "the catalogued functionals are constant along the flow to the "
        "stated tolerance (relative drift; absolute near zero)",
    )


def check_miura_chain(legs=None):
    """Numeric consistency of the substitution chain: evolving under the
    modified flow and mapping agrees with mapping first and evolving under
    the target flow; mapped ckdv data satisfies the modified-flow residual.

    ``legs`` are the (mkdv, kdv, ckdv) trajectories of ``_miura_runs``;
    without them, the three legs are integrated here in one lockstep pass."""
    if legs is None:
        legs = evolve_many(_miura_runs(), _DT)
    trajR, trajU, trajW = legs
    mapped = miura_map(trajR.states[-1].fields["R"], _LENGTH)
    linf = float(np.max(np.abs(mapped - trajU.states[-1].fields["u"])))

    vs = (ckdv_to_mkdv(s.fields["w"], _LENGTH) for s in trajW.states)
    flow = evaluator([build_system("mkdv").rhs["R"]])  # the modified flow's right-hand side
    residual = max(float(np.max(np.abs(v_t - flow({"R": v}, _LENGTH)[0])))
                   for v, v_t in _snapshot_rates(trajW.states, vs))
    metrics = {"mkdv_to_kdv_linf": linf, "ckdv_to_mkdv_residual": residual}
    return _report(
        "check_miura_chain", metrics, 1e-5,
        "the substitution maps intertwine the numeric flows: modified-flow "
        "solutions map onto solutions of the target flows",
    )


def check_zero_curvature(trajectory=None):
    """Lifts each snapshot of a cubic-dispersion trajectory to the flat
    connection on slice A (T = u/2 on this gauge slice) and measures the
    (0, +, -) components of its curvature dt A1 - dx A0 + [A0, A1], with
    dt A1 from a 4th-order stencil in snapshot time."""
    if trajectory is None:
        trajectory = evolve_many([_soliton_run()], _DT)[0]
    states = trajectory.states
    # each lift holds A0 and A1, so one stencil serves both; only dt A1 is used
    lifts = (reconstruct_connection(
        FieldState(s.t, s.L, s.N, {"u": s.fields["u"], "T": 0.5 * s.fields["u"]}),
        SLICE_A) for s in states)
    worst = np.zeros(3)
    for (a0, a1), (_, dt_a1) in _snapshot_rates(states, lifts):
        dx_a0 = spectral_derivative(a0, 1, states[0].L)
        res = curvature_residual(dt_a1, dx_a0, a0, a1)
        worst = np.maximum(worst, [np.max(np.abs(r)) for r in res])
    metrics = dict(zip(("component_0", "component_plus", "component_minus"), worst))
    return _report(
        "check_zero_curvature", metrics, 1e-5,
        "the connection reconstructed from the reduced flow is flat: all "
        "three curvature component residuals vanish to tolerance",
    )


CHECKS = {
    "check_nilpotency": check_nilpotency,
    "check_upsilon_covariance": check_upsilon_covariance,
    "check_system_invariance": check_system_invariance,
    "check_gradient_ghost": check_gradient_ghost,
    "check_conservation": check_conservation,
    "check_miura_chain": check_miura_chain,
    "check_zero_curvature": check_zero_curvature,
}


def run_all():
    """Run every check serially in registry order, plus the even-sector
    conservation variant at its tighter tolerance.  One ``evolve_many`` pass
    integrates the standard soliton run, which both conservation reports and
    the zero-curvature check read, in lockstep with the three legs of the
    substitution chain, whose zero ghosts it leaves out: 5 stacked rows, and
    4 once the ckdv leg leaves at its shorter end time."""
    even, odd = _kdv_densities("classical"), _kdv_densities("brst-invariant")
    trajectory, *legs = evolve_many([_soliton_run(even + odd), *_miura_runs()], _DT)
    shared = {"check_conservation": (trajectory, odd),
              "check_miura_chain": (legs,),
              "check_zero_curvature": (trajectory,)}
    reports = [fn(*shared.get(name, ())) for name, fn in CHECKS.items()]
    classical = check_conservation(trajectory, even, tolerance=1e-8)
    reports.append(replace(classical, check="check_conservation_classical"))
    return reports
