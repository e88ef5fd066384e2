"""End-to-end acceptance battery.

Exact graded-algebra identities (zero-polynomial results, no tolerance),
numeric benchmarks at pinned tolerances, and mutation guards showing the
exact checks actually discriminate.  The numeric items share one coupled
soliton+ghost reference run (k=0.7, L=40, N=512, dt=1e-3, t=1).
"""

import dataclasses

import numpy as np
import pytest

import brstkdv.verify
from brstkdv import parse
from brstkdv.graded import reduce_on_shell, substitute_family, t_prolong
from brstkdv.reductions import (
    build_system,
    ckdv_substitution,
    miura_substitution,
    upsilon_rules,
)
from brstkdv.sl2 import structure_table
from brstkdv.solver import evolve, soliton_initial
from brstkdv.verify import (
    check_conservation,
    check_gradient_ghost,
    check_miura_chain,
    check_nilpotency,
    check_system_invariance,
    check_upsilon_covariance,
    check_zero_curvature,
)

K, X0, LENGTH, N, DT, T_END = 0.7, 20.0, 40.0, 512, 1e-3, 1.0
DENSITY_NAMES = ("H0", "H1", "Ht0", "Ht1", "H1g", "H3", "H5")


@pytest.fixture(scope="module")
def kdv():
    return build_system("kdv")


@pytest.fixture(scope="module")
def soliton_run(kdv):
    densities = [kdv.density(nm) for nm in DENSITY_NAMES]
    state = soliton_initial(K, X0, "kdv", LENGTH, N, ghost="gradient")
    return evolve(state, kdv, T_END, DT, record_every=100,
                  diagnostics=densities)


def final_u_error(dt, trajectory=None):
    """L-inf distance of the evolved profile from the exact translate."""
    if trajectory is None:
        state = soliton_initial(K, X0, "kdv", LENGTH, N, ghost="none")
        trajectory = evolve(state, build_system("kdv"), T_END, dt,
                            record_every=10 ** 9)
    shifted = (X0 - 4.0 * K * K * T_END) % LENGTH
    exact = soliton_initial(K, shifted, "kdv", LENGTH, N, ghost="none")
    return float(np.max(np.abs(
        trajectory.states[-1].fields["u"] - exact.fields["u"])))


# 1. the odd symmetry squares to zero on every canonical generator, exactly

def test_odd_symmetry_is_nilpotent_on_all_twelve_generators():
    rep = check_nilpotency()
    assert rep.status == "pass"
    canonical = {k: v for k, v in rep.metrics.items()
                 if k.startswith("canonical_")}
    assert len(canonical) == 12
    assert set(canonical.values()) == {0}
    assert all(v == 0 for v in rep.metrics.values())  # reduced forms too


# 2. the residual slice equation transforms with weight two, exactly

def test_residual_slice_equation_is_covariant():
    rep = check_upsilon_covariance()
    assert rep.status == "pass"
    assert rep.metrics == {"covariance_defect": 0.0,
                           "dx_commutation_defect": 0.0}


# 3. the coupled flows of both parameter families are exactly invariant

def test_coupled_flows_are_invariant_across_both_families():
    rep = check_system_invariance()
    assert rep.status == "pass"
    labels = {
        "kdv_alpha_1_s_2", "kdv_alpha_-2_s_1",
        "t-form_beta_1_s_2", "t-form_beta_1/2_s_1",
    }
    assert {m.rsplit("_", 1)[0] for m in rep.metrics} == labels
    assert all(v == 0 for v in rep.metrics.values())


# 4. variational gradients of conserved densities solve the ghost flow,
#    with the family exponent symbolic as well as at (1, 2) and (1/2, 1)

def test_gradient_of_conserved_density_solves_ghost_flow():
    rep = check_gradient_ghost()
    assert rep.status == "pass"
    for label in ("T_symbolic", "T_power_symbolic", "T_beta_1",
                  "T_power_beta_1", "T_beta_1/2", "T_power_beta_1/2",
                  "u_quadratic"):
        assert rep.metrics[label] == 0
        assert rep.metrics[f"{label}_premise"] == 0


# 5. the ghost equations of the modified and composed flows are the images
#    of the target ghost equation under the substitution maps, exactly

def test_substitution_maps_intertwine_ghost_equations():
    kdv, mk, ck = (build_system(nm) for nm in ("kdv", "mkdv", "ckdv"))
    assert substitute_family(kdv.rhs["c"], "u", miura_substitution()) == mk.rhs["c"]
    assert substitute_family(mk.rhs["c"], "R", ckdv_substitution()) == ck.rhs["c"]


def test_substitution_maps_intertwine_even_flows():
    kdv, mk, ck = (build_system(nm) for nm in ("kdv", "mkdv", "ckdv"))
    u_of_R = miura_substitution()
    assert (reduce_on_shell(t_prolong(u_of_R), mk)
            == substitute_family(kdv.rhs["u"], "u", u_of_R))
    v_of_w = ckdv_substitution()
    assert (reduce_on_shell(t_prolong(v_of_w), ck)
            == substitute_family(mk.rhs["R"], "R", v_of_w))


# 6. soliton benchmark: spectral-in-space, 4th-order-in-time accuracy

def test_soliton_profile_matches_exact_translate(soliton_run):
    assert final_u_error(DT, soliton_run) < 1e-6


def test_soliton_error_shows_fourth_order_convergence(soliton_run):
    errors = [final_u_error(dt) for dt in (8e-3, 4e-3, 2e-3)]
    errors.append(final_u_error(DT, soliton_run))
    ratios = [a / b for a, b in zip(errors, errors[1:])]
    assert all(13.0 <= r <= 19.0 for r in ratios), (errors, ratios)


# 7. conservation on the coupled run with nontrivial ghost data

def test_classical_functionals_conserved_to_1e8(soliton_run):
    rep = check_conservation(soliton_run, ["H0", "H1"], tolerance=1e-8)
    assert rep.status == "pass", rep.metrics


def test_odd_functionals_conserved_to_1e6(soliton_run):
    ghost0 = soliton_run.states[0].fields["c"]
    assert float(np.max(np.abs(ghost0))) > 1e-2  # data genuinely nontrivial
    rep = check_conservation(soliton_run, ["Ht0", "Ht1", "H1g", "H3", "H5"],
                             tolerance=1e-6)
    assert rep.status == "pass", rep.metrics


def test_reference_run_initial_functional_values(soliton_run):
    # integral of the half-amplitude profile: 4k for a clean sech^2 pulse
    assert soliton_run.diagnostics["H0"][0] == pytest.approx(4 * K, abs=1e-9)


# 8. numeric substitution chain

def test_numeric_substitution_chain_agrees():
    rep = check_miura_chain()
    assert rep.status == "pass"
    assert rep.metrics["mkdv_to_kdv_linf"] <= 1e-5
    assert rep.metrics["ckdv_to_mkdv_residual"] <= 1e-5


# 9. the reconstructed connection is flat along a trajectory

def test_reconstructed_connection_is_flat_along_trajectory():
    rep = check_zero_curvature()
    assert rep.status == "pass"
    assert all(v <= 1e-5 for v in rep.metrics.values()), rep.metrics


# 10. mutation guards: each exact check detects a single bad coefficient

def test_nilpotency_check_detects_corrupted_bracket():
    idx = {"0": 0, "+": 1, "-": 2}
    f = [list(map(list, m)) for m in structure_table()]
    f[idx["0"]][idx["+"]][idx["+"]] = 2
    f[idx["+"]][idx["0"]][idx["+"]] = -2
    assert check_nilpotency(structure=f).status == "fail"


def test_covariance_check_detects_wrong_weight(monkeypatch):
    # advection weight one for two in the T law
    laws = upsilon_rules()
    base = {**laws.base, "T": laws.base["T"] - parse("T*c_x", odd=("c",))}
    monkeypatch.setattr(brstkdv.verify, "upsilon_rules",
                        lambda: dataclasses.replace(laws, base=base))
    assert check_upsilon_covariance().status == "fail"


def test_invariance_check_detects_detuned_ghost_coefficient(kdv):
    wrong = dataclasses.replace(
        kdv, rhs={"u": kdv.rhs["u"], "c": parse("c_xxx + 2*u*c_x", odd=("c",))})
    assert check_system_invariance(wrong).status == "fail"
