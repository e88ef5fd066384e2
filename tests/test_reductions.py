"""The system catalog: frozen equations, exact invariance/conservation
identities, substitution maps, and connection reconstruction.

Conservation of a catalogued density is checked through its variational
gradient: a density is conserved iff its on-shell time derivative is a
total x-derivative, i.e. iff the gradient of the rate vanishes.  That
criterion is symbolic and independent of any time integration.
"""

from fractions import Fraction

import numpy as np
import pytest

from brstkdv import parse
from brstkdv.graded import (
    GradedPoly,
    apply_derivation,
    euler_operator,
    marker,
    odd_gradient,
    parameter,
    reduce_on_shell,
    substitute_family,
    t_prolong,
    total_x_derivative,
)
from brstkdv.reductions import (
    SLICE_A,
    SLICE_B,
    SYSTEM_NAMES,
    ConservedDensity,
    build_system,
    catalog_manifest,
    ckdv_substitution,
    ckdv_to_mkdv,
    ghost_multiplet,
    miura_map,
    miura_substitution,
    reconstruct_connection,
    upsilon_poly,
    upsilon_rules,
    zero_curvature_components,
)
from brstkdv.sl2 import curvature_residual
from brstkdv.solver import FieldState, SingularityError, spectral_derivative, step


def P(text):
    return parse(text, odd=("c",))


# --- frozen catalog forms -----------------------------------------------------

def test_catalog_names():
    assert SYSTEM_NAMES == ("kdv", "harry-dym", "t-form", "mkdv", "ckdv", "upsilon")


def test_kdv_default_equations():
    kdv = build_system("kdv")
    assert kdv.parameters == {"alpha": 1, "s": 2}
    assert kdv.rhs["u"] == P("3*u*u_x + u_xxx")
    assert kdv.rhs["c"] == P("c_xxx + 3*u*c_x")
    assert kdv.brst.base["u"] == P("c_xxx + u_x*c + 2*u*c_x")
    assert kdv.brst.base["c"] == P("c*c_x")


def test_u_family_cubic_member():
    sys_ = build_system("kdv", alpha=-2, s=1)
    # (alpha+2)/alpha = 0 kills the advection term; s/(2 alpha) = -1/4
    assert sys_.rhs["u"] == P("-1/4*u^3*u_xxx")
    assert sys_.rhs["c"] == P("-1/4*u^3*c_xxx")
    assert sys_.brst.base["u"] == P("u_x*c - u*c_x - 1/4*u^3*c_xxx")


def test_t_family_quadratic_member():
    tf = build_system("t-form", beta=1, s=2)
    assert tf.rhs["T"] == P("6*T*T_x + T_xxx")
    assert tf.rhs["c"] == P("c_xxx + 6*T*c_x")
    assert tf.brst.base["T"] == P("1/2*c_xxx + T_x*c + 2*T*c_x")


def test_harry_dym_expanded_fractional_powers():
    hd = build_system("harry-dym")
    assert hd.parameters == {"beta": Fraction(1, 2), "s": 1}
    # (1/2) d^3/dx^3 (T^(1/2)) + 2 T^(1/2) T_x, chain rule fully expanded
    assert hd.rhs["T"] == P(
        "3/16*T^-5/2*T_x^3 - 3/8*T^-3/2*T_x*T_xx + 1/4*T^-1/2*T_xxx + 2*T^1/2*T_x")
    assert hd.rhs["c"] == P("2*T^1/2*c_x + 1/4*T^-1/2*c_xxx")
    tf = build_system("t-form", beta="1/2", s=1)
    assert tf.rhs["T"] == hd.rhs["T"] and tf.rhs["c"] == hd.rhs["c"]
    # the dispersion really was produced by the chain rule, not typed in
    half = GradedPoly.gen("T", 0, Fraction(1, 2))
    d3 = total_x_derivative(total_x_derivative(total_x_derivative(half)))
    assert hd.rhs["T"] == Fraction(1, 2) * d3 + 2 * half * GradedPoly.gen("T", 1)


def test_mkdv_equations():
    mk = build_system("mkdv")
    assert mk.rhs["R"] == parse("R_xxx - 6*R^2*R_x")
    assert mk.rhs["c"] == P("c_xxx + 6*R_x*c_x - 6*R^2*c_x")
    odd = ("c", "cm")
    assert mk.brst.base["R"] == parse("1/2*c_xx + R_x*c + R*c_x + cm", odd=odd)
    assert mk.brst.xrules["cm"] == parse("2*R*cm", odd=odd)
    assert not mk.symbolic_invariance


def test_ckdv_equations():
    ck = build_system("ckdv")
    want = parse("w_xxx - 3/2*w^2*w_x - 3*w^-1*w_x*w_xx + 3/2*w^-2*w_x^3")
    assert ck.rhs["w"] == want
    # the cubic terms sit under one overall x-derivative
    exact = parse("w_xxx") - Fraction(1, 2) * total_x_derivative(
        parse("w^3 + 3*w^-1*w_x^2"))
    assert ck.rhs["w"] == exact
    assert ck.rhs["c"] == P(
        "c_xxx + 3*w^-1*w_xx*c_x - 9/2*w^-2*w_x^2*c_x - 3/2*w^2*c_x")


def test_upsilon_entries():
    ups = upsilon_poly()
    assert ups == parse("T_t - 1/2*u_xxx - 2*u_x*T - u*T_x")
    rules = upsilon_rules()
    assert set(rules.base) == {"u", "T", "c"}
    assert rules.base["u"] == P("c_t - u*c_x + u_x*c")
    sys_ = build_system("upsilon")
    assert sys_.rhs["u"] is None
    assert sys_.evolving_fields() == ("T",)


def test_build_system_validation():
    with pytest.raises(ValueError):
        build_system("nosuch")
    with pytest.raises(ValueError):
        build_system("t-form", beta=1)  # s missing
    with pytest.raises(ValueError):
        build_system("kdv", beta=1)  # wrong family key
    with pytest.raises(ValueError):
        build_system("harry-dym", beta=1)
    with pytest.raises(ValueError):
        build_system("kdv", alpha=0)
    # s/(2 alpha) is no polynomial in a symbolic alpha
    with pytest.raises(ValueError, match="alpha"):
        build_system("kdv", alpha=parameter("a"))
    with pytest.raises(ValueError, match="alpha"):
        build_system("kdv", alpha="a")


def test_parameters_from_strings_and_symbols():
    assert build_system("kdv", alpha="-2", s="1").rhs["u"] == P("-1/4*u^3*u_xxx")
    beta = parameter("beta")
    tf = build_system("t-form", beta="beta", s="s")
    assert tf.parameters["beta"] == beta
    got = euler_operator(tf.densities["H1"].density, "T")
    assert got == (beta + 1) * GradedPoly.gen("T", 0, beta, odd_syms=frozenset({"c"}))


def test_decimal_parameter_strings_are_exact():
    assert build_system("kdv", alpha="1.5").parameters["alpha"] == Fraction(3, 2)
    assert build_system("kdv", alpha="1.5").rhs == build_system("kdv", alpha=Fraction(3, 2)).rhs
    for bad in ("1.5x", "1/0", "two words", ""):
        with pytest.raises(ValueError):
            build_system("kdv", alpha=bad)


@pytest.mark.parametrize("name, params, named", [
    ("t-form", {"beta": "T", "s": 1}, "'T', a field"),
    ("t-form", {"beta": "c", "s": 1}, "'c', a field"),
    ("t-form", {"beta": parameter("T") + 1, "s": 1}, "'T', a field"),
    ("kdv", {"s": "u"}, "'u', a field"),
    ("t-form", {"beta": "b_1", "s": 1}, "'b_1', not a name the grammar reads"),
    ("t-form", {"beta": 1, "s": parameter("s_t")}, "'s_t', not a name"),
])
def test_family_parameter_must_be_a_readable_non_field_name(name, params, named):
    with pytest.raises(ValueError) as ei:
        build_system(name, **params)
    key = next(k for k, v in params.items() if not isinstance(v, int))
    assert f"family parameter {key} is named {named}" in str(ei.value)


def test_catalog_shares_one_ghost_law_and_one_slice_t_law():
    laws = upsilon_rules().base
    for name in ("kdv", "harry-dym", "mkdv", "ckdv", "upsilon"):
        assert build_system(name).brst.base["c"] == laws["c"] == P("c*c_x")
    assert build_system("t-form", beta=1, s=2).brst.base["T"] == laws["T"]


def test_catalog_manifest_headers():
    m = catalog_manifest()
    heads = [ln for ln in m.splitlines() if ln and not ln.startswith(" ")]
    assert heads == ["kdv  (alpha=1, s=2)", "harry-dym  (beta=1/2, s=1)",
                     "t-form  (beta=1, s=2)", "mkdv", "ckdv", "upsilon"]
    assert "  u_t = 3*u*u_x + u_xxx" in m.splitlines()
    assert m.endswith("\n")


# --- exact invariance and covariance -------------------------------------------

def test_kdv_flow_is_brst_invariant():
    kdv = build_system("kdv")
    rules = kdv.brst.extended_with_markers()
    for f in ("u", "c"):
        res = GradedPoly.gen(marker(f), odd_syms=frozenset({"c"})) - kdv.rhs[f]
        red = reduce_on_shell(apply_derivation(res, rules), kdv)
        assert red.is_zero, f


def test_upsilon_covariance_weight_two():
    rules = upsilon_rules().extended_with_markers(["T", "c"])
    ups = upsilon_poly()
    c = P("c")
    cx = P("c_x")
    lhs = apply_derivation(ups, rules)
    assert lhs == 2 * (ups * cx) + total_x_derivative(ups) * c


# --- conservation through variational gradients ---------------------------------

def test_kdv_densities_are_conserved_symbolically():
    kdv = build_system("kdv")
    assert set(kdv.densities) == {"H0", "H1", "Ht0", "Ht1", "H1g", "H3", "H5"}
    for name, d in kdv.densities.items():
        rate = reduce_on_shell(t_prolong(d.density), kdv)
        if d.kind == "classical":
            assert euler_operator(rate, "u").is_zero, name
        else:
            assert odd_gradient(rate, "c").is_zero, name


def test_t_family_densities_conserved_for_symbolic_parameters():
    tf = build_system("t-form", beta=parameter("beta"), s=parameter("s"))
    for name, d in tf.densities.items():
        rate = reduce_on_shell(t_prolong(d.density), tf)
        if d.kind == "classical":
            assert euler_operator(rate, "T").is_zero, name
        else:
            assert odd_gradient(rate, "c").is_zero, name


def test_mkdv_classical_densities_conserved():
    mk = build_system("mkdv")
    for name in ("H0", "H1"):
        rate = reduce_on_shell(t_prolong(mk.densities[name].density), mk)
        assert euler_operator(rate, "R").is_zero, name


def test_quintic_density_is_exact_modulo_derivatives():
    kdv = build_system("kdv")
    seed = P("1/3*u^3 - 1/3*u_x^2")
    image = apply_derivation(seed, kdv.brst)
    diff = kdv.densities["H5"].density - image
    assert odd_gradient(diff, "c").is_zero


def test_density_validation():
    with pytest.raises(ValueError):
        ConservedDensity("bad", P("u"), "mystery")
    with pytest.raises(ValueError):
        ConservedDensity("bad", P("u*c_x"), "classical")
    with pytest.raises(ValueError):
        ConservedDensity("bad", P("u^2"), "brst-invariant")


def test_density_lookup_error():
    kdv = build_system("kdv")
    with pytest.raises(KeyError):
        kdv.density("H99")
    assert kdv.density("H3").density == P("u*c_xxx + 3/2*u^2*c_x")


# --- substitution chain ----------------------------------------------------------

def test_miura_ghost_identity():
    kdv, mk = build_system("kdv"), build_system("mkdv")
    got = substitute_family(kdv.rhs["c"], "u", miura_substitution())
    assert got == mk.rhs["c"]


def test_miura_even_sector_identity():
    # (d/dt of u(R)) on the modified flow equals the target rhs at u(R)
    mk, kdv = build_system("mkdv"), build_system("kdv")
    u_of_R = miura_substitution()
    lhs = reduce_on_shell(t_prolong(u_of_R), mk)
    rhs = substitute_family(kdv.rhs["u"], "u", u_of_R)
    assert lhs == rhs


def test_composed_ghost_identity():
    mk, ck = build_system("mkdv"), build_system("ckdv")
    got = substitute_family(mk.rhs["c"], "R", ckdv_substitution())
    assert got == ck.rhs["c"]


def test_composed_even_sector_identity():
    mk, ck = build_system("mkdv"), build_system("ckdv")
    v_of_w = ckdv_substitution()
    lhs = reduce_on_shell(t_prolong(v_of_w), ck)
    rhs = substitute_family(mk.rhs["R"], "R", v_of_w)
    assert lhs == rhs


def test_uncorrected_cubic_flow_breaks_the_chain():
    # with the overall x-derivative dropped from the cubic terms, constant
    # data moves and the even-sector identity fails
    wrong = parse("w_xxx - 1/2*w^3 - 3/2*w^-1*w_x^2")
    v_of_w = ckdv_substitution()
    lhs = reduce_on_shell(t_prolong(v_of_w), {"w": wrong})
    rhs = substitute_family(parse("R_xxx - 6*R^2*R_x"), "R", v_of_w)
    assert lhs != rhs


def test_constant_data_is_stationary_for_corrected_flow_only():
    n = 64
    const = 0.7 * np.ones(n)
    state = FieldState(0.0, 20.0, n, {"w": const, "c": np.zeros(n)})
    ck = build_system("ckdv")
    out = step(state, ck, 1e-3)
    assert np.max(np.abs(out.fields["w"] - const)) < 1e-13

    import dataclasses
    wrong = dataclasses.replace(ck, rhs={
        "w": parse("w_xxx - 1/2*w^3 - 3/2*w^-1*w_x^2"),
        "c": ck.rhs["c"],
    })
    moved = step(state, wrong, 1e-3)
    drift = np.max(np.abs(moved.fields["w"] - const))
    assert drift > 1e-5  # ~ dt * w^3/2


# the hand-written grid maps that the exact maps replaced, kept as oracles
def _miura_oracle(R, length):
    return 2.0 * (spectral_derivative(R, 1, length) - R * R)


def _ckdv_oracle(w, length):
    return (spectral_derivative(w, 1, length) - w * w) / (2.0 * w)


def _map_data(n=512, length=40.0):
    """A sech pulse and 1 + 0.3 cos on the grid."""
    x = length * np.arange(n) / n
    return 0.9 / np.cosh(0.8 * (x - length / 2)), 1.0 + 0.3 * np.cos(2 * np.pi * x / length)


def test_miura_map_grid():
    n = 128
    assert np.allclose(miura_map(np.zeros(n), 10.0), 0.0)
    r = 0.3
    assert np.allclose(miura_map(r * np.ones(n), 10.0), -2 * r * r)
    sech, wave = _map_data()
    for R in (sech, wave):
        assert np.max(np.abs(miura_map(R, 40.0) - _miura_oracle(R, 40.0))) < 1e-14


def test_ckdv_to_mkdv_grid():
    n = 128
    c = 0.8
    v = ckdv_to_mkdv(c * np.ones(n), 10.0)
    assert np.allclose(v, -c / 2)
    x = 10.0 * np.arange(n) / n
    with pytest.raises(SingularityError):
        ckdv_to_mkdv(np.cos(2 * np.pi * x / 10.0), 10.0)
    sech, wave = _map_data()
    for w in (1.0 + sech, wave):
        assert np.max(np.abs(ckdv_to_mkdv(w, 40.0) - _ckdv_oracle(w, 40.0))) < 1e-14


def test_ckdv_to_mkdv_floor():
    w = np.full(16, 1e-8)
    with pytest.raises(SingularityError, match="floor 1.0e-08"):
        ckdv_to_mkdv(w, 10.0)
    assert np.allclose(ckdv_to_mkdv(2 * w, 10.0), -w, rtol=1e-12, atol=0.0)


# --- zero curvature and reconstruction -------------------------------------------

def _smooth(x, length, seed):
    rng = np.random.default_rng(seed)
    out = np.zeros_like(x)
    for m in range(1, 4):
        a, b = rng.normal(size=2)
        out += a * np.cos(2 * np.pi * m * x / length) + b * np.sin(2 * np.pi * m * x / length)
    return out


def test_slice_equations_embed_in_zero_curvature():
    length, n = 20.0, 256
    x = length * np.arange(n) / n
    u = _smooth(x, length, 1)
    T = _smooth(x, length, 2)
    T_t = _smooth(x, length, 3)
    P_ = 0.5 * spectral_derivative(u, 1, length)
    Q = -0.5 * spectral_derivative(u, 2, length) - u * T
    zeros, ones = np.zeros(n), np.ones(n)
    r1, r2, r3 = zero_curvature_components(
        P_, Q, zeros, ones, T, u, zeros, zeros, T_t, length)
    # first two components vanish identically on the slice
    assert np.max(np.abs(r1)) < 1e-10
    assert np.max(np.abs(r2)) < 1e-10
    # the third is exactly the residual slice equation
    upsilon = (T_t - 0.5 * spectral_derivative(u, 3, length)
               - 2 * spectral_derivative(u, 1, length) * T
               - u * spectral_derivative(T, 1, length))
    assert np.max(np.abs(r3 - upsilon)) < 1e-10


def test_zero_curvature_shape_mismatch():
    z4, z8 = np.zeros(4), np.zeros(8)
    with pytest.raises(ValueError):
        zero_curvature_components(z4, z4, z4, z4, z8, z4, z4, z4, z4, 1.0)


def test_reconstruction_matches_commutator_curvature():
    """The hand-expanded component residuals agree with the bracket-built
    curvature of the reconstructed connection (up to basis normalisation)."""
    length, n = 20.0, 256
    x = length * np.arange(n) / n
    u = _smooth(x, length, 4)
    T = _smooth(x, length, 5)
    T_t = _smooth(x, length, 6)
    state = FieldState(0.0, length, n, {"u": u, "T": T})
    conn = reconstruct_connection(state, SLICE_A)
    rt2 = np.sqrt(2.0)
    assert np.allclose(conn.a1[0], 0) and np.allclose(conn.a1[1], rt2)
    assert np.allclose(conn.a1[2], -rt2 * T)

    dt_a1 = [np.zeros(n), np.zeros(n), -rt2 * T_t]
    dx_a0 = [spectral_derivative(conn.a0[i], 1, length) for i in range(3)]
    F = curvature_residual(dt_a1, dx_a0, list(conn.a0), list(conn.a1))

    P_ = 0.5 * spectral_derivative(u, 1, length)
    Q = -0.5 * spectral_derivative(u, 2, length) - u * T
    zeros, ones = np.zeros(n), np.ones(n)
    r1, r2, r3 = zero_curvature_components(
        P_, Q, zeros, ones, T, u, zeros, zeros, T_t, length)
    assert np.max(np.abs(F[0] - 2 * r1)) < 1e-9
    assert np.max(np.abs(F[1] - rt2 * r2)) < 1e-9
    assert np.max(np.abs(F[2] + rt2 * r3)) < 1e-9


def test_reconstruction_slice_b():
    length, n = 20.0, 128
    x = length * np.arange(n) / n
    R = 0.2 * np.sin(2 * np.pi * x / length)
    state = FieldState(0.0, length, n, {"R": R})
    conn = reconstruct_connection(state, SLICE_B)
    assert np.allclose(conn.a1[0], 2 * R)
    assert np.allclose(conn.a0[1], np.sqrt(2.0) * miura_map(R, length))
    assert np.allclose(conn.a1[2], 0)


def test_reconstruction_errors():
    state = FieldState(0.0, 10.0, 64, {"u": np.zeros(64)})
    with pytest.raises(KeyError):
        reconstruct_connection(state, SLICE_A)  # T missing
    with pytest.raises(KeyError):
        reconstruct_connection(state, SLICE_B)
    with pytest.raises(ValueError):
        reconstruct_connection(state, "slice-C")


def test_ghost_multiplet():
    length, n = 10.0, 128
    x = length * np.arange(n) / n
    k = 2 * np.pi / length
    g = np.sin(k * x)
    T = 0.5 * np.ones(n)
    mid, low = ghost_multiplet(g, T, length)
    assert np.max(np.abs(mid - k * np.cos(k * x))) < 1e-10
    rt2 = np.sqrt(2.0)
    want = -rt2 * T * g + (rt2 / 2.0) * k * k * np.sin(k * x)
    assert np.max(np.abs(low - want)) < 1e-10
    mid0, low0 = ghost_multiplet(np.zeros(n), T, length)
    assert np.allclose(mid0, 0) and np.allclose(low0, 0)
    with pytest.raises(ValueError):
        ghost_multiplet(np.zeros(n), np.zeros(2 * n), length)
