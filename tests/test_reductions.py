"""The system catalog: frozen equations, exact invariance/conservation
identities, substitution maps, and connection reconstruction.

Conservation of a catalogued density is checked through its variational
gradient: a density is conserved iff its on-shell time derivative is a
total x-derivative, i.e. iff the gradient of the rate vanishes.  That
criterion is symbolic and independent of any time integration.
"""

import dataclasses
import re
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
    s_add,
    s_mul,
    substitute_family,
    t_prolong,
    to_string,
    total_x_derivative,
)
from brstkdv.reductions import (
    SLICE_A,
    SLICE_B,
    SYSTEM_NAMES,
    _CATALOG,
    ConservedDensity,
    build_system,
    catalog_manifest,
    ckdv_substitution,
    ckdv_to_mkdv,
    miura_map,
    miura_substitution,
    reconstruct_connection,
    slice_connection,
    slice_curvature,
    upsilon_poly,
    upsilon_rules,
    zero_curvature_components,
)
from brstkdv.sl2 import commutator_components, curvature_residual, rescaled_table
from brstkdv.solver import (
    FieldState,
    SingularityError,
    evaluator,
    evolve,
    spectral_derivative,
)


def P(text):
    return parse(text, odd=("c",))


# --- frozen catalog forms -----------------------------------------------------

def test_catalog_names():
    assert SYSTEM_NAMES == ("kdv", "harry-dym", "t-form", "mkdv", "ckdv", "upsilon")
    assert SYSTEM_NAMES == tuple(_CATALOG)


@pytest.mark.parametrize("name", SYSTEM_NAMES)
def test_every_catalog_row_builds_at_its_defaults(name):
    builder, row = _CATALOG[name]
    required = {k: 1 for k, default in row.items() if default is None}  # t-form's beta, s
    system = build_system(name, **required)
    assert system.name == name
    assert system is builder(*{**row, **required}.values())
    for key, default in row.items():
        assert system.parameters[key] == required.get(key, default)


def test_built_systems_are_cached_and_read_only():
    kdv = build_system("kdv", s="2")
    assert build_system("kdv", s=2) is kdv  # one system per coerced parameter point
    assert build_system("kdv", s=3) is not kdv
    for table in (kdv.rhs, kdv.densities, kdv.parameters):
        with pytest.raises(TypeError):
            table["u"] = P("u")
    # the mutation guards build changed copies, which stay read-only too
    wrong = dataclasses.replace(kdv, rhs={"u": P("u_xxx"), "c": kdv.rhs["c"]})
    assert wrong.rhs["u"] == P("u_xxx")
    assert build_system("kdv", s=2).rhs["u"] == P("3*u*u_x + u_xxx")
    with pytest.raises(TypeError):
        wrong.rhs["c"] = P("c_xxx")


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


# The slice equation and its three laws as they were typed in before the
# catalog derived them from the zero-curvature equation: the oracle.
_UPSILON = P("T_t - 1/2*u_xxx - 2*u_x*T - u*T_x")
_U_LAW = P("c_t - u*c_x + u_x*c")
_T_LAW = P("1/2*c_xxx + T_x*c + 2*T*c_x")
_C_LAW = P("c*c_x")


def test_upsilon_entries():
    assert upsilon_poly() == _UPSILON
    rules = upsilon_rules()
    assert rules.base == {"u": _U_LAW, "T": _T_LAW, "c": _C_LAW}
    assert rules.base is not upsilon_rules().base  # a fresh rule set per call
    sys_ = build_system("upsilon")
    assert sys_.rhs["u"] is None
    assert sys_.evolving_fields() == ("T",)


# --- the slices of the zero-curvature equation ----------------------------------

def test_slice_a_curvature_is_the_residual_equation():
    f0, fp, fm = slice_curvature(SLICE_A)
    assert f0.is_zero and fp.is_zero
    assert fm == -_UPSILON


def test_slice_a_symmetry_keeps_the_gauge():
    # delta A1 = d/dx C + [A1, C] leaves A1^0 = 0 and A1^+ = 1 alone, and
    # moves A1^- = -T by minus the T law
    a1, _, ghost = slice_connection(SLICE_A)
    bracket = commutator_components(a1, ghost, rescaled_table())
    d0, dp, dm = (total_x_derivative(g) + b for g, b in zip(ghost, bracket))
    assert d0.is_zero and dp.is_zero
    assert dm == -_T_LAW


def test_slice_b_symmetry_keeps_the_gauge():
    # on slice B, delta A1 = d/dx C + [A1, C] leaves A1^+ = 1 alone, its lower
    # component cm_x - 2 R cm vanishes under cm's x rule, and -1/2 [C, C]^+
    # is the ghost law every system shares
    a1, _, ghost = slice_connection(SLICE_B)
    g = rescaled_table()
    bracket = commutator_components(a1, ghost, g)
    _, dp, dm = (total_x_derivative(c) + b for c, b in zip(ghost, bracket))
    assert dp.is_zero
    odd = ("c", "cm")
    assert dm == parse("cm_x - 2*R*cm", odd=odd)
    # cm_x read through mkdv's x rule
    by_rule = total_x_derivative(parse("cm", odd=odd), build_system("mkdv").brst)
    assert (dm - parse("cm_x", odd=odd) + by_rule).is_zero
    assert Fraction(-1, 2) * commutator_components(ghost, ghost, g)[1] == _C_LAW


def test_slice_b_is_flat_on_the_mkdv_flow():
    f0, fp, fm = slice_curvature(SLICE_B)
    assert f0 == 2 * parse("R_t - R_xxx + 6*R^2*R_x")
    assert fp.is_zero and fm.is_zero
    assert reduce_on_shell(f0, build_system("mkdv")).is_zero


def test_slice_statement_is_cached_and_checked():
    assert slice_connection(SLICE_A) is slice_connection(SLICE_A)
    c, cm = (GradedPoly.gen(sym, odd_syms=frozenset({"c", "cm"})) for sym in ("c", "cm"))
    assert slice_connection(SLICE_B)[2] == (parse("c_x + 2*R*c", odd=("c",)), c, cm)
    assert all(x.odd_syms == {"c", "cm"} for x in slice_connection(SLICE_B)[2])
    assert all(x.odd_syms == {"c"} for x in slice_connection(SLICE_A)[2])
    with pytest.raises(ValueError, match="unknown gauge slice"):
        slice_connection("slice-C")


# --- the derived families against the formulas they replaced ---------------
# Before the catalog gauge-fixed both families from the slice equation, each
# flow, ghost flow and delta u was typed in; those formulas are the oracle.


def _t_family_oracle(beta, s):
    odd = frozenset({"c"})
    Tb = GradedPoly.gen("T", 0, beta, odd_syms=odd)
    half_s = s_mul(s, Fraction(1, 2))
    big = s_mul(s, s_add(s_mul(2, beta), 1))  # (2 beta + 1) s
    d3 = total_x_derivative(total_x_derivative(total_x_derivative(Tb)))
    Tbm1 = GradedPoly.gen("T", 0, s_add(beta, -1), odd_syms=odd)
    rhs = {
        "T": half_s * d3 + big * (Tb * GradedPoly.gen("T", 1)),
        "c": s_mul(half_s, beta) * (Tbm1 * GradedPoly.gen("c", 3, odd_syms=odd))
        + big * (Tb * GradedPoly.gen("c", 1, odd_syms=odd)),
    }
    return rhs, {"T": _T_LAW, "c": _C_LAW}


def _u_family_oracle(alpha, s):
    odd = frozenset({"c"})
    u, ux, u3 = (GradedPoly.gen("u", k) for k in (0, 1, 3))
    c, cx, c3 = (GradedPoly.gen("c", k, odd_syms=odd) for k in (0, 1, 3))
    adv = s_mul(s_add(alpha, 2), Fraction(1, alpha))
    disp = s_mul(s, Fraction(1, s_mul(2, alpha)))
    two_over = s_mul(2, Fraction(1, alpha))
    upow = GradedPoly.gen("u", 0, s_add(1, -alpha), odd_syms=odd)
    rhs = {
        "u": adv * (u * ux) + disp * (upow * u3),
        "c": disp * (upow * c3) + s_add(two_over, 1) * (u * cx),
    }
    delta_u = disp * (upow * c3) + c * ux + two_over * (u * cx)
    return rhs, {"u": delta_u, "c": _C_LAW}


def _upsilon_oracle():
    rhs = {"u": None, "T": parse("1/2*u_xxx + 2*u_x*T + u*T_x"), "c": None}
    return rhs, {"u": _U_LAW, "T": _T_LAW, "c": _C_LAW}


_S, _BETA = parameter("s"), parameter("beta")
_DERIVED = [
    ("kdv", {"alpha": 1, "s": 2}, "kdv-1-2"),
    ("kdv", {"alpha": -2, "s": 1}, "kdv-(-2)-1"),
    ("kdv", {"alpha": Fraction(3, 2), "s": 2}, "kdv-3/2-2"),
    ("kdv", {"alpha": 3, "s": _S}, "kdv-3-s"),
    ("kdv", {"alpha": 1, "s": _S}, "kdv-1-s"),
    ("t-form", {"beta": 1, "s": 2}, "t-form-1-2"),
    ("t-form", {"beta": Fraction(1, 2), "s": 1}, "t-form-1/2-1"),
    ("t-form", {"beta": _BETA, "s": _S}, "t-form-beta-s"),
    ("t-form", {"beta": Fraction(-3, 2), "s": _S}, "t-form-(-3/2)-s"),
    ("harry-dym", {}, "harry-dym"),
    ("upsilon", {}, "upsilon"),
]
_ORACLES = {
    "kdv": _u_family_oracle,
    "t-form": _t_family_oracle,
    "harry-dym": lambda: _t_family_oracle(Fraction(1, 2), 1),
    "upsilon": _upsilon_oracle,
}


@pytest.mark.parametrize("name, params", [d[:2] for d in _DERIVED],
                         ids=[d[2] for d in _DERIVED])
def test_derived_family_matches_the_typed_formulas(name, params):
    sys_ = build_system(name, **params)
    rhs, base = _ORACLES[name](**params)
    for got, want in ((sys_.rhs, rhs), (sys_.brst.base, base)):
        assert set(got) == set(want)
        for f, w in want.items():
            if w is None:
                assert got[f] is None
            else:
                assert got[f] == w
                assert to_string(got[f]) == to_string(w)


def test_build_system_validation():
    with pytest.raises(ValueError, match=r"^unknown system 'nosuch'; catalog: kdv, harry-dym, "
                                         r"t-form, mkdv, ckdv, upsilon$"):
        build_system("nosuch")
    for params in ({"beta": 1}, {"s": 1}, {}):  # s or beta missing
        with pytest.raises(ValueError, match=r"^t-form requires beta and s$"):
            build_system("t-form", **params)
    with pytest.raises(ValueError, match=r"^system 'kdv' does not take parameters \['beta'\]$"):
        build_system("kdv", beta=1)  # wrong family key
    with pytest.raises(ValueError, match=r"^system 'harry-dym' does not take parameters "):
        build_system("harry-dym", beta=1)
    with pytest.raises(ValueError):
        build_system("kdv", alpha=0)
    # s/(2 alpha) is no polynomial in a symbolic alpha
    with pytest.raises(ValueError, match="alpha"):
        build_system("kdv", alpha=parameter("a"))
    with pytest.raises(ValueError, match="alpha"):
        build_system("kdv", alpha="a")


def test_build_system_checks_the_catalog_row_before_the_parameters():
    # the unknown system is named, not its unreadable parameter
    with pytest.raises(ValueError, match=r"^unknown system 'nosuch'; catalog: "):
        build_system("nosuch", alpha="??")
    with pytest.raises(ValueError, match=r"^system 'kdv' does not take parameters \['beta'\]$"):
        build_system("kdv", beta=0.5)
    with pytest.raises(ValueError, match=r"^family parameter '\?\?' is neither a number nor a name$"):
        build_system("kdv", alpha="??")


@pytest.mark.parametrize("value", [1.5, True, None, [1]])
def test_build_system_rejects_a_parameter_that_is_not_exact(value):
    # a float used to escape as TypeError: not an exact scalar: 1.5
    got = re.escape(repr(value))
    with pytest.raises(ValueError, match=rf"^family parameter alpha must be exact, got {got}; "):
        build_system("kdv", alpha=value)


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
    for f in ("u", "c"):
        res = GradedPoly.gen(marker(f), odd_syms=frozenset({"c"})) - kdv.rhs[f]
        red = reduce_on_shell(apply_derivation(res, kdv.brst), kdv)
        assert red.is_zero, f


def test_upsilon_covariance_weight_two():
    ups = upsilon_poly()
    c = P("c")
    cx = P("c_x")
    lhs = apply_derivation(ups, upsilon_rules())
    assert lhs == 2 * (ups * cx) + total_x_derivative(ups) * c


_MARKER_FREE = [("kdv", {}), ("t-form", {"beta": parameter("beta"), "s": parameter("s")}),
                ("harry-dym", {}), ("mkdv", {}), ("ckdv", {})]


@pytest.mark.parametrize("name, kw", _MARKER_FREE, ids=[n for n, _ in _MARKER_FREE])
def test_catalog_symmetries_prolong_in_t(name, kw):
    # delta(f_t_xx) is D^2 of d/dt delta(f), with D taking the rule set's x
    # rules (mkdv's delta R holds cm, ckdv's delta w holds cw)
    brst = build_system(name, **kw).brst
    for f, img in brst.base.items():
        assert not img.has_markers()
        want = t_prolong(img)
        for _ in range(2):
            want = total_x_derivative(want, brst.xrules)
        got = apply_derivation(GradedPoly.gen(marker(f), 2, odd_syms=brst.odd_symbols()), brst)
        assert got == want, f


@pytest.mark.parametrize("name, field, sym", [("mkdv", "R", "cm"), ("ckdv", "w", "cw")])
def test_x_rules_prolong_in_t(name, field, sym):
    # the marker of a generator with an x rule is no free jet: d/dx of it is
    # d/dt of the rule (mkdv: D cm_t = 2 R_t cm + 2 R cm_t), so delta of the
    # field's x-differentiated marker holds sym_t but never sym_t_x
    brst = build_system(name).brst
    odd = brst.odd_symbols()
    got = total_x_derivative(GradedPoly.gen(marker(sym), odd_syms=odd), brst)
    assert got == t_prolong(brst.xrules[sym])
    if name == "mkdv":
        assert got == parse("2*R_t*cm + 2*R*cm_t", odd=odd)
    image = apply_derivation(GradedPoly.gen(marker(field), 1, odd_syms=odd), brst)
    assert image.max_order(marker(sym)) == 0


def test_the_slice_symmetry_reaches_no_second_time_derivative():
    # the u law holds c_t: a polynomial that reaches u_t raises, one without does not
    rules = upsilon_rules()
    assert rules.base["u"].has_markers()
    assert not apply_derivation(upsilon_poly() * P("u"), rules).is_zero
    with pytest.raises(ValueError, match="second time derivative of 'c'"):
        apply_derivation(upsilon_poly() * P("u_t"), rules)


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
    # the kind is read off the parity, and a mixed parity has none
    assert ConservedDensity("even", P("u^2 + u_x")).kind == "classical"
    assert ConservedDensity("number", P("3")).kind == "classical"
    assert ConservedDensity("odd", P("u*c_x")).kind == "brst-invariant"
    assert ConservedDensity("cubic", P("c*c_x*c_xx")).kind == "brst-invariant"
    for mixed in ("u + u*c_x", "1 + c"):
        with pytest.raises(ValueError, match="mixes even and odd terms"):
            ConservedDensity("bad", P(mixed))


# the kdv densities as they were typed before they were pulled back from the
# t-form; each is compared term by term
_KDV_TYPED = {
    "H0": "1/2*u",
    "H1": "1/4*u^2",
    "Ht0": "1/2*u*c_x",
    "Ht1": "1/2*u*c_xxx + 1/2*u*u_x*c + u^2*c_x",
}


def _term_dict(p):
    return {(even, odd): coeff for coeff, even, odd in p.terms()}


def test_kdv_densities_are_the_t_forms_pulled_back():
    kdv, tf = build_system("kdv"), build_system("t-form", beta=1, s=2)
    for name, text in _KDV_TYPED.items():
        got = kdv.densities[name].density
        assert _term_dict(got) == _term_dict(P(text)), name
        assert got.odd_syms == {"c"}
        pulled = substitute_family(tf.densities[name].density, "T", P("1/2*u"))
        assert _term_dict(pulled) == _term_dict(got), name
    # off (alpha, s) = (1, 2) the u-form carries no densities
    assert dict(build_system("kdv", alpha=-2, s=1).densities) == {}


@pytest.mark.parametrize("beta, s", [(1, 2), (Fraction(1, 2), 1), (_BETA, _S)],
                         ids=["1-2", "1/2-1", "beta-s"])
def test_t_form_ht1_is_the_brst_image_of_h1(beta, s):
    tf = build_system("t-form", beta=beta, s=s)
    h1, ht1 = tf.densities["H1"].density, tf.densities["Ht1"].density
    assert _term_dict(ht1) == _term_dict(apply_derivation(h1, tf.brst))
    # the form it was typed in before: (beta + 1) T^beta delta T
    Tb = GradedPoly.gen("T", 0, beta, odd_syms=frozenset({"c"}))
    assert _term_dict(ht1) == _term_dict(s_add(beta, 1) * (Tb * upsilon_rules().base["T"]))


def test_density_lookup_error():
    kdv = build_system("kdv")
    with pytest.raises(KeyError):
        kdv.density("H99")
    assert kdv.density("H3").density == P("u*c_xxx + 3/2*u^2*c_x")


def test_kdv_h1g_is_twice_ht0():
    kdv = build_system("kdv")
    assert kdv.density("H1g").density == 2 * kdv.density("Ht0").density
    assert kdv.density("H1g").density == P("u*c_x")  # the form it was typed in before


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


def test_ckdv_symmetry_is_mkdvs_pulled_back():
    # at R = v(w) and cm = -cw, delta v(w) is delta R; cw's x rule is cm's
    # pulled back, and cm = 1/2 (cw/w)_x - 1/2 cw reduces to -cw
    mk, ck = build_system("mkdv"), build_system("ckdv")
    v_of_w = ckdv_substitution()
    cw = GradedPoly.gen("cw", odd_syms=frozenset({"c", "cw"}))
    at_w = substitute_family(mk.brst.base["R"], "R", v_of_w)
    assert apply_derivation(v_of_w, ck.brst) - substitute_family(at_w, "cm", -cw) == 0
    assert ck.brst.xrules["cw"] == parse("w^-1*w_x*cw - w*cw", odd=("c", "cw"))
    w_inv = GradedPoly.gen("w", 0, -1, odd_syms=cw.odd_syms)
    half = Fraction(1, 2)
    assert half * total_x_derivative(cw * w_inv, ck.brst) - half * cw == -cw


def test_ckdv_symmetry_fails_on_the_other_branch():
    # cw_x = (w^-1 w_x + w) cw, the other sign of the w cw term, leaves one term
    mk, ck = build_system("mkdv"), build_system("ckdv")
    v_of_w = ckdv_substitution()
    cw = GradedPoly.gen("cw", odd_syms=frozenset({"c", "cw"}))
    wrong = ck.brst.xrules["cw"] + 2 * (GradedPoly.gen("w", odd_syms=cw.odd_syms) * cw)
    rules = dataclasses.replace(ck.brst, xrules={"cw": wrong})
    at_w = substitute_family(substitute_family(mk.brst.base["R"], "R", v_of_w), "cm", -cw)
    residual = apply_derivation(v_of_w, rules) - at_w
    assert len(residual) == 1


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
    out = evolve(state, ck, 1e-3, 1e-3).states[-1]
    assert np.max(np.abs(out.fields["w"] - const)) < 1e-13

    import dataclasses
    wrong = dataclasses.replace(ck, rhs={
        "w": parse("w_xxx - 1/2*w^3 - 3/2*w^-1*w_x^2"),
        "c": ck.rhs["c"],
    })
    moved = evolve(state, wrong, 1e-3, 1e-3).states[-1]
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


def test_grid_maps_and_the_lift_compile_once(monkeypatch):
    from brstkdv import solver
    calls = []
    real = solver._compile_terms
    monkeypatch.setattr(solver, "_compile_terms", lambda p, odd: calls.append(p) or real(p, odd))
    sech, wave = _map_data(64, 40.0)
    state = FieldState(0.0, 40.0, 64, {"R": sech})

    def every_map():
        miura_map(sech, 40.0)
        ckdv_to_mkdv(wave, 40.0)
        reconstruct_connection(state, SLICE_B)

    every_map()
    calls.clear()
    every_map()
    every_map()
    assert calls == []


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
    # the evaluator's guard and its floor, the stepper's
    w = np.full(16, 1e-6)
    with pytest.raises(SingularityError, match="floor 1.0e-06"):
        ckdv_to_mkdv(w, 10.0)
    assert np.allclose(ckdv_to_mkdv(2 * w, 10.0), -w, rtol=1e-12, atol=0.0)


def test_ckdv_to_mkdv_floor_catches_nan():
    w = np.ones(16)
    w[3] = np.nan
    with pytest.raises(SingularityError, match="nan"):
        ckdv_to_mkdv(w, 10.0)


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
    with pytest.raises(ValueError, match="^grid size mismatch: "):
        zero_curvature_components(z4, z4, z4, z4, z8, z4, z4, z4, z4, 1.0)


# The three residuals as numpy code, as they were typed in before they were
# read off the bracket-built curvature: the oracle.

def _zero_curvature_oracle(P, Q, R, S, T, u, R_t, S_t, T_t, length):
    r1 = R_t - spectral_derivative(P, 1, length) - u * T - Q * S
    r2 = S_t - spectral_derivative(u, 1, length) + 2 * P * S - 2 * u * R
    r3 = T_t + spectral_derivative(Q, 1, length) - 2 * P * T - 2 * Q * R
    return r1, r2, r3


@pytest.mark.parametrize("seed", [10, 20, 30])
def test_zero_curvature_matches_the_typed_residuals(seed):
    # every one of the nine grids is smooth and nonzero, R, S, R_t and S_t too
    length, n = 20.0, 256
    x = length * np.arange(n) / n
    grids = [_smooth(x, length, seed + k) for k in range(9)]
    assert min(np.max(np.abs(g)) for g in grids) > 0.1
    got = zero_curvature_components(*grids, length)
    want = _zero_curvature_oracle(*grids, length)
    for g, r in zip(got, want, strict=True):
        assert g.shape == (n,)
        assert np.max(np.abs(g - r)) <= 1e-12 * max(1.0, np.max(np.abs(r)))


def test_reconstruction_matches_commutator_curvature():
    """The hand-expanded component residuals agree with the bracket-built
    curvature of the reconstructed connection (up to basis normalisation)."""
    length, n = 20.0, 256
    x = length * np.arange(n) / n
    u = _smooth(x, length, 4)
    T = _smooth(x, length, 5)
    T_t = _smooth(x, length, 6)
    state = FieldState(0.0, length, n, {"u": u, "T": T})
    a0, a1 = reconstruct_connection(state, SLICE_A)
    rt2 = np.sqrt(2.0)
    assert np.allclose(a1[0], 0) and np.allclose(a1[1], rt2)
    assert np.allclose(a1[2], -rt2 * T)

    dt_a1 = [np.zeros(n), np.zeros(n), -rt2 * T_t]
    dx_a0 = [spectral_derivative(a0[i], 1, length) for i in range(3)]
    F = curvature_residual(dt_a1, dx_a0, list(a0), list(a1))

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
    a0, a1 = reconstruct_connection(state, SLICE_B)
    assert np.allclose(a1[0], 2 * R)
    assert np.allclose(a0[1], np.sqrt(2.0) * miura_map(R, length))
    assert np.allclose(a1[2], 0)


# The two lifts as numpy code, as they were typed in before the lift
# evaluated the slice statement: the oracle.

def _lift_a_oracle(u, T, length):
    rt2, n = np.sqrt(2.0), len(u)
    ux = spectral_derivative(u, 1, length)
    uxx = spectral_derivative(u, 2, length)
    a1 = np.stack([np.zeros(n), rt2 * np.ones(n), -rt2 * T])
    a0 = np.stack([ux, rt2 * u, rt2 * (-0.5 * uxx - u * T)])
    return a0, a1


def _lift_b_oracle(R, length):
    rt2, n = np.sqrt(2.0), len(R)
    u = 2.0 * (spectral_derivative(R, 1, length) - R * R)
    ux = spectral_derivative(u, 1, length)
    a1 = np.stack([2.0 * R, rt2 * np.ones(n), np.zeros(n)])
    a0 = np.stack([ux + 2.0 * u * R, rt2 * u, np.zeros(n)])
    return a0, a1


def test_reconstruction_matches_the_typed_lifts():
    length, n = 20.0, 256
    x = length * np.arange(n) / n
    u, T, R = (_smooth(x, length, seed) for seed in (7, 8, 9))
    R = 0.3 * R
    cases = [(reconstruct_connection(FieldState(0.0, length, n, {"u": u, "T": T}), SLICE_A),
              _lift_a_oracle(u, T, length)),
             (reconstruct_connection(FieldState(0.0, length, n, {"R": R}), SLICE_B),
              _lift_b_oracle(R, length))]
    for conn, (a0, a1) in cases:
        assert conn.shape == (2, 3, n)
        assert np.max(np.abs(conn[0] - a0)) <= 1e-12
        assert np.max(np.abs(conn[1] - a1)) <= 1e-12


def test_slice_b_lift_where_the_square_aliases():
    # R with every mode below Nyquist on 16 points: R^2 aliases.  The
    # derived A0^0 = 2 R_xx - 4 R R_x + 2 u R is then the exact value at the
    # grid points, and it differs from the typed lift, which differentiates
    # the aliased grid u, by exactly the aliasing error of the product rule,
    # 2 (D(R^2) - 2 R D R); every other row still agrees to 1e-12.
    length, n = 20.0, 16
    x = length * np.arange(n) / n
    rng = np.random.default_rng(3)
    R = R_x = R_xx = np.zeros(n)
    for m in range(1, n // 2):
        a, b = 0.3 * rng.normal(size=2)
        k = 2 * np.pi * m / length
        c, s = np.cos(k * x), np.sin(k * x)
        R, R_x, R_xx = R + a * c + b * s, R_x + k * (b * c - a * s), R_xx - k * k * (a * c + b * s)
    u = 2 * (R_x - R * R)
    conn_a0, conn_a1 = reconstruct_connection(FieldState(0.0, length, n, {"R": R}), SLICE_B)
    a0, a1 = _lift_b_oracle(R, length)
    assert np.max(np.abs(conn_a0[0] - (2 * R_xx - 4 * R * R_x + 2 * u * R))) <= 1e-12
    alias = 2 * (spectral_derivative(R * R, 1, length) - 2 * R * spectral_derivative(R, 1, length))
    assert np.max(np.abs(alias)) > 1.0
    assert np.max(np.abs(conn_a0[0] - a0[0] - alias)) <= 1e-12
    assert np.max(np.abs(conn_a0[1:] - a0[1:])) <= 1e-12
    assert np.max(np.abs(conn_a1 - a1)) <= 1e-12


def test_reconstruction_errors():
    state = FieldState(0.0, 10.0, 64, {"u": np.zeros(64)})
    with pytest.raises(KeyError):
        reconstruct_connection(state, SLICE_A)  # T missing
    with pytest.raises(KeyError):
        reconstruct_connection(state, SLICE_B)
    with pytest.raises(ValueError):
        reconstruct_connection(state, "slice-C")


def _ghost_multiplet_oracle(ghost, T, length):
    """The dependent ghost components from the surviving one, as typed in
    before the ghost triple was stated: (d/dx ghost, -sqrt2 T ghost -
    sqrt2/2 d2/dx2 ghost), in the T basis."""
    rt2 = np.sqrt(2.0)
    mid = spectral_derivative(ghost, 1, length)
    low = -rt2 * T * ghost - (rt2 / 2.0) * spectral_derivative(ghost, 2, length)
    return mid, low


def _ghost_triple(ghost, T, length):
    """The slice-A ghost triple on grids, in the T basis."""
    rows = evaluator(slice_connection(SLICE_A)[2])({"c": ghost, "T": T}, length)
    return rows * np.array([[1.0], [np.sqrt(2.0)], [np.sqrt(2.0)]])


def test_ghost_multiplet():
    length, n = 10.0, 128
    x = length * np.arange(n) / n
    k = 2 * np.pi / length
    g = np.sin(k * x)
    rt2 = np.sqrt(2.0)
    for T in (0.5 * np.ones(n), _smooth(x, length, 10)):
        mid, plus, low = _ghost_triple(g, T, length)
        mid0, low0 = _ghost_multiplet_oracle(g, T, length)
        assert np.max(np.abs(mid - mid0)) <= 1e-12
        assert np.max(np.abs(low - low0)) <= 1e-12
        assert np.array_equal(plus, rt2 * g)
        assert np.max(np.abs(mid - k * np.cos(k * x))) < 1e-10
        want = -rt2 * T * g + (rt2 / 2.0) * k * k * np.sin(k * x)
        assert np.max(np.abs(low - want)) < 1e-10
        assert not _ghost_triple(np.zeros(n), T, length).any()
