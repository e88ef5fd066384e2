"""Ring and calculus laws of the graded differential polynomial engine.

Expected values in the point tests are derived by hand (chain rule,
integration by parts, permutation signs) before being compared against the
engine; the hypothesis tests check the algebraic laws themselves.
"""

import dataclasses
import hashlib
import random
import sys
import threading
from fractions import Fraction

import pytest
import sympy as sp
from hypothesis import given, settings
from hypothesis import strategies as st

from brstkdv import graded, parse
from brstkdv.graded import (
    DerivationRuleSet,
    GradedPoly,
    apply_derivation,
    as_scalar,
    base_symbol,
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
from brstkdv.reductions import SYSTEM_NAMES, build_system, catalog_manifest
from brstkdv.sl2 import canonical_brst_rules

ODD = frozenset({"c"})


def P(text):
    return parse(text, odd=("c",))


def gen(sym, order=0, exp=1):
    return GradedPoly.gen(sym, order, exp, odd_syms=ODD)


# --- strategies -------------------------------------------------------------

coeffs = st.fractions(min_value=-4, max_value=4, max_denominator=6).filter(bool)


@st.composite
def term_triples(draw, odd_ok=True, max_terms=4):
    terms = []
    for _ in range(draw(st.integers(0, max_terms))):
        coeff = draw(coeffs)
        even = tuple(
            ((draw(st.sampled_from(["u", "T"])), draw(st.integers(0, 2))),
             draw(st.integers(1, 3)))
            for _ in range(draw(st.integers(0, 2)))
        )
        odd = ()
        if odd_ok:
            orders = draw(st.lists(st.integers(0, 2), max_size=2, unique=True))
            odd = tuple(("c", o) for o in orders)
        terms.append((coeff, even, odd))
    return terms


def product(coeff, even, odd):
    """coeff times the generators in the order given: repeated even factors
    merge their exponents, and the odd factors' sorting sign comes from the
    product itself."""
    out = GradedPoly.number(coeff, ODD)
    for (sym, order), e in even:
        out = out * gen(sym, order, e)
    for sym, order in odd:
        out = out * gen(sym, order)
    return out


def from_triples(terms):
    return sum((product(*t) for t in terms), GradedPoly.zero(ODD))


polys = term_triples().map(from_triples)
even_polys = term_triples(odd_ok=False).map(from_triples)
ghost_linear = term_triples().map(
    lambda ts: from_triples([t for t in ts if len(t[2]) == 1])
)


@st.composite
def monomials(draw):
    """Single products of generators: parity-homogeneous by construction."""
    coeff = draw(coeffs)
    even = tuple(
        (("u", draw(st.integers(0, 2))), draw(st.integers(1, 2)))
        for _ in range(draw(st.integers(0, 2)))
    )
    orders = draw(st.lists(st.integers(0, 2), max_size=2, unique=True))
    return product(coeff, even, [("c", o) for o in orders])


# --- ring laws --------------------------------------------------------------

@given(polys, polys)
def test_addition_commutes(p, q):
    assert p + q == q + p


@given(polys, polys, polys)
def test_addition_associates(p, q, r):
    assert (p + q) + r == p + (q + r)


@given(polys)
def test_subtraction_cancels(p):
    assert (p - p).is_zero
    assert p + GradedPoly.zero(ODD) == p


@given(polys, polys, polys)
def test_multiplication_associates(p, q, r):
    assert (p * q) * r == p * (q * r)


@given(polys, polys, polys)
def test_left_distributivity(p, q, r):
    assert p * (q + r) == p * q + p * r


@given(even_polys, polys)
def test_even_factors_commute(p, q):
    assert p * q == q * p


@given(monomials(), monomials())
def test_graded_commutativity(p, q):
    """p q = (-1)^{|p||q|} q p for parity-homogeneous factors."""
    sp_, sq = p.parity(), q.parity()
    if sp_ is None or sq is None:  # a factor collapsed to 0
        return
    rhs = q * p
    assert p * q == (rhs if sp_ * sq == 0 else -rhs)


def test_odd_generators_anticommute():
    c, cx = gen("c"), gen("c", 1)
    assert c * cx == -(cx * c)
    assert (c * c).is_zero
    assert (gen("c", 0, 2)).is_zero  # squared at construction
    assert gen("u") * c == c * gen("u")


@given(st.permutations(list(range(4))))
def test_odd_sorting_sign_matches_permutation_parity(perm):
    gens = [("c", 0), ("c", 1), ("c", 2), ("c", 3)]
    seq = [gens[i] for i in perm]
    # independent parity: count inversions of the index sequence
    inv = sum(1 for i in range(4) for j in range(i + 1, 4) if perm[i] > perm[j])
    p, sorted_p = product(1, (), seq), product(1, (), gens)
    assert len(sorted_p) == 1
    assert p == (sorted_p if inv % 2 == 0 else -sorted_p)


def test_repeated_odd_factor_annihilates():
    p = product(1, (), [("c", 1), ("c", 0), ("c", 1)])
    assert p.is_zero


def test_powers():
    u = gen("u")
    assert u ** 0 == GradedPoly.number(1, ODD)
    assert u ** 3 == u * u * u
    assert (P("u + u_x")) ** 2 == P("u^2 + 2*u*u_x + u_x^2")
    with pytest.raises(ValueError):
        (u + 1) ** -1
    with pytest.raises(ValueError):
        (u + 1) ** Fraction(1, 2)


def test_symbolic_zero_test():
    beta = parameter("beta")
    one = GradedPoly.number(1, ODD)
    # (beta+1)^2 - beta^2 - 2 beta - 1 cancels term by term and is pruned
    p = ((beta + 1) ** 2) * gen("u") - (beta ** 2) * gen("u") - (2 * beta + 1) * gen("u")
    assert p.is_zero and p._terms == {}
    assert (((beta + 1) ** 2) * one - beta ** 2 - 2 * beta - 1).is_zero
    q = (beta ** 2) * gen("u") - beta * gen("u")
    assert len(q) == 1 and q._terms[((("u", 0), 1),), ()] == beta ** 2 - beta
    assert s_add(s_mul(beta, beta), -beta ** 2) == 0
    assert beta ** 2 - beta != 0


def test_scalar_exactness():
    assert 2 * gen("u") == gen("u") + gen("u")
    with pytest.raises(TypeError):
        as_scalar(0.5)
    with pytest.raises(TypeError):
        as_scalar(True)
    assert as_scalar(Fraction(4, 2)) == 2
    assert as_scalar("3/4") == Fraction(3, 4)
    # scalar arithmetic returns an int whenever the denominator is 1
    assert s_add(2, 3) == 5 and type(s_add(2, 3)) is int
    assert type(s_add(Fraction(1, 2), Fraction(1, 2))) is int
    assert type(s_mul(Fraction(2, 3), 3)) is int
    assert s_mul(Fraction(2, 3), Fraction(1, 2)) == Fraction(1, 3)
    assert type(s_add(parameter("beta"), -parameter("beta"))) is int
    assert s_mul(parameter("s"), Fraction(1, 2)) == parameter("s") / 2
    assert type((parameter("s") + Fraction(2)) - parameter("s")) is int


def _small_pair(rng):
    """A random polynomial of degree <= 2 in each of (beta, s), often
    constant, as a scalar and as a sympy expression."""
    beta, s = parameter("beta"), parameter("s")
    ours, ref = 0, sp.Integer(0)
    for _ in range(rng.randint(1, 3)):
        c = Fraction(rng.randint(-3, 3), rng.randint(1, 3))
        i, j = rng.choice((0, 0, 1, 2)), rng.choice((0, 0, 1, 2))
        ours = s_add(ours, s_mul(c, s_mul(beta ** i, s ** j)))
        ref += sp.Rational(c.numerator, c.denominator) * sp.Symbol("beta") ** i * sp.Symbol("s") ** j
    return ours, ref


@pytest.mark.parametrize("seed", range(12))
def test_parameter_polynomials_match_sympy(seed):
    # sympy's expand is the reference for the ring and for the printed form:
    # equal canonical strings mean equal polynomials
    rng = random.Random(seed)
    ours, ref = _small_pair(rng)
    for _ in range(8):
        q, q_ref = _small_pair(rng)
        op = rng.choice("+-*^~")
        if op == "+":
            ours, ref = s_add(ours, q), ref + q_ref
        elif op == "-":
            ours, ref = ours - q, ref - q_ref
        elif op == "*":
            ours, ref = s_mul(ours, q), ref * q_ref
        elif op == "^":
            k = rng.randint(0, 2)
            ours, ref = s_mul(ours, q ** k), ref * q_ref ** k
        else:  # cancels down to q, which may be constant
            ours, ref = s_add(ours, q) - ours, ref + q_ref - ref
        ref = sp.expand(ref)
        if ref.is_Rational:
            assert ours == Fraction(int(ref.p), int(ref.q))
            assert type(ours) is (int if ref.q == 1 else Fraction)
        else:
            assert str(ours) == str(ref)
        assert (ours == 0) == (ref == 0)


@pytest.mark.parametrize("terms", [
    [(1, {}), (-1, {"beta": 1})],
    [(Fraction(1, 2), {}), (Fraction(-1, 2), {"beta": 1})],
    [(2, {}), (-1, {"beta": 2})],
    [(2, {}), (-1, {"beta": 1, "s": 1})],
    [(-1, {}), (-1, {"beta": 1})],
    [(1, {}), (1, {"beta": 1})],
    [(1, {"s": 1}), (-1, {"beta": 1})],
    [(Fraction(3, 4), {}), (Fraction(-5, 2), {"B": 3})],
    [(-7, {}), (1, {"alpha": 1}), (Fraction(-1, 3), {"x1": 2, "alpha": 1})],
    [(1, {"s": 1}), (1, {"beta": 2, "s": 1}), (-1, {"beta": 1, "s": 2})],
])
def test_parameter_polynomial_prints_as_sympy(terms):
    # sympy puts a positive constant first before one negative single-name
    # power, and last everywhere else
    ours, ref = 0, sp.Integer(0)
    for c, powers in terms:
        mono, ref_mono = 1, sp.Integer(1)
        for v, k in powers.items():
            mono, ref_mono = s_mul(mono, parameter(v) ** k), ref_mono * sp.Symbol(v) ** k
        ours = s_add(ours, s_mul(c, mono))
        ref += sp.Rational(c.numerator, c.denominator) * ref_mono
    assert str(ours) == str(sp.expand(ref))


def test_sympy_scalars_at_the_boundary():
    beta, b = parameter("beta"), sp.Symbol("beta")
    # a sympy value is a foreign type like any other, also at the raw constructor
    u = (((("u", 0), 1),), ())
    for bad in ((b + 1) ** 2 - 1, sp.Rational(4, 2), sp.sqrt(2), 1 / b, sp.Float(0.5)):
        with pytest.raises(TypeError):
            as_scalar(bad)
        with pytest.raises(TypeError):
            GradedPoly({u: bad})
    # the only division is by a nonzero number
    assert s_mul(beta, Fraction(1, 2)) == beta / 2 == Fraction(1, 2) * beta
    with pytest.raises(TypeError):
        1 / beta
    with pytest.raises(ZeroDivisionError):
        beta / 0


def test_generator_validation():
    with pytest.raises(ValueError):
        gen("u", 1, Fraction(1, 2))  # derivative generators: integer powers only
    with pytest.raises(ValueError):
        gen("c", 0, Fraction(1, 2))
    assert gen("u", 0, -2) * gen("u", 0, 2) == 1
    assert gen("u", 2, 0) == GradedPoly.number(1, ODD)


# derivative orders that are not non-negative ints
BAD_ORDERS = {"negative": -1, "fraction": 1.5, "bool": True, "negative_two": -2}


@pytest.mark.parametrize("name", sorted(BAD_ORDERS))
def test_gen_rejects_bad_orders(name):
    with pytest.raises(ValueError, match="generator 'u': derivative orders"):
        GradedPoly.gen("u", BAD_ORDERS[name])


def test_parity_classification():
    assert P("u^2 + T").parity() == 0
    assert P("u*c_x").parity() == 1
    assert P("u + c").parity() is None
    assert GradedPoly.zero(ODD).parity() == 0


def test_mixed_parity_declaration_conflict():
    p = parse("q", odd=())          # q even here
    q = parse("q", odd=("q",))      # q odd there
    conflict = "symbol q is even here but odd elsewhere"
    with pytest.raises(ValueError, match=conflict):
        p * q
    with pytest.raises(ValueError, match=conflict):
        p + q
    with pytest.raises(ValueError, match=conflict):
        q - parse("2*q*u")
    # a rule whose image declares odd a symbol that is even in the argument
    rules = DerivationRuleSet("clash", base={"u": q, "q": parse("q*q_x", odd=("q",))})
    with pytest.raises(ValueError, match=conflict):
        apply_derivation(parse("q*u"), rules)
    # ... and an image that uses as even a symbol the argument declares odd
    rules = DerivationRuleSet("clash", base={"u": parse("c"), "c": P("c*c_x")})
    with pytest.raises(ValueError, match="symbol c is even here but odd elsewhere"):
        apply_derivation(P("c*u"), rules)


# --- d/dx -------------------------------------------------------------------

@given(polys, polys)
def test_dx_leibniz(p, q):
    assert (total_x_derivative(p * q)
            == total_x_derivative(p) * q + p * total_x_derivative(q))


@given(polys, polys)
def test_dx_linear(p, q):
    assert (total_x_derivative(p + q)
            == total_x_derivative(p) + total_x_derivative(q))


def test_dx_point_cases():
    assert total_x_derivative(P("3*u^2 + u_x")) == P("6*u*u_x + u_xx")
    assert total_x_derivative(P("u*c_x")) == P("u_x*c_x + u*c_xx")
    assert total_x_derivative(GradedPoly.number(7)).is_zero


def test_dx_fractional_power_chain_rule():
    assert total_x_derivative(gen("T", 0, Fraction(1, 2))) == \
        Fraction(1, 2) * gen("T", 0, Fraction(-1, 2)) * gen("T", 1)


def test_dx_symbolic_exponent_chain_rule():
    beta = parameter("beta")
    got = total_x_derivative(GradedPoly.gen("T", 0, beta))
    want = beta * GradedPoly.gen("T", 0, beta - 1) * GradedPoly.gen("T", 1)
    assert got == want


def test_dx_with_explicit_xrule():
    # a constrained odd generator whose x-derivative is polynomial, not a jet
    odd = ("c", "cm")
    rules = DerivationRuleSet("aux", base={}, xrules={"cm": parse("2*R*cm", odd=odd)})
    cm = parse("cm", odd=odd)
    assert total_x_derivative(cm, rules) == parse("2*R*cm", odd=odd)
    got = total_x_derivative(parse("R*cm", odd=odd), rules)
    assert got == parse("R_x*cm + 2*R^2*cm", odd=odd)
    with pytest.raises(ValueError):
        total_x_derivative(GradedPoly.gen("cm", 1, odd_syms=frozenset(odd)), rules)


# --- graded derivations -----------------------------------------------------

BRST = DerivationRuleSet("test-odd", base={
    "u": parse("u_x*c + 2*u*c_x + c_xxx", odd=("c",)),
    "T": parse("1/2*c_xxx + T_x*c + 2*T*c_x", odd=("c",)),
    "c": parse("c*c_x", odd=("c",)),
})


@given(monomials(), polys)
def test_graded_leibniz(p, q):
    """D(pq) = D(p) q + (-1)^{|p|} p D(q) for homogeneous p."""
    par = p.parity()
    if par is None:
        return
    lhs = apply_derivation(p * q, BRST)
    sign = 1 if par == 0 else -1
    rhs = apply_derivation(p, BRST) * q + sign * (p * apply_derivation(q, BRST))
    assert lhs == rhs


def test_derivation_left_leibniz_ordering():
    # delta(c u) = delta(c) u - c delta(u); the c * (.. c ..) cross terms die
    got = apply_derivation(P("c*u"), BRST)
    want = P("c*c_x")*gen("u") - gen("c") * P("u_x*c + 2*u*c_x + c_xxx")
    assert got == want
    assert got == P("u*c*c_x - 2*u*c*c_x - c*c_xxx")


def test_derivation_commutes_with_dx():
    p = P("u^2*c_x + T*u_x")
    assert (apply_derivation(total_x_derivative(p), BRST)
            == total_x_derivative(apply_derivation(p, BRST)))


def test_derivation_missing_rule():
    with pytest.raises(KeyError):
        apply_derivation(parse("w"), BRST)


def test_ruleset_validation():
    assert BRST.odd_symbols() == frozenset({"c"})
    # a rule set is (name, base, xrules); it is always the odd derivation
    assert [f.name for f in dataclasses.fields(DerivationRuleSet)] == ["name", "base", "xrules"]


def test_marker_images_are_t_prolonged():
    # delta(u_t_x) = d/dx d/dt delta(u), for markers of either parity
    for sym in ("u", "T", "c"):
        got = apply_derivation(P(f"{sym}_t_x"), BRST)
        assert got == total_x_derivative(t_prolong(BRST.base[sym])), sym
    assert apply_derivation(P("u_t*c"), BRST) == (
        t_prolong(BRST.base["u"]) * gen("c") + gen("u_t") * BRST.base["c"])
    # the derivation commutes with d/dt
    p = P("u^2*c_x + T*u_x")
    assert (apply_derivation(t_prolong(p), BRST)
            == t_prolong(apply_derivation(p, BRST)))
    # an explicit marker rule wins; a marker of a symbol without a rule is unknown
    marked = DerivationRuleSet("marked", {**BRST.base, "u_t": P("c_x")})
    assert apply_derivation(P("u_t_x"), marked) == P("c_xx")
    with pytest.raises(KeyError, match="no rule for generator 'w_t'"):
        apply_derivation(parse("w_t"), BRST)


def test_a_marker_rule_that_needs_a_second_time_derivative_raises():
    # the slice's u law holds c_t, so d/dt of it is out of reach
    slice_rules = DerivationRuleSet("slice", base={
        "u": parse("c_t - u*c_x + u_x*c", odd=("c",)),
        "T": parse("T_x*c + 2*T*c_x", odd=("c",)),
        "c": parse("c*c_x", odd=("c",)),
    })
    assert apply_derivation(P("T_t*u + c_t"), slice_rules) == (
        t_prolong(slice_rules.base["T"]) * gen("u") + gen("T_t") * slice_rules.base["u"]
        + t_prolong(slice_rules.base["c"]))
    with pytest.raises(ValueError, match="second time derivative of 'c' is not representable"):
        apply_derivation(P("u_t"), slice_rules)


# --- time markers and on-shell reduction ------------------------------------

def test_marker_names():
    assert marker("u") == "u_t"
    assert base_symbol("u_t") == "u"
    assert base_symbol("u") == "u"
    with pytest.raises(ValueError):
        marker("u_t")


def test_t_prolong():
    assert t_prolong(P("u*T")) == P("u_t*T + u*T_t")
    assert t_prolong(P("u_x")) == P("u_t_x")
    assert t_prolong(P("u^3")) == P("3*u^2*u_t")
    with pytest.raises(ValueError):
        t_prolong(P("u_t"))


def test_t_prolong_odd_markers_inherit_parity():
    p = t_prolong(P("u*c"))
    # u_t c - wait: both summands must be ghost-linear and odd overall
    assert p == P("u_t*c + u*c_t")
    assert p.parity() == 1


def test_reduce_on_shell_with_dict():
    rhs = {"u": P("u*u_x")}
    got = reduce_on_shell(P("2*u_t_x"), rhs)
    assert got == P("2*u_x^2 + 2*u*u_xx")
    assert reduce_on_shell(P("u_t - u*u_x"), rhs).is_zero


def test_reduce_on_shell_missing_rule():
    with pytest.raises(ValueError):
        reduce_on_shell(P("T_t"), {"u": P("u_x")})
    with pytest.raises(ValueError):
        reduce_on_shell(P("u_t"), {"u": None})


# --- substitution -----------------------------------------------------------

def test_substitute_family_point_case():
    got = substitute_family(P("u^2 + u_x"), "u", P("2*v"))
    assert got == P("4*v^2 + 2*v_x")


def test_substitute_family_markers():
    got = substitute_family(P("u_t"), "u", P("v^2"))
    assert got == P("2*v*v_t")
    got = substitute_family(P("u_t_x"), "u", P("v^2"))
    assert got == P("2*v_x*v_t + 2*v*v_t_x")


def test_substitute_family_leaves_other_symbols():
    got = substitute_family(P("T*u_x + c"), "u", P("v"))
    assert got == P("T*v_x + c")


def test_substitute_family_rejects_nonpolynomial_powers():
    with pytest.raises(ValueError):
        substitute_family(gen("u", 0, -1), "u", P("v"))
    with pytest.raises(ValueError):
        substitute_family(gen("u", 0, Fraction(1, 2)), "u", P("v"))


@given(even_polys)
def test_substitution_is_a_ring_map(p):
    repl = P("v + v_x")
    q = substitute_family(p * p, "u", repl)
    r = substitute_family(p, "u", repl)
    assert q == r * r


# --- variational operators --------------------------------------------------

def test_euler_point_cases():
    assert euler_operator(P("1/2*u^2"), "u") == P("u")
    assert euler_operator(P("1/2*u_x^2"), "u") == P("-u_xx")
    assert euler_operator(P("u*u_xx"), "u") == P("2*u_xx")
    assert euler_operator(P("u"), "u") == GradedPoly.number(1, ODD)


def test_euler_fractional_and_symbolic_powers():
    beta = parameter("beta")
    got = euler_operator(GradedPoly.gen("T", 0, beta + 1), "T")
    assert got == (beta + 1) * GradedPoly.gen("T", 0, beta)
    got = euler_operator(gen("T", 0, Fraction(3, 2)), "T")
    assert got == Fraction(3, 2) * gen("T", 0, Fraction(1, 2))


@given(even_polys)
def test_euler_annihilates_total_derivatives(p):
    assert euler_operator(total_x_derivative(p), "u").is_zero


@given(polys, polys)
def test_euler_ignores_exact_terms(p, q):
    lhs = euler_operator(p + total_x_derivative(q), "u")
    assert lhs == euler_operator(p, "u")


def test_euler_sees_ghost_densities():
    # d/du of u c_xxx is just the ghost factor
    assert euler_operator(P("u*c_xxx"), "u") == P("c_xxx")


def test_euler_validation():
    with pytest.raises(ValueError):
        euler_operator(P("u_t*u"), "u")
    with pytest.raises(ValueError):
        euler_operator(P("u*c_t"), "c")
    # markers of *other* fields pass through untouched
    assert euler_operator(P("u*T_t"), "u") == P("T_t")


@pytest.mark.parametrize("kernel, sym", [(euler_operator, "u_t"), (euler_operator, "c_t"),
                                         (odd_gradient, "u_t"), (odd_gradient, "c_t")])
def test_variational_derivative_by_a_marker(kernel, sym):
    with pytest.raises(ValueError, match=f"'{sym}' is a time marker, which has no variational"):
        kernel(P("u_t*c_t + u*c"), sym)


def test_odd_gradient_point_cases():
    assert odd_gradient(P("u*c_x"), "c") == P("-u_x")
    assert odd_gradient(P("u*c_xxx"), "c") == P("-u_xxx")
    assert odd_gradient(P("u^2*c"), "c") == P("u^2")
    # left derivatives of ghost-quadratic densities: d/dc_x of c*c_x is -c
    assert euler_operator(P("c*c_x"), "c") == P("2*c_x")
    assert euler_operator(P("u*c*c_xx"), "c") == P("-u_xx*c - 2*u_x*c_x")
    assert euler_operator(P("u^2"), "c").is_zero


@given(ghost_linear)
def test_odd_gradient_annihilates_total_derivatives(p):
    assert odd_gradient(total_x_derivative(p), "c").is_zero


@given(polys)
def test_odd_euler_annihilates_total_derivatives(p):
    # polys holds terms with up to two ghost factors: c*c_x, u*c*c_xx, ...
    assert euler_operator(total_x_derivative(p), "c").is_zero


@given(ghost_linear, ghost_linear)
def test_odd_gradient_separates_densities_mod_exact(p, q):
    same = odd_gradient(p, "c") == odd_gradient(q, "c")
    diff_grad = odd_gradient(p - q, "c")
    assert same == diff_grad.is_zero


def test_odd_gradient_validation():
    with pytest.raises(ValueError, match="not an odd symbol"):
        odd_gradient(P("u"), "u")
    # ghost-quadratic and ghost-free densities are in its domain
    assert odd_gradient(P("c*c_x"), "c") == P("2*c_x")
    assert odd_gradient(P("u^2"), "c").is_zero


# --- printing ---------------------------------------------------------------

def test_to_string_stability():
    assert to_string(P("u_xxx + 3*u*u_x")) == "3*u*u_x + u_xxx"
    assert to_string(GradedPoly.zero()) == "0"
    assert to_string(P("-1/2*T^-1/2*T_x")) == "-1/2*T^-1/2*T_x"
    beta = parameter("beta")
    s = to_string((beta + 1) * GradedPoly.gen("T", 0, beta))
    assert "beta" in s and "T^" in s


def test_equality_against_raw_scalars():
    assert GradedPoly.number(3) == 3
    assert P("u") != 3
    assert GradedPoly.zero() == 0


# --- reference kernels ------------------------------------------------------
# The kernels as they were before in-place accumulation: each Leibniz term is
# built as head * image * tail from whole polynomials, each substituted
# monomial as an ordered product, and everything is summed with ``+``.  Sum
# and product are reimplemented here too (odd signs by counting inversions),
# so the oracle shares no arithmetic with the kernels it checks.

def ref_add(p, q):
    acc = dict(p._terms)
    for key, c in q._terms.items():
        acc[key] = s_add(acc[key], c) if key in acc else c
    return GradedPoly(acc, p.odd_syms | q.odd_syms)


def ref_mul(p, q):
    acc = {}
    for (ev1, od1), c1 in p._terms.items():
        for (ev2, od2), c2 in q._terms.items():
            seq = od1 + od2
            if len(set(seq)) < len(seq):
                continue
            inversions = sum(a > b for i, a in enumerate(seq) for b in seq[i + 1:])
            ev = dict(ev1)
            for g, e in ev2:
                ev[g] = s_add(ev[g], e) if g in ev else e
            key = (tuple(sorted((g, e) for g, e in ev.items() if e != 0)),
                   tuple(sorted(seq)))
            c = s_mul(c1, c2) * (-1) ** inversions
            acc[key] = s_add(acc[key], c) if key in acc else c
    return GradedPoly(acc, p.odd_syms | q.odd_syms)


def ref_pow(p, n):
    out = GradedPoly.number(1, p.odd_syms)
    for _ in range(n):
        out = ref_mul(out, p)
    return out


def ref_derive(p, image_of, parity):
    out = GradedPoly.zero(p.odd_syms)
    for (even, odd), coeff in p._terms.items():
        for idx, (g, e) in enumerate(even):
            img = image_of(g)
            if img.is_zero:
                continue
            rest = list(even)
            e1 = s_add(e, -1)
            if e1 == 0:
                del rest[idx]
            else:
                rest[idx] = (g, e1)
            head = GradedPoly({(tuple(rest), ()): s_mul(coeff, e)}, p.odd_syms)
            tail = GradedPoly({((), odd): 1}, p.odd_syms)
            out = ref_add(out, ref_mul(ref_mul(head, img), tail))
        for i, g in enumerate(odd):
            img = image_of(g)
            if img.is_zero:
                continue
            c = coeff if not (parity and i % 2) else -coeff
            head = GradedPoly({(even, odd[:i]): c}, p.odd_syms)
            tail = GradedPoly({((), odd[i + 1:]): 1}, p.odd_syms)
            out = ref_add(out, ref_mul(ref_mul(head, img), tail))
    return out


def ref_dx(p, k=1, xrules=None):
    xrules = xrules or {}
    for _ in range(k):
        odd = p.odd_syms
        p = ref_derive(p, lambda g: xrules[g[0]] if g[0] in xrules
                       else GradedPoly.gen(g[0], g[1] + 1, odd_syms=odd), 0)
    return p


def ref_t_prolong(p):
    return ref_derive(
        p, lambda g: GradedPoly.gen(marker(g[0]), g[1], odd_syms=p.odd_syms), 0)


def ref_apply_derivation(p, d):
    def image_of(g):
        sym, order = g
        img = d.base[sym] if sym in d.base else ref_t_prolong(d.base[base_symbol(sym)])
        return ref_dx(img, order)

    return ref_derive(GradedPoly(p._terms, p.odd_syms | d.odd_symbols()), image_of, 1)


def ref_substitute(p, image_of):
    out = GradedPoly.zero(p.odd_syms)
    for (even, odd), coeff in p._terms.items():
        kept, repl = [], []
        for g, e in even:
            q = image_of(g)
            if q is None:
                kept.append((g, e))
            else:
                repl.append(ref_pow(q, e))
        term = GradedPoly({(tuple(kept), ()): coeff}, p.odd_syms)
        for q in repl:
            term = ref_mul(term, q)
        for g in odd:
            q = image_of(g)
            term = ref_mul(term, GradedPoly.gen(g[0], g[1], odd_syms=p.odd_syms)
                           if q is None else q)
        out = ref_add(out, term)
    return out


def ref_reduce_on_shell(p, rhs):
    def image_of(g):
        return ref_dx(rhs[base_symbol(g[0])], g[1]) if g[0].endswith("_t") else None
    return ref_substitute(p, image_of)


def ref_substitute_family(p, sym, replacement):
    seeds = {sym: replacement, marker(sym): ref_t_prolong(replacement)}
    return ref_substitute(
        p, lambda g: ref_dx(seeds[g[0]], g[1]) if g[0] in seeds else None)


def ref_formal_partial(p, g):
    """The left partial: an odd g is first moved to the front of its factors."""
    out = GradedPoly.zero(p.odd_syms)
    for (even, odd), coeff in p._terms.items():
        if g in odd:
            j = odd.index(g)
            rest = GradedPoly({(even, odd[:j] + odd[j + 1:]): s_mul(coeff, (-1) ** j)},
                              p.odd_syms)
            out = ref_add(out, rest)
        for idx, (h, e) in enumerate(even):
            if h == g:
                rest = list(even)
                e1 = s_add(e, -1)
                if e1 == 0:
                    del rest[idx]
                else:
                    rest[idx] = (h, e1)
                out = ref_add(out, GradedPoly({(tuple(rest), odd): s_mul(coeff, e)},
                                              p.odd_syms))
    return out


def ref_euler_operator(p, sym):
    out = GradedPoly.zero(p.odd_syms)
    for i in range(p.max_order(sym) + 1):
        term = ref_dx(ref_formal_partial(p, (sym, i)), i)
        out = ref_add(out, term if i % 2 == 0 else -term)
    return out


def ref_odd_gradient(p, sym):
    out = GradedPoly.zero(p.odd_syms)
    for (even, odd), coeff in p._terms.items():
        term = ref_dx(GradedPoly({(even, ()): coeff}, p.odd_syms), odd[0][1])
        out = ref_add(out, term if odd[0][1] % 2 == 0 else -term)
    return out


BETA = parameter("beta")
KDV = build_system("kdv")
# zeroth-order exponents beyond positive integers: fractional and symbolic
WILD_EXPONENTS = (Fraction(1, 2), Fraction(-3, 2), BETA, BETA + 1, 1 - BETA)
oracle_coeffs = coeffs | st.sampled_from([BETA, -BETA / 3, 2 * BETA ** 2 - 1])


@st.composite
def oracle_polys(draw, wild="T", markers=False, max_odd=2):
    """Polynomials in u, u_x.. u_xxx, T and the ghost c, with rational and
    symbolic coefficients; the zeroth-order generator ``wild`` also takes
    fractional and symbolic exponents, and ``markers`` adds u_t, u_t_x, c_t."""
    evens = [("u", k) for k in range(4)] + [("T", 0)] * (wild == "T")
    odds = [("c", k) for k in range(3)]
    if markers:
        evens += [("u_t", 0), ("u_t", 1)]
        odds.append(("c_t", 0))
    terms = []
    for _ in range(draw(st.integers(0, 5))):
        even = []
        for _ in range(draw(st.integers(0, 3))):
            g = draw(st.sampled_from(evens))
            ints = st.integers(1, 3)
            exps = ints | st.sampled_from(WILD_EXPONENTS) if g == (wild, 0) else ints
            even.append((g, draw(exps)))
        odd = draw(st.lists(st.sampled_from(odds), max_size=max_odd, unique=True))
        terms.append((draw(oracle_coeffs), even, odd))
    return from_triples(terms)


def exact(p):
    """The term dict with coefficient types, so 2 and Fraction(2) differ."""
    return p.odd_syms, {k: (type(c), c) for k, c in p._terms.items()}


REPLACEMENT = parse("(beta)*v_x - 1/3*w*c", odd=("c",))
# slice B's ghost rule cm_x = 2*R*cm, and an even rule T_x = R*T that meets
# T's fractional and symbolic powers; every term of the factor has one of them
SLICE_ODD = ("c", "cm")
XRULES = {"cm": parse("2*R*cm", odd=SLICE_ODD), "T": parse("R*T", odd=SLICE_ODD)}
XRULE_FACTOR = parse("cm + (beta)*R*T^2 - 1/2*R_x*cm", odd=SLICE_ODD)
# factors whose terms collide, and partly cancel, once reduced or substituted
ON_SHELL_CLASH = parse("u_t - 3*u*u_x")
SUBSTITUTION_CLASH = parse("u - (beta)*v_x")

ORACLE_CASES = {
    "total_x_derivative": (oracle_polys(), total_x_derivative, ref_dx),
    "total_x_derivative_xrules": (oracle_polys().map(lambda p: p * XRULE_FACTOR),
                                  lambda p: total_x_derivative(p, XRULES),
                                  lambda p: ref_dx(p, xrules=XRULES)),
    "apply_derivation": (oracle_polys(wild="u"),
                         lambda p: apply_derivation(p, KDV.brst),
                         lambda p: ref_apply_derivation(p, KDV.brst)),
    # the markers u_t, u_t_x and c_t map to the prolonged images
    "apply_derivation_markers": (oracle_polys(wild="u", markers=True),
                                 lambda p: apply_derivation(p, KDV.brst),
                                 lambda p: ref_apply_derivation(p, KDV.brst)),
    "t_prolong": (oracle_polys(wild="u"), t_prolong, ref_t_prolong),
    "reduce_on_shell": (oracle_polys(markers=True).map(lambda p: p * ON_SHELL_CLASH),
                        lambda p: reduce_on_shell(p, KDV),
                        lambda p: ref_reduce_on_shell(p, KDV.rhs)),
    "substitute_family": (oracle_polys(markers=True).map(lambda p: p * SUBSTITUTION_CLASH),
                          lambda p: substitute_family(p, "u", REPLACEMENT),
                          lambda p: ref_substitute_family(p, "u", REPLACEMENT)),
    "euler_operator_u": (oracle_polys(), lambda p: euler_operator(p, "u"),
                         lambda p: ref_euler_operator(p, "u")),
    "euler_operator_T": (oracle_polys(), lambda p: euler_operator(p, "T"),
                         lambda p: ref_euler_operator(p, "T")),
    # up to two ghost factors, so the left partial's sign (-1)^j is reached
    "euler_operator_c": (oracle_polys(), lambda p: euler_operator(p, "c"),
                         lambda p: ref_euler_operator(p, "c")),
    "odd_gradient": (oracle_polys(max_odd=1).map(
                         lambda p: GradedPoly({k: c for k, c in p._terms.items()
                                               if len(k[1]) == 1}, ODD)),
                     lambda p: odd_gradient(p, "c"),
                     lambda p: ref_odd_gradient(p, "c")),
}


@pytest.mark.parametrize("name", sorted(ORACLE_CASES))
@settings(max_examples=60)
@given(data=st.data())
def test_kernels_match_reference(name, data):
    polys, kernel, reference = ORACLE_CASES[name]
    p = data.draw(polys)
    assert exact(kernel(p)) == exact(reference(p))


def test_dx_zero_test_count(monkeypatch):
    # 20 terms in, 55 out; rebuilding the sum after every Leibniz term took
    # 2,289 zero tests, accumulating in place takes one per cancellation.
    # Each zero test checks the sum just taken, so the sums are counted
    calls = []

    def counted(a, b):
        calls.append(a)
        return s_add(a, b)

    p = parse("u_xx^2 + u^3*u_x + u*u_x*u_xxx + u^4") ** 3
    monkeypatch.setattr(graded, "s_add", counted)
    d = total_x_derivative(p)
    assert (len(p), len(d)) == (20, 55)
    assert 0 < len(calls) <= 400


def loop_euler_operator(p, sym):
    """E = sum_i (-D)^i d_i p with every power of D applied to its own partial:
    the m(m+1)/2-derivative form that the kernel's Horner chain replaced."""
    one, zero = GradedPoly.number(1, p.odd_syms), GradedPoly.zero(p.odd_syms)
    parity = int(base_symbol(sym) in p.odd_syms)
    acc = {}
    for i in range(p.max_order(sym) + 1):
        part = graded._derive(p, lambda g: one if g == (sym, i) else zero, parity)
        for _ in range(i):
            part = total_x_derivative(part)
        for key, c in part._terms.items():
            graded._acc(acc, key, -c if i % 2 else c)
    return GradedPoly(acc, p.odd_syms)


@settings(max_examples=80)
@given(polys | even_polys, st.sampled_from((1, 2) + WILD_EXPONENTS),
       st.sampled_from(["u", "T", "c"]))
def test_horner_euler_matches_the_jet_sum(p, e, sym):
    # T^e * p puts fractional and symbolic exponents on T beside p's own terms
    p = p + gen("T", 0, e) * p
    got, want = euler_operator(p, sym), loop_euler_operator(p, sym)
    assert got == want
    assert to_string(got) == to_string(want)
    assert exact(got) == exact(want)


# --- jet memo -----------------------------------------------------------------

def fresh(p):
    """An equal polynomial that shares no memoized jets with ``p``."""
    return GradedPoly._of(dict(p._terms), p.odd_syms)


def count_dx_calls(monkeypatch):
    calls = []
    real = graded.total_x_derivative

    def counted(p, rules=None):
        calls.append(p)
        return real(p, rules)

    monkeypatch.setattr(graded, "total_x_derivative", counted)
    return calls


def test_rule_images_are_prolonged_once(monkeypatch):
    p = P("u*u_xxx*c_xx + u_xx^2*c")
    q = t_prolong(p)
    brst = DerivationRuleSet("fresh", {s: fresh(img) for s, img in KDV.brst.base.items()})
    rhs = {s: fresh(r) for s, r in KDV.rhs.items()}
    calls = count_dx_calls(monkeypatch)
    first = apply_derivation(p, brst), reduce_on_shell(q, rhs)
    # D^3 and D^2 of the u and c images for u_xxx and c_xx, then of the u and
    # c flows for the markers u_t_xxx and c_t_xx
    assert len(calls) == 3 + 2 + 3 + 2
    apply_derivation(p, KDV.brst), reduce_on_shell(q, KDV)
    calls.clear()
    again = apply_derivation(p, KDV.brst), reduce_on_shell(q, KDV)
    assert calls == []
    assert [to_string(r) for r in again] == [to_string(r) for r in first]


def test_substitute_family_takes_the_marker_seed_once(monkeypatch):
    p = P("u_t_xx*c + u_t_x*u + u_t + u_xx")
    want = ref_substitute_family(p, "u", REPLACEMENT)
    calls = count_dx_calls(monkeypatch)
    got = substitute_family(p, "u", fresh(REPLACEMENT))
    # D^2 of the replacement for u_xx, D^2 of its time derivative for u_t_x and u_t_xx
    assert len(calls) == 2 + 2
    assert exact(got) == exact(want)


def test_xrules_prolong_their_own_images():
    odd = ("c", "cm")
    img = parse("R*cm", odd=odd)
    plain = DerivationRuleSet("plain", {"v": img})
    aux = DerivationRuleSet("aux", {"v": img}, xrules={"cm": parse("2*R*cm", odd=odd)})
    v_xx = parse("v_xx", odd=odd)
    for _ in range(2):  # each order of use, with the other set's jets already taken
        assert apply_derivation(v_xx, aux) == parse(
            "R_xx*cm + 6*R*R_x*cm + 4*R^3*cm", odd=odd)
        assert apply_derivation(v_xx, plain) == parse(
            "R_xx*cm + 2*R_x*cm_x + R*cm_xx", odd=odd)
    assert [to_string(j) for j in img._jets] == ["R_x*cm + R*cm_x",
                                                 "R_xx*cm + 2*R_x*cm_x + R*cm_xx"]


def test_concurrent_prolongation_gets_the_serial_answers():
    img = fresh(KDV.brst.base["u"])
    serial, d = [], fresh(img)
    for _ in range(8):
        d = total_x_derivative(d)
        serial.append(to_string(d))
    start, wrong = threading.Barrier(4), []

    def prolong(orders):
        start.wait(timeout=60)
        for k in orders:
            got = to_string(graded._dx_power(img, k, None))
            if got != serial[k - 1]:
                wrong.append(k)

    threads = [threading.Thread(target=prolong, args=(orders,))
               for orders in ((8, 1, 4), (1, 2, 3, 5, 8), (6, 2, 7), (3, 7, 5, 1))]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)  # switch threads inside the memo's read-extend-store
    try:
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in threads)
    assert wrong == []
    # a thread may store a shorter memo over a longer one; never a wrong jet
    memo = [to_string(j) for j in img._jets]
    assert memo and memo == serial[:len(memo)]


def test_threads_share_the_key_memos_and_jets():
    # the key-helper caches and the rules' jets are process-wide; four threads
    # fill them at once, from cold, and must each get the serial answers
    p = P("u*u_xxx + u_xx^2*c + u^2*u_x*c_x + 3*u_x^3 - u*c_xxx + u_x*c*c_x") ** 3

    def job(brst):
        q = fresh(p)
        return [exact(r) for r in (euler_operator(q, "u"), euler_operator(q, "c"),
                                   apply_derivation(q, brst), graded._dx_power(q, 3, None))]

    def fresh_brst():
        return DerivationRuleSet("fresh", {s: fresh(img) for s, img in KDV.brst.base.items()})

    serial = job(fresh_brst())
    shared, start, results = fresh_brst(), threading.Barrier(4), [None] * 4

    def run(k):
        start.wait(timeout=60)
        results[k] = job(shared)

    graded._merge_even.cache_clear()
    graded._sort_odd.cache_clear()
    threads = [threading.Thread(target=run, args=(k,)) for k in range(4)]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=120)
    finally:
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in threads)
    assert results == [serial] * 4


# sha256 of the catalog text `brstkdv list-systems` prints and of the twelve
# canonical rule images, as they printed before rule images kept their jets;
# an intended change to the catalog or the rules updates these digests
CATALOG_SHA256 = "b694aef6fa69564e27122a08b087992210c42befc9120f7cb2c9a52d16092fc5"
CANONICAL_SHA256 = "a226a04b54c299bb35933e973eacbb856611f262215b913e6e57808a6acb83a9"


def test_catalog_and_canonical_rules_print_as_before():
    def digests():
        rules = canonical_brst_rules().base
        text = "\n".join(f"{s} {to_string(rules[s])}" for s in sorted(rules))
        return [hashlib.sha256(t.encode()).hexdigest() for t in (catalog_manifest(), text)]

    assert digests() == [CATALOG_SHA256, CANONICAL_SHA256]
    # prolong every catalog image and flow far, then print again
    for name in SYSTEM_NAMES:
        kw = {"beta": BETA, "s": parameter("s")} if name == "t-form" else {}
        system = build_system(name, **kw)
        for img in [*system.brst.base.values(), *system.rhs.values()]:
            if img is not None:
                graded._dx_power(img, 4, None)
    assert digests() == [CATALOG_SHA256, CANONICAL_SHA256]
