"""Parser for the textual polynomial syntax, including the round trip
through to_string."""

from fractions import Fraction

import pytest
from hypothesis import given
from hypothesis import strategies as st

from brstkdv import GradedPoly, ParseError, parse, to_string
from brstkdv.graded import parameter


def test_simple_parse():
    p = parse("3*u*u_x + u_xxx")
    assert p == 3 * GradedPoly.gen("u") * GradedPoly.gen("u", 1) + GradedPoly.gen("u", 3)


def test_rational_coefficients_and_signs():
    assert parse("1/2*u - 3/4*u_x") == \
        Fraction(1, 2) * GradedPoly.gen("u") - Fraction(3, 4) * GradedPoly.gen("u", 1)
    assert parse("-u") == -GradedPoly.gen("u")
    assert parse("-1/2*u + u") == Fraction(1, 2) * GradedPoly.gen("u")


def test_derivative_suffixes():
    assert parse("u_x") == GradedPoly.gen("u", 1)
    assert parse("u_xxxx") == GradedPoly.gen("u", 4)
    assert parse("u_5x") == GradedPoly.gen("u", 5)
    assert parse("u_12x") == GradedPoly.gen("u", 12)


def test_time_markers():
    assert parse("u_t") == GradedPoly.gen("u_t")
    assert parse("u_t_xx") == GradedPoly.gen("u_t", 2)
    with pytest.raises(ParseError):
        parse("u_t_t")
    with pytest.raises(ParseError):
        parse("u_xx_t")  # marker must come before x-suffixes


def test_exponents():
    assert parse("u^3") == GradedPoly.gen("u", 0, 3)
    assert parse("u^-2") == GradedPoly.gen("u", 0, -2)
    assert parse("T^1/2") == GradedPoly.gen("T", 0, Fraction(1, 2))
    assert parse("T^3/2") == GradedPoly.gen("T", 0, Fraction(3, 2))


def test_symbolic_exponents_and_coefficients():
    beta = parameter("beta")
    assert parse("T^beta") == GradedPoly.gen("T", 0, beta)
    assert parse("T^(beta-1)") == GradedPoly.gen("T", 0, beta - 1)
    assert parse("(beta+1)*T") == (beta + 1) * GradedPoly.gen("T")
    assert parse("(2*beta+1)*T^beta*T_x") == \
        (2 * beta + 1) * GradedPoly.gen("T", 0, beta) * GradedPoly.gen("T", 1)


def test_odd_header_and_parameter():
    p = parse("odd: c; u*c_x")
    assert p.odd_syms == frozenset({"c"})
    q = parse("u*c_x", odd=("c",))
    assert p == q
    assert parse("c*c", odd=("c",)).is_zero
    r = parse("odd: c, cm; R*cm + c")
    assert r.odd_syms == frozenset({"c", "cm"})


def test_odd_anticommutation_through_parser():
    assert parse("c_x*c", odd=("c",)) == -parse("c*c_x", odd=("c",))


def test_explicit_star_required():
    with pytest.raises(ParseError):
        parse("3u")
    with pytest.raises(ParseError):
        parse("u u_x")


def test_error_positions():
    with pytest.raises(ParseError) as ei:
        parse("u + ")
    assert ei.value.position == 4
    with pytest.raises(ParseError) as ei:
        parse("(beta")
    assert isinstance(ei.value.position, int)


def test_malformed_inputs():
    for bad in ("", "^2", "u^", "u**2", "u_", "u_y", "*u", "u +* u"):
        with pytest.raises(ParseError):
            parse(bad)


def test_zero_denominator_is_a_parse_error():
    # a coefficient, an exponent and a parenthesised scalar; each used to
    # escape as ZeroDivisionError
    for bad in ("1/0", "1/0*u", "u^1/0", "u^(1/0)", "(1/0)*u", "(2*1/0)*u"):
        with pytest.raises(ParseError, match="zero denominator"):
            parse(bad)


def test_fractional_power_of_derivative_rejected():
    with pytest.raises(ValueError):
        parse("u_x^1/2")


def test_scalar_field_name_clash():
    with pytest.raises(ParseError):
        parse("(u+1)*u")  # u cannot be both a parameter and a field


# --- round trip ---------------------------------------------------------------

coeffs = st.fractions(min_value=-4, max_value=4, max_denominator=6).filter(bool)


@st.composite
def random_polys(draw):
    terms = []
    for _ in range(draw(st.integers(0, 4))):
        coeff = draw(coeffs)
        even = tuple(
            ((draw(st.sampled_from(["u", "T"])), draw(st.integers(0, 3))),
             draw(st.integers(1, 3)))
            for _ in range(draw(st.integers(0, 2)))
        )
        orders = draw(st.lists(st.integers(0, 3), max_size=2, unique=True))
        terms.append((coeff, even, tuple(("c", o) for o in orders)))
    return GradedPoly.from_terms(terms, odd_syms=frozenset({"c"}))


@given(random_polys())
def test_round_trip(p):
    assert parse(to_string(p), odd=("c",)) == p


def test_round_trip_fractional_and_symbolic():
    for text in ("1/2*T^-1/2*T_x", "(beta+1)*T^beta", "2*T^1/2*c_x + 1/4*T^-1/2*c_xxx"):
        p = parse(text, odd=("c",))
        assert parse(to_string(p), odd=("c",)) == p


def test_round_trip_markers():
    p = parse("T_t - 1/2*u_xxx - 2*u_x*T - u*T_x")
    assert parse(to_string(p)) == p
