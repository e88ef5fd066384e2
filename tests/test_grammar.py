"""Parser for the textual polynomial syntax, including the round trip
through to_string."""

from fractions import Fraction

import pytest
from hypothesis import given
from hypothesis import strategies as st

from brstkdv import GradedPoly, ParseError, parse, to_string
from brstkdv.graded import parameter
from brstkdv.reductions import build_system


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


# --- golden table -------------------------------------------------------------
# the printed form of each text, or the ParseError message and position

GOLDEN = [
    ('3*u*u_x + u_xxx', '3*u*u_x + u_xxx'),
    ('-1/2*u + u', '1/2*u'),
    ('+u - u_x', 'u - u_x'),
    ('u_5x*u_12x', 'u_5x*u_12x'),
    ('u_t_xx - u_xx', '-u_xx + u_t_xx'),
    ('T_t - 1/2*u_xxx - 2*u_x*T - u*T_x', '-2*T*u_x - T_x*u + T_t - 1/2*u_xxx'),
    ('(beta+1)*T', '(beta + 1)*T'),
    ('(2*beta+1)*T^beta*T_x', '(2*beta + 1)*T^(beta)*T_x'),
    ('(beta)*(beta)*u', '(beta**2)*u'),
    ('((beta+1)*(beta-1))*u', '(beta**2 - 1)*u'),
    ('(1/2)*(2/3)*u', '1/3*u'),
    ('(-beta + 1/2)*u', '(1/2 - beta)*u'),
    ('(beta-beta)*u', '0'),
    ('(s*1/2)*u + (alpha+2)*u', '(alpha + s/2 + 2)*u'),
    ('u^-2', 'u^-2'),
    ('T^3/2', 'T^3/2'),
    ('T^-1/2*T_x', 'T^-1/2*T_x'),
    ('T^beta', 'T^(beta)'),
    ('T^-beta', 'T^(-beta)'),
    ('T^(beta-1)', 'T^(beta - 1)'),
    ('T^(-beta)', 'T^(-beta)'),
    ('T^((beta+1)*(beta-1))', 'T^(beta**2 - 1)'),
    ('T^(beta-beta+2)', 'T^2'),
    ('T^(1/2+1/2)', 'T'),
    ('u^beta*u^(1-beta)', 'u'),
    ('odd: c; u*c_x', 'u*c_x'),
    ('odd: c, cm; R*cm + c', 'c + R*cm'),
    ('odd:c;c_x*c', '-c*c_x'),
    ('odd: c; c*c + u', 'u'),
    ('', ('expected a factor', 0)),
    ('^2', ('expected a factor', 0)),
    ('u^', ('expected an exponent', 2)),
    ('u**2', ('expected a factor', 2)),
    ('u_', ("malformed suffix after '_'", 1)),
    ('u_y', ("malformed suffix after '_'", 1)),
    ('*u', ('expected a factor', 0)),
    ('u +* u', ('expected a factor', 3)),
    ('u + ', ('expected a factor', 4)),
    ('3u', ("unexpected character 'u'", 1)),
    ('u u_x', ("unexpected character 'u'", 2)),
    ('(beta', ("expected ')'", 5)),
    ('(beta))', ("unexpected character ')'", 6)),
    ('()*u', ('expected a number or parameter name', 1)),
    ('T^-(beta)', 'T^(-beta)'),
    ('T^+2', ('expected an exponent', 2)),
    ('u^--1', ('expected an exponent', 3)),
    ('u_xx_t', ('time marker must precede x-derivative suffixes (write u_t_... )', 4)),
    ('u_t_t', ('repeated time marker', 3)),
    ('u_0x', ('derivative count must be positive', 1)),
    ('u_3y', ("expected 'x' after derivative count", 1)),
    ('u_x^1/2', ('generator u_x: derivative generators only take positive integer exponents, got 1/2', 0)),
    ('u_x^(beta)', ('generator u_x: derivative generators only take positive integer exponents, got beta', 0)),
    ('odd: c; c^beta', ('odd generator c with exponent beta', 8)),
    ('odd: c', ("expected ';'", 6)),
    ('odd: ; c', ('expected an odd symbol name', 5)),
    ('(u+1)*u', ("name(s) used both as scalar parameter and field: ['u']", 0)),
    ('(1/2/3)*u', ("expected ')'", 4)),
    ('1/0', ('zero denominator', 3)),
    ('1/0*u', ('zero denominator', 3)),
    ('u^1/0', ('zero denominator', 5)),
    ('u^(1/0)', ('zero denominator', 6)),
    ('(1/0)*u', ('zero denominator', 4)),
    ('(2*1/0)*u', ('zero denominator', 6)),
    # a name declared odd is a field, whether or not it occurs as one
    ('odd: c; u^c', ("name(s) used both as scalar parameter and field: ['c']", 0)),
    ('odd: c; (c)*u', ("name(s) used both as scalar parameter and field: ['c']", 0)),
    # digits beyond ASCII that int() cannot read are not digits here
    ('u^²', ('expected an exponent', 2)),
    ('²*u', ('expected a factor', 0)),
    ('u_²x', ("malformed suffix after '_'", 1)),
    # sympy's printed coefficients: an integer power and divisor after a
    # name or a parenthesised scalar
    ('(beta**2*s/2)*u', '(beta**2*s/2)*u'),
    ('(beta/2 + 1/2)*u', '(beta/2 + 1/2)*u'),
    ('((beta+1)**2)*u', '(beta**2 + 2*beta + 1)*u'),
    ('T^beta/2', 'T^(beta/2)'),
    # a power or divisor needs its integer; a number literal takes no power
    ('(beta**)*u', ('expected an integer power up to 64', 7)),
    ('((beta+1)**65)*u', ('expected an integer power up to 64', 13)),
    ('(beta/)*u', ('expected denominator', 6)),
    ('(beta/0)*u', ('zero denominator', 7)),
    ('(2**2)*u', ('expected a number or parameter name', 3)),
    ('u_xa', ('malformed derivative suffix', 1)),
    ('u_5xa', ('malformed derivative suffix', 1)),
]


def test_parentheses_nest_at_most_64_deep():
    assert to_string(parse("(" * 64 + "2" + ")" * 64 + "*u")) == "2*u"
    assert to_string(parse("u^" + "(" * 64 + "2" + ")" * 64)) == "u^2"
    for text in ["(" * 65 + "2" + ")" * 65 + "*u", "u^" + "(" * 65 + "2" + ")" * 65]:
        with pytest.raises(ParseError) as ei:
            parse(text)
        # at the first parenthesis past the cap
        assert ei.value.position == text.index("(") + 64
        assert str(ei.value).startswith("parentheses nest deeper than 64")
    # far below the interpreter's recursion limit, which 250 levels reached
    with pytest.raises(ParseError, match="deeper than 64"):
        parse("(" * 250 + "1" + ")" * 250 + "*u")


@pytest.mark.parametrize("text, expected", GOLDEN)
def test_golden_parse(text, expected):
    if isinstance(expected, str):
        assert to_string(parse(text)) == expected
        return
    message, position = expected
    with pytest.raises(ParseError) as ei:
        parse(text)
    assert str(ei.value) == f"{message} (at position {position})"
    assert ei.value.position == position


# --- round trip ---------------------------------------------------------------

coeffs = st.fractions(min_value=-4, max_value=4, max_denominator=6).filter(bool)


@st.composite
def random_polys(draw):
    odd = frozenset({"c"})
    p = GradedPoly.zero(odd)
    for _ in range(draw(st.integers(0, 4))):
        term = GradedPoly.number(draw(coeffs), odd)
        for _ in range(draw(st.integers(0, 2))):
            sym, order = draw(st.sampled_from(["u", "T"])), draw(st.integers(0, 3))
            term = term * GradedPoly.gen(sym, order, draw(st.integers(1, 3)), odd_syms=odd)
        for order in draw(st.lists(st.integers(0, 3), max_size=2, unique=True)):
            term = term * GradedPoly.gen("c", order, odd_syms=odd)
        p = p + term
    return p


@given(random_polys())
def test_round_trip(p):
    assert parse(to_string(p), odd=("c",)) == p


def test_round_trip_fractional_and_symbolic():
    for text in ("1/2*T^-1/2*T_x", "(beta+1)*T^beta", "2*T^1/2*c_x + 1/4*T^-1/2*c_xxx"):
        p = parse(text, odd=("c",))
        assert parse(to_string(p), odd=("c",)) == p


def test_signed_exponent_spellings_agree():
    assert parse("T^-beta") == parse("T^-(beta)") == parse("T^(-beta)")
    assert parse("T^-(beta+1)") == parse("T^(-beta-1)")


def test_round_trip_markers():
    p = parse("T_t - 1/2*u_xxx - 2*u_x*T - u*T_x")
    assert parse(to_string(p)) == p


def test_parametric_catalog_round_trips():
    # every polynomial of the t-form at symbolic (beta, s) prints in the
    # grammar: its flows, its rule images and its densities
    tf = build_system("t-form", beta="beta", s="s")
    polys = [*tf.rhs.values(), *tf.brst.base.values(),
             *(d.density for d in tf.densities.values())]
    assert len(polys) == 8
    for p in polys:
        assert parse(to_string(p), odd=("c",)) == p, to_string(p)
