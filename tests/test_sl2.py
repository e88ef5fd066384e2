"""Structure constants, generator matrices, and the canonical odd symmetry.

The generator matrices live here, as exact sympy matrices, and are the
ground truth: the structure table is checked against an oracle that
decomposes matrix commutators directly in the chosen basis and against the
trace formula, the rescaled table against the brackets of the rescaled
matrices, and the twelve transformation rules are frozen here in
hand-expanded form.
"""

import itertools

import numpy as np
import pytest
import sympy as sp
from hypothesis import given
from hypothesis import strategies as st

from brstkdv.graded import GradedPoly, apply_derivation
from brstkdv.grammar import parse
from brstkdv.sl2 import (
    BASIS,
    CANONICAL_EVEN,
    CANONICAL_FIELDS,
    CANONICAL_ODD,
    E_WEIGHTS,
    SUFFIX,
    canonical_brst_rules,
    commutator_components,
    constraint_polynomials,
    curvature_residual,
    epsilon_lower,
    killing_form,
    rescaled_table,
    structure_constant,
    structure_table,
)

IDX = {"0": 0, "+": 1, "-": 2}
ETA = ((1, 0, 0), (0, 0, 1), (0, 1, 0))


def generator_matrices():
    """The exact 2x2 generators {label: matrix}."""
    s = 1 / sp.sqrt(2)
    return {
        "0": sp.Matrix([[sp.Rational(1, 2), 0], [0, -sp.Rational(1, 2)]]),
        "+": sp.Matrix([[0, s], [0, 0]]),
        "-": sp.Matrix([[0, 0], [s, 0]]),
    }


def matrix_structure_constants():
    """f_ab^c from the exact matrices via f_ab^c = 2 tr([T_a, T_b] T_d) eta^dc."""
    T = generator_matrices()
    out = [[[0] * 3 for _ in range(3)] for _ in range(3)]
    for a, b, c in itertools.product(BASIS, repeat=3):
        comm = T[a] * T[b] - T[b] * T[a]
        val = sum(2 * (comm * T[d]).trace() * ETA[IDX[d]][IDX[c]] for d in BASIS)
        out[IDX[a]][IDX[b]][IDX[c]] = int(sp.nsimplify(sp.simplify(val)))
    return tuple(tuple(tuple(r) for r in m) for m in out)


def decompose(M):
    """Components of a traceless 2x2 sympy matrix in the (0, +, -) basis:
    M = x0 T0 + xp T+ + xm T-  with T0 = diag(1/2,-1/2), T+- = E12/sqrt2, E21/sqrt2.
    """
    assert sp.simplify(M.trace()) == 0
    return (2 * M[0, 0], sp.sqrt(2) * M[0, 1], sp.sqrt(2) * M[1, 0])


def test_structure_table_against_matrix_commutators():
    T = generator_matrices()
    for a, b in itertools.product(BASIS, repeat=2):
        comps = decompose(sp.expand(T[a] * T[b] - T[b] * T[a]))
        for c in BASIS:
            assert sp.simplify(comps[IDX[c]] - structure_constant(a, b, c)) == 0


def test_structure_table_nonzero_entries():
    assert structure_constant("0", "+", "+") == 1
    assert structure_constant("0", "-", "-") == -1
    assert structure_constant("+", "-", "0") == 1
    f = structure_table()
    nonzero = sum(1 for m in f for r in m for v in r if v)
    assert nonzero == 6  # the three above and their antisymmetric partners
    for a, b, c in itertools.product(BASIS, repeat=3):
        assert structure_constant(a, b, c) == -structure_constant(b, a, c)


def test_library_matrix_derivation_agrees():
    assert matrix_structure_constants() == structure_table()


def test_rescaled_table_against_rescaled_matrix_brackets():
    # E0 = T0 = diag(1/2, -1/2), E+ = sqrt2 T+ = E12, E- = sqrt2 T- = E21
    T = generator_matrices()
    E = {a: sp.sqrt(2) ** E_WEIGHTS[IDX[a]] * T[a] for a in BASIS}
    g = rescaled_table()
    for a, b in itertools.product(BASIS, repeat=2):
        M = sp.expand(E[a] * E[b] - E[b] * E[a])
        comps = (2 * M[0, 0], M[0, 1], M[1, 0])
        for c in BASIS:
            assert sp.simplify(comps[IDX[c]] - g[IDX[a]][IDX[b]][IDX[c]]) == 0
    assert (g[0][1][1], g[0][2][2], g[1][2][0]) == (1, -1, 2)


def test_rescaled_table_rescales_an_injected_table():
    f = [list(map(list, m)) for m in structure_table()]
    f[IDX["+"]][IDX["-"]][IDX["0"]] = 3
    assert rescaled_table(f)[IDX["+"]][IDX["-"]][IDX["0"]] == 6
    f[IDX["0"]][IDX["+"]][IDX["0"]] = 1  # [E0, E+] ~ sqrt2 E0/2: not rational
    with pytest.raises(ValueError, match="no rational image"):
        rescaled_table(f)


def test_killing_form_from_traces():
    T = generator_matrices()
    for a, b in itertools.product(BASIS, repeat=2):
        assert sp.simplify(2 * (T[a] * T[b]).trace()) == killing_form(a, b)
    eta = np.array([[killing_form(a, b) for b in BASIS] for a in BASIS])
    assert np.array_equal(eta @ eta, np.eye(3))  # self-inverse


def test_lowered_constants_are_totally_antisymmetric():
    assert epsilon_lower("0", "+", "-") == 1
    for a, b, c in itertools.product(BASIS, repeat=3):
        assert epsilon_lower(a, b, c) == -epsilon_lower(b, a, c)
        assert epsilon_lower(a, b, c) == -epsilon_lower(a, c, b)
    # and it is the alternating symbol on distinct labels
    labels = list(itertools.permutations(BASIS))
    vals = {p: epsilon_lower(*p) for p in labels}
    assert set(vals.values()) == {1, -1}


@given(st.lists(st.integers(-3, 3), min_size=6, max_size=6))
def test_commutator_components_match_matrices(vals):
    x, y = vals[:3], vals[3:]
    T = generator_matrices()
    X = sum((sp.Rational(x[IDX[a]]) * T[a] for a in BASIS), sp.zeros(2))
    Y = sum((sp.Rational(y[IDX[a]]) * T[a] for a in BASIS), sp.zeros(2))
    want = decompose(sp.expand(X * Y - Y * X))
    got = commutator_components(x, y)
    for i in range(3):
        assert sp.simplify(sp.Rational(got[i]) - want[i]) == 0


def test_curvature_residual_numeric():
    # constant abelian-direction connection: F = [A0, A1]
    n = 4
    zeros = [np.zeros(n)] * 3
    a0 = [np.ones(n), np.zeros(n), np.zeros(n)]       # A0 = T_0
    a1 = [np.zeros(n), np.ones(n), np.zeros(n)]       # A1 = T_+
    res = curvature_residual(zeros, zeros, a0, a1)
    assert np.allclose(res[0], 0) and np.allclose(res[2], 0)
    assert np.allclose(res[1], 1.0)  # f_{0+}^+ = 1


# --- canonical multiplet ------------------------------------------------------


def O(text):
    return parse(text, odd=CANONICAL_ODD)


def test_field_name_conventions():
    assert SUFFIX == {"0": "0", "+": "p", "-": "m"}
    assert CANONICAL_EVEN == ("a0", "ap", "am", "p0", "pp", "pm")
    assert CANONICAL_ODD == ("c0", "cp", "cm", "m0", "mp", "mm")
    assert len(CANONICAL_FIELDS) == 12


def test_constraint_polynomials_expanded():
    phi = constraint_polynomials()
    assert phi["0"] == O("p0_x + ap*pp - am*pm")
    assert phi["+"] == O("pp_x - a0*pp + am*p0")
    assert phi["-"] == O("pm_x + a0*pm - ap*p0")


EXPECTED_RULES = {
    # ghosts: -1/2 f_bc^a c^b c^c
    "c0": "-cp*cm",
    "cp": "-c0*cp",
    "cm": "c0*cm",
    # connection: d/dx c^a + f_bc^a a1^b c^c
    "a0": "c0_x + ap*cm - am*cp",
    "ap": "cp_x + a0*cp - ap*c0",
    "am": "cm_x - a0*cm + am*c0",
    # momenta: -f_ab^c p_c c^b
    "p0": "-pp*cp + pm*cm",
    "pp": "pp*c0 - p0*cm",
    "pm": "-pm*c0 + p0*cp",
    # odd multipliers: phi_a - f_ab^d c^b m_d
    "m0": "p0_x + ap*pp - am*pm - cp*mp + cm*mm",
    "mp": "pp_x - a0*pp + am*p0 + c0*mp - cm*m0",
    "mm": "pm_x + a0*pm - ap*p0 - c0*mm + cp*m0",
}


def test_canonical_rules_frozen_forms():
    rules = canonical_brst_rules()
    assert set(rules.base) == set(EXPECTED_RULES)
    for sym, text in EXPECTED_RULES.items():
        assert rules.base[sym] == O(text), sym


def test_canonical_rules_parity():
    rules = canonical_brst_rules()
    assert rules.parity == 1
    for sym in CANONICAL_EVEN:
        assert rules.base[sym].parity() == 1
    for sym in CANONICAL_ODD:
        assert rules.base[sym].parity() == 0


def test_nilpotency_on_all_generators():
    rules = canonical_brst_rules()
    for sym in CANONICAL_FIELDS:
        g = GradedPoly.gen(sym, odd_syms=frozenset(CANONICAL_ODD))
        assert apply_derivation(apply_derivation(g, rules), rules).is_zero, sym


@given(st.sampled_from(CANONICAL_FIELDS), st.sampled_from(CANONICAL_FIELDS))
def test_nilpotency_on_products(s1, s2):
    rules = canonical_brst_rules()
    odd = frozenset(CANONICAL_ODD)
    p = GradedPoly.gen(s1, odd_syms=odd) * GradedPoly.gen(s2, 1, odd_syms=odd)
    assert apply_derivation(apply_derivation(p, rules), rules).is_zero


def _nilpotency_failures(f):
    rules = canonical_brst_rules(f)
    bad = []
    for sym in CANONICAL_FIELDS:
        g = GradedPoly.gen(sym, odd_syms=frozenset(CANONICAL_ODD))
        if not apply_derivation(apply_derivation(g, rules), rules).is_zero:
            bad.append(sym)
    return bad


def test_nilpotency_fails_when_jacobi_breaks():
    f = [list(map(list, m)) for m in structure_table()]
    f[IDX["0"]][IDX["+"]][IDX["+"]] = 2   # antisymmetric but violates Jacobi
    f[IDX["+"]][IDX["0"]][IDX["+"]] = -2
    assert _nilpotency_failures(f)


def test_nilpotency_survives_bracket_rescaling():
    # f_{+-}^0 -> 2 is still a Lie algebra (rescale T_+-), so delta^2 = 0 holds;
    # a mutation test must break Jacobi, not merely renormalise the bracket
    f = [list(map(list, m)) for m in structure_table()]
    f[IDX["+"]][IDX["-"]][IDX["0"]] = 2
    f[IDX["-"]][IDX["+"]][IDX["0"]] = -2
    assert _nilpotency_failures(f) == []
