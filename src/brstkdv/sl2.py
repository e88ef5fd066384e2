"""sl(2,R) structure data and the canonical graded symmetry of the
first-order gauge multiplet.

Basis labels are "0", "+", "-".  The generators T0 = diag(1/2, -1/2),
T+ = E12/sqrt2, T- = E21/sqrt2 are normalised so that
tr(T_a T_b) = eta_ab / 2 with eta_00 = 1, eta_+- = eta_-+ = 1; the
structure constants are then f_{0+}^+ = 1, f_{0-}^- = -1, f_{+-}^0 = 1
(antisymmetric in the lower pair), and the fully lowered constants
f_abc = f_ab^d eta_dc coincide with the antisymmetric symbol normalised by
f_{0+-} = +1.  In the rescaled basis E0 = T0, E+- = sqrt2 T+- every
constant is an integer (``rescaled_table``), so connections whose
components are polynomials stay exact there.

Field-name convention for the canonical multiplet (suffix 0/p/m for the
basis label): a* for the spatial connection, p* for its conjugate momenta,
c* for ghosts, m* for the odd multipliers paired with the constraints.

The bracket, the Gauss law and every rule of the canonical symmetry are
built from two contractions of the structure constants with a pair of
component triples: the raised one, f_bd^a x^b y^d (the commutator
[x, y]^a; ghost and connection rules), and the lowered one,
f_ab^d x^b y^d (the constraints, momentum and multiplier rules).
"""

from __future__ import annotations

import itertools
from fractions import Fraction

from .graded import DerivationRuleSet, GradedPoly

__all__ = [
    "BASIS",
    "SUFFIX",
    "CANONICAL_EVEN",
    "CANONICAL_ODD",
    "CANONICAL_FIELDS",
    "structure_constant",
    "structure_table",
    "killing_form",
    "E_WEIGHTS",
    "rescaled_table",
    "commutator_components",
    "curvature_residual",
    "constraint_polynomials",
    "canonical_brst_rules",
]

BASIS = ("0", "+", "-")
SUFFIX = {"0": "0", "+": "p", "-": "m"}

CANONICAL_EVEN = ("a0", "ap", "am", "p0", "pp", "pm")
CANONICAL_ODD = ("c0", "cp", "cm", "m0", "mp", "mm")
CANONICAL_FIELDS = CANONICAL_EVEN + CANONICAL_ODD

_IDX = {"0": 0, "+": 1, "-": 2}

# n_a of the rescaled basis E_a = 2^(n_a/2) T_a: E0 = T0, E+- = sqrt2 T+-
E_WEIGHTS = (0, 1, 1)

# eta_ab = 2 tr(T_a T_b); self-inverse, so it raises and lowers alike
_ETA = ((1, 0, 0), (0, 0, 1), (0, 1, 0))


def structure_table():
    """f[a][b][c] = f_ab^c as a nested tuple of ints."""
    f = [[[0] * 3 for _ in range(3)] for _ in range(3)]
    for (a, b, c), v in {("0", "+", "+"): 1, ("0", "-", "-"): -1, ("+", "-", "0"): 1}.items():
        f[_IDX[a]][_IDX[b]][_IDX[c]] = v
        f[_IDX[b]][_IDX[a]][_IDX[c]] = -v
    return tuple(tuple(tuple(r) for r in m) for m in f)


_F = structure_table()


def structure_constant(a, b, c):
    """f_ab^c for basis labels a, b, c."""
    return _F[_IDX[a]][_IDX[b]][_IDX[c]]


def killing_form(a, b):
    """eta_ab = 2 tr(T_a T_b)."""
    return _ETA[_IDX[a]][_IDX[b]]


def rescaled_table(f=None):
    """g[a][b][c] = g_ab^c, a structure table ``f`` (default the shipped
    one) in the rescaled basis E_a = 2^(n_a/2) T_a, n = E_WEIGHTS, where
    [E_a, E_b] = g_ab^c E_c with g_ab^c = f_ab^c 2^((n_a + n_b - n_c)/2).
    The shipped table becomes g_{0+}^+ = 1, g_{0-}^- = -1, g_{+-}^0 = 2,
    all rational; an entry whose rescaling would be irrational raises."""
    f = _F if f is None else f
    out = [[[0] * 3 for _ in range(3)] for _ in range(3)]
    for a, b, c in itertools.product(range(3), repeat=3):
        if f[a][b][c]:
            k, odd = divmod(E_WEIGHTS[a] + E_WEIGHTS[b] - E_WEIGHTS[c], 2)
            if odd:
                raise ValueError(f"f_{BASIS[a]}{BASIS[b]}^{BASIS[c]} has no rational "
                                 "image in the rescaled basis")
            out[a][b][c] = f[a][b][c] * 2 ** k
    return tuple(tuple(tuple(r) for r in m) for m in out)


def _acc(acc, term):
    return term if acc is None else acc + term


def _contract(x, y, f, lower):
    """For each basis position a, the sum of f_bd^a x^b y^d, or of
    f_ab^d x^b y^d when ``lower`` is set (component triples of polys or
    arrays)."""
    out = []
    for a in range(3):
        acc = None
        for b in range(3):
            for d in range(3):
                v = f[a][b][d] if lower else f[b][d][a]
                if v:
                    acc = _acc(acc, v * (x[b] * y[d]))
        out.append(acc if acc is not None else 0 * (x[0] * y[0]))
    return out


def commutator_components(x, y, f=None):
    """[x, y]^a = f_bc^a x^b y^c for component triples (polys or arrays)."""
    return _contract(x, y, _F if f is None else f, lower=False)


def curvature_residual(dt_a1, dx_a0, a0, a1, f=None):
    """Components of dt A1 - dx A0 + [A0, A1], given the derivative grids."""
    quad = commutator_components(a0, a1, f=f)
    return [dt_a1[a] - dx_a0[a] + quad[a] for a in range(3)]


# ---------------------------------------------------------------------------
# canonical multiplet

def _ogen(sym, order=0):
    return GradedPoly.gen(sym, order, odd_syms=frozenset(CANONICAL_ODD))


def _fields(prefix):
    return [_ogen(prefix + SUFFIX[lab]) for lab in BASIS]


def constraint_polynomials(f=None):
    """Gauss-law densities phi_a = d/dx p_a + f_ab^c a1^b p_c, fully expanded."""
    f = _F if f is None else f
    quad = _contract(_fields("a"), _fields("p"), f, lower=True)
    return {lab: _ogen("p" + SUFFIX[lab], 1) + q for lab, q in zip(BASIS, quad)}


def canonical_brst_rules(f=None):
    """The odd symmetry of the canonical multiplet as a rule set.

    On ghosts:      d c^a  = -1/2 f_bc^a c^b c^c
    on connection:  d a1^a = d/dx c^a + f_bc^a a1^b c^c
    on momenta:     d p_a  = -f_ab^c p_c c^b
    on multipliers: d m_a  = phi_a - f_ab^d c^b m_d

    A nonstandard structure table may be injected for sensitivity tests.
    """
    f = _F if f is None else f
    a1, p, c, m = (_fields(prefix) for prefix in "apcm")
    phi = constraint_polynomials(f)
    rules = (
        ("c", [Fraction(-1, 2) * q for q in _contract(c, c, f, lower=False)]),
        ("a", [_ogen("c" + SUFFIX[lab], 1) + q
               for lab, q in zip(BASIS, _contract(a1, c, f, lower=False))]),
        ("p", [-q for q in _contract(c, p, f, lower=True)]),
        ("m", [phi[lab] - q for lab, q in zip(BASIS, _contract(c, m, f, lower=True))]),
    )
    base = {prefix + SUFFIX[lab]: poly
            for prefix, polys in rules for lab, poly in zip(BASIS, polys)}
    return DerivationRuleSet("canonical-brst", base=base)
