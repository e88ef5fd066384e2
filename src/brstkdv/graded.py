"""Exact Grassmann-graded differential polynomial algebra.

Values are polynomials in jet generators ``u, u_x, u_xx, ...`` of declared
even and odd field symbols, with exact rational coefficients.  Odd
generators anticommute and square to zero; each monomial keeps its odd
factors in a fixed global order (field symbol, then derivative order) and
the sign of the sorting permutation is absorbed into the coefficient, so
equal polynomials have identical term dictionaries.

Two extensions beyond plain rationals are supported exactly:

* the zeroth-derivative generator of a field may carry a rational (or
  symbolic) exponent, e.g. ``T^(1/2)`` or ``T^beta``, with the chain rule
  ``d/dx T^q = q T^(q-1) T_x``; derivative generators only take positive
  integer exponents;
* coefficients and exponents are promoted to sympy expressions when a free
  parameter (such as ``beta``) enters, so identities can be verified for a
  symbolic parameter without floating point.

Time derivatives are not part of the jet structure.  They appear as marker
fields named ``u_t`` (which may themselves carry x-derivative orders, e.g.
``u_t_x``) and are only eliminated by :func:`reduce_on_shell`.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction

import sympy as sp

__all__ = [
    "GradedPoly",
    "DerivationRuleSet",
    "as_scalar",
    "parameter",
    "total_x_derivative",
    "apply_derivation",
    "t_prolong",
    "reduce_on_shell",
    "substitute_family",
    "euler_operator",
    "odd_gradient",
    "marker",
    "base_symbol",
    "to_string",
]


# ---------------------------------------------------------------------------
# scalars: Fraction fast path, sympy expressions when a parameter is present

def parameter(name):
    """A free scalar parameter usable in coefficients and exponents."""
    return sp.Symbol(name)


def as_scalar(x):
    """Coerce to an exact scalar.  Floats are rejected to preserve exactness."""
    if isinstance(x, bool):
        raise TypeError("bool is not a scalar")
    if isinstance(x, Fraction):
        return _normalize_fraction(x)
    if isinstance(x, int):
        return x
    if isinstance(x, str):
        return _normalize_fraction(Fraction(x))
    if isinstance(x, sp.Basic):
        if x.is_Rational:
            return _normalize_fraction(Fraction(int(x.p), int(x.q)))
        return sp.expand(x)
    raise TypeError(f"not an exact scalar: {x!r}")


def _normalize_fraction(f):
    return int(f) if f.denominator == 1 else f


def _lift(x):
    if isinstance(x, sp.Basic):
        return x
    if isinstance(x, int):
        return sp.Integer(x)
    return sp.Rational(x.numerator, x.denominator)


def s_add(a, b):
    if isinstance(a, sp.Basic) or isinstance(b, sp.Basic):
        return as_scalar(sp.expand(_lift(a) + _lift(b)))
    return _normalize_fraction(Fraction(a) + Fraction(b))


def s_mul(a, b):
    if isinstance(a, sp.Basic) or isinstance(b, sp.Basic):
        return as_scalar(sp.expand(_lift(a) * _lift(b)))
    return _normalize_fraction(Fraction(a) * Fraction(b))


def s_neg(a):
    return -a


def s_div(a, b):
    if isinstance(a, sp.Basic) or isinstance(b, sp.Basic):
        return as_scalar(sp.expand(sp.cancel(_lift(a) / _lift(b))))
    return _normalize_fraction(Fraction(a) / Fraction(b))


def s_is_zero(a):
    if isinstance(a, sp.Basic):
        return a.is_zero is True
    return a == 0


# ---------------------------------------------------------------------------
# generators

def marker(sym):
    """Name of the time-derivative marker field of ``sym``."""
    if sym.endswith("_t"):
        raise ValueError(f"second time derivative of '{sym[:-2]}' is not representable")
    return sym + "_t"


def base_symbol(sym):
    """Field symbol with a trailing time marker stripped (``u_t`` -> ``u``)."""
    return sym[:-2] if sym.endswith("_t") else sym


def _sym_is_odd(sym, odd_syms):
    return base_symbol(sym) in odd_syms


def _gen_str(gen):
    sym, order = gen
    if order == 0:
        return sym
    if order <= 4:
        return sym + "_" + "x" * order
    return f"{sym}_{order}x"


def _exp_sort_key(e):
    if isinstance(e, sp.Basic):
        return (1, str(e), 0)
    f = Fraction(e)
    return (0, f.numerator, f.denominator)


def _term_sort_key(key):
    even, odd = key
    return (odd, tuple((g, _exp_sort_key(e)) for g, e in even))


def _merge_odd(od1, od2):
    """Merge two sorted odd-generator tuples; returns (tuple, sign) or (None, 0)."""
    if not od1:
        return od2, 1
    if not od2:
        return od1, 1
    merged = []
    sign = 1
    i = j = 0
    while i < len(od1) and j < len(od2):
        a, b = od1[i], od2[j]
        if a == b:
            return None, 0
        if a < b:
            merged.append(a)
            i += 1
        else:
            # b jumps over the remaining len(od1)-i odd factors of od1
            if (len(od1) - i) % 2:
                sign = -sign
            merged.append(b)
            j += 1
    merged.extend(od1[i:])
    merged.extend(od2[j:])
    return tuple(merged), sign


def _sort_odd(odd):
    """Sort an odd factor sequence, tracking the permutation sign; dup -> None."""
    seq = list(odd)
    sign = 1
    # insertion sort; factor counts are tiny
    for i in range(1, len(seq)):
        j = i
        while j > 0 and seq[j - 1] > seq[j]:
            seq[j - 1], seq[j] = seq[j], seq[j - 1]
            sign = -sign
            j -= 1
        if j > 0 and seq[j - 1] == seq[j]:
            return None, 0
    return tuple(seq), sign


def _check_exponent(gen, e):
    if gen[1] > 0 and not (isinstance(e, int) and e >= 1):
        raise ValueError(
            f"generator {_gen_str(gen)}: derivative generators only take "
            f"positive integer exponents, got {e}"
        )


# ---------------------------------------------------------------------------
# the polynomial

class GradedPoly:
    """Immutable graded differential polynomial.

    Internally a map from (even_factors, odd_factors) to a scalar
    coefficient, where even_factors is a sorted tuple of ((sym, order), exp)
    and odd_factors a sorted tuple of (sym, order).
    """

    __slots__ = ("_terms", "odd_syms")

    def __init__(self, terms=None, odd_syms=frozenset()):
        self.odd_syms = frozenset(odd_syms)
        pruned = {}
        for key, coeff in (terms or {}).items():
            if not s_is_zero(coeff):
                pruned[key] = coeff
        self._terms = pruned

    # -- constructors -------------------------------------------------------

    @classmethod
    def zero(cls, odd_syms=frozenset()):
        return cls({}, odd_syms)

    @classmethod
    def number(cls, q, odd_syms=frozenset()):
        q = as_scalar(q)
        return cls({((), ()): q}, odd_syms)

    @classmethod
    def gen(cls, sym, order=0, exp=1, odd_syms=frozenset()):
        exp = as_scalar(exp)
        g = (sym, order)
        if _sym_is_odd(sym, odd_syms):
            if exp == 0:
                return cls.number(1, odd_syms)
            if exp != 1:
                if isinstance(exp, int) and exp >= 2:
                    return cls.zero(odd_syms)
                raise ValueError(f"odd generator {_gen_str(g)} with exponent {exp}")
            return cls({((), (g,)): 1}, odd_syms)
        if s_is_zero(exp):
            return cls.number(1, odd_syms)
        _check_exponent(g, exp)
        return cls({(((g, exp),), ()): 1}, odd_syms)

    @classmethod
    def from_terms(cls, triples, odd_syms=frozenset()):
        """Build from (coeff, even_factors, odd_factor_sequence) triples.

        Odd sequences may be unsorted; the permutation sign is absorbed and
        repeated odd generators annihilate the term.
        """
        odd_syms = frozenset(odd_syms)
        acc = {}
        for coeff, even, odd in triples:
            coeff = as_scalar(coeff)
            ev = {}
            for g, e in even:
                g = (g[0], g[1])
                if _sym_is_odd(g[0], odd_syms):
                    raise ValueError(f"odd symbol {g[0]} used as an even factor")
                e = as_scalar(e)
                if g in ev:
                    e = s_add(ev[g], e)
                ev[g] = e
            ev = tuple(sorted((g, e) for g, e in ev.items() if not s_is_zero(e)))
            for g, e in ev:
                _check_exponent(g, e)
            od, sign = _sort_odd(tuple(odd))
            if od is None:
                continue
            for g in od:
                if not _sym_is_odd(g[0], odd_syms):
                    raise ValueError(f"even symbol {g[0]} used as an odd factor")
            if sign < 0:
                coeff = s_neg(coeff)
            key = (ev, od)
            acc[key] = s_add(acc[key], coeff) if key in acc else coeff
        return cls(acc, odd_syms)

    # -- inspection ----------------------------------------------------------

    @property
    def is_zero(self):
        return not self._terms

    def terms(self):
        """Iterate (coeff, even_factors, odd_factors), canonically ordered."""
        for key in sorted(self._terms, key=_term_sort_key):
            even, odd = key
            yield self._terms[key], even, odd

    def __len__(self):
        return len(self._terms)

    def parity(self):
        """0 (even), 1 (odd), or None for a mixed-parity polynomial."""
        seen = {len(od) % 2 for (_, od) in self._terms}
        if not seen:
            return 0
        if len(seen) > 1:
            return None
        return seen.pop()

    def symbols(self):
        out = set()
        for (even, odd) in self._terms:
            out.update(g[0] for g, _ in even)
            out.update(g[0] for g in odd)
        return out

    def max_order(self, sym):
        """Highest x-derivative order of ``sym`` present, or -1 if absent."""
        m = -1
        for (even, odd) in self._terms:
            for g, _ in even:
                if g[0] == sym:
                    m = max(m, g[1])
            for g in odd:
                if g[0] == sym:
                    m = max(m, g[1])
        return m

    def has_markers(self):
        return any(sym.endswith("_t") for sym in self.symbols())

    # -- arithmetic ----------------------------------------------------------

    def _merged_odds(self, other):
        odd_syms = self.odd_syms | other.odd_syms
        if odd_syms != self.odd_syms:
            for (even, _) in self._terms:
                for g, _e in even:
                    if _sym_is_odd(g[0], odd_syms):
                        raise ValueError(f"symbol {g[0]} is even here but odd elsewhere")
        if odd_syms != other.odd_syms:
            for (even, _) in other._terms:
                for g, _e in even:
                    if _sym_is_odd(g[0], odd_syms):
                        raise ValueError(f"symbol {g[0]} is even here but odd elsewhere")
        return odd_syms

    def __add__(self, other):
        if not isinstance(other, GradedPoly):
            other = GradedPoly.number(other)
        odd_syms = self._merged_odds(other)
        acc = dict(self._terms)
        for key, coeff in other._terms.items():
            acc[key] = s_add(acc[key], coeff) if key in acc else coeff
        return GradedPoly(acc, odd_syms)

    __radd__ = __add__

    def __neg__(self):
        return GradedPoly({k: s_neg(c) for k, c in self._terms.items()}, self.odd_syms)

    def __sub__(self, other):
        if not isinstance(other, GradedPoly):
            other = GradedPoly.number(other)
        return self + (-other)

    def __rsub__(self, other):
        return (-self) + other

    def _scale(self, q):
        q = as_scalar(q)
        if s_is_zero(q):
            return GradedPoly.zero(self.odd_syms)
        return GradedPoly({k: s_mul(c, q) for k, c in self._terms.items()}, self.odd_syms)

    def __mul__(self, other):
        if not isinstance(other, GradedPoly):
            return self._scale(other)
        odd_syms = self._merged_odds(other)
        acc = {}
        for (ev1, od1), c1 in self._terms.items():
            for (ev2, od2), c2 in other._terms.items():
                od, sign = _merge_odd(od1, od2)
                if od is None:
                    continue
                ev = dict(ev1)
                for g, e in ev2:
                    ev[g] = s_add(ev[g], e) if g in ev else e
                key = (tuple(sorted((g, e) for g, e in ev.items() if not s_is_zero(e))), od)
                c = s_mul(c1, c2)
                if sign < 0:
                    c = s_neg(c)
                acc[key] = s_add(acc[key], c) if key in acc else c
        return GradedPoly(acc, odd_syms)

    def __rmul__(self, other):
        # scalars commute with everything
        return self._scale(other)

    def __pow__(self, n):
        if not isinstance(n, int) or n < 0:
            raise ValueError("polynomial powers must be non-negative integers")
        out = GradedPoly.number(1, self.odd_syms)
        b = self
        while n:
            if n & 1:
                out = out * b
            b = b * b
            n >>= 1
        return out

    def __eq__(self, other):
        if not isinstance(other, GradedPoly):
            if isinstance(other, (int, Fraction, sp.Basic, str)):
                other = GradedPoly.number(other)
            else:
                return NotImplemented
        return (self - other).is_zero

    __hash__ = None

    def __str__(self):
        return to_string(self)

    def __repr__(self):
        return f"GradedPoly({to_string(self)})"


# ---------------------------------------------------------------------------
# printing

def _coeff_str(c):
    if isinstance(c, sp.Basic):
        return "(" + str(c) + ")", False
    neg = c < 0
    c = abs(c)
    if isinstance(c, Fraction):
        return f"{c.numerator}/{c.denominator}", neg
    return str(c), neg


def _exp_str(e):
    if isinstance(e, sp.Basic):
        return "(" + str(e) + ")"
    if isinstance(e, int):
        return str(e)
    return f"{e.numerator}/{e.denominator}"


def to_string(p):
    """Canonical printing: sorted monomials, reduced fractional coefficients."""
    if p.is_zero:
        return "0"
    pieces = []
    for coeff, even, odd in p.terms():
        cs, neg = _coeff_str(coeff)
        factors = []
        for g, e in even:
            s = _gen_str(g)
            if e != 1:
                s += "^" + _exp_str(e)
            factors.append(s)
        factors.extend(_gen_str(g) for g in odd)
        if not factors:
            body = cs
        elif cs == "1":
            body = "*".join(factors)
        else:
            body = cs + "*" + "*".join(factors)
        pieces.append(("-" if neg else "+", body))
    sign, body = pieces[0]
    out = ("-" if sign == "-" else "") + body
    for sign, body in pieces[1:]:
        out += f" {sign} {body}"
    return out


# ---------------------------------------------------------------------------
# derivations

@dataclass(frozen=True)
class DerivationRuleSet:
    """A derivation given by its action on zeroth-derivative generators.

    ``parity`` is 0 for an even derivation and 1 for an odd one (an odd
    derivation picks up a sign each time it passes an odd factor).  The
    derivation commutes with d/dx; images of derivative generators are
    obtained by prolongation.  ``xrules`` carries explicit d/dx substitutions
    for constrained generators (fields whose x-derivative is not a new jet
    generator but a polynomial, e.g. a covariantly constant ghost).
    """

    name: str
    parity: int
    base: dict = field(default_factory=dict)
    xrules: dict = field(default_factory=dict)

    def __post_init__(self):
        if self.parity not in (0, 1):
            raise ValueError("parity must be 0 or 1")

    def odd_symbols(self):
        out = set()
        for img in list(self.base.values()) + list(self.xrules.values()):
            out |= img.odd_syms
        return frozenset(out)

    def extended_with_markers(self, syms=None):
        """Add rules for time markers: d(u_t) := d/dt of d(u).

        Only valid for fields whose base image is itself marker free.
        """
        syms = list(self.base) if syms is None else list(syms)
        base = dict(self.base)
        for sym in syms:
            img = self.base[sym]
            if img.has_markers() and marker(sym) not in base:
                raise ValueError(
                    f"cannot prolong rule for '{sym}' in time: its image "
                    "already contains time markers"
                )
            if not img.has_markers():
                base[marker(sym)] = t_prolong(img)
        return DerivationRuleSet(self.name + "+markers", self.parity, base, dict(self.xrules))


def _structural_x_image(g, xrules, odd_syms):
    sym, order = g
    if xrules and sym in xrules:
        if order:
            raise ValueError(
                f"generator {_gen_str(g)}: symbol carries an explicit d/dx rule, "
                "derivative generators of it must not appear"
            )
        return xrules[sym]
    return GradedPoly.gen(sym, order + 1, odd_syms=odd_syms)


def _derive(p, image_of, parity):
    """Apply a derivation given the image of every generator.

    Graded Leibniz rule: passing an odd derivation over k odd factors costs
    (-1)^k; even factors never contribute a sign.
    """
    out = GradedPoly.zero(p.odd_syms)
    for (even, odd), coeff in p._terms.items():
        for idx, (g, e) in enumerate(even):
            img = image_of(g)
            if img.is_zero:
                continue
            rest = list(even)
            e1 = s_add(e, -1)
            if s_is_zero(e1):
                del rest[idx]
            else:
                rest[idx] = (g, e1)
            head = GradedPoly({(tuple(rest), ()): s_mul(coeff, e)}, p.odd_syms)
            tail = GradedPoly({((), odd): 1}, p.odd_syms)
            out = out + head * img * tail
        for i, g in enumerate(odd):
            img = image_of(g)
            if img.is_zero:
                continue
            c = coeff if not (parity and i % 2) else s_neg(coeff)
            head = GradedPoly({(even, odd[:i]): c}, p.odd_syms)
            tail = GradedPoly({((), odd[i + 1:]): 1}, p.odd_syms)
            out = out + head * img * tail
    return out


def total_x_derivative(p, rules=None):
    """d/dx with jet prolongation; ``rules`` may supply explicit substitutions."""
    xrules = rules.xrules if isinstance(rules, DerivationRuleSet) else (rules or {})
    odd_syms = p.odd_syms
    for img in xrules.values():
        odd_syms = odd_syms | img.odd_syms
    return _derive(p, lambda g: _structural_x_image(g, xrules, odd_syms), parity=0)


def _dx_power(p, k, xrules):
    for _ in range(k):
        p = total_x_derivative(p, xrules)
    return p


def apply_derivation(p, d):
    """Apply a :class:`DerivationRuleSet` to ``p``."""
    odd_syms = p.odd_syms | d.odd_symbols()
    cache = {}

    def image_of(g):
        sym, order = g
        if g in cache:
            return cache[g]
        if sym not in d.base:
            raise KeyError(f"derivation '{d.name}' has no rule for generator '{sym}'")
        img = d.base[sym]
        if order:
            img = _dx_power(img, order, d.xrules or None)
        cache[g] = img
        return img

    q = GradedPoly(p._terms, odd_syms)
    return _derive(q, image_of, d.parity)


def t_prolong(p):
    """Formal d/dt: every generator of ``u`` maps to the marker field ``u_t``."""
    def image_of(g):
        sym, order = g
        return GradedPoly.gen(marker(sym), order, odd_syms=p.odd_syms)

    return _derive(p, image_of, parity=0)


# ---------------------------------------------------------------------------
# substitution

def _substitute(p, image_of):
    """Replace generators by polynomials (image_of(g) -> poly or None to keep).

    Each monomial is rebuilt as an ordered product, so all anticommutation
    signs come out of the multiplication itself.
    """
    out = GradedPoly.zero(p.odd_syms)
    for (even, odd), coeff in p._terms.items():
        kept = []
        repl = []
        for g, e in even:
            q = image_of(g)
            if q is None:
                kept.append((g, e))
            else:
                if not (isinstance(e, int) and e >= 1):
                    raise ValueError(
                        f"cannot substitute into {_gen_str(g)}^{_exp_str(e)}: "
                        "only positive integer powers are substitutable"
                    )
                repl.append(q ** e)
        term = GradedPoly({(tuple(kept), ()): coeff}, p.odd_syms)
        for q in repl:
            term = term * q
        for g in odd:
            q = image_of(g)
            term = term * (GradedPoly.gen(g[0], g[1], odd_syms=p.odd_syms) if q is None else q)
        out = out + term
    return out


def reduce_on_shell(p, system):
    """Eliminate time markers using a system's evolution rules.

    ``system`` is anything with an ``rhs`` mapping {field symbol -> poly}
    (an EvolutionSystem), or a plain dict.  Markers of fields without a rule
    raise.
    """
    rhs = system if isinstance(system, dict) else system.rhs
    cache = {}

    def image_of(g):
        sym, order = g
        if not sym.endswith("_t"):
            return None
        base = base_symbol(sym)
        if base not in rhs or rhs[base] is None:
            raise ValueError(f"no evolution rule to reduce marker '{sym}'")
        if g not in cache:
            cache[g] = _dx_power(rhs[base], order, None)
        return cache[g]

    out = _substitute(p, image_of)
    if out.has_markers():
        raise ValueError("on-shell reduction left time markers behind")
    return out


def substitute_family(p, sym, replacement):
    """Replace the whole jet family of ``sym`` by prolongations of ``replacement``.

    Generators (sym, k) map to d^k/dx^k of the replacement; markers
    (sym_t, k) map to d^k/dx^k of its formal time derivative.
    """
    mk = marker(sym)
    cache = {}

    def image_of(g):
        s, order = g
        if s == sym:
            seed = replacement
        elif s == mk:
            seed = t_prolong(replacement)
        else:
            return None
        key = (s, order)
        if key not in cache:
            cache[key] = _dx_power(seed, order, None)
        return cache[key]

    return _substitute(p, image_of)


# ---------------------------------------------------------------------------
# variational operators

def _formal_partial(p, g):
    acc = {}
    for (even, odd), coeff in p._terms.items():
        for idx, (h, e) in enumerate(even):
            if h != g:
                continue
            rest = list(even)
            e1 = s_add(e, -1)
            if s_is_zero(e1):
                del rest[idx]
            else:
                rest[idx] = (h, e1)
            key = (tuple(rest), odd)
            c = s_mul(coeff, e)
            acc[key] = s_add(acc[key], c) if key in acc else c
    return GradedPoly(acc, p.odd_syms)


def euler_operator(p, sym):
    """Variational derivative of a density with respect to an even field:
    sum_i (-d/dx)^i of the formal partial with respect to the i-th jet.
    """
    if _sym_is_odd(sym, p.odd_syms):
        raise ValueError(f"euler_operator differentiates even fields only, '{sym}' is odd")
    if p.max_order(marker(sym)) >= 0:
        raise ValueError(f"density contains time markers of '{sym}'; reduce on shell first")
    out = GradedPoly.zero(p.odd_syms)
    sign = 1
    for i in range(p.max_order(sym) + 1):
        part = _formal_partial(p, (sym, i))
        if not part.is_zero:
            term = _dx_power(part, i, None)
            out = out + (term if sign > 0 else -term)
        sign = -sign
    return out


def odd_gradient(p, sym):
    """Variational derivative with respect to an odd field, for densities
    that are linear in that field's jet family.  Two densities that are
    linear in ``sym`` agree modulo total x-derivatives iff their gradients
    coincide.
    """
    if not _sym_is_odd(sym, p.odd_syms):
        raise ValueError(f"'{sym}' is not an odd symbol here")
    buckets = {}
    for (even, odd), coeff in p._terms.items():
        fam = [g for g in odd if base_symbol(g[0]) == base_symbol(sym)]
        if len(fam) != 1 or len(odd) != 1 or fam[0][0] != sym:
            raise ValueError(f"density is not linear in the '{sym}' family")
        order = fam[0][1]
        key = (even, ())
        buckets.setdefault(order, {})[key] = coeff
    out = GradedPoly.zero(p.odd_syms)
    for order, terms in buckets.items():
        part = GradedPoly(terms, p.odd_syms)
        term = _dx_power(part, order, None)
        out = out + (term if order % 2 == 0 else -term)
    return out
