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
* coefficients and exponents become expanded polynomials in named
  parameters (:class:`ParamPoly`, from :func:`parameter`) when one such as
  ``beta`` enters, so identities are verified for a symbolic parameter
  exactly and without floating point.  The module needs nothing beyond the
  standard library; a parameter polynomial prints in sympy's string form.

The total x-derivative and the Euler operator's left partials edit monomial
keys in place; the even merge and odd sort that other products call are
memoized, ``_KEY_CACHE`` entries each.

Time derivatives are not part of the jet structure.  They appear as marker
fields named ``u_t`` (which may themselves carry x-derivative orders, e.g.
``u_t_x``) and are only eliminated by :func:`reduce_on_shell`.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass, field
from fractions import Fraction

__all__ = [
    "GradedPoly",
    "DerivationRuleSet",
    "ParamPoly",
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
# scalars: int, Fraction, or a polynomial in named parameters

class ParamPoly:
    """An immutable polynomial in named parameters with exact rational
    coefficients: a map from monomials, sorted ((name, power), ...) tuples,
    to nonzero ints and Fractions.  Arithmetic returns a plain int or
    Fraction whenever the result is constant, so a ParamPoly is never
    constant and its zero test is exact.  ``str`` writes the expanded
    polynomial exactly as sympy prints it, without importing sympy.
    """

    __slots__ = ("_terms", "_hash", "_str")

    def __init__(self, terms):
        self._terms, self._hash, self._str = terms, None, None

    @property
    def names(self):
        """The parameters that occur."""
        return frozenset(v for mono in self._terms for v, _ in mono)

    def __add__(self, other):
        if not isinstance(other, _SCALARS):
            return NotImplemented
        acc = dict(self._terms)
        for mono, c in _monomials(other).items():
            _acc(acc, mono, c)
        return _collapse(acc)

    __radd__ = __add__

    def __neg__(self):
        return ParamPoly({mono: -c for mono, c in self._terms.items()})

    def __sub__(self, other):
        return self + (-other) if isinstance(other, _SCALARS) else NotImplemented

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        if not isinstance(other, _SCALARS):
            return NotImplemented
        acc = {}
        for m1, c1 in self._terms.items():
            for m2, c2 in _monomials(other).items():
                _acc(acc, _merge_even(m1, m2), s_mul(c1, c2))
        return _collapse(acc)

    __rmul__ = __mul__

    def __truediv__(self, other):
        if not isinstance(other, (int, Fraction)):
            return NotImplemented
        return self * Fraction(1, other)

    def __pow__(self, n):
        if not isinstance(n, int) or n < 0:
            return NotImplemented
        return functools.reduce(lambda acc, _: self * acc, range(n), 1)

    def __eq__(self, other):
        if isinstance(other, ParamPoly):
            return self._terms == other._terms
        return False if isinstance(other, (int, Fraction)) else NotImplemented

    def __hash__(self):
        if self._hash is None:
            self._hash = hash(frozenset(self._terms.items()))
        return self._hash

    def __str__(self):
        """Sympy's printed form of the expanded polynomial."""
        if self._str is None:
            names = sorted(self.names)
            # descending lex order of the exponent vectors, so the constant is last
            terms = sorted(self._terms.items(), reverse=True,
                           key=lambda t: [dict(t[0]).get(v, 0) for v in names])
            (m0, c0), (m1, c1) = terms[0], terms[-1]
            if len(terms) == 2 and m1 == () and c1 > 0 and c0 < 0 and len(m0) == 1:
                terms.reverse()  # sympy's one exception: 1 - beta, not -beta + 1
            out = ""
            for mono, c in terms:
                factors = [v if k == 1 else f"{v}**{k}" for v, k in mono]
                if abs(c.numerator) != 1 or not mono:
                    factors.insert(0, str(abs(c.numerator)))
                body = "*".join(factors)
                if c.denominator != 1:
                    body += f"/{c.denominator}"
                sign = "-" if c < 0 else "+"
                out = f"{out} {sign} {body}" if out else "-" * (c < 0) + body
            self._str = out
        return self._str

    __repr__ = __str__


_SCALARS = (int, Fraction, ParamPoly)


def _monomials(x):
    """The monomial dict of a scalar."""
    if isinstance(x, ParamPoly):
        return x._terms
    return {(): as_scalar(x)} if x else {}


def _collapse(terms):
    """The canonical scalar of a monomial dict with no zero coefficient."""
    if not terms:
        return 0
    if len(terms) == 1 and () in terms:
        return terms[()]
    return ParamPoly(terms)


def parameter(name):
    """A free scalar parameter usable in coefficients and exponents."""
    return ParamPoly({((name, 1),): 1})


def as_scalar(x):
    """Coerce to an exact scalar: an int, a Fraction (or its string) or a
    ParamPoly.  Floats and every other type are rejected to keep exactness."""
    if isinstance(x, bool):
        raise TypeError("bool is not a scalar")
    if isinstance(x, Fraction):
        return _normalize_fraction(x)
    if isinstance(x, (int, ParamPoly)):
        return x
    if isinstance(x, str):
        return _normalize_fraction(Fraction(x))
    raise TypeError(f"not an exact scalar: {x!r}")


def _normalize_fraction(f):
    return int(f) if f.denominator == 1 else f


def s_add(a, b):
    c = a + b
    return int(c) if type(c) is Fraction and c.denominator == 1 else c


def s_mul(a, b):
    c = a * b
    return int(c) if type(c) is Fraction and c.denominator == 1 else c


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
    if isinstance(e, ParamPoly):
        return (1, str(e), 0)
    f = Fraction(e)
    return (0, f.numerator, f.denominator)


def _term_sort_key(key):
    even, odd = key
    return (odd, tuple((g, _exp_sort_key(e)) for g, e in even))


_KEY_CACHE = 4096  # entries per key-helper memo; a run touches hundreds


@functools.lru_cache(maxsize=_KEY_CACHE)
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


@functools.lru_cache(maxsize=_KEY_CACHE)
def _merge_even(ev1, ev2):
    """Product of two canonical even-factor tuples (exponents add)."""
    if not ev1 or not ev2:
        return ev1 or ev2
    ev = dict(ev1)
    for g, e in ev2:
        if g in ev:
            e = s_add(ev[g], e)
            if e == 0:
                del ev[g]
                continue
        ev[g] = e
    return tuple(sorted(ev.items()))


def _acc(acc, key, c):
    """acc[key] += c for a nonzero c, deleting the key when it cancels."""
    if key in acc:
        c = s_add(acc[key], c)
        if c == 0:
            del acc[key]
            return
    acc[key] = c


def _mul_into(acc, even, head, tail, coeff, terms):
    """acc += coeff * even * head * q * tail, where ``terms`` is q's dict.

    ``even`` is a canonical even-factor tuple, ``head`` and ``tail`` sorted
    odd tuples whose concatenation is sorted.  Every graded sign of a
    product is taken here.
    """
    for (ev2, od2), c2 in terms.items():
        od, sign = _sort_odd(head + od2 + tail) if od2 else (head + tail, 1)
        if od is None:
            continue
        c = coeff if c2 == 1 else s_mul(coeff, c2)
        _acc(acc, (_merge_even(even, ev2), od), c if sign > 0 else -c)


def _merged_odds(*polys):
    """Union of the odd-symbol sets; a symbol even in one poly must not be odd."""
    odd_syms = frozenset().union(*(p.odd_syms for p in polys))
    for p in polys:
        if p.odd_syms != odd_syms:
            for (even, _) in p._terms:
                for g, _e in even:
                    if _sym_is_odd(g[0], odd_syms):
                        raise ValueError(f"symbol {g[0]} is even here but odd elsewhere")
    return odd_syms


def _jet(sym, order):
    if type(order) is not int or order < 0:
        raise ValueError(f"generator {sym!r}: derivative orders are non-negative ints, "
                         f"got {order!r}")
    return sym, order


def _lowered(even, idx, coeff):
    """``even`` up to its idx-th factor g^e, with g^(e-1) there, and coeff*e."""
    g, e = even[idx]
    e1 = s_add(e, -1)
    return even[:idx] + (() if e1 == 0 else ((g, e1),)), coeff if e == 1 else s_mul(coeff, e)


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
    and odd_factors a sorted tuple of (sym, order); ``_jets`` holds the plain
    total derivatives (D p, D^2 p, ...) that :func:`_dx_power` was asked for.
    """

    __slots__ = ("_terms", "odd_syms", "_jets")

    def __init__(self, terms=None, odd_syms=frozenset()):
        self.odd_syms, self._jets = frozenset(odd_syms), ()
        coeffs = ((key, as_scalar(c)) for key, c in (terms or {}).items())
        self._terms = {key: c for key, c in coeffs if c != 0}

    @classmethod
    def _of(cls, terms, odd_syms):
        """Wrap a dict that holds no zero coefficient, without copying it."""
        p = cls.__new__(cls)
        p._terms, p.odd_syms, p._jets = terms, odd_syms, ()
        return p

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
        g = _jet(sym, order)
        if _sym_is_odd(sym, odd_syms):
            if exp == 0:
                return cls.number(1, odd_syms)
            if exp != 1:
                if isinstance(exp, int) and exp >= 2:
                    return cls.zero(odd_syms)
                raise ValueError(f"odd generator {_gen_str(g)} with exponent {exp}")
            return cls({((), (g,)): 1}, odd_syms)
        if exp == 0:
            return cls.number(1, odd_syms)
        _check_exponent(g, exp)
        return cls({(((g, exp),), ()): 1}, odd_syms)

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

    def __add__(self, other):
        if not isinstance(other, GradedPoly):
            other = GradedPoly.number(other)
        odd_syms = _merged_odds(self, other)
        acc = dict(self._terms)
        for key, coeff in other._terms.items():
            _acc(acc, key, coeff)
        return GradedPoly._of(acc, odd_syms)

    __radd__ = __add__

    def __neg__(self):
        return GradedPoly._of({k: -c for k, c in self._terms.items()}, self.odd_syms)

    def __sub__(self, other):
        if not isinstance(other, GradedPoly):
            other = GradedPoly.number(other)
        return self + (-other)

    def __rsub__(self, other):
        return (-self) + other

    def _scale(self, q):
        q = as_scalar(q)
        if q == 0:
            return GradedPoly.zero(self.odd_syms)
        # no zero divisors: the product of nonzero scalars is nonzero
        return GradedPoly._of({k: s_mul(c, q) for k, c in self._terms.items()}, self.odd_syms)

    def __mul__(self, other):
        if not isinstance(other, GradedPoly):
            return self._scale(other)
        odd_syms = _merged_odds(self, other)
        acc = {}
        for (ev1, od1), c1 in self._terms.items():
            _mul_into(acc, ev1, od1, (), c1, other._terms)
        return GradedPoly._of(acc, odd_syms)

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
            n >>= 1
            if n:
                b = b * b
        return out

    def __eq__(self, other):
        if not isinstance(other, GradedPoly):
            try:
                other = GradedPoly.number(other)
            except TypeError:
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
    if isinstance(c, ParamPoly):
        return "(" + str(c) + ")", False
    neg = c < 0
    c = abs(c)
    if isinstance(c, Fraction):
        return f"{c.numerator}/{c.denominator}", neg
    return str(c), neg


def _exp_str(e):
    if isinstance(e, ParamPoly):
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
    """An odd derivation given by its action on zeroth-derivative generators;
    it picks up a sign each time it passes an odd factor.

    The derivation commutes with d/dx and d/dt: images of derivative
    generators and of time markers without a rule of their own are obtained
    by prolongation.  ``xrules`` carries explicit d/dx substitutions for
    constrained generators (fields whose x-derivative is not a new jet
    generator but a polynomial, e.g. a covariantly constant ghost).
    """

    name: str
    base: dict = field(default_factory=dict)
    xrules: dict = field(default_factory=dict)

    def odd_symbols(self):
        out = set()
        for img in list(self.base.values()) + list(self.xrules.values()):
            out |= img.odd_syms
        return frozenset(out)


def _derive(p, image_of, parity):
    """Apply a derivation given the image of every generator.

    Graded Leibniz rule: passing an odd derivation over k odd factors costs
    (-1)^k; even factors never contribute a sign.
    """
    acc, images = {}, {}
    for (even, odd), coeff in p._terms.items():
        for idx, (g, e) in enumerate(even):
            img = images[g] if g in images else images.setdefault(g, image_of(g))
            if img.is_zero:
                continue
            head, c = _lowered(even, idx, coeff)
            _mul_into(acc, head + even[idx + 1:], (), odd, c, img._terms)
        for i, g in enumerate(odd):
            img = images[g] if g in images else images.setdefault(g, image_of(g))
            if img.is_zero:
                continue
            c = coeff if not (parity and i % 2) else -coeff
            _mul_into(acc, even, odd[:i], odd[i + 1:], c, img._terms)
    used = [img for img in images.values() if not img.is_zero]
    return GradedPoly._of(acc, _merged_odds(p, *used))


def total_x_derivative(p, rules=None):
    """d/dx with jet prolongation; ``rules`` may supply explicit substitutions.

    Each Leibniz term edits a key: g^e becomes e g^(e-1) times the next jet,
    which sorts right after it; an odd factor steps to its next jet in place.
    The marker of a symbol with an x rule takes d/dt of that rule.
    """
    xrules = rules.xrules if isinstance(rules, DerivationRuleSet) else (rules or {})
    if xrules:
        xrules = {**{marker(s): t_prolong(r) for s, r in xrules.items()}, **xrules}
    acc = {}
    for (even, odd), coeff in p._terms.items():
        for idx, (g, _e) in enumerate(even):
            head, c = _lowered(even, idx, coeff)
            if g[0] in xrules:
                _mul_into(acc, head + even[idx + 1:], (), odd, c, _x_rule(xrules, g))
                continue
            nxt, tail = (g[0], g[1] + 1), even[idx + 1:]
            had = tail[0][1] if tail and tail[0][0] == nxt else 0  # next jet's power, or 0
            _acc(acc, (head + ((nxt, had + 1),) + (tail[1:] if had else tail), odd), c)
        for i, g in enumerate(odd):
            if g[0] in xrules:
                _mul_into(acc, even, odd[:i], odd[i + 1:], coeff, _x_rule(xrules, g))
            elif odd[i + 1:i + 2] != ((g[0], g[1] + 1),):  # else it squares to zero
                _acc(acc, (even, odd[:i] + ((g[0], g[1] + 1),) + odd[i + 1:]), coeff)
    return GradedPoly._of(acc, _merged_odds(p, *xrules.values()) if xrules else p.odd_syms)


def _x_rule(xrules, g):
    if g[1]:
        raise ValueError(f"generator {_gen_str(g)}: symbol carries an explicit d/dx rule, "
                         "derivative generators of it must not appear")
    return xrules[g[0]]._terms


def _dx_power(p, k, xrules):
    """D^k p.  Plain jets are memoized in ``p._jets``, replaced whole and never
    extended in place, so a concurrent caller can at worst recompute one."""
    if xrules:
        for _ in range(k):
            p = total_x_derivative(p, xrules)
        return p
    jets = p._jets
    while len(jets) < k:
        jets = p._jets = jets + (total_x_derivative(jets[-1] if jets else p),)
    return jets[k - 1] if k else p


def apply_derivation(p, d):
    """Apply a :class:`DerivationRuleSet` to ``p``.  A marker ``u_t`` without
    a rule of its own maps to d/dt of u's image; a second time derivative in
    that image raises."""
    odd_syms = _merged_odds(p, GradedPoly.zero(d.odd_symbols()))

    def image_of(g):
        sym, order = g
        if sym in d.base:
            img = d.base[sym]
        elif base_symbol(sym) in d.base:  # a marker of a ruled field
            img = t_prolong(d.base[base_symbol(sym)])
        else:
            raise KeyError(f"derivation '{d.name}' has no rule for generator '{sym}'")
        return _dx_power(img, order, d.xrules or None)

    return _derive(GradedPoly._of(p._terms, odd_syms), image_of, parity=1)


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
    acc, images = {}, {}
    for (even, odd), coeff in p._terms.items():
        kept = []
        factors = []
        for g, e in even:
            q = images[g] if g in images else images.setdefault(g, image_of(g))
            if q is None:
                kept.append((g, e))
            else:
                if not (isinstance(e, int) and e >= 1):
                    raise ValueError(
                        f"cannot substitute into {_gen_str(g)}^{_exp_str(e)}: "
                        "only positive integer powers are substitutable"
                    )
                factors.append((q ** e)._terms)
        for g in odd:
            q = images[g] if g in images else images.setdefault(g, image_of(g))
            factors.append({((), (g,)): 1} if q is None else q._terms)
        term = {(tuple(kept), ()): coeff}
        for q in factors:
            prod = {}
            for (ev, od), c in term.items():
                _mul_into(prod, ev, od, (), c, q)
            term = prod
        for key, c in term.items():
            _acc(acc, key, c)
    used = [q for q in images.values() if q is not None]
    return GradedPoly._of(acc, _merged_odds(p, *used))


def reduce_on_shell(p, system):
    """Eliminate time markers using a system's evolution rules.

    ``system`` is anything with an ``rhs`` mapping {field symbol -> poly}
    (an EvolutionSystem), or a plain dict.  Markers of fields without a rule
    raise.
    """
    rhs = system if isinstance(system, dict) else system.rhs

    def image_of(g):
        sym, order = g
        if not sym.endswith("_t"):
            return None
        base = base_symbol(sym)
        if base not in rhs or rhs[base] is None:
            raise ValueError(f"no evolution rule to reduce marker '{sym}'")
        return _dx_power(rhs[base], order, None)

    out = _substitute(p, image_of)
    if out.has_markers():
        raise ValueError("on-shell reduction left time markers behind")
    return out


def substitute_family(p, sym, replacement):
    """Replace the whole jet family of ``sym`` by prolongations of ``replacement``.

    Generators (sym, k) map to d^k/dx^k of the replacement; markers
    (sym_t, k) map to d^k/dx^k of its formal time derivative.
    """
    seeds = {sym: replacement, marker(sym): None}  # the marker's seed on first use

    def image_of(g):
        s, order = g
        if s not in seeds:
            return None
        if seeds[s] is None:
            seeds[s] = t_prolong(replacement)
        return _dx_power(seeds[s], order, None)

    return _substitute(p, image_of)


# ---------------------------------------------------------------------------
# variational operators

def euler_operator(p, sym):
    """Variational derivative with respect to a field of either parity:
    E = sum_i (-D)^i of the left partial by the i-th jet, by Horner's rule
    d_0 p - D(d_1 p - D(...)).  It annihilates every total x-derivative, so
    densities that differ by exact terms have the same gradient.  A left
    partial edits keys: it takes off one power, times e, or an odd factor.
    """
    if sym.endswith("_t"):
        raise ValueError(f"'{sym}' is a time marker, which has no variational derivative")
    if p.max_order(marker(sym)) >= 0:
        raise ValueError(f"density contains time markers of '{sym}'; reduce on shell first")
    out = GradedPoly.zero(p.odd_syms)
    for i in range(p.max_order(sym), -1, -1):
        g, acc = (sym, i), {}
        for (even, odd), coeff in p._terms.items():
            if g in odd:  # an odd factor passes the j factors before it
                j = odd.index(g)
                _acc(acc, (even, odd[:j] + odd[j + 1:]), -coeff if j % 2 else coeff)
            for idx, (h, _e) in enumerate(even):
                if h == g:
                    head, c = _lowered(even, idx, coeff)
                    _acc(acc, (head + even[idx + 1:], odd), c)
        out = GradedPoly._of(acc, p.odd_syms) - total_x_derivative(out)
    return out


def odd_gradient(p, sym):
    """:func:`euler_operator` with respect to a field that must be odd."""
    if not (sym.endswith("_t") or _sym_is_odd(sym, p.odd_syms)):
        raise ValueError(f"'{sym}' is not an odd symbol here")
    return euler_operator(p, sym)
