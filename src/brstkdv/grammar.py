"""Text form of graded differential polynomials.

The surface syntax matches :func:`brstkdv.graded.to_string` output::

    odd: c; 3/2*u^2*c_x + u*c_xxx - (beta+1)*T^(beta-1)*T_x

* an optional leading ``odd: name, name, ... ;`` header declares odd symbols
  (the ``odd`` parameter of :func:`parse` does the same programmatically);
* a generator is a field name with optional derivative suffixes: ``u_x``
  through ``u_xxxx``, ``u_5x`` for higher orders, and a time marker ``u_t``
  which may itself be x-differentiated (``u_t_xx``);
* ``^`` attaches an exponent: an integer, a fraction ``^1/2`` or ``^-2``, a
  bare parameter name, or a parenthesised scalar expression ``^(beta-1)``;
* parenthesised factors are *scalar* coefficients, e.g. ``(beta+1)*T_x``;
  scalar names must not collide with field names used in the polynomial;
* ``*`` is required between factors; ``+``/``-`` separate monomials.

Derivative generators only accept positive integer exponents; zeroth-order
generators may carry fractional or symbolic exponents.  Powers >= 2 of an
odd generator are annihilated during construction.
"""

from __future__ import annotations

from fractions import Fraction

import sympy as sp

from .graded import GradedPoly, s_add, s_mul

__all__ = ["parse", "ParseError"]


class ParseError(ValueError):
    """Syntax or consistency error, carrying the offending position."""

    def __init__(self, message, position):
        super().__init__(f"{message} (at position {position})")
        self.position = position


class _Scanner:
    def __init__(self, text):
        self.text = text
        self.pos = 0

    def skip_ws(self):
        while self.pos < len(self.text) and self.text[self.pos] in " \t\r\n":
            self.pos += 1

    def peek(self):
        self.skip_ws()
        return self.text[self.pos] if self.pos < len(self.text) else ""

    def take(self, ch):
        if self.peek() == ch:
            self.pos += 1
            return True
        return False

    def expect(self, ch):
        if not self.take(ch):
            raise ParseError(f"expected '{ch}'", self.pos)

    def name(self):
        """[A-Za-z][A-Za-z0-9]* or None."""
        self.skip_ws()
        i = self.pos
        if i >= len(self.text) or not self.text[i].isalpha():
            return None
        j = i + 1
        while j < len(self.text) and self.text[j].isalnum():
            j = j + 1
        self.pos = j
        return self.text[i:j]

    def digits(self):
        self.skip_ws()
        i = self.pos
        j = i
        while j < len(self.text) and self.text[j].isdigit():
            j += 1
        if j == i:
            return None
        self.pos = j
        return int(self.text[i:j])

    def number(self):
        """The integer or n/d literal at the cursor, as a Fraction."""
        n = self.digits()
        if not (self.pos < len(self.text) and self.text[self.pos] == "/"):
            return Fraction(n)
        self.pos += 1
        d = self.digits()
        if d is None:
            raise ParseError("expected denominator", self.pos)
        if d == 0:
            raise ParseError("zero denominator", self.pos)
        return Fraction(n, d)


def _scan_generator(sc, base):
    """Consume derivative suffixes after a base name; return (symbol, order)."""
    sym = base
    order = 0
    seen_x = False
    while sc.pos < len(sc.text) and sc.text[sc.pos] == "_":
        mark = sc.pos
        sc.pos += 1
        if sc.pos < len(sc.text) and sc.text[sc.pos] == "t" and not (
            sc.pos + 1 < len(sc.text) and sc.text[sc.pos + 1].isalnum()
        ):
            if sym.endswith("_t"):
                raise ParseError("repeated time marker", mark)
            if seen_x:
                raise ParseError(
                    "time marker must precede x-derivative suffixes "
                    f"(write {sym}_t_... )",
                    mark,
                )
            sym = sym + "_t"
            sc.pos += 1
            continue
        if sc.pos < len(sc.text) and sc.text[sc.pos] == "x":
            n = 0
            while sc.pos < len(sc.text) and sc.text[sc.pos] == "x":
                n += 1
                sc.pos += 1
            if sc.pos < len(sc.text) and sc.text[sc.pos].isalnum():
                raise ParseError("malformed derivative suffix", mark)
            order += n
            seen_x = True
            continue
        if sc.pos < len(sc.text) and sc.text[sc.pos].isdigit():
            n = sc.digits()
            if not (sc.pos < len(sc.text) and sc.text[sc.pos] == "x"):
                raise ParseError("expected 'x' after derivative count", mark)
            sc.pos += 1
            if sc.pos < len(sc.text) and sc.text[sc.pos].isalnum():
                raise ParseError("malformed derivative suffix", mark)
            if n < 1:
                raise ParseError("derivative count must be positive", mark)
            order += n
            seen_x = True
            continue
        raise ParseError("malformed suffix after '_'", mark)
    return sym, order


def _scalar_atom(sc, params):
    if sc.take("("):
        v = _scalar_sum(sc, params)
        sc.expect(")")
        return v
    ch = sc.peek()
    if ch.isdigit():
        return sc.number()
    nm = sc.name()
    if nm is None:
        raise ParseError("expected a number or parameter name", sc.pos)
    params.add(nm)
    return sp.Symbol(nm)


def _scalar_product(sc, params):
    v = _scalar_atom(sc, params)
    while True:
        sc.skip_ws()
        if sc.peek() == "*":
            sc.pos += 1
            v = s_mul(v, _scalar_atom(sc, params))
        else:
            return v


def _scalar_sum(sc, params):
    neg = False
    if sc.take("-"):
        neg = True
    elif sc.take("+"):
        pass
    v = _scalar_product(sc, params)
    if neg:
        v = -v
    while True:
        ch = sc.peek()
        if ch == "+":
            sc.pos += 1
            v2 = _scalar_product(sc, params)
        elif ch == "-":
            sc.pos += 1
            v2 = -_scalar_product(sc, params)
        else:
            return v
        v = s_add(v, v2)


def _exponent(sc, params):
    if sc.peek() == "(":
        sc.take("(")
        v = _scalar_sum(sc, params)
        sc.expect(")")
        return v
    neg = sc.take("-")
    ch = sc.peek()
    if ch.isdigit():
        v = sc.number()
        return -v if neg else v
    nm = sc.name()
    if nm is None:
        raise ParseError("expected an exponent", sc.pos)
    if neg:
        params.add(nm)
        return -sp.Symbol(nm)
    params.add(nm)
    return sp.Symbol(nm)


def parse(text, odd=()):
    """Parse a polynomial; ``odd`` adds odd symbols beyond any header."""
    sc = _Scanner(text)
    odd_syms = set(odd)
    params = set()

    # optional "odd: a, b;" header
    save = sc.pos
    nm = sc.name()
    if nm == "odd" and sc.peek() == ":":
        sc.expect(":")
        while True:
            field = sc.name()
            if field is None:
                raise ParseError("expected an odd symbol name", sc.pos)
            odd_syms.add(field)
            if sc.take(","):
                continue
            sc.expect(";")
            break
    else:
        sc.pos = save

    gens_seen = set()

    def factor():
        pos0 = sc.pos
        if sc.peek() == "(":
            sc.take("(")
            v = _scalar_sum(sc, params)
            sc.expect(")")
            return ("scalar", v)
        ch = sc.peek()
        if ch.isdigit():
            return ("scalar", sc.number())
        nm = sc.name()
        if nm is None:
            raise ParseError("expected a factor", sc.pos)
        sym, order = _scan_generator(sc, nm)
        exp = Fraction(1)
        if sc.peek() == "^":
            sc.take("^")
            exp = _exponent(sc, params)
        gens_seen.add(sym)
        try:
            # defer oddness to declared set; validation happens in gen()
            return ("gen", GradedPoly.gen(sym, order, exp, odd_syms=frozenset(odd_syms)))
        except ValueError as exc:
            raise ParseError(str(exc), pos0) from None

    def term():
        out = GradedPoly.number(1, frozenset(odd_syms))
        kind, v = factor()
        out = out * v if kind == "gen" else out * GradedPoly.number(v, frozenset(odd_syms))
        while sc.peek() == "*":
            sc.take("*")
            kind, v = factor()
            out = out * v if kind == "gen" else out * GradedPoly.number(v, frozenset(odd_syms))
        return out

    total = GradedPoly.zero(frozenset(odd_syms))
    neg = sc.take("-")
    if not neg:
        sc.take("+")
    t = term()
    total = total + (-t if neg else t)
    while True:
        ch = sc.peek()
        if ch == "+":
            sc.take("+")
            total = total + term()
        elif ch == "-":
            sc.take("-")
            total = total - term()
        elif ch == "":
            break
        else:
            raise ParseError(f"unexpected character {ch!r}", sc.pos)

    clash = params & {s.split("_t")[0] for s in gens_seen} | (params & gens_seen)
    if clash:
        raise ParseError(
            f"name(s) used both as scalar parameter and field: {sorted(clash)}", 0
        )
    return total
