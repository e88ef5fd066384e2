"""Text form of graded differential polynomials.

The surface syntax matches :func:`brstkdv.graded.to_string` output::

    odd: c; 3/2*u^2*c_x + u*c_xxx - (beta+1)*T^(beta-1)*T_x

* an optional leading ``odd: name, name, ... ;`` header declares odd symbols
  (the ``odd`` parameter of :func:`parse` does the same programmatically);
* a generator is a field name with optional derivative suffixes: ``u_x``
  through ``u_xxxx``, ``u_5x`` for higher orders, and a time marker ``u_t``
  which may itself be x-differentiated (``u_t_xx``);
* ``^`` attaches an exponent: an integer, a fraction ``^1/2`` or ``^-2``, a
  bare parameter name, or a parenthesised scalar expression ``^(beta-1)``,
  each with an optional sign (``^-beta``, ``^-(beta)``);
* parenthesised factors are *scalar* coefficients, e.g. ``(beta+1)*T_x``,
  where a name or a parenthesised scalar may carry sympy's integer power
  and divisor (``(beta**2*s/2)*T``); scalar names must not collide with
  field names used in the polynomial; parentheses nest at most 64 deep, and
  a ``**`` power is at most 64;
* ``*`` is required between factors; ``+``/``-`` separate monomials.

Derivative generators only accept positive integer exponents; zeroth-order
generators may carry fractional or symbolic exponents.  Powers >= 2 of an
odd generator are annihilated during construction.
"""

from __future__ import annotations

from fractions import Fraction

from .graded import GradedPoly, base_symbol, parameter

__all__ = ["parse", "ParseError", "is_name"]


class ParseError(ValueError):
    """Syntax or consistency error, carrying the offending position."""

    def __init__(self, message, position):
        super().__init__(f"{message} (at position {position})")
        self.position = position


class _Scanner:
    def __init__(self, text):
        self.text = text
        self.pos = 0
        self.depth = 0  # of the open scalar parentheses

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
        while j < len(self.text) and self.text[j].isdecimal():
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
        return Fraction(n, self.denominator())

    def denominator(self):
        """The nonzero integer after a '/'."""
        d = self.digits()
        if d is None:
            raise ParseError("expected denominator", self.pos)
        if d == 0:
            raise ParseError("zero denominator", self.pos)
        return d


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
        if sc.pos < len(sc.text) and sc.text[sc.pos].isdecimal():
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


def _sum(sc, atom):
    """[+|-] product {(+|-) product}; the operands are whatever ``atom``
    returns (scalars or polynomials)."""
    neg = sc.take("-")
    if not neg:
        sc.take("+")
    v = _product(sc, atom)
    if neg:
        v = -v
    while True:
        if sc.take("+"):
            v = v + _product(sc, atom)
        elif sc.take("-"):
            v = v - _product(sc, atom)
        else:
            return v


def _product(sc, atom):
    """atom {* atom}."""
    v = atom()
    while sc.take("*"):
        v = v * atom()
    return v


def _scalar(sc, params, what):
    """A number, or a parenthesised scalar sum or a parameter name with an
    optional ``**<int>`` power and ``/<int>`` divisor, as sympy prints them;
    ``what`` names the expected item when there is none."""
    if sc.take("("):
        if sc.depth == 64:  # each level is a few Python frames
            raise ParseError("parentheses nest deeper than 64", sc.pos - 1)
        sc.depth += 1
        v = _sum(sc, lambda: _scalar(sc, params, "a number or parameter name"))
        sc.expect(")")
        sc.depth -= 1
    elif sc.peek().isdecimal():
        return sc.number()
    else:
        nm = sc.name()
        if nm is None:
            raise ParseError(f"expected {what}", sc.pos)
        params.add(nm)
        v = parameter(nm)
    if sc.text.startswith("**", sc.pos):
        sc.pos += 2
        n = sc.digits()
        if n is None or n > 64:  # a short text must not expand without bound
            raise ParseError("expected an integer power up to 64", sc.pos)
        v = v ** n
    if sc.text.startswith("/", sc.pos):
        sc.pos += 1
        v = v * Fraction(1, sc.denominator())
    return v


def _exponent(sc, params):
    """[-] scalar: T^-beta, T^-(beta) and T^(-beta) are one exponent."""
    neg = sc.take("-")
    v = _scalar(sc, params, "an exponent")
    return -v if neg else v


def is_name(text):
    """Whether the grammar reads ``text`` back as one parameter or field name."""
    return _Scanner(text).name() == text


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
    odd_syms = frozenset(odd_syms)

    gens_seen = set()

    def factor():
        pos0 = sc.pos
        if not sc.peek().isalpha():
            return GradedPoly.number(_scalar(sc, params, "a factor"), odd_syms)
        sym, order = _scan_generator(sc, sc.name())
        exp = _exponent(sc, params) if sc.take("^") else 1
        gens_seen.add(sym)
        try:
            # defer oddness to declared set; validation happens in gen()
            return GradedPoly.gen(sym, order, exp, odd_syms=odd_syms)
        except ValueError as exc:
            raise ParseError(str(exc), pos0) from None

    total = _sum(sc, factor)
    if sc.peek():
        raise ParseError(f"unexpected character {sc.peek()!r}", sc.pos)

    fields = gens_seen | {base_symbol(s) for s in gens_seen} | odd_syms
    clash = params & fields
    if clash:
        raise ParseError(
            f"name(s) used both as scalar parameter and field: {sorted(clash)}", 0
        )
    return total
