"""
Graded polynomials and odd derivations
======================================

The algebra kernel: differential polynomials in even and odd
(anticommuting) fields, total x-derivatives, variational gradients, and
user-defined odd derivations.
"""

from fractions import Fraction

from brstkdv import parse
from brstkdv.graded import (
    DerivationRuleSet,
    GradedPoly,
    apply_derivation,
    euler_operator,
    odd_gradient,
    total_x_derivative,
)

# Odd symbols anticommute; the parser sorts each monomial into a canonical
# order and tracks the resulting sign.
print("c_x*c reordered:  ", parse("c_x*c", odd=("c",)))
print("a ghost squared:  ", parse("c*c", odd=("c",)))      # identically 0
print("mixed monomial:   ", parse("u*c_x*c - c*u*c_x", odd=("c",)))

# Coefficients are exact rationals; powers may be negative, fractional,
# or symbolic in a family parameter.
p = parse("1/2*T^-1/2*T_x + (beta+1)*T^beta")
print("\nexact arithmetic: ", p)
print("d/dx of T^1/2:    ", total_x_derivative(parse("T^1/2")))

# The Euler operator returns the variational gradient of a density:
# the gradient of a total derivative vanishes identically.
h = parse("1/2*u_x^2 - u^3")
print("\ngradient of", h, " ->", euler_operator(h, "u"))
print("gradient of an exact term ->", euler_operator(parse("3*u^2*u_x"), "u"))

# The same operator differentiates odd fields, from the left.
g = parse("u*c_x", odd=("c",))
print("odd gradient of", g, "   ->", odd_gradient(g, "c"))

# A derivation is defined by its action on generators.  This one is odd
# and nilpotent; apply_derivation extends it by the graded Leibniz rule.
rules = DerivationRuleSet("demo", {
    "u": parse("u_x*c + 2*u*c_x + c_xxx", odd=("c",)),
    "c": parse("c*c_x", odd=("c",)),
})
u = GradedPoly.gen("u")
once = apply_derivation(u * u, rules)
twice = apply_derivation(once, rules)
print("\nD(u^2)  =", once)
print("D^2(u^2) =", twice)   # nilpotency: the zero polynomial

assert twice == GradedPoly.zero()
