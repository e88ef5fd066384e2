"""
The substitution chain, symbolically and on grids
=================================================

Two substitution maps link three flows: u = 2(R_x - R^2) sends the
modified flow to the target flow, and v = (w_x - w^2)/(2w) sends the
composed flow to the modified one.  Both identities are exact in the
polynomial algebra and hold numerically along trajectories.
"""

import numpy as np

from brstkdv.graded import reduce_on_shell, substitute_family, t_prolong
from brstkdv.reductions import (
    build_system,
    ckdv_substitution,
    ckdv_to_mkdv,
    miura_map,
    miura_substitution,
)
from brstkdv.solver import FieldState, evolve_many

kdv, mk, ck = (build_system(nm) for nm in ("kdv", "mkdv", "ckdv"))

# Exact identities.  Ghost equations are literal images of each other...
print("u(R)      =", miura_substitution())
print("v(w)      =", ckdv_substitution())
assert substitute_family(kdv.rhs["c"], "u", miura_substitution()) == mk.rhs["c"]
assert substitute_family(mk.rhs["c"], "R", ckdv_substitution()) == ck.rhs["c"]
print("ghost equations map onto each other: exact")

# ...and the even flows intertwine: d/dt of u(R) on the modified flow
# equals the target right-hand side evaluated at u(R).
u_of_R = miura_substitution()
lhs = reduce_on_shell(t_prolong(u_of_R), mk)
rhs = substitute_family(kdv.rhs["u"], "u", u_of_R)
assert lhs == rhs
print("even flows intertwine:               exact")

# Numerically: evolve R under the modified flow, map the result, and
# compare with evolving the mapped data under the target flow.  Both legs
# share the grid, the step and the end time, so one evolve_many call
# integrates them in lockstep; each run is (state, system, record_every,
# diagnostics), and recording every 10**9 steps keeps the endpoints only.
length, n, dt, t_end = 40.0, 512, 1e-3, 1.0
x = length * np.arange(n) / n
R0 = 0.9 / np.cosh(0.8 * (x - length / 2))
zeros = np.zeros(n)

trajR, trajU = evolve_many(
    [(FieldState(0.0, length, n, {"R": R0, "c": zeros}), mk, 10 ** 9, ()),
     (FieldState(0.0, length, n, {"u": miura_map(R0, length), "c": zeros}), kdv, 10 ** 9, ())],
    t_end, dt)
mapped = miura_map(trajR.states[-1].fields["R"], length)
err = np.max(np.abs(mapped - trajU.states[-1].fields["u"]))
print(f"map-then-evolve vs evolve-then-map at t={t_end}: L_inf = {err:.2e}")

# The composed map needs nonvanishing data; a positivity guard trips on
# anything that crosses zero.
w = 1.0 + 0.3 * np.cos(2 * np.pi * x / length)
v = ckdv_to_mkdv(w, length)
print("composed map on nonvanishing data: min|w| =",
      f"{np.min(np.abs(w)):.2f},  max|v| = {np.max(np.abs(v)):.2f}")
