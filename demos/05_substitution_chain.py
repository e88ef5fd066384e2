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
# share the grid and the step, so one evolve_many call integrates them in
# lockstep; each run is (state, system, t_end, record_every, diagnostics),
# and recording every 10**9 steps keeps the endpoints only.  A third run,
# nonvanishing w under the composed flow, rides along to its own shorter
# end time and leaves the stack there.
length, n, dt, t_end = 40.0, 512, 1e-3, 1.0
x = length * np.arange(n) / n
R0 = 0.9 / np.cosh(0.8 * (x - length / 2))
w0 = 1.0 + 0.3 * np.cos(2 * np.pi * x / length)
zeros = np.zeros(n)

trajR, trajU, trajW = evolve_many(
    [(FieldState(0.0, length, n, {"R": R0, "c": zeros}), mk, t_end, 10 ** 9, ()),
     (FieldState(0.0, length, n, {"u": miura_map(R0, length), "c": zeros}), kdv,
      t_end, 10 ** 9, ()),
     (FieldState(0.0, length, n, {"w": w0, "c": zeros}), ck, 0.2, 10 ** 9, ())],
    dt)
mapped = miura_map(trajR.states[-1].fields["R"], length)
err = np.max(np.abs(mapped - trajU.states[-1].fields["u"]))
print(f"map-then-evolve vs evolve-then-map at t={t_end}: L_inf = {err:.2e}")

# The composed map needs nonvanishing data; the evaluator's guard trips on
# anything that crosses zero.  The composed run stays away from zero.
w = trajW.states[-1].fields["w"]
print(f"composed flow ended at t = {trajW.states[-1].t}")
v = ckdv_to_mkdv(w, length)
print("composed map on nonvanishing data: min|w| =",
      f"{np.min(np.abs(w)):.2f},  max|v| = {np.max(np.abs(v)):.2f}")
