"""
A fractional-power flow and its runtime guards
==============================================

The (1/2, 1) family member carries T^(1/2) and inverse powers of the
field, so the integrator enforces positivity at runtime, and — because
the dispersion coefficient is no longer constant — falls back from the
integrating-factor scheme to plain stepping and warns when the step size
outruns the stability bound.
"""

import warnings

import numpy as np

from brstkdv.reductions import build_system
from brstkdv.solver import FieldState, SolverError, evolve

hd = build_system("harry-dym")
print("flow:    T_t =", hd.rhs["T"])
print("ghost:   c_t =", hd.rhs["c"])

length, n, dt = 20.0, 128, 1e-3
x = length * np.arange(n) / n
T0 = (1.0 + 0.25 * np.cos(2 * np.pi * x / length)
      + 0.15 * np.sin(4 * np.pi * x / length))
state = FieldState(0.0, length, n, {"T": T0, "c": np.zeros(n)})

traj = evolve(state, hd, t_end=1.0, dt=dt, record_every=100,
              diagnostics=[hd.density("H0"), hd.density("H1")])
moved = np.max(np.abs(traj.states[-1].fields["T"] - T0))
print(f"\nfield moved by {moved:.3f} over t=1; functional drift:")
for nm in ("H0", "H1"):
    vals = np.asarray(traj.diagnostics[nm])
    drift = np.max(np.abs(vals - vals[0]))
    note = "(below one rounding ulp)" if drift == 0.0 else ""
    print(f"  {nm}: initial {vals[0]:.8f}, max drift {drift:.2e} {note}")

# Data dipping toward zero trips the positivity guard before any step, and
# before the step-size advisory, which would raise the field to negative
# powers; so no advisory is issued for such data.
bad = FieldState(0.0, length, n,
                 {"T": 0.05 + 0.1 * np.cos(2 * np.pi * x / length),
                  "c": np.zeros(n)})
with warnings.catch_warnings(record=True) as caught:
    warnings.simplefilter("always")
    try:
        evolve(bad, hd, t_end=0.5, dt=2e-3)
    except SolverError as exc:
        print("\nguard tripped as expected:", exc)
print("warnings issued first:", len(caught))
