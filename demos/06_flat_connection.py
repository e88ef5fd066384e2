"""
Rebuilding the flat connection along a trajectory
=================================================

Every catalog flow is a component form of one flatness condition on an
sl(2,R) connection.  Reconstruct the connection from a numerical solution
and measure all three curvature components.
"""

from brstkdv.reductions import SLICE_A, build_system, reconstruct_connection, slice_curvature
from brstkdv.solver import FieldState, evolve, soliton_initial
from brstkdv.verify import check_zero_curvature

# The slice is stated once, as a connection whose components are
# polynomials in u and T; its exact curvature has one surviving component,
# minus the residual slice equation that the catalog gauge-fixes.
for label, comp in zip("0+-", slice_curvature(SLICE_A)):
    print(f"slice-A curvature component {label}: {comp}")

length, n, dt = 40.0, 512, 1e-3
kdv = build_system("kdv")
state = soliton_initial(0.7, 20.0, "kdv", length, n, ghost="none")
traj = evolve(state, kdv, t_end=0.4, dt=dt, record_every=10)

# Each snapshot is lifted to the connection on slice A, where the even
# field doubles as the T-component (T = u/2); dt A1 comes from a 4th-order
# stencil in snapshot time.
metrics = check_zero_curvature(traj).metrics
for label, key in zip("0+-", ("component_0", "component_plus", "component_minus")):
    print(f"max |curvature component {label}| along the run: {metrics[key]:.2e}")

# One lifted snapshot: the sampled connection object with its slice
# constraints built in.
mid = traj.states[5]
lifted = FieldState(mid.t, length, n,
                    {"u": mid.fields["u"], "T": 0.5 * mid.fields["u"]})
conn = reconstruct_connection(lifted, SLICE_A)
print("\nconnection shapes:", conn.a0.shape, conn.a1.shape)
print("gauge slice pins A1^0 =", conn.a1[0][0],
      " A1^+ =", f"{conn.a1[1][0]:.5f}")
