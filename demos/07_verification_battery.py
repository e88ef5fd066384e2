"""
The verification battery
========================

Every structural claim the package makes, as one report table: exact
symbolic checks (tolerance 0) and numeric checks with explicit
tolerances.  The same battery backs `brstkdv verify all`: it runs the
checks serially in registry order, and both conservation reports (odd at
1e-6, classical at 1e-8) and the zero-curvature check read one standard
kdv soliton run.  The covariance check also holds both gauge slices of
the zero-curvature equation: slice A leaves only the residual slice
equation, and slice B is flat on the modified flow that the Miura map
carries onto KdV.
"""

from brstkdv.verify import run_all

reports = run_all()

width = max(len(r.check) for r in reports)
print(f"{'check':{width}s}  {'status':6s}  {'tol':>7s}  worst metric")
for r in reports:
    worst_key = max(r.metrics, key=lambda k: abs(r.metrics[k]))
    print(f"{r.check:{width}s}  {r.status:6s}  {r.tolerance:7.0e}  "
          f"{r.metrics[worst_key]:.2e}  ({worst_key})")

assert all(r.status == "pass" for r in reports)
print("\nall", len(reports), "checks pass")

# Each report serializes; the claim field records what was verified.
print("\nexample claim:", reports[0].claim)
