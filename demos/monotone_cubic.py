"""Fitting a noisy cubic with and without a monotonicity constraint.

The data come from an increasing cubic plus noise; with enough noise the
unconstrained degree-3 least-squares fit wiggles and its derivative dips
below zero.  Adding the constraint d f/dx >= 0 removes the dip at the cost
of a slightly larger training error, and Bernstein certification turns the
claim "monotone everywhere" into a guarantee rather than a spot check.
"""

import math

import numpy as np

from shapeguard import (
    Interval,
    SCPRConfig,
    ShapeConstraint,
    certify,
    fit_constrained,
    fit_unconstrained,
    synth_generate,
)

data = synth_generate("cubic_fig1", seed=5)
config = SCPRConfig(degree=3, lam=0.0)
region = {"x": Interval(-2.0, 2.0)}
constraints = [ShapeConstraint({"x": 1}, Interval(0.0, math.inf), region)]

unconstrained, report_u = fit_unconstrained(data, config)
constrained, report_c = fit_constrained(data, config, constraints)

xs = np.linspace(-1.0, 1.0, 2001)
dip = unconstrained.derivative_of_var("x").evaluate_columns({"x": xs}).min()

print("unconstrained fit:")
print(f"  train RMSE          {report_u.train_rmse:.4f}")
print(f"  min f' on [-1, 1]   {dip:.4f}  (negative: the fit is not monotone)")

print("constrained fit (d f/dx >= 0 on [-2, 2]):")
print(f"  train RMSE          {report_c.train_rmse:.4f}  (>= unconstrained, as it must be)")
print(f"  violation bound     {report_c.max_sampled_violation:.2e}  (largest Bernstein-row breach)")
print(f"  optimality gap      {report_c.optimality_gap:.1e}")

report = certify(constrained, [ShapeConstraint({"x": 1}, Interval(-1e-8, math.inf), region)])
entry = report.entries[0]
print("certification:")
print(f"  verdict             {entry.verdict}")
print(f"  derivative range    [{entry.enclosure.lo:.3e}, {entry.enclosure.hi:.3e}]")
print(f"  boxes examined      {entry.boxes_examined}")
