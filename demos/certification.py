"""Certifying expert shape constraints on a fitted friction surface.

An expert constraint file bounds the model value and the first two partial
derivatives with respect to pressure and temperature over the unit box.  We
fit a degree-3 polynomial to a synthetic friction dataset under those
constraints and then certify every constraint by Bernstein subdivision.
The Bernstein coefficients of each derivative on a box enclose its range
there, so CERTIFIED is a guarantee over the whole box, not a sample, and it
holds under floating-point rounding because every box carries a bound on the
error of its coefficients.  A breaching corner coefficient, re-evaluated at
its corner, is the witness of a VIOLATED constraint.
"""

from importlib import resources

from shapeguard import SCPRConfig, certify, fit_constrained, parse_constraints, synth_generate

spec_text = resources.files("shapeguard.resources").joinpath("eq1.spec").read_text()
spec = parse_constraints(spec_text)
print("constraint file:")
for line in spec_text.strip().splitlines():
    print(f"  {line}")

data = synth_generate("friction_valid", seed=1)
model, report = fit_constrained(data, SCPRConfig(degree=3, lam=1e-6), spec.constraints)
print(f"\nfitted degree-3 surface: train RMSE {report.train_rmse:.5f}, "
      f"violation bound {report.max_sampled_violation:.2e}, "
      f"optimality gap {report.optimality_gap:.1e}")

cert = certify(model, spec.constraints)
print("\ncertification:")
for entry in cert.entries:
    print(
        f"  {entry.constraint.describe():<28} {entry.verdict:<10} "
        f"enclosure [{entry.enclosure.lo:.4g}, {entry.enclosure.hi:.4g}] "
        f"({entry.boxes_examined} boxes)"
    )
print(f"\nall certified: {cert.all_certified}")
