"""Classifying measurement datasets as valid or invalid.

A synthetic corpus mixes clean friction datasets with corrupted ones
(outliers, stuck sensors, drift, inverted pressure dependence).  Each
dataset is segmented on its controlled inputs, a model is trained on the
full data, and the worst per-segment RMSE becomes the dataset's score.
Sweeping the threshold yields a ROC curve; constrained fitting (SCPR)
separates the classes far better than plain polynomial regression because
constraint-violating corruptions force a visibly bad constrained fit.
The corpus is the paper's: 18 valid and 35 invalid datasets.
"""

import time
from importlib import resources

from shapeguard import SCPRConfig, ValidationConfig, make_corpus, parse_constraints, validate_corpus

n_valid, n_invalid = 18, 35
corpus = make_corpus(n_valid, n_invalid, seed=0)
spec = parse_constraints(
    resources.files("shapeguard.resources").joinpath("eq1.spec").read_text()
)
print(f"corpus: {n_valid} valid + {n_invalid} invalid datasets\n")

for algo in ("pr", "scpr"):
    t0 = time.perf_counter()
    cfg = ValidationConfig(
        threshold=0.05,
        controlled_variables=["p", "v"],
        algorithm=algo,
        algorithm_config=SCPRConfig(degree=3, lam=1e-6),
        constraints=spec.constraints,
        target="mu_dyn",
    )
    reports, confusion, curve = validate_corpus(corpus, cfg)
    name = "unconstrained PR" if algo == "pr" else "constrained SCPR"
    print(f"{name}:")
    print(f"  AUC        {curve.auc:.4f}")
    print(f"  confusion  {confusion}  (at t = 0.05)")
    print(f"  wall time  {time.perf_counter() - t0:.1f}s")
    missed = [r.dataset for r in reports if r.label == "invalid" and r.verdict == "valid"]
    if missed:
        print(f"  missed invalid datasets: {', '.join(missed)}")
    print()
