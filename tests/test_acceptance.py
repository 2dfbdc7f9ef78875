"""Acceptance gate: one test per headline behaviour, one PASS line each.

Each test prints `[criterion NN] PASS: ...` on success; a failure reads as
the missing line plus the pytest failure itself.  Tolerances and seeds are
pinned so the gate is deterministic.
"""

import math
import time
from importlib import resources

import numpy as np
import pytest

from shapeguard import (
    Dataset,
    GAConfig,
    GBTConfig,
    Interval,
    PolyModel,
    SCPRConfig,
    ShapeConstraint,
    ValidationConfig,
    certify,
    check_constraints,
    eval_tree_columns,
    evolve,
    fit_constrained,
    fit_gbt,
    fit_unconstrained,
    friction_generating_model,
    grid_search,
    make_corpus,
    monomial_basis,
    monotonicity_audit,
    parse_constraints,
    roc,
    synth_generate,
    validate_corpus,
)
from shapeguard.scsr import random_tree


def eq1_constraints():
    text = resources.files("shapeguard.resources").joinpath("eq1.spec").read_text()
    return parse_constraints(text).constraints


def announce(num, message):
    print(f"\n[criterion {num:02d}] PASS: {message}")


def test_criterion_01_monotone_cubic_tradeoff():
    t0 = time.perf_counter()
    data = synth_generate("cubic_fig1", 5)
    cfg = SCPRConfig(degree=3, lam=0.0)
    region = {"x": Interval(-2.0, 2.0)}
    cons = [ShapeConstraint({"x": 1}, Interval(0.0, math.inf), region)]

    uncon, rep_u = fit_unconstrained(data, cfg)
    xs = np.linspace(-1.0, 1.0, 2001)
    deriv_vals = uncon.derivative_of_var("x").evaluate_columns({"x": xs})
    min_deriv = float(deriv_vals.min())
    assert min_deriv < 0.0  # the unconstrained cubic dips

    con, rep_c = fit_constrained(data, cfg, cons)
    relaxed = [ShapeConstraint({"x": 1}, Interval(-1e-8, math.inf), region)]
    report = certify(con, relaxed)
    assert report.all_certified
    assert rep_c.train_rmse >= rep_u.train_rmse

    elapsed = time.perf_counter() - t0
    assert elapsed < 5.0
    announce(
        1,
        f"unconstrained min f'={min_deriv:.3f} < 0; constrained fit certified "
        f"f' >= -1e-8 with RMSE {rep_c.train_rmse:.4f} >= {rep_u.train_rmse:.4f}; "
        f"{elapsed:.2f}s < 5s",
    )


def clipped_slope_oracle(x, y, sign):
    xc = x - x.mean()
    slope = float(xc @ (y - y.mean()) / (xc @ xc))
    if sign * slope < 0.0:
        return np.array([float(y.mean()), 0.0])
    return np.array([float(y.mean() - slope * x.mean()), slope])


def test_criterion_02_clipped_slope_oracle():
    t0 = time.perf_counter()
    rng = np.random.default_rng(2024)
    worst = 0.0
    for trial in range(200):
        n = int(rng.integers(10, 40))
        x = rng.uniform(-1.0, 2.0, size=n)
        y = rng.normal() * x + rng.normal(size=n)
        sign = 1 if trial % 2 == 0 else -1
        bound = Interval(0.0, math.inf) if sign > 0 else Interval(-math.inf, 0.0)
        region = {"x": Interval(float(x.min()), float(x.max()))}
        data = Dataset("d", {"x": x, "y": y}, "y")
        model, _ = fit_constrained(
            data, SCPRConfig(degree=1, lam=0.0), [ShapeConstraint({"x": 1}, bound, region)]
        )
        expect = clipped_slope_oracle(x, y, sign)
        worst = max(worst, float(np.abs(model.coefficient_vector() - expect).max()))
    elapsed = time.perf_counter() - t0
    assert worst <= 1e-6
    assert elapsed < 10.0
    announce(2, f"200 instances, worst coefficient error {worst:.2e} <= 1e-6; {elapsed:.2f}s < 10s")


def _random_certification_case(rng):
    n_vars = int(rng.integers(1, 4))
    names = tuple(f"x{i}" for i in range(n_vars))
    degree = int(rng.integers(1, 5))
    basis = monomial_basis(n_vars, degree)
    coeffs = {a: float(c) for a, c in zip(basis, rng.normal(size=len(basis)))}
    model = PolyModel(names, degree, coeffs)
    region = {}
    for v in names:
        lo, hi = sorted(rng.uniform(-1.5, 1.5, size=2))
        region[v] = Interval(lo, hi)
    var = names[int(rng.integers(n_vars))]
    order = int(rng.integers(0, 3))
    derivative = {var: order} if order else {}
    if rng.random() < 0.5:
        bound = Interval(float(rng.normal()), math.inf)
    else:
        bound = Interval(-math.inf, float(rng.normal()))
    return model, ShapeConstraint(derivative, bound, region)


def test_criterion_03_certification_soundness():
    rng = np.random.default_rng(33)
    certified = 0
    worst = 0.0
    for _ in range(500):
        model, c = _random_certification_case(rng)
        entry = certify(model, [c]).entries[0]
        if entry.verdict != "CERTIFIED":
            continue
        certified += 1
        deriv = model.derivative(c.derivative_tuple(model.variables))
        n_vars = len(model.variables)
        per_dim = max(2, int(round(100_000 ** (1.0 / n_vars))))
        axes = [np.linspace(c.region[v].lo, c.region[v].hi, per_dim) for v in model.variables]
        mesh = np.meshgrid(*axes, indexing="ij")
        cols = {v: m.ravel() for v, m in zip(model.variables, mesh)}
        vals = deriv.evaluate_columns(cols)
        if math.isfinite(c.bound.lo):
            worst = max(worst, float(c.bound.lo - vals.min()))
        if math.isfinite(c.bound.hi):
            worst = max(worst, float(vals.max() - c.bound.hi))
        assert worst <= 1e-9
    assert certified >= 50  # the sweep must exercise the CERTIFIED verdict
    announce(
        3,
        f"500 random models, {certified} CERTIFIED, worst sampled breach "
        f"{worst:.2e} <= 1e-9 on ~1e5-point grids",
    )


def _scalar_ad(t, point, var):
    kind = t[0]
    if kind == "const":
        return float(t[1]), 0.0
    if kind == "var":
        return float(point[t[1]]), 1.0 if t[1] == var else 0.0
    if kind == "neg":
        v, d = _scalar_ad(t[1], point, var)
        return -v, -d
    av, ad = _scalar_ad(t[1], point, var)
    bv, bd = _scalar_ad(t[2], point, var)
    if kind == "add":
        return av + bv, ad + bd
    if kind == "sub":
        return av - bv, ad - bd
    if kind == "mul":
        return av * bv, ad * bv + av * bd
    if bv == 0.0:
        return math.nan, math.nan
    return av / bv, (ad * bv - av * bd) / bv**2


def test_criterion_04_interval_ad_soundness():
    import random as pyrandom

    rng = pyrandom.Random(44)
    npr = np.random.default_rng(44)
    variables = ["x", "z"]
    checked = 0
    for _ in range(1000):
        t = random_tree(rng, variables, 5)
        region = {}
        for v in variables:
            lo, hi = sorted(npr.uniform(-2.0, 2.0, size=2))
            region[v] = Interval(lo, hi)
        var = rng.choice(variables)
        enc = check_constraints(t, [ShapeConstraint({var: 1}, Interval(0.0, math.inf), region)])[1][0]
        for _ in range(10):
            point = {v: float(npr.uniform(region[v].lo, region[v].hi)) for v in region}
            _, der = _scalar_ad(t, point, var)
            if not math.isfinite(der):
                continue
            checked += 1
            pad = 1e-9 * max(1.0, abs(der))
            assert enc.lo - pad <= der <= enc.hi + pad
    assert checked > 5000
    announce(4, f"1000 random trees, {checked} sampled derivatives inside interval-AD enclosures")


def _auc_pair_oracle(scores, labels):
    pos = [s for s, l in zip(scores, labels) if l == "invalid"]
    neg = [s for s, l in zip(scores, labels) if l == "valid"]
    total = 0.0
    for p in pos:
        for n in neg:
            total += 1.0 if p > n else 0.5 if p == n else 0.0
    return total / (len(pos) * len(neg))


def test_criterion_05_auc_matches_pair_counting():
    rng = np.random.default_rng(55)
    worst = 0.0
    for _ in range(100):
        n = int(rng.integers(4, 60))
        # quantized scores so ties occur routinely
        scores = np.round(rng.uniform(0, 1, size=n), 1).tolist()
        labels = rng.choice(["valid", "invalid"], size=n).tolist()
        if "valid" not in labels or "invalid" not in labels:
            continue
        curve = roc(scores, labels)
        worst = max(worst, abs(curve.auc - _auc_pair_oracle(scores, labels)))
        assert worst <= 1e-12
    announce(5, f"100 score vectors, max |AUC - pair-counting oracle| = {worst:.2e} <= 1e-12")


def test_criterion_06_monotone_gbt_audit():
    rng = np.random.default_rng(66)
    worst = 0.0
    for trial in range(50):
        n = 200
        cols = {f: rng.uniform(0, 1, n) for f in ("a", "b", "c")}
        y = (
            rng.normal() * cols["a"]
            + rng.normal() * cols["b"]
            + rng.normal() * cols["c"]
            + np.sin(5 * cols["a"])
            + rng.normal(0, 0.1, n)
        )
        data = Dataset("d", dict(cols, y=y), "y")
        monotone = {"a": 1, "b": -1}
        ens = fit_gbt(data, GBTConfig(n_trees=30, max_depth=3, monotone=monotone))
        for var, direction in monotone.items():
            others = [f for f in ens.features if f != var]
            for _ in range(5):
                fixed = {f: float(rng.uniform(0, 1)) for f in others}
                grid = [dict(fixed, **{var: u}) for u in np.linspace(0, 1, 50)]
                worst = max(worst, monotonicity_audit(ens, var, direction, grid))
        assert worst <= 1e-9
    announce(6, f"50 trials, worst monotonicity audit violation {worst:.2e} <= 1e-9")


def test_criterion_07_corpus_classification():
    t0 = time.perf_counter()
    corpus = make_corpus(18, 35, seed=0)
    constraints = eq1_constraints()
    aucs = {}
    for algo in ("pr", "scpr"):
        cfg = ValidationConfig(
            threshold=0.05,
            controlled_variables=["p", "v"],
            algorithm=algo,
            algorithm_config=SCPRConfig(degree=3, lam=1e-6),
            constraints=constraints,
            target="mu_dyn",
        )
        reports, _, curve = validate_corpus(corpus, cfg)
        assert all(r.error is None for r in reports)
        aucs[algo] = curve.auc
    elapsed = time.perf_counter() - t0
    assert aucs["scpr"] >= aucs["pr"]
    assert aucs["scpr"] >= 0.95
    assert elapsed < 300.0
    announce(
        7,
        f"18+35 corpus: AUC(SCPR)={aucs['scpr']:.4f} >= AUC(PR)={aucs['pr']:.4f} "
        f"and >= 0.95; {elapsed:.1f}s < 300s",
    )


def test_criterion_08_runtime_envelope():
    rng = np.random.default_rng(42)
    n = 500
    cols = {
        "p": rng.uniform(0.05, 0.95, n),
        "v": rng.uniform(0.05, 0.95, n),
        "T": rng.uniform(0.05, 0.95, n),
    }
    surface = friction_generating_model(0).evaluate_columns(cols)
    data = Dataset("d", dict(cols, mu_dyn=surface + rng.normal(0, 0.005, n)), "mu_dyn")
    constraints = eq1_constraints()
    cfg = SCPRConfig(degree=4, lam=1e-6)
    fit_constrained(data.select_rows(slice(0, 50)), SCPRConfig(degree=2, lam=1e-6), constraints)  # warm imports/caches
    times = []
    for _ in range(3):
        t0 = time.perf_counter()
        _, report = fit_constrained(data, cfg, constraints)
        times.append(time.perf_counter() - t0)
    med = sorted(times)[1]
    assert report.max_sampled_violation <= 1e-6
    assert med <= 2.0
    announce(8, f"500-row 3-var degree-4 constrained fit median {med:.2f}s <= 2s")


def test_criterion_09_symbolic_recovery():
    region = {"x1": Interval(-1, 1), "x2": Interval(-1, 1)}
    cons = [ShapeConstraint({"x2": 1}, Interval(0.0, math.inf), region)]
    rng = np.random.default_rng(7)
    x1 = rng.uniform(-1, 1, 200)
    x2 = rng.uniform(-1, 1, 200)
    y = x1**2 + 2 * x2 - 0.5  # in-grammar degree-2 target
    tr = Dataset("tr", {"x1": x1[:150], "x2": x2[:150], "y": y[:150]}, "y")
    te = Dataset("te", {"x1": x1[150:], "x2": x2[150:], "y": y[150:]}, "y")
    r2s = []
    for seed in range(10):
        history = evolve(tr, GAConfig(population=150, max_generations=100, seed=seed), cons)
        rec = history[-1]
        assert rec.generation == 99
        a, b = rec.best_scale
        pred = a * eval_tree_columns(rec.best_tree, te.columns) + b
        r2 = 1.0 - float(np.sum((pred - te.y) ** 2) / np.sum((te.y - te.y.mean()) ** 2))
        r2s.append(r2)
        feasible, _ = check_constraints(rec.best_tree, cons, rec.best_scale)
        assert feasible
    median_r2 = float(np.median(r2s))
    assert median_r2 >= 0.95
    announce(9, f"10 seeds, median test R^2 {median_r2:.4f} >= 0.95, all returned models feasible")


def test_criterion_10_grid_search_prefers_degree_3():
    t0 = time.perf_counter()
    datasets = [
        synth_generate("cubic_fig1", s, {"sigma": 0.0, "c3": 0.5 + 0.1 * s, "c1": 0.1 * (s + 1)})
        for s in range(4)
    ]
    grid = {"degree": [1, 2, 3, 4, 5], "lam": [1e-8]}
    best, table = grid_search(datasets, "pr", grid, folds=2)
    elapsed = time.perf_counter() - t0
    assert best["degree"] == 3
    assert elapsed < 120.0
    announce(10, f"grid search picks degree={best['degree']} on noiseless cubic data; {elapsed:.2f}s < 120s")
