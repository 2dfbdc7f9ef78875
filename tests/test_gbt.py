"""Gradient-boosted trees: boosting behaviour and monotone constraints."""

import math

import numpy as np
import pytest

from shapeguard import (
    ConfigError,
    Dataset,
    SchemaError,
    GBTConfig,
    GBTEnsemble,
    fit_gbt,
    monotonicity_audit,
    predict_gbt,
)
from shapeguard.gbt import _build_tree, _leaf_weight


def make_data(n=300, seed=0, monotone=True):
    rng = np.random.default_rng(seed)
    a = rng.uniform(0, 1, n)
    b = rng.uniform(0, 1, n)
    if monotone:
        y = 2.0 * a - 1.5 * b + rng.normal(0, 0.05, n)
    else:
        y = np.sin(6 * a) + rng.normal(0, 0.05, n)
    return Dataset("d", {"a": a, "b": b, "y": y}, "y")


def soft_threshold(g, alpha):
    return math.copysign(max(abs(g) - alpha, 0.0), g)


def test_leaf_weight_matches_soft_threshold_oracle():
    rng = np.random.default_rng(1)
    for _ in range(200):
        G = float(rng.normal(scale=5))
        H = float(rng.uniform(0.5, 10))
        lam = float(rng.uniform(0, 3))
        alpha = float(rng.uniform(0, 2))
        expect = -soft_threshold(G, alpha) / (H + lam)
        assert _leaf_weight(G, H, lam, alpha) == pytest.approx(expect, rel=1e-12, abs=1e-15)


def test_boosting_reduces_training_error():
    d = make_data()
    cols = {k: d.columns[k] for k in ("a", "b")}
    prev = float(np.sqrt(np.mean((d.y - d.y.mean()) ** 2)))
    for n_trees in (5, 25, 100):
        ens = fit_gbt(d, GBTConfig(n_trees=n_trees, max_depth=3))
        rmse = float(np.sqrt(np.mean((predict_gbt(ens, cols) - d.y) ** 2)))
        assert rmse < prev
        prev = rmse
    assert prev < 0.1


def test_zero_trees_predicts_base_score():
    d = make_data(50)
    ens = fit_gbt(d, GBTConfig(n_trees=0))
    preds = predict_gbt(ens, {"a": d.columns["a"], "b": d.columns["b"]})
    np.testing.assert_allclose(preds, d.y.mean())


def audit_lines(ens, rng, n_lines=20, n_pts=50):
    worst = 0.0
    for var, direction in ens.monotone.items():
        if direction == 0:
            continue
        other = [f for f in ens.features if f != var]
        for _ in range(n_lines):
            fixed = {f: float(rng.uniform(0, 1)) for f in other}
            grid = [dict(fixed, **{var: t}) for t in np.linspace(0, 1, n_pts)]
            worst = max(worst, monotonicity_audit(ens, var, direction, grid))
    return worst


def test_monotone_constraints_hold_on_dense_lines():
    rng = np.random.default_rng(2)
    for seed in range(5):
        d = make_data(seed=seed)
        ens = fit_gbt(d, GBTConfig(n_trees=60, max_depth=4, monotone={"a": 1, "b": -1}))
        assert audit_lines(ens, rng) <= 1e-9


def test_monotone_constraint_binds_against_the_data():
    # data decreasing in a, constraint forces non-decreasing: predictions
    # along a must still be monotone even though the data pulls down
    rng = np.random.default_rng(3)
    a = rng.uniform(0, 1, 300)
    b = rng.uniform(0, 1, 300)
    y = -2.0 * a + 0.1 * b + rng.normal(0, 0.05, 300)
    d = Dataset("d", {"a": a, "b": b, "y": y}, "y")
    ens = fit_gbt(d, GBTConfig(n_trees=40, monotone={"a": 1}))
    assert audit_lines(ens, rng) <= 1e-9


def test_unconstrained_fit_does_violate_monotonicity():
    # sanity check that the audit actually measures something
    d = make_data(monotone=False)
    ens = fit_gbt(d, GBTConfig(n_trees=60, max_depth=4))
    ens.monotone = {"a": 1}
    rng = np.random.default_rng(4)
    assert audit_lines(ens, rng) > 1e-3


def test_json_round_trip_predictions_exact():
    d = make_data(seed=5)
    ens = fit_gbt(d, GBTConfig(n_trees=30, monotone={"a": 1}))
    back = GBTEnsemble.from_json(ens.to_json())
    cols = {"a": d.columns["a"], "b": d.columns["b"]}
    np.testing.assert_array_equal(predict_gbt(back, cols), predict_gbt(ens, cols))
    assert back.monotone == ens.monotone


def test_config_validation():
    with pytest.raises(ConfigError):
        GBTConfig(n_trees=-1)
    with pytest.raises(ConfigError):
        GBTConfig(monotone={"a": 2})
    with pytest.raises(ConfigError):
        GBTConfig(min_samples_leaf=0)


def test_predict_names_missing_feature():
    d = make_data(50)
    ens = fit_gbt(d, GBTConfig(n_trees=5))
    with pytest.raises(SchemaError, match="'b'"):
        predict_gbt(ens, {"a": d.columns["a"]})


def test_predict_rejects_empty_columns():
    d = make_data(50)
    ens = fit_gbt(d, GBTConfig(n_trees=5))
    with pytest.raises(SchemaError):
        predict_gbt(ens, {})


def reference_split(cols, grad, idx, bounds, config):
    """The per-threshold scalar split search, kept as the oracle for _build_tree."""

    def leaf_weight(G, H):
        g = math.copysign(max(abs(G) - config.alpha, 0.0), G)
        return -g / (H + config.lam)

    def objective(G, H, w):
        return G * w + 0.5 * (H + config.lam) * w * w + config.alpha * abs(w)

    def clamp(w):
        return min(max(w, lo), hi)

    lo, hi = bounds
    G = float(grad[idx].sum())
    n = len(idx)
    parent_obj = objective(G, float(n), clamp(leaf_weight(G, float(n))))
    best = None
    for name in cols:
        x = cols[name][idx]
        order = np.argsort(x, kind="stable")
        xs = x[order]
        csum = np.cumsum(grad[idx][order])
        direction = config.monotone.get(name, 0)
        for i in np.flatnonzero(xs[:-1] < xs[1:]):
            n_l = i + 1
            n_r = n - n_l
            if n_l < config.min_samples_leaf or n_r < config.min_samples_leaf:
                continue
            GL = float(csum[i])
            GR = G - GL
            wl = leaf_weight(GL, n_l)
            wr = leaf_weight(GR, n_r)
            if direction == 1 and wl > wr:
                continue
            if direction == -1 and wl < wr:
                continue
            gain = parent_obj - objective(GL, n_l, clamp(wl)) - objective(GR, n_r, clamp(wr))
            if best is None or gain > best[0] + 1e-15:
                best = (gain, name, float(0.5 * (xs[i] + xs[i + 1])))
    if best is None or best[0] <= 1e-12:
        return None
    return best[1], best[2]


@pytest.mark.parametrize("seed", range(40))
def test_split_matches_scalar_reference(seed):
    rng = np.random.default_rng(seed)
    n = int(rng.integers(12, 80))
    cols = {
        "p": rng.choice([0.0, 1 / 3, 2 / 3, 1.0], n),
        "v": rng.choice([0.1, 0.4, 0.7, 0.9], n),
        "c": np.round(rng.uniform(0, 1, n), 1),
    }
    grad = rng.normal(size=n) + 0.5 * cols["p"] - 0.8 * cols["v"]
    idx = np.sort(rng.choice(n, size=int(rng.integers(n // 2, n + 1)), replace=False))
    # min_samples_leaf at the edge: a split is legal only near the middle
    msl = int(rng.integers(1, max(2, len(idx) // 2 + 1)))
    config = GBTConfig(
        max_depth=1,
        lam=float(rng.choice([0.0, 1.0])),
        alpha=float(rng.choice([0.0, 0.3])),
        min_samples_leaf=msl,
        monotone={"p": int(rng.choice([-1, 0, 1])), "v": int(rng.choice([-1, 1]))},
    )
    bounds = (-math.inf, math.inf)
    if seed % 3:
        bounds = (float(rng.uniform(-0.3, 0)), float(rng.uniform(0, 0.3)))
    node = _build_tree(np.stack(list(cols.values())), list(cols), grad, idx, 0, bounds, config)
    expect = reference_split(cols, grad, idx, bounds, config)
    got = None if node.is_leaf else (node.variable, node.threshold)
    assert got == expect


def test_identical_columns_split_on_the_first():
    rng = np.random.default_rng(7)
    x = rng.choice([0.0, 0.25, 0.5, 1.0], 200)
    y = 3.0 * x + rng.normal(0, 0.05, 200)
    d = Dataset("d", {"a": x, "b": x.copy(), "y": y}, "y")
    for first, second in (("a", "b"), ("b", "a")):
        ens = fit_gbt(d, GBTConfig(n_trees=5), features=[first, second])
        stack = list(ens.trees)
        assert not stack[0].is_leaf
        while stack:
            node = stack.pop()
            if not node.is_leaf:
                assert node.variable == first
                stack += [node.left, node.right]
