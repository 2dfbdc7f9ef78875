"""Gradient-boosted trees: boosting behaviour and monotone constraints."""

import hashlib
import itertools
import json
import math
import platform
import warnings
from importlib import resources

import numpy as np
import pytest

from shapeguard import (
    ConfigError,
    DataError,
    Dataset,
    SchemaError,
    GBTConfig,
    GBTEnsemble,
    fit_gbt,
    make_corpus,
    monotonicity_audit,
    parse_constraints,
    predict_gbt,
)
from shapeguard.datasets import scale_unit
from shapeguard.gbt import ROOT_MEMO, RegTreeNode, _Level, _best_splits, _clamp, _leaf_weight, _predict_tree
from shapeguard import gbt as gbt_mod
from shapeguard.validation import (
    ALGORITHMS,
    ValidationConfig,
    monotone_from_constraints,
    score_segments,
    segment,
    validate_dataset,
)


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
        assert _leaf_weight(G, H + lam, alpha) == pytest.approx(expect, rel=1e-12, abs=1e-15)


@pytest.mark.skipif(
    platform.machine() not in ("x86_64", "AMD64"), reason="ties follow x86's maximum and minimum"
)
def test_clamp_is_python_min_max_bit_for_bit():
    # signed zeros are the only ties whose result can show which operand won
    values = [-math.inf, -1.0, -0.0, 0.0, 1.0, math.inf]
    cases = [(w, lo, hi) for w, lo, hi in itertools.product(values, repeat=3) if lo <= hi]
    expect = np.array([min(max(w, lo), hi) for w, lo, hi in cases])
    w, lo, hi = np.array(cases).T
    assert _clamp(w, lo, hi).tobytes() == expect.tobytes()
    for k, case in enumerate(cases):
        assert _clamp(*np.array(case)[:, None]).tobytes() == expect[k : k + 1].tobytes(), case


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


ENSEMBLE = {"base_score": 0.5, "learning_rate": 0.1, "features": ["a"], "trees": [
    {"variable": "a", "threshold": 0.5, "left": {"weight": -1.0}, "right": {"weight": 1.0}}]}


@pytest.mark.parametrize(
    "text, field",
    [
        ("nope", "not valid JSON"),
        ("[1]", "model has type list"),
        ("{}", "'base_score'"),
        (json.dumps(dict(ENSEMBLE, learning_rate="0.1")), "'learning_rate' has type str"),
        (json.dumps(dict(ENSEMBLE, features=[1])), "'features' holds an item of type int"),
        (json.dumps(dict(ENSEMBLE, monotone={"a": "up"})), "'monotone' holds an item of type str"),
        (json.dumps(dict(ENSEMBLE, trees=[{"variable": "a", "left": {}, "right": {}}])),
         r"model tree 0: missing field 'threshold'"),
        (json.dumps(dict(ENSEMBLE, trees=[dict(ENSEMBLE["trees"][0], right={"weight": 10**400})])),
         r"model tree 0\.right: field 'weight' is too large"),
        (json.dumps(dict(ENSEMBLE, trees=[dict(ENSEMBLE["trees"][0], left=[])])),
         r"model tree 0: field 'left' has type list"),
        (json.dumps(dict(ENSEMBLE, monotone={"a": 7})), r"direction for 'a' must be -1, 0 or \+1, got 7"),
        (json.dumps(dict(ENSEMBLE, monotone={"nope": 1})), r"direction for 'nope', which is not in features"),
        (json.dumps(dict(ENSEMBLE, trees=[dict(ENSEMBLE["trees"][0], right=dict(ENSEMBLE["trees"][0], variable="q"))])),
         r"model tree 0\.right: splits on 'q', which is not in features \['a'\]"),
    ],
    ids=["not-json", "not-object", "no-base-score", "str-rate", "int-feature", "str-direction",
         "no-threshold", "huge-weight", "list-child", "direction-7", "unknown-monotone", "unknown-split"],
)
def test_from_json_names_the_bad_field(text, field):
    assert GBTEnsemble.from_json(json.dumps(ENSEMBLE)).trees[0].threshold == 0.5
    with pytest.raises(SchemaError, match=field):
        GBTEnsemble.from_json(text)


def test_config_validation():
    with pytest.raises(ConfigError):
        GBTConfig(n_trees=-1)
    with pytest.raises(ConfigError):
        GBTConfig(monotone={"a": 2})
    with pytest.raises(ConfigError):
        GBTConfig(min_samples_leaf=0)
    with pytest.raises(ConfigError, match="max_depth"):
        GBTConfig(max_depth=0)


@pytest.mark.parametrize("direction", [True, False, np.True_, 0.5, math.nan, "1", None])
def test_config_names_the_feature_of_a_bad_direction(direction):
    with pytest.raises(ConfigError, match="'a'"):
        GBTConfig(monotone={"a": direction})


@pytest.mark.parametrize("monotone", [[1], None, "a"])
def test_config_rejects_monotone_that_is_not_a_dict(monotone):
    with pytest.raises(ConfigError, match="monotone must be a dict"):
        GBTConfig(monotone=monotone)


@pytest.mark.parametrize("direction", [-1, 0, 1, -1.0, 1.0, np.int64(-1), np.int8(1), np.float32(0.0)])
def test_every_accepted_direction_round_trips_through_json(direction):
    config = GBTConfig(n_trees=2, max_depth=2, monotone={"a": direction})
    assert config.monotone == {"a": int(direction)} and type(config.monotone["a"]) is int
    ensemble = fit_gbt(make_data(60), config)
    back = GBTEnsemble.from_json(ensemble.to_json())
    assert back.monotone == {"a": int(direction)}
    assert back.to_json() == ensemble.to_json()


@pytest.mark.parametrize(
    "bad",
    [
        {"learning_rate": -1.0},
        {"learning_rate": 0.0},
        {"learning_rate": math.nan},
        {"learning_rate": math.inf},
        {"lam": -1.0},
        {"lam": math.nan},
        {"lam": math.inf},
        {"alpha": -0.5},
        {"alpha": math.nan},
        {"alpha": math.inf},
    ],
)
def test_config_rejects_bad_numbers(bad):
    with pytest.raises(ConfigError):
        GBTConfig(**bad)


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


def test_predict_rejects_ragged_columns():
    # the row count is not taken from one column and the others cut to it
    d = make_data(50)
    ens = fit_gbt(d, GBTConfig(n_trees=5))
    with pytest.raises(SchemaError, match="ragged columns"):
        predict_gbt(ens, {"a": d.columns["a"][:10], "b": d.columns["b"]})


def reference_split(cols, grad, idx, bounds, config):
    """The per-threshold scalar split search, kept as the oracle for _best_splits."""

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
                mid = float(0.5 * (xs[i] + xs[i + 1]))
                best = (gain, name, mid if mid > xs[i] else float(xs[i + 1]))
    if best is None or best[0] <= 1e-12:
        return None
    return best[1], best[2]


def random_columns(rng, n):
    return {
        "p": rng.choice([0.0, 1 / 3, 2 / 3, 1.0], n),
        "v": rng.choice([0.1, 0.4, 0.7, 0.9], n),
        "c": np.round(rng.uniform(0, 1, n), 1),
    }


@pytest.mark.parametrize("seed", range(40))
def test_split_matches_scalar_reference(seed):
    # One level of the grower on a two-node frontier: an arbitrary row subset
    # and the rows left over, each with its own weight bounds.
    rng = np.random.default_rng(seed)
    n = int(rng.integers(12, 80))
    cols = random_columns(rng, n)
    grad = rng.normal(size=n) + 0.5 * cols["p"] - 0.8 * cols["v"]
    idx = np.sort(rng.choice(n, size=int(rng.integers(n // 2, n + 1)), replace=False))
    groups = [idx, np.setdiff1d(np.arange(n), idx)]
    groups = [g for g in groups if len(g)]
    # min_samples_leaf at the edge: a split is legal only near the middle
    msl = int(rng.integers(1, max(2, len(idx) // 2 + 1)))
    config = GBTConfig(
        max_depth=1,
        lam=float(rng.choice([0.0, 1.0])),
        alpha=float(rng.choice([0.0, 0.3])),
        min_samples_leaf=msl,
        monotone={"p": int(rng.choice([-1, 0, 1])), "v": int(rng.choice([-1, 1]))},
    )
    bounds = [(-math.inf, math.inf), (-math.inf, math.inf)][: len(groups)]
    if seed % 3:
        bounds = [(float(rng.uniform(-0.3, 0)), float(rng.uniform(0, 0.3))) for _ in groups]
    X = np.stack(list(cols.values()))
    # the frontier's perm: per feature each group's rows in stable sorted
    # order, then all rows ascending within each group
    perm = np.array(
        [np.concatenate([g[np.argsort(x[g], kind="stable")] for g in groups]) for x in X]
        + [np.concatenate(groups)]
    )
    G = np.array([float(grad[g].sum()) for g in groups])
    counts = np.array([len(g) for g in groups])
    weights = _clamp(_leaf_weight(G, counts + config.lam, config.alpha), *np.transpose(bounds))
    direction = np.array([config.monotone.get(name, 0) for name in cols])
    level = _Level(perm, np.take_along_axis(X, perm[:-1], axis=1), counts, direction, config)
    splits = _best_splits(level, grad, G, np.transpose(bounds), weights, config)
    for k, (g, b) in enumerate(zip(groups, bounds)):
        expect = reference_split(cols, grad, g, b, config)
        got = (list(cols)[splits[k][0]], splits[k][1]) if k in splits else None
        assert got == expect


def reference_tree(cols, grad, idx, depth, bounds, config):
    """The recursive builder: reference_split at every node and the midpoint bound rule."""
    lo, hi = bounds

    def weight(rows):
        G = float(grad[rows].sum())
        g = math.copysign(max(abs(G) - config.alpha, 0.0), G)
        return min(max(-g / (len(rows) + config.lam), lo), hi)

    split = None
    if depth < config.max_depth and len(idx) >= 2 * config.min_samples_leaf:
        split = reference_split(cols, grad, idx, bounds, config)
    if split is None:
        return RegTreeNode(weight=weight(idx))
    name, threshold = split
    go_left = cols[name][idx] < threshold
    left, right = idx[go_left], idx[~go_left]
    left_bounds = right_bounds = bounds
    direction = config.monotone.get(name, 0)
    if direction:
        mid = 0.5 * (weight(left) + weight(right))
        left_bounds, right_bounds = (lo, mid), (mid, hi)
        if direction == -1:
            left_bounds, right_bounds = right_bounds, left_bounds
    return RegTreeNode(
        variable=name,
        threshold=threshold,
        left=reference_tree(cols, grad, left, depth + 1, left_bounds, config),
        right=reference_tree(cols, grad, right, depth + 1, right_bounds, config),
    )


def reference_ensemble(data, config):
    names = [c for c in data.columns if c != data.target]
    cols = {c: data.columns[c] for c in names}
    y = data.y
    ensemble = GBTEnsemble(float(y.mean()), config.learning_rate, names, monotone=config.monotone)
    pred = np.full(data.n_rows, ensemble.base_score)
    rows, bounds = np.arange(data.n_rows), (-math.inf, math.inf)
    for _ in range(config.n_trees):
        tree = reference_tree(cols, pred - y, rows, 0, bounds, config)
        if tree.is_leaf and abs(tree.weight) < 1e-15:
            break
        ensemble.trees.append(tree)
        pred = pred + config.learning_rate * _predict_tree(tree, cols, data.n_rows)
    return ensemble


@pytest.mark.filterwarnings("ignore:no legal split")
@pytest.mark.parametrize("seed", range(40))
def test_ensemble_matches_recursive_reference(seed):
    rng = np.random.default_rng(1000 + seed)
    n = int(rng.integers(10, 80))
    cols = random_columns(rng, n)
    y = rng.normal(size=n) + cols["p"] - 2.0 * cols["v"] ** 2
    data = Dataset("d", dict(cols, y=y), "y")
    config = GBTConfig(
        n_trees=0 if seed == 0 else int(rng.integers(1, 7)),
        learning_rate=float(rng.choice([0.1, 0.5, 1.0])),
        max_depth=int(rng.integers(1, 6)),
        lam=float(rng.choice([0.0, 1.0])),
        alpha=float(rng.choice([0.0, 0.3])),
        min_samples_leaf=int(rng.integers(1, 8)),
        monotone={name: int(rng.choice([-1, 0, 1])) for name in cols},
    )
    assert fit_gbt(data, config).to_json() == reference_ensemble(data, config).to_json()


@pytest.mark.filterwarnings("ignore:no legal split")
def test_long_ensembles_match_recursive_reference():
    # 20-30 trees at depth 2-4, so later trees take an earlier tree's root
    # split and read its next level from the fit's memo; one case has more
    # distinct root splits than the memo keeps
    consecutive, most = 0, 0
    for seed in range(8):
        rng = np.random.default_rng(2000 + seed)
        n = int(rng.integers(40, 120))
        cols = random_columns(rng, n)
        y = rng.normal(size=n) + cols["p"] - 2.0 * cols["v"] ** 2 + np.sin(6 * cols["c"])
        data = Dataset("d", dict(cols, y=y), "y")
        config = GBTConfig(
            n_trees=int(rng.integers(20, 31)),
            learning_rate=float(rng.choice([0.1, 0.3])),
            max_depth=int(rng.integers(2, 5)),
            lam=float(rng.choice([0.0, 1.0])),
            alpha=float(rng.choice([0.0, 0.3])),
            min_samples_leaf=int(rng.integers(1, 6)),
            monotone={name: int(rng.choice([-1, 0, 1])) for name in cols},
        )
        ensemble = fit_gbt(data, config)
        assert ensemble.to_json() == reference_ensemble(data, config).to_json()
        roots = [(t.variable, t.threshold) for t in ensemble.trees]
        assert len(set(roots)) < len(roots)
        consecutive += any(a == b for a, b in zip(roots, roots[1:]))
        most = max(most, len(set(roots)))
    assert consecutive and most > ROOT_MEMO


# sha256 of fit_gbt(...).to_json() for the datasets that perfbench's
# validate_gbt times (corpus seed 0), unit-scaled, at the perfbench config
PINNED_FORESTS = {
    "000-friction_valid-0": "793af265071ac3ed61d6992406c7956ac6e586a1b732b7ab03ec7ca0f57f497c",
    "018-friction_outlier-18": "1b79c5b0252ae8df53403c53bb8b2dd07410c75ac852124a684caf0888a6b077",
    "019-friction_stuck-19": "b506bb34c7d9c2b5a4bc0188ad1cd3354b5a4982b36a9e424e7fff8f318422c2",
    "020-friction_drift-20": "506fc894bdf5bab908a43015c324800e804249cf810ca9e42ca1b5f44d53f80d",
    "021-friction_inverted-21": "b2ee212f9e83e386d683fb10d94b0bf2b9281d7cfbea2de50e0c6c3ab06d9808",
}
# the same datasets with a 1-norm penalty and lam = 0 (ALPHA_CONFIG)
PINNED_ALPHA_FORESTS = {
    "000-friction_valid-0": "90711ca43c9bc9f11f0e610a5a5508eaab31f2bc09266efbb40efaaefaec0ec7",
    "018-friction_outlier-18": "afc97fccb1c36bebe687f37ac032817d1514e252ebd5c8cda0e8837120d9426d",
    "019-friction_stuck-19": "d214e307a08c6a8edef1ab83db859a158902f5eb03f053941cfc8577a4c19ae2",
    "020-friction_drift-20": "f51576085a73d848f0b548f35969adcfd0090ca30fce303b693da307230510f0",
    "021-friction_inverted-21": "60dbcaf1b225f132888f41a84299cf1926e85b18a3c4b361f4d2df23d30986a8",
}
ALPHA_CONFIG = {"n_trees": 20, "lam": 0.0, "alpha": 0.01}


def eq1_constraints():
    text = resources.files("shapeguard").joinpath("resources", "eq1.spec").read_text()
    return parse_constraints(text).constraints


def test_perfbench_forests_are_pinned():
    corpus = {data.name: data for data in make_corpus(18, 35, seed=0)}
    monotone = monotone_from_constraints(eq1_constraints())
    for config, pinned in [
        (GBTConfig(monotone=monotone), PINNED_FORESTS),
        (GBTConfig(**ALPHA_CONFIG, monotone=monotone), PINNED_ALPHA_FORESTS),
    ]:
        for name, digest in pinned.items():
            data = scale_unit(corpus[name], corpus[name].feature_names)
            assert hashlib.sha256(fit_gbt(data, config).to_json().encode()).hexdigest() == digest, name


@pytest.mark.parametrize("settings", [{}, ALPHA_CONFIG], ids=["default", "alpha"])
def test_validation_scores_the_fit_as_predict_gbt_does(monkeypatch, settings):
    # validate_dataset takes the training rows' predictions from the fit; its
    # segment RMSEs must be those of predict_gbt on the same rows, bit for bit
    constraints = eq1_constraints()
    config = ValidationConfig(
        threshold=0.05, controlled_variables=["p", "v"], algorithm="gbt",
        algorithm_config=GBTConfig(**settings), constraints=list(constraints), target="mu_dyn",
    )
    fits, fit = [], gbt_mod.fit_gbt

    def fit_and_keep(train, cfg):
        fits.append((train, fit(train, cfg)))
        return fits[-1][1]

    monkeypatch.setattr(gbt_mod, "fit_gbt", fit_and_keep)
    corpus = {data.name: data for data in make_corpus(18, 35, seed=0)}
    for name in PINNED_FORESTS:
        report = validate_dataset(corpus[name], config)
        train, ensemble = fits[-1]
        preds = predict_gbt(ensemble, train.columns)
        y_range = float(train.y.max() - train.y.min())
        segments = segment(train, config.controlled_variables)
        expect = [r / y_range for r in score_segments(preds, train, segments)]
        assert report.segment_rmses == expect, name
        # the predict that the CLI scores a fit with gives the same bits
        _, predict, _ = ALGORITHMS["gbt"].fit(train, config.algorithm_config, constraints)
        assert predict(train.columns).tobytes() == preds.tobytes()
        assert predict(dict(train.columns)).tobytes() == preds.tobytes()


def test_corpus_fits_emit_no_runtime_warnings():
    monotone = monotone_from_constraints(eq1_constraints())
    configs = [
        GBTConfig(monotone=monotone),
        GBTConfig(**ALPHA_CONFIG, monotone=monotone),
    ]
    # one valid dataset and one of each error kind
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        for data in make_corpus(1, 4, seed=0):
            for config in configs:
                fit_gbt(data, config)


def assert_one_clean_split(below, above, threshold):
    # five rows at below with y = 0 and five at above with y = 1: the one
    # split must fall between them, with finite leaves and no warning
    x = np.r_[np.full(5, below), np.full(5, above)]
    d = Dataset("d", {"x": x, "y": np.r_[np.zeros(5), np.ones(5)]}, "y")
    config = GBTConfig(n_trees=1, max_depth=1, lam=0.0, min_samples_leaf=1)
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        ens = fit_gbt(d, config)
    tree = ens.trees[0]
    assert tree.threshold == threshold
    assert np.isfinite([tree.left.weight, tree.right.weight]).all()
    assert "NaN" not in ens.to_json()
    expect = np.r_[np.full(5, 0.45), np.full(5, 0.55)]
    np.testing.assert_allclose(predict_gbt(ens, {"x": x}), expect)


def test_split_between_adjacent_floats_separates_them():
    # 0.5 * (1 + nextafter(1, 2)) rounds to 1.0, which as a threshold would
    # send every row right and leave the left child empty
    assert_one_clean_split(1.0, np.nextafter(1.0, 2.0), np.nextafter(1.0, 2.0))


def test_split_between_huge_values_has_a_finite_threshold():
    # 1.5e308 + 1.7e308 overflows: a threshold of inf would send every row
    # left and give the empty right leaf the weight 0 / 0 at lam = 0
    assert_one_clean_split(1.5e308, 1.7e308, 1.6e308)


def test_target_whose_mean_overflows_is_rejected():
    # every value is finite, but their sum overflows: the base score would be
    # inf and the first leaf NaN
    x = np.arange(10.0)
    y = np.r_[np.full(5, 1.7e308), np.full(5, 1.6e308)]
    data = Dataset("big", {"x": x, "y": y}, "y")
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        with pytest.raises(DataError, match="target 'y'") as info:
            fit_gbt(data, GBTConfig())
    assert info.value.column == "y"


def test_identical_columns_split_on_the_first():
    rng = np.random.default_rng(7)
    x = rng.choice([0.0, 0.25, 0.5, 1.0], 200)
    y = 3.0 * x + rng.normal(0, 0.05, 200)
    for first, second in (("a", "b"), ("b", "a")):
        d = Dataset("d", {first: x, second: x.copy(), "y": y}, "y")
        ens = fit_gbt(d, GBTConfig(n_trees=5))
        stack = list(ens.trees)
        assert not stack[0].is_leaf
        while stack:
            node = stack.pop()
            if not node.is_leaf:
                assert node.variable == first
                stack += [node.left, node.right]
