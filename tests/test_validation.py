"""Validation pipeline: segmentation, scoring, ROC/AUC, grid search."""

import math
from dataclasses import replace
from importlib import resources

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from shapeguard import (
    ConfigError,
    DataError,
    Dataset,
    DegenerateError,
    GAConfig,
    GBTConfig,
    GridError,
    Interval,
    SCPRConfig,
    SchemaError,
    ShapeConstraint,
    SolverError,
    ValidationConfig,
    classify,
    grid_search,
    make_corpus,
    parse_constraints,
    roc,
    score_segments,
    segment,
    synth_generate,
    validate_corpus,
    validate_dataset,
)
from shapeguard import validation
from shapeguard.validation import Segment, monotone_from_constraints


def auc_pair_oracle(scores, labels):
    """O(n^2) pair counting: P(score_pos > score_neg), ties count 1/2."""
    pos = [s for s, l in zip(scores, labels) if l == "invalid"]
    neg = [s for s, l in zip(scores, labels) if l == "valid"]
    total = 0.0
    for p in pos:
        for n in neg:
            if p > n:
                total += 1.0
            elif p == n:
                total += 0.5
    return total / (len(pos) * len(neg))


def test_segment_exact_runs():
    d = Dataset(
        "d",
        {
            "p": [1, 1, 1, 2, 2, 1, 1],
            "v": [0, 0, 0, 0, 0, 0, 3],
            "y": [0.0] * 7,
        },
        "y",
    )
    segs = segment(d, ["p", "v"])
    assert [(s.start, s.end) for s in segs] == [(0, 3), (3, 5), (5, 6), (6, 7)]
    assert segs[0].controlled_values == (("p", 1.0), ("v", 0.0))
    with pytest.raises(SchemaError):
        segment(d, ["missing"])


def loop_segment(data, controlled):
    """The row-by-row segmentation, kept as the oracle for segment."""
    cols = [data.columns[c] for c in controlled]
    cuts = [i for i in range(1, data.n_rows) if any(col[i] != col[i - 1] for col in cols)]
    bounds = [0, *cuts, data.n_rows]
    return [
        Segment(s, e, tuple((c, float(col[s])) for c, col in zip(controlled, cols)))
        for s, e in zip(bounds[:-1], bounds[1:])
    ]


@pytest.mark.parametrize("seed", range(20))
def test_segment_matches_row_loop(seed):
    rng = np.random.default_rng(seed)
    n = int(rng.integers(1, 60))
    # few distinct values, so runs repeat and values recur after a change
    cols = {name: rng.choice([0.0, -0.0, 0.5, 1.0], n, p=[0.3, 0.2, 0.3, 0.2]) for name in "abc"}
    data = Dataset("d", dict(cols, y=rng.normal(size=n)), "y")
    controlled = [name for name in "abc" if rng.random() < 0.6]
    assert segment(data, controlled) == loop_segment(data, controlled)


def test_score_segments_rmse():
    d = Dataset("d", {"p": [1, 1, 2, 2], "y": [0.0, 0.0, 1.0, 1.0]}, "y")
    segs = segment(d, ["p"])
    preds = np.array([1.0, 1.0, 1.0, 1.0])
    rmses = score_segments(preds, d, segs)
    assert rmses == pytest.approx([1.0, 0.0])
    with pytest.raises(SchemaError):
        score_segments(preds[:2], d, segs)


def test_score_segments_are_the_bits_of_numpy_mean():
    # runs of 1 to 199 rows, residuals over many magnitudes: the sum over
    # the length rounds as np.mean does, so no score may differ in one bit
    rng = np.random.default_rng(5)
    lengths = rng.integers(1, 200, size=40)
    p = np.repeat(np.arange(len(lengths), dtype=float), lengths)
    y = rng.normal(size=len(p)) * 10.0 ** rng.integers(-8, 3, size=len(p))
    d = Dataset("d", {"p": p, "y": y}, "y")
    segs = segment(d, ["p"])
    assert sorted({s.end - s.start for s in segs}) == sorted(set(lengths.tolist()))
    preds = rng.normal(size=len(p))
    expect = [float(np.sqrt(np.mean((preds[s.start : s.end] - y[s.start : s.end]) ** 2))) for s in segs]
    assert score_segments(preds, d, segs) == expect


def test_classify_strict_threshold():
    assert classify([0.05], 0.05) == "valid"  # strictly greater only
    assert classify([0.050001], 0.05) == "invalid"
    assert classify([], 0.05) == "valid"
    with pytest.raises(ConfigError):
        classify([0.1], 0.0)


@pytest.mark.parametrize("rmses", [[math.nan, 0.01], [0.01, math.nan], [0.01, math.inf]])
def test_classify_rejects_a_non_finite_rmse(rmses):
    # max() over a NaN depends on its position, and both orders once read valid
    with pytest.raises(DataError, match="non-finite"):
        classify(rmses, 0.05)


@pytest.mark.parametrize("t", [math.nan, math.inf, -1.0])
def test_threshold_must_be_finite_and_positive(t):
    with pytest.raises(ConfigError, match="threshold"):
        classify([0.01], t)
    with pytest.raises(ConfigError, match="threshold"):
        ValidationConfig(threshold=t, controlled_variables=["p", "v"], algorithm="pr")


def test_corpus_records_a_nan_prediction_as_a_failed_dataset(monkeypatch):
    entry = validation.ALGORITHMS["pr"]

    def nan_fit(train, *args):
        model, predict, info = entry.fit(train, *args)
        return model, lambda cols: np.full(train.n_rows, math.nan), info

    monkeypatch.setitem(validation.ALGORITHMS, "pr", replace(entry, fit=nan_fit))
    config = ValidationConfig(
        threshold=0.05, controlled_variables=["p", "v"], algorithm="pr", target="mu_dyn"
    )
    (report,), _, _ = validate_corpus([synth_generate("friction_valid", 1)], config)
    assert report.error.startswith("DataError")
    assert (report.score, report.verdict) == (math.inf, "invalid")


def test_corpus_rejects_an_unknown_label_before_any_fit(monkeypatch):
    # "Invalid" is neither label: counted as valid, it made the outlier a
    # false positive and left three labels, so no ROC curve
    spec = parse_constraints(resources.files("shapeguard.resources").joinpath("eq1.spec").read_text())
    corpus = make_corpus(3, 3, seed=0)
    corpus[3].label = "Invalid"
    config = ValidationConfig(
        threshold=0.05, controlled_variables=["p", "v"], algorithm="scpr",
        algorithm_config=SCPRConfig(degree=3, lam=1e-6), constraints=list(spec.constraints), target="mu_dyn",
    )
    entry = validation.ALGORITHMS["scpr"]
    monkeypatch.setitem(validation.ALGORITHMS, "scpr", replace(entry, fit=lambda *args: pytest.fail("fitted")))
    with pytest.raises(SchemaError, match=f"dataset '{corpus[3].name}': label .* got 'Invalid'"):
        validate_corpus(corpus, config)


def test_roc_known_small_case():
    scores = [0.9, 0.8, 0.3, 0.1]
    labels = ["invalid", "invalid", "valid", "valid"]
    curve = roc(scores, labels)
    assert curve.auc == pytest.approx(1.0)
    curve = roc([0.1, 0.9, 0.3, 0.8], labels)
    assert curve.auc == pytest.approx(auc_pair_oracle([0.1, 0.9, 0.3, 0.8], labels))


def test_roc_needs_both_classes():
    with pytest.raises(DegenerateError):
        roc([0.1, 0.2], ["valid", "valid"])


@settings(max_examples=100, deadline=None)
@given(st.data())
def test_roc_matches_pair_counting_oracle(data):
    n = data.draw(st.integers(4, 30))
    # small value pool forces plenty of ties
    scores = data.draw(st.lists(st.sampled_from([0.0, 0.1, 0.2, 0.5, 1.0]), min_size=n, max_size=n))
    labels = data.draw(st.lists(st.sampled_from(["valid", "invalid"]), min_size=n, max_size=n))
    if "valid" not in labels or "invalid" not in labels:
        return
    curve = roc(scores, labels)
    assert curve.auc == pytest.approx(auc_pair_oracle(scores, labels), abs=1e-12)


def test_roc_curve_shape():
    scores = [0.2, 0.4, 0.4, 0.9]
    labels = ["valid", "invalid", "valid", "invalid"]
    curve = roc(scores, labels)
    assert curve.fpr[0] == 0.0 and curve.tpr[0] == 0.0
    assert curve.fpr[-1] == 1.0 and curve.tpr[-1] == 1.0
    assert all(a <= b for a, b in zip(curve.fpr, curve.fpr[1:]))
    assert all(a <= b for a, b in zip(curve.tpr, curve.tpr[1:]))
    csv = curve.to_csv()
    assert csv.splitlines()[0] == "threshold,fpr,tpr"


def test_monotone_from_constraints():
    region = {"a": Interval(0, 1), "b": Interval(0, 1)}
    cons = [
        ShapeConstraint({"a": 1}, Interval(0.0, math.inf), region),
        ShapeConstraint({"b": 1}, Interval(-math.inf, 0.0), region),
        ShapeConstraint({"a": 2}, Interval(0.0, math.inf), region),  # order 2: ignored
        ShapeConstraint({"b": 1}, Interval(-0.5, 0.5), region),  # two-sided: ignored
    ]
    assert monotone_from_constraints(cons) == {"a": 1, "b": -1}


def test_validate_dataset_valid_vs_corrupted():
    cfg = ValidationConfig(
        threshold=0.05,
        controlled_variables=["p", "v"],
        algorithm="pr",
        algorithm_config={"degree": 3},
        target="mu_dyn",
    )
    good = validate_dataset(synth_generate("friction_valid", 1), cfg)
    assert good.verdict == "valid"
    assert good.score <= 0.05
    bad = validate_dataset(synth_generate("friction_stuck", 3), cfg)
    assert bad.verdict == "invalid"
    assert bad.score > 0.05
    assert len(good.segment_rmses) == 16  # 4x4 controlled schedule


def test_grid_search_prefers_true_degree():
    datasets = [
        synth_generate("cubic_fig1", s, {"sigma": 0.0, "c3": 0.5 + 0.1 * s})
        for s in range(3)
    ]
    best, table = grid_search(datasets, "pr", {"degree": [1, 2, 3, 4], "lam": [1e-8]}, folds=2)
    assert best["degree"] == 3
    assert len(table) == 4
    assert all(row["error"] is None for row in table)


def test_grid_search_tie_breaks_to_smaller_degree():
    # constant target: every degree fits exactly, the smallest must win
    x = np.linspace(0, 1, 20)
    datasets = [
        Dataset(f"d{i}", {"x": x, "y": np.full(20, 2.0)}, "y") for i in range(2)
    ]
    best, table = grid_search(datasets, "pr", {"degree": [1, 2, 3], "lam": [0.0]}, folds=2)
    # the premise: every cell fits exactly, so only the tie-break decides
    assert all(row["sum_test_rmse"] <= 1e-12 for row in table)
    assert best["degree"] == 1


def test_grid_search_skips_failing_cells(monkeypatch):
    datasets = [synth_generate("cubic_fig1", s, {"sigma": 0.0, "c3": 0.5 + 0.1 * s}) for s in range(2)]
    grid = {"degree": [2, 3], "lam": [1e-6]}
    assert grid_search(datasets, "pr", grid, folds=2)[0]["degree"] == 3  # premise: degree 3 wins
    spy_on_fits(monkeypatch, "pr", fails=lambda config: config.degree == 3)
    best, table = grid_search(datasets, "pr", grid, folds=2)
    assert [row["error"] for row in table] == [None, "SolverError: the spied fit fails"]
    assert best["degree"] == 2
    with pytest.raises(GridError, match="every grid cell failed"):
        grid_search(datasets, "pr", {"degree": [3]}, folds=2)
    with pytest.raises(ConfigError):
        grid_search(datasets[:1], "pr", {"degree": [2]}, folds=2)


def spy_on_fits(monkeypatch, algorithm, fails=lambda config: False):
    """The list that each fit of ``algorithm`` appends its config to; a fit
    whose config ``fails`` raises SolverError."""
    entry, configs = validation.ALGORITHMS[algorithm], []

    def spy(train, config, constraints):
        configs.append(config)
        if fails(config):
            raise SolverError("the spied fit fails")
        return entry.fit(train, config, constraints)

    monkeypatch.setitem(validation.ALGORITHMS, algorithm, replace(entry, fit=spy))
    return configs


@pytest.mark.parametrize("cell, key", [
    ({"degreee": 3}, "degreee"),
    ({"degree": "3"}, "'degree'"),
    ({"degree": 0}, "degree"),
], ids=["unknown-key", "str-value", "out-of-range"])
def test_grid_search_rejects_a_bad_cell_before_any_fit(monkeypatch, cell, key):
    fits = spy_on_fits(monkeypatch, "pr")
    datasets = [synth_generate("cubic_fig1", s) for s in range(2)]
    with pytest.raises(ConfigError, match=f"grid cell 1.*{key}"):
        grid_search(datasets, "pr", [{"degree": 2}, cell], folds=2)
    assert fits == []


def test_grid_search_takes_numpy_scalars():
    datasets = [synth_generate("cubic_fig1", s) for s in range(2)]
    grid = {"degree": list(np.arange(2, 4)), "lam": list(np.logspace(-6, -5, 2))}
    best, table = grid_search(datasets, "pr", grid, folds=2)
    assert [row["error"] for row in table] == [None] * 4
    assert best["degree"] in (2, 3) and isinstance(best["degree"], np.integer)


@pytest.mark.parametrize("settings, message", [
    ({"degre": 3}, "unknown algorithm_config keys: degre"),
    ({"degree": "3"}, "algorithm_config key 'degree' must be an integer"),
    ({"degree": 0}, "algorithm_config: degree must be >= 1"),
    ([3], "algorithm_config must be an object"),
    ({"lam": 10**400}, "algorithm_config key 'lam' is too large for a float"),
])
def test_validation_config_rejects_bad_settings_naming_the_key(settings, message):
    with pytest.raises(ConfigError, match=message):
        ValidationConfig(threshold=0.05, controlled_variables=["p"], algorithm="scpr",
                         algorithm_config=settings)


def test_validation_config_builds_settings_and_keeps_a_config_object():
    config = GAConfig(population=20)
    kept = ValidationConfig(0.05, ["p"], "scsr", algorithm_config=config)
    assert kept.algorithm_config is config
    built = ValidationConfig(0.05, ["p"], "scpr", algorithm_config={"degree": np.int64(4), "lam": 0})
    assert built.algorithm_config == SCPRConfig(degree=4, lam=0.0)
    assert ValidationConfig(0.05, ["p"], "gbt").algorithm_config == GBTConfig()
    with pytest.raises(ConfigError, match="unknown algorithm 'nope'"):
        ValidationConfig(0.05, ["p"], "nope")


@pytest.mark.parametrize("folds", [-1, 0, 1, 9])
def test_grid_search_rejects_fold_counts_it_cannot_split(folds):
    datasets = [synth_generate("cubic_fig1", s, {"n": n}) for s, n in ((0, 8), (1, 12))]
    with pytest.raises(ConfigError, match=r"folds must lie in \[2, 8\]"):
        grid_search(datasets, "pr", {"degree": [2]}, folds=folds)
    assert grid_search(datasets, "pr", {"degree": [1]}, folds=8)[0] == {"degree": 1}


def test_grid_search_test_fold_cannot_choose_the_scsr_model(monkeypatch):
    entry = validation.ALGORITHMS["scsr"]

    def fold_models(datasets):
        models = []  # in (dataset, fold) order

        def spy(train, *args):
            fitted = entry.fit(train, *args)
            models.append(fitted[0])
            return fitted

        monkeypatch.setitem(validation.ALGORITHMS, "scsr", replace(entry, fit=spy))
        grid_search(datasets, "scsr", [{"population": 30, "max_generations": 20}], folds=2)
        return models

    datasets = [synth_generate("cubic_fig1", s) for s in (1, 2)]
    first = datasets[0]
    half = round(first.n_rows / 2)  # fold 0 tests on rows [0, half)
    y = first.y.copy()
    y[:half] = -y[:half]
    flipped = Dataset(first.name, dict(first.columns, **{first.target: y}), first.target)
    before, after = fold_models(datasets), fold_models([flipped, datasets[1]])
    assert after[0] == before[0]
    assert after[1] != before[1]  # fold 1 trains on the flipped rows


def test_scsr_fit_without_feasible_individual_raises():
    spec = parse_constraints(
        resources.files("shapeguard.resources").joinpath("eq1.spec").read_text() + "value >= 2\n"
    )
    config = ValidationConfig(
        threshold=0.05,
        controlled_variables=["p", "v"],
        algorithm="scsr",
        algorithm_config=GAConfig(population=20, max_generations=3),
        constraints=list(spec.constraints),
        target="mu_dyn",
    )
    ds = make_corpus(18, 35, seed=0)[0]
    with pytest.raises(SolverError, match="no feasible individual"):
        validate_dataset(ds, config)
    (report,), _, _ = validate_corpus([ds], config)
    assert report.error.startswith("SolverError") and report.segment_rmses == []


SMALL_CONFIGS = {
    "pr": {"degree": 3},
    "gbt": {"n_trees": 5},
    "scsr": {"population": 30, "max_generations": 5},
}


def fit_and_score(data, algorithm, target):
    config = ValidationConfig(
        threshold=0.05,
        controlled_variables=["p", "v"],
        algorithm=algorithm,
        algorithm_config=SMALL_CONFIGS[algorithm],
        target=target,
    )
    return validate_dataset(data, config).to_dict()


@pytest.mark.parametrize("algorithm", sorted(SMALL_CONFIGS))
def test_config_target_fits_and_scores_that_column(algorithm):
    # one config must pose one problem: fitting alt and scoring mu_dyn, or
    # fitting mu_dyn, would give another report
    data = synth_generate("friction_valid", 1)
    data = replace(data, columns=dict(data.columns, alt=0.5 * data.y))
    expected = fit_and_score(replace(data, target="alt"), algorithm, None)
    assert fit_and_score(data, algorithm, "alt") == expected
    assert fit_and_score(data, algorithm, "mu_dyn") == fit_and_score(data, algorithm, None)


def test_config_target_naming_no_column_is_a_schema_error():
    with pytest.raises(SchemaError, match="'friction'"):
        fit_and_score(synth_generate("friction_valid", 1), "pr", "friction")


SHIPPED_SPECS = sorted(
    f.name for f in resources.files("shapeguard.resources").iterdir() if f.name.endswith(".spec")
)


@pytest.mark.parametrize("name", SHIPPED_SPECS)
def test_shipped_spec_round_trips_and_an_scpr_fit_certifies_it(name):
    spec = parse_constraints(resources.files("shapeguard.resources").joinpath(name).read_text())
    config = ValidationConfig(
        threshold=0.05,
        controlled_variables=["p", "v"],
        algorithm="scpr",
        algorithm_config=SCPRConfig(degree=3, lam=1e-6),
        constraints=spec.constraints,
        target=spec.target,
    )
    report = validate_dataset(make_corpus(18, 35, seed=0)[0], config)
    verdicts = [e["verdict"] for e in report.certification["constraints"]]
    assert verdicts == ["CERTIFIED"] * len(spec.constraints)
