"""Validation pipeline: segmentation, scoring, ROC/AUC, grid search."""

import math
from dataclasses import replace
from importlib import resources

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from shapeguard import (
    ConfigError,
    Dataset,
    DegenerateError,
    GAConfig,
    Interval,
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


def test_classify_strict_threshold():
    assert classify([0.05], 0.05) == "valid"  # strictly greater only
    assert classify([0.050001], 0.05) == "invalid"
    assert classify([], 0.05) == "valid"
    with pytest.raises(ConfigError):
        classify([0.1], 0.0)


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


def test_grid_search_skips_failing_cells():
    datasets = [synth_generate("cubic_fig1", s, {"n": 8}) for s in range(2)]
    # degree 9 on 4-row folds is rank-deficient but the search must survive
    best, table = grid_search(datasets, "pr", {"degree": [2, 3], "lam": [1e-6]}, folds=2)
    assert best["degree"] in (2, 3)
    with pytest.raises(ConfigError):
        grid_search(datasets[:1], "pr", {"degree": [2]}, folds=2)


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
