"""Constraint-based data validation: segmentation, scoring, ROC, grid search.

A dataset is split into segments wherever a controlled input changes, a
constrained model is trained on the full data, per-segment RMSE is computed
on the unit-normalized target, and the dataset is classified invalid when the
maximum segment RMSE exceeds the threshold ``t`` (strictly).  Sweeping ``t``
over corpus scores yields the ROC curve; ``invalid`` is the positive class.
"""

from __future__ import annotations

import itertools
import math
from collections.abc import Callable
from dataclasses import asdict, dataclass, field, replace as dc_replace
from functools import partial
from typing import get_type_hints

import numpy as np

from . import gbt as gbt_mod
from . import scpr as scpr_mod
from . import scsr as scsr_mod
from .certify import certify as run_certification
from .datasets import Dataset, scale_unit
from .errors import ConfigError, DataError, DegenerateError, GridError, SchemaError, SolverError
from .poly import PolyModel, _settings

__all__ = [
    "Segment",
    "ValidationConfig",
    "ValidationReport",
    "RocCurve",
    "segment",
    "score_segments",
    "classify",
    "roc",
    "grid_search",
    "validate_dataset",
    "validate_corpus",
    "monotone_from_constraints",
    "Algorithm",
    "ALGORITHMS",
]


@dataclass(frozen=True)
class Segment:
    """Row range [start, end) with constant controlled values."""

    start: int
    end: int
    controlled_values: tuple  # ((name, value), ...)


@dataclass
class ValidationConfig:
    threshold: float
    controlled_variables: list
    algorithm: str  # a key of ALGORITHMS
    algorithm_config: object = None  # the algorithm's config, or a dict of its fields
    constraints: list = field(default_factory=list)
    target: str | None = None  # replaces the dataset's target in validate_dataset when set

    def __post_init__(self):
        _check_threshold(self.threshold)
        settings = {} if self.algorithm_config is None else self.algorithm_config
        self.algorithm_config = _config_from_settings(self.algorithm, settings)


@dataclass
class ValidationReport:
    dataset: str
    segment_rmses: list
    score: float
    verdict: str  # "valid" | "invalid"
    fit_report: dict | None = None
    certification: dict | None = None
    label: str | None = None
    error: str | None = None

    def to_dict(self) -> dict:
        return asdict(self)


@dataclass
class RocCurve:
    fpr: list
    tpr: list
    thresholds: list
    auc: float

    def to_csv(self) -> str:
        lines = ["threshold,fpr,tpr"]
        for t, f, tp in zip(self.thresholds, self.fpr, self.tpr):
            lines.append(f"{t!r},{f!r},{tp!r}")
        return "\n".join(lines) + "\n"


# ---------------------------------------------------------------------------
# segmentation and scoring
# ---------------------------------------------------------------------------


def segment(data: Dataset, controlled) -> list:
    """Maximal runs of rows with constant controlled values (exact equality)."""
    for c in controlled:
        if c not in data.columns:
            raise SchemaError(f"controlled column {c!r} not present")
    n = data.n_rows
    if n == 0:
        return []
    cols = [data.columns[c] for c in controlled]
    change = np.zeros(n - 1, dtype=bool)
    for col in cols:
        change |= col[1:] != col[:-1]
    bounds = [0, *(np.flatnonzero(change) + 1).tolist(), n]
    return [_make_segment(controlled, cols, s, e) for s, e in zip(bounds[:-1], bounds[1:])]


def _make_segment(controlled, cols, start, end) -> Segment:
    values = tuple((name, float(col[start])) for name, col in zip(controlled, cols))
    return Segment(start=start, end=end, controlled_values=values)


def score_segments(predictions, data: Dataset, segments) -> list:
    """Per-segment root-mean-square residual.

    Each mean is ``np.add.reduce`` over the segment's squares divided by its
    length, the bits of ``np.mean`` without its per-call overhead.
    """
    predictions = np.asarray(predictions, dtype=float)
    if len(predictions) != data.n_rows:
        raise SchemaError("predictions length mismatch")
    sq = (predictions - data.y) ** 2
    return [math.sqrt(np.add.reduce(sq[s.start : s.end]) / (s.end - s.start)) for s in segments]


def _check_threshold(t: float) -> None:
    if not (math.isfinite(t) and t > 0):
        raise ConfigError(f"threshold must be finite and > 0, got {t}")


def classify(segment_rmses, t: float) -> str:
    """'invalid' iff any segment RMSE strictly exceeds t.

    DataError when an RMSE is not finite: no threshold can judge it.
    """
    _check_threshold(t)
    if not all(math.isfinite(r) for r in segment_rmses):
        raise DataError(f"non-finite segment RMSE in {list(segment_rmses)}")
    score = max(segment_rmses, default=0.0)
    return "invalid" if score > t else "valid"


# ---------------------------------------------------------------------------
# ROC
# ---------------------------------------------------------------------------


def roc(scores, labels) -> RocCurve:
    """Threshold sweep over unique scores; invalid is the positive class."""
    scores = [float(s) for s in scores]
    labels = list(labels)
    if len(scores) != len(labels):
        raise SchemaError("scores/labels length mismatch")
    pos = sum(1 for l in labels if l == "invalid")
    neg = len(labels) - pos
    if pos == 0 or neg == 0:
        raise DegenerateError("ROC needs both classes present")

    thresholds = [math.inf] + sorted(set(scores), reverse=True) + [-math.inf]
    fpr, tpr = [], []
    for t in thresholds:
        tp = sum(1 for s, l in zip(scores, labels) if s > t and l == "invalid")
        fp = sum(1 for s, l in zip(scores, labels) if s > t and l != "invalid")
        tpr.append(tp / pos)
        fpr.append(fp / neg)
    # Trapezoid rule over the swept points; a tied score block is one
    # diagonal step, so it counts its positive/negative pairs as 1/2.
    auc = sum(
        (f1 - f0) * (t0 + t1) / 2.0
        for f0, f1, t0, t1 in zip(fpr, fpr[1:], tpr, tpr[1:])
    )
    return RocCurve(fpr=fpr, tpr=tpr, thresholds=thresholds, auc=auc)


# ---------------------------------------------------------------------------
# model adapters
# ---------------------------------------------------------------------------


def monotone_from_constraints(constraints) -> dict:
    """GBT monotone directions, {feature: +1 or -1}, from ``d1 x >= 0`` and ``d1 x <= 0`` rules.

    Regions are not read: such a rule on any region fixes the direction on
    the feature's whole axis.  When rules on one feature disagree, the last
    one wins.  Every other rule is skipped.
    """
    monotone = {}
    for c in constraints:
        if c.order != 1:
            continue
        (var, _), = c.derivative.items()
        if c.bound.lo == 0.0 and math.isinf(c.bound.hi):
            monotone[var] = 1
        elif c.bound.hi == 0.0 and math.isinf(c.bound.lo):
            monotone[var] = -1
    return monotone


# The fits look up scpr_mod.fit_constrained, scsr_mod.evolve and the rest at
# call time, and pass evolve its config by keyword: perfbench wraps those names
# and reads that argument.
def _fit_poly(constrained: bool):
    def fit(train, config, constraints):
        if constrained:
            model, report = scpr_mod.fit_constrained(train, config, constraints)
        else:
            model, report = scpr_mod.fit_unconstrained(train, config)
        return model, model.evaluate_columns, report.to_dict()

    return fit


def _fit_gbt(train, config, constraints):
    if not config.monotone and constraints:
        config = dc_replace(config, monotone=monotone_from_constraints(constraints))
    ensemble = gbt_mod.fit_gbt(train, config)

    def predict(columns):
        # the training rows' sums are the fit's own: same base, leaves and order
        if columns is train.columns:
            return ensemble.train_pred.copy()
        return gbt_mod.predict_gbt(ensemble, columns)

    return ensemble, predict, {"n_trees": len(ensemble.trees)}


def _fit_scsr(train, config, constraints):
    best = scsr_mod.evolve(train, config=config, constraints=constraints)[-1]
    if best.feasible_fraction == 0.0:
        raise SolverError(
            f"no feasible individual after {best.generation + 1} generations "
            f"(population {config.population})"
        )
    a, b = best.best_scale
    tree = ("add", ("mul", ("const", a), best.best_tree), ("const", b))
    return tree, partial(scsr_mod.eval_tree_columns, tree), {"train_rmse": best.best_train_rmse}


def _certify_poly(model, constraints) -> dict:
    # through the module attribute, so wrappers of run_certification see every call
    return run_certification(model, constraints).to_dict()


@dataclass(frozen=True)
class Algorithm:
    """``fit(train, config, constraints)`` returns ``(model, predict, info)``.

    ``fit`` models ``train.target`` on ``train.feature_names``.  It is given
    no test rows, so only training rows can shape the model.
    ``certify(model, constraints)`` returns the model's certification as a
    dict; it is None for an algorithm whose models have no certifier.
    """

    config: type
    fit: Callable
    to_json: Callable
    grid: dict  # default grid-search cells; empty means none
    certify: Callable | None


DEFAULT_GRID = {
    "degree": [2, 3, 4, 5, 6],
    "lam": [float(x) for x in np.logspace(-6, 1, 8)],
    "alpha": [0.0, 0.5, 1.0],
}

ALGORITHMS = {
    "pr": Algorithm(scpr_mod.SCPRConfig, _fit_poly(False), PolyModel.to_json, DEFAULT_GRID, _certify_poly),
    "scpr": Algorithm(scpr_mod.SCPRConfig, _fit_poly(True), PolyModel.to_json, DEFAULT_GRID, _certify_poly),
    "scsr": Algorithm(scsr_mod.GAConfig, _fit_scsr, scsr_mod.tree_to_json, {}, None),
    "gbt": Algorithm(gbt_mod.GBTConfig, _fit_gbt, gbt_mod.GBTEnsemble.to_json, {}, None),
}


def _config_from_settings(algorithm: str, settings, where: str = "algorithm_config"):
    """The algorithm's config from settings, an object of its fields (a config passes through).

    ConfigError names ``where`` for an unknown algorithm, for settings that
    ``poly._settings`` rejects, and for a value out of the config's range.
    """
    if algorithm not in ALGORITHMS:
        raise ConfigError(f"unknown algorithm {algorithm!r}")
    cls = ALGORITHMS[algorithm].config
    if isinstance(settings, cls):
        return settings
    fields = _settings(where, settings, get_type_hints(cls))
    try:
        return cls(**fields)
    except ConfigError as exc:
        raise ConfigError(f"{where}: {exc}") from None


# ---------------------------------------------------------------------------
# grid search
# ---------------------------------------------------------------------------


def _expand_grid(param_grid):
    """The cells of a grid: an object of value lists (their product) or a list of objects."""
    if isinstance(param_grid, dict):
        for key, values in param_grid.items():
            if not isinstance(values, (list, tuple)):
                raise ConfigError(f"grid key {key!r} must be a list of values, got {values!r}")
        keys = list(param_grid)
        return [dict(zip(keys, combo)) for combo in itertools.product(*param_grid.values())]
    if not isinstance(param_grid, (list, tuple)) or not all(isinstance(c, dict) for c in param_grid):
        raise ConfigError(
            f"grid must be an object of value lists or a list of objects, got {param_grid!r}"
        )
    return [dict(c) for c in param_grid]


def _contiguous_folds(data: Dataset, folds: int):
    """(train, test) dataset pairs, one per fold."""
    rows = np.arange(data.n_rows)
    bounds = [round(i * data.n_rows / folds) for i in range(folds + 1)]
    return [
        (data.select_rows(np.concatenate([rows[:lo], rows[hi:]])), data.select_rows(rows[lo:hi]))
        for lo, hi in zip(bounds, bounds[1:])
    ]


def grid_search(valid_datasets, algorithm, param_grid, folds=2, constraints=()):
    """Sum of fold test RMSE per grid cell across all valid datasets.

    Each dataset's own target is fitted and scored.  Folds are contiguous
    (unshuffled) row splits.  Every cell's config is built before the first
    fit, so a bad cell raises ConfigError naming the cell and the key.  A
    failed cell is one whose fit raised or gave a non-finite test RMSE; ties
    break toward the smallest degree, then the largest lambda, over the cells
    that did not fail.  Returns (best params, result table).
    """
    cells = _expand_grid(param_grid)
    configs = [_config_from_settings(algorithm, cell, f"grid cell {i}") for i, cell in enumerate(cells)]
    if not configs:
        raise ConfigError("empty parameter grid")
    valid_datasets, constraints = list(valid_datasets), list(constraints)
    if len(valid_datasets) < 2:
        raise ConfigError("grid search needs >= 2 valid datasets")
    rows = min(ds.n_rows for ds in valid_datasets)
    if not 2 <= folds <= rows:
        raise ConfigError(f"folds must lie in [2, {rows}], the smallest dataset's rows; got {folds}")
    entry = ALGORITHMS[algorithm]
    splits = [pair for ds in valid_datasets for pair in _contiguous_folds(ds, folds)]

    table = []
    for cell, config in zip(cells, configs):
        total, failed = 0.0, None
        for train, test in splits:
            try:
                _, predict, _ = entry.fit(train, config, constraints)
                preds = predict(test.columns)
                rmse = float(np.sqrt(np.mean((preds - test.y) ** 2)))
                if not math.isfinite(rmse):
                    raise GridError("non-finite test RMSE")
                total += rmse
            except Exception as exc:  # cell marked failed, search continues
                failed = f"{type(exc).__name__}: {exc}"
                break
        table.append({"params": cell, "sum_test_rmse": None if failed else total, "error": failed})

    ok = [row for row in table if row["error"] is None]
    if not ok:
        raise GridError("every grid cell failed")

    def tie_key(row):
        p = row["params"]
        return (
            row["sum_test_rmse"],
            p.get("degree", p.get("max_depth", 0)),
            -p.get("lam", 0.0),
        )

    best = min(ok, key=tie_key)
    return best["params"], table


def grid_table_to_csv(table) -> str:
    keys = sorted({k for row in table for k in row["params"]})
    lines = [",".join(keys + ["sum_test_rmse", "error"])]
    for row in table:
        vals = [repr(row["params"].get(k, "")) for k in keys]
        vals.append("" if row["sum_test_rmse"] is None else repr(row["sum_test_rmse"]))
        vals.append(row["error"] or "")
        lines.append(",".join(vals))
    return "\n".join(lines) + "\n"


# ---------------------------------------------------------------------------
# corpus validation
# ---------------------------------------------------------------------------


def validate_dataset(data: Dataset, config: ValidationConfig) -> ValidationReport:
    """Train a constrained model on the full dataset and threshold segment RMSE.

    A set ``config.target`` replaces ``data.target`` here, once (SchemaError if
    no column has that name).  Inputs are unit-scaled before fitting; RMSE is
    normalized by the target range so one threshold is comparable across datasets.
    """
    if config.target is not None and config.target != data.target:
        data = dc_replace(data, target=config.target)
    scaled = scale_unit(data, data.feature_names)
    y = scaled.y
    y_range = float(y.max() - y.min())
    if y_range <= 0:
        y_range = 1.0

    segments = segment(scaled, config.controlled_variables)
    entry = ALGORITHMS[config.algorithm]
    model, predict, fit_info = entry.fit(scaled, config.algorithm_config, config.constraints)
    preds = predict(scaled.columns)
    rmses = [r / y_range for r in score_segments(preds, scaled, segments)]
    verdict = classify(rmses, config.threshold)

    certification = None
    if entry.certify and config.constraints:
        certification = entry.certify(model, config.constraints)

    return ValidationReport(
        dataset=data.name,
        segment_rmses=rmses,
        score=max(rmses, default=0.0),
        verdict=verdict,
        fit_report=fit_info,
        certification=certification,
        label=data.label,
    )


def validate_corpus(datasets, config: ValidationConfig):
    """Validate every dataset; failures are recorded per dataset, never fatal.

    Returns (reports, confusion dict, RocCurve or None).  SchemaError names
    a dataset whose label is not "valid", "invalid" or None, before any fit.
    """
    datasets = list(datasets)
    for ds in datasets:
        if ds.label not in ("valid", "invalid", None):
            raise SchemaError(f'dataset {ds.name!r}: label must be "valid", "invalid" or None, got {ds.label!r}')
    reports = []
    for ds in datasets:
        try:
            reports.append(validate_dataset(ds, config))
        except Exception as exc:
            reports.append(
                ValidationReport(
                    dataset=ds.name,
                    segment_rmses=[],
                    score=math.inf,
                    verdict="invalid",
                    label=ds.label,
                    error=f"{type(exc).__name__}: {exc}",
                )
            )

    confusion = {"tp": 0, "fp": 0, "tn": 0, "fn": 0}
    for r in reports:
        if r.label is None:
            continue
        truth_invalid = r.label == "invalid"
        flagged = r.verdict == "invalid"
        if truth_invalid and flagged:
            confusion["tp"] += 1
        elif truth_invalid:
            confusion["fn"] += 1
        elif flagged:
            confusion["fp"] += 1
        else:
            confusion["tn"] += 1

    curve = None
    labeled = [(r.score, r.label) for r in reports if r.label is not None]
    label_set = {l for _, l in labeled}
    if len(label_set) == 2:
        curve = roc([s for s, _ in labeled], [l for _, l in labeled])
    return reports, confusion, curve
