"""Gradient-boosted regression trees with per-feature monotonicity.

Squared-error boosting with exact greedy splits on sorted unique values
(Chen & Guestrin 2016).  At each node every candidate threshold of a feature
is scored at once: the prefix sums of the gradients sorted by that feature
give each split's child gradient sums and counts, and array operations turn
them into soft-thresholded child weights and gains.  Monotone directions
apply to the whole input space of a feature: candidate splits whose child
weights would be mis-ordered are rejected, and accepted splits clamp each
child's weight range to the parent midpoint, which makes every individual
tree (and hence the ensemble) monotone by construction.

Ties go to the earliest candidate: features are taken in column order and
thresholds in ascending order, and a candidate replaces the best split only
if its gain exceeds the best by more than 1e-15.  Prediction routes arrays of
row indices down each tree.
"""

from __future__ import annotations

import json
import math
import warnings
from dataclasses import dataclass, field

import numpy as np

from .datasets import Dataset
from .errors import ConfigError, SchemaError

__all__ = ["GBTConfig", "RegTreeNode", "GBTEnsemble", "fit_gbt", "predict_gbt", "monotonicity_audit"]


@dataclass
class GBTConfig:
    n_trees: int = 100
    learning_rate: float = 0.1
    max_depth: int = 4
    lam: float = 1.0
    alpha: float = 0.0
    min_samples_leaf: int = 5
    monotone: dict = field(default_factory=dict)  # variable -> +1 | -1 | 0

    def __post_init__(self):
        if self.n_trees < 0 or self.max_depth < 0 or self.min_samples_leaf < 1:
            raise ConfigError("invalid tree parameters")
        if self.lam < 0 or self.alpha < 0:
            raise ConfigError("penalties must be >= 0")
        for v, d in self.monotone.items():
            if d not in (-1, 0, 1):
                raise ConfigError(f"monotone direction for {v!r} must be -1, 0 or +1")


@dataclass
class RegTreeNode:
    """Internal node (variable, threshold, children) or leaf (weight)."""

    weight: float | None = None
    variable: str | None = None
    threshold: float | None = None
    left: "RegTreeNode | None" = None
    right: "RegTreeNode | None" = None

    @property
    def is_leaf(self) -> bool:
        return self.variable is None

    def to_dict(self) -> dict:
        if self.is_leaf:
            return {"weight": self.weight}
        return {
            "variable": self.variable,
            "threshold": self.threshold,
            "left": self.left.to_dict(),
            "right": self.right.to_dict(),
        }

    @classmethod
    def from_dict(cls, obj: dict) -> "RegTreeNode":
        if "variable" not in obj:
            return cls(weight=float(obj["weight"]))
        return cls(
            variable=obj["variable"],
            threshold=float(obj["threshold"]),
            left=cls.from_dict(obj["left"]),
            right=cls.from_dict(obj["right"]),
        )


@dataclass
class GBTEnsemble:
    base_score: float
    learning_rate: float
    features: list
    trees: list = field(default_factory=list)
    monotone: dict = field(default_factory=dict)

    def to_json(self) -> str:
        return json.dumps(
            {
                "base_score": self.base_score,
                "learning_rate": self.learning_rate,
                "features": self.features,
                "monotone": self.monotone,
                "trees": [t.to_dict() for t in self.trees],
            }
        )

    @classmethod
    def from_json(cls, text: str) -> "GBTEnsemble":
        obj = json.loads(text)
        return cls(
            base_score=float(obj["base_score"]),
            learning_rate=float(obj["learning_rate"]),
            features=list(obj["features"]),
            monotone={k: int(v) for k, v in obj.get("monotone", {}).items()},
            trees=[RegTreeNode.from_dict(t) for t in obj["trees"]],
        )


def _leaf_weight(G, H, lam: float, alpha: float):
    """XGBoost-style weight: -soft_threshold(G, alpha) / (H + lam), elementwise."""
    g = np.copysign(np.maximum(np.abs(G) - alpha, 0.0), G)
    return -g / (H + lam)


def _objective(G, H, w, lam: float, alpha: float):
    return G * w + 0.5 * (H + lam) * w * w + alpha * np.abs(w)


def _clamp(w, lo: float, hi: float):
    """min(max(w, lo), hi) elementwise; a tie keeps w, as Python's min and max do."""
    w = np.where(lo > w, lo, w)
    return np.where(hi < w, hi, w)


def _build_tree(X, names, grad, idx, depth, bounds, config: GBTConfig) -> RegTreeNode:
    """Grow a subtree on rows idx; X holds one row per feature, in names order."""
    lam, alpha = config.lam, config.alpha
    g_node = grad[idx]
    G = float(g_node.sum())
    H = float(len(idx))
    lo, hi = bounds
    w = float(_clamp(_leaf_weight(G, H, lam, alpha), lo, hi))
    if depth >= config.max_depth or len(idx) < 2 * config.min_samples_leaf:
        return RegTreeNode(weight=w)

    # Row f of each array below is feature f.  The candidate split after
    # sorted position i gives the left child the first i + 1 rows; only
    # i in [m - 1, n - m - 1] leaves both children min_samples_leaf rows.
    n, m = len(idx), config.min_samples_leaf
    x = X[:, idx]
    order = np.argsort(x, axis=1, kind="stable")
    xs = x[np.arange(len(names))[:, None], order]
    n_l = np.arange(m, n - m + 1)
    n_r = n - n_l
    GL = np.cumsum(g_node[order], axis=1)[:, m - 1 : n - m]
    GR = G - GL
    wl = _leaf_weight(GL, n_l, lam, alpha)
    wr = _leaf_weight(GR, n_r, lam, alpha)
    direction = np.array([[config.monotone.get(name, 0)] for name in names])
    # a split between equal values is no split; an increasing feature forbids
    # wl > wr and a decreasing one wl < wr (checked before clamping)
    legal = (xs[:, m - 1 : n - m] < xs[:, m : n - m + 1]) & (direction * (wl - wr) <= 0)
    gain = (
        _objective(G, H, w, lam, alpha)
        - _objective(GL, n_l, _clamp(wl, lo, hi), lam, alpha)
        - _objective(GR, n_r, _clamp(wr, lo, hi), lam, alpha)
    )
    gain[~legal] = -np.inf
    # Only a gain above every earlier gain of its feature can beat the running
    # best by the 1e-15 margin; scan those records feature by feature.
    running_max = np.maximum.accumulate(gain, axis=1)
    records = gain > np.column_stack([np.full(len(names), -np.inf), running_max[:, :-1]])
    best = None
    for f, j in zip(*np.nonzero(records)):
        if best is None or gain[f, j] > best[0] + 1e-15:
            best = (gain[f, j], f, j + m - 1)
    if best is None or best[0] <= 1e-12:
        return RegTreeNode(weight=w)

    _, f, i = best
    name = names[f]
    threshold = float(0.5 * (xs[f, i] + xs[f, i + 1]))
    mask = X[f, idx] < threshold
    left_idx = idx[mask]
    right_idx = idx[~mask]
    # recompute child weights for midpoint propagation
    Gc = np.array([grad[left_idx].sum(), grad[right_idx].sum()])
    Hc = np.array([len(left_idx), len(right_idx)], dtype=float)
    wl, wr = _clamp(_leaf_weight(Gc, Hc, lam, alpha), lo, hi)
    if direction[f, 0] == 1:
        mid = float(0.5 * (wl + wr))
        left_bounds, right_bounds = (lo, mid), (mid, hi)
    elif direction[f, 0] == -1:
        mid = float(0.5 * (wl + wr))
        left_bounds, right_bounds = (mid, hi), (lo, mid)
    else:
        left_bounds = right_bounds = (lo, hi)
    return RegTreeNode(
        variable=name,
        threshold=threshold,
        left=_build_tree(X, names, grad, left_idx, depth + 1, left_bounds, config),
        right=_build_tree(X, names, grad, right_idx, depth + 1, right_bounds, config),
    )


def _predict_tree(node: RegTreeNode, cols, n: int) -> np.ndarray:
    """One tree's leaf weights for n rows, routing row-index arrays down the tree."""
    out = np.empty(n)
    stack = [(node, np.arange(n))]
    while stack:
        node, rows = stack.pop()
        if node.is_leaf:
            out[rows] = node.weight
            continue
        go_left = cols[node.variable][rows] < node.threshold
        stack.append((node.left, rows[go_left]))
        stack.append((node.right, rows[~go_left]))
    return out


def fit_gbt(data: Dataset, config: GBTConfig, features=None, target=None) -> GBTEnsemble:
    """Boost squared-error trees on residuals; monotone splits enforced."""
    target = target or data.target
    if features is None:
        features = [c for c in data.columns if c != target]
    for name in list(features) + [target]:
        if name not in data.columns:
            raise SchemaError(f"column {name!r} not present")
    if data.n_rows < config.min_samples_leaf:
        raise SchemaError("fewer rows than min_samples_leaf")
    unknown = set(config.monotone) - set(features)
    if unknown:
        raise ConfigError(f"monotone constraints on unknown features {sorted(unknown)}")

    cols = {f: data.columns[f] for f in features}
    X = np.array(list(cols.values())).reshape(len(cols), data.n_rows)
    y = data.y
    base = float(y.mean())
    pred = np.full(data.n_rows, base)
    ensemble = GBTEnsemble(
        base_score=base,
        learning_rate=config.learning_rate,
        features=list(features),
        monotone=dict(config.monotone),
    )
    idx = np.arange(data.n_rows)
    bounds = (-math.inf, math.inf)
    stumped = False
    for _ in range(config.n_trees):
        grad = pred - y  # gradient of 0.5 * (pred - y)^2
        tree = _build_tree(X, ensemble.features, grad, idx, 0, bounds, config)
        if tree.is_leaf and abs(tree.weight) < 1e-15:
            stumped = True
            break
        ensemble.trees.append(tree)
        pred = pred + config.learning_rate * _predict_tree(tree, cols, data.n_rows)
    if not ensemble.trees and stumped:
        warnings.warn("no legal split at any root; ensemble reduces to the intercept")
    return ensemble


def predict_gbt(ensemble: GBTEnsemble, columns) -> np.ndarray:
    """Base score plus learning-rate-scaled tree contributions."""
    missing = [f for f in ensemble.features if f not in columns]
    if missing:
        raise SchemaError(f"input columns missing for features {missing}")
    if not columns:
        raise SchemaError("no input columns")
    first = next(iter(columns.values()))
    n = len(np.atleast_1d(np.asarray(first, dtype=float)))
    cols = {k: np.atleast_1d(np.asarray(v, dtype=float)) for k, v in columns.items()}
    out = np.full(n, ensemble.base_score)
    for tree in ensemble.trees:
        out = out + ensemble.learning_rate * _predict_tree(tree, cols, n)
    return out


def monotonicity_audit(ensemble: GBTEnsemble, variable: str, direction: int, grid) -> float:
    """Worst adjacent-pair violation along a grid sorted by `variable`.

    Returns max over adjacent grid pairs of (pred(x_i) - pred(x_{i+1})) *
    direction, floored at zero; <= 1e-9 for a compliant ensemble.
    """
    grid = list(grid)
    if len(grid) < 2 or not ensemble.trees:
        return 0.0
    cols = {k: np.array([p[k] for p in grid], dtype=float) for k in grid[0]}
    preds = predict_gbt(ensemble, cols)
    gaps = (preds[:-1] - preds[1:]) * direction
    return float(max(gaps.max(), 0.0))
