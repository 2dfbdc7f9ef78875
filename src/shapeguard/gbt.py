"""Gradient-boosted regression trees with per-feature monotonicity.

Squared-error boosting with exact greedy splits on sorted unique values
(Chen & Guestrin 2016).  Each fit sorts every feature's rows once (a stable
argsort), and each tree grows a level at a time: the level keeps, per
feature, its nodes' rows grouped by node and in sorted order, and a split
regroups them with a stable sort by child label.  One cumsum over the
level's node-padded gradients gives every node's prefix sums, which give each
candidate threshold's child gradient sums and counts; gains, from
soft-thresholded child weights, are computed only where the sorted value
changes inside the min_samples_leaf window.  Monotone directions apply to the
whole input space of a feature: candidate splits whose child weights would be
mis-ordered are rejected, and accepted splits clamp each child's weight range
to the parent midpoint, which makes every individual tree (and hence the
ensemble) monotone by construction.

Ties go to the earliest candidate: features are taken in column order and
thresholds in ascending order, and a candidate replaces the best split only
if its gain exceeds the best by more than 1e-15.  Each node's gradient sum is
taken over its rows in ascending order, so a tree's floats do not depend on
the order in which its nodes are grown.  A fit updates its training
predictions from each leaf's rows; prediction routes arrays of row indices
down each tree.
"""

from __future__ import annotations

import itertools
import json
import math
import warnings
from dataclasses import dataclass, field

import numpy as np

from .datasets import Dataset
from .errors import ConfigError, SchemaError
from .poly import _json_field, _json_float, _json_loads

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
        if self.n_trees < 0 or self.max_depth < 1 or self.min_samples_leaf < 1:
            raise ConfigError(
                "invalid tree parameters: need n_trees >= 0, max_depth >= 1 and "
                f"min_samples_leaf >= 1, got {self.n_trees}, {self.max_depth}, "
                f"{self.min_samples_leaf}"
            )
        if not (math.isfinite(self.learning_rate) and self.learning_rate > 0):
            raise ConfigError(f"learning_rate must be finite and > 0, got {self.learning_rate}")
        if not all(math.isfinite(p) and p >= 0 for p in (self.lam, self.alpha)):
            raise ConfigError(
                f"penalties must be finite and >= 0, got lam={self.lam}, alpha={self.alpha}"
            )
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
    def from_dict(cls, obj: dict, where: str = "tree") -> "RegTreeNode":
        """Inverse of to_dict; SchemaError names a missing or ill-typed field."""
        if not isinstance(obj, dict) or "variable" not in obj:
            return cls(weight=_json_float(obj, where, "weight"))
        return cls(
            variable=_json_field(obj, where, "variable", str),
            threshold=_json_float(obj, where, "threshold"),
            left=cls.from_dict(_json_field(obj, where, "left", dict), where + ".left"),
            right=cls.from_dict(_json_field(obj, where, "right", dict), where + ".right"),
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
        """Inverse of to_json; SchemaError names a missing or ill-typed field."""
        obj = _json_loads(text, "model")
        return cls(
            base_score=_json_float(obj, "model", "base_score"),
            learning_rate=_json_float(obj, "model", "learning_rate"),
            features=list(_json_field(obj, "model", "features", list, str)),
            monotone=dict(_json_field(obj, "model", "monotone", dict, int)) if "monotone" in obj else {},
            trees=[
                RegTreeNode.from_dict(t, f"model tree {i}")
                for i, t in enumerate(_json_field(obj, "model", "trees", list))
            ],
        )


def _leaf_weight(G, H, lam: float, alpha: float):
    """XGBoost-style weight: -soft_threshold(G, alpha) / (H + lam), elementwise."""
    g = np.copysign(np.maximum(np.abs(G) - alpha, 0.0), G)
    return -g / (H + lam)


def _objective(G, H, w, lam: float, alpha: float):
    return G * w + 0.5 * (H + lam) * w * w + alpha * abs(w)


def _clamp(w, lo, hi):
    """min(max(w, lo), hi) elementwise; a tie keeps w, as Python's min and max do."""
    w = np.where(lo > w, lo, w)
    return np.where(hi < w, hi, w)


def _node_weight(G: float, H: float, lo: float, hi: float, lam: float, alpha: float) -> float:
    """_clamp(_leaf_weight(G, H, lam, alpha), lo, hi) for one node, in Python floats."""
    g = math.copysign(max(abs(G) - alpha, 0.0), G)
    # numpy division, so an empty child (H + lam == 0) weighs inf or nan as in _leaf_weight
    return min(max(float(np.float64(-g) / (H + lam)), lo), hi)


def _best_splits(X, perm, grad, G, counts, bounds, weights, direction, config: GBTConfig) -> dict:
    """Frontier node index -> (feature, threshold) of each node's best legal split.

    X, perm and the per-node lists G, counts, bounds and weights are as in
    _grow_tree.  Each node's sorted gradients are padded to the largest node's
    length, so one cumsum along the last axis gives every node's prefix sums,
    and gains are scored only where the sorted value changes and both children
    keep min_samples_leaf rows.
    """
    lam, alpha, m = config.lam, config.alpha, config.min_samples_leaf
    n_feat, n_nodes, width = len(X), len(counts), max(counts)
    count = np.array(counts)
    at = np.arange(width)
    start = np.cumsum(count) - count
    # rows[f, k, j]: row at sorted position j of node k by feature f.  Positions
    # past a node's rows hold other real rows; no candidate reads that far.
    rows = perm[:-1, np.minimum(start[:, None] + at, perm.shape[1] - 1)]
    xs = X[np.arange(n_feat)[:, None, None], rows]
    csum = np.cumsum(grad[rows], axis=2)
    # The candidate after sorted position i gives the left child the first
    # i + 1 rows; a split between equal values is no split.
    window = (at[:-1] >= m - 1) & (at[:-1] < count[:, None] - m)
    k, f, i = np.nonzero(((xs[:, :, :-1] < xs[:, :, 1:]) & window).transpose(1, 0, 2))
    parent = [_objective(g, float(c), w, lam, alpha) for g, c, w in zip(G, counts, weights)]
    G_k, lo, hi, parent_k = np.array([G, *zip(*bounds), parent])[:, k]
    GL = csum[f, k, i]
    GR = G_k - GL
    n_l = i + 1
    n_r = count[k] - n_l
    wl = _leaf_weight(GL, n_l, lam, alpha)
    wr = _leaf_weight(GR, n_r, lam, alpha)
    gain = (
        parent_k
        - _objective(GL, n_l, _clamp(wl, lo, hi), lam, alpha)
        - _objective(GR, n_r, _clamp(wr, lo, hi), lam, alpha)
    )
    # an increasing feature forbids wl > wr and a decreasing one wl < wr (checked before clamping)
    gain = np.where(direction[f] * (wl - wr) <= 0, gain, -np.inf)
    # Only a gain above every earlier gain of its (node, feature) can beat the
    # running best by the 1e-15 margin; scan those records in (node, feature,
    # position) order.
    padded = np.full((n_nodes, n_feat, width), -np.inf)
    padded[k, f, i + 1] = gain
    record = gain > np.maximum.accumulate(padded, axis=2)[k, f, i]
    best = {}
    records = (k[record].tolist(), f[record].tolist(), i[record].tolist(), gain[record].tolist())
    for node, feat, pos, g in zip(*records):
        if node not in best or g > best[node][0] + 1e-15:
            best[node] = (g, feat, pos)
    splits = {}
    for node, (g, feat, pos) in best.items():
        if g > 1e-12:
            below, above = xs[feat, node, pos : pos + 2].tolist()
            # between adjacent floats the midpoint rounds onto below, which
            # would send below's rows right: take above then
            mid = 0.5 * (below + above)
            splits[node] = (feat, mid if mid > below else above)
    return splits


def _grow_tree(X, perm, grad, direction, names, config: GBTConfig):
    """One tree on all rows, grown a level at a time, and each row's leaf weight.

    X holds one row per feature, in names order.  perm holds one row per
    feature, the row indices in stable sorted order of that feature, and a last
    row 0..n-1.  At each level perm keeps only the rows of the level's nodes,
    grouped by node in frontier order; a stable sort by child label keeps every
    group in the order a stable argsort of the node's own rows would give.
    """
    lam, alpha = config.lam, config.alpha
    leaf_w = np.empty(X.shape[1])
    root = RegTreeNode()
    # the frontier: per node, its gradient sum, row count and weight bounds
    nodes, G, counts, bounds = [root], [float(grad.sum())], [X.shape[1]], [(-math.inf, math.inf)]
    for depth in range(config.max_depth + 1):
        weights = [
            _node_weight(g, float(c), lo, hi, lam, alpha)
            for g, c, (lo, hi) in zip(G, counts, bounds)
        ]
        # deeper levels overwrite the rows of nodes that split
        leaf_w[perm[-1]] = np.repeat(weights, counts)
        splits = {}
        if depth < config.max_depth:
            splits = _best_splits(X, perm, grad, G, counts, bounds, weights, direction, config)
        for k, node in enumerate(nodes):
            if k not in splits:
                node.weight = weights[k]
        if not splits:
            break

        # Child labels: 2s and 2s + 1 for the left and right child of the s-th
        # split node, and the two labels past them for rows of new leaves.
        split_nodes = sorted(splits)
        n_labels = 2 * len(split_nodes)
        base, feat, thr = [n_labels] * len(nodes), [0] * len(nodes), [math.nan] * len(nodes)
        for s, k in enumerate(split_nodes):
            base[k] = 2 * s
            feat[k], thr[k] = splits[k]
        node_of = np.repeat(np.arange(len(nodes)), counts)
        goes_right = ~(X[np.array(feat)[node_of], perm[-1]] < np.array(thr)[node_of])
        label = np.array(base, dtype=np.min_scalar_type(n_labels + 1))[node_of] + goes_right
        row_label = np.empty(X.shape[1], dtype=label.dtype)
        row_label[perm[-1]] = label
        sizes = np.bincount(label, minlength=n_labels)[:n_labels].tolist()
        order = np.argsort(row_label[perm], axis=1, kind="stable")[:, : sum(sizes)]
        perm = perm[np.arange(len(perm))[:, None], order]

        # each child's gradient sum over its rows in ascending order, as grad[rows].sum()
        g_rows = grad[perm[-1]]
        ends = list(itertools.accumulate(sizes))
        child_G = [float(g_rows[e - c : e].sum()) for e, c in zip(ends, sizes)]
        nodes_next, bounds_next = [], []
        for s, k in enumerate(split_nodes):
            f, threshold = splits[k]
            node = nodes[k]
            node.variable, node.threshold = names[f], threshold
            node.left, node.right = RegTreeNode(), RegTreeNode()
            (gl, gr), (cl, cr) = child_G[2 * s : 2 * s + 2], sizes[2 * s : 2 * s + 2]
            lo, hi = bounds[k]
            left_bounds = right_bounds = (lo, hi)
            if direction[f]:
                # midpoint of the children's weights clamped to this node's bounds
                mid = 0.5 * (
                    _node_weight(gl, float(cl), lo, hi, lam, alpha)
                    + _node_weight(gr, float(cr), lo, hi, lam, alpha)
                )
                left_bounds, right_bounds = (lo, mid), (mid, hi)
                if direction[f] == -1:
                    left_bounds, right_bounds = right_bounds, left_bounds
            nodes_next += [node.left, node.right]
            bounds_next += [left_bounds, right_bounds]
        nodes, G, counts, bounds = nodes_next, child_G, sizes, bounds_next
    return root, leaf_w


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


def fit_gbt(data: Dataset, config: GBTConfig) -> GBTEnsemble:
    """Boost squared-error trees of ``data.target`` on ``data.feature_names``; monotone splits enforced."""
    features = data.feature_names
    if data.n_rows < config.min_samples_leaf:
        raise SchemaError("fewer rows than min_samples_leaf")
    unknown = set(config.monotone) - set(features)
    if unknown:
        raise ConfigError(f"monotone constraints on unknown features {sorted(unknown)}")

    X = np.array([data.columns[f] for f in features]).reshape(len(features), data.n_rows)
    # sorted once per fit: each tree's levels only regroup these orders
    perm = np.vstack([np.argsort(X, axis=1, kind="stable"), np.arange(data.n_rows)])
    direction = np.array([config.monotone.get(f, 0) for f in features])
    y = data.y
    base = float(y.mean())
    pred = np.full(data.n_rows, base)
    ensemble = GBTEnsemble(
        base_score=base,
        learning_rate=config.learning_rate,
        features=features,
        monotone=dict(config.monotone),
    )
    stumped = False
    for _ in range(config.n_trees):
        grad = pred - y  # gradient of 0.5 * (pred - y)^2
        tree, leaf_w = _grow_tree(X, perm, grad, direction, ensemble.features, config)
        if tree.is_leaf and abs(tree.weight) < 1e-15:
            stumped = True
            break
        ensemble.trees.append(tree)
        pred = pred + config.learning_rate * leaf_w
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
    cols = {k: np.atleast_1d(np.asarray(v, dtype=float)) for k, v in columns.items()}
    lengths = {k: len(v) for k, v in cols.items()}
    if len(set(lengths.values())) > 1:
        raise SchemaError(f"ragged columns: {lengths}")
    n = len(next(iter(cols.values())))
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
