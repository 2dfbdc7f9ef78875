"""Gradient-boosted regression trees with per-feature monotonicity.

Squared-error boosting with exact greedy splits on sorted unique values
(Chen & Guestrin 2016).  Each tree grows a level at a time.  A level keeps,
per feature, its nodes' rows grouped by node and in sorted order, with their
values beside them, and a split regroups both with a stable sort by child
label.  One cumsum over the level's node-padded gradients gives every node's
prefix sums, which give each candidate threshold's child gradient sums and
counts; gains, from soft-thresholded child weights, are scored for both
children of every candidate at once, but only where the sorted value changes
inside the min_samples_leaf window.  Monotone directions apply to the whole
input space of a feature: candidate splits whose child weights would be
mis-ordered are rejected, and accepted splits clamp each child's weight range
to the parent midpoint, which makes every individual tree (and hence the
ensemble) monotone by construction.

What does not depend on the gradient is built once.  Per fit: each feature's
stable argsort, and the root level (_Level: the padded rows, the candidates'
(node, feature, position), flat offsets and child counts plus lam), which
every tree's root shares; and, for the ROOT_MEMO root splits used last, the
level after each.  Per level of a tree: the next _Level, except for the last
level, which needs only its rows.  A tree then pays only for the gradient:
gathers, one cumsum and the gain arithmetic, with each node's gradient sum,
weight bounds and weight held as arrays.  The floats are those of a per-node
search: every prefix sum is the same sequential cumsum over the node's sorted
rows, every weight and gain the same IEEE operations in the same order (with
alpha = 0 the 1-norm terms, exactly zero, are skipped, which can only flip
the sign of a zero gain; _clamp breaks ties as Python's min and max do), and
what is built once holds only row orders, sorted values and counts, which no
gradient changes.

Ties go to the earliest candidate: features are taken in column order and
thresholds in ascending order, and a candidate replaces the best split only
if its gain exceeds the best by more than 1e-15.  Each node's gradient sum is
taken over its rows in ascending order, so a tree's floats do not depend on
the order in which its nodes are grown.

A fit adds each tree's leaf weights to its training predictions by the rows
each leaf holds, and keeps the result as the ensemble's train_pred.
predict_gbt routes arrays of row indices down each tree, a row going left
where x < threshold, which is where the fit put it (the fit sends x >=
threshold right, and no value is NaN); it starts from the same base score
and adds the same leaf weights in the same order, so on the training rows it
gives train_pred bit for bit, and validation scores those rows with
train_pred instead.
"""

from __future__ import annotations

import itertools
import json
import math
import warnings
from dataclasses import dataclass, field

import numpy as np

from .datasets import Dataset
from .errors import ConfigError, DataError, SchemaError
from .poly import _json_field, _json_float, _json_loads

__all__ = ["GBTConfig", "RegTreeNode", "GBTEnsemble", "fit_gbt", "predict_gbt", "monotonicity_audit"]

# Root splits that a fit keeps the next level of.  A root split recurs within
# a few trees: on the seed-0 corpus the eight most recent give 0.768 of the
# trees their depth-1 level, against 0.775 for every root split of the fit,
# at about 75 KB a split.
ROOT_MEMO = 8


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
        if not isinstance(self.monotone, dict):
            raise ConfigError(f"monotone must be a dict of feature -> direction, got {self.monotone!r}")
        for v, d in self.monotone.items():
            # True == 1, but a bool is no direction
            if isinstance(d, (bool, np.bool_)) or d not in (-1, 0, 1):
                raise ConfigError(f"monotone direction for {v!r} must be -1, 0 or +1, got {d!r}")
        # plain ints, which to_json writes and from_json reads back (not -1.0 or np.int64(-1))
        self.monotone = {v: int(d) for v, d in self.monotone.items()}


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
    def from_dict(cls, obj: dict, where: str = "tree", features=None) -> "RegTreeNode":
        """Inverse of to_dict; SchemaError names a missing or ill-typed field,
        or, given ``features``, a split on a variable that is not one of them."""
        if not isinstance(obj, dict) or "variable" not in obj:
            return cls(weight=_json_float(obj, where, "weight"))
        variable = _json_field(obj, where, "variable", str)
        if features is not None and variable not in features:
            raise SchemaError(f"{where}: splits on {variable!r}, which is not in features {features}")
        return cls(
            variable=variable,
            threshold=_json_float(obj, where, "threshold"),
            left=cls.from_dict(_json_field(obj, where, "left", dict), where + ".left", features),
            right=cls.from_dict(_json_field(obj, where, "right", dict), where + ".right", features),
        )


@dataclass
class GBTEnsemble:
    base_score: float
    learning_rate: float
    features: list
    trees: list = field(default_factory=list)
    monotone: dict = field(default_factory=dict)
    # fit_gbt's predictions on its training rows, which predict_gbt gives
    # bit for bit; None for a loaded ensemble, and neither written nor compared
    train_pred: np.ndarray | None = field(default=None, repr=False, compare=False)

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
        """Inverse of to_json; SchemaError names a missing or ill-typed field.

        Splits and monotone directions must name features, and a direction
        must be -1, 0 or +1, as GBTConfig and fit_gbt require.
        """
        obj = _json_loads(text, "model")
        base_score = _json_float(obj, "model", "base_score")
        learning_rate = _json_float(obj, "model", "learning_rate")
        features = list(_json_field(obj, "model", "features", list, str))
        monotone = dict(_json_field(obj, "model", "monotone", dict, int)) if "monotone" in obj else {}
        for v, d in monotone.items():
            if v not in features:
                raise SchemaError(f"model: monotone direction for {v!r}, which is not in features {features}")
            if d not in (-1, 0, 1):
                raise SchemaError(f"model: monotone direction for {v!r} must be -1, 0 or +1, got {d}")
        trees = _json_field(obj, "model", "trees", list)
        return cls(
            base_score, learning_rate, features, monotone=monotone,
            trees=[RegTreeNode.from_dict(t, f"model tree {i}", features) for i, t in enumerate(trees)],
        )


def _leaf_weight(G, HL, alpha: float):
    """XGBoost-style weight: -soft_threshold(G, alpha) / HL, elementwise, with HL = H + lam.

    With alpha = 0 the soft threshold is G itself, bit for bit, and is skipped.
    """
    if alpha:
        G = np.copysign(np.maximum(np.abs(G) - alpha, 0.0), G)
    return -G / HL


def _objective(G, half, w, alpha: float):
    """G w + half w w + alpha |w|, elementwise, with half = 0.5 * (H + lam).

    With alpha = 0 the 1-norm term, exactly zero, is not added: only the sign
    of a zero objective can differ, and no comparison of gains sees it.
    """
    obj = G * w + half * w * w
    if alpha:
        obj += alpha * np.abs(w)
    return obj


def _clamp(w, lo, hi):
    """min(max(w, lo), hi) elementwise, as Python's min and max give it.

    numpy's maximum and minimum give other values only for a NaN bound, and
    no bound is NaN: a bound is +-inf or the midpoint of two clamped child
    weights, each -g / (n + lam) with n >= 1 rows, which are finite while the
    gradients are.  (``fit_gbt`` rejects a target whose mean overflows, which
    would make the weights infinite or NaN.)  Equal floats differ at most in
    the sign of zero.  On a tie numpy returns the second operand on x86, which
    is why w, and then the inner result, come second: a tie keeps w, as
    Python's max(w, lo) does.  Elsewhere a tie of opposite zeros may return the
    bound's zero.
    """
    return np.minimum(hi, np.maximum(lo, w))


class _Level:
    """The arrays of one level's split search that do not depend on the gradient.

    perm and xsort are as in _grow_tree and counts holds each node's row count
    in frontier order.  rows[k, f, j] is the row at sorted position j of node k
    by feature f, padded to the largest node's length: positions past a node's
    rows hold other real rows, and no candidate reads that far.  The
    candidates are the (node, feature, position) triples kfi, in that order,
    where the sorted value changes and both children keep min_samples_leaf
    rows; off is each one's flat offset in rows, nl its left and right child
    counts plus lam, half 0.5 * nl, and direction its feature's monotone
    direction.  half_counts is 0.5 * (counts + lam).
    """

    __slots__ = (
        "perm", "xsort", "counts", "half_counts", "start", "flat", "rows", "kfi", "off", "nl", "half",
        "direction",
    )

    def __init__(self, perm, xsort, counts, direction, config: GBTConfig):
        m = config.min_samples_leaf
        n_feat, size = xsort.shape
        width = counts.max()
        start = counts.cumsum() - counts
        self.perm, self.xsort, self.counts, self.start = perm, xsort, counts, start.tolist()
        self.half_counts = 0.5 * (counts + config.lam)
        # flat[f]: where perm and xsort begin feature f's row (the last row is perm's own)
        self.flat = np.arange(n_feat + 1)[:, None] * size
        pad = (start[:, None, None] + np.arange(width)) + self.flat[:-1]
        self.rows = perm.take(pad, mode="clip")
        xs = xsort.take(pad, mode="clip")
        # The candidate after sorted position i gives the left child the first
        # i + 1 rows, so i runs from m - 1 to the node's count - m - 1; a
        # split between equal values is no split.
        at = np.arange(m - 1, width - m)
        change = xs[:, :, m - 1 : width - m] < xs[:, :, m : width - m + 1]
        k, f, i = (change & (at < counts[:, None, None] - m)).nonzero()
        i += m - 1
        self.kfi = np.array([k, f, i])
        self.off = (k * n_feat + f) * width + i
        self.nl = np.array([i + 1, counts.take(k) - i - 1]) + config.lam
        self.half = 0.5 * self.nl
        self.direction = direction.take(f)


def _best_splits(level: _Level, grad, G, bounds, weights, config: GBTConfig) -> dict:
    """Frontier node index -> (feature, threshold) of each node's best legal split.

    G, bounds (rows lo and hi) and weights hold each node's gradient sum,
    weight bounds and weight, in frontier order.  One cumsum along the last
    axis of the level's padded gradients gives every node's prefix sums, and
    both children of every candidate are scored at once, as the rows of one
    (2, candidates) array.
    """
    alpha = config.alpha
    parent = _objective(G, level.half_counts, weights, alpha)
    G_k, lo, hi, parent_k = np.array([G, *bounds, parent]).take(level.kfi[0], axis=1)
    GL = grad.take(level.rows).cumsum(axis=2).take(level.off)
    GLR = np.concatenate((GL, G_k - GL)).reshape(2, -1)
    w = _leaf_weight(GLR, level.nl, alpha)
    obj = _objective(GLR, level.half, _clamp(w, lo, hi), alpha)
    gain = parent_k - obj[0] - obj[1]
    # an increasing feature forbids wl > wr and a decreasing one wl < wr (checked before clamping)
    gain = np.where(level.direction * (w[0] - w[1]) <= 0, gain, -np.inf)
    # Only a gain above every earlier gain of its node can beat the running
    # best by the 1e-15 margin; scan those records in (node, feature,
    # position) order.
    padded = np.full(level.rows.shape, -np.inf)
    padded.put(level.off + 1, gain)
    running = np.maximum.accumulate(padded.reshape(len(level.counts), -1), axis=1)
    record = (gain > running.take(level.off)).nonzero()[0]
    best = {}
    for node, feat, pos, g in zip(*level.kfi.take(record, axis=1).tolist(), gain.take(record).tolist()):
        if node not in best or g > best[node][0] + 1e-15:
            best[node] = (g, feat, pos)
    splits = {}
    for node, (g, feat, pos) in best.items():
        if g > 1e-12:
            at = level.start[node] + pos
            below, above = level.xsort[feat, at : at + 2].tolist()
            # between adjacent floats the midpoint rounds onto below, which
            # would send below's rows right: take above then
            mid = 0.5 * below + 0.5 * above  # (below + above) can overflow
            splits[node] = (feat, mid if mid > below else above)
    return splits


def _regroup(X, level: _Level, rows, counts, splits: dict, deeper: bool, direction, config: GBTConfig):
    """The next level after splitting the frontier's nodes in ``splits``.

    Returns each child's row count and, if ``deeper``, the children's _Level
    and its perm's last row; otherwise only the children's rows, grouped by
    child in ascending order within each, as the last level needs no search.
    """
    n = X.shape[1]
    # Child labels: 2s and 2s + 1 for the left and right child of the s-th
    # split node; rows of new leaves compare with nan and keep n_labels.
    split_nodes = sorted(splits)
    n_labels = 2 * len(split_nodes)
    base, feat, thr = [n_labels] * len(counts), [0] * len(counts), [math.nan] * len(counts)
    for s, k in enumerate(split_nodes):
        base[k] = 2 * s
        feat[k], thr[k] = splits[k]
    base_of, at_of = np.array([base, feat]).repeat(counts, axis=1)
    label = base_of + (X.take(at_of * n + rows) >= np.array(thr).repeat(counts))
    row_label = np.empty(n, dtype=np.min_scalar_type(n_labels))
    row_label[rows] = label
    sizes = np.bincount(label, minlength=n_labels)[:n_labels]
    kept = sizes.sum()
    if not deeper:
        return sizes, None, rows.take(row_label.take(rows).argsort(kind="stable")[:kept])
    order = row_label.take(level.perm).argsort(axis=1, kind="stable")[:, :kept] + level.flat
    level = _Level(level.perm.take(order), level.xsort.take(order[:-1]), sizes, direction, config)
    return sizes, level, level.perm[-1]


def _grow_tree(X, root: _Level, grad, direction, names, config: GBTConfig, memo: dict):
    """One tree on all rows, grown a level at a time, and each row's leaf weight.

    X holds one row per feature, in names order.  root is the fit's root
    level: its perm holds one row per feature, the row indices in stable sorted
    order of that feature, and a last row 0..n-1; its xsort holds each
    feature's values in that order.  At each level perm and xsort keep only
    the rows of the level's nodes, grouped by node in frontier order; a stable
    sort by child label keeps every group in the order a stable argsort of
    the node's own rows would give.  Every tree's root partitions the same
    rows, so memo, one per fit, maps each root split to the _regroup after it.
    """
    lam, alpha = config.lam, config.alpha
    # side[f]: for the left and the right child of a split on feature f, +1
    # if the midpoint of the children's weights bounds it from below, -1 if
    # from above: the left child from above and the right from below if f is
    # increasing, the other way round if decreasing
    side = direction[:, None] * [-1, 1]
    leaf_w = np.empty(X.shape[1])
    tree = RegTreeNode()
    # the frontier: its nodes and, as arrays, their gradient sums, row counts,
    # weights before clamping, and weight bounds (rows lo and hi)
    nodes, level, rows, counts = [tree], root, root.perm[-1], root.counts
    G = np.array([np.add.reduce(grad)])
    raw = _leaf_weight(G, counts + lam, alpha)
    bounds = np.array([[-math.inf], [math.inf]])
    for depth in range(config.max_depth + 1):
        weights = _clamp(raw, *bounds)
        # deeper levels overwrite the rows of nodes that split
        leaf_w[rows] = weights.repeat(counts)
        splits = {}
        if depth < config.max_depth:
            splits = _best_splits(level, grad, G, bounds, weights, config)
        for k, (node, w) in enumerate(zip(nodes, weights.tolist())):
            if k not in splits:
                node.weight = w
        if not splits:
            break

        deeper = depth + 1 < config.max_depth
        if depth:
            counts, level, rows = _regroup(X, level, rows, counts, splits, deeper, direction, config)
        else:
            # least recently used last out: a dict keeps insertion order
            hit = memo.pop(splits[0], None) or _regroup(X, level, rows, counts, splits, deeper, direction, config)
            memo[splits[0]] = hit
            if len(memo) > ROOT_MEMO:
                del memo[next(iter(memo))]
            counts, level, rows = hit
        # each child's gradient sum over its rows in ascending order, as grad[rows].sum()
        g_rows = grad.take(rows)
        ends = itertools.accumulate(counts.tolist())
        G = np.array([np.add.reduce(g_rows[e - c : e]) for e, c in zip(ends, counts.tolist())])
        raw = _leaf_weight(G, counts + lam, alpha)
        split_nodes = sorted(splits)
        parent = bounds.take([k for k in split_nodes for _ in (0, 1)], axis=1)
        w = _clamp(raw, *parent)
        mid = (0.5 * (w[0::2] + w[1::2])).repeat(2)
        feats = [splits[k][0] for k in split_nodes]
        s = side.take(feats, axis=0).ravel()
        bounds = np.where([s > 0, s < 0], mid, parent)
        nodes_next = []
        for k, f in zip(split_nodes, feats):
            node = nodes[k]
            node.variable, node.threshold = names[f], splits[k][1]
            node.left, node.right = RegTreeNode(), RegTreeNode()
            nodes_next += [node.left, node.right]
        nodes = nodes_next
    return tree, leaf_w


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
    direction = np.array([config.monotone.get(f, 0) for f in features])
    # sorted once per fit: every tree's root is this level, and its deeper levels regroup it
    perm = np.vstack([np.argsort(X, axis=1, kind="stable"), np.arange(data.n_rows)])
    root = _Level(perm, np.take_along_axis(X, perm[:-1], axis=1), np.array([data.n_rows]), direction, config)
    y = data.y
    with np.errstate(over="ignore"):
        base = float(y.mean())
    if not math.isfinite(base):
        raise DataError(f"target {data.target!r} has a mean that overflows a float", column=data.target)
    pred = np.full(data.n_rows, base)
    ensemble = GBTEnsemble(
        base_score=base,
        learning_rate=config.learning_rate,
        features=features,
        monotone=dict(config.monotone),
    )
    stumped, memo = False, {}
    for _ in range(config.n_trees):
        grad = pred - y  # gradient of 0.5 * (pred - y)^2
        tree, leaf_w = _grow_tree(X, root, grad, direction, ensemble.features, config, memo)
        if tree.is_leaf and abs(tree.weight) < 1e-15:
            stumped = True
            break
        ensemble.trees.append(tree)
        pred = pred + config.learning_rate * leaf_w
    if not ensemble.trees and stumped:
        warnings.warn("no legal split at any root; ensemble reduces to the intercept")
    ensemble.train_pred = pred
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
