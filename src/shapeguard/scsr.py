"""Shape-constrained symbolic regression.

A single-objective genetic algorithm over expression trees (operators
add/sub/mul/div/neg, named variables, float constants).  Before fitness is
assigned, each individual's output is affinely rescaled to the target by
least squares; constraints are then checked on the scaled model by interval
differentiation, and any violating (or NaN-producing) individual is assigned
the error of the worst feasible individual, which preserves its genetic
material without ever letting it win.  Breeding is fixed, as in Kronberger
et al.: parents win tournaments of ``TOURNAMENT_SIZE``, a child is a crossover
with probability ``CROSSOVER_PROB`` and a mutant with ``MUTATION_PROB``,
and the ``ELITISM`` best trees pass on unchanged.  ``GAConfig`` sets only the
population, the generation count, the tree-size bound and the seed.

Scoring is a pure function of the tree, so each distinct tree is scored once
per ``evolve`` call.  The population holds int ids: a tree is hashed once,
when it is made, and its node count and score are kept under its id, so a
copy is its parent's id.  Each generation's new trees are scored as one
batch: their columns, evaluated under one ``np.errstate``, are stacked into
one array, and the affine scaling and RMSE of every tree are row reductions
(``np.add.reduce`` along each row, which gives the bits of ``ndarray.mean``
on that row), against the target's mean and centred copy computed once per
run.  The interval check then runs on each scaled tree.  ``evolve`` groups
the constraints into a plan once per run: one interval walk per region,
carrying the value and each constrained variable's derivatives up to the
highest order the constraints on it need.  Walks run interval arithmetic on
(lo, hi) float pairs, rounded to nearest, and a tree's check stops at the
first region whose walk is unbounded or whose constraints are out of bounds
(the interval check of Kronberger et al., Evolutionary Computation 30(1),
2022).  A product with the zero interval, which most derivative components
are, is the zero interval at once.

All randomness comes from one ``random.Random(seed)`` stream, and the draws
are kept as they are: a run depends only on the seed, and tests pin whole
runs.  Tournament selection draws each index as ``Random.randrange(n)``
does, word for word from ``getrandbits``, without its argument handling.  A
converged population mostly breeds a tree with itself; such a crossover
returns the parent after drawing its crossover point the same way, so the
stream moves as if the subtree swap had run.

Trees are immutable nested tuples::

    ('const', 1.5)
    ('var', 'x')
    ('neg', child)
    ('add' | 'sub' | 'mul' | 'div', left, right)
"""

from __future__ import annotations

import heapq
import json
import math
import random
from dataclasses import dataclass

import numpy as np

from .datasets import Dataset
from .errors import ArityError, ConfigError, SchemaError
from .intervals import Interval
from .poly import _json_field, _json_float, _json_loads

__all__ = [
    "GAConfig",
    "GenerationRecord",
    "eval_tree",
    "eval_tree_columns",
    "tree_size",
    "tree_to_infix",
    "tree_to_json",
    "tree_from_json",
    "check_constraints",
    "evolve",
]

_BINARY = ("add", "sub", "mul", "div")


# The fixed breeding policy.  ELITISM >= 1 carries the run's best tree to
# the last generation, so the last record's best is the run's best.
TOURNAMENT_SIZE = 5
CROSSOVER_PROB = 0.9
MUTATION_PROB = 0.15
ELITISM = 1


@dataclass
class GAConfig:
    population: int = 500
    max_generations: int = 100
    max_size: int = 30
    seed: int = 0

    def __post_init__(self):
        if self.population < 2:
            raise ConfigError("population must be >= 2")
        for name in ("max_generations", "max_size"):
            if getattr(self, name) < 1:
                raise ConfigError(f"{name} must be >= 1")


@dataclass
class GenerationRecord:
    generation: int
    best_train_rmse: float
    best_tree: tuple
    feasible_fraction: float
    best_scale: tuple = (1.0, 0.0)  # (slope, intercept) of the affine output scaling


# ---------------------------------------------------------------------------
# tree basics
# ---------------------------------------------------------------------------


def eval_tree(t: tuple, point) -> float:
    """Scalar evaluation; division by zero yields NaN rather than raising."""
    kind = t[0]
    if kind == "const":
        return float(t[1])
    if kind == "var":
        try:
            return float(point[t[1]])
        except KeyError as exc:
            raise ArityError(f"point is missing variable {exc.args[0]!r}") from exc
    if kind == "neg":
        return -eval_tree(t[1], point)
    a = eval_tree(t[1], point)
    b = eval_tree(t[2], point)
    if kind == "add":
        return a + b
    if kind == "sub":
        return a - b
    if kind == "mul":
        return a * b
    if b == 0.0:
        return math.nan
    return a / b


def eval_tree_columns(t: tuple, columns) -> np.ndarray:
    """Vectorized evaluation; invalid operations produce NaN/inf entries."""
    with np.errstate(all="ignore"):
        return _columns(t, columns)


def _columns(t: tuple, columns) -> np.ndarray:
    kind = t[0]
    if kind == "const":
        column = next(iter(columns.values()), None)
        if column is None:
            raise ArityError("no columns to take the row count of a constant from")
        return np.full(len(column), float(t[1]))
    if kind == "var":
        try:
            return np.asarray(columns[t[1]], dtype=float)
        except KeyError as exc:
            raise ArityError(f"columns missing variable {exc.args[0]!r}") from exc
    if kind == "neg":
        return -_columns(t[1], columns)
    a = _columns(t[1], columns)
    b = _columns(t[2], columns)
    if kind == "add":
        return a + b
    if kind == "sub":
        return a - b
    if kind == "mul":
        return a * b
    return a / b


def tree_size(t: tuple) -> int:
    kind = t[0]
    if kind in ("const", "var"):
        return 1
    if kind == "neg":
        return 1 + tree_size(t[1])
    return 1 + tree_size(t[1]) + tree_size(t[2])


def tree_to_infix(t: tuple) -> str:
    kind = t[0]
    if kind == "const":
        return format(t[1], "g")
    if kind == "var":
        return t[1]
    if kind == "neg":
        return f"(-{tree_to_infix(t[1])})"
    sym = {"add": "+", "sub": "-", "mul": "*", "div": "/"}[kind]
    return f"({tree_to_infix(t[1])} {sym} {tree_to_infix(t[2])})"


def tree_to_json(t: tuple) -> str:
    def conv(node):
        kind = node[0]
        if kind == "const":
            return {"type": "const", "value": node[1]}
        if kind == "var":
            return {"type": "var", "name": node[1]}
        if kind == "neg":
            return {"type": "neg", "child": conv(node[1])}
        return {"type": kind, "left": conv(node[1]), "right": conv(node[2])}

    return json.dumps(conv(t))


def tree_from_json(text: str) -> tuple:
    """Inverse of tree_to_json; SchemaError names the node of an unknown type or a bad field."""

    def conv(obj, where):
        kind = obj.get("type") if isinstance(obj, dict) else None
        if not isinstance(kind, str) or kind not in _ARITY:
            raise SchemaError(f"tree node {where}: unknown node type {kind!r}")
        node = f"tree node {where} ({kind})"
        if kind == "const":
            return ("const", _json_float(obj, node, "value"))
        if kind == "var":
            return ("var", _json_field(obj, node, "name", str))
        if kind == "neg":
            return ("neg", conv(_json_field(obj, node, "child", dict), where + ".child"))
        left = conv(_json_field(obj, node, "left", dict), where + ".left")
        return (kind, left, conv(_json_field(obj, node, "right", dict), where + ".right"))

    return conv(_json_loads(text, "tree"), "$")


# ---------------------------------------------------------------------------
# interval forward-mode differentiation
# ---------------------------------------------------------------------------


class _UnboundedDerivative(Exception):
    pass


# Enclosures are (lo, hi) float pairs, with endpoints rounded to nearest.  An
# operation with no enclosure raises _UnboundedDerivative.
_ZERO, _ONE, _TWO = (0.0, 0.0), (1.0, 1.0), (2.0, 2.0)


def _mul_ep(a: float, b: float) -> float:
    # 0 * inf is 0 here: the scalar product of 0 with any finite value is 0,
    # and an infinite endpoint only widens the interval elsewhere.
    if a == 0.0 or b == 0.0:
        return 0.0
    return a * b


def _div_ep(a: float, b: float) -> float:
    # b is a nonzero endpoint; dividing by an infinite one gives 0, also for
    # an infinite a, as the product a * (1/b) with 0 * inf == 0 does.
    return 0.0 if math.isinf(b) else a / b


def _add(x, y):
    lo, hi = x[0] + y[0], x[1] + y[1]
    if lo != lo or hi != hi:  # inf + -inf has no enclosure
        raise _UnboundedDerivative
    return lo, hi


def _sub(x, y):
    return _add(x, (-y[1], -y[0]))


def _mul(x, y):
    (a, b), (c, d) = x, y
    if not (a or b) or not (c or d):  # a zero interval; _mul_ep makes every product +0.0
        return _ZERO
    if a and b and c and d:  # no zero endpoint, so _mul_ep is the plain product
        p = (a * c, a * d, b * c, b * d)
    else:
        p = (_mul_ep(a, c), _mul_ep(a, d), _mul_ep(b, c), _mul_ep(b, d))
    return min(p), max(p)


def _div(x, y):
    (a, b), (c, d) = x, y
    if c <= 0.0 <= d:  # quotient enclosures fail when the denominator may be zero
        raise _UnboundedDerivative
    # endpoint quotients, monotone in each argument: a subnormal divisor's
    # reciprocal overflows where the quotient may not (5e-324 / 5e-324 == 1)
    q = (_div_ep(a, c), _div_ep(a, d), _div_ep(b, c), _div_ep(b, d))
    return min(q), max(q)


def _walker(region, slots):
    """What ``_walk`` needs for one region and ``(var, order)`` derivative slots.

    A walk's components are the value, then each slot's derivatives 1..order
    in slot order; the walker is ``(leaf components per region variable,
    derivative components of a constant, (offset, order) per slot)``.
    """
    layout, offset = [], 1
    for _, order in slots:
        layout.append((offset, order))
        offset += order
    leaves = {
        name: (pair,) + tuple(
            c for var, order in slots for c in ((_ONE if name == var else _ZERO), _ZERO)[:order]
        )
        for name, pair in region.items()
    }
    return leaves, (_ZERO,) * (offset - 1), tuple(layout)


def _walk(t: tuple, walker):
    """Enclosures over the walker's region of the tree's value and each slot's derivatives.

    Each component comes out of the same float operations as in a walk that
    carries its variable alone, so slots only share the value and the recursion.
    """
    kind = t[0]
    if kind == "const":
        c = float(t[1])
        return ((c, c),) + walker[1]
    if kind == "var":
        leaf = walker[0].get(t[1])
        if leaf is None:
            raise ArityError(f"region missing variable {t[1]!r}")
        return leaf
    if kind == "neg":
        return [(-hi, -lo) for lo, hi in _walk(t[1], walker)]
    a = _walk(t[1], walker)
    b = _walk(t[2], walker)
    if kind == "add":
        return list(map(_add, a, b))
    if kind == "sub":
        return list(map(_sub, a, b))
    a0, b0 = a[0], b[0]
    if kind == "mul":
        out = [_mul(a0, b0)]
        for j, order in walker[2]:
            out.append(_add(_mul(a0, b[j]), _mul(a[j], b0)))
            if order == 2:
                two = _mul(_mul(a[j], b[j]), _TWO)
                out.append(_add(_add(_mul(a0, b[j + 1]), two), _mul(a[j + 1], b0)))
        return out
    value = _div(a0, b0)
    out = [value]
    for j, order in walker[2]:
        d1 = _div(_sub(a[j], _mul(value, b[j])), b0)
        out.append(d1)
        if order == 2:
            two = _mul(_mul(d1, b[j]), _TWO)
            out.append(_div(_sub(_sub(a[j + 1], _mul(value, b[j + 1])), two), b0))
    return out


def _pairs(region) -> dict:
    return {name: (iv.lo, iv.hi) for name, iv in region.items()}


def _groups(constraints) -> dict:
    """Constraints grouped by variable and region, value constraints under variable ``""``.

    ``{(var, region key): (region, members)}`` in order of first appearance;
    one member ``(index, bound lo, bound hi, k)`` per constraint on the k-th
    derivative.
    """
    groups = {}
    for i, c in enumerate(constraints):
        if len(c.derivative) > 1:
            raise ConfigError(f"SCSR checks single-variable derivatives only: {c.describe()}")
        (var, k), = c.derivative.items() if c.derivative else (("", 0),)
        key = (var, frozenset(c.region.items()))
        groups.setdefault(key, (c.region, []))[1].append((i, c.bound.lo, c.bound.hi, k))
    return groups


def _compile(constraints) -> list:
    """The plan ``_feasible`` checks: one ``(walker, checks)`` per region, in order of first appearance.

    The walker carries one slot per differentiated variable, at the highest
    order the region's constraints on it need; one check ``(bound lo, bound
    hi, k, component)`` per constraint on the k-th derivative.
    """
    regions = {}
    for (var, key), (region, members) in _groups(constraints).items():
        regions.setdefault(key, (region, []))[1].append((var, members))
    plan = []
    for region, groups in regions.values():
        slots = [(var, max(m[3] for m in members)) for var, members in groups if var]
        walker = _walker(_pairs(region), slots)
        first = {var: j - 1 for (var, _), (j, _) in zip(slots, walker[2])}
        checks = [
            (lo, hi, k, first[var] + k if k else 0)
            for var, members in groups
            for _, lo, hi, k in members
        ]
        plan.append((walker, checks))
    return plan


def _scaled(enc, k: int, a: float, b: float):
    """Enclosure of a * enc + b for the value (k == 0), and of a * enc for a derivative."""
    return _add(_mul(enc, (a, a)), (b, b)) if k == 0 else _mul(enc, (a, a))


def _feasible(t: tuple, plan, scale) -> bool:
    """Whether the scaled tree meets every constraint of the plan; stops at the first failure.

    The verdict of ``check_constraints``: a walk there fails every member of
    its group when any of its components is unbounded, and this one walk
    per region holds each group's components.
    """
    a, b = float(scale[0]), float(scale[1])
    try:
        for walker, checks in plan:
            walk = _walk(t, walker)
            for lo, hi, k, j in checks:
                enc = _scaled(walk[j], k, a, b)
                if not (lo <= enc[0] and enc[1] <= hi):
                    return False
    except _UnboundedDerivative:
        return False
    return True


def check_constraints(t: tuple, constraints, scale=(1.0, 0.0)):
    """Interval feasibility of the (affinely scaled) tree: (feasible, enclosure per constraint).

    This is the one public enclosure of a tree: a value constraint, or a
    ``{var: 1}`` constraint, with the default scale gives the enclosure of
    the tree's value, or of d(tree)/d(var), over its region.

    Interval enclosures may reject trees that actually satisfy the
    constraints.  Their endpoints round to nearest, so a tree whose bound
    holds only up to rounding may pass although its exact value breaks the
    bound: ``x + 0.2`` on x in [0.1, 1] passes ``value >= 0.1 + 0.2``, yet
    is below the float 0.1 + 0.2 at x = 0.1.  A rounding-aware check is
    planned (ROADMAP.md, "SCSR feasibility that holds under rounding").

    Constraints on the same variable (value constraints count as variable
    ``""``) over the same region share one walk at the highest order among
    them.  A walk through a division whose denominator may be zero, or
    through inf - inf (NaN), gives every constraint of its group the
    unbounded interval, so the tree is infeasible.
    """
    constraints = list(constraints)
    enclosures = [None] * len(constraints)
    a, b = float(scale[0]), float(scale[1])
    for (var, _), (region, members) in _groups(constraints).items():
        # one slot, so the k-th derivative is component k
        slots = [(var, max(m[3] for m in members))] if var else []
        try:
            walk = _walk(t, _walker(_pairs(region), slots))
            encs = [Interval(*_scaled(walk[k], k, a, b)) for _, _, _, k in members]
        except _UnboundedDerivative:
            encs = [Interval.whole()] * len(members)
        for (i, _, _, _), enc in zip(members, encs):
            enclosures[i] = enc
    feasible = all(c.bound.encloses(enc) for c, enc in zip(constraints, enclosures))
    return feasible, enclosures


# ---------------------------------------------------------------------------
# genetic operators
# ---------------------------------------------------------------------------


def random_tree(rng: random.Random, variables, depth: int) -> tuple:
    if depth <= 0 or rng.random() < 0.3:
        if variables and rng.random() < 0.6:
            return ("var", rng.choice(variables))
        return ("const", rng.uniform(-2.0, 2.0))
    op = rng.choice(_BINARY + ("neg",))
    if op == "neg":
        return ("neg", random_tree(rng, variables, depth - 1))
    return (op, random_tree(rng, variables, depth - 1), random_tree(rng, variables, depth - 1))


_ARITY = {"const": 0, "var": 0, "neg": 1, "add": 2, "sub": 2, "mul": 2, "div": 2}


def _aligned_size(t1: tuple, t2: tuple) -> int:
    """Number of aligned nodes of the two trees (one-point crossover region).

    The roots are aligned; children are aligned pairwise when their parents
    have the same arity.  ``_aligned_size(t, t) == tree_size(t)``.
    """
    n = 1
    arity = _ARITY[t1[0]]
    if arity == _ARITY[t2[0]]:
        for i in range(1, arity + 1):
            n += _aligned_size(t1[i], t2[i])
    return n


def _aligned_path(t1: tuple, t2: tuple, r: int) -> list:
    """Tuple indices leading to the r-th aligned node of the two trees, in preorder."""
    path = []
    while r:
        r -= 1
        i = 1
        while i < _ARITY[t1[0]] and r >= (n := _aligned_size(t1[i], t2[i])):
            r -= n
            i += 1
        path.append(i)
        t1, t2 = t1[i], t2[i]
    return path


def _subtree_at(t: tuple, path) -> tuple:
    for i in path:
        t = t[i]
    return t


def _replace_at(t: tuple, path, sub: tuple) -> tuple:
    if not path:
        return sub
    i = path[0]
    return t[:i] + (_replace_at(t[i], path[1:], sub),) + t[i + 1 :]


def crossover(t1: tuple, t2: tuple, rng: random.Random) -> tuple:
    """One-point crossover at an aligned position.

    Identical parents produce a child identical to them (the donated subtree
    equals the replaced one).
    """
    path = _aligned_path(t1, t2, rng.randrange(_aligned_size(t1, t2)))
    return _replace_at(t1, path, _subtree_at(t2, path))


def mutate(t: tuple, rng: random.Random, variables) -> tuple:
    path = _aligned_path(t, t, rng.randrange(tree_size(t)))
    node = _subtree_at(t, path)
    if rng.random() < 0.25:
        return _replace_at(t, path, random_tree(rng, variables, 2))
    kind = node[0]
    if kind == "const":
        new = ("const", node[1] + rng.gauss(0.0, 0.1))
    elif kind == "var":
        if variables and rng.random() < 0.5:
            new = ("var", rng.choice(variables))
        else:
            new = ("const", rng.uniform(-2.0, 2.0))
    elif kind == "neg":
        new = node[1]  # drop the negation
    else:
        op = rng.choice(_BINARY)
        new = (op,) + node[1:]
    return _replace_at(t, path, new)


# ---------------------------------------------------------------------------
# evolution
# ---------------------------------------------------------------------------


# Each mean here is np.add.reduce(x) / n, the same bits as x.mean() without
# the cost of its Python wrapper.
def _target(y: np.ndarray):
    """The target as ``_fit_rows`` takes it: (y, y - mean, mean)."""
    ym = np.add.reduce(y) / len(y)
    return y, y - ym, float(ym)


def _fit_rows(out: np.ndarray, target) -> list:
    """Per row of raw outputs (one row per tree): (rmse or None, scale or None).

    The scale is the least-squares (slope, intercept) mapping the row onto
    the ``_target``, ``(0.0, mean)`` for a row of variance below 1e-14, and
    None when the row or its variance is not finite; the RMSE is that of the
    scaled row, None when not finite.  Every reduction runs along the rows,
    and ``np.add.reduce(x, axis=1)`` sums each row with the bits of
    ``np.add.reduce`` on that row alone, so each row gets the floats of the
    one-row formulas.  ``out`` is overwritten.
    """
    y, yc, ym = target
    n = out.shape[1]
    with np.errstate(all="ignore"):  # a rejected row's sums may overflow or be NaN
        om = np.add.reduce(out, axis=1) / n
        # the deviations are formed twice so that one buffer holds each product
        d = out - om[:, None]
        d *= yc
        cov = np.add.reduce(d, axis=1) / n
        np.subtract(out, om[:, None], out=d)
        d *= d
        # a row with an inf or NaN entry, or whose sum overflows, has a non-finite variance
        var = np.add.reduce(d, axis=1) / n
        del d
        flat = var < 1e-14
        a = np.where(flat, 0.0, cov / var)
        b = np.where(flat, ym, ym - a * om)
        out *= a[:, None]
        out += b[:, None]
        out -= y
        out *= out
        err = np.sqrt(np.add.reduce(out, axis=1) / n)
    return [
        (e if math.isfinite(e) else None, (slope, shift)) if ok else (None, None)
        for ok, slope, shift, e in zip(np.isfinite(var).tolist(), a.tolist(), b.tolist(), err.tolist())
    ]


def _score(trees, train_cols, target, plan) -> list:
    """(raw train rmse or None, scale, feasible) per tree under a ``_compile`` plan.

    The trees' outputs are scored as one array; the interval check runs on
    each tree with a finite RMSE.
    """
    out = np.empty((len(trees), len(target[0])))
    with np.errstate(all="ignore"):  # _fit_rows rejects a tree whose output is not finite
        for i, t in enumerate(trees):
            out[i] = _columns(t, train_cols)
    scores = []
    for t, (err, scale) in zip(trees, _fit_rows(out, target)):
        if scale is None:
            scores.append((None, (1.0, 0.0), False))
        elif err is None:
            scores.append((None, scale, False))
        else:
            scores.append((err, scale, _feasible(t, plan, scale)))
    return scores


def _tournament(rng: random.Random, fitness, k: int) -> int:
    """Index of the fittest of k draws; each draw is ``rng.randrange(len(fitness))``.

    Each draw takes ``getrandbits`` words as ``Random._randbelow`` does (the
    bit length of n, not of n - 1; redraw until below n), so the stream and
    the indices are randrange's without its argument handling.
    """
    n = len(fitness)
    bits = n.bit_length()
    getrandbits = rng.getrandbits
    best = getrandbits(bits)
    while best >= n:
        best = getrandbits(bits)
    for _ in range(k - 1):
        i = getrandbits(bits)
        while i >= n:
            i = getrandbits(bits)
        if fitness[i] < fitness[best]:
            best = i
    return best


def evolve(train: Dataset, config: GAConfig, constraints=()) -> list[GenerationRecord]:
    """Run the GA on ``train``; one GenerationRecord per generation, reproducible from seed.

    The model is the last record's best individual: the elite carries the
    run's best training fitness to the last generation.
    A record's best is feasible unless its ``feasible_fraction`` is 0.
    Before generation 0 each constraint is read through
    ``ShapeConstraint.aligned`` on the features, so a region that lacks one
    (ArityError) or a derivative on a non-feature (DomainError) fails the
    run as it fails ``scpr.fit_constrained``.
    """
    if train.n_rows == 0:
        raise ConfigError("empty training set")
    if not train.feature_names:
        raise ConfigError("training set has no feature columns")
    rng = random.Random(config.seed)
    variables = train.feature_names
    train_cols = {v: train.columns[v] for v in variables}
    target = _target(train.y)
    constraints = list(constraints)
    for c in constraints:
        c.aligned(variables)
    plan = _compile(constraints)

    # Each distinct tree gets an id when it is made; the population holds ids,
    # and a tree's node count and score are kept under its id.  Equal trees
    # are equal tuples, as the GA builds no NaN or -0.0 constant.
    ids, trees, sizes, scores = {}, [], [], []

    def intern(t: tuple) -> int:
        i = ids.get(t)
        if i is None:
            i = ids[t] = len(trees)
            trees.append(t)
            sizes.append(tree_size(t))
            scores.append(None)
        return i

    pop = [intern(random_tree(rng, variables, rng.randrange(2, 5))) for _ in range(config.population)]
    history: list[GenerationRecord] = []
    getrandbits = rng.getrandbits

    for gen in range(config.max_generations):
        new = [i for i in dict.fromkeys(pop) if scores[i] is None]
        for i, result in zip(new, _score([trees[i] for i in new], train_cols, target, plan)):
            scores[i] = result
        evals = [scores[i] for i in pop]
        # a feasible tree has a finite RMSE
        feasible_errs = [e for e, _, ok in evals if ok]
        worst = max(feasible_errs) if feasible_errs else math.inf
        fitness = [e if ok else worst for e, _, ok in evals]

        # prefer feasible individuals on equal fitness; nsmallest is sorted()[:n]
        elite = heapq.nsmallest(
            ELITISM, range(len(pop)), key=lambda i: (fitness[i], not evals[i][2], i)
        )
        best = elite[0]
        history.append(
            GenerationRecord(
                generation=gen,
                best_train_rmse=fitness[best],
                best_tree=trees[pop[best]],
                feasible_fraction=len(feasible_errs) / len(pop),
                best_scale=evals[best][1],
            )
        )

        if gen == config.max_generations - 1:
            break

        new_pop = [pop[i] for i in elite]
        while len(new_pop) < config.population:
            p1 = pop[_tournament(rng, fitness, TOURNAMENT_SIZE)]
            child = None  # a new tree, or None while the child is p1
            if rng.random() < CROSSOVER_PROB:
                p2 = pop[_tournament(rng, fitness, TOURNAMENT_SIZE)]
                if p1 == p2:
                    # crossover would return p1: draw its point on the known
                    # size as randrange does (see _tournament)
                    n = sizes[p1]
                    bits = n.bit_length()
                    while getrandbits(bits) >= n:
                        pass
                else:
                    child = crossover(trees[p1], trees[p2], rng)
            if rng.random() < MUTATION_PROB:
                child = mutate(trees[p1] if child is None else child, rng, variables)
            i = p1 if child is None else intern(child)
            new_pop.append(i if sizes[i] <= config.max_size else p1)
        pop = new_pop

    return history
