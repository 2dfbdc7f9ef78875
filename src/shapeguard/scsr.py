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
per ``evolve`` call and its result reused by every copy of it; its node count
is likewise computed once per call.  A tree is scored in three steps: its
columns are evaluated under one ``np.errstate``; its affine scaling and RMSE
take each mean as a bare ``np.add.reduce`` over the row count (the bits of
``ndarray.mean``), against the target's mean and centred copy computed once
per run; and then the interval check runs on the scaled tree.  ``evolve``
groups the constraints into a plan once per run: one interval walk per
differentiated variable and region, at the highest derivative order the
constraints on it need.  Walks run interval arithmetic on (lo, hi) float
pairs, rounded to nearest, and a tree's check stops at the first constraint
that is unbounded or out of bounds (the interval check of Kronberger et al.,
Evolutionary Computation 30(1), 2022).  A product with the zero interval,
which most derivative components are, is the zero interval at once.

All randomness comes from one ``random.Random(seed)`` stream, and the draws
are kept as they are: a run depends only on the seed, and tests pin whole
runs.  Tournament selection draws each index as ``Random.randrange(n)``
does, word for word from ``getrandbits``, without its argument handling.  A
converged population mostly breeds a tree with itself; such a crossover
returns the parent after drawing its crossover point, so the stream moves as
if the subtree swap had run.

Trees are immutable nested tuples::

    ('const', 1.5)
    ('var', 'x')
    ('neg', child)
    ('add' | 'sub' | 'mul' | 'div', left, right)
"""

from __future__ import annotations

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


def _ieval(t: tuple, region, var: str, order: int):
    """Enclosures of (value, d/dvar, d2/dvar2)[:order+1] over the region of (lo, hi) pairs."""
    kind = t[0]
    if kind == "const":
        c = float(t[1])
        return ((c, c), _ZERO, _ZERO)[: order + 1]
    if kind == "var":
        name = t[1]
        if name not in region:
            raise ArityError(f"region missing variable {name!r}")
        return (region[name], _ONE if name == var else _ZERO, _ZERO)[: order + 1]
    if kind == "neg":
        return [(-hi, -lo) for lo, hi in _ieval(t[1], region, var, order)]
    a = _ieval(t[1], region, var, order)
    b = _ieval(t[2], region, var, order)
    if kind == "add":
        return list(map(_add, a, b))
    if kind == "sub":
        return list(map(_sub, a, b))
    if kind == "mul":
        out = [_mul(a[0], b[0])]
        if order >= 1:
            out.append(_add(_mul(a[0], b[1]), _mul(a[1], b[0])))
        if order >= 2:
            two = _mul(_mul(a[1], b[1]), _TWO)
            out.append(_add(_add(_mul(a[0], b[2]), two), _mul(a[2], b[0])))
        return out
    out = [_div(a[0], b[0])]
    if order >= 1:
        out.append(_div(_sub(a[1], _mul(out[0], b[1])), b[0]))
    if order >= 2:
        two = _mul(_mul(out[1], b[1]), _TWO)
        out.append(_div(_sub(_sub(a[2], _mul(out[0], b[2])), two), b[0]))
    return out


def _pairs(region) -> dict:
    return {name: (iv.lo, iv.hi) for name, iv in region.items()}


def _compile(constraints) -> list:
    """Constraints grouped by (variable, region), value constraints under variable ``""``.

    One ``(var, region pairs, walk order, members)`` per group, in order of
    first appearance; one member ``(index, bound lo, bound hi, k)`` per
    constraint on the k-th derivative.
    """
    groups = {}
    for i, c in enumerate(constraints):
        if len(c.derivative) > 1:
            raise ConfigError(f"SCSR checks single-variable derivatives only: {c.describe()}")
        (var, k), = c.derivative.items() if c.derivative else (("", 0),)
        key = (var, frozenset(c.region.items()))
        groups.setdefault(key, (c.region, []))[1].append((i, c.bound.lo, c.bound.hi, k))
    return [
        (var, _pairs(region), max(m[3] for m in members), members)
        for (var, _), (region, members) in groups.items()
    ]


def _scaled(walk, k: int, a: float, b: float):
    """Enclosure of a * (k-th component of the walk) + b, with b only for the value."""
    return _add(_mul(walk[0], (a, a)), (b, b)) if k == 0 else _mul(walk[k], (a, a))


def _feasible(t: tuple, plan, scale) -> bool:
    """Whether the scaled tree meets every constraint of the plan; stops at the first failure.

    The verdict of ``check_constraints``: a group whose walk or scaling is
    unbounded fails all its members.
    """
    a, b = float(scale[0]), float(scale[1])
    try:
        for var, region, order, members in plan:
            walk = _ieval(t, region, var, order)
            for _, lo, hi, k in members:
                enc = _scaled(walk, k, a, b)
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
    # a component comes out of the same float operations whatever the walk's order
    for var, region, order, members in _compile(constraints):
        try:
            walk = _ieval(t, region, var, order)
            encs = [Interval(*_scaled(walk, k, a, b)) for _, _, _, k in members]
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
    """The target as ``_affine_fit`` and ``_rmse`` take it: (y, y - mean, mean)."""
    ym = np.add.reduce(y) / len(y)
    return y, y - ym, float(ym)


def _affine_fit(out: np.ndarray, target):
    """Least-squares slope/intercept mapping raw outputs onto the ``_target``;
    None when an output or their variance is not finite (``evolve`` silences the overflow)."""
    if not np.logical_and.reduce(np.isfinite(out)):
        return None
    _, yc, ym = target
    n = len(out)
    om = np.add.reduce(out) / n
    d = out - om
    var = float(np.add.reduce(d * d) / n)
    if not math.isfinite(var):
        return None
    if var < 1e-14:
        return 0.0, ym
    a = float(np.add.reduce(d * yc) / n / var)
    return a, float(ym - a * om)


def _rmse(pred: np.ndarray, y: np.ndarray) -> float:
    r = pred - y
    return math.sqrt(np.add.reduce(r * r) / len(r))


def _evaluate(tree, train_cols, target, plan):
    """Returns (raw train rmse or None, scale, feasible) under a _compile plan."""
    out = eval_tree_columns(tree, train_cols)
    scale = _affine_fit(out, target)
    if scale is None:
        return None, (1.0, 0.0), False
    a, b = scale
    err = _rmse(a * out + b, target[0])
    if not math.isfinite(err):
        return None, scale, False
    return err, scale, _feasible(tree, plan, scale)


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
    """
    if train.n_rows == 0:
        raise ConfigError("empty training set")
    if not train.feature_names:
        raise ConfigError("training set has no feature columns")
    rng = random.Random(config.seed)
    variables = train.feature_names
    train_cols = {v: train.columns[v] for v in variables}
    target = _target(train.y)
    plan = _compile(constraints)

    pop = [random_tree(rng, variables, rng.randrange(2, 5)) for _ in range(config.population)]
    history: list[GenerationRecord] = []
    # _evaluate is a pure function of the tree here, and the converged
    # population is mostly repeats, so each distinct tree is scored once and
    # sized once; every member of pop has its size in sizes
    scored = {}
    sizes = {t: tree_size(t) for t in pop}

    for gen in range(config.max_generations):
        evals = []
        with np.errstate(all="ignore"):  # _evaluate rejects a tree that overflows
            for t in pop:
                result = scored.get(t)
                if result is None:
                    result = scored[t] = _evaluate(t, train_cols, target, plan)
                evals.append(result)
        feasible_errs = [e for e, _, ok in evals if ok and e is not None]
        worst = max(feasible_errs) if feasible_errs else math.inf
        fitness = [e if (ok and e is not None) else worst for e, _, ok in evals]

        # prefer feasible individuals on equal fitness
        order = sorted(range(len(pop)), key=lambda i: (fitness[i], not evals[i][2], i))
        best = order[0]
        history.append(
            GenerationRecord(
                generation=gen,
                best_train_rmse=fitness[best],
                best_tree=pop[best],
                feasible_fraction=sum(1 for _, _, ok in evals if ok) / len(pop),
                best_scale=evals[best][1],
            )
        )

        if gen == config.max_generations - 1:
            break

        new_pop = [pop[i] for i in order[:ELITISM]]
        while len(new_pop) < config.population:
            p1 = pop[_tournament(rng, fitness, TOURNAMENT_SIZE)]
            child = p1
            if rng.random() < CROSSOVER_PROB:
                p2 = pop[_tournament(rng, fitness, TOURNAMENT_SIZE)]
                if p1 == p2:  # crossover would return p1; draw its point on the known size
                    rng.randrange(sizes[p1])
                else:
                    child = crossover(p1, p2, rng)
            if rng.random() < MUTATION_PROB:
                child = mutate(child, rng, variables)
            size = sizes.get(child)
            if size is None:
                size = sizes[child] = tree_size(child)
            new_pop.append(child if size <= config.max_size else p1)
        pop = new_pop

    return history

