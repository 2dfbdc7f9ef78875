"""Shape-constrained symbolic regression.

A single-objective genetic algorithm over expression trees (operators
add/sub/mul/div/neg, named variables, float constants).  Before fitness is
assigned, each individual's output is affinely rescaled to the target by
least squares; constraints are then checked on the scaled model by interval
differentiation, and any violating (or NaN-producing) individual is assigned
the error of the worst feasible individual, which preserves its genetic
material without ever letting it win.

Scoring is a pure function of the tree, so each distinct tree is scored once
per ``evolve`` call and its result reused by every copy of it.  ``evolve``
groups the constraints into a plan once per run: one interval walk per
differentiated variable and region, at the highest derivative order the
constraints on it need.  Walks run on (lo, hi) float pairs with the endpoint
formulas of ``Interval``, and a tree's check stops at the first group that
is unbounded or out of bounds (the interval check of Kronberger et al.,
Evolutionary Computation 30(1), 2022).

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
from dataclasses import dataclass, field

import numpy as np

from .datasets import Dataset
from .errors import ArityError, ConfigError
from .intervals import Interval, _div_ep, _mul_ep

__all__ = [
    "GAConfig",
    "GenerationRecord",
    "eval_tree",
    "eval_tree_columns",
    "tree_size",
    "tree_variables",
    "tree_to_infix",
    "tree_to_json",
    "tree_from_json",
    "tree_derivative_interval",
    "tree_value_interval",
    "check_constraints",
    "evolve",
]

_BINARY = ("add", "sub", "mul", "div")


@dataclass
class GAConfig:
    population: int = 500
    max_generations: int = 100
    tournament_size: int = 5
    crossover_prob: float = 0.9
    mutation_prob: float = 0.15
    max_size: int = 30
    seed: int = 0
    elitism: int = 1

    def __post_init__(self):
        if self.population < 2:
            raise ConfigError("population must be >= 2")
        for name in ("max_generations", "tournament_size", "max_size"):
            if getattr(self, name) < 1:
                raise ConfigError(f"{name} must be >= 1")
        if not 0 <= self.elitism <= self.population:
            raise ConfigError("elitism must lie in [0, population]")
        for p in (self.crossover_prob, self.mutation_prob):
            if not 0.0 <= p <= 1.0:
                raise ConfigError("probabilities must lie in [0, 1]")


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
    kind = t[0]
    if kind == "const":
        n = len(next(iter(columns.values())))
        return np.full(n, float(t[1]))
    if kind == "var":
        try:
            return np.asarray(columns[t[1]], dtype=float)
        except KeyError as exc:
            raise ArityError(f"columns missing variable {exc.args[0]!r}") from exc
    if kind == "neg":
        return -eval_tree_columns(t[1], columns)
    a = eval_tree_columns(t[1], columns)
    b = eval_tree_columns(t[2], columns)
    with np.errstate(all="ignore"):
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


def tree_variables(t: tuple) -> set:
    kind = t[0]
    if kind == "const":
        return set()
    if kind == "var":
        return {t[1]}
    if kind == "neg":
        return tree_variables(t[1])
    return tree_variables(t[1]) | tree_variables(t[2])


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
    def conv(obj):
        kind = obj["type"]
        if kind == "const":
            return ("const", float(obj["value"]))
        if kind == "var":
            return ("var", obj["name"])
        if kind == "neg":
            return ("neg", conv(obj["child"]))
        return (kind, conv(obj["left"]), conv(obj["right"]))

    return conv(json.loads(text))


# ---------------------------------------------------------------------------
# interval forward-mode differentiation
# ---------------------------------------------------------------------------


class _UnboundedDerivative(Exception):
    pass


# Enclosures are (lo, hi) float pairs.  Each operation computes its endpoints
# with the float operations of the matching ``Interval`` operation, in the
# same order, so they come out bit for bit as an ``Interval`` walk's without
# building an object per operation.
_ZERO, _ONE, _TWO = (0.0, 0.0), (1.0, 1.0), (2.0, 2.0)


def _add(x, y):
    lo, hi = x[0] + y[0], x[1] + y[1]
    if lo != lo or hi != hi:  # inf + -inf has no enclosure
        raise _UnboundedDerivative
    return lo, hi


def _sub(x, y):
    return _add(x, (-y[1], -y[0]))


def _mul(x, y):
    (a, b), (c, d) = x, y
    p = (_mul_ep(a, c), _mul_ep(a, d), _mul_ep(b, c), _mul_ep(b, d))
    return min(p), max(p)


def _div(x, y):
    (a, b), (c, d) = x, y
    if c <= 0.0 <= d:  # quotient enclosures fail when the denominator may be zero
        raise _UnboundedDerivative
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


def _interval(t: tuple, region, var: str, k: int) -> Interval:
    try:
        return Interval(*_ieval(t, _pairs(region), var, k)[k])
    except _UnboundedDerivative:
        return Interval.whole()


def tree_value_interval(t: tuple, region) -> Interval:
    """Sound enclosure of the tree's value over the box; see tree_derivative_interval."""
    return _interval(t, region, "", 0)


def tree_derivative_interval(t: tuple, var: str, region) -> Interval:
    """Sound enclosure of d(tree)/d(var) over the box.

    A division whose denominator enclosure contains zero, or an operation
    with no enclosure (inf - inf), yields the unbounded interval, which
    marks the individual infeasible.
    """
    return _interval(t, region, var, 1)


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


def _enclosures(t: tuple, plan, scale):
    """Yield (index, bound lo, bound hi, scaled enclosure or None if unbounded), group by group.

    One walk per group at the group's order; a component comes out of the
    same float operations whatever the walk's order.
    """
    a, b = float(scale[0]), float(scale[1])
    for var, region, order, members in plan:
        try:
            walk = _ieval(t, region, var, order)
            encs = [
                _add(_mul(walk[0], (a, a)), (b, b)) if k == 0 else _mul(walk[k], (a, a))
                for _, _, _, k in members
            ]
        except _UnboundedDerivative:
            encs = [None] * len(members)
        for (i, lo, hi, _), enc in zip(members, encs):
            yield i, lo, hi, enc


def _feasible(t: tuple, plan, scale) -> bool:
    """Whether the scaled tree meets every constraint of the plan; stops at the first failure."""
    encs = _enclosures(t, plan, scale)
    return all(e is not None and lo <= e[0] and e[1] <= hi for _, lo, hi, e in encs)


def check_constraints(t: tuple, constraints, scale=(1.0, 0.0)):
    """Interval feasibility of the (affinely scaled) tree: (feasible, enclosure per constraint).

    Conservative: interval enclosures may reject trees that actually satisfy
    the constraints, never the converse.  Constraints on the same variable
    (value constraints count as variable ``""``) over the same region share
    one walk at the highest order among them.  A walk through a division
    whose denominator may be zero, or through inf - inf (NaN), gives every
    constraint of its group the unbounded interval, so the tree is
    infeasible.
    """
    constraints = list(constraints)
    enclosures = [None] * len(constraints)
    for i, _, _, enc in _enclosures(t, _compile(constraints), scale):
        enclosures[i] = Interval.whole() if enc is None else Interval(*enc)
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


def _affine_fit(out: np.ndarray, y: np.ndarray):
    """Least-squares slope/intercept mapping raw outputs onto the target."""
    if not np.all(np.isfinite(out)):
        return None
    om = out.mean()
    var = float(((out - om) ** 2).mean())
    ym = y.mean()
    if var < 1e-14:
        return 0.0, float(ym)
    a = float(((out - om) * (y - ym)).mean() / var)
    return a, float(ym - a * om)


def _rmse(pred: np.ndarray, y: np.ndarray) -> float:
    return float(np.sqrt(np.mean((pred - y) ** 2)))


def _evaluate(tree, train_cols, y, plan):
    """Returns (raw train rmse or None, scale, feasible) under a _compile plan."""
    out = eval_tree_columns(tree, train_cols)
    scale = _affine_fit(out, y)
    if scale is None:
        return None, (1.0, 0.0), False
    a, b = scale
    err = _rmse(a * out + b, y)
    if not math.isfinite(err):
        return None, scale, False
    return err, scale, _feasible(tree, plan, scale)


def _tournament(rng: random.Random, fitness, k: int) -> int:
    best = rng.randrange(len(fitness))
    for _ in range(k - 1):
        i = rng.randrange(len(fitness))
        if fitness[i] < fitness[best]:
            best = i
    return best


def evolve(train: Dataset, config: GAConfig, constraints=()) -> list[GenerationRecord]:
    """Run the GA on ``train``; one GenerationRecord per generation, reproducible from seed.

    The model is the last record's best individual.  With ``elitism >= 1``
    the elite carries the run's best training fitness to the last
    generation; with ``elitism=0`` the result is the last generation's best.
    A record's best is feasible unless its ``feasible_fraction`` is 0.
    """
    if train.n_rows == 0:
        raise ConfigError("empty training set")
    rng = random.Random(config.seed)
    variables = train.feature_names
    train_cols = {v: train.columns[v] for v in variables}
    y_train = train.y
    plan = _compile(constraints)

    pop = [random_tree(rng, variables, rng.randrange(2, 5)) for _ in range(config.population)]
    history: list[GenerationRecord] = []
    # _evaluate is a pure function of the tree here, and the converged
    # population is mostly repeats, so each distinct tree is scored once
    scored = {}

    for gen in range(config.max_generations):
        evals = []
        for t in pop:
            result = scored.get(t)
            if result is None:
                result = scored[t] = _evaluate(t, train_cols, y_train, plan)
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

        new_pop = [pop[i] for i in order[: config.elitism]]
        while len(new_pop) < config.population:
            p1 = pop[_tournament(rng, fitness, config.tournament_size)]
            if rng.random() < config.crossover_prob:
                p2 = pop[_tournament(rng, fitness, config.tournament_size)]
                child = crossover(p1, p2, rng)
            else:
                child = p1
            if rng.random() < config.mutation_prob:
                child = mutate(child, rng, variables)
            if tree_size(child) > config.max_size:
                child = p1
            new_pop.append(child)
        pop = new_pop

    return history

