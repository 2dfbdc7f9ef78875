"""Shape-constrained symbolic regression.

A single-objective genetic algorithm over expression trees (operators
add/sub/mul/div/neg, named variables, float constants).  Before fitness is
assigned, each individual's output is affinely rescaled to the target by
least squares; constraints are then checked on the scaled model by interval
differentiation, and any violating (or NaN-producing) individual is assigned
the error of the worst feasible individual, which preserves its genetic
material without ever letting it win.

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

from .constraints import ShapeConstraint
from .datasets import Dataset
from .errors import ArityError, ConfigError
from .intervals import Interval

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
    "select_stopping_generation",
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
        for p in (self.crossover_prob, self.mutation_prob):
            if not 0.0 <= p <= 1.0:
                raise ConfigError("probabilities must lie in [0, 1]")


@dataclass
class GenerationRecord:
    generation: int
    best_train_rmse: float
    best_test_rmse: float
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


def _ieval(t: tuple, region, var: str, order: int):
    """Enclosures of (value, d/dvar, d2/dvar2)[:order+1] over the region."""
    kind = t[0]
    zero = Interval.point(0.0)
    if kind == "const":
        return (Interval.point(float(t[1])), zero, zero)[: order + 1]
    if kind == "var":
        name = t[1]
        if name not in region:
            raise ArityError(f"region missing variable {name!r}")
        d = Interval.point(1.0) if name == var else zero
        return (region[name], d, zero)[: order + 1]
    if kind == "neg":
        return tuple(-x for x in _ieval(t[1], region, var, order))
    a = _ieval(t[1], region, var, order)
    b = _ieval(t[2], region, var, order)
    if kind == "add":
        return tuple(x + y for x, y in zip(a, b))
    if kind == "sub":
        return tuple(x - y for x, y in zip(a, b))
    if kind == "mul":
        out = [a[0] * b[0]]
        if order >= 1:
            out.append(a[0] * b[1] + a[1] * b[0])
        if order >= 2:
            out.append(a[0] * b[2] + 2 * (a[1] * b[1]) + a[2] * b[0])
        return tuple(out)
    # division: quotient enclosures fail when the denominator may be zero
    if b[0].contains(0.0):
        raise _UnboundedDerivative
    f = a[0] / b[0]
    out = [f]
    if order >= 1:
        f1 = (a[1] - f * b[1]) / b[0]
        out.append(f1)
    if order >= 2:
        f2 = (a[2] - f * b[2] - 2 * (f1 * b[1])) / b[0]
        out.append(f2)
    return tuple(out)


def tree_value_interval(t: tuple, region) -> Interval:
    """Sound enclosure of the tree's value over the box."""
    try:
        return _ieval(t, region, "", 0)[0]
    except _UnboundedDerivative:
        return Interval.whole()


def tree_derivative_interval(t: tuple, var: str, region) -> Interval:
    """Sound enclosure of d(tree)/d(var) over the box.

    A division whose denominator enclosure contains zero yields the
    unbounded interval, which marks the individual infeasible.
    """
    try:
        return _ieval(t, region, var, 1)[1]
    except _UnboundedDerivative:
        return Interval.whole()


def _constraint_enclosure(t: tuple, c: ShapeConstraint, scale) -> Interval:
    a, b = scale
    order = c.order
    try:
        if order == 0:
            raw = _ieval(t, c.region, "", 0)[0]
            return raw * a + b
        (var, k), = c.derivative.items()
        raw = _ieval(t, c.region, var, k)[k]
        return raw * a
    except _UnboundedDerivative:
        return Interval.whole()


def check_constraints(t: tuple, constraints, scale=(1.0, 0.0)):
    """Interval feasibility of the (affinely scaled) tree.

    Conservative: interval enclosures may reject trees that actually satisfy
    the constraints, never the converse.
    """
    enclosures = []
    feasible = True
    for c in constraints:
        enc = _constraint_enclosure(t, c, scale)
        enclosures.append(enc)
        if not c.bound.encloses(enc):
            feasible = False
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


def _arity(t: tuple) -> int:
    return {"const": 0, "var": 0, "neg": 1}.get(t[0], 2)


def _common_paths(t1: tuple, t2: tuple, path=()):
    """Aligned node paths of the two trees (one-point crossover region)."""
    paths = [path]
    if _arity(t1) == _arity(t2):
        for i in range(_arity(t1)):
            paths.extend(_common_paths(t1[i + 1], t2[i + 1], path + (i,)))
    return paths


def _subtree_at(t: tuple, path) -> tuple:
    for i in path:
        t = t[i + 1]
    return t


def _replace_at(t: tuple, path, sub: tuple) -> tuple:
    if not path:
        return sub
    i = path[0]
    parts = list(t)
    parts[i + 1] = _replace_at(t[i + 1], path[1:], sub)
    return tuple(parts)


def crossover(t1: tuple, t2: tuple, rng: random.Random) -> tuple:
    """One-point crossover at an aligned position.

    Identical parents produce a child identical to them (the donated subtree
    equals the replaced one).
    """
    paths = _common_paths(t1, t2)
    path = paths[rng.randrange(len(paths))]
    return _replace_at(t1, path, _subtree_at(t2, path))


def _all_paths(t: tuple, path=()):
    paths = [path]
    for i in range(_arity(t)):
        paths.extend(_all_paths(t[i + 1], path + (i,)))
    return paths


def mutate(t: tuple, rng: random.Random, variables) -> tuple:
    paths = _all_paths(t)
    path = paths[rng.randrange(len(paths))]
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


def _evaluate(tree, train_cols, y, constraints):
    """Returns (raw train rmse or None, scale, feasible)."""
    out = eval_tree_columns(tree, train_cols)
    scale = _affine_fit(out, y)
    if scale is None:
        return None, (1.0, 0.0), False
    a, b = scale
    err = _rmse(a * out + b, y)
    if not math.isfinite(err):
        return None, scale, False
    feasible, _ = check_constraints(tree, constraints, scale)
    return err, scale, feasible


def _tournament(rng: random.Random, fitness, k: int) -> int:
    best = rng.randrange(len(fitness))
    for _ in range(k - 1):
        i = rng.randrange(len(fitness))
        if fitness[i] < fitness[best]:
            best = i
    return best


def evolve(
    train: Dataset,
    test: Dataset,
    config: GAConfig,
    constraints=(),
) -> list[GenerationRecord]:
    """Run the GA; one GenerationRecord per generation, reproducible from seed."""
    if train.n_rows == 0:
        raise ConfigError("empty training set")
    rng = random.Random(config.seed)
    variables = train.feature_names
    train_cols = {v: train.columns[v] for v in variables}
    test_cols = {v: test.columns[v] for v in variables}
    y_train = train.y
    y_test = test.y
    constraints = list(constraints)

    pop = [random_tree(rng, variables, rng.randrange(2, 5)) for _ in range(config.population)]
    history: list[GenerationRecord] = []

    for gen in range(config.max_generations):
        evals = [_evaluate(t, train_cols, y_train, constraints) for t in pop]
        feasible_errs = [e for e, _, ok in evals if ok and e is not None]
        worst = max(feasible_errs) if feasible_errs else math.inf
        fitness = [e if (ok and e is not None) else worst for e, _, ok in evals]

        # prefer feasible individuals on equal fitness
        best = min(
            range(len(pop)),
            key=lambda i: (fitness[i], not evals[i][2], i),
        )
        a, b = evals[best][1]
        with np.errstate(all="ignore"):
            test_pred = a * eval_tree_columns(pop[best], test_cols) + b
        test_rmse = _rmse(test_pred, y_test)
        if not math.isfinite(test_rmse):
            test_rmse = math.inf
        history.append(
            GenerationRecord(
                generation=gen,
                best_train_rmse=fitness[best],
                best_test_rmse=test_rmse,
                best_tree=pop[best],
                feasible_fraction=sum(1 for _, _, ok in evals if ok) / len(pop),
                best_scale=(a, b),
            )
        )

        if gen == config.max_generations - 1:
            break

        order = sorted(range(len(pop)), key=lambda i: (fitness[i], not evals[i][2], i))
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


def select_stopping_generation(history) -> int:
    """Generation index with the lowest best test RMSE; ties go to the earliest."""
    if not history:
        raise ConfigError("empty history")
    best = 0
    for i, rec in enumerate(history):
        if rec.best_test_rmse < history[best].best_test_rmse:
            best = i
    return best
