"""Evolving a symbolic expression under a shape constraint.

The target y = x1^2 + 2*x2 - 0.5 is expressible in the tree grammar
(+, -, *, /, negation, constants, variables).  The GA evaluates feasibility
with interval forward-mode differentiation: any candidate whose derivative
enclosure can violate d f/dx2 >= 0 is pushed behind all feasible candidates,
so the returned expression is guaranteed monotone in x2 over the box.
"""

import math

import numpy as np

from shapeguard import (
    Dataset,
    GAConfig,
    Interval,
    ShapeConstraint,
    check_constraints,
    eval_tree_columns,
    evolve,
    tree_to_infix,
)

rng = np.random.default_rng(7)
x1 = rng.uniform(-1, 1, 200)
x2 = rng.uniform(-1, 1, 200)
y = x1**2 + 2 * x2 - 0.5
train = Dataset("train", {"x1": x1[:150], "x2": x2[:150], "y": y[:150]}, "y")
test = Dataset("test", {"x1": x1[150:], "x2": x2[150:], "y": y[150:]}, "y")

region = {"x1": Interval(-1, 1), "x2": Interval(-1, 1)}
constraints = [ShapeConstraint({"x2": 1}, Interval(0.0, math.inf), region)]

history = evolve(train, GAConfig(population=150, max_generations=60, seed=3), constraints)
record = history[-1]  # the elite carries the best training fit to the last generation
a, b = record.best_scale

pred = a * eval_tree_columns(record.best_tree, test.columns) + b
r2 = 1.0 - float(np.sum((pred - test.y) ** 2) / np.sum((test.y - test.y.mean()) ** 2))
feasible, _ = check_constraints(record.best_tree, constraints, record.best_scale)

print(f"target          x1^2 + 2*x2 - 0.5")
print(f"generations     {len(history)} (test rows are used only to score the result)")
print(f"expression      {a:.4g} * {tree_to_infix(record.best_tree)} + {b:.4g}")
print(f"test R^2        {r2:.6f}")
print(f"train RMSE      {record.best_train_rmse:.2e}")
print(f"feasible        {feasible} (interval-AD check of d f/dx2 >= 0)")
