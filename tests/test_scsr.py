"""Symbolic regression: tree evaluation, interval AD, genetic operators."""

import math
import random
import re
from importlib import resources

import numpy as np
import pytest

from shapeguard import (
    Dataset,
    GAConfig,
    Interval,
    ShapeConstraint,
    check_constraints,
    eval_tree,
    eval_tree_columns,
    evolve,
    make_corpus,
    parse_constraints,
    scale_unit,
    tree_derivative_interval,
    tree_from_json,
    tree_to_infix,
    tree_to_json,
    tree_value_interval,
)
from shapeguard import scsr
from shapeguard.errors import ConfigError
from shapeguard.scsr import crossover, mutate, random_tree, tree_size, tree_variables


def ad_oracle(t, point, var):
    """Scalar forward-mode (value, derivative) — independent of the library AD."""
    kind = t[0]
    if kind == "const":
        return float(t[1]), 0.0
    if kind == "var":
        return float(point[t[1]]), 1.0 if t[1] == var else 0.0
    if kind == "neg":
        v, d = ad_oracle(t[1], point, var)
        return -v, -d
    av, ad = ad_oracle(t[1], point, var)
    bv, bd = ad_oracle(t[2], point, var)
    if kind == "add":
        return av + bv, ad + bd
    if kind == "sub":
        return av - bv, ad - bd
    if kind == "mul":
        return av * bv, ad * bv + av * bd
    if bv == 0.0:
        return math.nan, math.nan
    return av / bv, (ad * bv - av * bd) / bv**2


EXAMPLE = ("add", ("mul", ("var", "x"), ("var", "x")), ("neg", ("const", 0.5)))


def test_eval_tree_scalar_and_columns_agree():
    rng = np.random.default_rng(0)
    cols = {"x": rng.normal(size=20)}
    vec = eval_tree_columns(EXAMPLE, cols)
    scalar = [eval_tree(EXAMPLE, {"x": v}) for v in cols["x"]]
    np.testing.assert_allclose(vec, scalar, rtol=1e-14)
    assert eval_tree(EXAMPLE, {"x": 2.0}) == pytest.approx(3.5)


def test_eval_tree_division_by_zero_is_nan():
    t = ("div", ("const", 1.0), ("var", "x"))
    assert math.isnan(eval_tree(t, {"x": 0.0}))
    vals = eval_tree_columns(t, {"x": np.array([0.0, 2.0])})
    assert math.isinf(vals[0]) or math.isnan(vals[0])
    assert vals[1] == pytest.approx(0.5)


def test_tree_structure_helpers():
    assert tree_size(EXAMPLE) == 6
    assert tree_variables(EXAMPLE) == {"x"}
    assert tree_to_infix(EXAMPLE) == "((x * x) + (-0.5))"


def test_json_round_trip_exact():
    rng = random.Random(1)
    for _ in range(50):
        t = random_tree(rng, ["x", "z"], 4)
        assert tree_from_json(tree_to_json(t)) == t


def test_derivative_interval_encloses_ad_oracle():
    rng = random.Random(2)
    npr = np.random.default_rng(2)
    checked = 0
    for _ in range(200):
        t = random_tree(rng, ["x", "z"], 4)
        region = {}
        for v in ("x", "z"):
            lo, hi = sorted(npr.uniform(-2, 2, size=2))
            region[v] = Interval(lo, hi)
        var = rng.choice(["x", "z"])
        enc = tree_derivative_interval(t, var, region)
        venc = tree_value_interval(t, region)
        for _ in range(20):
            point = {v: float(npr.uniform(region[v].lo, region[v].hi)) for v in region}
            val, der = ad_oracle(t, point, var)
            if not (math.isfinite(val) and math.isfinite(der)):
                continue
            checked += 1
            pad = 1e-9 * max(1.0, abs(val))
            assert venc.lo - pad <= val <= venc.hi + pad
            pad = 1e-9 * max(1.0, abs(der))
            assert enc.lo - pad <= der <= enc.hi + pad
    assert checked > 500


def test_unbounded_division_marks_whole_interval():
    t = ("div", ("const", 1.0), ("var", "x"))
    region = {"x": Interval(-1.0, 1.0)}
    assert tree_value_interval(t, region) == Interval.whole()
    assert tree_derivative_interval(t, "x", region) == Interval.whole()


def test_check_constraints_feasibility():
    region = {"x": Interval(0.0, 1.0)}
    inc = [ShapeConstraint({"x": 1}, Interval(0.0, math.inf), region)]
    assert check_constraints(("var", "x"), inc)[0] is True
    assert check_constraints(("neg", ("var", "x")), inc)[0] is False
    # a negative output scale flips the effective derivative sign
    assert check_constraints(("var", "x"), inc, scale=(-1.0, 0.0))[0] is False


def test_mixed_derivative_constraint_raises_config_error():
    region = {"p": Interval(0.0, 1.0), "v": Interval(0.0, 1.0)}
    c = ShapeConstraint({"p": 1, "v": 1}, Interval(0.0, math.inf), region)
    tree = ("mul", ("var", "p"), ("var", "v"))
    with pytest.raises(ConfigError, match=re.escape(c.describe())):
        check_constraints(tree, [c])
    data = Dataset("d", {"p": [0.0, 0.5, 1.0], "v": [1.0, 0.5, 0.0], "y": [0.0, 0.25, 0.0]}, "y")
    with pytest.raises(ConfigError, match=re.escape(c.describe())):
        evolve(data, GAConfig(population=4, max_generations=1), constraints=[c])


def test_crossover_and_mutation_produce_valid_trees():
    rng = random.Random(3)
    point = {"x": 0.7, "z": -0.2}
    for _ in range(200):
        t1 = random_tree(rng, ["x", "z"], 4)
        t2 = random_tree(rng, ["x", "z"], 4)
        child = crossover(t1, t2, rng)
        mutant = mutate(child, rng, ["x", "z"])
        for t in (child, mutant):
            v = eval_tree(t, point)  # must not raise
            assert isinstance(v, float)


def test_crossover_of_identical_parents_is_identity():
    rng = random.Random(4)
    for _ in range(30):
        t = random_tree(rng, ["x"], 4)
        assert crossover(t, t, rng) == t


def test_evolution_is_deterministic_per_seed():
    rng = np.random.default_rng(5)
    x = rng.uniform(-1, 1, 60)
    y = 2.0 * x + 1.0
    tr = Dataset("tr", {"x": x[:40], "y": y[:40]}, "y")
    cfg = GAConfig(population=30, max_generations=10, seed=11)
    h1 = evolve(tr, cfg, [])
    h2 = evolve(tr, cfg, [])
    assert [r.best_tree for r in h1] == [r.best_tree for r in h2]
    assert [r.best_train_rmse for r in h1] == [r.best_train_rmse for r in h2]
    assert [r.best_scale for r in h1] == [r.best_scale for r in h2]


def test_evolution_recovers_linear_target():
    rng = np.random.default_rng(6)
    x = rng.uniform(-1, 1, 80)
    y = 3.0 * x - 0.5
    tr = Dataset("tr", {"x": x[:60], "y": y[:60]}, "y")
    te = Dataset("te", {"x": x[60:], "y": y[60:]}, "y")
    final = evolve(tr, GAConfig(population=60, max_generations=15, seed=0), [])[-1]
    a, b = final.best_scale
    pred = a * eval_tree_columns(final.best_tree, te.columns) + b
    assert np.sqrt(np.mean((pred - te.y) ** 2)) < 1e-8  # affine scaling makes x exact


@pytest.mark.parametrize(
    "field, kwargs",
    [
        ("max_generations", {"max_generations": 0}),
        ("tournament_size", {"tournament_size": 0}),
        ("max_size", {"max_size": 0}),
        ("elitism", {"elitism": -1}),
        ("elitism", {"population": 10, "elitism": 11}),
    ],
)
def test_gaconfig_rejects_settings_that_break_the_ga(field, kwargs):
    with pytest.raises(ConfigError, match=field):
        GAConfig(**kwargs)


def test_gaconfig_accepts_the_edge_values():
    GAConfig(population=10, max_generations=1, tournament_size=1, max_size=1, elitism=0)
    GAConfig(population=10, elitism=10)


def test_evolve_checks_each_distinct_tree_once(monkeypatch):
    rng = np.random.default_rng(7)
    x = rng.uniform(0, 1, 60)
    y = 2.0 * x + 1.0 + 0.05 * rng.normal(size=60)
    tr = Dataset("tr", {"x": x[:40], "y": y[:40]}, "y")
    region = {"x": Interval(0.0, 1.0)}
    cons = [
        ShapeConstraint({"x": 1}, Interval(0.0, math.inf), region),
        ShapeConstraint({}, Interval(-10.0, 10.0), region),
    ]
    cfg = GAConfig(population=40, max_generations=12, seed=3)
    seen = []
    original = scsr._feasible

    def recording(t, plan, scale):
        seen.append(t)
        return original(t, plan, scale)

    monkeypatch.setattr(scsr, "_feasible", recording)
    history = evolve(tr, cfg, cons)
    assert seen  # evolve scores through the spied function
    assert len(seen) == len(set(seen))
    assert len(seen) < cfg.population * cfg.max_generations  # repeats were reused

    train_cols = {"x": tr.columns["x"]}
    plan = scsr._compile(cons)
    for rec in history:
        err, scale, feasible = scsr._evaluate(rec.best_tree, train_cols, tr.y, plan)
        assert feasible == check_constraints(rec.best_tree, cons, scale)[0]
        assert feasible
        assert err == rec.best_train_rmse
        assert scale == rec.best_scale


class _Unbounded(Exception):
    pass


def interval_walk(t, region, var, order):
    """(value, d/dvar, d2/dvar2)[:order+1] as ``Interval`` objects, one object per operation."""
    kind = t[0]
    zero = Interval.point(0.0)
    if kind == "const":
        return (Interval.point(float(t[1])), zero, zero)[: order + 1]
    if kind == "var":
        d = Interval.point(1.0) if t[1] == var else zero
        return (region[t[1]], d, zero)[: order + 1]
    if kind == "neg":
        return tuple(-x for x in interval_walk(t[1], region, var, order))
    a = interval_walk(t[1], region, var, order)
    b = interval_walk(t[2], region, var, order)
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
    if b[0].contains(0.0):
        raise _Unbounded
    f = a[0] / b[0]
    out = [f]
    if order >= 1:
        f1 = (a[1] - f * b[1]) / b[0]
        out.append(f1)
    if order >= 2:
        out.append((a[2] - f * b[2] - 2 * (f1 * b[1])) / b[0])
    return tuple(out)


def _per_constraint_enclosure(t, c, scale):
    """One full ``Interval`` walk per constraint: the check before walks were shared."""
    a, b = scale
    try:
        if c.order == 0:
            return interval_walk(t, c.region, "", 0)[0] * a + b
        (var, k), = c.derivative.items()
        return interval_walk(t, c.region, var, k)[k] * a
    except _Unbounded:
        return Interval.whole()


def _same(x, y):
    return (x.lo.hex(), x.hi.hex()) == (y.lo.hex(), y.hi.hex())


def test_shared_walks_match_one_walk_per_constraint():
    spec = parse_constraints(
        resources.files("shapeguard.resources").joinpath("eq1.spec").read_text()
        + "d1 p <= 0 on p in [0.2, 0.8]\n"
    )
    cons = spec.constraints
    assert cons[-1].region != cons[-2].region
    rng = random.Random(8)
    scale = (-1.7, 0.3)
    unbounded = feasible = 0
    for _ in range(400):
        t = random_tree(rng, ["p", "v", "T"], 4)
        ok, encs = check_constraints(t, cons, scale)
        oracle = [_per_constraint_enclosure(t, c, scale) for c in cons]
        assert ok == all(c.bound.encloses(e) for c, e in zip(cons, oracle))
        for enc, ref in zip(encs, oracle):
            assert _same(enc, ref)
        region = cons[0].region
        for var in ("p", "v", "T"):
            try:
                ref = interval_walk(t, region, var, 1)
            except _Unbounded:
                ref = (Interval.whole(),) * 2
            assert _same(tree_value_interval(t, region), ref[0])
            assert _same(tree_derivative_interval(t, var, region), ref[1])
        unbounded += any(e == Interval.whole() for e in oracle)
        feasible += ok
    # the cases cover zero-containing denominators and both verdicts
    assert unbounded > 20 and 0 < feasible < 400


_ARITY = {"const": 0, "var": 0, "neg": 1}


def _common_paths(t1, t2, path=()):
    paths = [path]
    if _ARITY.get(t1[0], 2) == _ARITY.get(t2[0], 2):
        for i in range(_ARITY.get(t1[0], 2)):
            paths.extend(_common_paths(t1[i + 1], t2[i + 1], path + (i,)))
    return paths


def _subtree_at(t, path):
    for i in path:
        t = t[i + 1]
    return t


def _replace_at(t, path, sub):
    if not path:
        return sub
    parts = list(t)
    parts[path[0] + 1] = _replace_at(t[path[0] + 1], path[1:], sub)
    return tuple(parts)


def crossover_oracle(t1, t2, rng):
    """One-point crossover over the full list of aligned paths."""
    paths = _common_paths(t1, t2)
    path = paths[rng.randrange(len(paths))]
    return _replace_at(t1, path, _subtree_at(t2, path))


def mutate_oracle(t, rng, variables):
    """Point mutation over the full list of node paths (every path of t aligns with itself)."""
    paths = _common_paths(t, t)
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
        new = node[1]
    else:
        new = (rng.choice(("add", "sub", "mul", "div")),) + node[1:]
    return _replace_at(t, path, new)


def test_operators_match_path_list_oracles():
    variables = ["x", "z"]
    trees = random.Random(9)
    for seed in range(600):
        t1 = random_tree(trees, variables, trees.randrange(1, 6))
        # a mutant of t1 shares most of its shape, so deep nodes align too
        t2 = random_tree(trees, variables, 4) if seed % 2 else mutate(t1, trees, variables)
        ours, ref = random.Random(seed), random.Random(seed)
        assert crossover(t1, t2, ours) == crossover_oracle(t1, t2, ref)
        assert ours.getstate() == ref.getstate()
        assert mutate(t2, ours, variables) == mutate_oracle(t2, ref, variables)
        assert ours.getstate() == ref.getstate()


def test_nan_enclosure_is_unbounded():
    huge = ("div", ("const", 1e300), ("const", 1e-300))  # [inf, inf]
    t = ("sub", huge, huge)  # inf - inf
    spec = parse_constraints(
        resources.files("shapeguard.resources").joinpath("eq1.spec").read_text()
    )
    ok, encs = check_constraints(t, spec.constraints)
    assert ok is False
    assert encs == [Interval.whole()] * len(spec.constraints)
    region = spec.constraints[0].region
    assert tree_value_interval(t, region) == Interval.whole()
    assert tree_derivative_interval(t, "p", region) == Interval.whole()
    assert scsr._feasible(t, scsr._compile(spec.constraints), (1.0, 0.0)) is False


def _line(c):
    offset = ("add", ("const", 0.4048328703805688), ("var", "T"))
    return ("sub", ("mul", ("var", "p"), ("const", c)), offset)


# seed-0 corpus dataset 000, unit-scaled, eq1, GAConfig(population=40,
# max_generations=10, seed=0): (best_tree, feasible_fraction,
# best_train_rmse, best_scale) per generation
PINNED_TRAJECTORY = [
    (("neg", ("neg", ("var", "T"))), 0.525, 0.031886581108206406,
     (-0.13870136485229778, 0.5897708390661676)),
    (_line(-0.835761923418584), 0.875, 0.008696317452624608,
     (0.11375539067545197, 0.6707600704129371)),
    (_line(-0.7304025316838447), 0.975, 0.006821030402539466,
     (0.12384694211461103, 0.6776350230080505)),
    (_line(-0.7304025316838447), 0.925, 0.006821030402539466,
     (0.12384694211461103, 0.6776350230080505)),
    (_line(-0.7304025316838447), 1.0, 0.006821030402539466,
     (0.12384694211461103, 0.6776350230080505)),
    (_line(-0.7304025316838447), 0.95, 0.006821030402539466,
     (0.12384694211461103, 0.6776350230080505)),
    (_line(-0.6955223279665655), 0.925, 0.006341625721326676,
     (0.12732736007787843, 0.6798522379302808)),
    (_line(-0.6877986341393015), 0.95, 0.006253556462437264,
     (0.12810458470546823, 0.6803349876128764)),
    (_line(-0.6877986341393015), 0.95, 0.006253556462437264,
     (0.12810458470546823, 0.6803349876128764)),
    (_line(-0.6877986341393015), 0.975, 0.006253556462437264,
     (0.12810458470546823, 0.6803349876128764)),
]


def test_ga_trajectory_is_pinned():
    ds = make_corpus(18, 35, seed=0)[0]
    scaled, _ = scale_unit(ds, [c for c in ds.columns if c != "mu_dyn"])
    spec = parse_constraints(
        resources.files("shapeguard.resources").joinpath("eq1.spec").read_text()
    )
    history = evolve(scaled, GAConfig(population=40, max_generations=10, seed=0), spec.constraints)
    assert [r.generation for r in history] == list(range(10))
    for rec, (tree, frac, rmse, scale) in zip(history, PINNED_TRAJECTORY, strict=True):
        assert rec.best_tree == tree
        assert rec.feasible_fraction == frac
        assert rec.best_train_rmse == pytest.approx(rmse, rel=1e-12, abs=0)
        assert rec.best_scale == pytest.approx(scale, rel=1e-12, abs=0)
