"""Symbolic regression: tree evaluation, interval AD, genetic operators."""

import json
import math
import random
import re
import warnings
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
    tree_from_json,
    tree_to_infix,
    tree_to_json,
)
from shapeguard import scsr
from shapeguard.errors import ArityError, ConfigError, SchemaError
from shapeguard.scsr import crossover, mutate, random_tree, tree_size


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


def enclosure(t, region, var=None):
    """check_constraints' enclosure of the tree's value, or of d/d var, over the region."""
    c = ShapeConstraint({var: 1} if var else {}, Interval(0.0, math.inf), region)
    return check_constraints(t, [c])[1][0]


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


def test_eval_tree_columns_suppresses_nested_invalid_operations():
    x = ("var", "x")
    zero = ("sub", x, x)
    t = ("add", ("mul", ("div", x, zero), ("const", 2.0)), ("neg", ("div", zero, zero)))
    cols = {"x": np.array([-1.0, 0.0, 3.0])}
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        vals = eval_tree_columns(t, cols)
        inner = eval_tree_columns(("div", x, zero), cols)
    assert np.isnan(vals).all()  # +-inf + NaN, and 0/0
    assert list(np.isinf(inner)) == [True, False, True] and np.isnan(inner[1])


def test_eval_tree_columns_matches_scalar_evaluation_where_finite():
    rng = random.Random(4)
    cols = {"x": np.linspace(-2.0, 2.0, 41), "z": np.linspace(3.0, -1.0, 41)}
    points = [{"x": x, "z": z} for x, z in zip(cols["x"], cols["z"])]
    compared = 0
    for _ in range(200):
        t = random_tree(rng, ["x", "z"], 5)
        vec = eval_tree_columns(t, cols)
        scalar = np.array([eval_tree(t, p) for p in points])
        both = np.isfinite(vec) & np.isfinite(scalar)
        np.testing.assert_array_equal(vec[both], scalar[both])
        compared += int(both.sum())
    assert compared > 200 * 41 // 2


def test_eval_tree_columns_constants_and_errors():
    cols = {"x": np.arange(4.0)}
    np.testing.assert_array_equal(eval_tree_columns(("const", 2.5), cols), np.full(4, 2.5))
    np.testing.assert_array_equal(eval_tree_columns(("neg", ("const", 1.0)), cols), np.full(4, -1.0))
    with pytest.raises(ArityError, match=re.escape("columns missing variable 'z'")):
        eval_tree_columns(("add", ("var", "x"), ("var", "z")), cols)
    with pytest.raises(ArityError, match="^no columns to take the row count of a constant from$"):
        eval_tree_columns(("mul", ("const", 1.0), ("const", 2.0)), {})


def affine_fit_reference(out, y):
    """Least-squares slope/intercept through np.mean, as _affine_fit was first written."""
    if not np.all(np.isfinite(out)):
        return None
    om = out.mean()
    var = float(((out - om) ** 2).mean())
    ym = y.mean()
    if var < 1e-14:
        return 0.0, float(ym)
    a = float(((out - om) * (y - ym)).mean() / var)
    return a, float(ym - a * om)


def rmse_reference(pred, y):
    return float(np.sqrt(np.mean((pred - y) ** 2)))


def _hex(pair):
    return None if pair is None else tuple(map(float.hex, pair))


# sizes on both sides of numpy's pairwise-summation blocks
@pytest.mark.parametrize("n", [1, 2, 7, 8, 9, 127, 128, 129, 1000])
def test_affine_fit_and_rmse_match_np_mean_formulas(n):
    rng = np.random.default_rng(n)
    y = rng.normal(0.5, 0.2, n)
    outputs = [scale * rng.normal(size=n) + shift for scale in (1e-3, 1.0, 1e3) for shift in (0.0, -7.5)]
    outputs += [np.full(n, 3.7), 3.7 + 1e-9 * rng.normal(size=n)]  # var < 1e-14
    for bad in (math.inf, -math.inf, math.nan):
        out = rng.normal(size=n)
        out[rng.integers(n)] = bad
        outputs.append(out)
    outputs.append(np.where(np.arange(n) % 2, math.inf, -math.inf))  # inf - inf in any sum
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        target = scsr._target(y)
        for out in outputs:
            scale = scsr._affine_fit(out, target)
            assert _hex(scale) == _hex(affine_fit_reference(out, y))
            if scale is None:
                assert not np.isfinite(out).all()
                continue
            assert all(type(v) is float for v in scale)
            pred = scale[0] * out + scale[1]
            assert scsr._rmse(pred, y).hex() == rmse_reference(pred, y).hex()
    assert sum(scsr._affine_fit(out, target) is None for out in outputs) == 4


def test_tree_whose_output_variance_overflows_is_rejected_without_warnings():
    # x * x on x in [1e150, 2e150] is finite, but the squares of its
    # deviations from their mean overflow: no slope scales it onto y
    x = np.linspace(1e150, 2e150, 30)
    data = Dataset("big", {"x": x, "y": np.linspace(0.0, 1.0, 30)}, "y")
    square = ("mul", ("var", "x"), ("var", "x"))
    with np.errstate(all="ignore"):
        assert scsr._affine_fit(x * x, scsr._target(data.y)) is None
        assert scsr._evaluate(square, {"x": x}, scsr._target(data.y), []) == (None, (1.0, 0.0), False)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        history = evolve(data, GAConfig(population=30, max_generations=5, seed=1))
    assert all(math.isfinite(r.best_train_rmse) for r in history)


def test_tree_structure_helpers():
    assert tree_size(EXAMPLE) == 6
    assert tree_to_infix(EXAMPLE) == "((x * x) + (-0.5))"


@pytest.mark.parametrize(
    "node, where",
    [
        ({"type": "pow", "left": {"type": "const", "value": 2.0}, "right": {"type": "var", "name": "x"}},
         r"\$: unknown node type 'pow'"),
        ({"type": "neg", "child": {"type": "var"}}, r"\$\.child \(var\): missing field 'name'"),
        ({"type": "add", "left": {"type": "var", "name": "x"}, "right": {"type": "const", "value": "1"}},
         r"\$\.right \(const\): field 'value' has type str"),
        ({"type": "mul", "left": {"type": "const", "value": True}, "right": {"type": "var", "name": "x"}},
         r"\$\.left \(const\): field 'value' has type bool"),
        ({"type": "sub", "left": {"type": "var", "name": "x"}}, r"\$ \(sub\): missing field 'right'"),
        ({"type": "neg", "child": [1, 2]}, r"\$ \(neg\): field 'child' has type list"),
        ({"type": ["add"]}, r"\$: unknown node type \['add'\]"),
        ([1.0], r"\$: unknown node type None"),
        ({"type": "neg", "child": {"type": "const", "value": 10**400}},
         r"\$\.child \(const\): field 'value' is too large for a float"),
    ],
    ids=["unknown-type", "missing-name", "str-value", "bool-value", "missing-right",
         "list-child", "list-type", "not-an-object", "huge-int-value"],
)
def test_json_rejects_unknown_and_malformed_nodes(node, where):
    with pytest.raises(SchemaError, match=where):
        tree_from_json(json.dumps(node))


def test_json_rejects_text_that_is_not_json():
    with pytest.raises(SchemaError, match="tree is not valid JSON"):
        tree_from_json("nope")


def test_evolve_without_feature_columns_raises_config_error():
    data = Dataset("d", {"y": [0.0, 0.5, 1.0]}, "y")
    with pytest.raises(ConfigError, match="no feature columns"):
        evolve(data, GAConfig(population=4, max_generations=1))
    with pytest.raises(ArityError, match="no columns"):
        eval_tree_columns(("const", 1.0), {})


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
        enc = enclosure(t, region, var)
        venc = enclosure(t, region)
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
    assert enclosure(t, region) == Interval.whole()
    assert enclosure(t, region, "x") == Interval.whole()


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
    ref = random.Random()
    for _ in range(30):
        t = random_tree(rng, ["x"], 4)
        ref.setstate(rng.getstate())
        assert crossover(t, t, rng) == t
        # identical parents draw only the crossover point, as evolve's
        # shortcut for them does on the cached size
        ref.randrange(tree_size(t))
        assert rng.getstate() == ref.getstate()


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
    # max_generations and max_size fail GAConfig's range check; the tournament
    # size and elite count are scsr constants, so no setting names them
    from shapeguard import ValidationConfig

    with pytest.raises(ConfigError, match=field):
        ValidationConfig(0.05, ["p"], "scsr", kwargs)


def test_gaconfig_accepts_the_edge_values():
    GAConfig(population=2, max_generations=1, max_size=1)


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
        err, scale, feasible = scsr._evaluate(rec.best_tree, train_cols, scsr._target(tr.y), plan)
        assert feasible == check_constraints(rec.best_tree, cons, scale)[0]
        assert feasible
        assert err == rec.best_train_rmse
        assert scale == rec.best_scale


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
        # each constraint checked alone walks at its own order, sharing nothing
        alone = [check_constraints(t, [c], scale) for c in cons]
        assert ok == all(f for f, _ in alone)
        for enc, (_, (ref,)) in zip(encs, alone):
            assert _same(enc, ref)
        unbounded += any(e == Interval.whole() for _, (e,) in alone)
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
    assert enclosure(t, region) == Interval.whole()
    assert enclosure(t, region, "p") == Interval.whole()
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
    scaled = scale_unit(ds, [c for c in ds.columns if c != "mu_dyn"])
    spec = parse_constraints(
        resources.files("shapeguard.resources").joinpath("eq1.spec").read_text()
    )
    history = evolve(scaled, GAConfig(population=40, max_generations=10, seed=0), spec.constraints)
    assert [r.generation for r in history] == list(range(10))
    for rec, (tree, frac, rmse, scale) in zip(history, PINNED_TRAJECTORY, strict=True):
        assert rec.best_tree == tree
        assert rec.feasible_fraction == frac
        assert rec.best_train_rmse == rmse
        assert rec.best_scale == scale


def tournament_oracle(rng, fitness, k):
    """Tournament selection through ``rng.randrange``, as every draw was made before."""
    best = rng.randrange(len(fitness))
    for _ in range(k - 1):
        i = rng.randrange(len(fitness))
        if fitness[i] < fitness[best]:
            best = i
    return best


@pytest.mark.parametrize("k", [1, 2, 5])
@pytest.mark.parametrize("n", [2, 3, 127, 128, 129, 150, 256, 500])
def test_tournament_draws_as_randrange(n, k):
    values = random.Random(n * 8 + k)
    ours, ref = random.Random(n), random.Random(n)
    for _ in range(40):
        # few distinct values, so ties (which keep the earlier draw) are common
        fitness = [values.choice((0.5, 1.0, 2.0, math.inf)) for _ in range(n)]
        for _ in range(5):
            assert scsr._tournament(ours, fitness, k) == tournament_oracle(ref, fitness, k)
            assert ours.getstate() == ref.getstate()


# The perfbench SCSR config, GAConfig(population=150, max_generations=100,
# seed=0), on seed-0 corpus datasets 000 and 018, unit-scaled, eq1: the last
# record's (best_tree, best_train_rmse, best_scale) and the feasible count
# out of 150 of every generation.  The population converges early, so most
# of these generations breed copies of the same few trees.
PINNED_CONVERGED = {
    0: (
        ("neg", ("add", ("var", "p"), ("mul", ("neg", ("const", -1.439380490350969)),
                                        ("mul", ("const", 1.1096138623753697), ("var", "T"))))),
        0.005891502548882768,
        (0.0841239623389155, 0.6296397889239184),
        [81, 134, 149, 145, 144, 141, 147, 140, 146, 146, 143, 145, 141, 142, 144, 144, 144,
         145, 148, 143, 144, 148, 143, 145, 139, 140, 136, 144, 143, 145, 144, 142, 143, 142,
         142, 142, 145, 144, 136, 144, 140, 144, 144, 144, 145, 145, 141, 146, 145, 141, 142,
         133, 141, 142, 144, 145, 140, 142, 141, 144, 145, 140, 139, 138, 144, 141, 143, 140,
         140, 142, 140, 140, 142, 137, 139, 140, 143, 140, 138, 143, 141, 140, 138, 143, 139,
         138, 147, 142, 141, 144, 148, 141, 144, 140, 141, 137, 142, 141, 142, 145],
    ),
    18: (
        ("add", ("var", "p"), ("mul", ("var", "T"), ("const", 0.8161708352768231))),
        0.006716269623860351,
        (-0.10586898899026434, 0.46947682776109545),
        [81, 130, 149, 141, 146, 145, 145, 145, 146, 141, 143, 142, 145, 145, 142, 145, 144,
         148, 144, 144, 143, 144, 144, 144, 141, 147, 144, 146, 148, 148, 149, 142, 145, 145,
         145, 142, 144, 144, 141, 147, 144, 144, 142, 143, 147, 147, 143, 146, 145, 145, 147,
         139, 144, 145, 142, 147, 145, 145, 144, 144, 138, 144, 145, 142, 148, 146, 148, 142,
         142, 138, 139, 144, 147, 142, 144, 146, 142, 143, 138, 142, 145, 147, 145, 145, 147,
         146, 142, 142, 145, 145, 148, 145, 144, 146, 142, 144, 143, 147, 140, 143],
    ),
}


@pytest.mark.parametrize("index", sorted(PINNED_CONVERGED))
def test_converged_ga_run_is_pinned(index):
    ds = make_corpus(18, 35, seed=0)[index]
    scaled = scale_unit(ds, [c for c in ds.columns if c != "mu_dyn"])
    spec = parse_constraints(
        resources.files("shapeguard.resources").joinpath("eq1.spec").read_text()
    )
    config = GAConfig(population=150, max_generations=100, seed=0)
    history = evolve(scaled, config, spec.constraints)
    tree, rmse, scale, feasible = PINNED_CONVERGED[index]
    assert history[-1].best_tree == tree
    assert history[-1].best_train_rmse == rmse
    assert history[-1].best_scale == scale
    assert [r.feasible_fraction for r in history] == [n / 150 for n in feasible]
