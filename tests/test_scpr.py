"""Constrained polynomial least squares: solver oracles and compilation."""

import inspect
import math
import re
import warnings

import numpy as np
import pytest

import shapeguard.scpr as scpr
from shapeguard import (
    ArityError,
    DataError,
    Dataset,
    DomainError,
    InfeasibleError,
    Interval,
    PolyModel,
    SCPRConfig,
    ShapeConstraint,
    SolverError,
    build_design_matrix,
    certify,
    compile_constraints,
    fit_constrained,
    fit_unconstrained,
    monomial_basis,
    parse_constraints,
    solve_elastic_net,
)


def dataset_1d(rng, n=40, f=lambda x: x, noise=0.1, lo=-1.0, hi=1.0):
    x = rng.uniform(lo, hi, size=n)
    y = f(x) + rng.normal(0.0, noise, size=n)
    return Dataset("d", {"x": x, "y": y}, "y")


def test_design_matrix_graded_lex():
    d = Dataset("d", {"x": [2.0, 3.0], "z": [5.0, 7.0], "y": [0.0, 0.0]}, "y")
    X, y = build_design_matrix(d, ["x", "z"], "y", 2)
    # columns: 1, x, z, x^2, xz, z^2
    np.testing.assert_array_equal(X[0], [1.0, 2.0, 5.0, 4.0, 10.0, 25.0])
    np.testing.assert_array_equal(X[1], [1.0, 3.0, 7.0, 9.0, 21.0, 49.0])
    np.testing.assert_array_equal(y, [0.0, 0.0])



def test_monomial_basis_cache_cannot_be_poisoned():
    # monomial_basis hands out a new list per call; the design matrix takes
    # each column as the product, in variable order, of the columns' powers
    rng = np.random.default_rng(5)
    d = Dataset("d", {"x": rng.uniform(-2, 2, 30), "z": rng.uniform(0, 3, 30), "y": np.zeros(30)}, "y")
    X, _ = build_design_matrix(d, ["x", "z"], "y", 3)
    monomial_basis(2, 3).append((9, 9))
    basis = monomial_basis(2, 3)
    assert basis == [(0, 0), (1, 0), (0, 1), (2, 0), (1, 1), (0, 2), (3, 0), (2, 1), (1, 2), (0, 3)]
    reference = np.empty_like(X)
    for j, alpha in enumerate(basis):
        col = np.ones(30)
        for v, e in zip(["x", "z"], alpha):
            if e:
                col = col * d.columns[v] ** e
        reference[:, j] = col
    assert np.array_equal(build_design_matrix(d, ["x", "z"], "y", 3)[0], X)
    assert np.array_equal(X, reference)

def test_unconstrained_matches_lstsq():
    rng = np.random.default_rng(0)
    d = dataset_1d(rng, n=60, f=lambda x: 0.5 * x**3 + 0.1 * x + 1.0, noise=0.3, lo=-2, hi=2)
    model, report = fit_unconstrained(d, SCPRConfig(degree=3, lam=0.0))
    X, y = build_design_matrix(d, ["x"], "y", 3)
    expect, *_ = np.linalg.lstsq(X, y, rcond=None)
    np.testing.assert_allclose(model.coefficient_vector(), expect, rtol=1e-6, atol=1e-8)
    assert report.train_rmse == pytest.approx(
        float(np.sqrt(np.mean((X @ expect - y) ** 2))), rel=1e-6
    )


def test_ridge_matches_closed_form():
    # objective (1/n)||X t - y||^2 + lam * 0.5 * ||t[1:]||^2 (alpha = 0)
    rng = np.random.default_rng(1)
    d = dataset_1d(rng, n=50, f=lambda x: x**2, noise=0.2)
    lam = 0.3
    X, y = build_design_matrix(d, ["x"], "y", 2)
    n = X.shape[0]
    D = np.eye(X.shape[1])
    D[0, 0] = 0.0  # intercept unpenalized
    expect = np.linalg.solve((2.0 / n) * X.T @ X + lam * D, (2.0 / n) * X.T @ y)
    model, _ = fit_unconstrained(d, SCPRConfig(degree=2, lam=lam, alpha=0.0))
    np.testing.assert_allclose(model.coefficient_vector(), expect, rtol=1e-6, atol=1e-8)


def sign_split(X, y, lam, alpha):
    """The elastic-net objective, with its gradient, of z = (t0, tp, tn) where
    theta = (t0, tp - tn) and tp, tn >= 0: the 1-norm term is linear there
    and the objective smooth."""
    n, m = X.shape

    def objective(z):
        tp, tn = z[1:m], z[m:]
        t = np.r_[z[0], tp - tn]
        r = X @ t - y
        ridge = 0.5 * (1 - alpha) * (tp - tn)
        value = r @ r / n + lam * (alpha * (tp.sum() + tn.sum()) + ridge @ (tp - tn))
        g = (2.0 / n) * X.T @ r
        g_pen = g[1:] + lam * 2.0 * ridge
        return value, np.r_[g[0], g_pen + lam * alpha, -g_pen + lam * alpha]

    return objective


def theta_of(z, m):
    return np.r_[z[0], z[1:m] - z[m:]]


def test_elastic_net_matches_scipy():
    # oracle: L-BFGS-B on the sign-split problem
    optimize = pytest.importorskip("scipy.optimize")
    rng = np.random.default_rng(2)
    for alpha in (1.0, 0.5):
        X = np.column_stack([np.ones(30), rng.normal(size=(30, 3))])
        y = rng.normal(size=30)
        lam = 0.1
        bounds = [(None, None)] + [(0.0, None)] * 6
        opt = optimize.minimize(
            sign_split(X, y, lam, alpha), np.zeros(7), jac=True, method="L-BFGS-B", bounds=bounds,
            options={"ftol": 1e-15, "gtol": 1e-12, "maxiter": 10000},
        )
        res = solve_elastic_net(X, y, lam, alpha)
        np.testing.assert_allclose(res.theta, theta_of(opt.x, 4), rtol=1e-4, atol=1e-6)


@pytest.mark.parametrize("alpha", [0.5, 1.0])
def test_constrained_elastic_net_matches_scipy(alpha):
    # oracle: SLSQP on the sign-split problem under rows A theta >= b that
    # cut off the unconstrained optimum, so they bind
    optimize = pytest.importorskip("scipy.optimize")
    rng = np.random.default_rng(10)
    n, m, lam = 30, 5, 0.05
    for trial in range(5):
        X = np.column_stack([np.ones(n), rng.normal(size=(n, m - 1))])
        y = X @ rng.normal(size=m) + rng.normal(0.0, 0.3, n)
        A = rng.normal(size=(3, m))
        b = A @ solve_elastic_net(X, y, lam, alpha).theta + rng.uniform(0.1, 0.5, 3)
        rows = np.column_stack([A, -A[:, 1:]])
        opt = optimize.minimize(
            sign_split(X, y, lam, alpha), np.zeros(2 * m - 1), jac=True, method="SLSQP",
            bounds=[(None, None)] + [(0.0, None)] * (2 * m - 2),
            constraints=[{"type": "ineq", "fun": lambda z: rows @ z - b, "jac": lambda z: rows}],
            options={"ftol": 1e-15, "maxiter": 1000},
        )
        assert opt.success, opt.message
        res = solve_elastic_net(X, y, lam, alpha, A, b)
        assert res.max_violation <= 1e-12
        assert (A @ res.theta - b).min() <= 1e-9  # premise: a row binds
        np.testing.assert_allclose(res.theta, theta_of(opt.x, m), atol=1e-6)
        assert res.objective <= opt.fun + 1e-12


@pytest.mark.parametrize("alpha", [0.5, 1.0])
def test_constrained_elastic_net_meets_kkt(alpha):
    # With mu >= 0 on the binding rows, a nonzero coefficient has
    # g_j + lam * alpha * sign(theta_j) = (A^T mu)_j, g the gradient of the
    # smooth part, and a coefficient at zero |g_j - (A^T mu)_j| <= lam * alpha,
    # which is its sign row's multiplier lying in [0, 2 lam alpha].
    optimize = pytest.importorskip("scipy.optimize")
    rng = np.random.default_rng(11)
    n, m, k, lam = 40, 8, 6, 0.1
    at_zero = 0
    for trial in range(20):
        X = np.column_stack([np.ones(n), rng.normal(size=(n, m - 1))])
        y = X @ (rng.normal(size=m) * (rng.random(m) < 0.5)) + rng.normal(0.0, 0.5, n)
        A = rng.normal(size=(k, m))
        # strictly feasible around a point far from the unconstrained optimum
        b = A @ rng.normal(scale=2.0, size=m) - rng.uniform(0.0, 1.0, size=k)
        theta = solve_elastic_net(X, y, lam, alpha, A, b).theta
        slack = A @ theta - b
        assert slack.min() >= -1e-12
        g = (2.0 / n) * X.T @ (X @ theta - y)
        g[1:] += lam * (1.0 - alpha) * theta[1:]
        zero = np.abs(theta) <= 1e-12
        zero[0] = False
        pen = lam * alpha * np.sign(theta)
        pen[0] = 0.0
        active = slack <= 1e-9
        assert active.any()  # premise: the constraints bind
        mu, residual = optimize.nnls(A[active][:, ~zero].T, (g + pen)[~zero])
        assert residual <= 1e-9 * (1.0 + np.linalg.norm(g))
        assert np.all(np.abs(g - A[active].T @ mu)[zero] <= lam * alpha * (1.0 + 1e-6))
        at_zero += int(zero.sum())
    assert at_zero  # premise: coefficients sit at zero


def test_unidentified_column_is_fixed_at_zero():
    # Columns 1 and 2 are equal, so the data identify only theta_1 + theta_2:
    # column 2 lies in the span of the columns before it and gets 0.  The
    # least-squares slope is below 1, so the row theta_1 - theta_2 >= 1 binds
    # at theta_1 = 1, and the intercept is mean(y) - mean(x).
    rng = np.random.default_rng(12)
    x = rng.uniform(-1.0, 1.0, 30)
    y = 1.0 + 0.3 * x + rng.normal(0.0, 0.1, 30)
    X = np.column_stack([np.ones(30), x, x])
    A, b = np.array([[0.0, 1.0, -1.0]]), np.array([1.0])
    res = solve_elastic_net(X, y, 0.0, 0.0, A, b)
    assert np.polyfit(x, y, 1)[0] < 1.0  # premise: the row binds
    assert res.theta[2] == 0.0
    assert A @ res.theta - b == pytest.approx(0.0, abs=1e-12)
    np.testing.assert_allclose(res.theta, [y.mean() - x.mean(), 1.0, 0.0], atol=1e-9)


def test_zero_intercept_column_raises_data_error():
    # column 0 is the unpenalized intercept; the rows cannot identify a zero
    # column, and fixing the intercept at 0 would penalize column 1 in its place
    X = np.column_stack([np.zeros(10), np.linspace(0.0, 1.0, 10)])
    with pytest.raises(DataError, match="column 0"):
        solve_elastic_net(X, np.ones(10), 0.1, 0.5)


def clipped_slope_oracle(x, y, sign):
    """Closed-form 1-var degree-1 least squares with a slope-sign constraint.

    Unconstrained slope cov/var; if its sign disagrees, the slope clips to 0
    and the intercept becomes mean(y).
    """
    xc = x - x.mean()
    slope = float(xc @ (y - y.mean()) / (xc @ xc))
    if sign * slope < 0.0:
        return np.array([float(y.mean()), 0.0])
    return np.array([float(y.mean() - slope * x.mean()), slope])


@pytest.mark.parametrize("sign", [1, -1])
def test_constrained_fit_matches_clipped_slope(sign):
    rng = np.random.default_rng(3 if sign > 0 else 4)
    bound = Interval(0.0, math.inf) if sign > 0 else Interval(-math.inf, 0.0)
    for trial in range(20):
        d = dataset_1d(rng, n=25, f=lambda x: rng.normal() * x, noise=0.5, lo=0.0, hi=1.0)
        cons = [ShapeConstraint({"x": 1}, bound, {"x": Interval(0.0, 1.0)})]
        model, _ = fit_constrained(d, SCPRConfig(degree=1, lam=0.0), cons)
        expect = clipped_slope_oracle(d.columns["x"], d.y, sign)
        np.testing.assert_allclose(model.coefficient_vector(), expect, atol=1e-6)


def test_fixture_negative_data_positive_slope_constraint():
    # y = -x with d/dx f >= 0 forces slope 0, intercept mean(y)
    x = np.linspace(0.0, 1.0, 11)
    d = Dataset("d", {"x": x, "y": -x}, "y")
    cons = [ShapeConstraint({"x": 1}, Interval(0.0, math.inf), {"x": Interval(0.0, 1.0)})]
    model, _ = fit_constrained(d, SCPRConfig(degree=1, lam=0.0), cons)
    theta = model.coefficient_vector()
    assert theta[1] == pytest.approx(0.0, abs=1e-7)
    assert theta[0] == pytest.approx(float(np.mean(-x)), abs=1e-7)


def test_compile_constraints_row_count():
    cons = [
        ShapeConstraint({}, Interval(0.0, 1.0), {"x": Interval(0, 1), "z": Interval(0, 1)}),
        ShapeConstraint({"x": 1}, Interval(0.0, math.inf), {"x": Interval(0, 1), "z": Interval(0, 1)}),
    ]
    system = compile_constraints(cons, ("x", "z"), 2, grid_points_per_dim=4)
    # two-sided value constraint: 2 rows per grid point; one-sided: 1 row
    assert system.rows.shape == (16 * 2 + 16, len(monomial_basis(2, 2)))
    assert system.rhs.shape == (48,)


def test_compiled_rows_encode_derivative_values():
    cons = [ShapeConstraint({"x": 1}, Interval(0.0, math.inf), {"x": Interval(0.0, 2.0)})]
    system = compile_constraints(cons, ("x",), 2, grid_points_per_dim=3)
    # d/dx (t0 + t1 x + t2 x^2) = t1 + 2 t2 x at x in {0, 1, 2}
    got = sorted(map(tuple, system.rows))
    assert got == sorted([(0.0, 1.0, 0.0), (0.0, 1.0, 2.0), (0.0, 1.0, 4.0)])
    np.testing.assert_array_equal(system.rhs, np.zeros(3))
    # a two-sided bound lo <= f <= hi gives, per grid point, the row (M, lo)
    # and then (-M, -hi), both in the >= form
    cons = [ShapeConstraint({}, Interval(-1.0, 2.0), {"x": Interval(0.0, 2.0)})]
    system = compile_constraints(cons, ("x",), 1, grid_points_per_dim=3)
    np.testing.assert_array_equal(
        system.rows, [[1.0, 0.0], [-1.0, 0.0], [1.0, 1.0], [-1.0, -1.0], [1.0, 2.0], [-1.0, -2.0]]
    )
    np.testing.assert_array_equal(system.rhs, [-1.0, -2.0] * 3)


# specs that do not match the features x and z: what every fit must raise
SPEC_MISMATCHES = [
    ("box x in [0, 1]\nd1 x >= 0", ArityError, "constraint region missing model variables ['z']"),
    (
        "box x in [0, 1]\nbox z in [0, 1]\nbox q in [0, 1]\nd1 q >= 0",
        DomainError,
        "constraint differentiates unknown variables ['q']",
    ),
]


@pytest.mark.parametrize("spec, error, message", SPEC_MISMATCHES)
def test_fit_and_compilation_name_what_a_spec_lacks(spec, error, message):
    x = np.linspace(0.0, 1.0, 12)
    data = Dataset("d", {"x": x, "z": x[::-1].copy(), "y": x**2}, "y")
    constraints = parse_constraints("target y\n" + spec).constraints
    with pytest.raises(error, match=re.escape(message)):
        fit_constrained(data, SCPRConfig(degree=2), constraints)
    with pytest.raises(error, match=re.escape(message)):
        compile_constraints(constraints, data.feature_names, 2)


@pytest.mark.parametrize("lam, alpha", [(0.0, 0.0), (0.1, 0.5)])
def test_infeasible_constraints_raise(lam, alpha):
    # alpha > 0 adds a 1-norm term and so orthant steps.  The gap between the
    # bounds is 1e-4: the least-distance problem on the rows must see it.
    rng = np.random.default_rng(5)
    d = dataset_1d(rng, n=20, noise=0.1, lo=0.0, hi=1.0)
    region = {"x": Interval(0.0, 1.0)}
    cons = [
        ShapeConstraint({}, Interval(1e-4, math.inf), region),
        ShapeConstraint({}, Interval(-math.inf, 0.0), region),
    ]
    with pytest.raises(InfeasibleError):
        fit_constrained(d, SCPRConfig(degree=1, lam=lam, alpha=alpha), cons)


def test_constrained_rmse_never_beats_unconstrained():
    rng = np.random.default_rng(6)
    region = {"x": Interval(-1.0, 1.0)}
    cons = [ShapeConstraint({"x": 1}, Interval(0.0, math.inf), region)]
    for trial in range(5):
        d = dataset_1d(rng, n=30, f=lambda x: np.sin(2 * x), noise=0.3)
        uncon, r_u = fit_unconstrained(d, SCPRConfig(degree=3, lam=0.0))
        con, r_c = fit_constrained(d, SCPRConfig(degree=3, lam=0.0), cons)
        assert r_c.train_rmse >= r_u.train_rmse - 1e-9


def test_violation_reported_below_tolerance():
    rng = np.random.default_rng(7)
    d = dataset_1d(rng, n=40, f=lambda x: x**3, noise=0.2)
    cons = [ShapeConstraint({"x": 1}, Interval(0.0, math.inf), {"x": Interval(-1.0, 1.0)})]
    _, report = fit_constrained(d, SCPRConfig(degree=3, lam=0.0), cons)
    assert report.max_sampled_violation <= 1e-8


@pytest.mark.parametrize("lam", [0.0, 0.3])
def test_exact_constrained_solve_meets_kkt(lam):
    # objective (1/n)||X t - y||^2 + lam * 0.5 * ||t[1:]||^2 s.t. A t >= b
    rng = np.random.default_rng(8)
    n, m, k = 40, 6, 30
    for trial in range(20):
        X = np.column_stack([np.ones(n), rng.normal(size=(n, m - 1))])
        y = rng.normal(size=n)
        A = rng.normal(size=(k, m))
        # strictly feasible around a point far from the unconstrained optimum
        b = A @ rng.normal(scale=3.0, size=m) - rng.uniform(0.0, 1.0, size=k)
        theta = solve_elastic_net(X, y, lam, 0.0, A, b).theta
        slack = A @ theta - b
        assert slack.min() >= -1e-12
        grad = (2.0 / n) * X.T @ (X @ theta - y)
        grad[1:] += lam * theta[1:]
        active = slack <= 1e-9
        assert active.any()  # premise: the constraints bind
        mu = np.zeros(k)
        mu[active] = np.linalg.lstsq(A[active].T, grad, rcond=None)[0]
        assert np.linalg.norm(A.T @ mu - grad) <= 1e-9 * (1.0 + np.linalg.norm(grad))
        assert mu.min() >= -1e-9
        # complementary slackness: a row with a multiplier holds with equality
        assert np.abs(slack[mu > 1e-9]).max() <= 1e-12


def test_exact_solve_detects_inconsistent_rows():
    # t0 + t1 >= 1, t0 <= 0 and t1 <= 0.5: no pair of rows is contradictory
    # on its own, the three together are
    X = np.column_stack([np.ones(10), np.linspace(0.0, 1.0, 10)])
    A = np.array([[1.0, 1.0], [-1.0, 0.0], [0.0, -1.0]])
    b = np.array([1.0, 0.0, -0.5])
    with pytest.raises(InfeasibleError):
        solve_elastic_net(X, np.zeros(10), 0.0, 0.0, A, b)


def test_nnls_that_runs_out_of_its_budget_raises():
    # f' >= 0 at 5 points against falling data: the least-distance NNLS takes 3 steps
    x = np.linspace(-1.0, 1.0, 20)
    X = np.column_stack([x**k for k in range(4)])
    pts = np.linspace(-1.0, 1.0, 5)
    A = np.column_stack([np.zeros(5)] + [k * pts ** (k - 1) for k in range(1, 4)])
    b = np.zeros(5)
    y = 0.5 * x - x**3
    assert solve_elastic_net(X, y, 0.0, 0.0, A, b).iterations == 3
    for budget in (1, 2):
        with pytest.raises(SolverError, match=f"NNLS did not finish within {budget} iterations"):
            solve_elastic_net(X, y, 0.0, 0.0, A, b, max_iter=budget)
    assert solve_elastic_net(X, y, 0.0, 0.0, A, b, max_iter=3).iterations == 3
    # the budget is the only limit a caller sets; the tolerance is scpr.SOLVER_TOL
    keywords = [p.name for p in inspect.signature(solve_elastic_net).parameters.values() if p.kind is p.KEYWORD_ONLY]
    assert keywords == ["max_iter", "_reuse"]


def test_zero_rows_of_a_least_distance_problem_drop_out_or_raise():
    # a row whose nonzeros sit only in columns a fit fixes at 0 reaches
    # _least_distance as a zero row: 0 >= b holds for b <= 0 and fails for b > 0
    from shapeguard.scpr import _least_distance

    rng = np.random.default_rng(11)
    G = rng.normal(size=(12, 5))
    h = G @ rng.normal(size=5) - rng.exponential(size=12)
    start = rng.random(12) < 0.5
    z, mu, _ = _least_distance(G, h, 1000, start)
    assert mu.any()  # premise: the rows bind, so z is not 0
    at = [3, 8]
    Gz, hz = np.insert(G, at, 0.0, axis=0), np.insert(h, at, [-0.5, 0.0])
    zero = np.isin(np.arange(14), np.array(at) + np.arange(len(at)))
    z_zero, mu_zero, _ = _least_distance(Gz, hz, 1000, np.insert(start, at, True))
    np.testing.assert_array_equal(z_zero, z)
    np.testing.assert_array_equal(mu_zero[~zero], mu)
    assert (mu_zero[zero] == 0.0).all()
    hz[at[1] + 1] = 1e-3
    with pytest.raises(InfeasibleError, match="zero coefficients"):
        _least_distance(Gz, hz, 1000)


def test_fit_without_refinement_rounds_is_certified(monkeypatch):
    # one Bernstein box and no refinement: the degree-5 fit of a non-monotone
    # target is still monotone on the whole region, with no sampling
    monkeypatch.setattr(scpr, "REFINE_ROUNDS", 0)
    x = np.linspace(-1.0, 1.0, 41)
    d = Dataset("d", {"x": x, "y": np.sin(3.0 * x)}, "y")
    cons = [ShapeConstraint({"x": 1}, Interval(0.0, math.inf), {"x": Interval(-1.0, 1.0)})]
    model, report = fit_constrained(d, SCPRConfig(degree=5, lam=0.0), cons)
    assert certify(model, cons).all_certified
    assert report.max_sampled_violation <= 1e-8


def test_fit_splits_boxes_when_one_box_admits_no_fit(monkeypatch):
    # on one box the middle Bernstein coefficient of any admissible quadratic
    # (f'' >= 1.9, 0 <= f <= 1 on [-1, 1]) is negative; halving the box
    # admits x**2, which the data follow exactly
    x = np.linspace(-1.0, 1.0, 21)
    d = Dataset("d", {"x": x, "y": x**2}, "y")
    region = {"x": Interval(-1.0, 1.0)}
    cons = [
        ShapeConstraint({}, Interval(0.0, 1.0), region),
        ShapeConstraint({"x": 2}, Interval(1.9, math.inf), region),
    ]
    with monkeypatch.context() as patch:
        patch.setattr(scpr, "REFINE_ROUNDS", 0)
        with pytest.raises(InfeasibleError):
            fit_constrained(d, SCPRConfig(degree=2), cons)
    model, report = fit_constrained(d, SCPRConfig(degree=2), cons)
    assert report.train_rmse <= 1e-12
    assert certify(model, cons).all_certified


def test_constrained_fit_of_a_wide_design():
    # 3 rows for 5 coefficients and lam = 0: the rows identify only 1, x
    # and x^2, so x^3 and x^4 are fixed at 0.  Under d/dx >= 0 the best fit
    # of y = -x is the constant mean, whose RMSE is the standard deviation
    # of x.
    x = np.array([0.1, 0.5, 0.9])
    d = Dataset("d", {"x": x, "y": -x}, "y")
    cons = [ShapeConstraint({"x": 1}, Interval(0.0, math.inf), {"x": Interval(0.0, 1.0)})]
    _, report = fit_constrained(d, SCPRConfig(degree=4, lam=0.0), cons)
    assert report.max_sampled_violation <= 1e-8
    assert report.train_rmse == pytest.approx(float(np.std(x)), rel=1e-6)


def test_config_validation():
    from shapeguard import ConfigError

    with pytest.raises(ConfigError):
        SCPRConfig(degree=0)
    with pytest.raises(ConfigError):
        SCPRConfig(alpha=1.5)


@pytest.mark.parametrize(
    "field, value",
    [
        ("refine_rounds", -1),
        ("solver_tol", -1.0),
        ("solver_tol", 0.0),
        ("solver_tol", math.inf),
        ("solver_tol", math.nan),
        ("lam", -1.0),
        ("lam", math.inf),
        ("lam", math.nan),
        ("max_iter", 0),
    ],
)
def test_config_rejects_settings_that_break_the_fit(field, value):
    # lam fails SCPRConfig's range check; the solver's tolerance, iteration
    # budget and refinement cap are scpr constants, so no setting names them
    from shapeguard import ConfigError, ValidationConfig

    with pytest.raises(ConfigError, match=field):
        ValidationConfig(0.05, ["p"], "scpr", {field: value})


def test_config_accepts_the_edge_values():
    SCPRConfig(degree=1, lam=0.0, alpha=0.0)
    SCPRConfig(lam=1e300, alpha=1.0)


def random_constraint(rng, variables, region):
    """A value, first- or second-order bound that a constant satisfies."""
    order = int(rng.integers(0, 3))
    var = variables[int(rng.integers(len(variables)))]
    derivative = {var: order} if order else {}
    if order == 0:
        bound = Interval(-1.0, 1.0)
    elif rng.random() < 0.5:
        bound = Interval(0.0, math.inf)
    else:
        bound = Interval(-math.inf, 0.0)
    return ShapeConstraint(derivative, bound, region)


def random_fit_problems():
    """30 (trial, dataset, constraints, degree) with one to three variables."""
    rng = np.random.default_rng(9)
    for trial in range(30):
        n_vars = 1 + trial % 3
        variables = ["x", "z", "w"][:n_vars]
        region = {v: Interval(-1.0, 1.0) for v in variables}
        cols = {v: rng.uniform(-1.0, 1.0, 60) for v in variables}
        waves = sum(np.sin(rng.uniform(1.0, 4.0) * cols[v] + rng.normal()) for v in variables)
        d = Dataset("d", dict(cols, y=0.5 * waves + rng.normal(0.0, 0.1, 60)), "y")
        cons = [random_constraint(rng, variables, region) for _ in range(1 + trial % 3)]
        yield trial, d, cons, int(rng.integers(2, 6 - n_vars + 1))


def test_random_fits_are_certified_and_bound_their_breach():
    # every returned model meets its constraints on the whole region, and
    # the reported Bernstein-row violation bounds the breach on a dense grid
    # (up to the rounding of that grid's evaluation)
    for trial, d, cons, degree in random_fit_problems():
        model, report = fit_constrained(d, SCPRConfig(degree=degree, lam=1e-6), cons)
        assert certify(model, cons).all_certified, (trial, [c.describe() for c in cons])
        n_vars = len(model.variables)
        variables = model.variables
        axes = np.meshgrid(*[np.linspace(-1.0, 1.0, 41)] * n_vars, indexing="ij")
        grid = {v: a.reshape(-1) for v, a in zip(variables, axes)}
        for c in cons:
            vals = model.derivative(c.derivative_tuple(model.variables)).evaluate_columns(grid)
            breach = max(float(np.max(c.bound.lo - vals)), float(np.max(vals - c.bound.hi)))
            assert report.max_sampled_violation >= breach - 1e-12


@pytest.mark.parametrize("index", [0, 10, 19, 21, 43])
def test_corpus_fits_certify_every_eq1_constraint(index):
    # five seed-0 corpus datasets, four of which once had fits whose sampled
    # violation certification refuted
    from importlib import resources

    from shapeguard import ValidationConfig, make_corpus, parse_constraints, validate_dataset

    spec = parse_constraints(resources.files("shapeguard.resources").joinpath("eq1.spec").read_text())
    config = ValidationConfig(
        threshold=0.05,
        controlled_variables=["p", "v"],
        algorithm="scpr",
        algorithm_config=SCPRConfig(degree=3, lam=1e-6),
        constraints=spec.constraints,
        target=spec.target,
    )
    report = validate_dataset(make_corpus(18, 35, seed=0)[index], config)
    verdicts = [e["verdict"] for e in report.certification["constraints"]]
    assert verdicts == ["CERTIFIED"] * len(spec.constraints)


@pytest.mark.parametrize(
    "config, rounds",
    [
        pytest.param(SCPRConfig(degree=5, lam=0.0), scpr.REFINE_ROUNDS, id="config0"),
        pytest.param(SCPRConfig(degree=6, lam=1e-6, alpha=0.5), 0, id="config1"),
    ],
)
def test_corpus_fits_of_rank_deficient_and_one_norm_cells_certify(config, rounds, monkeypatch):
    # seed-0 dataset 000: p and v take 4 levels each, so from degree 4 on the
    # rows cannot identify every monomial and the fit drops some; the second
    # DEFAULT_GRID cell adds a 1-norm term, and one box per constraint
    # already makes its solve hard.
    from importlib import resources

    from shapeguard import make_corpus, parse_constraints, scale_unit

    spec = parse_constraints(resources.files("shapeguard.resources").joinpath("eq1.spec").read_text())
    data = make_corpus(18, 35, seed=0)[0]
    scaled = scale_unit(data, [c for c in data.columns if c != spec.target])
    monkeypatch.setattr(scpr, "REFINE_ROUNDS", rounds)
    model, report = fit_constrained(scaled, config, spec.constraints)
    assert report.max_sampled_violation <= scpr.SOLVER_TOL
    assert certify(model, spec.constraints).all_certified


def test_monotone_cubic_fit_is_near_the_exact_optimum():
    # criterion 01's data: the true optimum lies between the fit's objective
    # and that of a 4001-point grid, an outer relaxation
    from shapeguard import synth_generate

    data = synth_generate("cubic_fig1", 5)
    cons = [ShapeConstraint({"x": 1}, Interval(0.0, math.inf), {"x": Interval(-2.0, 2.0)})]
    _, report = fit_constrained(data, SCPRConfig(degree=3, lam=0.0), cons)
    X, y = build_design_matrix(data, ["x"], "y", 3)
    grid = compile_constraints(cons, ["x"], 3, grid_points_per_dim=4001)
    lower = solve_elastic_net(X, y, 0.0, 0.0, grid.rows, grid.rhs).theta
    exact_rmse = float(np.sqrt(np.mean((X @ lower - y) ** 2)))
    assert exact_rmse <= report.train_rmse <= exact_rmse * (1.0 + 1e-3)
    assert 0.0 <= report.optimality_gap <= 1e-3



# ---------------------------------------------------------------------------
# what a fit reuses: warm-started NNLS, cached matrices, one factorization
# ---------------------------------------------------------------------------


def nnls_problems():
    """(E, f, whether u is unique): tall, square, the wide duals of
    least-distance problems, and one with a repeated column."""
    rng = np.random.default_rng(4)
    for rows, cols in [(30, 8), (12, 12)]:
        for _ in range(4):
            yield rng.normal(size=(rows, cols)), rng.normal(size=rows), True
    for dim, k in [(7, 40), (20, 300)]:
        for _ in range(4):
            # G z >= h holds at z0 with slack, so the dual's residual is not 0
            G = rng.normal(size=(k, dim))
            h = G @ rng.normal(size=dim) - rng.exponential(size=k)
            yield np.vstack([G.T, h]), np.eye(dim + 1)[-1], True
    E = rng.normal(size=(10, 25))
    E[:, 7] = E[:, 3]  # the shared face rows of two halves give such columns
    yield E, rng.normal(size=10), False


def test_nnls_from_any_start_set_reaches_the_cold_start_optimum():
    from shapeguard.scpr import _nnls

    rng = np.random.default_rng(5)
    for E, f, unique in nnls_problems():
        cold, _, finished = _nnls(E, f, 10**5)
        assert finished
        optimum = cold > 0.0
        cols = E.shape[1]
        starts = [
            np.zeros(cols, dtype=bool),
            optimum,
            optimum | (rng.random(cols) < 0.3),  # columns that must leave
            rng.random(cols) < 0.5,  # more columns than rows when E is wide
            np.ones(cols, dtype=bool),
        ] + [rng.random(cols) < p for p in (0.1, 0.2, 0.8)]
        for start in starts:
            u, _, finished = _nnls(E, f, 10**5, start)
            assert finished
            scale = 1e-12 * max(1.0, np.abs(cold).max())
            # a repeated column leaves u free to shift between its copies, never E u
            assert np.abs(E @ u - E @ cold).max() <= scale * np.abs(E).max()
            if unique:
                assert np.abs(u - cold).max() <= scale


def test_cached_matrices_are_read_only_and_equal_fresh_ones():
    from shapeguard.poly import _basis, _bernstein_map, _bernstein_matrix, _split_matrix
    from shapeguard.scpr import _node_values, _region_rows

    calls = [(_node_values, (d,)) for d in range(7)] + [(_split_matrix, (d,)) for d in range(7)]
    calls += [(_bernstein_matrix, (lo, w, d)) for lo, w in [(0.0, 1.0), (-1.0, 2.0), (0.25, 0.125)] for d in range(7)]
    for fn, args in calls:
        for cached in (fn(*args), fn(*args)):  # the first call may fill the cache
            assert np.array_equal(cached, fn.__wrapped__(*args))
            assert not cached.flags.writeable
            with pytest.raises(ValueError):
                cached[0, 0] = 1.0
    args = ((1, 0, 2), (0.0, -1.0, 0.0), (1.0, 1.0, 0.5), 4)
    *cached, degrees = _region_rows(*args)
    *fresh, fresh_degrees = _region_rows.__wrapped__(*args)
    assert degrees == fresh_degrees == (1, 1, 1)
    for a, b in zip(cached, fresh):
        assert np.array_equal(a, b) and not a.flags.writeable
    for support in [_basis(3, 4), ((3, 0, 2), (0, 0, 0), (1, 1, 2))]:
        map_args = (support, (1, 0, 2), (0.0, -1.0, 0.0), (1.0, 1.0, 0.5))
        *cached, degrees = _bernstein_map(*map_args)
        *fresh, fresh_degrees = _bernstein_map.__wrapped__(*map_args)
        assert degrees == fresh_degrees
        for a, b in zip(cached, fresh):
            assert np.array_equal(a, b) and not a.flags.writeable
            with pytest.raises(ValueError):
                a.flat[0] = 1.0


def test_full_basis_fit_and_certify_share_one_bernstein_map():
    from shapeguard.poly import _bernstein_map
    from shapeguard.scpr import _region_rows

    c = ShapeConstraint({"y": 1}, Interval(0.0, math.inf), {"x": Interval(0.0, 1.0), "y": Interval(-0.5, 2.0)})
    basis = monomial_basis(2, 3)
    model = PolyModel(("x", "y"), 3, dict(zip(basis, np.linspace(1.0, 2.0, len(basis)))))
    _bernstein_map.cache_clear()
    _region_rows.__wrapped__(c.derivative_tuple(model.variables), (0.0, -0.5), (1.0, 2.0), 3)
    assert certify(model, [c]).entries[0].verdict == "CERTIFIED"
    info = _bernstein_map.cache_info()
    assert (info.misses, info.hits, info.currsize) == (1, 1, 1)


def test_sparse_or_reordered_supports_are_not_cached():
    # an elastic-net fit's zero coefficients, or a JSON model's term order,
    # give a support that recurs across fits only by chance: certify and
    # interval_bound build its maps without keeping them
    from shapeguard.poly import _bernstein_map

    c = ShapeConstraint({"y": 1}, Interval(0.0, math.inf), {"x": Interval(0.0, 1.0), "y": Interval(0.0, 2.0)})
    basis = monomial_basis(2, 3)
    values = np.linspace(1.0, 2.0, len(basis))
    full = PolyModel(("x", "y"), 3, dict(zip(basis, values)))
    sparse = PolyModel(("x", "y"), 3, dict(zip(basis, values * (np.arange(len(basis)) % 3 > 0))))
    reordered = PolyModel(("x", "y"), 3, dict(reversed(list(zip(basis, values)))))
    _bernstein_map.cache_clear()
    for model in (sparse, reordered):
        assert certify(model, [c]).entries[0].verdict == "CERTIFIED"
        corner = model.evaluate({"x": 1.0, "y": 2.0})
        assert model.interval_bound(c.region).encloses(Interval(corner, corner))
    assert _bernstein_map.cache_info().currsize == 0
    assert certify(full, [c]).to_dict() == certify(reordered, [c]).to_dict()
    assert _bernstein_map.cache_info().currsize == 1


def test_overflowing_bernstein_rows_raise_domain_error_before_any_solve(monkeypatch, capfd):
    # the degree-2 Bernstein matrix on [0, 1e308] overflows: the fit must
    # name the constraint, not hand infinities to LAPACK
    import shapeguard.scpr as scpr

    monkeypatch.setattr(scpr, "solve_elastic_net", lambda *args, **kwargs: pytest.fail("solved"))
    x = np.linspace(0.0, 1.0, 30)
    data = Dataset("d", {"x": x, "y": x**2}, "y")
    c = ShapeConstraint({"x": 1}, Interval(0.0, math.inf), {"x": Interval(0.0, 1e308)})
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(DomainError, match=r"constraint 'd1 x in \[0.0, inf\]'.*overflow on x in \[0.0, 1e\+308\]"):
            fit_constrained(data, SCPRConfig(degree=3), [c])
    assert capfd.readouterr().err == ""


def cold_start_solves(monkeypatch):
    """Make every solve of a fit start from nothing, as a lone solve does."""
    import shapeguard.scpr as scpr

    solve = scpr.solve_elastic_net

    def cold(*args, _reuse=None, **kwargs):
        return solve(*args, **kwargs)

    monkeypatch.setattr(scpr, "solve_elastic_net", cold)


def eq1_dataset(index):
    from importlib import resources

    from shapeguard import make_corpus, parse_constraints, scale_unit

    spec = parse_constraints(resources.files("shapeguard.resources").joinpath("eq1.spec").read_text())
    data = make_corpus(18, 35, seed=0)[index]
    scaled = scale_unit(data, [c for c in data.columns if c != spec.target])
    return scaled, spec


@pytest.mark.parametrize("degree, lam", [(5, 1e-5), (6, 1e-6), (6, 1e-5)])
def test_failing_grid_search_cells_fit_and_certify(degree, lam):
    # the three grid-search cells that failed while the solver kept the
    # monomials the rows cannot identify: dataset 000's second fold, which
    # trains on its first 240 rows (2 of 4 p levels), with alpha = 1
    scaled, spec = eq1_dataset(0)
    train = scaled.select_rows(np.arange(240))
    model, _ = fit_constrained(train, SCPRConfig(degree=degree, lam=lam, alpha=1.0), spec.constraints)
    assert certify(model, spec.constraints).all_certified


def test_stuck_dataset_refines_in_few_rounds():
    # halving each binding box along every axis on which a binding
    # coefficient is interior; along the widest axis alone this took 16
    scaled, spec = eq1_dataset(19)
    _, report = fit_constrained(scaled, SCPRConfig(degree=3, lam=1e-6), spec.constraints)
    assert report.rounds <= 8
    assert report.optimality_gap <= scpr.GAP_TOL


def test_degree_6_fit_reaches_the_gap_tolerance():
    # on the 64 of 84 monomials the rows identify, the fit closes its gap
    # within MAX_FIT_ROWS; on all 84 it stopped on the row budget at 2.30e-3
    scaled, spec = eq1_dataset(0)
    _, report = fit_constrained(scaled, SCPRConfig(degree=6, lam=1e-6, alpha=0.0), spec.constraints)
    assert report.optimality_gap <= scpr.GAP_TOL


def test_boxes_past_the_row_budget_are_halved_along_one_axis(monkeypatch):
    # t = (x - 1/2)**2 + (y - 1/2)**2 on the unit square has one negative
    # Bernstein coefficient, index (1, 1): interior on both axes.  Halving
    # both makes 4 boxes of 9 rows; with room for 18 rows the box is halved
    # along its widest axis only, and the next round would pass the budget.
    x, y = (grid.ravel() for grid in np.meshgrid(np.linspace(0.0, 1.0, 9), np.linspace(0.0, 1.0, 9)))
    d = Dataset("d", {"x": x, "y": y, "t": (x - 0.5) ** 2 + (y - 0.5) ** 2}, "t")
    cons = [ShapeConstraint({}, Interval(0.0, math.inf), {"x": Interval(0.0, 1.0), "y": Interval(0.0, 1.0)})]
    masks, split = [], scpr._split

    def record(*args):
        masks.append(args[3].tolist())
        return split(*args)

    monkeypatch.setattr(scpr, "_split", record)
    fit_constrained(d, SCPRConfig(degree=2), cons)
    assert masks == [[[True, True]]]  # premise: within the budget both axes are halved
    masks.clear()
    monkeypatch.setattr(scpr, "MAX_FIT_ROWS", 18)
    model, report = fit_constrained(d, SCPRConfig(degree=2), cons)
    assert masks == [[[True, False]]]
    assert report.rounds == 2
    assert certify(model, cons).all_certified


@pytest.mark.parametrize("index", [0, 19])
def test_fit_keeps_the_monomials_the_rows_identify(index):
    # p and v take 4 levels each, so a power above 3 of either is a
    # combination of lower ones; the first 240 rows hold 2 of the 4 p levels,
    # which caps p at degree 1
    scaled, spec = eq1_dataset(index)
    kept = {}
    for rows in (scaled, scaled.select_rows(np.arange(240))):
        for degree in (3, 4, 5, 6):
            X, y = build_design_matrix(rows, rows.feature_names, rows.target, degree)
            theta = solve_elastic_net(X, y, 1e-6, 0.0).theta
            kept[rows.n_rows, degree] = int(np.count_nonzero(theta))
    assert [kept[480, d] for d in (3, 4, 5, 6)] == [20, 33, 48, 64]
    assert [kept[240, d] for d in (3, 4, 5, 6)] == [16, 24, 32, 40]


def test_box_is_halved_along_the_narrower_axis_its_binding_coefficient_is_interior_on(monkeypatch):
    # t = (y - 1/2)**2 + x/2 on [0, 2] x [0, 1] has one negative Bernstein
    # coefficient, index (0, 1): interior along y only.  Halving x, the
    # wider side, cannot raise it; halving y admits t itself.
    x, y = (grid.ravel() for grid in np.meshgrid(np.linspace(0.0, 2.0, 9), np.linspace(0.0, 1.0, 9)))
    d = Dataset("d", {"x": x, "y": y, "t": (y - 0.5) ** 2 + x / 2.0}, "t")
    cons = [ShapeConstraint({}, Interval(0.0, math.inf), {"x": Interval(0.0, 2.0), "y": Interval(0.0, 1.0)})]
    sides, split = [], scpr._split

    def record(*args):
        out = split(*args)
        sides.append(out[2].tolist())
        return out

    monkeypatch.setattr(scpr, "_split", record)
    model, report = fit_constrained(d, SCPRConfig(degree=2), cons)
    assert sides == [[[2.0, 0.5], [2.0, 0.5]]]
    assert report.rounds == 2 and report.train_rmse <= 1e-12
    assert certify(model, cons).all_certified


def scattered_axes(parts, rows):
    """The boxes x variables masks of _binding_axes, by scattering each
    flagged row's interior flags onto its box through per-row box and
    coefficient numbers, numbered across the partitions."""
    box, coef, first_box, first_coef = [], [], 0, 0
    for part in parts:
        ids = np.repeat(np.arange(first_box, first_box + len(part.side)), len(part.interior))
        coefs = np.tile(np.arange(first_coef, first_coef + len(part.interior)), len(part.side))
        for bound in (part.bound.lo, part.bound.hi):
            if np.isfinite(bound):
                box.append(ids)
                coef.append(coefs)
        first_box += len(part.side)
        first_coef += len(part.interior)
    box, coef = np.concatenate(box), np.concatenate(coef)
    interior = np.concatenate([p.interior for p in parts])
    axes = np.zeros((first_box, interior.shape[1]), dtype=bool)
    np.logical_or.at(axes, box[rows], interior[coef[rows]])
    return np.split(axes, np.cumsum([len(p.side) for p in parts])[:-1])


def test_binding_axes_read_the_row_layout_as_a_scatter_does():
    rng = np.random.default_rng(3)
    variables = ["x0", "x1", "x2"]
    cube = {v: Interval(0.0, 1.0) for v in variables}
    parts = [
        scpr._whole_region(ShapeConstraint({}, Interval(0.0, math.inf), cube), variables, 3),
        scpr._whole_region(ShapeConstraint({"x1": 1}, Interval(-math.inf, 2.0), cube), variables, 2),
        # a two-sided bound on boxes of 8**3 = 512 coefficients, 384 of them
        # interior along each axis
        scpr._whole_region(ShapeConstraint({}, Interval(-1.0, 1.0), cube), variables, 7),
    ]
    assert len(parts[2].interior) == 512 and parts[2].rows_per_box == 2 * 512
    assert scpr._split_boxes(parts, [np.ones((1, 3), dtype=bool)] * 2 + [np.array([[True, False, True]])])
    assert scpr._split_boxes(parts, [rng.random((len(p.side), 3)) < 0.5 for p in parts[:2]] + [np.zeros((4, 3), bool)])
    assert all(len(p.side) > 1 for p in parts)
    # the rows of all partitions, were they of one fit
    n_rows = sum(len(scpr._bernstein_system([p], len(monomial_basis(3, d)))[0]) for p, d in zip(parts, (3, 2, 7)))
    masks = [rng.random(n_rows) < p for p in (0.0, 0.002, 0.05, 0.5, 1.0)]
    # 256 lower-bound rows of the last partition's first box whose
    # coefficients are interior along x1: counted in uint8 they make 0
    start = n_rows - parts[2].rows_per_box * len(parts[2].side)
    masks.append(np.isin(np.arange(n_rows), start + np.flatnonzero(parts[2].interior[:, 1])[:256]))
    for rows in masks:
        got = scpr._binding_axes(parts, rows)
        assert len(got) == len(parts)
        for mask, want in zip(got, scattered_axes(parts, rows)):
            assert mask.dtype == bool
            np.testing.assert_array_equal(mask, want)
    assert scpr._binding_axes(parts, masks[-1])[2][0, 1]


def test_fit_with_reuse_equals_fit_with_cold_solves(monkeypatch):
    scaled, spec = eq1_dataset(19)  # stuck: 6 rounds of refinement
    problems = [(scaled, spec.constraints, 3)]
    problems += [(d, cons, degree) for _, d, cons, degree in random_fit_problems()]
    fits = []
    for data, cons, degree in problems:
        model, report = fit_constrained(data, SCPRConfig(degree=degree, lam=1e-6), cons)
        fits.append((model.coefficient_vector(), report.optimality_gap, certify(model, cons)))
    cold_start_solves(monkeypatch)
    for (theta, gap, cert), (data, cons, degree) in zip(fits, problems):
        model, report = fit_constrained(data, SCPRConfig(degree=degree, lam=1e-6), cons)
        np.testing.assert_allclose(theta, model.coefficient_vector(), rtol=1e-9, atol=1e-9 * np.abs(theta).max())
        assert report.optimality_gap == pytest.approx(gap, rel=1e-6, abs=1e-12)
        assert [e.verdict for e in certify(model, cons).entries] == [e.verdict for e in cert.entries]


def test_probes_of_solve_elastic_net_see_every_solve(monkeypatch):
    # perfbench replaces scpr.solve_elastic_net with a wrapper and reads A as
    # the fifth positional argument; a fit that bypassed the module attribute
    # would leave its solve probes reading zero
    import shapeguard.scpr as scpr

    calls, rounds = [], []
    solve, system = scpr.solve_elastic_net, scpr._bernstein_system

    def probe(*args, **kwargs):
        calls.append(args)
        return solve(*args, **kwargs)

    def count_round(*args):
        rounds.append(args)
        return system(*args)

    monkeypatch.setattr(scpr, "solve_elastic_net", probe)
    monkeypatch.setattr(scpr, "_bernstein_system", count_round)
    scaled, spec = eq1_dataset(19)
    fit_constrained(scaled, SCPRConfig(degree=3, lam=1e-6), spec.constraints)
    assert len(rounds) > 1
    # the inner solve of each round, and the outer solves of rounds 1 and 4
    # (test_round_skips_the_outer_solve_its_bound_settles)
    assert len(calls) == len(rounds) + 2
    assert all(len(args) == 6 and args[4].shape == (len(args[5]), 20) for args in calls)


def test_report_iterations_sum_every_solve_of_the_fit(monkeypatch):
    import shapeguard.scpr as scpr

    results, solve = [], scpr.solve_elastic_net

    def probe(*args, **kwargs):
        results.append(solve(*args, **kwargs))
        return results[-1]

    monkeypatch.setattr(scpr, "solve_elastic_net", probe)
    scaled, spec = eq1_dataset(19)  # stuck: 6 rounds, 6 inner solves and 2 outer ones
    _, report = fit_constrained(scaled, SCPRConfig(degree=3, lam=1e-6), spec.constraints)
    assert len(results) > 2
    assert report.iterations == sum(r.iterations for r in results)


def spy_on_rounds(monkeypatch):
    """Record each round of a fit as (V, b, solves): the node-value rows
    _bernstein_system returned for it, and its solves as (outer?, result),
    where an outer solve's rows are V."""
    rounds = []
    solve, system = scpr.solve_elastic_net, scpr._bernstein_system

    def record_system(*args):
        A, V, b = system(*args)
        rounds.append((V, b, []))
        return A, V, b

    def record_solve(*args, **kwargs):
        result = solve(*args, **kwargs)
        V, _, solves = rounds[-1]
        solves.append((args[4] is V, result))
        return result

    monkeypatch.setattr(scpr, "_bernstein_system", record_system)
    monkeypatch.setattr(scpr, "solve_elastic_net", record_solve)
    return rounds


def fit_problems():
    """Stuck dataset 019 and random_fit_problems, as (data, constraints, config)."""
    scaled, spec = eq1_dataset(19)
    yield scaled, spec.constraints, SCPRConfig(degree=3, lam=1e-6)
    for _, d, cons, degree in random_fit_problems():
        yield d, cons, SCPRConfig(degree=degree, lam=1e-6)


def outer_objective(data, config, V, b) -> float:
    """The optimum of a round's outer relaxation, solved on its own."""
    X, y = build_design_matrix(data, data.feature_names, data.target, config.degree)
    return solve_elastic_net(X, y, config.lam, config.alpha, V, b).objective


def test_outer_objectives_never_fall_as_boxes_are_halved(monkeypatch):
    # every node of a box is a node of one of its halves, so each round's
    # outer relaxation has the rows of the one before: what a fit's skipped
    # outer solves rest on.  The fits split the boxes (GAP_TOL = 0 keeps
    # them refining), and every round's outer relaxation is solved here.
    monkeypatch.setattr(scpr, "GAP_TOL", 0.0)
    monkeypatch.setattr(scpr, "REFINE_ROUNDS", 3)
    rounds = spy_on_rounds(monkeypatch)
    sequences = 0
    for data, cons, config in fit_problems():
        rounds.clear()
        fit_constrained(data, config, cons)
        outer = [outer_objective(data, config, V, b) for V, b, _ in rounds]
        sequences += len(outer) > 1
        for before, after in zip(outer, outer[1:]):
            assert after >= before * (1.0 - 1e-12), (before, after)
    assert sequences >= 10  # premise: many fits refine through more than one round


def test_a_skipped_outer_solve_could_not_have_closed_its_gap(monkeypatch):
    # a round skips its outer solve only when a point its node-value rows
    # admit leaves the gap above GAP_TOL; the skipped solve, run here, must
    # leave it there too, so the fit splits as it would have after solving
    rounds = spy_on_rounds(monkeypatch)
    skipped = 0
    for data, cons, config in fit_problems():
        rounds.clear()
        _, report = fit_constrained(data, config, cons)
        for i, (V, b, solves) in enumerate(rounds):
            if not solves or any(is_outer for is_outer, _ in solves):
                continue
            inner = solves[0][1]
            # the last round skipped its outer solve only if the fit kept its
            # inner one with the gap open; otherwise its bound closed the gap
            if i == len(rounds) - 1 and not (
                report.objective_value == inner.objective and report.optimality_gap > scpr.GAP_TOL
            ):
                continue
            skipped += 1
            outer = outer_objective(data, config, V, b)
            assert inner.objective - outer > scpr.GAP_TOL * inner.objective, (i, inner.objective, outer)
    assert skipped >= 30  # premise: the fits skip outer solves


def test_round_skips_the_outer_solve_its_bound_settles(monkeypatch):
    rounds = spy_on_rounds(monkeypatch)
    # stuck dataset 019: rounds 2, 3, 5 and 6 skip their outer solves.  In
    # rounds 2, 3 and 5 a point the node values admit shows that the outer
    # optimum leaves the gap open; in round 6 round 4's outer objective
    # already closes it
    scaled, spec = eq1_dataset(19)
    _, report = fit_constrained(scaled, SCPRConfig(degree=3, lam=1e-6), spec.constraints)
    assert report.rounds == 6
    solves = [solve for _, _, round_solves in rounds for solve in round_solves]
    assert [is_outer for is_outer, _ in solves] == [False, True, False, False, False, True, False, False]
    objective, bound = solves[-1][1].objective, solves[5][1].objective
    assert report.objective_value == objective
    assert report.optimality_gap == pytest.approx((objective - bound) / objective, rel=1e-12)
    assert report.optimality_gap <= scpr.GAP_TOL
    # dataset 018: the unconstrained ridge optimum closes the first round's gap
    rounds.clear()
    scaled, spec = eq1_dataset(18)
    config = SCPRConfig(degree=3, lam=1e-6)
    _, report = fit_constrained(scaled, config, spec.constraints)
    assert [is_outer for _, _, round_solves in rounds for is_outer, _ in round_solves] == [False]
    ridge = fit_unconstrained(scaled, config)[1].objective_value
    assert report.optimality_gap == pytest.approx((report.objective_value - ridge) / report.objective_value, rel=1e-9)
    assert 0.0 < report.optimality_gap <= scpr.GAP_TOL


@pytest.mark.parametrize("case", ["alpha=0", "alpha=0.5", "wide"])
def test_fit_unconstrained_is_fit_constrained_without_constraints(case):
    from dataclasses import replace

    if case == "wide":  # the design of test_constrained_fit_of_a_wide_design, 2 columns fixed at 0
        x = np.array([0.1, 0.5, 0.9])
        d, config = Dataset("d", {"x": x, "y": -x}, "y"), SCPRConfig(degree=4, lam=0.0)
    else:
        rng = np.random.default_rng(5)
        d = dataset_1d(rng, n=60, f=lambda x: 0.5 * x**3 + 0.1 * x, noise=0.3, lo=-2, hi=2)
        config = SCPRConfig(degree=3, lam=0.1, alpha=float(case.split("=")[1]))
    model_u, report_u = fit_unconstrained(d, config)
    model_c, report_c = fit_constrained(d, config, [])
    np.testing.assert_array_equal(model_u.coefficient_vector(), model_c.coefficient_vector())
    assert report_u == report_c
