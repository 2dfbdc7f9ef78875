"""Constrained polynomial least squares: solver oracles and compilation."""

import math

import numpy as np
import pytest

from shapeguard import (
    Dataset,
    InfeasibleError,
    Interval,
    SCPRConfig,
    ShapeConstraint,
    SolverError,
    build_design_matrix,
    compile_constraints,
    fit_constrained,
    fit_unconstrained,
    monomial_basis,
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


def test_elastic_net_matches_cvxpy():
    cvxpy = pytest.importorskip("cvxpy")
    rng = np.random.default_rng(2)
    for alpha in (1.0, 0.5):
        X = np.column_stack([np.ones(30), rng.normal(size=(30, 3))])
        y = rng.normal(size=30)
        lam = 0.1
        n = 30
        t = cvxpy.Variable(4)
        obj = (1.0 / n) * cvxpy.sum_squares(X @ t - y) + lam * (
            alpha * cvxpy.norm1(t[1:]) + 0.5 * (1 - alpha) * cvxpy.sum_squares(t[1:])
        )
        cvxpy.Problem(cvxpy.Minimize(obj)).solve()
        res = solve_elastic_net(X, y, lam, alpha)
        np.testing.assert_allclose(res.theta, t.value, rtol=1e-4, atol=1e-6)


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


@pytest.mark.parametrize("lam, alpha", [(0.0, 0.0), (0.1, 0.5)])
def test_infeasible_constraints_raise(lam, alpha):
    # alpha > 0 adds a 1-norm term, so the iterative solver runs.  The gap
    # between the bounds is too small for its stalled-penalty exit to call
    # the system infeasible, so only the exact consistency test catches it.
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


def test_fit_raises_when_violation_stays_above_tolerance():
    # a 3-node grid leaves the degree-5 fit of a non-monotone target free to
    # dip between the nodes; without refinement rounds the dip must raise
    x = np.linspace(-1.0, 1.0, 41)
    d = Dataset("d", {"x": x, "y": np.sin(3.0 * x)}, "y")
    cons = [ShapeConstraint({"x": 1}, Interval(0.0, math.inf), {"x": Interval(-1.0, 1.0)})]
    cfg = SCPRConfig(degree=5, lam=0.0, grid_points_per_dim=3, refine_rounds=0)
    with pytest.raises(SolverError):
        fit_constrained(d, cfg, cons)
    cfg.refine_rounds = 20
    _, report = fit_constrained(d, cfg, cons)
    assert report.max_sampled_violation <= cfg.solver_tol


def test_constrained_fit_of_a_wide_design():
    # 3 rows for 5 coefficients and lam = 0: the minimizer is not unique, so
    # the iterative solver runs.  Under d/dx >= 0 the best fit of y = -x is
    # the constant mean, whose RMSE is the standard deviation of x.
    x = np.array([0.1, 0.5, 0.9])
    d = Dataset("d", {"x": x, "y": -x}, "y")
    cons = [ShapeConstraint({"x": 1}, Interval(0.0, math.inf), {"x": Interval(0.0, 1.0)})]
    _, report = fit_constrained(d, SCPRConfig(degree=4, lam=0.0), cons)
    assert report.max_sampled_violation <= 1e-8
    assert report.train_rmse == pytest.approx(float(np.std(x)), rel=1e-6)


def test_config_validation():
    from shapeguard import SchemaError

    with pytest.raises(SchemaError):
        SCPRConfig(degree=0)
    with pytest.raises(SchemaError):
        SCPRConfig(alpha=1.5)
