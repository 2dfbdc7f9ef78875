"""Polynomial model: evaluation, derivatives, bounds, serialization."""

import itertools
import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from shapeguard import ArityError, DomainError, Interval, PolyModel, monomial_basis


def random_model(rng, n_vars=2, degree=3):
    names = tuple(f"x{i}" for i in range(n_vars))
    basis = monomial_basis(n_vars, degree)
    coeffs = {a: float(c) for a, c in zip(basis, rng.normal(size=len(basis)))}
    return PolyModel(names, degree, coeffs)


def test_monomial_basis_count_and_order():
    basis = monomial_basis(2, 2)
    # graded-lex: 1, x, y, x^2, xy, y^2
    assert basis == [(0, 0), (1, 0), (0, 1), (2, 0), (1, 1), (0, 2)]
    for n, d in [(1, 5), (3, 4), (4, 2)]:
        assert len(monomial_basis(n, d)) == math.comb(n + d, d)


def test_monomial_basis_rejects_bad_args():
    with pytest.raises(DomainError):
        monomial_basis(0, 2)
    with pytest.raises(DomainError):
        monomial_basis(2, -1)


def test_evaluate_matches_horner_oracle():
    # univariate: compare against numpy polyval
    rng = np.random.default_rng(0)
    coef = rng.normal(size=4)  # c0 + c1 x + c2 x^2 + c3 x^3
    model = PolyModel(("x",), 3, {(i,): c for i, c in enumerate(coef)})
    for x in np.linspace(-3, 3, 17):
        expect = np.polyval(coef[::-1], x)
        assert model.evaluate({"x": x}) == pytest.approx(expect, rel=1e-12, abs=1e-12)


def test_evaluate_columns_matches_scalar_map():
    rng = np.random.default_rng(1)
    model = random_model(rng, n_vars=3, degree=4)
    cols = {v: rng.normal(size=50) for v in model.variables}
    vec = model.evaluate_columns(cols)
    scalar = [model.evaluate({v: cols[v][i] for v in model.variables}) for i in range(50)]
    np.testing.assert_allclose(vec, scalar, rtol=1e-12, atol=1e-12)


def test_missing_variable_raises():
    model = PolyModel(("x", "y"), 1, {(1, 0): 1.0})
    with pytest.raises(ArityError):
        model.evaluate({"x": 1.0})
    with pytest.raises(ArityError):
        model.evaluate_columns({"x": np.ones(3)})


def test_coefficient_validation():
    with pytest.raises(DomainError):
        PolyModel(("x",), 1, {(2,): 1.0})  # exceeds degree
    with pytest.raises(DomainError):
        PolyModel(("x",), 1, {(1,): math.inf})
    with pytest.raises(DomainError):
        PolyModel(("x", "x"), 1, {})


def test_a_model_without_variables_is_a_domain_error():
    # certify and interval_bound have no box to work on for such a model
    with pytest.raises(DomainError, match="at least one variable"):
        PolyModel((), 0, {(): -1.0})
    text = '{"variables": [], "degree": 0, "terms": [{"exponents": [], "coeff": -1.0}]}'
    with pytest.raises(DomainError, match="at least one variable"):
        PolyModel.from_json(text)


def test_derivative_matches_finite_differences():
    rng = np.random.default_rng(2)
    model = random_model(rng, n_vars=2, degree=3)
    dx = model.derivative_of_var("x0")
    dyy = model.derivative((0, 2))
    h = 1e-5
    for _ in range(20):
        p = {v: float(rng.uniform(-1, 1)) for v in model.variables}
        up = dict(p, x0=p["x0"] + h)
        dn = dict(p, x0=p["x0"] - h)
        fd = (model.evaluate(up) - model.evaluate(dn)) / (2 * h)
        assert dx.evaluate(p) == pytest.approx(fd, rel=1e-5, abs=1e-5)
        up2 = dict(p, x1=p["x1"] + h)
        dn2 = dict(p, x1=p["x1"] - h)
        fd2 = (model.evaluate(up2) - 2 * model.evaluate(p) + model.evaluate(dn2)) / h**2
        assert dyy.evaluate(p) == pytest.approx(fd2, rel=1e-4, abs=1e-4)


def test_derivative_of_cubic_closed_form():
    # d/dx (x^3 - 2x) = 3x^2 - 2
    model = PolyModel(("x",), 3, {(3,): 1.0, (1,): -2.0})
    d = model.derivative_of_var("x")
    assert d.coeffs == {(2,): 3.0, (0,): -2.0}
    d2 = model.derivative_of_var("x", order=2)
    assert d2.coeffs == {(1,): 6.0}


def test_interval_bound_encloses_dense_sample():
    rng = np.random.default_rng(3)
    for _ in range(30):
        model = random_model(rng, n_vars=2, degree=4)
        region = {}
        for v in model.variables:
            lo, hi = sorted(rng.uniform(-2, 2, size=2))
            region[v] = Interval(lo, hi)
        bound = model.interval_bound(region)
        axes = [np.linspace(region[v].lo, region[v].hi, 40) for v in model.variables]
        gx, gy = np.meshgrid(*axes)
        vals = model.evaluate_columns({"x0": gx.ravel(), "x1": gy.ravel()})
        tol = 1e-9 * max(1.0, abs(bound.lo), abs(bound.hi))
        assert bound.lo - tol <= vals.min()
        assert vals.max() <= bound.hi + tol


def exact_value(model, point):
    """The model's value at a point of floats, in rationals."""
    total = Fraction(0)
    for alpha, c in model.coeffs.items():
        term = Fraction(c)
        for v, e in zip(model.variables, alpha):
            term *= Fraction(point[v]) ** e
        total += term
    return total


def test_interval_bound_encloses_exact_values():
    # the float sum 0.1 + 0.2 rounds up, past the exact value at x = 1
    model = PolyModel(("x",), 1, {(0,): 0.1, (1,): 0.2})
    bound = model.interval_bound({"x": Interval(1.0, 1.0)})
    assert Fraction(bound.lo) <= exact_value(model, {"x": 1.0}) <= Fraction(bound.hi)
    with pytest.raises(DomainError, match="bounded box"):
        model.interval_bound({"x": Interval(0.0, math.inf)})
    rng = np.random.default_rng(6)
    for _ in range(60):
        n_vars, degree = int(rng.integers(1, 4)), int(rng.integers(1, 6))
        model = random_model(rng, n_vars=n_vars, degree=degree)
        region = {v: Interval(*sorted(rng.uniform(-2, 2, size=2))) for v in model.variables}
        bound = model.interval_bound(region)
        corners = itertools.product(*([iv.lo, iv.hi] for iv in region.values()))
        inside = [[rng.uniform(iv.lo, iv.hi) for iv in region.values()] for _ in range(5)]
        for point in [*corners, *inside]:
            value = exact_value(model, dict(zip(model.variables, point)))
            assert Fraction(bound.lo) <= value <= Fraction(bound.hi)


def test_json_round_trip_is_exact():
    rng = np.random.default_rng(4)
    model = random_model(rng, n_vars=3, degree=3)
    back = PolyModel.from_json(model.to_json())
    assert back.variables == model.variables
    assert back.degree == model.degree
    assert back.coeffs == model.coeffs


def test_coefficient_vector_round_trip():
    rng = np.random.default_rng(5)
    theta = rng.normal(size=len(monomial_basis(2, 2)))
    model = PolyModel.from_coefficient_vector(("a", "b"), 2, theta)
    np.testing.assert_array_equal(model.coefficient_vector(), theta)
    with pytest.raises(DomainError):
        PolyModel.from_coefficient_vector(("a", "b"), 2, theta[:-1])


@settings(max_examples=50)
@given(st.lists(st.floats(-10, 10), min_size=4, max_size=4), st.floats(-2, 2))
def test_property_eval_linearity(coefs, x):
    m1 = PolyModel(("x",), 3, {(i,): c for i, c in enumerate(coefs)})
    m2 = PolyModel(("x",), 3, {(i,): 2 * c for i, c in enumerate(coefs)})
    v1 = m1.evaluate({"x": x})
    v2 = m2.evaluate({"x": x})
    assert v2 == pytest.approx(2 * v1, rel=1e-9, abs=1e-9)


def test_monomial_derivative_is_the_power_rule():
    from shapeguard.poly import _monomial_derivative

    for alpha in monomial_basis(3, 4):
        for wrt in monomial_basis(3, 2):  # every order of total at most 2
            got = _monomial_derivative(alpha, wrt)
            if any(e < k for e, k in zip(alpha, wrt)):
                assert got is None, (alpha, wrt)
            else:
                factor = float(math.prod(math.perm(e, k) for e, k in zip(alpha, wrt)))
                assert got == (factor, tuple(e - k for e, k in zip(alpha, wrt))), (alpha, wrt)
