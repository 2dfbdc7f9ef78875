"""Interval arithmetic: enclosure soundness against dense sampling."""

import math

import numpy as np
import pytest
from hypothesis import example, given, strategies as st

from shapeguard import DomainError, Interval

finite = st.floats(
    min_value=-1e6, max_value=1e6, allow_nan=False, allow_infinity=False
)


def ivs(lo_hi):
    lo, hi = sorted(lo_hi)
    return Interval(lo, hi)


interval_st = st.tuples(finite, finite).map(ivs)


def sample(iv: Interval, n: int = 7) -> np.ndarray:
    return np.linspace(iv.lo, iv.hi, n)


def test_construction_rejects_nan_and_inversion():
    with pytest.raises(DomainError):
        Interval(math.nan, 0.0)
    with pytest.raises(DomainError):
        Interval(1.0, 0.0)


def test_point_and_whole():
    assert Interval.point(3.0) == Interval(3.0, 3.0)
    assert Interval.whole().contains(1e300)
    assert not Interval.whole().is_finite()


def test_exact_arithmetic_cases():
    a = Interval(-1.0, 2.0)
    b = Interval(3.0, 5.0)
    assert a + b == Interval(2.0, 7.0)
    assert a - b == Interval(-6.0, -1.0)
    assert a * b == Interval(-5.0, 10.0)
    assert b / Interval(2.0, 4.0) == Interval(0.75, 2.5)
    assert -a == Interval(-2.0, 1.0)


def test_zero_times_infinite_endpoint_is_zero():
    assert Interval.point(0.0) * Interval(0.0, math.inf) == Interval.point(0.0)
    assert Interval(0.0, 1.0) * Interval(-math.inf, 0.0) == Interval(-math.inf, 0.0)


def test_division_by_zero_straddling_interval_raises():
    with pytest.raises(DomainError):
        Interval(1.0, 2.0) / Interval(-1.0, 1.0)
    with pytest.raises(DomainError):
        Interval(1.0, 2.0) / 0.0


def test_pow_even_is_tight_around_zero():
    assert Interval(-2.0, 3.0).pow_int(2) == Interval(0.0, 9.0)
    assert Interval(-3.0, -1.0).pow_int(2) == Interval(1.0, 9.0)
    assert Interval(-2.0, 1.0).pow_int(3) == Interval(-8.0, 1.0)
    assert Interval(-5.0, 5.0).pow_int(0) == Interval(1.0, 1.0)


def test_pow_rejects_bad_exponent():
    with pytest.raises(DomainError):
        Interval(0.0, 1.0).pow_int(-1)


def test_set_operations():
    a = Interval(0.0, 2.0)
    b = Interval(1.0, 3.0)
    assert a.hull(b) == Interval(0.0, 3.0)
    assert a.intersect(b) == Interval(1.0, 2.0)
    assert a.intersects(b)
    assert not a.intersects(Interval(2.5, 3.0))
    with pytest.raises(DomainError):
        a.intersect(Interval(5.0, 6.0))
    assert a.encloses(Interval(0.5, 1.5))
    assert not a.encloses(b)


@given(interval_st, interval_st)
def test_add_sub_mul_enclose_samples(a, b):
    xs, ys = sample(a), sample(b)
    grid_x, grid_y = np.meshgrid(xs, ys)
    tol = 1e-6 * max(1.0, abs(a.lo), abs(a.hi), abs(b.lo), abs(b.hi)) ** 2
    for op, res in (
        (grid_x + grid_y, a + b),
        (grid_x - grid_y, a - b),
        (grid_x * grid_y, a * b),
    ):
        assert res.lo - tol <= op.min() and op.max() <= res.hi + tol


@given(interval_st, st.integers(min_value=0, max_value=6))
def test_pow_encloses_samples(a, n):
    xs = sample(a)
    vals = xs**n
    res = a.pow_int(n)
    tol = 1e-6 * max(1.0, abs(res.lo), abs(res.hi))
    assert res.lo - tol <= vals.min() and vals.max() <= res.hi + tol


@given(interval_st, interval_st)
# subnormal divisors: the quotient overflows to [inf, inf] ...
@example(Interval(1.0, 1.0), Interval(2.2e-313, 2.2e-313))
# ... or stays finite (5e-324 / 5e-324 == 1) where the reciprocal overflows
@example(Interval(5e-324, 1.0), Interval(5e-324, 5e-324))
def test_div_encloses_samples(a, b):
    if b.contains(0.0):
        return
    res = a / b
    with np.errstate(over="ignore"):
        vals = np.array([x / y for x in sample(a) for y in sample(b)])
    # slack from the finite endpoints only: an infinite endpoint is compared
    # directly, since inf - inf would be NaN
    tol = 1e-6 * max([1.0] + [abs(e) for e in (res.lo, res.hi) if math.isfinite(e)])
    assert res.lo - tol <= vals.min() and vals.max() <= res.hi + tol
