"""The interval record, and scsr's interval arithmetic on (lo, hi) pairs:
enclosure soundness against dense sampling."""

import math

import numpy as np
import pytest
from hypothesis import example, given, strategies as st

from shapeguard import DomainError, Interval
from shapeguard.scsr import _UnboundedDerivative, _add, _div, _mul, _mul_ep, _sub

finite = st.floats(
    min_value=-1e6, max_value=1e6, allow_nan=False, allow_infinity=False
)

pair_st = st.tuples(finite, finite).map(lambda lo_hi: tuple(sorted(lo_hi)))


def sample(iv, n: int = 7) -> np.ndarray:
    return np.linspace(iv[0], iv[1], n)


def test_construction_rejects_nan_and_inversion():
    with pytest.raises(DomainError):
        Interval(math.nan, 0.0)
    with pytest.raises(DomainError):
        Interval(1.0, 0.0)


def test_point_and_whole():
    point = Interval(3.0, 3.0)
    assert point.lo == point.hi == 3.0
    assert Interval.whole().lo <= 1e300 <= Interval.whole().hi
    assert not Interval.whole().is_finite()


def test_encloses():
    a = Interval(0.0, 2.0)
    assert a.encloses(Interval(0.5, 1.5))
    assert a.encloses(a)
    assert not a.encloses(Interval(1.0, 3.0))


def test_exact_arithmetic_cases():
    a = (-1.0, 2.0)
    b = (3.0, 5.0)
    assert _add(a, b) == (2.0, 7.0)
    assert _sub(a, b) == (-6.0, -1.0)
    assert _mul(a, b) == (-5.0, 10.0)
    assert _div(b, (2.0, 4.0)) == (0.75, 2.5)


def test_zero_times_infinite_endpoint_is_zero():
    assert _mul((0.0, 0.0), (0.0, math.inf)) == (0.0, 0.0)
    assert _mul((0.0, 1.0), (-math.inf, 0.0)) == (-math.inf, 0.0)


def test_division_by_zero_straddling_interval_raises():
    with pytest.raises(_UnboundedDerivative):
        _div((1.0, 2.0), (-1.0, 1.0))
    with pytest.raises(_UnboundedDerivative):
        _div((1.0, 2.0), (0.0, 0.0))


@given(pair_st, pair_st)
def test_add_sub_mul_enclose_samples(a, b):
    xs, ys = sample(a), sample(b)
    grid_x, grid_y = np.meshgrid(xs, ys)
    tol = 1e-6 * max(1.0, abs(a[0]), abs(a[1]), abs(b[0]), abs(b[1])) ** 2
    for op, res in (
        (grid_x + grid_y, _add(a, b)),
        (grid_x - grid_y, _sub(a, b)),
        (grid_x * grid_y, _mul(a, b)),
    ):
        assert res[0] - tol <= op.min() and op.max() <= res[1] + tol


@given(pair_st, pair_st)
# subnormal divisors: the quotient overflows to [inf, inf] ...
@example((1.0, 1.0), (2.2e-313, 2.2e-313))
# ... or stays finite (5e-324 / 5e-324 == 1) where the reciprocal overflows
@example((5e-324, 1.0), (5e-324, 5e-324))
def test_div_encloses_samples(a, b):
    if b[0] <= 0.0 <= b[1]:
        return
    res = _div(a, b)
    with np.errstate(over="ignore"):
        vals = np.array([x / y for x in sample(a) for y in sample(b)])
    # slack from the finite endpoints only: an infinite endpoint is compared
    # directly, since inf - inf would be NaN
    tol = 1e-6 * max([1.0] + [abs(e) for e in res if math.isfinite(e)])
    assert res[0] - tol <= vals.min() and vals.max() <= res[1] + tol


def mul_reference(x, y):
    """_mul as four endpoint products through _mul_ep, with no shortcut."""
    (a, b), (c, d) = x, y
    p = (_mul_ep(a, c), _mul_ep(a, d), _mul_ep(b, c), _mul_ep(b, d))
    return min(p), max(p)


endpoint_st = st.one_of(
    st.sampled_from([0.0, -0.0, math.inf, -math.inf, 5e-324, -5e-324, 2.2e-308, 1e308, -1e308]),
    st.floats(min_value=-1e-300, max_value=1e-300),  # subnormal and tiny: products underflow
    st.floats(allow_nan=False),
)
interval_st = st.tuples(endpoint_st, endpoint_st).map(lambda lo_hi: tuple(sorted(lo_hi)))


@given(interval_st, interval_st)
@example((0.0, 0.0), (-math.inf, math.inf))  # a zero interval times the whole line
@example((-0.0, -0.0), (-2.0, 3.0))
@example((-0.0, 0.0), (-math.inf, -5e-324))
@example((1.0, 2.0), (0.0, -0.0))
@example((-5e-324, 5e-324), (-5e-324, 5e-324))  # every product underflows to a signed zero
@example((0.0, math.inf), (-math.inf, -0.0))  # zero endpoints, not zero intervals
def test_mul_matches_four_endpoint_products(x, y):
    got, want = _mul(x, y), mul_reference(x, y)
    assert tuple(map(float.hex, got)) == tuple(map(float.hex, want))
