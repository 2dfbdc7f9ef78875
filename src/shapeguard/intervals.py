"""Interval arithmetic over the extended reals.

Endpoints may be ``±inf`` (one-sided bounds are intervals with an infinite
endpoint); NaN endpoints are rejected at construction.  All operations return
enclosures: the result interval contains every value obtainable by applying
the scalar operation to points of the operands.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .errors import DomainError

__all__ = ["Interval", "Box", "box_width", "split_box"]

INF = math.inf


def _mul_ep(a: float, b: float) -> float:
    # 0 * inf is 0 here: the scalar product of 0 with any finite value is 0,
    # and an infinite endpoint only widens the interval elsewhere.
    if a == 0.0 or b == 0.0:
        return 0.0
    return a * b


def _div_ep(a: float, b: float) -> float:
    # b is a nonzero endpoint; dividing by an infinite one gives 0, also for
    # an infinite a, as the product a * (1/b) with 0 * inf == 0 does.
    return 0.0 if math.isinf(b) else a / b


@dataclass(frozen=True)
class Interval:
    """Closed interval [lo, hi] with lo <= hi."""

    lo: float
    hi: float

    def __post_init__(self):
        lo = float(self.lo)
        hi = float(self.hi)
        if math.isnan(lo) or math.isnan(hi):
            raise DomainError("NaN interval endpoint")
        if lo > hi:
            raise DomainError(f"empty interval [{lo}, {hi}]")
        object.__setattr__(self, "lo", lo)
        object.__setattr__(self, "hi", hi)

    @classmethod
    def point(cls, v: float) -> "Interval":
        return cls(v, v)

    @classmethod
    def whole(cls) -> "Interval":
        return cls(-INF, INF)

    # -- queries ---------------------------------------------------------

    @property
    def width(self) -> float:
        return self.hi - self.lo

    @property
    def mid(self) -> float:
        if not self.is_finite():
            raise DomainError("midpoint of an unbounded interval")
        return 0.5 * (self.lo + self.hi)

    def is_finite(self) -> bool:
        return math.isfinite(self.lo) and math.isfinite(self.hi)

    def is_point(self) -> bool:
        return self.lo == self.hi

    def contains(self, x: float) -> bool:
        return self.lo <= x <= self.hi

    def encloses(self, other: "Interval") -> bool:
        return self.lo <= other.lo and other.hi <= self.hi

    def intersects(self, other: "Interval") -> bool:
        return self.lo <= other.hi and other.lo <= self.hi

    # -- arithmetic ------------------------------------------------------

    def _coerce(self, other) -> "Interval":
        if isinstance(other, Interval):
            return other
        return Interval.point(float(other))

    def __add__(self, other) -> "Interval":
        o = self._coerce(other)
        return Interval(self.lo + o.lo, self.hi + o.hi)

    __radd__ = __add__

    def __sub__(self, other) -> "Interval":
        o = self._coerce(other)
        return Interval(self.lo - o.hi, self.hi - o.lo)

    def __rsub__(self, other) -> "Interval":
        return self._coerce(other).__sub__(self)

    def __neg__(self) -> "Interval":
        return Interval(-self.hi, -self.lo)

    def __mul__(self, other) -> "Interval":
        o = self._coerce(other)
        products = (
            _mul_ep(self.lo, o.lo),
            _mul_ep(self.lo, o.hi),
            _mul_ep(self.hi, o.lo),
            _mul_ep(self.hi, o.hi),
        )
        return Interval(min(products), max(products))

    __rmul__ = __mul__

    def __truediv__(self, other) -> "Interval":
        o = self._coerce(other)
        if o.contains(0.0):
            raise DomainError(f"division by interval containing zero: [{o.lo}, {o.hi}]")
        # Endpoint quotients rather than self * [1/hi, 1/lo]: the reciprocal
        # of a subnormal divisor overflows although the quotient may not
        # (5e-324 / 5e-324 == 1).  Float division is monotone in each
        # argument, so the extremes lie at the endpoints.
        quotients = [_div_ep(x, y) for x in (self.lo, self.hi) for y in (o.lo, o.hi)]
        return Interval(min(quotients), max(quotients))

    def __rtruediv__(self, other) -> "Interval":
        return self._coerce(other).__truediv__(self)

    def pow_int(self, n: int) -> "Interval":
        """x**n for integer n >= 0, using the exact power rule.

        Even powers are bounded as |x|**n (tighter than repeated
        self-multiplication, which loses the x==x dependency).
        """
        if n < 0 or n != int(n):
            raise DomainError(f"pow_int exponent must be a non-negative integer, got {n}")
        n = int(n)
        if n == 0:
            return Interval(1.0, 1.0)
        if n == 1:
            return self
        if n % 2 == 1:
            return Interval(self.lo**n, self.hi**n)
        a, b = abs(self.lo), abs(self.hi)
        hi = max(a, b) ** n
        lo = 0.0 if self.contains(0.0) else min(a, b) ** n
        return Interval(lo, hi)

    def hull(self, other) -> "Interval":
        o = self._coerce(other)
        return Interval(min(self.lo, o.lo), max(self.hi, o.hi))

    def intersect(self, other) -> "Interval":
        o = self._coerce(other)
        lo = max(self.lo, o.lo)
        hi = min(self.hi, o.hi)
        if lo > hi:
            raise DomainError(f"disjoint intervals [{self.lo}, {self.hi}] and [{o.lo}, {o.hi}]")
        return Interval(lo, hi)

    def __repr__(self):
        return f"[{self.lo}, {self.hi}]"


# A Box is a per-variable interval map; constraint regions must be finite.
Box = dict


def box_width(box: Box) -> float:
    """Largest side length of the box."""
    return max((iv.width for iv in box.values()), default=0.0)


def split_box(box: Box) -> tuple[Box, Box]:
    """Bisect the box along its widest dimension."""
    var = max(box, key=lambda v: box[v].width)
    iv = box[var]
    mid = iv.mid
    left = dict(box)
    right = dict(box)
    left[var] = Interval(iv.lo, mid)
    right[var] = Interval(mid, iv.hi)
    return left, right
