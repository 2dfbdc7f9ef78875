"""Closed intervals over the extended reals, as bounds and regions.

Endpoints may be ``±inf`` (one-sided bounds are intervals with an infinite
endpoint); NaN endpoints are rejected at construction.  Enclosures are
computed where a model family is: ``poly`` for polynomials, ``scsr`` for
expression trees.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .errors import DomainError

__all__ = ["Interval"]

INF = math.inf


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
    def whole(cls) -> "Interval":
        return cls(-INF, INF)

    def is_finite(self) -> bool:
        return math.isfinite(self.lo) and math.isfinite(self.hi)

    def encloses(self, other: "Interval") -> bool:
        return self.lo <= other.lo and other.hi <= self.hi

    def __repr__(self):
        return f"[{self.lo}, {self.hi}]"

