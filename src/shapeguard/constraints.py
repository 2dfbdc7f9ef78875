"""Shape constraints and their line-oriented specification language.

A constraint bounds a partial derivative (order 0, 1 or 2) of the model over
a box.  Spec files declare a target, per-variable boxes, and one constraint
per line::

    target mu_dyn
    box p in [0, 1]
    box v in [0, 1]
    value >= 0
    d1 v in [-0.01, 0.01]
    d2 p >= 0
    d1 p <= 0 on p in [0.2, 0.8]

An ``on`` suffix overrides the region of that line for one variable; it may
repeat.  Unmentioned bound sides are infinite.  ``#`` starts a comment.
"""

from __future__ import annotations

import math
import re
from dataclasses import dataclass, field

from .errors import ArityError, DomainError, ParseError
from .intervals import INF, Interval

__all__ = ["ShapeConstraint", "ConstraintSpec", "parse_constraints"]


@dataclass(frozen=True)
class ShapeConstraint:
    """Bound on a partial derivative of the model over a finite box.

    ``derivative`` maps variable name to differentiation order; an empty map
    constrains the model value itself.
    """

    derivative: dict
    bound: Interval
    region: dict
    label: str = field(default="", compare=False)

    def __post_init__(self):
        order = sum(self.derivative.values())
        if order not in (0, 1, 2):
            raise DomainError(f"derivative order must be 0, 1 or 2, got {order}")
        if any(k <= 0 for k in self.derivative.values()):
            raise DomainError("derivative orders must be positive")
        if math.isinf(self.bound.lo) and math.isinf(self.bound.hi):
            raise DomainError("constraint bound needs at least one finite endpoint")
        for v, iv in self.region.items():
            if not iv.is_finite():
                raise DomainError(f"constraint region for {v!r} must be finite")

    @property
    def order(self) -> int:
        return sum(self.derivative.values())

    def derivative_tuple(self, variables) -> tuple:
        """Align the derivative map with an ordered variable list."""
        unknown = set(self.derivative) - set(variables)
        if unknown:
            raise DomainError(f"constraint differentiates unknown variables {sorted(unknown)}")
        return tuple(self.derivative.get(v, 0) for v in variables)

    def aligned(self, variables) -> tuple:
        """``(derivative_tuple, lower corner, upper corner)`` of the region, in variable order.

        ArityError names the variables the region lacks; DomainError (from
        ``derivative_tuple``) follows for a derivative on a non-variable.
        """
        missing = [v for v in variables if v not in self.region]
        if missing:
            raise ArityError(f"constraint region missing model variables {missing}")
        box = [self.region[v] for v in variables]
        return self.derivative_tuple(variables), tuple(iv.lo for iv in box), tuple(iv.hi for iv in box)

    def describe(self) -> str:
        if self.label:
            return self.label
        if not self.derivative:
            head = "value"
        else:
            head = " ".join(f"d{k} {v}" for v, k in sorted(self.derivative.items()))
        return f"{head} in [{self.bound.lo}, {self.bound.hi}]"


@dataclass
class ConstraintSpec:
    """Parsed constraint file: target, default box, constraint list."""

    target: str
    box: dict
    constraints: list = field(default_factory=list)


_NUM = r"[-+]?(?:\d+\.?\d*|\.\d+)(?:[eE][-+]?\d+)?|[-+]?inf"
_INTERVAL_RE = re.compile(rf"^\[\s*({_NUM})\s*,\s*({_NUM})\s*\]$")


def _parse_number(tok: str, lineno: int) -> float:
    try:
        return float(tok)
    except ValueError:
        raise ParseError(f"malformed number {tok!r}", line=lineno) from None


def _parse_interval(text: str, lineno: int) -> Interval:
    m = _INTERVAL_RE.match(text.strip())
    if not m:
        raise ParseError(f"malformed interval {text.strip()!r}", line=lineno)
    lo = _parse_number(m.group(1), lineno)
    hi = _parse_number(m.group(2), lineno)
    if lo > hi:
        raise ParseError(f"empty interval [{lo}, {hi}]", line=lineno)
    return Interval(lo, hi)


def _split_on_clauses(line: str, lineno: int):
    """Separate a constraint statement from trailing `on VAR in [..]` clauses."""
    overrides = {}
    pattern = re.compile(r"\bon\s+(\w+)\s+in\s+(\[[^\]]*\])\s*$")
    while True:
        m = pattern.search(line)
        if not m:
            break
        overrides[m.group(1)] = _parse_interval(m.group(2), lineno)
        line = line[: m.start()].rstrip()
    return line, overrides


def parse_constraints(text: str) -> ConstraintSpec:
    """Parse constraint-spec text; raises ParseError with the line number."""
    target = None
    box = {}
    constraints = []
    pending = []  # constraint lines, resolved after the box is complete

    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        tokens = line.split()
        head = tokens[0]
        if head == "target":
            if len(tokens) != 2:
                raise ParseError("expected: target <name>", line=lineno)
            target = tokens[1]
        elif head == "box":
            m = re.match(rf"^box\s+(\w+)\s+in\s+(\[.*\])$", line)
            if not m:
                raise ParseError("expected: box <var> in [<lo>, <hi>]", line=lineno)
            iv = _parse_interval(m.group(2), lineno)
            if not iv.is_finite():
                raise ParseError("box intervals must be finite", line=lineno)
            box[m.group(1)] = iv
        elif head in ("value", "d1", "d2"):
            pending.append((lineno, line))
        else:
            raise ParseError(f"unknown statement {head!r}", line=lineno)

    if target is None:
        raise ParseError("missing target declaration")

    for lineno, line in pending:
        stmt, overrides = _split_on_clauses(line, lineno)
        for var in overrides:
            if var not in box:
                raise ParseError(f"undeclared variable {var!r} in on-clause", line=lineno)
        derivative, rest = _parse_head(stmt, box, lineno)
        bound = _parse_bound(rest, lineno, allow_interval=(sum(derivative.values()) < 2))
        region = dict(box)
        region.update(overrides)
        constraints.append(
            ShapeConstraint(derivative=derivative, bound=bound, region=region, label=line)
        )

    return ConstraintSpec(target=target, box=box, constraints=constraints)


def _parse_head(stmt: str, box: dict, lineno: int):
    tokens = stmt.split(None, 2)
    if tokens[0] == "value":
        if len(tokens) < 2:
            raise ParseError("incomplete value constraint", line=lineno)
        return {}, stmt[len("value") :].strip()
    order = int(tokens[0][1])
    if len(tokens) < 3:
        raise ParseError(f"expected: {tokens[0]} <var> <bound>", line=lineno)
    var = tokens[1]
    if var not in box:
        raise ParseError(f"undeclared variable {var!r}", line=lineno)
    return {var: order}, tokens[2].strip()


def _parse_bound(rest: str, lineno: int, allow_interval: bool) -> Interval:
    if rest.startswith("in"):
        if not allow_interval:
            raise ParseError("two-sided bounds are not supported for d2 lines", line=lineno)
        return _parse_interval(rest[2:], lineno)
    if rest.startswith(">="):
        return Interval(_parse_number(rest[2:].strip(), lineno), INF)
    if rest.startswith("<="):
        return Interval(-INF, _parse_number(rest[2:].strip(), lineno))
    raise ParseError(f"malformed bound {rest!r}", line=lineno)

