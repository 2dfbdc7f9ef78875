"""Constraint DSL: parsing and validation."""

import math

import pytest

from shapeguard import (
    DomainError,
    Interval,
    ParseError,
    ShapeConstraint,
    parse_constraints,
)

SPEC = """
# expert knowledge for a friction surface
target mu
box p in [0, 1]
box v in [0, 1]
value >= 0
value <= 1
d1 p <= 0
d2 p >= 0
d1 v in [-0.01, 0.01]
d1 p <= 0 on p in [0.2, 0.8]
"""


def test_parse_full_spec():
    spec = parse_constraints(SPEC)
    assert spec.target == "mu"
    assert spec.box == {"p": Interval(0, 1), "v": Interval(0, 1)}
    assert len(spec.constraints) == 6

    value_lo = spec.constraints[0]
    assert value_lo.derivative == {}
    assert value_lo.bound.lo == 0.0 and math.isinf(value_lo.bound.hi)

    d1p = spec.constraints[2]
    assert d1p.derivative == {"p": 1}
    assert d1p.bound.hi == 0.0 and math.isinf(d1p.bound.lo)

    d1v = spec.constraints[4]
    assert d1v.bound == Interval(-0.01, 0.01)

    override = spec.constraints[5]
    assert override.region["p"] == Interval(0.2, 0.8)
    assert override.region["v"] == Interval(0, 1)  # untouched axis keeps the box


def test_parse_errors_carry_line_numbers():
    with pytest.raises(ParseError) as exc:
        parse_constraints("target y\nbox x in [0, 1]\nwibble x >= 0\n")
    assert exc.value.line == 3
    with pytest.raises(ParseError):
        parse_constraints("target y\nbox x in [1, 0]\nvalue >= 0\n")
    with pytest.raises(ParseError):
        parse_constraints("target y\nbox x in [0, 1]\nd1 x in [oops, 1]\n")


def test_constraint_needs_finite_region_and_bound():
    with pytest.raises(DomainError):
        ShapeConstraint({}, Interval(-math.inf, math.inf), {"x": Interval(0, 1)})
    with pytest.raises(DomainError):
        ShapeConstraint({}, Interval(0, 1), {"x": Interval(0, math.inf)})
    with pytest.raises(DomainError):
        ShapeConstraint({"x": 3}, Interval(0, math.inf), {"x": Interval(0, 1)})


def test_derivative_tuple_alignment():
    c = ShapeConstraint({"b": 2}, Interval(0, math.inf), {"a": Interval(0, 1), "b": Interval(0, 1)})
    assert c.derivative_tuple(("a", "b")) == (0, 2)
    assert c.order == 2
    with pytest.raises(DomainError):
        c.derivative_tuple(("a", "c"))


def test_describe_is_stable():
    spec = parse_constraints(SPEC)
    names = [c.describe() for c in spec.constraints]
    assert len(set(names)) == len(names) or names  # human-readable, may repeat
    assert all(isinstance(n, str) and n for n in names)
