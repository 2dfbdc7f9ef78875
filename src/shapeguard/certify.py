"""Sound post-fit certification of shape constraints on polynomial models.

Each constraint bounds a derivative polynomial of the model over a box.  The
polynomial's tensor Bernstein coefficients on the box (the Bernstein form of
``poly``) enclose its range there, and its vertex coefficients are its values
at the box's corners.  Certification is a branch and bound on these
coefficients, run level by level over one array of equal-shaped boxes:

* a box whose coefficients, widened by their rounding-error bound, lie inside
  the bound widened by ``tol`` is closed;
* a vertex coefficient that breaches the bound by more than ``tol`` names a
  corner; if the polynomial re-evaluated there breaches by more than ``tol``
  too, the constraint is VIOLATED with that corner as the witness;
* every other box is halved along its widest axis of nonzero degree by de
  Casteljau's algorithm.  The enclosures converge quadratically in the box
  width.

When every box closes the constraint is CERTIFIED.  Each box carries a
rigorous bound on the floating-point error of its coefficients, so the
guarantee holds under rounding and does not rest on ``tol``.  When the next
level would take the number of boxes past ``max_boxes``, or no open box has
an axis left to split, the verdict is UNDECIDED.

The coefficient array of a box has ``prod(d_i + 1)`` entries, where ``d_i``
is the derivative's highest exponent of variable ``i``.  The first box's are
the model's nonzero coefficients times ``poly._bernstein_map`` (which derives
the rounding count), cached for a full basis and shared with the SCPR fit.
When they or their bound overflow the verdict is UNDECIDED with enclosure
(-inf, inf).  The derivative is built as a polynomial only to re-evaluate it
at a breaching corner.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .constraints import ShapeConstraint
from .errors import ArityError, ConfigError
from .intervals import Interval
from .poly import PolyModel, _first_box, _gamma, _halve, _terms

__all__ = ["ConstraintCertificate", "CertificationReport", "certify"]


@dataclass
class ConstraintCertificate:
    """Verdict on one constraint.

    ``enclosure`` contains the derivative's range over the region for every
    verdict: it is the hull of the closed and the still-open boxes, widened by
    their rounding-error bounds.  For VIOLATED, ``worst_violation`` is the
    breach of the polynomial re-evaluated at ``worst_point``, a box corner.
    The true worst breach then lies between ``worst_violation`` and the
    breach of the enclosure (``bound.lo - enclosure.lo`` or
    ``enclosure.hi - bound.hi``).  Otherwise ``worst_violation`` is 0.0 and
    ``worst_point`` is None.
    """

    constraint: ShapeConstraint
    verdict: str  # "CERTIFIED" | "VIOLATED" | "UNDECIDED"
    enclosure: Interval
    worst_violation: float
    worst_point: dict | None
    boxes_examined: int

    def to_dict(self) -> dict:
        return {
            "constraint": self.constraint.describe(),
            "verdict": self.verdict,
            "enclosure": [self.enclosure.lo, self.enclosure.hi],
            "worst_violation": self.worst_violation,
            "worst_point": self.worst_point,
            "boxes_examined": self.boxes_examined,
        }


@dataclass
class CertificationReport:
    entries: list = field(default_factory=list)

    @property
    def all_certified(self) -> bool:
        return all(e.verdict == "CERTIFIED" for e in self.entries)

    @property
    def any_violated(self) -> bool:
        return any(e.verdict == "VIOLATED" for e in self.entries)

    def to_dict(self) -> dict:
        return {
            "all_certified": self.all_certified,
            "any_violated": self.any_violated,
            "constraints": [e.to_dict() for e in self.entries],
        }


def _certify_one(model: PolyModel, c: ShapeConstraint, terms: tuple, tol: float, max_boxes: int):
    wrt = c.derivative_tuple(model.variables)
    lo = tuple(c.region[v].lo for v in model.variables)
    hi = tuple(c.region[v].hi for v in model.variables)
    coeffs, err, degrees = _first_box(*terms, wrt, lo, hi)
    if not (np.isfinite(err[0]) and np.isfinite(coeffs).all()):
        return ConstraintCertificate(c, "UNDECIDED", Interval.whole(), 0.0, None, 1)
    lo, hi = np.array(lo), np.array(hi)
    vertices = [[0, d] if d else [0] for d in degrees]
    corner = lo[None]  # lower corner of each box
    side = np.where(np.array(degrees) > 0, hi - lo, 0.0)  # splittable side lengths
    accept_lo, accept_hi = c.bound.lo - tol, c.bound.hi + tol
    hull_lo, hull_hi = math.inf, -math.inf
    boxes = 1
    worst, worst_point = 0.0, None
    while True:
        flat = coeffs.reshape(len(coeffs), -1)
        low = flat.min(axis=1) - err
        high = flat.max(axis=1) + err
        closed = (low >= accept_lo) & (high <= accept_hi)
        if closed.all():
            verdict = "CERTIFIED"
            break
        hull_lo = float(np.min(low[closed], initial=hull_lo))
        hull_hi = float(np.max(high[closed], initial=hull_hi))
        coeffs, flat, err, corner = coeffs[~closed], flat[~closed], err[~closed], corner[~closed]
        low, high = low[~closed], high[~closed]
        vertex = coeffs[np.ix_(range(len(coeffs)), *vertices)]
        breach = np.maximum(c.bound.lo - vertex, vertex - c.bound.hi)
        best = np.unravel_index(int(np.argmax(breach)), breach.shape)
        if breach[best] > tol:
            ends = np.array([v[i] > 0 for v, i in zip(vertices, best[1:])])
            point = np.clip(corner[best[0]] + side * ends, lo, hi)
            point = {v: float(x) for v, x in zip(model.variables, point)}
            value = model.derivative(wrt).evaluate(point)
            exceed = max(c.bound.lo - value, value - c.bound.hi)
            if exceed > tol:
                verdict, worst, worst_point = "VIOLATED", exceed, point
                break
        axis = int(np.argmax(side))
        if side[axis] == 0.0 or boxes + 2 * len(coeffs) > max_boxes:
            verdict = "UNDECIDED"
            break
        # split rows are exact and stochastic, so the error grows by gamma_{d+1}
        # max|B|; gamma_{d+2} also covers rounding the bound itself
        err = np.tile(err + _gamma(degrees[axis] + 2) * np.abs(flat).max(axis=1), 2)
        coeffs = _halve(coeffs, axis)
        side[axis] /= 2
        right = corner.copy()
        right[:, axis] += side[axis]
        corner = np.concatenate([corner, right])
        boxes += len(coeffs)
    enclosure = Interval(float(np.min(low, initial=hull_lo)), float(np.max(high, initial=hull_hi)))
    return ConstraintCertificate(c, verdict, enclosure, worst, worst_point, boxes)


def certify(
    model: PolyModel,
    constraints,
    *,
    tol: float = 1e-9,
    max_boxes: int = 4000,
) -> CertificationReport:
    """Certify each constraint on the model; see module docstring for verdicts.

    Raises ConfigError unless ``tol`` is finite and >= 0 and ``max_boxes`` >= 1.
    """
    if not 0.0 <= tol < math.inf:
        raise ConfigError(f"certify tol must be finite and >= 0, got {tol}")
    if max_boxes < 1:
        raise ConfigError(f"certify max_boxes must be >= 1, got {max_boxes}")
    report, terms = CertificationReport(), _terms(model)
    for c in constraints:
        missing = [v for v in model.variables if v not in c.region]
        if missing:
            raise ArityError(f"constraint region missing model variables {missing}")
        report.entries.append(_certify_one(model, c, terms, tol, max_boxes))
    return report
