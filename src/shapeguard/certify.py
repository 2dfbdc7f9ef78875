"""Sound post-fit certification of shape constraints on polynomial models.

Each constraint bounds a derivative polynomial of the model over a box.  The
polynomial's tensor Bernstein coefficients on the box (the Bernstein form of
``poly``) enclose its range there, and its vertex coefficients are its values
at the box's corners.  Certification is a branch and bound on these
coefficients, run level by level over one array of equal-shaped boxes:

* a box whose coefficients, widened by their rounding-error bound, lie inside
  the bound widened by ``TOL`` is closed;
* a vertex coefficient that breaches the bound by more than ``TOL`` names a
  corner; if the polynomial re-evaluated there breaches by more than ``TOL``
  plus that value's rounding-error bound, the constraint is VIOLATED with
  that corner as the witness;
* every other box is halved along its widest axis of nonzero degree by
  ``poly._split``, the de Casteljau step the SCPR fit splits with too.  The
  enclosures converge quadratically in the box width.

When every box closes the constraint is CERTIFIED.  Each box carries a
rigorous bound on the floating-point error of its coefficients, so the
guarantee holds under rounding and does not rest on ``TOL``.  When the next
level would take the number of boxes past ``MAX_BOXES``, or no open box has
an axis left to split, the verdict is UNDECIDED.  ``TOL`` and ``MAX_BOXES``
are module constants, read when ``certify`` is called.

The coefficient array of a box has ``prod(d_i + 1)`` entries, where ``d_i``
is the derivative's highest exponent of variable ``i``.  The first box's are
the model's nonzero coefficients times ``poly._bernstein_map`` (which derives
the rounding count), cached for a full basis and shared with the SCPR fit.
When a level's coefficients or their bound overflow the verdict is UNDECIDED
with enclosure (-inf, inf).

A level costs what it decides.  It always takes each box's coefficient
minimum and maximum; when the level's extremes lie inside the bound it is
CERTIFIED, which settles most constraints at the first box.  Otherwise the
boxes are tested one by one, and only a level where some box closed adds
them to the hull and drops them.  The open boxes' corner coefficients are
read through flat indices that ``poly._frame`` caches per (degrees, lo, hi),
with the first box's corner and sides and each corner's end per axis.

A breaching corner is re-evaluated from the model's terms with the float
operations of ``model.derivative(wrt).evaluate``, without building the
derivative as a polynomial.  A term's factor rounds at most ``sum(wrt)``
times, each power at most twice (``pow`` is within an ulp of exact) and its
product once, and the sum once per term: K = sum(wrt) + 3 n + m for n
variables and m model terms.  The value is then within gamma_K times the sum
of the absolute terms of the exact one; the witness bound takes
gamma_{2K+2} of that sum as computed, which covers rounding it too, as
``poly._bernstein_map`` does.  So a VIOLATED witness is a point where the
exact derivative breaches the bound by more than ``TOL``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .constraints import ShapeConstraint
from .errors import ArityError
from .intervals import Interval
from .poly import PolyModel, _derivative_terms, _first_box, _frame, _gamma, _split, _sum_terms, _terms

__all__ = ["ConstraintCertificate", "CertificationReport", "certify"]

# A breach of at most TOL is no violation, and a constraint whose next level
# would take its boxes past MAX_BOXES is UNDECIDED.
TOL = 1e-9
MAX_BOXES = 4000


@dataclass
class ConstraintCertificate:
    """Verdict on one constraint.

    ``enclosure`` contains the derivative's range over the region for every
    verdict: it is the hull of the closed and the still-open boxes, widened by
    their rounding-error bounds.  For VIOLATED, ``worst_violation`` is the
    breach of the polynomial re-evaluated at ``worst_point``, a box corner,
    where the exact breach exceeds ``TOL``.  The true worst breach then lies
    between that exact breach and the breach of the enclosure
    (``bound.lo - enclosure.lo`` or ``enclosure.hi - bound.hi``).
    Otherwise ``worst_violation`` is 0.0 and ``worst_point`` is None.
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
    corner, side, corners, ends = _frame(degrees, lo, hi)
    accept_lo, accept_hi = c.bound.lo - tol, c.bound.hi + tol
    hull_lo, hull_hi = math.inf, -math.inf
    boxes = 1
    worst, worst_point = 0.0, None
    while True:
        flat = coeffs.reshape(len(coeffs), -1)
        low = flat.min(axis=1) - err
        high = flat.max(axis=1) + err
        least, most = low.min(), high.max()
        if not (math.isfinite(least) and math.isfinite(most)):
            # the coefficients or their bound overflowed: they enclose nothing
            return ConstraintCertificate(c, "UNDECIDED", Interval.whole(), 0.0, None, boxes)
        # the closed boxes' hull and this level's boxes, for a loop that ends here
        enclosure = min(hull_lo, least), max(hull_hi, most)
        if least >= accept_lo and most <= accept_hi:
            verdict = "CERTIFIED"
            break
        closed = (low >= accept_lo) & (high <= accept_hi)
        if closed.any():
            hull_lo, hull_hi = min(hull_lo, low[closed].min()), max(hull_hi, high[closed].max())
            coeffs, err, corner, side = (a[~closed] for a in (coeffs, err, corner, side))
            flat = coeffs.reshape(len(coeffs), -1)
        vertex = flat[:, corners]
        breach = np.maximum(c.bound.lo - vertex, vertex - c.bound.hi)
        box, k = divmod(int(breach.argmax()), len(corners))
        if breach[box, k] > tol:
            xs = [float(x) for x in np.clip(corner[box] + side[box] * ends[k], lo, hi)]
            value, magnitude = _sum_terms(_derivative_terms(model.coeffs, wrt), xs)
            exceed = max(c.bound.lo - value, value - c.bound.hi)
            # the forward error bound of value (module docstring); it is not
            # finite when value overflowed, so such a value shows no breach
            error = _gamma(2 * (sum(wrt) + 3 * len(xs) + len(model.coeffs)) + 2) * magnitude
            if exceed > tol + error:
                verdict, worst, worst_point = "VIOLATED", exceed, dict(zip(model.variables, xs))
                break
        # the boxes of a level are equal in shape, so all split along one axis
        axis = int(side[0].argmax())
        if side[0, axis] == 0.0 or boxes + 2 * len(coeffs) > max_boxes:
            verdict = "UNDECIDED"
            break
        widest = np.broadcast_to(np.arange(side.shape[1]) == axis, side.shape)
        coeffs, corner, side, parent = _split(coeffs, corner, side, widest)
        # split rows are exact and stochastic, so the error grows by gamma_{d+1}
        # max|B|; gamma_{d+2} also covers rounding the bound itself
        err = (err + _gamma(degrees[axis] + 2) * np.abs(flat).max(axis=1))[parent]
        boxes += len(coeffs)
    return ConstraintCertificate(c, verdict, Interval(*map(float, enclosure)), worst, worst_point, boxes)


def certify(model: PolyModel, constraints) -> CertificationReport:
    """Certify each constraint on the model; see module docstring for verdicts.

    ArityError names the model variables a constraint's region lacks.
    """
    report, terms = CertificationReport(), _terms(model)
    for c in constraints:
        missing = [v for v in model.variables if v not in c.region]
        if missing:
            raise ArityError(f"constraint region missing model variables {missing}")
        report.entries.append(_certify_one(model, c, terms, TOL, MAX_BOXES))
    return report
