"""Shape-constrained polynomial regression.

The model is an elastic-net penalized least-squares polynomial; shape
constraints bound its value or a partial derivative over a box.  On a box,
the tensor Bernstein coefficients of the constrained derivative are linear in
the coefficient vector theta and enclose the derivative's range there (the
enclosure ``certify`` uses; Garloff 1986).  Requiring each coefficient to lie
inside the bound is therefore a sufficient condition: every fit satisfies its
constraints on the whole region, not only at samples (the inner
approximation of Wang & Ghosh, *CSDA* 2012).  Bounding instead the
derivative's values at the (d_i + 1) equally spaced nodes per axis of each
box is an outer relaxation, whose optimum is a lower bound on the true one;
at the box's corners the nodes' values are the corner coefficients.

Each constraint starts as one box.  Each round solves on the rows of the
current boxes, then halves every box holding a binding row that is not a
corner value, along every axis on which the index of one of those rows'
coefficients is interior (0 < i_a < d_a).  Along an axis where they all sit
at an end, a halving leaves them on the children's faces and cannot tighten
them (Garloff 1986; Nataraj & Arounassalame, *Int. J. Automation and
Computing* 2007).  When those halvings would take the rows past
MAX_FIT_ROWS, each box is halved along its widest such axis only.  It
splits them with ``poly._split``, the routine ``certify`` splits with, so
``certify`` re-reads the coefficients the fit bounded.  Refinement
stops when the relative gap between the fit's objective and the lower bound
is at most GAP_TOL, after REFINE_ROUNDS rounds, or when even the single
halvings would take the rows past MAX_FIT_ROWS.  A round whose solve fails,
or whose objective rises (so the solves are inexact), also stops it, and the
fit of the round before is kept.  These limits, SOLVER_TOL and MAX_ITER are
module constants; SCPRConfig holds only the model: degree, lam and alpha.
Each solve is of

    min (1/n)||X theta - y||^2
        + lambda * (alpha * ||theta_-0||_1 + (1-alpha)/2 * ||theta_-0||_2^2)
    s.t. A theta >= b

solved exactly as least squares with inequalities, reduced to least
distance programming and NNLS (Lawson & Hanson 1974, ch. 23); the intercept
is never penalized.  The 1-norm term is linear on each orthant, so orthant
steps (feature-sign search; Lee, Battle, Raina & Ng, NIPS 2006) solve it with
the same reduction.  Each monomial the training rows cannot identify, its
column in the span of the columns kept before it in graded-lex order, is
fixed at 0, so every solve has full rank.  Every solve ends in a KKT check,
and SolverError when it fails.
When the least-distance problem on the rows has no solution, InfeasibleError
is raised.

A fit reuses what its earlier rounds computed.  Its solves share one scaled
design, its triangular factor, and one SVD of that factor per set of free
columns.  Each round's NNLS starts from the rows that bound the round
before, and the outer solve from the rows that bound the same round's inner
one (Bro & De Jong, *J. Chemometrics*
1997).  A box keeps its node values, so a round builds rows only for the
children of the boxes it split.  All of this lives in the fit and goes when
it returns.  Only pure matrices are cached across fits, read-only: the
node, split and Bernstein matrices, ``poly._bernstein_map`` of the full
basis (which certify shares) and a constraint's whole-region rows, keyed by
degree and box.

``compile_constraints`` discretizes constraints on tensor grids instead: its
rows hold the derivative at sample points only.  No fit calls it; it stays
for API callers and for perfbench's probe list.
"""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass, field
from functools import lru_cache

import numpy as np

from .datasets import Dataset
from .errors import (
    BudgetError,
    ConfigError,
    DataError,
    DomainError,
    InfeasibleError,
    SchemaError,
    SolverError,
)
from .intervals import Interval
from .poly import PolyModel, _basis, _bernstein_map, _frame, _monomial_derivative, _read_only, _split, monomial_basis

__all__ = [
    "SCPRConfig",
    "FitReport",
    "LinearConstraintSystem",
    "build_design_matrix",
    "compile_constraints",
    "fit_unconstrained",
    "fit_constrained",
    "solve_elastic_net",
]

MAX_COMPILED_ROWS = 10**6
# When a fit stops.  Bernstein refinement stops at this relative gap between
# the fit's objective and the lower bound, after REFINE_ROUNDS rounds of box
# splitting, or before the rows of all boxes number more than MAX_FIT_ROWS (a
# box has up to 2 prod(d_i + 1) rows, so this bounds memory where a box count
# would not).  A solve may violate a row by at most SOLVER_TOL, and its NNLS
# steps number at most MAX_ITER.
GAP_TOL = 1e-3
REFINE_ROUNDS = 20
MAX_FIT_ROWS = 20000
SOLVER_TOL = 1e-8
MAX_ITER = 50000
# A solve fixes at 0 each monomial the training rows cannot identify: its
# unit-norm column's diagonal entry in the R factor of the columns before it
# is at most RANK_TOL (about sqrt(eps)), so every solve has full rank.  It
# passes its KKT check when its stationarity residual is at most KKT_TOL
# times the largest term of the gradient.
RANK_TOL = 1.5e-8
KKT_TOL = 1e-9


@dataclass
class SCPRConfig:
    """The model a fit searches: polynomial degree and elastic-net lam, alpha."""

    degree: int = 3
    lam: float = 0.0
    alpha: float = 0.0

    def __post_init__(self):
        if self.degree < 1:
            raise ConfigError(f"degree must be >= 1, got {self.degree}")
        if not 0.0 <= self.alpha <= 1.0:
            raise ConfigError(f"alpha must be in [0, 1], got {self.alpha}")
        if not (math.isfinite(self.lam) and self.lam >= 0.0):
            raise ConfigError(f"lam must be finite and >= 0, got {self.lam}")


@dataclass
class FitReport:
    train_rmse: float
    objective_value: float
    iterations: int
    max_sampled_violation: float
    optimality_gap: float = 0.0
    rounds: int = 1

    def to_dict(self) -> dict:
        return asdict(self)


@dataclass
class LinearConstraintSystem:
    """Compiled shape constraints as rows @ theta >= rhs (k x m and k)."""

    rows: np.ndarray
    rhs: np.ndarray


def build_design_matrix(data: Dataset, variables, target: str, d: int):
    """Monomial design matrix in graded-lex order (constant column first)."""
    for name in list(variables) + [target]:
        if name not in data.columns:
            raise SchemaError(f"column {name!r} not present")
    if data.n_rows < 1:
        raise SchemaError("dataset has no rows")
    basis = monomial_basis(len(variables), d)
    powers = [{e: data.columns[v] ** e for e in range(1, d + 1)} for v in variables]
    X = np.empty((data.n_rows, len(basis)))
    for j, alpha in enumerate(basis):
        col = np.ones(data.n_rows)
        for power, e in zip(powers, alpha):
            if e:
                col = col * power[e]
        X[:, j] = col
    if not np.all(np.isfinite(X)):
        raise DataError("non-finite value in design matrix")
    return X, data.columns[target].copy()


def compile_constraints(
    constraints, variables, degree: int, grid_points_per_dim: int = 8
) -> LinearConstraintSystem:
    """Discretize shape constraints on tensor grids (corners included).

    Per grid point, the lower-bound row (M, lo) comes first, then the
    upper-bound row (-M, -hi), each only where that side is finite.
    """
    basis = monomial_basis(len(variables), degree)
    rows, rhs = [np.zeros((0, len(basis)))], [np.zeros(0)]
    total = 0
    for c in constraints:
        axes = []
        for v in variables:
            iv = c.region[v]
            axes.append(np.linspace(iv.lo, iv.hi, 1 if iv.lo == iv.hi else grid_points_per_dim))
        sides = [(sign, sign * r) for sign, r in ((1.0, c.bound.lo), (-1.0, c.bound.hi)) if np.isfinite(r)]
        total += int(np.prod([len(a) for a in axes])) * len(sides)
        if total > MAX_COMPILED_ROWS:
            raise BudgetError(
                f"compiled constraint system exceeds {MAX_COMPILED_ROWS} rows; "
                "lower grid_points_per_dim"
            )
        points = np.stack(np.meshgrid(*axes, indexing="ij"), axis=-1).reshape(-1, len(variables))
        M = np.zeros((len(points), len(basis)))
        dtuple = c.derivative_tuple(variables)
        for j, alpha in enumerate(basis):
            term = _monomial_derivative(alpha, dtuple)
            if term is not None:
                M[:, j] = term[0] * np.prod(points ** np.array(term[1]), axis=1)
        rows.append(np.stack([sign * M for sign, _ in sides], axis=1).reshape(-1, len(basis)))
        rhs.append(np.tile([r for _, r in sides], len(points)))
    return LinearConstraintSystem(np.vstack(rows), np.concatenate(rhs))


# ---------------------------------------------------------------------------
# Bernstein rows
# ---------------------------------------------------------------------------


@dataclass
class _Partition:
    """Boxes covering one constraint's region, with the tensor Bernstein
    coefficients of the constrained derivative on each, and its values at the
    box's nodes, as rows in theta."""

    bound: Interval
    coeffs: np.ndarray  # (boxes, d_1 + 1, ..., d_n + 1, coefficients of theta)
    values: np.ndarray  # same shape: the values at the nodes of each box
    lo: np.ndarray  # (boxes, n) lower corners
    side: np.ndarray  # (boxes, n) side lengths, 0 on axes of degree 0
    degrees: list
    # per coefficient of a box and per axis: is its index there interior,
    # 0 < i_a < d_a?  A coefficient interior on no axis is a corner value.
    interior: np.ndarray

    @property
    def rows_per_box(self) -> int:
        return len(self.interior) * int(np.isfinite([self.bound.lo, self.bound.hi]).sum())


def _whole_region(constraint, variables, degree: int) -> _Partition:
    """One box, the constraint's region; degrees and coefficients as in
    certify.  DomainError when the coefficients overflow there."""
    lo = tuple(constraint.region[v].lo for v in variables)
    hi = tuple(constraint.region[v].hi for v in variables)
    rows = _region_rows(constraint.derivative_tuple(variables), lo, hi, degree)
    if rows is None:
        box = ", ".join(f"{v} in [{a}, {b}]" for v, a, b in zip(variables, lo, hi))
        raise DomainError(f"constraint {constraint.describe()!r}: its Bernstein coefficients overflow on {box}")
    coeffs, values, interior, degrees = rows
    return _Partition(constraint.bound, coeffs, values, *_frame(degrees, lo, hi)[:2], list(degrees), interior)


@lru_cache(maxsize=256)
def _region_rows(dtuple: tuple, lo: tuple, hi: tuple, degree: int):
    """The Bernstein coefficients (``_bernstein_map`` of the full basis) and
    node values, as rows in theta, of the dtuple-derivative of a degree-
    ``degree`` polynomial on the box [lo, hi]; also each coefficient's
    interior flags (``_Partition.interior``) and the degree per axis; None on
    overflow.  Cached, so read-only."""
    coeffs, _, degrees = _bernstein_map(_basis(len(dtuple), degree), dtuple, lo, hi)
    if not np.isfinite(coeffs).all():
        return None
    index = np.indices([d + 1 for d in degrees]).reshape(len(degrees), -1).T
    interior = (index > 0) & (index < degrees)
    values = _values_at_nodes(coeffs[None], degrees)
    return coeffs[None], _read_only(values), _read_only(interior), degrees


@lru_cache(maxsize=64)
def _node_values(d: int) -> np.ndarray:
    """Matrix taking degree-d Bernstein coefficients to the polynomial's
    values at the d + 1 equally spaced nodes of the interval, ends included.
    Cached, so read-only."""
    t = np.linspace(0.0, 1.0, d + 1)[:, None]
    k = np.arange(d + 1)
    return _read_only(np.array([math.comb(d, j) for j in k]) * t**k * (1.0 - t) ** (d - k))


def _values_at_nodes(coeffs: np.ndarray, degrees) -> np.ndarray:
    """The node values of boxes, from their coefficients (boxes first)."""
    for axis, d in enumerate(degrees):
        coeffs = np.moveaxis(np.tensordot(_node_values(d), coeffs, axes=(1, axis + 1)), 0, axis + 1)
    return coeffs


def _bernstein_system(parts, m):
    """Rows A theta >= b putting every Bernstein coefficient inside its bound.

    Per coefficient the lower-bound row (M, lo) and the upper-bound row
    (-M, -hi), where finite.  Also returns V, whose rows with b bound the
    derivative's value at the matching node of each box (an outer
    relaxation; corner nodes give the corner coefficients), and per row its
    box, numbered across the partitions, and its coefficient, numbered
    across the partitions' ``interior`` tables stacked in order.
    """
    A, V, b = [np.zeros((0, m))], [np.zeros((0, m))], [np.zeros(0)]
    box, coef = [np.zeros(0, int)], [np.zeros(0, int)]
    first_box = first_coef = 0
    for part in parts:
        M = part.coeffs.reshape(-1, m)
        values = part.values.reshape(-1, m)
        ids = np.repeat(np.arange(first_box, first_box + len(part.side)), len(part.interior))
        coefs = np.tile(np.arange(first_coef, first_coef + len(part.interior)), len(part.side))
        for sign, bound in ((1.0, part.bound.lo), (-1.0, part.bound.hi)):
            if np.isfinite(bound):
                A.append(sign * M)
                V.append(sign * values)
                b.append(np.full(len(M), sign * bound))
                box.append(ids)
                coef.append(coefs)
        first_box += len(part.side)
        first_coef += len(part.interior)
    return np.vstack(A), np.vstack(V), np.concatenate(b), np.concatenate(box), np.concatenate(coef)


def _split_boxes(parts, axes) -> bool:
    """Halve each box along every axis its row of ``axes`` flags (a boxes x
    variables mask, parts in order) with ``poly._split``, the routine
    certify splits with.  When that would take the partitions past
    MAX_FIT_ROWS rows, halve each flagged box along its widest flagged axis
    only.

    Returns False, splitting nothing, when no box has a flagged side to
    halve or even the single halvings would pass MAX_FIT_ROWS.
    """
    masks = np.split(axes, np.cumsum([len(p.side) for p in parts])[:-1])
    masks = [mask & (p.side > 0.0) for p, mask in zip(parts, masks)]
    if not any(mask.any() for mask in masks):
        return False

    def rows(masks):
        # a box halved along k axes becomes 2**k boxes
        return sum(int((2 ** mask.sum(axis=1)).sum()) * p.rows_per_box for p, mask in zip(parts, masks))

    if rows(masks) > MAX_FIT_ROWS:
        masks = [
            mask & (np.where(mask, p.side, 0.0).argmax(axis=1)[:, None] == np.arange(mask.shape[1]))
            for p, mask in zip(parts, masks)
        ]
        if rows(masks) > MAX_FIT_ROWS:
            return False
    for part, mask in zip(parts, masks):
        if not mask.any():
            continue
        part.coeffs, part.lo, part.side, parent = _split(part.coeffs, part.lo, part.side, mask)
        kept = int(np.count_nonzero(~mask.any(axis=1)))
        # only the children need node values; the other boxes keep theirs
        part.values = np.concatenate([part.values[parent[:kept]], _values_at_nodes(part.coeffs[kept:], part.degrees)])
    return True


# ---------------------------------------------------------------------------
# solver
# ---------------------------------------------------------------------------


@dataclass
class SolveResult:
    theta: np.ndarray
    iterations: int
    max_violation: float
    objective: float


def _objective(X, y, theta, lam, alpha):
    n = X.shape[0]
    resid = X @ theta - y
    pen = theta[1:]
    return (
        resid @ resid / n
        + lam * (alpha * np.abs(pen).sum() + 0.5 * (1.0 - alpha) * pen @ pen)
    )


def _nnls(
    E: np.ndarray, f: np.ndarray, max_iter: int, start: np.ndarray | None = None
) -> tuple[np.ndarray, int, bool]:
    """Lawson–Hanson active-set solution of min ||E u - f|| subject to u >= 0.

    ``start`` (a mask over the columns) guesses the columns positive at the
    optimum (Bro & De Jong, *J. Chemometrics* 1997).  Least squares on it,
    dropping the columns that come out nonpositive until none does, gives
    the point the loop starts from: the optimum on its columns, as after
    every step of the loop.  The loop and its stopping test are those of a
    cold start, so every guess reaches the same optimum.  Returns (u,
    least-squares subproblems solved, finished); finished is False when
    max_iter subproblems did not reach the optimum.
    """
    u = np.zeros(E.shape[1])
    passive = np.zeros(E.shape[1], dtype=bool) if start is None else start.copy()
    tol = 10.0 * np.finfo(float).eps * max(E.shape) * np.abs(E).sum(axis=0).max()
    iterations = 0
    while passive.any():
        if iterations >= max_iter:
            return u, iterations, False
        iterations += 1
        idx = np.flatnonzero(passive)
        sol = np.linalg.lstsq(E[:, idx], f, rcond=None)[0]
        if (sol > 0.0).all():
            u[idx] = sol
            break
        passive[idx[sol <= 0.0]] = False
    w = E.T @ (f - E @ u)
    while True:
        j = int(np.argmax(np.where(passive, -np.inf, w)))
        if passive[j] or w[j] <= tol:
            return u, iterations, True
        passive[j] = True
        entering = True
        while True:
            if iterations >= max_iter:
                return u, iterations, False
            iterations += 1
            idx = np.flatnonzero(passive)
            sol = np.linalg.lstsq(E[:, idx], f, rcond=None)[0]
            neg = sol <= 0.0
            if not neg.any():
                u[idx] = sol
                w = E.T @ (f - E @ u)
                break
            if entering and neg[np.searchsorted(idx, j)]:
                # rounding gives the entering index no descent: skip it
                passive[j] = False
                w[j] = 0.0
                break
            entering = False
            # step from u toward sol until the first coordinate reaches zero
            cur = u[idx]
            ratios = cur[neg] / (cur[neg] - sol[neg])
            u[idx] = cur + ratios.min() * (sol - cur)
            u[idx[neg][np.argmin(ratios)]] = 0.0
            passive[idx] = u[idx] > 0.0
            u[~passive] = 0.0


def _least_distance(
    G: np.ndarray, h: np.ndarray, max_iter: int, start: np.ndarray | None = None
) -> tuple[np.ndarray, np.ndarray, int]:
    """min ||z|| subject to G z >= h, through NNLS on its dual.

    Lawson & Hanson, *Solving Least Squares Problems* (1974), ch. 23: with
    u >= 0 minimizing ||[G^T; h^T] u - e_last||, residual r, the solution is
    z = -r[:-1] / r[-1], and r == 0 means the rows are inconsistent.
    Returns (z, the rows' multipliers mu >= 0, NNLS iterations), where
    2 z = G^T mu and only rows that hold with equality have mu > 0.  NNLS
    starts from the rows ``start`` (a mask) guesses will have mu > 0.
    SolverError means NNLS did not finish within max_iter iterations.
    """
    norms = np.linalg.norm(G, axis=1)
    zero = norms == 0.0
    if np.any(h[zero] > 0.0):
        raise InfeasibleError("a constraint row with zero coefficients requires 0 >= b > 0")
    mu = np.zeros(len(G))
    G = G[~zero] / norms[~zero, None]
    h = h[~zero] / norms[~zero]
    # scaled so the farthest single row is at distance 1
    scale = float(h.max(initial=0.0))
    if scale <= 0.0:
        return np.zeros(G.shape[1]), mu, 0
    E = np.vstack([G.T, h / scale])
    f = np.zeros(E.shape[0])
    f[-1] = 1.0
    u, iterations, finished = _nnls(E, f, max_iter, None if start is None else start[~zero])
    if not finished:
        raise SolverError(f"NNLS did not finish within {max_iter} iterations")
    r = E @ u - f
    # -r[-1] = 1 / (1 + ||z / scale||^2): the rows admit no point within
    # 1e6 times the distance of the farthest single row, or -r[-1] is within
    # the rounding of the sum it is computed from
    if -r[-1] <= max(1e-12, 10.0 * np.finfo(float).eps * len(u) * (np.abs(E[-1]) @ u)):
        raise InfeasibleError("the compiled constraint system has no solution")
    mu[~zero] = 2.0 * scale * u / (norms[~zero] * -r[-1])
    return -scale * r[:-1] / r[-1], mu, iterations


def _factor(E: np.ndarray, f: np.ndarray) -> tuple:
    """The SVD of E, with U^T f in place of U: what _solve_least_squares
    needs of E and f."""
    U, sv, Vt = np.linalg.svd(E, full_matrices=False)
    return U.T @ f, sv, Vt


def _solve_least_squares(
    c, G, h, max_iter, factor, start=None
) -> tuple[np.ndarray, np.ndarray, int]:
    """min ||E x - f||^2 + c @ x subject to G x >= h, for E of full column rank.

    With E = U S V^T, W = V S^-1 and x0 = W (U^T f - W^T c / 2), the
    unconstrained minimizer, the objective is ||z||^2 plus a constant for
    z = S V^T (x - x0), and the rows become G W z >= h - G x0: least
    distance programming (Lawson & Hanson 1974, ch. 23).  E has full rank
    because solve_elastic_net fixes at 0 the columns the rows cannot
    identify.  ``factor`` is _factor(E, f), and ``start`` the rows the
    least-distance NNLS starts from.  Returns (x, the rows' multipliers,
    NNLS iterations).
    """
    Utf, sv, Vt = factor
    W = Vt.T / sv
    x0 = W @ (Utf - W.T @ c / 2.0)
    if not len(G):
        return x0, np.zeros(0), 0
    z, mu, iterations = _least_distance(G @ W, h - G @ x0, max_iter, start)
    return x0 + W @ z, mu, iterations


@dataclass
class _Reuse:
    """What the solves of one fit share.  fit_constrained makes one and drops
    it when it returns, so nothing in it outlives the fit."""

    scaled: tuple | None = None  # _scale of the fit's X, y, lam and alpha
    factors: dict = field(default_factory=dict)  # free-column mask -> _factor
    start: np.ndarray | None = None  # rows of A the next solve's NNLS starts from
    binding: np.ndarray | None = None  # rows of A with mu > 0 in the last solve

    def factor(self, free):
        """_factor of _scale's small stand-in (R, r), on its free columns."""
        key = free.tobytes()
        if key not in self.factors:
            *_, R, r = self.scaled
            self.factors[key] = _factor(R[:, free], r)
        return self.factors[key]


def _scale(X, y, lam, alpha) -> tuple:
    """The columns of X that solves keep (``cols``), their scales s, the
    stacked design (E, f) of solve_elastic_net on them, and (R, r): the same
    least squares on few rows.

    Columns are scaled to unit norm.  Walking them in graded-lex order, the
    first column whose diagonal entry in the R factor of [columns, y] is at
    most RANK_TOL lies in the span of the columns before it on these rows,
    which therefore cannot identify its monomial.  It is dropped, the kept
    columns are triangularized again, and the walk goes on (Golub, Klema &
    Stewart, "Rank degeneracy and least squares problems", 1976).  Lower
    degrees come first, so the kept model is hierarchical.  R stacks the
    kept columns' triangular factor on the ridge rows and r is f rotated
    with it, so ||R x - r||^2 and ||E x - f||^2 differ by a constant.
    ``cols`` is a slice when every column is kept.  DataError when column 0,
    the intercept, is zero.
    """
    n, m = X.shape
    s = np.sqrt((X * X).mean(axis=0))
    s = np.where(s > 1e-12, s, 1.0)
    D = np.column_stack([X / (s * np.sqrt(n)), y / np.sqrt(n)])
    kept = np.arange(m)
    R = np.linalg.qr(D, mode="r")
    while True:
        diag = np.zeros(len(kept))  # a wide R has no diagonal entry in its last columns
        diag[: len(R)] = np.abs(np.diagonal(R))[: len(kept)]
        small = np.flatnonzero(diag <= RANK_TOL)
        if not len(small):
            break
        kept = np.delete(kept, small[0])
        R = np.linalg.qr(np.delete(R, small[0], axis=1), mode="r")
    if kept[0] != 0:
        raise DataError("column 0 of the design, the intercept, is 0")
    k = len(kept)
    cols = slice(m) if k == m else kept
    s, E, f, R, r = s[cols], D[:, cols], D[:, m], R[:k, :k], R[:k, k]
    ridge = lam * (1.0 - alpha)
    if ridge:
        rows = np.sqrt(ridge / 2.0) * np.eye(k)[1:] / s
        E, R = np.vstack([E, rows]), np.vstack([R, rows])
        f, r = np.concatenate([f, np.zeros(k - 1)]), np.concatenate([r, np.zeros(k - 1)])
    return cols, s, E, f, R, r


def solve_elastic_net(
    X: np.ndarray,
    y: np.ndarray,
    lam: float,
    alpha: float,
    A: np.ndarray | None = None,
    b: np.ndarray | None = None,
    *,
    solver_tol: float = SOLVER_TOL,
    max_iter: int = MAX_ITER,
    _reuse: _Reuse | None = None,
) -> SolveResult:
    """Exact elastic-net QP solver.

    Column 0 of X (the intercept) is never penalized.  Constraints are
    A theta >= b; pass A=None for the unconstrained problem.  A column the
    rows of X cannot identify (_scale) is left out, its coefficient fixed at
    0, so every solve has full rank.  In the kept columns, scaled to unit
    RMS, the objective is ||E phi - f||^2 + sum_j w_j |phi_j|,
    with E the design stacked with the ridge rows, and every solve is least
    squares with inequalities (_solve_least_squares).  The 1-norm term is
    handled by orthant steps (feature-sign search; Lee, Battle, Raina & Ng,
    NIPS 2006): on a fixed sign per coefficient |phi_j| is linear and the
    sign is a row sign_j phi_j >= 0, and a coefficient at zero is left out of
    the design.  From a coefficient at zero, sign_j * (dF/dphi_j without the
    1-norm) + w_j is the multiplier its sign row needs; above 2 w_j the
    coefficient enters with the other sign, below 0 with this one, and every
    step that lets coefficients in lowers the objective.  The search starts
    from the intercept alone, or from the signs of the fit without the
    1-norm term when the intercept alone cannot meet the rows.  max_iter
    bounds the NNLS iterations of all solves together.

    No result violates a row by more than solver_tol.  A solve without a
    1-norm term is the exact reduction; one with it also passes a KKT check
    on the kept columns: stationarity within KKT_TOL of the gradient's
    largest term, every multiplier of the right sign, and a duality gap
    within KKT_TOL of the objective's scale.  SolverError means a check
    failed, NNLS ran out of iterations or the orthant steps came back to a
    sign pattern; InfeasibleError means the rows admit no solution.

    ``_reuse`` carries what the solves of one fit share (_Reuse): the scaled
    design, its factorizations, and the rows NNLS starts from.  Each orthant
    step's NNLS starts from the rows that bound the step before.
    """
    if A is None or A.shape[0] == 0:
        A = np.zeros((0, X.shape[1]))
        b = np.zeros(0)
    k = A.shape[0]
    reuse = _reuse if _reuse is not None else _Reuse()
    if reuse.scaled is None:
        reuse.scaled = _scale(X, y, lam, alpha)
    cols, s, E, f, _, _ = reuse.scaled
    m = len(s)  # the kept columns
    G = A[:, cols] / s
    w = np.zeros(m)
    w[1:] = lam * alpha / s[1:]
    free = np.ones(m, dtype=bool)
    x, mu, iterations = _solve_least_squares(np.zeros(m), G, b, max_iter, reuse.factor(free), reuse.start)
    sign = np.ones(m)
    at_zero = np.zeros(m, dtype=bool)
    if w.any():
        sign[1:] = np.where(x[1:] < 0.0, -1.0, 1.0)
        free = np.arange(m) == 0
        held = np.zeros(m, dtype=bool)  # coefficients whose sign row bound the step before
        seen = set()
        while True:
            state = free.tobytes() + sign.tobytes()
            if state in seen:
                raise SolverError(
                    f"orthant steps came back to a sign pattern after {len(seen)} steps"
                )
            seen.add(state)
            rows = np.vstack([G[:, free], np.diag(sign[free])[1:]])
            # NNLS starts from the rows that bound the step before
            start = np.concatenate([mu > 0.0, held[free][1:]])
            try:
                x_free, mu, its = _solve_least_squares(
                    (w * sign)[free], rows,
                    np.concatenate([b, np.zeros(free.sum() - 1)]), max_iter - iterations,
                    reuse.factor(free), start,
                )
            except InfeasibleError:
                if free.all():
                    raise
                free[:] = True  # the intercept alone cannot meet the rows
                continue
            iterations += its
            x = np.zeros(m)
            x[free] = x_free
            at_zero = ~free
            at_zero[np.flatnonzero(free)[1:]] = mu[k:] > 0.0
            held = free & at_zero
            mu = mu[:k]
            nu = sign * (2.0 * E.T @ (E @ x - f) - G.T @ mu) + w
            flip = at_zero & (nu > 2.0 * (1.0 + KKT_TOL) * w)
            enter = ~free & (nu < -KKT_TOL * w)
            if not (flip.any() or enter.any()):
                break
            sign[flip] = -sign[flip]
            free = (free & ~at_zero) | flip | enter
            free[0] = True
    reuse.binding = mu > 0.0
    theta = np.zeros(X.shape[1])
    theta[cols] = x / s
    violation = float(max((b - A @ theta).max(initial=-np.inf), 0.0))
    residual = terms = gap = scale = 0.0
    if w.any():
        # stationarity: each coefficient's multiplier nu for its sign row
        # must be 0, or lie in [0, 2 w_j] for a coefficient at zero
        bind = mu > 0.0
        Gb, mb, bb = G[bind], mu[bind], b[bind]
        nu = sign * (2.0 * E.T @ (E @ x - f) - Gb.T @ mb) + w
        residual = float(np.maximum(nu - np.where(at_zero, 2.0 * w, 0.0), -nu).max())
        absE = np.abs(E)
        terms = float((2.0 * absE.T @ (absE @ np.abs(x) + np.abs(f)) + w + np.abs(Gb).T @ mb).max())
        # with stationarity, sum mu_i * slack_i bounds how far the objective
        # is above its minimum; f @ f is the objective at theta = 0
        gap, scale = float(mb @ np.abs(Gb @ x - bb)), float(f @ f + mb @ np.abs(bb))
    if violation > solver_tol or residual > KKT_TOL * terms or gap > KKT_TOL * scale:
        raise SolverError(
            f"solve failed its KKT check after {iterations} NNLS iterations: violation "
            f"{violation:.3e} (solver_tol {solver_tol:.1e}), stationarity {residual:.3e} "
            f"of {terms:.3e}, duality gap {gap:.3e} of {scale:.3e}"
        )
    return SolveResult(
        theta=theta,
        iterations=iterations,
        max_violation=violation,
        objective=_objective(X, y, theta, lam, alpha),
    )


# ---------------------------------------------------------------------------
# fitting
# ---------------------------------------------------------------------------


def fit_unconstrained(data: Dataset, config: SCPRConfig) -> tuple[PolyModel, FitReport]:
    """Elastic-net polynomial regression without shape constraints."""
    return fit_constrained(data, config, ())


def fit_constrained(data: Dataset, config: SCPRConfig, constraints) -> tuple[PolyModel, FitReport]:
    """Shape-constrained fit of ``data.target`` on ``data.feature_names``, on Bernstein rows.

    Every iterate satisfies the constraints on their whole regions; see the
    module docstring for the refinement.  An empty constraint list is the
    unconstrained fit.  The report's max_sampled_violation is the largest
    breach of a Bernstein row, an upper bound on the model's breach,
    optimality_gap is the relative gap to the lower bound when refinement
    stopped, iterations sums the NNLS iterations of all its solves, and
    rounds counts the rounds whose rows it solved (1 when it split no box).
    InfeasibleError means the node values alone admit no solution, or the
    rows of every partition tried did not; SolverError means the first solve
    that admitted a fit failed its KKT check; DomainError means the Bernstein
    coefficients overflow on a constraint's region.
    """
    variables = data.feature_names
    X, y = build_design_matrix(data, variables, data.target, config.degree)
    parts = [_whole_region(c, variables, config.degree) for c in constraints]
    # per coefficient, as _bernstein_system numbers them: its interior axes,
    # and whether it is a corner value
    interior = np.concatenate([np.zeros((0, len(variables)), dtype=bool)] + [p.interior for p in parts])
    corner = ~interior.any(axis=1)
    reuse, solves = _Reuse(), []

    def solve(A, b, start):
        reuse.start = start
        # through the module attribute, so wrappers of solve_elastic_net see every solve
        solves.append(solve_elastic_net(
            X, y, config.lam, config.alpha, A, b,
            solver_tol=SOLVER_TOL, max_iter=MAX_ITER, _reuse=reuse,
        ))
        return solves[-1]

    def binding(A, b, theta):
        # a row binds when its slack is within SOLVER_TOL, relative to the
        # size of its terms
        return A @ theta - b <= SOLVER_TOL * (1.0 + np.abs(A) @ np.abs(theta))

    best = None  # (inner solve, gap) of the round the fit is taken from
    # rounds counts the rounds run, this one included
    for rounds in range(1, REFINE_ROUNDS + 2):
        A, V, b, box, coef = _bernstein_system(parts, X.shape[1])
        try:
            # the previous round's fit meets the children's rows too; start
            # NNLS from those it meets with equality
            inner = solve(A, b, None if best is None else binding(A, b, best[0].theta))
            if best is not None and inner.objective > best[0].objective * (1.0 + 1e-9):
                # a finer partition cannot raise the optimum: the solves are
                # inexact, and refining further cannot close the gap
                break
            # with only corner rows binding, the inner optimum is the outer one
            split = ~corner[coef] & binding(A, b, inner.theta)
            gap = 0.0
            if split.any() and inner.objective > 0.0:
                # V's rows are in A's order, so start from the rows inner bound by
                outer = solve(V, b, reuse.binding)
                gap = max(inner.objective - outer.objective, 0.0) / inner.objective
            best = (inner, gap)
            if gap <= GAP_TOL:
                break
        except InfeasibleError:
            solve(V, b, None)  # raises when the node values admit no solution
            split = ~corner[coef]
        except SolverError:
            if best is None:
                raise
            break  # keep the last round's fit
        # halve each box holding a split row along every axis on which one of
        # them is interior: on the others a halving keeps them at an end
        axes = np.zeros((sum(len(p.side) for p in parts), len(variables)), dtype=bool)
        np.logical_or.at(axes, box[split], interior[coef[split]])
        if rounds > REFINE_ROUNDS or not _split_boxes(parts, axes):
            break
    if best is None:
        raise InfeasibleError(
            f"no fit meets the Bernstein rows of {sum(len(p.side) for p in parts)} boxes, "
            "though the derivative values at their nodes admit one"
        )
    inner, gap = best
    model = PolyModel.from_coefficient_vector(variables, config.degree, inner.theta)
    resid = X @ inner.theta - y
    return model, FitReport(
        train_rmse=float(np.sqrt(np.mean(resid**2))),
        objective_value=inner.objective,
        iterations=sum(r.iterations for r in solves),
        max_sampled_violation=inner.max_violation,
        optimality_gap=float(gap),
        rounds=rounds,
    )
