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
current boxes, then halves, along its widest axis, every box holding a
binding row that is not a corner value, in the order ``certify`` splits
them, so ``certify`` re-reads the coefficients the fit bounded.  Refinement
stops when the relative gap between the fit's objective and the lower bound
is at most GAP_TOL, after ``refine_rounds`` rounds, or when the rows would
number more than MAX_FIT_ROWS.  A round whose solve fails, or whose objective
rises (so the solves are inexact), also stops it, and the fit of the round
before is kept.  Each solve is of

    min (1/n)||X theta - y||^2
        + lambda * (alpha * ||theta_-0||_1 + (1-alpha)/2 * ||theta_-0||_2^2)
    s.t. A theta >= b

solved exactly when it has no 1-norm term (lambda * alpha == 0): as (ridge)
least squares, and under constraints as least squares with inequalities
reduced to least distance programming and NNLS (Lawson & Hanson 1974, ch.
23).  With a 1-norm term, or a constrained design of deficient rank, an
augmented-Lagrangian outer loop with a monotone accelerated proximal-gradient
inner loop solves it (soft-thresholding handles the 1-norm; the intercept is
never penalized).  Both paths detect an inconsistent system in the same way:
the least-distance problem on the rows has no solution, and InfeasibleError
is raised.

``compile_constraints`` discretizes constraints on tensor grids instead: its
rows hold the derivative at sample points only.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass

import numpy as np

from .certify import _bernstein_matrix, _split_matrix
from .datasets import Dataset
from .errors import (
    BudgetError,
    DataError,
    InfeasibleError,
    SchemaError,
    SolverError,
)
from .intervals import Interval
from .poly import PolyModel, monomial_basis

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
# Bernstein refinement stops at this relative gap between the fit's objective
# and the lower bound, or before the rows of all boxes number more than
# MAX_FIT_ROWS (a box has up to 2 prod(d_i + 1) rows, so this bounds memory
# where a box count would not).
GAP_TOL = 1e-3
MAX_FIT_ROWS = 20000
# iterative solver: growth of the penalty rho while the violation stalls, and
# the relative coefficient step at which an inner phase has converged
PENALTY_GROWTH = 10.0
INNER_TOL = 1e-10


@dataclass
class SCPRConfig:
    degree: int = 3
    lam: float = 0.0
    alpha: float = 0.0
    solver_tol: float = 1e-8
    max_iter: int = 50000
    # rounds of Bernstein box splitting after the one-box-per-constraint fit
    refine_rounds: int = 20

    def __post_init__(self):
        if self.degree < 1:
            raise SchemaError(f"degree must be >= 1, got {self.degree}")
        if not 0.0 <= self.alpha <= 1.0:
            raise SchemaError(f"alpha must be in [0, 1], got {self.alpha}")
        if self.lam < 0.0:
            raise SchemaError(f"lambda must be >= 0, got {self.lam}")
        if self.refine_rounds < 0:
            raise SchemaError(f"refine_rounds must be >= 0, got {self.refine_rounds}")
        if not self.solver_tol > 0.0:
            raise SchemaError(f"solver_tol must be > 0, got {self.solver_tol}")
        if self.max_iter < 1:
            raise SchemaError(f"max_iter must be >= 1, got {self.max_iter}")


@dataclass
class FitReport:
    train_rmse: float
    objective_value: float
    iterations: int
    max_sampled_violation: float
    wall_time_seconds: float
    optimality_gap: float = 0.0

    def to_dict(self) -> dict:
        return {
            "train_rmse": self.train_rmse,
            "objective_value": self.objective_value,
            "iterations": self.iterations,
            "max_sampled_violation": self.max_sampled_violation,
            "wall_time_seconds": self.wall_time_seconds,
            "optimality_gap": self.optimality_gap,
        }


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
    cols = [data.columns[v] for v in variables]
    X = np.empty((data.n_rows, len(basis)))
    for j, alpha in enumerate(basis):
        col = np.ones(data.n_rows)
        for x, e in zip(cols, alpha):
            if e:
                col = col * x**e
        X[:, j] = col
    if not np.all(np.isfinite(X)):
        raise DataError("non-finite value in design matrix")
    return X, data.columns[target].copy()


def _derivative_row_factors(basis, dtuple):
    """Per basis monomial: (factor, reduced exponents) of its dtuple-derivative."""
    factors = []
    for alpha in basis:
        factor = 1.0
        reduced = []
        for e, k in zip(alpha, dtuple):
            if e < k:
                factor = 0.0
                reduced.append(0)
                continue
            for j in range(k):
                factor *= e - j
            reduced.append(e - k)
        factors.append((factor, tuple(reduced)))
    return factors


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
        for j, (factor, reduced) in enumerate(_derivative_row_factors(basis, c.derivative_tuple(variables))):
            if factor:
                M[:, j] = factor * np.prod(points ** np.array(reduced), axis=1)
        rows.append(np.stack([sign * M for sign, _ in sides], axis=1).reshape(-1, len(basis)))
        rhs.append(np.tile([r for _, r in sides], len(points)))
    return LinearConstraintSystem(np.vstack(rows), np.concatenate(rhs))


# ---------------------------------------------------------------------------
# Bernstein rows
# ---------------------------------------------------------------------------


@dataclass
class _Partition:
    """Boxes covering one constraint's region, with the tensor Bernstein
    coefficients of the constrained derivative on each as rows in theta."""

    bound: Interval
    coeffs: np.ndarray  # (boxes, d_1 + 1, ..., d_n + 1, coefficients of theta)
    side: np.ndarray  # (boxes, n) side lengths, 0 on axes of degree 0
    degrees: list
    corner: np.ndarray  # per coefficient of a box: is it a corner value?

    @property
    def rows_per_box(self) -> int:
        return len(self.corner) * int(np.isfinite([self.bound.lo, self.bound.hi]).sum())


def _whole_region(constraint, variables, basis) -> _Partition:
    """One box, the constraint's region; degrees and coefficients as in certify."""
    factors = _derivative_row_factors(basis, constraint.derivative_tuple(variables))
    live = [(j, f, reduced) for j, (f, reduced) in enumerate(factors) if f]
    degrees = [max((r[i] for _, _, r in live), default=0) for i in range(len(variables))]
    coeffs = np.zeros([d + 1 for d in degrees] + [len(basis)])
    for j, f, reduced in live:
        coeffs[reduced + (j,)] = f
    lo = np.array([constraint.region[v].lo for v in variables])
    hi = np.array([constraint.region[v].hi for v in variables])
    for axis, d in enumerate(degrees):
        matrix = _bernstein_matrix(lo[axis], hi[axis] - lo[axis], d)
        coeffs = np.moveaxis(np.tensordot(matrix, coeffs, axes=(1, axis)), 0, axis)
    corner = np.zeros(coeffs.shape[:-1], dtype=bool)
    corner[np.ix_(*[[0, d] if d else [0] for d in degrees])] = True
    side = np.where(np.array(degrees) > 0, hi - lo, 0.0)
    return _Partition(constraint.bound, coeffs[None], side[None], degrees, corner.reshape(-1))


def _node_values(d: int) -> np.ndarray:
    """Matrix taking degree-d Bernstein coefficients to the polynomial's
    values at the d + 1 equally spaced nodes of the interval, ends included."""
    t = np.linspace(0.0, 1.0, d + 1)[:, None]
    k = np.arange(d + 1)
    return np.array([math.comb(d, j) for j in k]) * t**k * (1.0 - t) ** (d - k)


def _bernstein_system(parts, m):
    """Rows A theta >= b putting every Bernstein coefficient inside its bound.

    Per coefficient the lower-bound row (M, lo) and the upper-bound row
    (-M, -hi), where finite.  Also returns V, whose rows with b bound the
    derivative's value at the matching node of each box (an outer
    relaxation; corner nodes give the corner coefficients), each row's box,
    numbered across the partitions, and whether the row bounds a corner value.
    """
    A, V, b = [np.zeros((0, m))], [np.zeros((0, m))], [np.zeros(0)]
    box, corner = [np.zeros(0, int)], [np.zeros(0, bool)]
    first = 0
    for part in parts:
        M = part.coeffs.reshape(-1, m)
        values = part.coeffs
        for axis, d in enumerate(part.degrees):
            values = np.moveaxis(np.tensordot(_node_values(d), values, axes=(1, axis + 1)), 0, axis + 1)
        values = values.reshape(-1, m)
        ids = np.repeat(np.arange(first, first + len(part.side)), len(part.corner))
        at_corner = np.tile(part.corner, len(part.side))
        for sign, bound in ((1.0, part.bound.lo), (-1.0, part.bound.hi)):
            if np.isfinite(bound):
                A.append(sign * M)
                V.append(sign * values)
                b.append(np.full(len(M), sign * bound))
                box.append(ids)
                corner.append(at_corner)
        first += len(part.side)
    return np.vstack(A), np.vstack(V), np.concatenate(b), np.concatenate(box), np.concatenate(corner)


def _split_boxes(parts, chosen) -> bool:
    """Halve the chosen boxes (one flag per box, parts in order) along their
    widest axis by de Casteljau's algorithm, the order in which certify
    splits them.

    Returns False, splitting nothing, when no chosen box has a side to halve
    or the partitions would grow past MAX_FIT_ROWS rows.
    """
    picks = np.split(chosen, np.cumsum([len(p.side) for p in parts])[:-1])
    picks = [pick & (p.side.max(axis=1) > 0.0) for p, pick in zip(parts, picks)]
    rows = sum((len(p.side) + int(pick.sum())) * p.rows_per_box for p, pick in zip(parts, picks))
    if not any(pick.any() for pick in picks) or rows > MAX_FIT_ROWS:
        return False
    for part, pick in zip(parts, picks):
        coeffs, side = [part.coeffs[~pick]], [part.side[~pick]]
        widest = np.argmax(part.side, axis=1)
        for axis, d in enumerate(part.degrees):
            sel = pick & (widest == axis)
            if not sel.any():
                continue
            # (left|right, coefficient along axis, box, other axes) -> boxes, lefts first
            halves = np.tensordot(_split_matrix(d), part.coeffs[sel], axes=(1, axis + 1))
            halves = halves.reshape(2, d + 1, *halves.shape[1:])
            coeffs.append(np.moveaxis(halves, 1, axis + 2).reshape(-1, *part.coeffs.shape[1:]))
            half = part.side[sel].copy()
            half[:, axis] /= 2.0
            side.append(np.tile(half, (2, 1)))
        part.coeffs, part.side = np.concatenate(coeffs), np.concatenate(side)
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
    converged: bool


def _objective(X, y, theta, lam, alpha):
    n = X.shape[0]
    resid = X @ theta - y
    pen = theta[1:]
    return (
        resid @ resid / n
        + lam * (alpha * np.abs(pen).sum() + 0.5 * (1.0 - alpha) * pen @ pen)
    )


def _nnls(E: np.ndarray, f: np.ndarray, max_iter: int) -> tuple[np.ndarray, int, bool]:
    """Lawson–Hanson active-set solution of min ||E u - f|| subject to u >= 0.

    Returns (u, least-squares subproblems solved, finished); finished is
    False when max_iter subproblems did not reach the optimum.
    """
    u = np.zeros(E.shape[1])
    passive = np.zeros(E.shape[1], dtype=bool)
    tol = 10.0 * np.finfo(float).eps * max(E.shape) * np.abs(E).sum(axis=0).max()
    w = E.T @ f
    iterations = 0
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


def _least_distance(G: np.ndarray, h: np.ndarray, max_iter: int) -> tuple[np.ndarray, int, bool]:
    """min ||z|| subject to G z >= h, through NNLS on its dual.

    Lawson & Hanson, *Solving Least Squares Problems* (1974), ch. 23: with
    u >= 0 minimizing ||[G^T; h^T] u - e_last||, residual r, the solution is
    z = -r[:-1] / r[-1], and r == 0 means the rows are inconsistent.
    Returns (z, NNLS iterations, whether NNLS finished).
    """
    norms = np.linalg.norm(G, axis=1)
    zero = norms == 0.0
    if np.any(h[zero] > 0.0):
        raise InfeasibleError("a constraint row with zero coefficients requires 0 >= b > 0")
    G = G[~zero] / norms[~zero, None]
    h = h[~zero] / norms[~zero]
    # scaled so the farthest single row is at distance 1
    scale = float(h.max(initial=0.0))
    if scale <= 0.0:
        return np.zeros(G.shape[1]), 0, True
    E = np.vstack([G.T, h / scale])
    f = np.zeros(E.shape[0])
    f[-1] = 1.0
    u, iterations, finished = _nnls(E, f, max_iter)
    r = E @ u - f
    # -r[-1] = 1 / (1 + ||z / scale||^2): the rows admit no point within
    # 1e6 times the distance of the farthest single row
    if finished and -r[-1] <= 1e-12:
        raise InfeasibleError("the compiled constraint system has no solution")
    return -scale * r[:-1] / min(r[-1], -1e-12), iterations, finished


def _solve_least_squares(X, y, lam, alpha, A, b, max_iter) -> SolveResult | None:
    """Exact solve when lam*alpha == 0: (ridge) least squares, optionally under A theta >= b.

    The objective is ||E phi - f||^2 for the design stacked with the
    sqrt(lam/2) ridge rows, in columns scaled to unit RMS (theta = phi / s).
    Unconstrained, a rank-deficient stack gets the minimum-norm phi.  With
    constraints it has no unique solution, so None is returned and the
    caller falls back to the iterative solver.
    """
    n, m = X.shape
    s = np.sqrt((X * X).mean(axis=0))
    s = np.where(s > 1e-12, s, 1.0)
    E = X / (s * np.sqrt(n))
    f = y / np.sqrt(n)
    if lam:
        E = np.vstack([E, np.sqrt(lam / 2.0) * np.eye(m)[1:] / s])
        f = np.concatenate([f, np.zeros(m - 1)])
    U, sv, Vt = np.linalg.svd(E, full_matrices=False)
    keep = sv > sv[0] * max(E.shape) * np.finfo(float).eps
    Utf = U.T @ f
    phi = Vt[keep].T @ (Utf[keep] / sv[keep])
    iterations, finished = 0, True
    if A.shape[0]:
        if keep.sum() < m:
            return None
        # LSI -> LDP: with z = S V^T phi - U^T f the objective is ||z||^2 plus
        # a constant, and A theta >= b becomes G z >= h
        W = Vt.T / sv
        As = A / s
        z, iterations, finished = _least_distance(As @ W, b - As @ phi, max_iter)
        phi = phi + W @ z
    theta = phi / s
    return SolveResult(
        theta=theta,
        iterations=iterations,
        max_violation=float(max((b - A @ theta).max(initial=-np.inf), 0.0)),
        objective=_objective(X, y, theta, lam, alpha),
        converged=finished,
    )


def solve_elastic_net(
    X: np.ndarray,
    y: np.ndarray,
    lam: float,
    alpha: float,
    A: np.ndarray | None = None,
    b: np.ndarray | None = None,
    *,
    solver_tol: float = 1e-8,
    max_iter: int = 50000,
) -> SolveResult:
    """Elastic-net QP solver.

    Column 0 of X (the intercept) is never penalized.  Constraints are
    A theta >= b; pass A=None for the unconstrained problem.  Without a
    1-norm term (lam*alpha == 0) the problem is solved exactly: least
    squares, or least squares with inequalities through NNLS.  The
    augmented-Lagrangian / proximal-gradient loop handles the 1-norm term
    and a rank-deficient constrained design.  SolverError means the
    iteration budget ran out, the violation stalled with the penalty at its
    cap, or the rows are left violated by more than solver_tol;
    InfeasibleError means the rows admit no solution.
    """
    n, m = X.shape
    if A is None or A.shape[0] == 0:
        A = np.zeros((0, m))
        b = np.zeros(0)
    k = A.shape[0]

    if lam * alpha == 0.0:
        exact = _solve_least_squares(X, y, lam, alpha, A, b, max_iter)
        if exact is not None:
            if not exact.converged or exact.max_violation > solver_tol:
                raise SolverError(
                    f"exact solve stopped after {exact.iterations} NNLS iterations "
                    f"at violation {exact.max_violation:.3e} (solver_tol {solver_tol:.1e})",
                    last_iterate=exact.theta,
                    residual=exact.max_violation,
                )
            return exact

    # Preconditioning: theta = T phi.  Without a 1-norm term (lam*alpha == 0,
    # here only a rank-deficient constrained design) the prox is the
    # identity, so a T that whitens the design is legal and tames the
    # near-singular Gram matrix.  With a 1-norm term the soft-threshold prox
    # needs separable coordinates, so T stays diagonal (columns of X scaled
    # to unit RMS).
    s = np.sqrt((X * X).mean(axis=0))
    s = np.where(s > 1e-12, s, 1.0)
    T = None
    if lam * alpha == 0.0 and m > 1:
        # Whitening via SVD; singular directions the data cannot identify
        # (rank-deficient designs) keep unit scale and are left to the
        # 2-norm penalty and the constraints.
        _, sv, Vt = np.linalg.svd(X / s)
        sv = np.concatenate([sv, np.zeros(m - len(sv))])  # wide designs
        cut = max(sv[0], 1e-300) * 1e-10
        inv = np.where(sv > cut, np.sqrt(n / 2.0) / np.maximum(sv, cut), 1.0)
        T = (Vt.T * inv) / s[:, None]
    diagonal_T = T is None
    if diagonal_T:
        T = np.diag(1.0 / s)
    Xs = X @ T
    As = A @ T
    bs = b
    if k:
        # Row equilibration (a positive row scale leaves the constraint set
        # unchanged) keeps the penalty Hessian from dominating the smooth part.
        row_norm = np.linalg.norm(As, axis=1)
        row_norm = np.where(row_norm > 1e-12, row_norm, 1.0)
        As = As / row_norm[:, None]
        bs = b / row_norm
        # drop duplicate rows (coarse grids on low-order derivatives produce them)
        _, keep = np.unique(np.round(np.column_stack([As, bs]), 12), axis=0, return_index=True)
        if len(keep) < k:
            keep = np.sort(keep)
            As = As[keep]
            bs = bs[keep]
            row_norm = row_norm[keep]
            k = len(keep)
        # the exact consistency test: inconsistent rows raise InfeasibleError
        _least_distance(As, bs, max_iter)
    else:
        row_norm = np.ones(0)

    G = (2.0 / n) * (Xs.T @ Xs)
    if lam and alpha < 1.0:
        # fold the (smooth) 2-norm penalty on theta[1:] into the quadratic
        G = G + lam * (1.0 - alpha) * (T[1:].T @ T[1:])
    c = (2.0 / n) * (Xs.T @ y)
    y_sq = float(y @ y) / n
    w = np.zeros(m)
    if diagonal_T:
        w[1:] = lam * alpha / s[1:]

    eig_G = float(np.linalg.eigvalsh(G)[-1]) if m > 1 else float(G[0, 0])
    eig_A = 0.0
    if k:
        AtA = As.T @ As
        eig_A = float(np.linalg.eigvalsh(AtA)[-1])

    phi = np.zeros(m)
    mu = np.zeros(k)
    rho = 10.0 if k else 0.0
    # The quadratic penalty averages over rows so its curvature stays
    # comparable to the loss no matter how finely constraints are gridded.
    inv_k = 1.0 / k if k else 0.0

    def smooth_grad(p):
        g = G @ p - c
        if k:
            slack = np.maximum(0.0, rho * (bs - As @ p) + mu)
            g -= inv_k * (As.T @ slack)
        return g

    def full_obj(p):
        val = 0.5 * p @ (G @ p) - c @ p + y_sq + w @ np.abs(p)
        if k:
            slack = np.maximum(0.0, rho * (bs - As @ p) + mu)
            val += inv_k * (slack @ slack - mu @ mu) / (2.0 * rho)
        return float(val)

    def prox(p, step):
        out = np.sign(p) * np.maximum(np.abs(p) - step * w, 0.0)
        out[0] = p[0]  # unpenalized intercept
        return out

    total_iter = 0
    max_outer = 100 if k else 1
    prev_viol = np.inf
    converged = False

    for _outer in range(max_outer):
        L = 1.01 * (eig_G + rho * inv_k * eig_A) + 1e-12
        step = 1.0 / L
        f_cur = full_obj(phi)
        z = phi.copy()
        t = 1.0
        inner_converged = False
        stall = 0
        inner_budget = min(max_iter - total_iter, 20000)
        for _ in range(inner_budget):
            total_iter += 1
            cand = prox(z - step * smooth_grad(z), step)
            f_cand = full_obj(cand)
            if f_cand <= f_cur:
                new_phi = cand
                f_new = f_cand
                t_new = 0.5 * (1.0 + np.sqrt(1.0 + 4.0 * t * t))
                z = new_phi + ((t - 1.0) / t_new) * (new_phi - phi)
                t = t_new
            else:
                # momentum overshoot: fall back to a plain descent step
                new_phi = prox(phi - step * smooth_grad(phi), step)
                f_new = min(full_obj(new_phi), f_cur)
                z = new_phi.copy()
                t = 1.0
            delta = float(np.max(np.abs(new_phi - phi))) if m else 0.0
            stall = stall + 1 if f_cur - f_new <= 1e-15 * (1.0 + abs(f_cur)) else 0
            phi = new_phi
            f_cur = f_new
            if delta <= INNER_TOL * (1.0 + float(np.max(np.abs(phi)))) or stall >= 200:
                inner_converged = True
                break

        if not k:
            converged = inner_converged
            break

        g = bs - As @ phi
        # convergence is judged in the caller's units, not equilibrated ones
        viol = float(max((row_norm * g).max(initial=-np.inf), 0.0))
        mu = np.maximum(0.0, mu + rho * g)
        if viol <= solver_tol and inner_converged:
            converged = True
            break
        if total_iter >= max_iter:
            break
        if viol > 0.25 * prev_viol:
            # Cap the penalty: past this point the multiplier updates alone
            # must close the gap.  The rows passed the exact consistency test
            # above, so a stall here is the solver's failure, not infeasibility.
            if rho < 1e9:
                rho *= PENALTY_GROWTH
            elif viol > max(1e6 * solver_tol, 1e-4) and viol > 0.9 * prev_viol:
                raise SolverError(
                    f"constraint violation stalled at {viol:.3e} with the penalty at its "
                    f"cap {rho:.1e}",
                    last_iterate=T @ phi,
                    residual=viol,
                )
        prev_viol = viol

    theta = T @ phi
    if k:
        g = b - A @ theta
        max_violation = float(max(g.max(initial=-np.inf), 0.0))
    else:
        max_violation = 0.0

    if not converged:
        raise SolverError(
            f"solver did not converge within {max_iter} iterations "
            f"(violation {max_violation:.3e})",
            last_iterate=theta,
            residual=max_violation,
        )

    return SolveResult(
        theta=theta,
        iterations=total_iter,
        max_violation=max_violation,
        objective=_objective(X, y, theta, lam, alpha),
        converged=converged,
    )


# ---------------------------------------------------------------------------
# fitting
# ---------------------------------------------------------------------------


def _resolve_columns(data: Dataset, variables, target):
    target = target or data.target
    if variables is None:
        variables = [c for c in data.columns if c != target]
    return list(variables), target


def _report(X, y, result: SolveResult, t0) -> FitReport:
    resid = X @ result.theta - y
    return FitReport(
        train_rmse=float(np.sqrt(np.mean(resid**2))),
        objective_value=result.objective,
        iterations=result.iterations,
        max_sampled_violation=result.max_violation,
        wall_time_seconds=time.perf_counter() - t0,
    )


def fit_unconstrained(
    data: Dataset, config: SCPRConfig, variables=None, target=None
) -> tuple[PolyModel, FitReport]:
    """Elastic-net polynomial regression without shape constraints."""
    t0 = time.perf_counter()
    variables, target = _resolve_columns(data, variables, target)
    X, y = build_design_matrix(data, variables, target, config.degree)
    result = solve_elastic_net(
        X,
        y,
        config.lam,
        config.alpha,
        solver_tol=config.solver_tol,
        max_iter=config.max_iter,
    )
    model = PolyModel.from_coefficient_vector(variables, config.degree, result.theta)
    return model, _report(X, y, result, t0)


def fit_constrained(
    data: Dataset,
    config: SCPRConfig,
    constraints,
    variables=None,
    target=None,
) -> tuple[PolyModel, FitReport]:
    """Shape-constrained fit on Bernstein-coefficient rows.

    Every iterate satisfies the constraints on their whole regions; see the
    module docstring for the refinement.  The report's max_sampled_violation
    is the largest breach of a Bernstein row, an upper bound on the model's
    breach, and optimality_gap is the relative gap to the lower bound when
    refinement stopped.  InfeasibleError means the node values alone admit
    no solution, or the rows of every partition tried did not; SolverError
    means the first solve that admitted a fit missed solver_tol.
    """
    t0 = time.perf_counter()
    variables, target = _resolve_columns(data, variables, target)
    constraints = list(constraints)
    if not constraints:
        return fit_unconstrained(data, config, variables, target)
    X, y = build_design_matrix(data, variables, target, config.degree)
    basis = monomial_basis(len(variables), config.degree)
    parts = [_whole_region(c, variables, basis) for c in constraints]

    def solve(A, b):
        return solve_elastic_net(
            X, y, config.lam, config.alpha, A, b,
            solver_tol=config.solver_tol, max_iter=config.max_iter,
        )

    best = None  # (inner solve, gap) of the round the fit is taken from
    for _round in range(config.refine_rounds + 1):
        A, V, b, box, corner = _bernstein_system(parts, len(basis))
        try:
            inner = solve(A, b)
            if best is not None and inner.objective > best[0].objective * (1.0 + 1e-9):
                # a finer partition cannot raise the optimum: the solves are
                # inexact, and refining further cannot close the gap
                break
            # a row binds when its slack is within solver_tol, relative to the
            # size of its terms; with only corner rows binding, the inner
            # optimum is the outer one
            slack = A @ inner.theta - b
            split = ~corner & (slack <= config.solver_tol * (1.0 + np.abs(A) @ np.abs(inner.theta)))
            gap = 0.0
            if split.any() and inner.objective > 0.0:
                outer = solve(V, b)
                gap = max(inner.objective - outer.objective, 0.0) / inner.objective
            best = (inner, gap)
            if gap <= GAP_TOL:
                break
        except InfeasibleError:
            solve(V, b)  # raises when the node values admit no solution
            split = ~corner
        except SolverError:
            if best is None:
                raise
            break  # keep the last round's fit
        chosen = np.bincount(box[split], minlength=sum(len(p.side) for p in parts)) > 0
        if _round == config.refine_rounds or not _split_boxes(parts, chosen):
            break
    if best is None:
        raise InfeasibleError(
            f"no fit meets the Bernstein rows of {sum(len(p.side) for p in parts)} boxes, "
            "though the derivative values at their nodes admit one"
        )
    inner, gap = best
    model = PolyModel.from_coefficient_vector(variables, config.degree, inner.theta)
    report = _report(X, y, inner, t0)
    report.optimality_gap = float(gap)
    return model, report
