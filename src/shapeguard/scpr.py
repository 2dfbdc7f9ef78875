"""Shape-constrained polynomial regression.

The model is an elastic-net penalized least-squares polynomial; shape
constraints (bounds on the value or partial derivatives over a box) are
discretized on tensor grids into linear inequalities on the coefficient
vector, compiled straight into one array system.  The resulting problem

    min (1/n)||X theta - y||^2
        + lambda * (alpha * ||theta_-0||_1 + (1-alpha)/2 * ||theta_-0||_2^2)
    s.t. A theta >= b

is solved exactly when it has no 1-norm term (lambda * alpha == 0): as
(ridge) least squares, and under constraints as least squares with
inequalities reduced to least distance programming and NNLS (Lawson & Hanson
1974, ch. 23).  With a 1-norm term, or a constrained design of deficient
rank, an augmented-Lagrangian outer loop with a monotone accelerated
proximal-gradient inner loop solves it (soft-thresholding handles the
1-norm; the intercept is never penalized).  Both paths detect an
inconsistent system in the same way: the least-distance problem on the rows
has no solution, and InfeasibleError is raised.  After the grid fit,
violating points found by dense sampling are appended as cutting planes and
the fit is repeated, which drives the true worst-case violation down to
solver tolerance; a fit that does not get there within its refinement rounds
raises SolverError.
"""

from __future__ import annotations

import time
from dataclasses import dataclass

import numpy as np

from .datasets import Dataset
from .errors import (
    BudgetError,
    DataError,
    InfeasibleError,
    SchemaError,
    SolverError,
)
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
# iterative solver: growth of the penalty rho while the violation stalls, and
# the relative coefficient step at which an inner phase has converged
PENALTY_GROWTH = 10.0
INNER_TOL = 1e-10


@dataclass
class SCPRConfig:
    degree: int = 3
    lam: float = 0.0
    alpha: float = 0.0
    grid_points_per_dim: int = 8
    solver_tol: float = 1e-8
    max_iter: int = 50000
    # cutting-plane refinement after the grid fit
    refine_rounds: int = 20
    refine_points_per_dim: int = 0  # 0 = auto from a 2e4-point budget

    def __post_init__(self):
        if self.degree < 1:
            raise SchemaError(f"degree must be >= 1, got {self.degree}")
        if not 0.0 <= self.alpha <= 1.0:
            raise SchemaError(f"alpha must be in [0, 1], got {self.alpha}")
        if self.lam < 0.0:
            raise SchemaError(f"lambda must be >= 0, got {self.lam}")


@dataclass
class FitReport:
    train_rmse: float
    objective_value: float
    iterations: int
    max_sampled_violation: float
    wall_time_seconds: float

    def to_dict(self) -> dict:
        return {
            "train_rmse": self.train_rmse,
            "objective_value": self.objective_value,
            "iterations": self.iterations,
            "max_sampled_violation": self.max_sampled_violation,
            "wall_time_seconds": self.wall_time_seconds,
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


def _grid_points(region, variables, points_per_dim):
    axes = []
    for v in variables:
        iv = region[v]
        if iv.lo == iv.hi:
            axes.append(np.array([iv.lo]))
        else:
            axes.append(np.linspace(iv.lo, iv.hi, points_per_dim))
    return axes


def _rows_for_points(constraint, variables, basis, points: dict):
    """Rows (A, b) of A theta >= b for a constraint at explicit points.

    points maps each variable to a coordinate array.  Per point, the
    lower-bound row (M, lo) comes first, then the upper-bound row (-M, -hi),
    each only where that side of the bound is finite.
    """
    dtuple = constraint.derivative_tuple(variables)
    factors = _derivative_row_factors(basis, dtuple)
    n_pts = len(next(iter(points.values())))
    cols = [np.asarray(points[v], dtype=float) for v in variables]
    M = np.empty((n_pts, len(basis)))
    for j, (factor, reduced) in enumerate(factors):
        if factor == 0.0:
            M[:, j] = 0.0
            continue
        col = np.full(n_pts, factor)
        for x, e in zip(cols, reduced):
            if e:
                col = col * x**e
        M[:, j] = col
    sides = []
    if np.isfinite(constraint.bound.lo):
        sides.append((M, constraint.bound.lo))
    if np.isfinite(constraint.bound.hi):
        sides.append((-M, -constraint.bound.hi))
    A = np.stack([S for S, _ in sides], axis=1).reshape(-1, len(basis))
    b = np.tile(np.array([r for _, r in sides], dtype=float), n_pts)
    return A, b


def compile_constraints(
    constraints, variables, degree: int, grid_points_per_dim: int = 8
) -> LinearConstraintSystem:
    """Discretize shape constraints on tensor grids (corners included)."""
    basis = monomial_basis(len(variables), degree)
    rows, rhs = [np.zeros((0, len(basis)))], [np.zeros(0)]
    total = 0
    for c in constraints:
        axes = _grid_points(c.region, variables, grid_points_per_dim)
        n_pts = int(np.prod([len(a) for a in axes]))
        sides = int(np.isfinite(c.bound.lo)) + int(np.isfinite(c.bound.hi))
        total += n_pts * sides
        if total > MAX_COMPILED_ROWS:
            raise BudgetError(
                f"compiled constraint system exceeds {MAX_COMPILED_ROWS} rows; "
                "lower grid_points_per_dim"
            )
        mesh = np.meshgrid(*axes, indexing="ij")
        points = {v: m.reshape(-1) for v, m in zip(variables, mesh)}
        A, b = _rows_for_points(c, variables, basis, points)
        rows.append(A)
        rhs.append(b)
    return LinearConstraintSystem(np.vstack(rows), np.concatenate(rhs))


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
    theta0: np.ndarray | None = None,
    rho0: float = 10.0,
) -> SolveResult:
    """Elastic-net QP solver.

    Column 0 of X (the intercept) is never penalized.  Constraints are
    A theta >= b; pass A=None for the unconstrained problem.  Without a
    1-norm term (lam*alpha == 0) the problem is solved exactly: least
    squares, or least squares with inequalities through NNLS.  The
    augmented-Lagrangian / proximal-gradient loop handles the 1-norm term
    and a rank-deficient constrained design.  SolverError means the
    iteration budget ran out or the rows are left violated by more than
    solver_tol; InfeasibleError means the rows admit no solution.
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

    phi = np.linalg.solve(T, theta0) if theta0 is not None else np.zeros(m)
    mu = np.zeros(k)
    rho = float(rho0) if k else 0.0
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
            # must close the gap, and a stalled large violation means the
            # constraint system has no solution.
            if rho < 1e9:
                rho *= PENALTY_GROWTH
            elif viol > max(1e6 * solver_tol, 1e-4) and viol > 0.9 * prev_viol:
                raise InfeasibleError(
                    f"constraint violation stalled at {viol:.3e} with penalty {rho:.1e}; "
                    "the compiled system appears infeasible"
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


def _auto_refine_points(n_vars: int, requested: int) -> int:
    if requested > 0:
        return requested
    # the grid only has to land in each violation basin; zooming supplies
    # the precision, so a modest budget is enough
    budget = 2 * 10**4
    return max(2, min(512, int(budget ** (1.0 / n_vars))))


def _zoom_extremum(deriv: PolyModel, region, start: dict, sign: float, spacing: dict):
    """Locate a local extremum of the derivative polynomial by grid zooming.

    Starting from a coarse-grid extremum, repeatedly re-grid a shrinking
    window around the best point (sign=+1 minimizes, -1 maximizes).  The
    window starts at the coarse spacing, so the true extremum hiding between
    coarse samples is inside it.
    """
    variables = deriv.variables
    point = dict(start)
    half = {v: max(spacing[v], 0.0) for v in variables}
    best = sign * deriv.evaluate(point)
    for _ in range(10):
        axes = []
        for v in variables:
            iv = region[v]
            lo = max(iv.lo, point[v] - half[v])
            hi = min(iv.hi, point[v] + half[v])
            axes.append(np.array([lo]) if lo == hi else np.linspace(lo, hi, 9))
        mesh = np.meshgrid(*axes, indexing="ij")
        cols = {v: m.reshape(-1) for v, m in zip(variables, mesh)}
        vals = sign * deriv.evaluate_columns(cols)
        i = int(np.argmin(vals))
        if vals[i] < best:
            best = float(vals[i])
            point = {v: float(cols[v][i]) for v in variables}
        half = {v: h / 4.0 for v, h in half.items()}
    return best * sign, point


def _separated_candidates(vals, cols, variables, spacing, sign, max_pts=8):
    """Up to max_pts extremum starting points, pairwise >= 2 grid steps apart.

    Candidates are picked best-first, so separate basins each get a cutting
    plane per refinement round instead of one basin per round.
    """
    order = np.argsort(sign * vals)
    picked = []
    for i in order[: 64 * max_pts]:
        cand = {v: float(cols[v][int(i)]) for v in variables}
        close = any(
            all(
                abs(cand[v] - prev[v]) <= 2.0 * spacing[v] + 1e-300
                for v in variables
            )
            for prev in picked
        )
        if not close:
            picked.append(cand)
            if len(picked) >= max_pts:
                break
    if not picked:
        i = int(order[0])
        picked.append({v: float(cols[v][i]) for v in variables})
    return picked


def _sample_violations(model: PolyModel, constraints, points_per_dim: int):
    """Worst breach per constraint side: dense tensor grid plus local zooming.

    Returns (max_violation, per-constraint list of (violation, point dict)).
    """
    worst_overall = 0.0
    found = []
    variables = model.variables
    for c in constraints:
        deriv = model.derivative(c.derivative_tuple(variables))
        axes = _grid_points(c.region, variables, points_per_dim)
        spacing = {
            v: (float(a[1] - a[0]) if len(a) > 1 else 0.0) for v, a in zip(variables, axes)
        }
        mesh = np.meshgrid(*axes, indexing="ij")
        cols = {v: m.reshape(-1) for v, m in zip(variables, mesh)}
        vals = deriv.evaluate_columns(cols)
        entries = []
        if np.isfinite(c.bound.lo):
            # always polish the global grid minimum (the true minimum can dip
            # below the bound between grid nodes); other basins only when
            # their grid value already breaches
            for rank, start in enumerate(
                _separated_candidates(vals, cols, variables, spacing, 1.0)
            ):
                if rank > 0 and deriv.evaluate(start) >= c.bound.lo:
                    continue
                val, point = _zoom_extremum(deriv, c.region, start, 1.0, spacing)
                breach = float(c.bound.lo - val)
                if breach > 0:
                    entries.append((breach, point))
        if np.isfinite(c.bound.hi):
            for rank, start in enumerate(
                _separated_candidates(vals, cols, variables, spacing, -1.0)
            ):
                if rank > 0 and deriv.evaluate(start) <= c.bound.hi:
                    continue
                val, point = _zoom_extremum(deriv, c.region, start, -1.0, spacing)
                breach = float(val - c.bound.hi)
                if breach > 0:
                    entries.append((breach, point))
        found.append(entries)
        for breach, _ in entries:
            worst_overall = max(worst_overall, breach)
    return worst_overall, found


def fit_constrained(
    data: Dataset,
    config: SCPRConfig,
    constraints,
    variables=None,
    target=None,
) -> tuple[PolyModel, FitReport]:
    """Shape-constrained fit: grid-discretized QP plus cutting-plane refinement."""
    t0 = time.perf_counter()
    variables, target = _resolve_columns(data, variables, target)
    constraints = list(constraints)
    if not constraints:
        return fit_unconstrained(data, config, variables, target)
    X, y = build_design_matrix(data, variables, target, config.degree)
    basis = monomial_basis(len(variables), config.degree)
    system = compile_constraints(
        constraints, variables, config.degree, config.grid_points_per_dim
    )
    rows, rhs = system.rows, system.rhs

    refine_pts = _auto_refine_points(len(variables), config.refine_points_per_dim)
    # Rounds stop at a tenth of solver_tol, and the solver enforces the
    # discretized rows to a quarter of that, so the row error never decides
    # whether the sampled violation meets the target.
    refine_target = max(1e-9, 0.1 * config.solver_tol)
    inner_solver_tol = 0.25 * refine_target

    # Unconstrained warm start: rows comfortably satisfied there never enter
    # the working set (the dense re-sampling below re-checks everything).
    warm = solve_elastic_net(
        X,
        y,
        config.lam,
        config.alpha,
        solver_tol=inner_solver_tol,
        max_iter=config.max_iter,
    )
    theta0 = warm.theta
    best = None  # (violation, result, model)
    for _round in range(config.refine_rounds + 1):
        norms = np.linalg.norm(rows, axis=1)
        norms = np.where(norms > 0, norms, 1.0)
        near_active = (rows @ theta0 - rhs) / norms <= 1e-2
        A, b = rows[near_active], rhs[near_active]
        try:
            result = solve_elastic_net(
                X,
                y,
                config.lam,
                config.alpha,
                A,
                b,
                solver_tol=inner_solver_tol,
                max_iter=config.max_iter,
                theta0=theta0,
                # refits after the first start near the constrained solution, so
                # skip the penalty ramp-up that a colder start needs
                rho0=10.0 if _round == 0 else 1e6,
            )
        except SolverError as exc:
            # The last iterate is usually usable even when the final digit of
            # tolerance is out of reach; the dense violation sample below is
            # the arbiter, and the tolerance check after the loop raises if
            # no round produced an acceptable model.
            result = SolveResult(
                theta=exc.last_iterate,
                iterations=config.max_iter,
                max_violation=exc.residual,
                objective=_objective(X, y, exc.last_iterate, config.lam, config.alpha),
                converged=False,
            )
        theta0 = result.theta
        model = PolyModel.from_coefficient_vector(variables, config.degree, result.theta)
        sampled, found = _sample_violations(model, constraints, refine_pts)
        violation = max(sampled, result.max_violation)
        if best is None or violation < best[0]:
            best = (violation, result, model)
        if violation <= refine_target:
            break
        for c, entries in zip(constraints, found):
            if entries:
                pts = {v: np.array([point[v] for _, point in entries]) for v in variables}
                new_rows, new_rhs = _rows_for_points(c, variables, basis, pts)
                rows = np.vstack([rows, new_rows])
                rhs = np.concatenate([rhs, new_rhs])

    violation, result, model = best
    if violation > config.solver_tol:
        raise SolverError(
            f"constraint violation {violation:.3e} exceeds solver_tol "
            f"{config.solver_tol:.1e} after {config.refine_rounds} refinement rounds",
            last_iterate=result.theta,
            residual=violation,
        )
    report = _report(X, y, result, t0)
    # report the dense-sample violation, which is the stronger quantity
    report.max_sampled_violation = violation
    return model, report
