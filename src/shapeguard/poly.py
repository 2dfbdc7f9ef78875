"""Multivariate polynomials over a graded-lexicographic monomial basis.

A :class:`PolyModel` stores named variables, a total-degree bound, and a
coefficient per multi-index (missing indices mean zero).  Graded-lex order is
the canonical serialization order: terms sorted by total degree, then by
exponent tuple with earlier variables first (so for (x, y), degree 2 reads
``1, x, y, x^2, x*y, y^2``).

Bernstein form: a polynomial's coefficients in the tensor Bernstein basis of
a box enclose its range there, and those at the vertices of the coefficient
array are its values at the box's corners (Garloff 1986; Ray & Nataraj
2009).  ``certify``, the SCPR fit and ``PolyModel.interval_bound`` all bound
polynomials this way, and all take the first box's coefficients from one
linear map per (terms, derivative, box), ``_bernstein_map``.  Maps of a full
basis are cached: a fit and the certificate of a model with no zero
coefficient share them.  ``certify`` and the SCPR fit halve boxes with one
routine, ``_split`` (de Casteljau's algorithm), which fixes their order.
"""

from __future__ import annotations

import itertools
import json
import math
import numbers
from dataclasses import dataclass, field
from functools import lru_cache
from typing import Mapping, Sequence

import numpy as np

from .errors import ArityError, ConfigError, DomainError, SchemaError
from .intervals import Interval

__all__ = ["MultiIndex", "monomial_basis", "PolyModel"]

# Exponent tuple aligned with a variable-name list.
MultiIndex = tuple

def _grlex_key(alpha: MultiIndex):
    return (sum(alpha), tuple(-e for e in alpha))


def monomial_basis(n_vars: int, d: int) -> list[MultiIndex]:
    """All multi-indices of total degree <= d in graded-lex order.

    Count is C(n_vars + d, d).  Each call returns a new list.
    """
    if n_vars < 1:
        raise DomainError(f"n_vars must be >= 1, got {n_vars}")
    if d < 0:
        raise DomainError(f"degree must be >= 0, got {d}")
    return list(_basis(n_vars, d))


@lru_cache(maxsize=64)
def _basis(n_vars: int, d: int) -> tuple:
    powers = itertools.product(range(d + 1), repeat=n_vars)
    return tuple(sorted((alpha for alpha in powers if sum(alpha) <= d), key=_grlex_key))


def _monomial_derivative(alpha: MultiIndex, wrt: MultiIndex, coeff: float = 1.0):
    """The wrt-derivative of coeff * x**alpha as (coefficient, exponents), or
    None when it is zero because some exponent is below its order."""
    exponents = []
    for e, k in zip(alpha, wrt):
        if e < k:
            return None
        for j in range(k):
            coeff *= e - j
        exponents.append(e - k)
    return coeff, tuple(exponents)


def _derivative_terms(coeffs: Mapping, wrt: MultiIndex):
    """(exponents, coefficient) of each nonzero term of the wrt-derivative of
    the polynomial with these coefficients, in their order.  Distinct terms
    differentiate to distinct exponents, so no two of them merge."""
    for alpha, c in coeffs.items():
        term = _monomial_derivative(alpha, wrt, c)
        if term is not None and term[0] != 0.0:
            yield term[1], term[0]


def _sum_terms(terms, xs) -> tuple:
    """Sum of c * x**alpha over the (alpha, c) terms, in their order, at the
    point xs, and the sum of the rounded terms' absolute values."""
    total = magnitude = 0.0
    for alpha, c in terms:
        for x, e in zip(xs, alpha):
            if e:
                c *= x**e
        total += c
        magnitude += abs(c)
    return total, magnitude


def _json_loads(text: str, what: str):
    """json.loads; SchemaError when the text is not JSON."""
    try:
        return json.loads(text)
    except json.JSONDecodeError as exc:
        raise SchemaError(f"{what} is not valid JSON: {exc}") from None


def _json_field(obj, where: str, name: str, types, items=None):
    """obj[name]; SchemaError when obj is no object, lacks the field, or the
    field (or, given ``items``, one of its items or object values) has
    another type."""
    if not isinstance(obj, dict):
        raise SchemaError(f"{where} has type {type(obj).__name__}, not object")
    if name not in obj:
        raise SchemaError(f"{where}: missing field {name!r}")
    value = obj[name]
    if not isinstance(value, types) or isinstance(value, bool):
        raise SchemaError(f"{where}: field {name!r} has type {type(value).__name__}")
    for item in (value.values() if isinstance(value, dict) else value) if items is not None else ():
        if not isinstance(item, items) or isinstance(item, bool):
            raise SchemaError(f"{where}: field {name!r} holds an item of type {type(item).__name__}")
    return value


def _json_float(obj, where: str, name: str) -> float:
    """obj[name], a JSON number, as a float; SchemaError as _json_field, or
    when it is too large for a float."""
    try:
        return float(_json_field(obj, where, name, (int, float)))
    except OverflowError:
        raise SchemaError(f"{where}: field {name!r} is too large for a float") from None


# JSON types a setting may have, per type of the field it sets; numpy scalars are numbers too
_JSON_TYPES = {
    int: (numbers.Integral, "an integer"), float: (numbers.Real, "a number"), dict: (dict, "an object")
}


def _typed(where: str, value, kind):
    """value, or ConfigError naming ``where`` when its JSON type does not fit
    a field of type kind: an int field takes an integer, a float field a
    number that a float can hold, and a bool is neither."""
    types, name = _JSON_TYPES[kind]
    if isinstance(value, bool) or not isinstance(value, types):
        raise ConfigError(f"{where} must be {name}, got {json.dumps(value, default=repr)}")
    if kind is float:
        try:
            float(value)
        except OverflowError:
            raise ConfigError(f"{where} is too large for a float") from None
    return value


def _settings(where: str, settings, kinds: Mapping) -> dict:
    """settings, an object of fields; ConfigError naming ``where`` when it is
    no object, has keys that kinds lacks (all named, sorted) or has a value
    that _typed rejects for its field's kind."""
    if not isinstance(settings, dict):
        raise ConfigError(f"{where} must be an object, got {json.dumps(settings, default=repr)}")
    unknown = sorted(map(str, set(settings) - set(kinds)))
    if unknown:
        raise ConfigError(f"unknown {where} keys: {', '.join(unknown)}")
    return {k: _typed(f"{where} key {k!r}", v, kinds[k]) for k, v in settings.items()}


@dataclass(frozen=True)
class PolyModel:
    """Polynomial of bounded total degree with named variables."""

    variables: tuple
    degree: int
    coeffs: dict = field(default_factory=dict)

    def __post_init__(self):
        object.__setattr__(self, "variables", tuple(self.variables))
        nv = len(self.variables)
        if nv < 1:
            raise DomainError("a polynomial model needs at least one variable")
        if len(set(self.variables)) != nv:
            raise DomainError("duplicate variable names")
        clean = {}
        for alpha, c in self.coeffs.items():
            alpha = tuple(int(e) for e in alpha)
            if len(alpha) != nv or any(e < 0 for e in alpha):
                raise DomainError(f"bad multi-index {alpha} for {nv} variables")
            if sum(alpha) > self.degree:
                raise DomainError(f"multi-index {alpha} exceeds degree {self.degree}")
            c = float(c)
            if not math.isfinite(c):
                raise DomainError(f"non-finite coefficient for {alpha}")
            clean[alpha] = c
        object.__setattr__(self, "coeffs", clean)

    # -- evaluation --------------------------------------------------------

    def coefficient(self, alpha: MultiIndex) -> float:
        return self.coeffs.get(tuple(alpha), 0.0)

    def _require(self, point: Mapping) -> list:
        """The point's (or region's) entries in variable order."""
        try:
            return [point[v] for v in self.variables]
        except KeyError as exc:
            raise ArityError(f"missing variable {exc.args[0]!r}") from exc

    def evaluate(self, point: Mapping) -> float:
        """Sum of coeff * x**alpha at a single point."""
        return _sum_terms(self.coeffs.items(), self._require(point))[0]

    def evaluate_columns(self, columns: Mapping) -> np.ndarray:
        """Vectorized evaluation over equal-length column arrays."""
        cols = [np.asarray(columns[v], dtype=float) if v in columns else None for v in self.variables]
        if any(c is None for c in cols):
            missing = [v for v, c in zip(self.variables, cols) if c is None]
            raise ArityError(f"columns missing variables {missing}")
        n = len(cols[0])
        # power tables: each needed col**e is computed once, not per term
        max_exp = [0] * len(cols)
        for alpha in self.coeffs:
            for i, e in enumerate(alpha):
                max_exp[i] = max(max_exp[i], e)
        pows = []
        for col, top in zip(cols, max_exp):
            table = [None, col]
            for e in range(2, top + 1):
                table.append(table[-1] * col)
            pows.append(table)
        total = np.zeros(n)
        for alpha, c in self.coeffs.items():
            term = None
            for i, e in enumerate(alpha):
                if e:
                    term = pows[i][e] if term is None else term * pows[i][e]
            total += c if term is None else c * term
        return total

    def derivative(self, wrt: MultiIndex) -> "PolyModel":
        """Exact partial derivative; `wrt` gives the order per variable."""
        wrt = tuple(int(e) for e in wrt)
        if len(wrt) != len(self.variables):
            raise ArityError("derivative multi-index arity mismatch")
        coeffs = dict(_derivative_terms(self.coeffs, wrt))
        return PolyModel(self.variables, max(self.degree - sum(wrt), 0), coeffs)

    def derivative_of_var(self, var: str, order: int = 1) -> "PolyModel":
        wrt = tuple(order if v == var else 0 for v in self.variables)
        return self.derivative(wrt)

    def interval_bound(self, region: Mapping) -> Interval:
        """Enclosure of the range over a bounded box: the extreme tensor
        Bernstein coefficients on it, widened by their rounding-error bound
        (the first box of ``certify``); (-inf, inf) when they overflow."""
        box = self._require(region)
        if not all(iv.is_finite() for iv in box):
            raise DomainError(f"interval_bound needs a bounded box, got {region}")
        lo, hi = tuple(iv.lo for iv in box), tuple(iv.hi for iv in box)
        coeffs, err, _ = _first_box(*_terms(self), (0,) * len(box), lo, hi)
        if not (np.isfinite(err[0]) and np.isfinite(coeffs).all()):
            return Interval.whole()
        return Interval(float(coeffs.min() - err[0]), float(coeffs.max() + err[0]))

    # -- serialization -------------------------------------------------------

    def to_json(self) -> str:
        """Canonical JSON: graded-lex terms, 17-significant-digit coefficients."""
        parts = []
        for alpha, c in sorted(self.coeffs.items(), key=lambda kv: _grlex_key(kv[0])):
            exps = ", ".join(str(e) for e in alpha)
            parts.append(f'{{"exponents": [{exps}], "coeff": {format(c, ".17g")}}}')
        variables = ", ".join(json.dumps(v) for v in self.variables)
        terms = ", ".join(parts)
        return f'{{"variables": [{variables}], "degree": {self.degree}, "terms": [{terms}]}}'

    @classmethod
    def from_json(cls, text: str) -> "PolyModel":
        """Inverse of to_json; SchemaError names a missing or ill-typed field."""
        obj = _json_loads(text, "model")
        variables = _json_field(obj, "model", "variables", list, str)
        degree = _json_field(obj, "model", "degree", int)
        coeffs = {}
        for i, term in enumerate(_json_field(obj, "model", "terms", list)):
            exponents = tuple(_json_field(term, f"model term {i}", "exponents", list, int))
            coeffs[exponents] = _json_float(term, f"model term {i}", "coeff")
        return cls(tuple(variables), degree, coeffs)

    @classmethod
    def from_coefficient_vector(
        cls, variables: Sequence, degree: int, theta: Sequence
    ) -> "PolyModel":
        basis = monomial_basis(len(variables), degree)
        if len(theta) != len(basis):
            raise DomainError(f"expected {len(basis)} coefficients, got {len(theta)}")
        coeffs = {a: float(t) for a, t in zip(basis, theta) if t != 0.0}
        return cls(tuple(variables), degree, coeffs)

    def coefficient_vector(self) -> np.ndarray:
        basis = monomial_basis(len(self.variables), self.degree)
        return np.array([self.coefficient(a) for a in basis])


# ---------------------------------------------------------------------------
# Bernstein form
# ---------------------------------------------------------------------------


def _gamma(k: int) -> float:
    """Higham's gamma_k: bounds the relative error of k float64 roundings."""
    return k * 2.0**-53 / (1.0 - k * 2.0**-53)


def _binomials(d: int) -> np.ndarray:
    return np.array([[math.comb(m, k) for k in range(d + 1)] for m in range(d + 1)], dtype=float)


def _read_only(matrix: np.ndarray) -> np.ndarray:
    matrix.flags.writeable = False
    return matrix


# The matrices below depend only on a degree and a box, never on data, so few
# distinct ones occur: they are cached, and so read-only.


@lru_cache(maxsize=256)
def _bernstein_matrix(lo: float, width: float, d: int) -> np.ndarray:
    """Matrix taking the power coefficients of x to degree-d Bernstein
    coefficients on [lo, lo + width].

    It is ``E @ P``: P[k, j] = C(j, k) lo**(j-k) width**k rewrites x**j in
    t with x = lo + width * t, and E[m, k] = C(m, k) / C(d, k) takes t**k to
    the Bernstein basis.  Against the same sum built from |lo|, each entry
    carries at most 3d + 2 roundings: width once, and its powers d - 1 times
    more, lo's powers d - 1 times, two products, one division, d + 1 terms.
    """
    binom = _binomials(d)
    k, j = np.indices((d + 1, d + 1))
    lo_pow = np.cumprod(np.r_[1.0, np.full(d, lo)])
    width_pow = np.cumprod(np.r_[1.0, np.full(d, width)])
    return _read_only((binom / binom[d]) @ (binom[j, k] * lo_pow[np.maximum(j - k, 0)] * width_pow[k]))


@lru_cache(maxsize=64)
def _split_matrix(d: int) -> np.ndarray:
    """De Casteljau at t = 1/2: rows 0..d give the left half's coefficients,
    rows d+1..2d+1 the right half's.  The entries are dyadic, so exact, and
    each row is nonnegative and sums to 1."""
    binom = _binomials(d)
    m, j = np.indices((d + 1, d + 1))
    right = binom[d - m, np.maximum(j - m, 0)] * (j >= m) / 2.0 ** (d - m)
    return _read_only(np.vstack([binom / 2.0**m, right]))


def _split(coeffs: np.ndarray, corner: np.ndarray, side: np.ndarray, axes: np.ndarray) -> tuple:
    """Halve each box along every axis that its row of ``axes`` flags, by de
    Casteljau's algorithm: a box flagged on k axes becomes 2**k boxes.

    ``coeffs`` holds boxes first, then one axis per variable, then any
    trailing axes; ``corner`` and ``side`` hold each box's lower corner and
    side lengths, 0 on axes of degree 0 (a flagged side must be positive);
    ``axes`` is a boxes x variables mask.  Returns the coefficients, corners,
    sides and parent's index of the boxes not flagged, in their order, then
    of the halves: each axis in ascending order moves the boxes it halves to
    the end, as their left halves followed by their right halves.  With one
    flag per box this is, per axis, the left halves of the boxes split along
    it, then their right halves.
    """
    keep = ~axes.any(axis=1)
    out = [(coeffs[keep], corner[keep], side[keep], np.flatnonzero(keep))]
    coeffs, corner, side, axes = coeffs[~keep], corner[~keep], side[~keep], axes[~keep]
    parent = np.flatnonzero(~keep)
    for axis in np.flatnonzero(axes.any(axis=0)).tolist():
        sel = axes[:, axis]
        d = coeffs.shape[axis + 1] - 1
        # (left|right, coefficient along axis, box, other axes) -> boxes, lefts first
        halves = np.tensordot(_split_matrix(d), coeffs[sel], axes=(1, axis + 1))
        halves = np.moveaxis(halves.reshape(2, d + 1, *halves.shape[1:]), 1, axis + 2)
        half, right = side[sel].copy(), corner[sel].copy()
        half[:, axis] /= 2.0
        right[:, axis] += half[:, axis]
        rest = ~sel
        coeffs = np.concatenate([coeffs[rest], halves.reshape(-1, *coeffs.shape[1:])])
        corner = np.concatenate([corner[rest], corner[sel], right])
        side = np.concatenate([side[rest], half, half])
        parent, axes = (np.concatenate([a[rest], a[sel], a[sel]]) for a in (parent, axes))
    out.append((coeffs, corner, side, parent))
    return tuple(np.concatenate(parts) for parts in zip(*out))


@lru_cache(maxsize=256)
def _frame(degrees: tuple, lo: tuple, hi: tuple) -> tuple:
    """The first box [lo, hi] as a row of lower corners and one of side lengths
    (0 on axes of degree 0); the flat indices of its corner coefficients, in
    C order, and per corner whether it lies at the upper end of each axis.
    Cached, so read-only."""
    side = np.where(np.array(degrees) > 0, np.subtract(hi, lo), 0.0)
    index = np.array(list(itertools.product(*([0, d] if d else [0] for d in degrees))))
    corners = np.ravel_multi_index(index.T, tuple(d + 1 for d in degrees))
    return tuple(map(_read_only, (np.array(lo, dtype=float)[None], side[None], corners, index > 0)))


def _terms(model: PolyModel) -> tuple:
    """Exponents (a support for ``_bernstein_map``), coefficients and their
    absolute values of the model's nonzero terms, and whether they are its full
    basis in basis order, as in most fits."""
    support = tuple(alpha for alpha, c in model.coeffs.items() if c != 0.0)
    theta = np.array([model.coeffs[alpha] for alpha in support])
    return support, theta, np.abs(theta), support == _basis(len(model.variables), model.degree)


@lru_cache(maxsize=256)
def _bernstein_map(support: tuple, wrt: tuple, lo: tuple, hi: tuple) -> tuple:
    """Map from the coefficients theta of x**alpha_j, alpha_j in ``support``,
    to the tensor Bernstein coefficients on the box [lo, hi] of their sum's
    wrt-derivative (``map @ theta``); weights with which ``|theta| @ weights``
    bounds the absolute error of ``map @ theta``; the degree per variable.

    Column j, f_j x**e_j with f_j an exact integer, is f_j times one entry
    of each axis's Bernstein matrix, multiplied in axis order: one rounding
    per axis.  A degree-d matrix entry carries at most 3d + 2 roundings
    against the same sum built from |lo|, at most r**k in column k for
    r = |lo| + (hi - lo).  The product with theta rounds once per live
    term, in any order, FMA included.  So K = sum(3 d_i + 3) + live terms,
    and weights_j = gamma_{2K+2} |f_j| prod(r**e_j): doubled, plus two, to
    cover rounding the weights and ``|theta| @ weights`` too.  An overflow
    gives non-finite entries, and no warning.  Cached, so read-only.
    """
    factor = np.array([math.prod(map(math.perm, alpha, wrt)) for alpha in support], dtype=float)
    # exponents of the derivative, 0 for the terms it loses
    exponents = (np.array(support, dtype=np.int64).reshape(-1, len(wrt)) - wrt) * (factor != 0.0)[:, None]
    degrees = tuple(int(d) for d in exponents.max(axis=0, initial=0))
    radius = np.abs(lo) + np.subtract(hi, lo)
    with np.errstate(over="ignore", invalid="ignore"):
        matrix = factor
        for axis, d in enumerate(degrees):
            step = _bernstein_matrix(lo[axis], hi[axis] - lo[axis], d)
            matrix = matrix[..., None, :] * step[:, exponents[:, axis]]
        weights = factor * np.prod(radius ** exponents, axis=1)
        weights *= _gamma(2 * (sum(3 * d + 3 for d in degrees) + np.count_nonzero(factor)) + 2)
    # + 0.0 turns the -0.0 of a product with a zero into 0.0, as a sum would
    return _read_only(matrix + 0.0), _read_only(weights), degrees


def _first_box(
    support: tuple, theta: np.ndarray, magnitude: np.ndarray, shared: bool, wrt: tuple, lo: tuple, hi: tuple
) -> tuple:
    """One box of Bernstein coefficients on [lo, hi] of the wrt-derivative of
    sum theta_j x**alpha_j (``_terms``), its error bound and degrees;
    non-finite on overflow.  Only a full basis, which fits share and which
    recurs across them, keeps its map in the cache."""
    build = _bernstein_map if shared else _bernstein_map.__wrapped__
    matrix, weights, degrees = build(support, wrt, lo, hi)
    with np.errstate(over="ignore", invalid="ignore"):
        return (matrix @ theta)[None], np.array([magnitude @ weights]), degrees
