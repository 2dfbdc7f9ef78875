"""Multivariate polynomials over a graded-lexicographic monomial basis.

A :class:`PolyModel` stores named variables, a total-degree bound, and a
coefficient per multi-index (missing indices mean zero).  Graded-lex order is
the canonical serialization order: terms sorted by total degree, then by
exponent tuple with earlier variables first (so for (x, y), degree 2 reads
``1, x, y, x^2, x*y, y^2``).
"""

from __future__ import annotations

import itertools
import json
import math
from dataclasses import dataclass, field
from typing import Mapping, Sequence

import numpy as np

from .errors import ArityError, DomainError
from .intervals import Interval

__all__ = ["MultiIndex", "monomial_basis", "PolyModel"]

# Exponent tuple aligned with a variable-name list.
MultiIndex = tuple

def _grlex_key(alpha: MultiIndex):
    return (sum(alpha), tuple(-e for e in alpha))


def monomial_basis(n_vars: int, d: int) -> list[MultiIndex]:
    """All multi-indices of total degree <= d in graded-lex order.

    Count is C(n_vars + d, d).
    """
    if n_vars < 1:
        raise DomainError(f"n_vars must be >= 1, got {n_vars}")
    if d < 0:
        raise DomainError(f"degree must be >= 0, got {d}")
    out: list[MultiIndex] = []
    for total in range(d + 1):
        level = [
            alpha
            for alpha in itertools.product(range(total + 1), repeat=n_vars)
            if sum(alpha) == total
        ]
        level.sort(key=_grlex_key)
        out.extend(level)
    return out


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


@dataclass(frozen=True)
class PolyModel:
    """Polynomial of bounded total degree with named variables."""

    variables: tuple
    degree: int
    coeffs: dict = field(default_factory=dict)

    def __post_init__(self):
        object.__setattr__(self, "variables", tuple(self.variables))
        nv = len(self.variables)
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
        try:
            return [point[v] for v in self.variables]
        except KeyError as exc:
            raise ArityError(f"point is missing variable {exc.args[0]!r}") from exc

    def evaluate(self, point: Mapping) -> float:
        """Sum of coeff * x**alpha at a single point."""
        xs = self._require(point)
        total = 0.0
        for alpha, c in self.coeffs.items():
            term = c
            for x, e in zip(xs, alpha):
                if e:
                    term *= x**e
            total += term
        return total

    def evaluate_columns(self, columns: Mapping) -> np.ndarray:
        """Vectorized evaluation over equal-length column arrays."""
        cols = [np.asarray(columns[v], dtype=float) if v in columns else None for v in self.variables]
        if any(c is None for c in cols):
            missing = [v for v, c in zip(self.variables, cols) if c is None]
            raise ArityError(f"columns missing variables {missing}")
        n = len(cols[0]) if cols else 0
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
        coeffs = {}
        for alpha, c in self.coeffs.items():
            term = _monomial_derivative(alpha, wrt, c)
            if term is not None and term[0] != 0.0:
                coeffs[term[1]] = coeffs.get(term[1], 0.0) + term[0]
        return PolyModel(self.variables, max(self.degree - sum(wrt), 0), coeffs)

    def derivative_of_var(self, var: str, order: int = 1) -> "PolyModel":
        wrt = tuple(order if v == var else 0 for v in self.variables)
        return self.derivative(wrt)

    def interval_bound(self, region: Mapping) -> Interval:
        """Sound enclosure of the range over a box, term by term.

        Integer powers use the exact power rule, so single-variable
        monomials are bounded tightly; cross-term dependency is not tracked
        (plain interval arithmetic).
        """
        ivs = []
        for v in self.variables:
            if v not in region:
                raise ArityError(f"region missing variable {v!r}")
            ivs.append(region[v])
        total = Interval.point(0.0)
        for alpha, c in self.coeffs.items():
            term = Interval.point(c)
            for iv, e in zip(ivs, alpha):
                if e:
                    term = term * iv.pow_int(e)
            total = total + term
        return total

    # -- serialization -------------------------------------------------------

    def sorted_terms(self) -> list:
        return sorted(self.coeffs.items(), key=lambda kv: _grlex_key(kv[0]))

    def to_json(self) -> str:
        """Canonical JSON: graded-lex terms, 17-significant-digit coefficients."""
        parts = []
        for alpha, c in self.sorted_terms():
            exps = ", ".join(str(e) for e in alpha)
            parts.append(f'{{"exponents": [{exps}], "coeff": {format(c, ".17g")}}}')
        variables = ", ".join(json.dumps(v) for v in self.variables)
        terms = ", ".join(parts)
        return f'{{"variables": [{variables}], "degree": {self.degree}, "terms": [{terms}]}}'

    @classmethod
    def from_json(cls, text: str) -> "PolyModel":
        obj = json.loads(text)
        coeffs = {tuple(t["exponents"]): float(t["coeff"]) for t in obj["terms"]}
        return cls(tuple(obj["variables"]), int(obj["degree"]), coeffs)

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
