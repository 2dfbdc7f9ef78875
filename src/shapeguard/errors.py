"""Exception hierarchy shared by all shapeguard modules."""


class ShapeguardError(Exception):
    """Base class for all errors raised by this package."""


class DomainError(ShapeguardError):
    """An operation was applied outside its mathematical domain."""


class ArityError(ShapeguardError):
    """A point or column set is missing a required variable."""


class SchemaError(ShapeguardError):
    """A dataset is missing required columns or rows."""


class DataError(ShapeguardError):
    """A cell could not be parsed or is non-finite."""

    def __init__(self, message, row=None, column=None):
        super().__init__(message)
        self.row = row
        self.column = column


class SolverError(ShapeguardError):
    """The optimizer stopped short of its tolerance.

    Either the solver ran out of its iteration budget, or a constrained fit
    still violates its constraints by more than solver_tol after its
    refinement rounds.
    """

    def __init__(self, message, last_iterate=None, residual=None):
        super().__init__(message)
        self.last_iterate = last_iterate
        self.residual = residual


class InfeasibleError(ShapeguardError):
    """The compiled constraint system admits no solution."""


class BudgetError(ShapeguardError):
    """A discretization or search budget would be exceeded."""


class ParseError(ShapeguardError):
    """A constraint-spec file could not be parsed."""

    def __init__(self, message, line=None):
        if line is not None:
            message = f"line {line}: {message}"
        super().__init__(message)
        self.line = line


class ConfigError(ShapeguardError):
    """An unknown or inconsistent configuration value."""


class DegenerateError(ShapeguardError):
    """An input is degenerate for the requested statistic (e.g. one class)."""


class GridError(ShapeguardError):
    """Every cell of a hyper-parameter grid failed."""
