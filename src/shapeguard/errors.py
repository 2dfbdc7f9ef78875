"""Exception hierarchy shared by all shapeguard modules."""


class ShapeguardError(Exception):
    """Base class for all errors raised by this package."""


class DomainError(ShapeguardError):
    """An operation was applied outside its mathematical domain."""


class ArityError(ShapeguardError):
    """A point or column set is missing a required variable."""


class SchemaError(ShapeguardError):
    """A dataset or serialized model lacks required columns, rows or fields, or has ill-typed ones."""


class DataError(ShapeguardError):
    """A cell could not be parsed or is non-finite, or an input file is not UTF-8."""

    def __init__(self, message, row=None, column=None):
        super().__init__(message)
        self.row = row
        self.column = column


class SolverError(ShapeguardError):
    """The optimizer stopped short of its tolerance.

    The solver ran out of its iteration budget, or its result failed the KKT
    check (rows violated by more than scpr.SOLVER_TOL, or not stationary); or the
    symbolic-regression GA ended with no individual that meets the
    constraints.  The message says what stopped and by how much (the KKT
    check gives its violation, stationarity and duality gap); the exception
    carries nothing else.
    """


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
