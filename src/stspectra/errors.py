"""Exception types shared across the package.

Every error that a batch run can hit maps onto one of these, so the CLI can
emit a machine-readable report and a stable exit code.
"""

from __future__ import annotations

__all__ = [
    "StspectraError",
    "SchemaError",
    "RowError",
    "EmptyInputError",
    "ValidationError",
    "DomainError",
    "SingularMatrixError",
    "DegenerateFieldError",
    "SymmetryError",
]


class StspectraError(Exception):
    """Base class for all package errors."""

    code = "error"

    def report(self) -> dict:
        return {"error": self.code, "message": str(self)}


class SchemaError(StspectraError):
    """Input table is missing a required column or has an unusable header."""

    code = "schema"


class RowError(StspectraError):
    """A data row failed to parse; carries the 1-based line number."""

    code = "row"

    def __init__(self, line: int, message: str):
        super().__init__(f"line {line}: {message}")
        self.line = line


class EmptyInputError(StspectraError):
    """No data rows survived parsing."""

    code = "empty-input"


class ValidationError(StspectraError):
    """A value or combination of values violates a documented contract."""

    code = "validation"


class DomainError(StspectraError):
    """A numeric argument is outside the estimator's stated validity range."""

    code = "domain"


class SingularMatrixError(StspectraError):
    """A spectral matrix could not be inverted; carries the grid point."""

    code = "singular"

    def __init__(self, message: str, grid_point=None):
        if grid_point is not None:
            message = f"{message} at frequency {grid_point}"
        super().__init__(message)
        self.grid_point = grid_point


class DegenerateFieldError(StspectraError):
    """A spectral field is identically zero (e.g. constant marks)."""

    code = "degenerate"


class SymmetryError(StspectraError):
    """A field violates the conjugate symmetry the lag transform relies on."""

    code = "symmetry"
