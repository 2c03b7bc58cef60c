"""Exception types shared across the package, and the default limits
past which `ResourceLimitError` is raised."""

from __future__ import annotations

DEFAULT_MAX_MEMBERS = 100_000
DEFAULT_MAX_GRADE = 32
DEFAULT_ORACLE_BOUND = 14


class StructuralError(ValueError):
    """Malformed graph description: bad indices, loops or duplicate edges."""


class InvariantViolation(RuntimeError):
    """A verified structural invariant failed on supposedly valid data."""


class ValidationError(InvariantViolation):
    """A complex failed validation; carries the full report."""

    def __init__(self, report):
        self.report = report
        names = ", ".join(f.invariant for f in report.failures)
        super().__init__(f"complex failed validation: {names}")


class ResourceLimitError(RuntimeError):
    """A configured resource limit was exceeded; names the limit."""

    def __init__(self, limit: str, message: str):
        super().__init__(message)
        self.limit = limit
