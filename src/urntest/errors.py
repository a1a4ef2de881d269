"""Exception hierarchy for urntest.

Validation problems (bad inputs, bad ledger files) and infeasible
computations (thresholds the model cannot reach, degenerate urns) are kept
on separate branches, under InfeasibleError for the latter, so the CLI can
map them to distinct exit codes.
"""

from __future__ import annotations


class UrnTestError(Exception):
    """Base class for all errors raised by this package."""


class DomainError(UrnTestError, ValueError):
    """An argument lies outside the mathematical domain of an operation."""


class InvalidUrnError(UrnTestError, ValueError):
    """Urn parameters are inconsistent (counts, sample size, support)."""


class NoWorkingEvidenceError(InvalidUrnError):
    """Raised when a test is requested with zero working-supporting
    observations.

    The null urn is built around the observed working-supporting evidence;
    with none, the model has no defined construction and silently reporting
    p = 1 would hide that.
    """


class InfeasibleError(UrnTestError):
    """The inputs are valid but the computation they ask for cannot be done."""


class UrnSizeError(InfeasibleError, ValueError):
    """The urn is above the size guard of exact enumeration or of the
    Monte Carlo sampler."""


class DegenerateUrnError(InfeasibleError, ValueError):
    """The urn's support window cannot move, so there is nothing to solve."""


class UnreachableThresholdError(InfeasibleError):
    """No bias odds ratio attains the requested tail probability."""


class SolverError(InfeasibleError, RuntimeError):
    """The root solver failed to converge within its iteration cap."""


class LedgerError(UrnTestError):
    """Base class for evidence-ledger ingestion problems."""


class LedgerParseError(LedgerError):
    """The ledger document is not well-formed JSON."""

    def __init__(self, message: str, line: int | None = None, column: int | None = None):
        if line is not None:
            message = f"{message} (line {line}, column {column})"
        super().__init__(message)
        self.line = line
        self.column = column


class LedgerValidationError(LedgerError, ValueError):
    """The ledger document is well-formed but violates the schema rules."""
