"""urntest: exact urn-model hypothesis tests for single-case qualitative
evidence.

Build a null urn from coded observations, compute an exact p-value upper
bound for drawing the observed working-supporting evidence, and solve for
the observation-bias odds ratio that would overturn the conclusion.
"""

from importlib.resources import files
from pathlib import Path

from .biased import fnch_pmf, fnch_tail
from .errors import (
    DegenerateUrnError,
    DomainError,
    InfeasibleError,
    InvalidUrnError,
    LedgerError,
    LedgerParseError,
    LedgerValidationError,
    NoWorkingEvidenceError,
    SolverError,
    UnreachableThresholdError,
    UrnSizeError,
    UrnTestError,
)
from .exact import ExactProb, binomial, log_binomial
from .ledger import (
    DEFAULT_ALPHAS,
    EvidenceLedger,
    Observation,
    derive_counts,
    parse_ledger,
    serialize_ledger,
)
from .oracle import SimConfig, enumerate_exact, monte_carlo
from .report import (
    CaseDigest,
    SequentialOutcome,
    TestSummary,
    csv_bytes,
    pmf_rows,
    render,
    run_sequential_rivals,
    run_test,
    summarize_urn,
    weight_grid_rows,
)
from .sensitivity import (
    SensitivityResult,
    omega_grid,
    solve_omega,
    sweep_curve,
    weight_omega_grid,
)
from .urn import (
    UrnSpec,
    build_plus_one_urn,
    hyper_pmf,
    null_distribution,
    p_upper,
    tail_at_margin,
)

__version__ = "0.1.0"


def fixture_path(name: str) -> Path:
    """Path to a shipped example ledger: rossel2023, snow1855, or tea1935."""
    if not name.endswith(".json"):
        name += ".json"
    path = files("urntest") / "fixtures" / name
    return Path(str(path))
