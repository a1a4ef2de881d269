"""Test summaries and their text, JSON, and CSV renderings.

A TestSummary carries everything a reader needs to audit one test: the
urn that was built, the exact p-value upper bound, and one solved bias
odds ratio per rejection threshold. Rejection decisions compare exact
rationals by cross-multiplication, never floats, so boundary cases such
as p = 1/20 against a threshold of 0.05 are stable.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from fractions import Fraction
from typing import NamedTuple, Sequence

from .biased import fnch_pmf
from .errors import DomainError
from .exact import ExactProb
from .ledger import EvidenceLedger, derive_counts
from .sensitivity import SensitivityResult, solve_omega, weight_omega_grid
from .urn import UrnSpec, build_plus_one_urn, null_distribution, p_upper

__all__ = [
    "CaseDigest",
    "TestSummary",
    "SequentialOutcome",
    "run_test",
    "summarize_urn",
    "run_sequential_rivals",
    "render",
    "csv_bytes",
    "pmf_rows",
    "weight_grid_rows",
]


@dataclass(frozen=True)
class CaseDigest:
    """Where a summary came from: case name, counts, and weight vector."""

    case_name: str
    working_obs: int
    rival_obs: int
    weights: tuple[int, ...]


@dataclass(frozen=True)
class TestSummary:
    urn: UrnSpec
    p_upper: ExactProb
    alphas: tuple[Fraction, ...]
    sensitivity: tuple[SensitivityResult | None, ...]
    digest: CaseDigest | None
    notes: tuple[str, ...]


class SequentialOutcome(NamedTuple):
    summary: TestSummary
    adjusted_alpha: Fraction
    reject: bool


def summarize_urn(
    urn: UrnSpec,
    alphas: Sequence[Fraction | float],
    *,
    digest: CaseDigest | None = None,
    notes: Sequence[str] = (),
) -> TestSummary:
    """Compute the p-value upper bound and per-threshold bias odds ratios.

    A threshold the p-value already meets or exceeds gets no odds ratio,
    only a note: the sensitivity question (how much bias would inflate p
    up to the threshold) has no answer in that direction.
    """
    alphas = tuple(Fraction(a) for a in alphas)
    p = p_upper(urn)
    notes = list(notes)
    sensitivity: list[SensitivityResult | None] = []
    for alpha in alphas:
        if p >= alpha:
            sensitivity.append(None)
            notes.append(
                f"alpha={float(alpha):g}: p-value upper bound is already at or above "
                f"the threshold; no bias odds ratio applies"
            )
        else:
            sensitivity.append(solve_omega(urn, float(alpha)))
    return TestSummary(
        urn=urn,
        p_upper=p,
        alphas=alphas,
        sensitivity=tuple(sensitivity),
        digest=digest,
        notes=tuple(notes),
    )


def run_test(ledger: EvidenceLedger, alphas: Sequence[Fraction | float] | None = None) -> TestSummary:
    """Build the +1 urn from a ledger and summarize the test."""
    working, rival, weights = derive_counts(ledger)
    urn = build_plus_one_urn(working, rival, weights)
    notes = []
    surplus = sum(w - 1 for w in weights)
    if rival > working + 1 + surplus:
        notes.append(
            "rival-supporting observations exceed the one-extra-item margin; "
            "the urn keeps all of them (a minimal consistent extension, not a "
            "published construction)"
        )
    digest = CaseDigest(ledger.case_name, working, rival, weights)
    return summarize_urn(
        urn,
        ledger.alpha_thresholds if alphas is None else alphas,
        digest=digest,
        notes=notes,
    )


def run_sequential_rivals(
    ledgers: Sequence[EvidenceLedger],
    alpha0: Fraction | float,
    rule: str = "halving",
) -> list[SequentialOutcome]:
    """Test one working theory against several rivals in sequence.

    Under the halving rule the k-th rival (1-based) is tested at
    alpha0 / 2**(k-1); under the fixed rule every rival is tested at
    alpha0. Each summary's odds ratio is solved at its adjusted threshold.
    """
    if rule not in ("halving", "fixed"):
        raise DomainError(f"rule must be 'halving' or 'fixed', got {rule!r}")
    alpha0 = Fraction(alpha0)
    if not 0 < alpha0 < 1:
        raise DomainError(f"alpha0 must lie strictly in (0, 1), got {float(alpha0)}")
    if not ledgers:
        raise DomainError("at least one ledger is required")
    outcomes = []
    for k, ledger in enumerate(ledgers):
        adjusted = alpha0 / 2**k if rule == "halving" else alpha0
        summary = run_test(ledger, alphas=(adjusted,))
        outcomes.append(SequentialOutcome(summary, adjusted, summary.p_upper < adjusted))
    return outcomes


def _format_alpha(alpha: Fraction) -> str:
    two_dp = f"{float(alpha):.2f}"
    if Fraction(two_dp) == alpha:
        return two_dp
    return repr(float(alpha))


def _interpretation(summary: TestSummary) -> str:
    urn, p = summary.urn, summary.p_upper
    if summary.digest is not None and summary.digest.weights:
        weights = ",".join(str(w) for w in summary.digest.weights)
        weight_clause = f" and evidence weights ({weights})"
    else:
        weight_clause = ""
    return (
        f"The maximum probability of drawing {urn.support_count} or more "
        f"observations supporting the working theory from this rival-favoring "
        f"null urn, at draw odds 1{weight_clause}, is "
        f"p <= {float(p):.3f} (exact {p.num}/{p.den})."
    )


def _render_text(summary: TestSummary) -> str:
    urn = summary.urn
    lines = []
    if summary.digest is not None:
        lines.append(f"Case: {summary.digest.case_name}")
        lines.append(
            f"Observations: {summary.digest.working_obs} working-supporting, "
            f"{summary.digest.rival_obs} rival-supporting"
        )
    lines.append(
        f"Null urn: {urn.t_count} working / {urn.r_count} rival items, "
        f"{urn.sample_size} drawn, {urn.support_count} working-supporting observed"
    )
    lines.append(_interpretation(summary))
    lines.append("Sensitivity to observation bias:")
    for alpha, res in zip(summary.alphas, summary.sensitivity):
        if res is None:
            lines.append(f"  alpha={_format_alpha(alpha)}: no odds ratio (see notes)")
        else:
            lines.append(
                f"  alpha={_format_alpha(alpha)}: odds ratio omega* = {res.omega_star:.3f} "
                f"(working-supporting evidence {res.percent_more_likely:.0f}% more likely)"
            )
    for note in summary.notes:
        lines.append(f"Note: {note}")
    return "\n".join(lines) + "\n"


def urn_as_dict(urn: UrnSpec) -> dict:
    return {
        "t_count": urn.t_count,
        "r_count": urn.r_count,
        "sample_size": urn.sample_size,
        "support_count": urn.support_count,
    }


def sensitivity_as_dict(res: SensitivityResult) -> dict:
    return {
        "alpha": res.alpha,
        "omega_star": res.omega_star,
        "achieved_p": res.achieved_p,
        "percent_more_likely": res.percent_more_likely,
        "iterations": res.iterations,
        "bracket": list(res.bracket),
    }


def summary_as_dict(summary: TestSummary) -> dict:
    """JSON-ready view of a summary with exact fractions kept as num/den."""
    return {
        "case_name": summary.digest.case_name if summary.digest else None,
        "counts": (
            {
                "working_obs": summary.digest.working_obs,
                "rival_obs": summary.digest.rival_obs,
            }
            if summary.digest
            else None
        ),
        "weights": list(summary.digest.weights) if summary.digest else None,
        "urn": urn_as_dict(summary.urn),
        "p_upper": {
            "num": summary.p_upper.num,
            "den": summary.p_upper.den,
            "float": float(summary.p_upper),
        },
        "alphas": [float(a) for a in summary.alphas],
        "sensitivity": [
            None if res is None else sensitivity_as_dict(res) for res in summary.sensitivity
        ],
        "notes": list(summary.notes),
    }


def _render_csv(summary: TestSummary) -> str:
    lines = ["alpha,omega,omega_precise,achieved_p,p_upper,p_upper_num,p_upper_den"]
    p = summary.p_upper
    for alpha, res in zip(summary.alphas, summary.sensitivity):
        if res is None:
            omega_cells = ",,,"
        else:
            omega_cells = f"{res.omega_star:.2f},{res.omega_star!r},{res.achieved_p!r},"
        lines.append(f"{_format_alpha(alpha)},{omega_cells}{float(p)!r},{p.num},{p.den}")
    return "\n".join(lines) + "\n"


def render(summary: TestSummary, format: str = "text") -> bytes:
    """Render one summary as text, json, or csv bytes."""
    if format == "text":
        return _render_text(summary).encode("utf-8")
    if format == "json":
        return json_bytes(summary_as_dict(summary))
    if format == "csv":
        return _render_csv(summary).encode("utf-8")
    raise DomainError(f"unknown format {format!r}")


def json_bytes(obj) -> bytes:
    """Indented UTF-8 JSON with a trailing newline."""
    return (json.dumps(obj, indent=2, ensure_ascii=False) + "\n").encode("utf-8")


def csv_bytes(header: str, rows) -> bytes:
    """A header line, then one line per row with every cell written by repr."""
    lines = [header] + [",".join(repr(cell) for cell in row) for row in rows]
    return ("\n".join(lines) + "\n").encode("utf-8")


def pmf_rows(urn: UrnSpec, odds: float | None = None) -> list[tuple[int, float]]:
    """(k, probability) for every draw count k: the exact null pmf as
    floats, or the biased pmf at the given odds ratio."""
    if odds is None:
        return [(k, float(prob)) for k, prob in null_distribution(urn)]
    return [(k, fnch_pmf(urn, k, odds)) for k in range(urn.sample_size + 1)]


def weight_grid_rows(
    working_obs: int,
    rival_obs: int,
    weight_values: Sequence[int],
    omega_values: Sequence[float],
) -> list[tuple[int, float, float]]:
    """(weight, omega, p) for every cell of weight_omega_grid, weight-major."""
    grid = weight_omega_grid(working_obs, rival_obs, weight_values, omega_values)
    return [
        (w, omega, prob)
        for w, row in zip(weight_values, grid)
        for omega, prob in zip(omega_values, row)
    ]
