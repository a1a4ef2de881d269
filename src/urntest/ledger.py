"""Evidence-ledger files: parsing, validation, and urn-input derivation.

A ledger is one JSON document coding everything a test needs, so a result
is reproducible from the file alone: the case, both hypotheses, each
observation's classification and weight, and the rejection thresholds.

Classification is two-way. "working" marks an observation that favors the
working hypothesis alone; "rival" marks one that favors the rival or is
compatible with both (the null urn gives the rival every observation it
can claim). Weights above 1 are meaningful only on working-supporting
observations, where they enlarge the rival side of the urn.
"""

from __future__ import annotations

import json
import warnings
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Sequence

from .errors import LedgerParseError, LedgerValidationError, NoWorkingEvidenceError

__all__ = [
    "Observation",
    "EvidenceLedger",
    "parse_ledger",
    "serialize_ledger",
    "derive_counts",
    "DEFAULT_ALPHAS",
]

SCHEMA_VERSION = 1
DEFAULT_ALPHAS = (Fraction(1, 20), Fraction(1, 10))

_SOURCE_KINDS = ("interview", "document", "map", "other")
_TOP_KEYS = frozenset(
    {
        "schema_version",
        "case_name",
        "working_hypothesis",
        "rival_hypothesis",
        "alpha_thresholds",
        "observations",
    }
)
_OBS_KEYS = frozenset({"id", "description", "supports", "weight", "source_kind", "rationale"})


@dataclass(frozen=True)
class Observation:
    id: str
    description: str
    supports: str
    weight: int = 1
    source_kind: str | None = None
    rationale: str | None = None

    def __post_init__(self):
        if not isinstance(self.id, str) or not self.id:
            raise LedgerValidationError(f"observation id must be a nonempty string, got {self.id!r}")
        if self.supports not in ("working", "rival"):
            raise LedgerValidationError(
                f"observation {self.id!r}: supports must be 'working' or 'rival', got {self.supports!r}"
            )
        if not isinstance(self.weight, int) or isinstance(self.weight, bool) or self.weight < 1:
            raise LedgerValidationError(
                f"observation {self.id!r}: weight must be a positive integer, got {self.weight!r}"
            )
        if self.weight > 1 and self.supports != "working":
            raise LedgerValidationError(
                f"observation {self.id!r}: weight above 1 is only allowed on "
                f"working-supporting observations"
            )
        if self.source_kind is not None and self.source_kind not in _SOURCE_KINDS:
            raise LedgerValidationError(
                f"observation {self.id!r}: source_kind must be one of {_SOURCE_KINDS}"
            )


@dataclass(frozen=True)
class EvidenceLedger:
    case_name: str
    working_hypothesis: str
    rival_hypothesis: str
    observations: tuple[Observation, ...]
    alpha_thresholds: tuple[Fraction, ...] = field(default=DEFAULT_ALPHAS)

    def __post_init__(self):
        object.__setattr__(self, "observations", tuple(self.observations))
        object.__setattr__(
            self, "alpha_thresholds", tuple(Fraction(a) for a in self.alpha_thresholds)
        )
        if not self.observations:
            raise LedgerValidationError("ledger must contain at least one observation")
        seen: set[str] = set()
        for obs in self.observations:
            if obs.id in seen:
                raise LedgerValidationError(f"duplicate observation id {obs.id!r}")
            seen.add(obs.id)
        if not any(o.supports == "working" for o in self.observations):
            raise NoWorkingEvidenceError(
                "ledger has no working-supporting observations; the null urn "
                "has no defined construction when all evidence favors the rival"
            )
        if not self.alpha_thresholds:
            raise LedgerValidationError("alpha_thresholds must not be empty")
        for a in self.alpha_thresholds:
            if not 0 < a < 1:
                raise LedgerValidationError(f"alpha threshold {a} must lie strictly in (0, 1)")
        if any(b <= a for a, b in zip(self.alpha_thresholds, self.alpha_thresholds[1:])):
            raise LedgerValidationError("alpha thresholds must be strictly increasing")


def _require(obj: dict, key: str, kind: type, context: str):
    if key not in obj:
        raise LedgerValidationError(f"{context}: missing required field {key!r}")
    value = obj[key]
    if not isinstance(value, kind) or isinstance(value, bool):
        raise LedgerValidationError(
            f"{context}: field {key!r} must be {kind.__name__}, got {type(value).__name__}"
        )
    return value


def _check_unknown(obj: dict, allowed: frozenset, context: str, strict: bool):
    unknown = sorted(set(obj) - allowed)
    if not unknown:
        return
    if strict:
        raise LedgerValidationError(f"{context}: unknown fields {unknown}")
    warnings.warn(f"{context}: ignoring unknown fields {unknown}", stacklevel=3)


def parse_ledger(document: bytes | str, *, strict: bool = True) -> EvidenceLedger:
    """Parse and validate a ledger document.

    strict rejects unknown fields; with strict=False they are warned about
    and dropped. Fractional-looking JSON numbers in alpha_thresholds are
    read as exact decimal fractions so threshold comparisons stay exact.
    """
    if isinstance(document, bytes):
        try:
            document = document.decode("utf-8")
        except UnicodeDecodeError as exc:
            raise LedgerParseError(f"ledger is not valid UTF-8: {exc}") from exc
    try:
        raw = json.loads(document, parse_float=Fraction)
    except json.JSONDecodeError as exc:
        raise LedgerParseError(exc.msg, exc.lineno, exc.colno) from exc
    except (ValueError, RecursionError) as exc:  # an integer past the digit limit, or deep nesting
        raise LedgerParseError(f"ledger JSON cannot be read: {exc}") from exc
    if not isinstance(raw, dict):
        raise LedgerValidationError("ledger document must be a JSON object")
    _check_unknown(raw, _TOP_KEYS, "ledger", strict)
    version = _require(raw, "schema_version", int, "ledger")
    if version != SCHEMA_VERSION:
        raise LedgerValidationError(
            f"unsupported schema_version {version}; this build reads version {SCHEMA_VERSION}"
        )

    obs_raw = _require(raw, "observations", list, "ledger")
    observations = []
    for i, entry in enumerate(obs_raw):
        context = f"observations[{i}]"
        if not isinstance(entry, dict):
            raise LedgerValidationError(f"{context}: must be a JSON object")
        _check_unknown(entry, _OBS_KEYS, context, strict)
        kwargs = {
            "id": _require(entry, "id", str, context),
            "description": _require(entry, "description", str, context),
            "supports": _require(entry, "supports", str, context),
        }
        if "weight" in entry:
            kwargs["weight"] = _require(entry, "weight", int, context)
        for opt in ("source_kind", "rationale"):
            if entry.get(opt) is not None:
                kwargs[opt] = _require(entry, opt, str, context)
        observations.append(Observation(**kwargs))

    alphas = DEFAULT_ALPHAS
    if "alpha_thresholds" in raw:
        alphas_raw = _require(raw, "alpha_thresholds", list, "ledger")
        parsed = []
        for a in alphas_raw:
            if not isinstance(a, (int, Fraction)) or isinstance(a, bool):
                raise LedgerValidationError(f"alpha threshold {a!r} must be a number")
            parsed.append(Fraction(a))
        alphas = tuple(parsed)

    return EvidenceLedger(
        case_name=_require(raw, "case_name", str, "ledger"),
        working_hypothesis=_require(raw, "working_hypothesis", str, "ledger"),
        rival_hypothesis=_require(raw, "rival_hypothesis", str, "ledger"),
        observations=tuple(observations),
        alpha_thresholds=alphas,
    )


def serialize_ledger(ledger: EvidenceLedger) -> bytes:
    """Render a ledger back to canonical JSON bytes.

    Field order is fixed, so identical ledgers serialize to identical
    bytes, and parse(serialize(parse(d))) round-trips field for field.
    """
    obs_out = []
    for obs in ledger.observations:
        entry = {
            "id": obs.id,
            "description": obs.description,
            "supports": obs.supports,
            "weight": obs.weight,
        }
        if obs.source_kind is not None:
            entry["source_kind"] = obs.source_kind
        if obs.rationale is not None:
            entry["rationale"] = obs.rationale
        obs_out.append(entry)
    doc = {
        "schema_version": SCHEMA_VERSION,
        "case_name": ledger.case_name,
        "working_hypothesis": ledger.working_hypothesis,
        "rival_hypothesis": ledger.rival_hypothesis,
        "alpha_thresholds": [float(a) for a in ledger.alpha_thresholds],
        "observations": obs_out,
    }
    return (json.dumps(doc, indent=2, ensure_ascii=False) + "\n").encode("utf-8")


def derive_counts(ledger: EvidenceLedger) -> tuple[int, int, tuple[int, ...]]:
    """Observation counts by classification plus the working-side weight
    vector, in observation order."""
    working = [o for o in ledger.observations if o.supports == "working"]
    rival_count = len(ledger.observations) - len(working)
    return len(working), rival_count, tuple(o.weight for o in working)
