"""The +1 null urn and its central hypergeometric distribution.

The null model for testing a working causal theory against a rival is an
urn holding ``t_count`` working-supporting items and ``r_count``
rival-supporting items, from which ``sample_size`` items are drawn without
replacement. The +1 construction gives the rival the benefit of the doubt
by one extra item: with w working-supporting observations in hand the urn
holds w such items plus at least w + 1 rival-supporting ones. Among all
urns in which rival-supporting evidence outnumbers working-supporting
evidence, that margin of one maximizes the tail probability, so the
reported p-value is an upper bound.

Evidence weights enlarge the rival side instead of duplicating working
items: a working-supporting observation of weight w contributes w - 1
extra rival items, which keeps the number of draws equal to the number of
observations actually made.

Every exact number here reads one table per urn, owned by this module:
c_j = C(t, j) * C(r, n - j) over the support window, whose sum is
C(t + r, n) by Vandermonde's identity.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache
from typing import Sequence

from .errors import InvalidUrnError, NoWorkingEvidenceError
from .exact import ExactProb

__all__ = [
    "UrnSpec",
    "build_plus_one_urn",
    "hyper_pmf",
    "p_upper",
    "null_distribution",
    "tail_at_margin",
]

WeightVector = Sequence[int]


@dataclass(frozen=True)
class UrnSpec:
    """A two-type urn with an observed outcome.

    t_count: working-supporting items in the urn.
    r_count: rival-supporting items in the urn (at least 1).
    sample_size: items drawn without replacement.
    support_count: observed number of working-supporting items drawn.
    """

    t_count: int
    r_count: int
    sample_size: int
    support_count: int

    def __post_init__(self):
        t, r, n, x = self.t_count, self.r_count, self.sample_size, self.support_count
        for name, v in (("t_count", t), ("r_count", r), ("sample_size", n), ("support_count", x)):
            if not isinstance(v, int) or isinstance(v, bool):
                raise InvalidUrnError(f"{name} must be an integer, got {v!r}")
        if t < 0:
            raise InvalidUrnError(f"t_count must be nonnegative, got {t}")
        if r < 1:
            raise InvalidUrnError(f"r_count must be at least 1, got {r}")
        if n < 0 or n > t + r:
            raise InvalidUrnError(f"sample_size must lie in [0, {t + r}], got {n}")
        lo, hi = max(0, n - r), min(n, t)
        if not lo <= x <= hi:
            raise InvalidUrnError(
                f"support_count {x} infeasible for this urn (support window [{lo}, {hi}])"
            )

    @property
    def total(self) -> int:
        return self.t_count + self.r_count

    def support(self) -> tuple[int, int]:
        """Inclusive window [lo, hi] of draw counts with nonzero probability."""
        lo = max(0, self.sample_size - self.r_count)
        hi = min(self.sample_size, self.t_count)
        return lo, hi


def build_plus_one_urn(
    working_obs: int,
    rival_obs: int,
    weights: WeightVector | None = None,
) -> UrnSpec:
    """Construct the +1 null urn from observation counts.

    The rival side holds ``working_obs + 1`` items plus one extra item per
    unit of weight above 1 on a working-supporting observation, but never
    fewer items than were actually observed supporting the rival.
    """
    if working_obs < 0 or rival_obs < 0:
        raise InvalidUrnError("observation counts must be nonnegative")
    if working_obs + rival_obs < 1:
        raise InvalidUrnError("at least one observation is required")
    if working_obs == 0:
        raise NoWorkingEvidenceError(
            "no working-supporting observations: the null urn is built around "
            "the observed working-supporting evidence and has no defined "
            "construction when all evidence favors the rival"
        )
    if weights is None:
        surplus = 0
    else:
        weights = tuple(weights)
        if len(weights) != working_obs:
            raise InvalidUrnError(
                f"need one weight per working-supporting observation "
                f"({working_obs}), got {len(weights)}"
            )
        for w in weights:
            if not isinstance(w, int) or isinstance(w, bool) or w < 1:
                raise InvalidUrnError(f"weights must be positive integers, got {w!r}")
        surplus = sum(w - 1 for w in weights)
    r_count = max(working_obs + 1 + surplus, rival_obs)
    return UrnSpec(
        t_count=working_obs,
        r_count=r_count,
        sample_size=working_obs + rival_obs,
        support_count=working_obs,
    )


# Every caller works on one urn at a time (a solve, a pmf row, one grid row
# per weight), so two entries suffice; a table holds one big integer per
# support point, about 1 MB at 4,000 items.
@lru_cache(maxsize=2)
def _coefficients(t: int, r: int, n: int) -> tuple[int, ...]:
    """c_j = C(t, j) C(r, n - j) for j = lo..hi, by the exact term ratio
    c_(j+1) / c_j = (t - j)(n - j) / ((j + 1)(r - n + j + 1)); each factor
    pair is multiplied out as a small int first, so a step makes one pass
    over c rather than two."""
    lo, hi = max(0, n - r), min(n, t)
    c = math.comb(t, lo) * math.comb(r, n - lo)
    table = [c]
    for j in range(lo, hi):
        c = c * ((t - j) * (n - j)) // ((j + 1) * (r - n + j + 1))
        table.append(c)
    return tuple(table)


@lru_cache(maxsize=2)
def _coefficient_sum(t: int, r: int, n: int) -> int:
    """sum(_coefficients(t, r, n)) = C(t + r, n), every exact number's
    denominator, summed once per urn."""
    return sum(_coefficients(t, r, n))


def hyper_pmf(urn: UrnSpec, k: int) -> ExactProb:
    """Exact probability of drawing exactly k working-supporting items."""
    lo, hi = urn.support()
    if k < lo or k > hi:
        return ExactProb(0)
    table = _coefficients(urn.t_count, urn.r_count, urn.sample_size)
    return ExactProb(table[k - lo], _coefficient_sum(urn.t_count, urn.r_count, urn.sample_size))


def p_upper(urn: UrnSpec) -> ExactProb:
    """Exact tail probability of drawing the observed support count or more.

    This is the p-value upper bound the +1 construction reports. When the
    observed count equals the top of the support window the tail reduces to
    the single point mass, which covers every worked desk-scale case.
    """
    table = _coefficients(urn.t_count, urn.r_count, urn.sample_size)
    den = _coefficient_sum(urn.t_count, urn.r_count, urn.sample_size)
    return ExactProb(sum(table[urn.support_count - urn.support()[0] :]), den)


def null_distribution(urn: UrnSpec) -> list[tuple[int, ExactProb]]:
    """Full null distribution over k = 0..sample_size, summing exactly to 1."""
    lo, hi = urn.support()
    table = _coefficients(urn.t_count, urn.r_count, urn.sample_size)
    den, zero = _coefficient_sum(urn.t_count, urn.r_count, urn.sample_size), ExactProb(0)
    probs = [zero] * lo + [ExactProb(c, den) for c in table] + [zero] * (urn.sample_size - hi)
    return list(enumerate(probs))


def tail_at_margin(working_obs: int, sample_size: int, x: int, c: int) -> ExactProb:
    """Tail probability for the urn whose rival side exceeds the working
    side by a margin of c items.

    Used to check conservativeness: over the constraint set with
    sample_size equal to working_obs, the tail is largest at c = 1, so any
    larger margin only shrinks the reported p-value.
    """
    if c < 1:
        raise InvalidUrnError(f"rival margin c must be at least 1, got {c}")
    urn = UrnSpec(
        t_count=working_obs,
        r_count=working_obs + c,
        sample_size=sample_size,
        support_count=x,
    )
    return p_upper(urn)
