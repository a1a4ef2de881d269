"""Independent verification engines for the urn distributions.

Two routes that share no code with the binomial-coefficient formulas:

- enumerate_exact walks every size-n subset of the urn and counts, giving
  exact rational probabilities for small urns at any bias.
- monte_carlo simulates repeated unbiased draws without replacement with
  a seeded generator. Each replication records only the number of
  working-supporting items in a uniformly random size-n subset, which is
  one hypergeometric variate. numpy draws it by its own sampler (ratio of
  uniforms, Stadlober 1989, or for fewer than 10 draws from either side a
  draw-by-draw simulation), not from binomial coefficients. Time grows
  with the draw count and memory with a fixed chunk of draws plus the n + 1
  result rows, whatever the urn size. numpy's sampler takes item counts
  below 10**9 only.

The Monte Carlo route is restricted to the unbiased urn on purpose.
Drawing items one at a time with probability proportional to odds
simulates the sequential-draw noncentral family, which differs from the
conditional family the rest of the package evaluates; biased verification
goes through enumerate_exact instead.
"""

from __future__ import annotations

import itertools
from bisect import bisect_left
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache

from .biased import _as_odds
from .errors import DomainError, UrnSizeError
from .urn import UrnSpec

__all__ = ["SimConfig", "ENUMERATION_LIMIT", "SAMPLER_LIMIT", "enumerate_exact", "monte_carlo"]

ENUMERATION_LIMIT = 20
# numpy's Generator.hypergeometric rejects item counts from 10**9 up.
SAMPLER_LIMIT = 10**9
_CHUNK_ROWS = 1 << 16


@dataclass(frozen=True)
class SimConfig:
    """Replication count and explicit seed for the urn simulator."""

    draws: int
    seed: int

    def __post_init__(self):
        if self.draws < 1:
            raise DomainError(f"draws must be at least 1, got {self.draws}")
        if not 0 <= self.seed < 2**64:
            raise DomainError(f"seed must fit in an unsigned 64-bit integer, got {self.seed}")


@lru_cache(maxsize=4096)
def _subset_counts(total: int, t: int, n: int) -> tuple[int, ...]:
    """Number of size-n subsets of the urn with k working items, by brute
    force over every subset. Items 0..t-1 are the working-supporting ones."""
    counts = [0] * (n + 1)
    for subset in itertools.combinations(range(total), n):
        counts[bisect_left(subset, t)] += 1
    return tuple(counts)


def enumerate_exact(urn: UrnSpec, omega=1) -> list[tuple[int, Fraction]]:
    """Exact distribution of working-item draw counts by subset enumeration.

    Every size-n subset of the urn's items is weighted by omega raised to
    its number of working-supporting items, then weights are aggregated by
    that count and normalized. Unordered subsets suffice: every ordering of
    a given subset has the same composition, so the ordered count only
    multiplies numerator and denominator by the same factor.
    """
    total = urn.total
    if total > ENUMERATION_LIMIT:
        raise UrnSizeError(
            f"enumeration guard: urn has {total} items, limit is {ENUMERATION_LIMIT}"
        )
    odds = _as_odds(omega)
    n = urn.sample_size
    counts = _subset_counts(total, urn.t_count, n)
    weighted = [counts[k] * odds**k for k in range(n + 1)]
    norm = sum(weighted)
    return [(k, Fraction(weighted[k], norm)) for k in range(n + 1)]


def monte_carlo(urn: UrnSpec, config: SimConfig) -> list[tuple[int, float]]:
    """Empirical distribution of working-item counts from repeated unbiased
    draws without replacement.

    Each replication draws the working-item count of one uniformly random
    size-n subset directly, as a hypergeometric variate, so a replication
    costs O(1) time and memory and a chunk of replications O(chunk) memory.
    Deterministic for a given (urn, config): a fixed chunk size keeps the
    generator stream consumption independent of the draw count, so a longer
    run extends a shorter one's stream. Urns with SAMPLER_LIMIT or more
    items of either kind raise UrnSizeError, before numpy is imported.
    """
    total, n, t = urn.total, urn.sample_size, urn.t_count
    if max(t, urn.r_count) >= SAMPLER_LIMIT:
        raise UrnSizeError(
            f"sampler guard: urn has {t} working and {urn.r_count} rival items, "
            f"each count must be below {SAMPLER_LIMIT}"
        )
    import numpy as np  # here, so that commands other than simulate skip numpy's import time

    rng = np.random.Generator(np.random.PCG64(config.seed))
    counts = np.zeros(n + 1, dtype=np.int64)
    remaining = config.draws
    while remaining > 0:
        rows = min(remaining, _CHUNK_ROWS)
        counts += np.bincount(rng.hypergeometric(t, total - t, n, size=rows), minlength=n + 1)
        remaining -= rows
    return [(k, int(counts[k]) / config.draws) for k in range(n + 1)]
