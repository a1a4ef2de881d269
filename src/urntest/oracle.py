"""Independent verification engines for the urn distributions.

Two routes that share no code with the binomial-coefficient formulas:

- enumerate_exact walks every size-n subset of the urn and counts, giving
  exact rational probabilities for small urns at any bias.
- monte_carlo simulates repeated unbiased draws without replacement with
  a seeded generator.

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

__all__ = ["SimConfig", "ENUMERATION_LIMIT", "enumerate_exact", "monte_carlo"]

ENUMERATION_LIMIT = 20
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

    Each replication takes the n items with the smallest of U independent
    uniform keys, which is a uniformly random size-n subset. Deterministic
    for a given (urn, config): a fixed chunk size keeps the generator
    stream consumption independent of the draw count.
    """
    import numpy as np  # here, so that commands other than simulate skip numpy's import time

    total, n, t = urn.total, urn.sample_size, urn.t_count
    rng = np.random.Generator(np.random.PCG64(config.seed))
    counts = np.zeros(n + 1, dtype=np.int64)
    if n == 0:
        counts[0] = config.draws
    elif n == total:
        counts[t] = config.draws
    else:
        remaining = config.draws
        while remaining > 0:
            rows = min(remaining, _CHUNK_ROWS)
            keys = rng.random((rows, total))
            drawn = np.argpartition(keys, n - 1, axis=1)[:, :n]
            k = (drawn < t).sum(axis=1)
            counts += np.bincount(k, minlength=n + 1)
            remaining -= rows
    return [(k, int(counts[k]) / config.draws) for k in range(n + 1)]
