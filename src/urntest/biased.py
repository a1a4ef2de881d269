"""Biased urn: Fisher's noncentral hypergeometric distribution.

Sensitivity analysis asks what happens if working-supporting items were
easier to draw than rival-supporting ones. That is modeled by an odds
ratio omega applied multiplicatively per working-supporting item drawn:
a draw of k such items carries weight C(t, k) * C(r, n - k) * omega**k,
normalized over the support window. At omega = 1 this reduces to the
central hypergeometric of the unbiased urn.

This is the conditional (simultaneous-draw) noncentral family, not the
sequential-draw one: the bias reweights size-n subsets of the urn rather
than changing the draw-by-draw dynamics, and the two families differ for
omega != 1. The exact enumeration oracle and the closed-form sensitivity
check both agree with this family.

Evaluation is exact at every urn size. Each urn has one table of integer
coefficients c_j = C(t, j) * C(r, n - j) over its support window, built
once by the term-ratio recursion. A float omega is a dyadic rational
p / 2**s, so the weight sums are integer Horner sums in which every power
of the denominator is a bit shift, and every returned float is the
correctly rounded value of an exact rational. log_tail_view reads the
same table in floats to steer the odds-ratio solver.
"""

from __future__ import annotations

import math
from fractions import Fraction
from functools import lru_cache

from .errors import DomainError
from .exact import binomial
from .urn import UrnSpec

__all__ = ["fnch_pmf", "fnch_tail"]


def _as_odds(omega) -> Fraction:
    """Validate omega > 0 and return it as an exact rational."""
    try:
        frac = Fraction(omega)
    except (ValueError, OverflowError, TypeError) as exc:
        raise DomainError(f"odds ratio must be a finite positive number, got {omega!r}") from exc
    if frac <= 0:
        raise DomainError(f"odds ratio must be positive, got {omega!r}")
    return frac


def _dyadic(omega) -> tuple[int, int]:
    """(p, s) with omega == p / 2**s; every float odds ratio has this form."""
    odds = _as_odds(omega)
    s = odds.denominator.bit_length() - 1
    if odds.denominator != 1 << s:
        raise DomainError(f"odds ratio must be a float or a dyadic rational, got {omega!r}")
    return odds.numerator, s


# A solve or a curve touches one urn at a time, so small caches suffice;
# each table holds one big integer per support point.
@lru_cache(maxsize=16)
def _coefficients(t: int, r: int, n: int) -> tuple[int, ...]:
    """c_j = C(t, j) C(r, n - j) for j = lo..hi, by the exact term ratio
    c_(j+1) / c_j = (t - j)(n - j) / ((j + 1)(r - n + j + 1))."""
    lo, hi = max(0, n - r), min(n, t)
    c = binomial(t, lo) * binomial(r, n - lo)
    table = [c]
    for j in range(lo, hi):
        c = c * (t - j) * (n - j) // ((j + 1) * (r - n + j + 1))
        table.append(c)
    return tuple(table)


@lru_cache(maxsize=16)
def _log_coefficients(t: int, r: int, n: int) -> tuple[float, ...]:
    """The table's natural logarithms, read by log_tail_view."""
    return tuple(math.log(c) for c in _coefficients(t, r, n))


@lru_cache(maxsize=16)
def _sums(urn: UrnSpec, p: int, s: int) -> tuple[int, int]:
    """Exact weights of the tail j >= x and of the whole window at odds
    p / 2**s, both scaled by the same power of two.

    The Horner sum A_i = A_(i+1) p + c_i 2**(s (m - 1 - i)) runs down the
    table of m coefficients; the window's weight is A_0 and the tail's is
    p**k A_k, with k the offset of x in the window.
    """
    table = _coefficients(urn.t_count, urn.r_count, urn.sample_size)
    k = urn.support_count - urn.support()[0]
    top = len(table) - 1
    acc = tail = 0
    for i in range(top, -1, -1):
        acc = acc * p + (table[i] << (s * (top - i)))
        if i == k:
            tail = acc
    return tail * p**k, acc


def fnch_pmf(urn: UrnSpec, k: int, omega) -> float:
    """Probability of drawing exactly k working-supporting items at bias omega."""
    p, s = _dyadic(omega)
    lo, hi = urn.support()
    if k < lo or k > hi:
        return 0.0
    _, total = _sums(urn, p, s)
    table = _coefficients(urn.t_count, urn.r_count, urn.sample_size)
    return (table[k - lo] * p ** (k - lo) << (s * (hi - k))) / total


def fnch_tail(urn: UrnSpec, omega) -> float:
    """Probability of drawing the observed support count or more at bias omega.

    Strictly increasing in omega whenever the observed count sits above the
    bottom of the support window, which is what makes the sensitivity
    analysis solvable for a unique odds ratio.
    """
    tail, total = _sums(urn, *_dyadic(omega))
    return tail / total


def log_tail_view(urn: UrnSpec, log_omega: float) -> tuple[float, float]:
    """Float view of log fnch_tail at omega = exp(log_omega) and its slope
    d log tail / d log omega = E[X | X >= x] - E[X].

    Accurate to roughly the rounding of the table's logarithms; it steers
    a root search and is never reported.
    """
    logs = _log_coefficients(urn.t_count, urn.r_count, urn.sample_size)
    k = urn.support_count - urn.support()[0]
    exponents = [c + i * log_omega for i, c in enumerate(logs)]
    log_window, mean_window = _log_weight_and_mean(exponents, 0)
    log_tail, mean_tail = _log_weight_and_mean(exponents, k)
    return log_tail - log_window, mean_tail - mean_window


def _log_weight_and_mean(exponents: list[float], start: int) -> tuple[float, float]:
    """log of sum(exp(e_i)) over i >= start, and the mean of i under those weights."""
    top = max(exponents[start:])
    weights = [math.exp(e - top) for e in exponents[start:]]
    total = sum(weights)
    mean = start + sum(i * w for i, w in enumerate(weights)) / total
    return top + math.log(total), mean
