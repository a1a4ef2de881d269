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

Evaluation is exact at every urn size. It reads urn.py's table of integer
coefficients c_j = C(t, j) * C(r, n - j) over the support window, the
table the exact central numbers come from, rather than building its own.
A float omega is a dyadic rational p / 2**s, so the weight sums are
integer sums in which every power of the denominator is a bit shift, and
every returned float is the correctly rounded value of an exact rational.
The sums are split in halves recursively (binary splitting, Haible &
Papanikolaou 1998), so their large products pair numbers of equal size and
run at Karatsuba speed: on m support points with terms of about b bits a
sum costs O(M(m b) log m), with M(n) the cost of an n-bit product, where
one Horner pass down the table cost O(m**2 b).

log_tail_view reads the logarithms of the same table in floats to steer
the odds-ratio solver; it only steers, and no number it returns is
reported. The exponents log c_j + j log omega are concave in j, because
the table is log-concave, so the view bisects for their peak and sums
only the window of terms within 37.5 + ln(count) nats of it, the
evaluation outward from the mode used for Fisher's noncentral
hypergeometric (Liao & Rosen 2001; Fog 2008). The terms left out weigh
less than e**-37.5, about 5.2e-17, of the sum, below its own rounding, so
a call costs O(window + log m) rather than O(m) on m support points.
"""

from __future__ import annotations

import math
from fractions import Fraction
from functools import lru_cache

from .errors import DomainError
from .urn import UrnSpec, _coefficients

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
    if isinstance(omega, float) and 0.0 < omega < math.inf:
        p, q = omega.as_integer_ratio()  # an order of magnitude cheaper than Fraction
    else:
        odds = _as_odds(omega)
        p, q = odds.numerator, odds.denominator
    s = q.bit_length() - 1
    if q != 1 << s:
        raise DomainError(f"odds ratio must be a float or a dyadic rational, got {omega!r}")
    return p, s


@lru_cache(maxsize=2)
def _log_coefficients(t: int, r: int, n: int) -> tuple[float, ...]:
    """The table's natural logarithms, read by log_tail_view."""
    return tuple(math.log(c) for c in _coefficients(t, r, n))


# Up to this many terms plain Horner sums as fast as a split does; splitting
# pays once the halves' products are long enough for Karatsuba multiplication.
_LEAF = 64


@lru_cache(maxsize=2)
def _sums(urn: UrnSpec, p: int, s: int) -> tuple[int, int]:
    """Exact weights of the tail j >= x and of the whole window at odds
    p / 2**s, both scaled by the same power of two.

    With S(a, b) = sum of c_i p**(i - a) 2**(s (b - 1 - i)) for a <= i < b
    over the table of m coefficients, and k the offset of x in the window,
    the tail's weight is p**k S(k, m) and the window's is
    S(0, k) 2**(s (m - k)) plus the tail's: the integers one Horner pass
    down the table gives. Each S is split at its midpoint,
    S(a, c) = S(a, b) 2**(s (c - b)) + p**(b - a) S(b, c), down to leaves of
    at most _LEAF terms summed by Horner, with each power p**h computed once
    per call; a window that short takes one Horner pass for both. A call
    costs O(M(m b) log m) for b bits per term and M(n) the cost of an n-bit
    product, rather than the O(m**2 b) of one Horner pass.
    """
    table = _coefficients(urn.t_count, urn.r_count, urn.sample_size)
    k = urn.support_count - urn.support()[0]
    m = len(table)
    if m <= _LEAF:  # one pass gives both, without the split's calls
        total, tail = _horner(table, 0, m, p, s, k)
        return tail * p**k, total
    powers = {}
    tail = p**k * _split(table, k, m, p, s, powers)
    return tail, (_split(table, 0, k, p, s, powers) << (s * (m - k))) + tail


def _horner(table: tuple[int, ...], a: int, b: int, p: int, s: int, k: int) -> tuple[int, int]:
    """(S(a, b), S(k, b)) of _sums by one Horner pass down the terms; the
    second is 0 when k lies outside a..b-1."""
    top = b - 1
    acc = tail = 0
    for i in range(top, a - 1, -1):
        acc = acc * p + (table[i] << (s * (top - i)))
        if i == k:
            tail = acc
    return acc, tail


def _split(table: tuple[int, ...], a: int, b: int, p: int, s: int, powers: dict[int, int]) -> int:
    """S(a, b) of _sums: Horner on at most _LEAF terms, else the sum of its
    two halves, with p**h cached in powers.

    A module-level function rather than a closure: a closure that calls
    itself is a reference cycle, which would keep the table and the powers
    alive until the cyclic garbage collector ran.
    """
    if b - a <= _LEAF:
        return _horner(table, a, b, p, s, -1)[0]
    mid = (a + b) // 2
    h = mid - a
    if h not in powers:
        powers[h] = p**h
    left = _split(table, a, mid, p, s, powers)
    return (left << (s * (b - mid))) + powers[h] * _split(table, mid, b, p, s, powers)


def _pmf_ratio(urn: UrnSpec, k: int, omega) -> tuple[int, int]:
    """Exact numerator and denominator of fnch_pmf; (0, 1) outside the
    support window."""
    p, s = _dyadic(omega)
    lo, hi = urn.support()
    if k < lo or k > hi:
        return 0, 1
    _, total = _sums(urn, p, s)
    table = _coefficients(urn.t_count, urn.r_count, urn.sample_size)
    return table[k - lo] * p ** (k - lo) << (s * (hi - k)), total


def fnch_pmf(urn: UrnSpec, k: int, omega) -> float:
    """Probability of drawing exactly k working-supporting items at bias omega."""
    num, den = _pmf_ratio(urn, k, omega)
    return num / den


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

    Each of its two sums, over the whole window and over the tail, bisects
    for the peak of its exponents and adds only the terms within
    37.5 + ln(count) nats of it (_peak_window), which leaves out less than
    e**-37.5 of the sum; a call costs O(window + log m) on a table of m
    coefficients. Accurate to roughly the rounding of the table's
    logarithms: the view steers a root search, and no value it returns is
    reported.
    """
    logs = _log_coefficients(urn.t_count, urn.r_count, urn.sample_size)
    k = urn.support_count - urn.support()[0]
    log_window, mean_window = _log_weight_and_mean(logs, log_omega, 0)
    log_tail, mean_tail = _log_weight_and_mean(logs, log_omega, k)
    return log_tail - log_window, mean_tail - mean_window


def _peak_window(logs: tuple[float, ...], u: float, start: int) -> tuple[int, int, float]:
    """(lo, hi, top): the terms i >= start whose exponent e_i = logs[i] + i u
    lies within 37.5 + ln(count) nats of the largest, top, with count the
    number of terms from start to the end of the table.

    The table is log-concave, so e_i is concave in i: bisecting on the sign
    of e_(i+1) - e_i finds the peak, and the window is contiguous around
    it. Each term outside lies below top - 37.5 - ln(count), so together
    they weigh less than e**-37.5 (about 5.2e-17) of the peak term alone,
    below the rounding of the window's sum.
    """
    end = len(logs) - 1
    lo, hi = start, end
    while lo < hi:
        mid = (lo + hi) // 2
        if logs[mid + 1] + (mid + 1) * u > logs[mid] + mid * u:
            lo = mid + 1
        else:
            hi = mid
    top = logs[lo] + lo * u
    floor = top - (37.5 + math.log(end + 1 - start))
    while lo > start and logs[lo - 1] + (lo - 1) * u > floor:
        lo -= 1
    while hi < end and logs[hi + 1] + (hi + 1) * u > floor:
        hi += 1
    return lo, hi, top


def _log_weight_and_mean(logs: tuple[float, ...], u: float, start: int) -> tuple[float, float]:
    """log of sum(exp(e_i)) over i >= start, with e_i = logs[i] + i u, and
    the mean of i under those weights.

    One loop sums the weight and the first moment left to right over
    _peak_window only: the peak found by bisection and the terms within
    37.5 + ln(count) nats of it. The terms left out add less than
    e**-37.5, about 5.2e-17, of the sum.
    """
    lo, hi, top = _peak_window(logs, u, start)
    total = moment = 0.0
    for i in range(lo, hi + 1):
        w = math.exp(logs[i] + i * u - top)
        total += w
        moment += (i - lo) * w
    return top + math.log(total), lo + moment / total
