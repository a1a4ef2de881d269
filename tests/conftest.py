import math
from fractions import Fraction

import pytest
from hypothesis import strategies as st

from urntest import DomainError, UrnSpec


@st.composite
def urn_specs(draw, max_total=60, min_total=1):
    """Valid urns up to a given total size, with a feasible observed count."""
    total = draw(st.integers(min_total, max_total))
    r = draw(st.integers(1, total))
    t = total - r
    n = draw(st.integers(0, total))
    lo, hi = max(0, n - r), min(n, t)
    x = draw(st.integers(lo, hi))
    return UrnSpec(t_count=t, r_count=r, sample_size=n, support_count=x)


def rational_tail(urn, omega):
    """Exact rational tail, computed independently term by term."""
    om = Fraction(omega)
    lo, hi = urn.support()
    terms = {
        j: math.comb(urn.t_count, j) * math.comb(urn.r_count, urn.sample_size - j) * om**j
        for j in range(lo, hi + 1)
    }
    total = sum(terms.values())
    return sum(v for j, v in terms.items() if j >= urn.support_count) / total


def comb_pmf_row(urn):
    """Exact null pmf for k = 0..n, straight from math.comb: the k-th term
    over C(t + r, n)."""
    t, r, n = urn.t_count, urn.r_count, urn.sample_size
    den = math.comb(t + r, n)
    return [Fraction(math.comb(t, k) * math.comb(r, n - k), den) for k in range(n + 1)]


def comb_tail(urn):
    """Exact null tail P(X >= x), straight from math.comb: the terms from x
    up over C(t + r, n)."""
    t, r, n = urn.t_count, urn.r_count, urn.sample_size
    num = sum(math.comb(t, k) * math.comb(r, n - k) for k in range(urn.support_count, n + 1))
    return Fraction(num, math.comb(t + r, n))


def _closed_form_omega(p: float) -> float:
    """Closed-form omega for the urn with 2 working and 3 rival items and
    3 draws, observed support 2.

    For that configuration the tail is 3w**2 / (1 + 6w + 3w**2); solving
    the quadratic for the positive root gives
    w = p/(1-p) + sqrt(p + 2p**2) / (sqrt(3) (1-p)). Used as an
    independent cross-check of solve_omega.
    """
    if not 0.0 < p < 1.0:
        raise DomainError(f"p must lie strictly in (0, 1), got {p}")
    return p / (1.0 - p) + math.sqrt(p + 2.0 * p * p) / (math.sqrt(3.0) * (1.0 - p))


@pytest.fixture
def closed_form_check():
    return _closed_form_omega
