import math
from fractions import Fraction

import pytest
from hypothesis import given, strategies as st

from urntest import DomainError, ExactProb
from urntest.urn import _coefficients

from conftest import urn_specs


def factorial_ratio(a: int, b: int) -> int:
    """Independent binomial oracle straight from the factorial definition."""
    if b > a:
        return 0
    return math.factorial(a) // (math.factorial(b) * math.factorial(a - b))


class TestBinomial:
    """The binomial products c_j = C(t, j) C(r, n - j) in urn.py's table."""

    @given(urn_specs(max_total=300))
    def test_matches_factorial_oracle(self, urn):
        t, r, n = urn.t_count, urn.r_count, urn.sample_size
        lo, hi = urn.support()
        expected = tuple(factorial_ratio(t, j) * factorial_ratio(r, n - j) for j in range(lo, hi + 1))
        assert _coefficients(t, r, n) == expected


class TestExactProb:
    def test_lowest_terms(self):
        p = ExactProb(6, 10)
        assert (p.num, p.den) == (3, 5)

    def test_bounds_enforced(self):
        with pytest.raises(DomainError):
            ExactProb(3, 2)
        with pytest.raises(DomainError):
            ExactProb(-1, 2)

    def test_float_view_is_correctly_rounded(self):
        assert float(ExactProb(1, 3)) == 1 / 3
        assert float(ExactProb(1, 10)) == 0.1

    def test_equality_with_fraction(self):
        assert ExactProb(56, 3003) == Fraction(8, 429)

    @given(st.integers(0, 10**6), st.integers(1, 10**6))
    def test_invariants(self, num, den):
        if num > den:
            num, den = den, num
        p = ExactProb(num, den)
        assert 0 <= p <= 1
        assert math.gcd(p.num, p.den) == 1
