import math
from fractions import Fraction

import pytest
from hypothesis import given, strategies as st

from urntest import DomainError, ExactProb, binomial


def factorial_ratio(a: int, b: int) -> int:
    """Independent binomial oracle straight from the factorial definition."""
    if b > a:
        return 0
    return math.factorial(a) // (math.factorial(b) * math.factorial(a - b))


class TestBinomial:
    def test_worked_values(self):
        assert binomial(5, 2) == 10
        assert binomial(8, 4) == 70
        assert binomial(7, 0) == 1

    def test_against_factorial_oracle(self):
        assert factorial_ratio(15, 10) == 3003
        assert binomial(15, 10) == 3003

    def test_b_greater_than_a_is_zero(self):
        assert binomial(3, 5) == 0
        assert binomial(0, 1) == 0

    def test_negative_arguments_rejected(self):
        with pytest.raises(DomainError):
            binomial(-1, 0)
        with pytest.raises(DomainError):
            binomial(5, -2)

    @given(st.integers(1, 200), st.integers(1, 200))
    def test_pascal_identity(self, a, b):
        if b > a:
            a, b = b, a
        assert binomial(a, b) == binomial(a - 1, b - 1) + binomial(a - 1, b)

    @given(st.integers(0, 200), st.integers(0, 200))
    def test_symmetry(self, a, b):
        if b > a:
            a, b = b, a
        assert binomial(a, b) == binomial(a, a - b)

    @given(st.integers(0, 300), st.integers(0, 300))
    def test_matches_factorial_oracle(self, a, b):
        assert binomial(a, b) == factorial_ratio(a, b)


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
