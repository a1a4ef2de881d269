"""Exact rational probabilities.

Every probability the package reports is a ratio of arbitrary-precision
integers, kept as an exact rational for as long as possible. The integers
come from urn.py's coefficient table; this module defines no binomial
coefficients of its own. Floats are a derived view, never the source of
truth, so headline values such as 1/10 or 56/3003 survive bit-for-bit.
"""

from __future__ import annotations

import math
from fractions import Fraction

from .errors import DomainError

__all__ = ["ExactProb"]


class ExactProb(Fraction):
    """An exact rational probability.

    Stored in lowest terms (inherited from Fraction) and checked to lie in
    [0, 1]. ``float(p)`` gives the correctly rounded double view.
    """

    def __new__(cls, numerator=0, denominator=None):
        self = super().__new__(cls, numerator, denominator)
        if self < 0 or self > 1:
            raise DomainError(f"probability {self} outside [0, 1]")
        return self

    @property
    def num(self) -> int:
        return self.numerator

    @property
    def den(self) -> int:
        return self.denominator

    @property
    def log10(self) -> float:
        """log10 of the probability, from the exact ints: finite where
        float(p) underflows to 0.0, -inf for p = 0."""
        if not self:
            return -math.inf
        return math.log10(self.numerator) - math.log10(self.denominator)

    def __repr__(self) -> str:
        return f"ExactProb({self.numerator}, {self.denominator})"
