import math

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
