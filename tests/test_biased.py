import math
import sys
from fractions import Fraction

import pytest
from hypothesis import HealthCheck, assume, example, given, settings, strategies as st

from urntest import DomainError, UrnSpec, fnch_pmf, fnch_tail, hyper_pmf, p_upper
from urntest.biased import _dyadic, _log_coefficients, _peak_window, _sums, log_tail_view
from urntest.urn import _coefficients

from conftest import rational_tail, urn_specs

OMEGA_GRID = (0.01, 0.1, 0.5, 1, 2, 10, 100)


class TestFnchPmf:
    def test_parity_values(self):
        urn = UrnSpec(7, 8, 10, 7)
        assert fnch_pmf(urn, 7, 1) == pytest.approx(0.0186, abs=5e-5)
        assert fnch_pmf(urn, 7, 0.5) == pytest.approx(0.0030, abs=2e-4)
        assert fnch_pmf(urn, 7, 2) == pytest.approx(0.0761, abs=2e-4)

    def test_quadratic_configuration_root(self):
        assert fnch_pmf(UrnSpec(2, 3, 3, 2), 2, 0.195159) == pytest.approx(0.0500, abs=1e-4)

    def test_outside_support_is_zero(self):
        urn = UrnSpec(7, 8, 10, 7)
        assert fnch_pmf(urn, 1, 2.0) == 0.0
        assert fnch_pmf(urn, 8, 2.0) == 0.0

    def test_bad_odds_rejected(self):
        urn = UrnSpec(2, 3, 2, 2)
        for bad in (0, -1, float("inf"), float("nan")):
            with pytest.raises(DomainError):
                fnch_pmf(urn, 2, bad)

    @settings(max_examples=40)
    @given(urn_specs(max_total=300), st.sampled_from(OMEGA_GRID))
    def test_normalization(self, urn, omega):
        total = math.fsum(fnch_pmf(urn, k, omega) for k in range(urn.sample_size + 1))
        assert total == pytest.approx(1.0, abs=1e-12)

    @given(urn_specs(max_total=80))
    def test_central_reduction(self, urn):
        lo, hi = urn.support()
        for k in range(lo, hi + 1):
            exact = float(hyper_pmf(urn, k))
            assert fnch_pmf(urn, k, 1) == pytest.approx(exact, rel=1e-14)


class TestFnchTail:
    def test_solved_odds_reproduce_thresholds(self):
        urn = UrnSpec(7, 8, 10, 7)
        assert fnch_tail(urn, 1.59) == pytest.approx(0.050, abs=5e-4)
        assert fnch_tail(urn, 2.36) == pytest.approx(0.100, abs=5e-4)

    def test_central_reduction_matches_p_upper(self):
        for urn in (UrnSpec(7, 8, 10, 7), UrnSpec(2, 3, 2, 2), UrnSpec(4, 5, 4, 4)):
            assert fnch_tail(urn, 1) == pytest.approx(float(p_upper(urn)), abs=1e-12)

    def test_weighted_smoking_gun_with_bias(self):
        assert fnch_tail(UrnSpec(3, 8, 4, 3), 2.5) == pytest.approx(0.1096, abs=1e-4)

    def test_quintic_identity(self):
        # for the 7-of-10 urn the tail reduces to a ratio of quintics in omega
        urn = UrnSpec(7, 8, 10, 7)
        for i in range(100):
            omega = 0.1 * (10.0 / 0.1) ** (i / 99)
            quintic = (8 * omega**5) / (
                3 + 40 * omega + 140 * omega**2 + 168 * omega**3 + 70 * omega**4 + 8 * omega**5
            )
            assert abs(fnch_tail(urn, omega) - quintic) <= 1e-12

    @settings(max_examples=40)
    @given(urn_specs(max_total=60))
    def test_strictly_increasing_in_omega(self, urn):
        lo, _ = urn.support()
        if urn.support_count <= lo:
            return  # tail is constant 1; nothing to check
        grid = [0.05, 0.3, 1.0, 3.0, 20.0]
        # the exact tails rise strictly; their correctly rounded floats may
        # tie where they round to the same double, e.g. 1 - 4.6e-17 and
        # 1 - 1.4e-27 both read 1.0 on UrnSpec(31, 14, 14, 1)
        exact = [Fraction(*_sums(urn, *_dyadic(om))) for om in grid]
        assert all(a < b for a, b in zip(exact, exact[1:]))
        values = [fnch_tail(urn, om) for om in grid]
        assert values == [float(v) for v in exact]
        assert all(a <= b for a, b in zip(values, values[1:]))

    @settings(max_examples=25)
    @given(urn_specs(max_total=60), st.sampled_from(OMEGA_GRID))
    def test_matches_independent_rational_evaluation(self, urn, omega):
        expected = float(rational_tail(urn, omega))
        assert fnch_tail(urn, omega) == pytest.approx(expected, rel=1e-12, abs=1e-300)


class TestLogSpacePath:
    # urns above 300 items, once summed in log space, are exact like every other urn

    def test_large_urn_tail_matches_rational(self):
        urn = UrnSpec(t_count=180, r_count=220, sample_size=150, support_count=80)
        for omega in (0.5, 1, 1.7, 1e-3, 250.0):
            assert fnch_tail(urn, omega) == float(rational_tail(urn, omega))

    def test_large_urn_pmf_matches_rational(self):
        urn = UrnSpec(t_count=180, r_count=220, sample_size=150, support_count=80)
        om = Fraction(3, 2)
        lo, hi = urn.support()
        terms = {
            j: math.comb(180, j) * math.comb(220, 150 - j) * om**j for j in range(lo, hi + 1)
        }
        total = sum(terms.values())
        for k in (lo, 70, 80, hi):
            assert fnch_pmf(urn, k, 1.5) == float(Fraction(terms[k], total))


def _horner_sums(urn, p, s):
    """The one-pass Horner sum _sums replaced, kept as the reference:
    A_i = A_(i+1) p + c_i 2**(s (m - 1 - i)) down the table, tail p**k A_k."""
    table = _coefficients(urn.t_count, urn.r_count, urn.sample_size)
    k = urn.support_count - urn.support()[0]
    top = len(table) - 1
    acc = tail = 0
    for i in range(top, -1, -1):
        acc = acc * p + (table[i] << (s * (top - i)))
        if i == k:
            tail = acc
    return tail * p**k, acc


def _comb_weights(urn, omega):
    """The exact weights C(t, j) C(r, n - j) omega**(j - lo) of the window,
    from math.comb, as numerators over their common denominator
    den(omega)**(m - 1) = 2**(s (m - 1)), the factor _sums scales by:
    summing them as Fractions reduces every partial sum, which took 90 s
    for one 420-term window at omega = 5e-324."""
    om = Fraction(omega)
    s = om.denominator.bit_length() - 1  # den(omega) = 2**s: a product by its power is a shift
    assert om.denominator == 1 << s
    lo, hi = urn.support()
    weights, power = [], 1
    for j in range(lo, hi + 1):  # power = numerator(omega)**(j - lo)
        comb = math.comb(urn.t_count, j) * math.comb(urn.r_count, urn.sample_size - j)
        weights.append(comb * power << (s * (hi - j)))
        power *= om.numerator
    return weights


@st.composite
def windowed_urns(draw):
    """Urns whose support window holds 1, 63-65, 127-129 or 300+ terms, on
    either side of the 64-term leaves and their first split, with the
    observed count at the bottom, middle or top of the window."""
    m = draw(st.sampled_from([1, 63, 64, 65, 127, 128, 129]) | st.integers(300, 360))
    lo, slack = draw(st.integers(0, 20)), draw(st.integers(0, 20))
    hi = lo + m - 1
    t, n = (hi, hi + slack) if draw(st.booleans()) else (hi + slack, hi)
    r = n - lo if lo else n + 1 + draw(st.integers(0, 20))
    assume(r >= 1)
    urn = UrnSpec(t, r, n, lo + draw(st.sampled_from([0, (m - 1) // 2, m - 1])))
    assert urn.support() == (lo, hi)
    return urn


ODDS_EDGES = (math.ulp(0.0), 1e-300, 1.0, 3.0, 1e300)


class TestSums:
    @example(UrnSpec(359, 360, 359, 0), math.ulp(0.0))
    @example(UrnSpec(359, 360, 359, 359), 1e300)
    @example(UrnSpec(127, 128, 127, 64), 3.0)
    @settings(max_examples=60, deadline=None, suppress_health_check=[HealthCheck.too_slow])
    @given(
        windowed_urns(),
        st.sampled_from(ODDS_EDGES)
        | st.floats(min_value=0.0, exclude_min=True, allow_infinity=False, allow_subnormal=True),
    )
    def test_binary_split_is_exact(self, urn, omega):
        p, s = _dyadic(omega)
        tail, total = _sums(urn, p, s)
        weights = _comb_weights(urn, omega)
        lo, hi = urn.support()
        assert tail == sum(weights[urn.support_count - lo :])
        assert total == sum(weights)
        ref_tail, ref_total = _horner_sums(urn, p, s)
        assert fnch_tail(urn, omega) == ref_tail / ref_total
        for k in {lo, (lo + hi) // 2, urn.support_count, hi}:
            assert fnch_pmf(urn, k, omega) == weights[k - lo] / ref_total


class TestDyadic:
    @example(math.ulp(0.0))
    @example(sys.float_info.min)
    @example(sys.float_info.max)
    @given(st.floats(min_value=0.0, exclude_min=True, allow_infinity=False, allow_subnormal=True))
    def test_float_matches_fraction_route(self, omega):
        odds = Fraction(omega)
        assert _dyadic(omega) == (odds.numerator, odds.denominator.bit_length() - 1)

    @pytest.mark.parametrize(
        "bad", [math.nan, math.inf, -math.inf, 0.0, -0.0, -1.5, 0, -2, Fraction(1, 3), Fraction(-1, 2)]
    )
    def test_rejects_non_dyadic_or_non_positive(self, bad):
        with pytest.raises(DomainError):
            _dyadic(bad)

    def test_ints_and_dyadic_fractions(self):
        assert _dyadic(3) == (3, 0)
        assert _dyadic(Fraction(5, 8)) == (5, 3)


def _full_support_view(logs, u, k):
    """log_tail_view summed over every term of the table, as before the window."""
    exponents = [c + i * u for i, c in enumerate(logs)]

    def log_weight_and_mean(start):
        top = max(exponents[start:])
        weights = [math.exp(e - top) for e in exponents[start:]]
        total = sum(weights)
        mean = start + sum(i * w for i, w in enumerate(weights)) / total
        return top + math.log(total), mean

    log_window, mean_window = log_weight_and_mean(0)
    log_tail, mean_tail = log_weight_and_mean(k)
    return (log_tail - log_window, mean_tail - mean_window), exponents


class TestLogTailView:
    @example(UrnSpec(2000, 2001, 2010, 1000), 0.0)  # 1992 terms, x mid-window
    @example(UrnSpec(2000, 2001, 2010, 30), 0.02)
    @example(UrnSpec(1800, 2201, 2000, 1790), -3.7)
    @example(UrnSpec(1800, 2201, 2000, 5), 700.0)
    @example(UrnSpec(2000, 2001, 3000, 2000), -700.0)
    @settings(max_examples=100, deadline=None, suppress_health_check=[HealthCheck.too_slow])
    @given(urn_specs(max_total=4001), st.floats(-700.0, 700.0))
    def test_window_matches_full_support(self, urn, log_omega):
        logs = _log_coefficients(urn.t_count, urn.r_count, urn.sample_size)
        k = urn.support_count - urn.support()[0]
        (log_tail, slope), exponents = _full_support_view(logs, log_omega, k)
        got_log_tail, got_slope = log_tail_view(urn, log_omega)
        # both sums round to a few ulps of the terms they subtract: the
        # exponents for the log tail, the indices (up to len(logs)) for the slope
        scale = max(1.0, *(abs(e) for e in exponents))
        assert got_log_tail == pytest.approx(log_tail, rel=1e-12, abs=1e-12 * scale)
        assert got_slope == pytest.approx(slope, rel=1e-12, abs=1e-12 * len(logs))
        for start in (0, k):
            lo, hi, top = _peak_window(logs, log_omega, start)
            peak = max(range(start, len(logs)), key=exponents.__getitem__)
            assert start <= lo <= peak <= hi < len(logs)
            floor = top - (37.5 + math.log(len(logs) - start))
            outside = [exponents[i] for i in range(start, len(logs)) if not lo <= i <= hi]
            assert all(e <= floor for e in outside)
