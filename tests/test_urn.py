import itertools
from fractions import Fraction

import pytest
from hypothesis import example, given, settings

from urntest import (
    InvalidUrnError,
    NoWorkingEvidenceError,
    UrnSpec,
    build_plus_one_urn,
    hyper_pmf,
    null_distribution,
    p_upper,
    tail_at_margin,
)

from urntest import urn as urn_module

from conftest import comb_pmf_row, comb_tail, urn_specs


def ordered_draw_distribution(t, r, n):
    """Oracle: enumerate every ordered full draw of the urn and tally the
    working-item count among the first n positions."""
    total = t + r
    counts = {}
    for perm in itertools.permutations(range(total)):
        k = sum(1 for item in perm[:n] if item < t)
        counts[k] = counts.get(k, 0) + 1
    n_perms = sum(counts.values())
    return {k: Fraction(v, n_perms) for k, v in counts.items()}


class TestUrnSpec:
    def test_validation(self):
        with pytest.raises(InvalidUrnError):
            UrnSpec(t_count=-1, r_count=3, sample_size=2, support_count=0)
        with pytest.raises(InvalidUrnError):
            UrnSpec(t_count=2, r_count=0, sample_size=2, support_count=2)
        with pytest.raises(InvalidUrnError):
            UrnSpec(t_count=2, r_count=3, sample_size=6, support_count=2)
        with pytest.raises(InvalidUrnError):
            UrnSpec(t_count=2, r_count=3, sample_size=2, support_count=3)
        with pytest.raises(InvalidUrnError):
            UrnSpec(t_count=2, r_count=3, sample_size=5, support_count=1)

    def test_support_window(self):
        assert UrnSpec(7, 8, 10, 7).support() == (2, 7)
        assert UrnSpec(2, 3, 2, 2).support() == (0, 2)


class TestBuildPlusOneUrn:
    def test_two_interviews(self):
        assert build_plus_one_urn(2, 0) == UrnSpec(2, 3, 2, 2)

    def test_seven_of_ten(self):
        assert build_plus_one_urn(7, 3) == UrnSpec(7, 8, 10, 7)

    def test_weighted_smoking_gun(self):
        assert build_plus_one_urn(3, 1, weights=(2, 1, 1)) == UrnSpec(3, 5, 4, 3)

    def test_seven_of_eight(self):
        assert build_plus_one_urn(7, 1, weights=(1,) * 7) == UrnSpec(7, 8, 8, 7)

    def test_rival_heavy_keeps_actual_count(self):
        # with more rival than working observations the max() keeps the urn
        # large enough to hold every observation actually made
        urn = build_plus_one_urn(2, 5)
        assert urn == UrnSpec(2, 5, 7, 2)

    def test_no_working_evidence_rejected(self):
        with pytest.raises(NoWorkingEvidenceError):
            build_plus_one_urn(0, 4)

    def test_empty_rejected(self):
        with pytest.raises(InvalidUrnError):
            build_plus_one_urn(0, 0)

    def test_weight_validation(self):
        with pytest.raises(InvalidUrnError):
            build_plus_one_urn(3, 1, weights=(2, 1))
        with pytest.raises(InvalidUrnError):
            build_plus_one_urn(3, 1, weights=(0, 1, 1))
        with pytest.raises(InvalidUrnError):
            build_plus_one_urn(3, 1, weights=(1.5, 1, 1))


class TestHyperPmf:
    def test_two_interview_point(self):
        assert hyper_pmf(UrnSpec(2, 3, 2, 2), 2) == Fraction(1, 10)

    def test_seven_of_ten_points(self):
        urn = UrnSpec(7, 8, 10, 7)
        assert hyper_pmf(urn, 5) == Fraction(1176, 3003)
        assert hyper_pmf(urn, 7) == Fraction(56, 3003)

    def test_outside_support_is_zero(self):
        urn = UrnSpec(7, 8, 10, 7)
        assert hyper_pmf(urn, 9) == 0
        assert hyper_pmf(urn, 1) == 0
        assert hyper_pmf(urn, -1) == 0

    @pytest.mark.parametrize("urn", [UrnSpec(7, 8, 10, 7), build_plus_one_urn(2000, 1000)])
    def test_every_k_matches_null_distribution(self, urn):
        # the table's sum is computed once for the urn, not once per k
        urn_module._coefficient_sum.cache_clear()
        rows = [(k, hyper_pmf(urn, k)) for k in range(urn.sample_size + 1)]
        assert urn_module._coefficient_sum.cache_info().misses == 1
        assert [(k, p.num, p.den) for k, p in rows] == [
            (k, p.num, p.den) for k, p in null_distribution(urn)
        ]


class TestPUpper:
    def test_worked_examples(self):
        assert p_upper(UrnSpec(2, 3, 2, 2)) == Fraction(1, 10)
        assert p_upper(UrnSpec(7, 8, 8, 7)) == Fraction(8, 6435)
        assert p_upper(UrnSpec(3, 5, 4, 3)) == Fraction(5, 70)

    def test_whole_support_is_one(self):
        assert p_upper(UrnSpec(4, 2, 5, 3)) == 1  # x = max(0, n - r) = 3
        assert p_upper(UrnSpec(2, 3, 2, 0)) == 1

    def test_weighted_seven_of_eight_variant(self):
        # doubling one of seven working observations against one rival
        # observation: the construction gives exactly 9/12870, about 0.0007
        urn = build_plus_one_urn(7, 1, weights=(1, 1, 1, 2, 1, 1, 1))
        assert urn == UrnSpec(7, 9, 8, 7)
        assert p_upper(urn) == Fraction(9, 12870)
        assert float(p_upper(urn)) == pytest.approx(0.0007, abs=5e-5)

    @given(urn_specs(max_total=60))
    def test_tail_dominates_point_mass(self, urn):
        tail = p_upper(urn)
        point = hyper_pmf(urn, urn.support_count)
        assert tail >= point
        if urn.support_count == min(urn.sample_size, urn.t_count):
            assert tail == point


class TestNullDistribution:
    def test_two_interview_case_matches_ordered_enumeration(self):
        oracle = ordered_draw_distribution(2, 3, 2)
        assert oracle == {0: Fraction(3, 10), 1: Fraction(6, 10), 2: Fraction(1, 10)}
        dist = dict(null_distribution(UrnSpec(2, 3, 2, 2)))
        assert dist == oracle

    def test_snow_table_two_decimals(self):
        dist = null_distribution(UrnSpec(7, 8, 10, 7))
        rounded = [round(float(p), 2) for _, p in dist]
        assert rounded == [0, 0, 0.01, 0.09, 0.33, 0.39, 0.16, 0.02, 0, 0, 0]

    @settings(max_examples=50)
    @given(urn_specs(max_total=500))
    def test_sums_to_exactly_one(self, urn):
        assert sum(p for _, p in null_distribution(urn)) == 1

    @given(urn_specs(max_total=40))
    def test_zero_outside_support(self, urn):
        lo, hi = urn.support()
        for k, p in null_distribution(urn):
            if k < lo or k > hi:
                assert p == 0
            else:
                assert p > 0


class TestAgainstMathComb:
    """Every exact number read from the coefficient table equals the
    independent math.comb reference, to the last digit."""

    @settings(deadline=None)
    @given(urn_specs(max_total=200))
    @example(build_plus_one_urn(2000, 1000))
    def test_exact_numbers(self, urn):
        row = comb_pmf_row(urn)
        assert p_upper(urn) == comb_tail(urn)
        assert [hyper_pmf(urn, k) for k in range(-1, urn.sample_size + 2)] == [0, *row, 0]
        assert null_distribution(urn) == list(enumerate(row))


class TestTailAtMargin:
    def test_rival_margin_curve(self):
        assert tail_at_margin(2, 2, 2, 1) == Fraction(1, 10)
        assert tail_at_margin(2, 2, 2, 8) == Fraction(1, 66)
        assert tail_at_margin(2, 2, 2, 98) == Fraction(1, 5151)

    def test_infeasible_support_rejected(self):
        with pytest.raises(InvalidUrnError):
            tail_at_margin(2, 2, 3, 1)
        with pytest.raises(InvalidUrnError):
            tail_at_margin(2, 2, 2, 0)

    def test_nonincreasing_in_margin_on_constraint_grid(self):
        # conservativeness: with n = t the tail only shrinks as the rival
        # margin grows, so the margin-1 urn maximizes the reported p
        for t in range(1, 13):
            n = t
            for x in range(n + 1):
                tails = [tail_at_margin(t, n, x, c) for c in range(1, 21)]
                assert all(a >= b for a, b in zip(tails, tails[1:])), (t, n, x)

    def test_margin_one_maximizes(self):
        for t in range(1, 13):
            n = t
            for x in range(n + 1):
                top = tail_at_margin(t, n, x, 1)
                assert all(tail_at_margin(t, n, x, c) <= top for c in range(2, 21))
