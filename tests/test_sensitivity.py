import math
import random
import sys
from collections import Counter

import mpmath
import pytest

from urntest import (
    DegenerateUrnError,
    DomainError,
    SolverError,
    UnreachableThresholdError,
    UrnSpec,
    build_plus_one_urn,
    fnch_tail,
    p_upper,
    solve_omega,
    sweep_curve,
    weight_omega_grid,
)
from urntest import sensitivity

from conftest import rational_tail


def mpmath_tail(urn, omega, digits=50):
    """Tail at omega summed in mpmath at the given precision."""
    with mpmath.workdps(digits):
        lo, hi = urn.support()
        om = mpmath.mpf(omega)
        terms = [
            mpmath.mpf(math.comb(urn.t_count, j) * math.comb(urn.r_count, urn.sample_size - j))
            * om**j
            for j in range(lo, hi + 1)
        ]
        return float(mpmath.fsum(terms[urn.support_count - lo :]) / mpmath.fsum(terms))


class TestSolveOmega:
    def test_seven_of_ten(self):
        urn = UrnSpec(7, 8, 10, 7)
        assert solve_omega(urn, 0.05).omega_star == pytest.approx(1.59, abs=0.01)
        assert solve_omega(urn, 0.10).omega_star == pytest.approx(2.36, abs=0.01)

    def test_seven_of_eight(self):
        urn = UrnSpec(7, 8, 8, 7)
        assert solve_omega(urn, 0.05).omega_star == pytest.approx(4.216, abs=0.005)
        assert solve_omega(urn, 0.10).omega_star == pytest.approx(6.292, abs=0.005)

    def test_quadratic_configuration(self):
        res = solve_omega(UrnSpec(2, 3, 3, 2), 0.05)
        assert res.omega_star == pytest.approx(0.1952, abs=0.0005)

    def test_tea_urn(self):
        assert solve_omega(UrnSpec(4, 5, 4, 4), 0.05).omega_star == pytest.approx(2.6, abs=0.05)

    def test_result_invariants(self):
        urn = UrnSpec(7, 8, 10, 7)
        res = solve_omega(urn, 0.05)
        assert abs(res.achieved_p - 0.05) <= 1e-9
        assert fnch_tail(urn, res.omega_star) == res.achieved_p
        assert res.bracket[0] <= res.omega_star <= res.bracket[1]
        assert res.iterations <= 200

    def test_round_trip_over_urn_grid(self):
        urns = []
        for t in range(2, 9):
            for extra in range(4):
                n = t + extra
                urn = UrnSpec(t, t + 1, n, min(n, t))
                lo, _ = urn.support()
                if urn.support_count > lo:
                    urns.append(urn)
        for weights_case in ((3, 5, 4, 3), (5, 9, 7, 5)):
            urns.append(UrnSpec(*weights_case))
        assert len(urns) >= 25
        checked = 0
        for urn in urns:
            for alpha in (0.01, 0.05, 0.10, 0.5):
                res = solve_omega(urn, alpha)
                assert abs(fnch_tail(urn, res.omega_star) - alpha) <= 1e-9
                checked += 1
        assert checked >= 50

    def test_threshold_ordering(self):
        urn = UrnSpec(7, 8, 8, 7)
        assert float(p_upper(urn)) < 0.01
        solved = [solve_omega(urn, a).omega_star for a in (0.01, 0.05, 0.10, 0.5)]
        assert all(a < b for a, b in zip(solved, solved[1:]))

    def test_alpha_domain(self):
        urn = UrnSpec(7, 8, 10, 7)
        for bad in (0.0, 1.0, -0.1, 1.5):
            with pytest.raises(DomainError):
                solve_omega(urn, bad)

    def test_max_iter_caps_steps(self):
        with pytest.raises(SolverError):
            solve_omega(UrnSpec(7, 8, 10, 7), 0.05, max_iter=1)

    def test_degenerate_urns_rejected(self):
        # single-point support window
        with pytest.raises(DegenerateUrnError):
            solve_omega(UrnSpec(2, 3, 5, 2), 0.05)
        # x at the bottom of the window: tail is 1 everywhere
        with pytest.raises(DegenerateUrnError):
            solve_omega(UrnSpec(2, 3, 2, 0), 0.05)


class TestRelativeTolerance:
    # |p - alpha| stops are blind at tiny alpha, and bisection brackets miss
    # the root of large urns; each solve is checked by an independent oracle

    def test_tiny_alpha(self):
        urn = UrnSpec(7, 8, 10, 7)
        res = solve_omega(urn, 1e-30)
        assert abs(float(rational_tail(urn, res.omega_star)) / 1e-30 - 1) <= 1e-9

    def test_large_urn(self):
        urn = build_plus_one_urn(500, 100)
        res = solve_omega(urn, 1e-12)
        assert abs(float(rational_tail(urn, res.omega_star)) / 1e-12 - 1) <= 1e-9

    def test_4001_item_urn(self):
        urn = build_plus_one_urn(2000, 1000)
        assert urn.total == 4001
        res = solve_omega(urn, 1e-12)
        assert abs(mpmath_tail(urn, res.omega_star) / 1e-12 - 1) <= 1e-9

    @pytest.mark.parametrize("alpha", [0.05, 1e-30])
    @pytest.mark.parametrize("working,rival", [(500, 100), (1625, 18), (2000, 1000)])
    def test_view_steers_to_one_exact_evaluation(self, working, rival, alpha, monkeypatch):
        # the float view alone must bring the solve within tol 1e-9, so the
        # exact tail runs once, for achieved_p
        calls = []

        def counted(urn, omega):
            calls.append(omega)
            return fnch_tail(urn, omega)

        monkeypatch.setattr(sensitivity, "fnch_tail", counted)
        res = solve_omega(build_plus_one_urn(working, rival), alpha, tol=1e-9)
        assert calls == [res.omega_star]
        assert abs(res.achieved_p / alpha - 1) <= 1e-9


@pytest.fixture
def evaluations(monkeypatch):
    """Counts of float-view calls and exact tails made by solve_omega."""
    counts = Counter()
    log_tail_view = sensitivity.log_tail_view

    def view(urn, log_omega):
        counts["view"] += 1
        return log_tail_view(urn, log_omega)

    def exact(urn, omega):
        counts["exact"] += 1
        return fnch_tail(urn, omega)

    monkeypatch.setattr(sensitivity, "log_tail_view", view)
    monkeypatch.setattr(sensitivity, "fnch_tail", exact)
    return counts


class TestEvaluationCounts:
    @pytest.mark.parametrize("fraction", [0, 0.1, 0.25, 0.5])
    def test_plus_one_urns(self, fraction, evaluations):
        # the +1 urn rejects at omega = 1, so Newton on log(-log tail) lands
        # just above the root and falls to it in a few view steps
        for working in (50, 75, 100, 150, 200, 300, 500, 750, 1000, 1500, 2000):
            urn = build_plus_one_urn(working, math.floor(working * fraction))
            for alpha in (0.1, 0.05, 0.003125):
                evaluations.clear()
                res = solve_omega(urn, alpha)
                assert abs(res.achieved_p / alpha - 1) <= 1e-9
                assert evaluations["view"] <= 6, (urn, alpha, evaluations)
                assert evaluations["exact"] == 1, (urn, alpha, evaluations)

    @pytest.mark.parametrize(
        "spec", [(342, 432, 252, 108), (848, 1667, 1519, 547), (1607, 1651, 1819, 588)]
    )
    def test_tol_finer_than_the_float_grid_stops_early(self, spec, evaluations):
        # the exact tails at neighbouring odds ratios on the solver's grid,
        # exp(u) for float u, straddle alpha by more than tol; the iterate
        # used to hop between the two for all 200 steps
        with pytest.raises(SolverError, match="finer than the tail's step"):
            solve_omega(UrnSpec(*spec), 1e-300, tol=1e-13)
        assert 1 <= evaluations["exact"] <= 10, evaluations

    def test_general_urns_meet_tol(self):
        rng = random.Random(20231)
        for _ in range(40):
            t, r = rng.randint(0, 300), rng.randint(1, 300)
            n = rng.randint(0, t + r)
            lo, hi = max(0, n - r), min(n, t)
            urn = UrnSpec(t, r, n, rng.randint(lo, hi))
            # at the smallest float, tails at omega -> 0 can stay above alpha
            for alpha in (math.ulp(0.0), 1e-300, 1e-6, 0.05, 0.5, 0.9, 0.999999):
                for tol in (1e-3, 1e-9, 1e-13):
                    try:
                        res = solve_omega(urn, alpha, tol=tol)
                    except DegenerateUrnError:
                        assert hi == lo or urn.support_count == lo
                        continue
                    except UnreachableThresholdError:
                        low = fnch_tail(urn, math.ulp(0.0))
                        high = fnch_tail(urn, sys.float_info.max)
                        assert not low <= alpha <= high, (urn, alpha)
                        continue
                    assert abs(res.achieved_p / alpha - 1) <= tol, (urn, alpha, tol)
                    assert fnch_tail(urn, res.omega_star) == res.achieved_p


class TestClosedFormCheck:
    def test_threshold_value(self, closed_form_check):
        assert closed_form_check(0.05) == pytest.approx(0.195159, abs=1e-5)

    def test_central_point(self, closed_form_check):
        # at p = 3/10 the quadratic configuration is exactly unbiased
        assert float(p_upper(UrnSpec(2, 3, 3, 2))) == pytest.approx(0.3, abs=1e-15)
        assert closed_form_check(0.3) == pytest.approx(1.0, abs=1e-9)

    def test_vanishes_at_zero(self, closed_form_check):
        assert closed_form_check(1e-12) < 1e-5
        assert closed_form_check(1e-18) < 1e-8

    def test_domain(self, closed_form_check):
        for bad in (0.0, 1.0, -0.2, 2.0):
            with pytest.raises(DomainError):
                closed_form_check(bad)

    def test_agrees_with_solver(self, closed_form_check):
        urn = UrnSpec(2, 3, 3, 2)
        for i in range(20):
            p = 0.01 + (0.29 - 0.01) * i / 19
            solved = solve_omega(urn, p).omega_star
            assert abs(solved - closed_form_check(p)) <= 1e-6


class TestSweepCurve:
    def test_endpoints_hit_reference_points(self):
        urn = UrnSpec(7, 8, 10, 7)
        first = sweep_curve(urn, 1.0, 2.36, 2)
        assert first[0][0] == 1.0
        assert first[0][1] == pytest.approx(0.0186, abs=5e-5)
        assert first[1][1] == pytest.approx(0.10, abs=5e-4)
        mid = sweep_curve(urn, 1.59, 2.36, 2)
        assert mid[0][1] == pytest.approx(0.05, abs=5e-4)

    def test_grid_containing_one_matches_central(self):
        urn = UrnSpec(7, 8, 10, 7)
        points = dict(sweep_curve(urn, 0.25, 4.0, 5))  # log grid passes through 1.0
        omega = min(points, key=lambda om: abs(om - 1.0))
        assert omega == pytest.approx(1.0, rel=1e-12)
        assert points[omega] == pytest.approx(float(p_upper(urn)), abs=1e-9)

    def test_monotone_nondecreasing(self):
        urn = UrnSpec(7, 8, 10, 7)
        for scale in ("log", "linear"):
            curve = sweep_curve(urn, 0.01, 50.0, 40, scale=scale)
            probs = [p for _, p in curve]
            assert all(a <= b for a, b in zip(probs, probs[1:]))

    def test_grid_shapes(self):
        urn = UrnSpec(7, 8, 10, 7)
        log_grid = [om for om, _ in sweep_curve(urn, 0.1, 10.0, 5, scale="log")]
        ratios = [b / a for a, b in zip(log_grid, log_grid[1:])]
        assert all(r == pytest.approx(ratios[0], rel=1e-9) for r in ratios)
        lin_grid = [om for om, _ in sweep_curve(urn, 1.0, 3.0, 5, scale="linear")]
        diffs = [b - a for a, b in zip(lin_grid, lin_grid[1:])]
        assert all(d == pytest.approx(diffs[0], rel=1e-9) for d in diffs)
        assert log_grid[-1] == 10.0 and lin_grid[-1] == 3.0

    def test_invalid_ranges(self):
        urn = UrnSpec(7, 8, 10, 7)
        with pytest.raises(DomainError):
            sweep_curve(urn, 2.0, 1.0, 5)
        with pytest.raises(DomainError):
            sweep_curve(urn, 0.0, 1.0, 5)
        with pytest.raises(DomainError):
            sweep_curve(urn, 0.1, 1.0, 1)
        with pytest.raises(DomainError):
            sweep_curve(urn, 0.1, 1.0, 5, scale="cubic")


class TestWeightOmegaGrid:
    def test_reference_cells(self):
        grid = weight_omega_grid(3, 1, weight_values=(1, 2, 5), omega_values=(1.0, 2.5))
        assert grid[0][0] == pytest.approx(4 / 35, abs=1e-12)
        assert grid[1][0] == pytest.approx(5 / 70, abs=1e-12)
        assert grid[2][1] == pytest.approx(0.11, abs=0.005)

    def test_shape(self):
        grid = weight_omega_grid(3, 1, weight_values=(1, 2, 3, 4), omega_values=(0.5, 1, 2))
        assert len(grid) == 4
        assert all(len(row) == 3 for row in grid)

    def test_heavier_weight_never_raises_p_at_unit_odds(self):
        grid = weight_omega_grid(3, 1, weight_values=tuple(range(1, 8)), omega_values=(1.0,))
        column = [row[0] for row in grid]
        assert all(a >= b for a, b in zip(column, column[1:]))
