"""Acceptance suite: one test per release criterion.

Each test prints a single pass line once its assertions hold, so a
`pytest tests/test_acceptance.py -v -s` run reads as a checklist. All
tolerances are pinned here, not configurable.
"""

import json
import math
from fractions import Fraction

import pytest

from urntest import (
    SimConfig,
    UrnSpec,
    build_plus_one_urn,
    enumerate_exact,
    fixture_path,
    fnch_pmf,
    fnch_tail,
    hyper_pmf,
    monte_carlo,
    null_distribution,
    p_upper,
    parse_ledger,
    run_test,
    solve_omega,
    tail_at_margin,
)
from urntest.cli import main


def ok(number: int, name: str):
    print(f"criterion {number:02d} ({name}): PASS")


def test_criterion_01_two_interview_example():
    urn = UrnSpec(2, 3, 2, 2)
    assert p_upper(urn) == Fraction(1, 10)
    assert [p for _, p in null_distribution(urn)] == [
        Fraction(3, 10),
        Fraction(6, 10),
        Fraction(1, 10),
    ]
    ok(1, "two-interview example")


def test_criterion_02_rival_margin_points():
    assert tail_at_margin(2, 2, 2, 1) == Fraction(1, 10)
    assert tail_at_margin(2, 2, 2, 8) == Fraction(1, 66)
    assert float(tail_at_margin(2, 2, 2, 8)) == pytest.approx(0.015, abs=5e-4)
    assert tail_at_margin(2, 2, 2, 98) == Fraction(1, 5151)
    assert float(tail_at_margin(2, 2, 2, 98)) == pytest.approx(0.0002, abs=5e-5)
    ok(2, "rival-margin curve points")


def test_criterion_03_seven_of_ten():
    p = p_upper(UrnSpec(7, 8, 10, 7))
    assert p == Fraction(56, 3003)
    assert abs(float(p) - 0.0186) <= 5e-5
    ok(3, "7-of-10 example")


def test_criterion_04_biased_pmf_parity():
    urn = UrnSpec(7, 8, 10, 7)
    assert abs(fnch_pmf(urn, 7, 0.5) - 0.0030) <= 2e-4
    assert abs(fnch_pmf(urn, 7, 2) - 0.0761) <= 2e-4
    weighted = build_plus_one_urn(7, 3, weights=(2, 1, 1, 1, 1, 1, 1))
    assert weighted == UrnSpec(7, 9, 10, 7)
    assert abs(fnch_pmf(weighted, 7, 1) - 0.0105) <= 2e-4
    ok(4, "biased pmf parity")


def test_criterion_05_sensitivity_solves(closed_form_check):
    urn = UrnSpec(7, 8, 10, 7)
    assert solve_omega(urn, 0.05).omega_star == pytest.approx(1.59, abs=0.01)
    assert solve_omega(urn, 0.10).omega_star == pytest.approx(2.36, abs=0.01)
    quad = solve_omega(UrnSpec(2, 3, 3, 2), 0.05).omega_star
    assert quad == pytest.approx(0.1952, abs=5e-4)
    assert abs(quad - closed_form_check(0.05)) <= 1e-6
    ok(5, "sensitivity solves")


def test_criterion_06_rossel_replication_via_cli(capsys):
    code = main(["test", str(fixture_path("rossel2023")), "--format", "json"])
    out = capsys.readouterr().out
    assert code == 0
    payload = json.loads(out)
    assert (payload["p_upper"]["num"], payload["p_upper"]["den"]) == (8, 6435)
    assert f"{payload['p_upper']['float']:.3f}" == "0.001"
    assert payload["sensitivity"][0]["omega_star"] == pytest.approx(4.216, abs=0.005)
    assert payload["sensitivity"][1]["omega_star"] == pytest.approx(6.292, abs=0.005)
    ok(6, "policy-shift case replication via CLI")


def test_criterion_07_snow_replication():
    ledger = parse_ledger(fixture_path("snow1855").read_bytes())
    summary = run_test(ledger)
    rounded = [round(float(p), 2) for _, p in null_distribution(summary.urn)]
    assert rounded == [0, 0, 0.01, 0.09, 0.33, 0.39, 0.16, 0.02, 0, 0, 0]
    assert round(float(summary.p_upper), 3) == 0.019
    assert summary.sensitivity[0].omega_star == pytest.approx(1.59, abs=0.01)
    assert summary.sensitivity[1].omega_star == pytest.approx(2.36, abs=0.01)
    ok(7, "cholera case replication")


def test_criterion_08_weighting():
    plain = build_plus_one_urn(3, 1)
    assert p_upper(plain) == Fraction(4, 35)
    assert float(p_upper(plain)) == pytest.approx(0.114, abs=5e-4)
    weighted = build_plus_one_urn(3, 1, weights=(2, 1, 1))
    assert p_upper(weighted) == Fraction(5, 70)
    assert float(p_upper(weighted)) == pytest.approx(0.0714, abs=5e-5)
    heavy = build_plus_one_urn(3, 1, weights=(5, 1, 1))
    assert abs(fnch_tail(heavy, 2.5) - 0.110) <= 0.005
    ok(8, "evidence weighting")


def test_criterion_09_tea_reanalysis():
    fisher_baseline = p_upper(UrnSpec(4, 4, 4, 4))
    assert fisher_baseline == Fraction(1, 70)
    assert float(fisher_baseline) == pytest.approx(0.0143, abs=5e-5)
    ledger = parse_ledger(fixture_path("tea1935").read_bytes())
    summary = run_test(ledger)
    # the exact value for this urn is 1/126 (about 0.0079); a common secondary
    # quote of 0.004 for the same configuration does not match the exact
    # computation and is treated here as a misprint
    assert summary.p_upper == Fraction(1, 126)
    assert float(summary.p_upper) == pytest.approx(0.0079, abs=5e-5)
    assert summary.sensitivity[0].omega_star == pytest.approx(2.6, abs=0.05)
    ok(9, "tea re-analysis")


def test_criterion_10_margin_monotonicity_suite():
    violations = 0
    for t in range(1, 13):
        n = t
        for x in range(n + 1):
            tails = [tail_at_margin(t, n, x, c) for c in range(1, 21)]
            violations += sum(1 for a, b in zip(tails, tails[1:]) if a < b)
    assert violations == 0
    # extended scan with n beyond t, recorded but not asserted
    extended_pairs = extended_violations = 0
    for t in range(1, 13):
        for n in range(t, t + 21):
            for x in range(min(n, t) + 1):
                tails = []
                for c in range(1, 21):
                    feasible = n <= 2 * t + c and x >= max(0, n - t - c)
                    tails.append(tail_at_margin(t, n, x, c) if feasible else None)
                for a, b in zip(tails, tails[1:]):
                    if a is not None and b is not None:
                        extended_pairs += 1
                        if a < b:
                            extended_violations += 1
    print(
        f"extended margin scan (n up to t+c): {extended_pairs} adjacent pairs, "
        f"{extended_violations} monotonicity violations (recorded, not asserted)"
    )
    ok(10, "margin monotonicity suite")


def test_criterion_11_oracle_equivalence():
    omegas = (0.1, 0.5, 1, 2, 10)
    urns = 0
    for total in range(1, 13):
        for r in range(1, total + 1):
            t = total - r
            for n in range(total + 1):
                urn = UrnSpec(t, r, n, max(0, n - r))
                urns += 1
                central = enumerate_exact(urn, 1)
                assert central == [(k, Fraction(p)) for k, p in null_distribution(urn)]
                for k in range(n + 1):
                    assert central[k][1] == hyper_pmf(urn, k)
                for omega in omegas:
                    for k, prob in enumerate_exact(urn, omega):
                        got = fnch_pmf(urn, k, omega)
                        if prob == 0:
                            assert got == 0.0
                        else:
                            assert abs(got - float(prob)) <= 1e-10 * float(prob)
    assert urns == 728
    ok(11, "oracle equivalence")


def test_criterion_12_monte_carlo():
    urn = UrnSpec(2, 3, 2, 2)
    draws = 10**5
    se = math.sqrt(0.1 * 0.9 / draws)
    for seed in range(10):
        freqs = dict(monte_carlo(urn, SimConfig(draws=draws, seed=seed)))
        assert abs(freqs[2] - 0.1) <= 4 * se
    def as_bytes(rows):
        return "\n".join(f"{k},{p!r}" for k, p in rows).encode()

    first = monte_carlo(urn, SimConfig(draws=draws, seed=12345))
    second = monte_carlo(urn, SimConfig(draws=draws, seed=12345))
    assert as_bytes(first) == as_bytes(second)
    ok(12, "Monte Carlo accuracy and determinism")


def test_criterion_13_quintic_identity():
    urn = UrnSpec(7, 8, 10, 7)
    for i in range(100):
        omega = 0.1 * 100.0 ** (i / 99)
        quintic = (8 * omega**5) / (
            3 + 40 * omega + 140 * omega**2 + 168 * omega**3 + 70 * omega**4 + 8 * omega**5
        )
        assert abs(fnch_tail(urn, omega) - quintic) <= 1e-12
    ok(13, "quintic tail identity")
