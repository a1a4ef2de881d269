import json
from fractions import Fraction

import pytest

from urntest import (
    DomainError,
    UrnSpec,
    csv_bytes,
    fixture_path,
    parse_ledger,
    pmf_rows,
    render,
    run_sequential_rivals,
    run_test,
    summarize_urn,
    sweep_curve,
    weight_grid_rows,
)


@pytest.fixture(scope="module")
def rossel():
    return parse_ledger(fixture_path("rossel2023").read_bytes())


@pytest.fixture(scope="module")
def snow():
    return parse_ledger(fixture_path("snow1855").read_bytes())


@pytest.fixture(scope="module")
def tea():
    return parse_ledger(fixture_path("tea1935").read_bytes())


class TestRunTest:
    def test_rossel(self, rossel):
        summary = run_test(rossel)
        assert summary.urn == UrnSpec(7, 8, 8, 7)
        assert summary.p_upper == Fraction(8, 6435)
        assert summary.sensitivity[0].omega_star == pytest.approx(4.216, abs=0.005)
        assert summary.sensitivity[1].omega_star == pytest.approx(6.292, abs=0.005)

    def test_snow(self, snow):
        summary = run_test(snow)
        assert summary.urn == UrnSpec(7, 8, 10, 7)
        assert summary.p_upper == Fraction(56, 3003)
        assert float(summary.p_upper) == pytest.approx(0.019, abs=5e-4)
        assert summary.sensitivity[0].omega_star == pytest.approx(1.59, abs=0.01)
        assert summary.sensitivity[1].omega_star == pytest.approx(2.36, abs=0.01)

    def test_tea(self, tea):
        summary = run_test(tea)
        assert summary.urn == UrnSpec(4, 5, 4, 4)
        assert summary.p_upper == Fraction(1, 126)
        assert summary.sensitivity[0].omega_star == pytest.approx(2.6, abs=0.05)

    def test_alphas_follow_ledger_order(self, snow):
        summary = run_test(snow)
        assert summary.alphas == snow.alpha_thresholds
        assert len(summary.sensitivity) == len(summary.alphas)

    def test_threshold_already_met_is_skipped_with_note(self):
        summary = summarize_urn(UrnSpec(2, 3, 2, 2), alphas=(Fraction(1, 20), Fraction(1, 2)))
        assert summary.p_upper == Fraction(1, 10)
        assert summary.sensitivity[0] is None  # p = 0.1 >= 0.05
        assert summary.sensitivity[1] is not None
        assert any("at or above" in note for note in summary.notes)

    def test_exact_boundary_comparison(self):
        # p equal to alpha is not below it; no odds ratio applies
        summary = summarize_urn(UrnSpec(2, 3, 2, 2), alphas=(Fraction(1, 10),))
        assert summary.sensitivity[0] is None

    def test_rival_heavy_note(self):
        doc = {
            "schema_version": 1,
            "case_name": "rival-heavy",
            "working_hypothesis": "W",
            "rival_hypothesis": "R",
            "observations": [
                {"id": "w1", "description": "x", "supports": "working"},
                {"id": "w2", "description": "x", "supports": "working"},
            ]
            + [
                {"id": f"r{i}", "description": "x", "supports": "rival"}
                for i in range(5)
            ],
        }
        summary = run_test(parse_ledger(json.dumps(doc)))
        assert summary.urn.r_count == 5
        assert any("minimal consistent extension" in note for note in summary.notes)


class TestSequentialRivals:
    def test_halving_thresholds(self, rossel, snow, tea):
        outcomes = run_sequential_rivals([rossel, snow, tea], Fraction(1, 20), rule="halving")
        assert [o.adjusted_alpha for o in outcomes] == [
            Fraction(1, 20),
            Fraction(1, 40),
            Fraction(1, 80),
        ]

    def test_single_ledger_matches_run_test(self, rossel):
        (outcome,) = run_sequential_rivals([rossel], Fraction(1, 20))
        direct = run_test(rossel, alphas=(Fraction(1, 20),))
        assert outcome.summary.p_upper == direct.p_upper
        assert outcome.summary.sensitivity[0].omega_star == pytest.approx(
            direct.sensitivity[0].omega_star, abs=1e-9
        )
        assert outcome.reject is (direct.p_upper < Fraction(1, 20))

    def test_rossel_rejected_at_every_halved_threshold(self, rossel):
        for alpha in (Fraction(1, 20), Fraction(1, 40), Fraction(1, 80)):
            (outcome,) = run_sequential_rivals([rossel], alpha, rule="fixed")
            assert outcome.reject  # 8/6435 < 1/80

    def test_fixed_rule(self, rossel, snow):
        outcomes = run_sequential_rivals([rossel, snow], Fraction(1, 20), rule="fixed")
        assert all(o.adjusted_alpha == Fraction(1, 20) for o in outcomes)
        assert outcomes[1].reject  # 56/3003 < 1/20

    def test_boundary_is_exact(self, snow):
        # p(snow) = 56/3003; alpha exactly equal fails to reject
        (outcome,) = run_sequential_rivals([snow], Fraction(56, 3003), rule="fixed")
        assert not outcome.reject

    def test_validation(self, rossel):
        with pytest.raises(DomainError):
            run_sequential_rivals([rossel], Fraction(1, 20), rule="sqrt")
        with pytest.raises(DomainError):
            run_sequential_rivals([], Fraction(1, 20))
        with pytest.raises(DomainError):
            run_sequential_rivals([rossel], 2)


class TestRender:
    def test_text_contains_table_values(self, rossel):
        text = render(run_test(rossel), "text").decode()
        assert "p <= 0.001" in text
        assert "odds ratio" in text
        assert "4.216" in text
        assert "6.292" in text

    def test_json_fraction_consistent_with_float(self, snow):
        payload = json.loads(render(run_test(snow), "json"))
        p = payload["p_upper"]
        assert p["num"] / p["den"] == pytest.approx(p["float"], rel=1e-15)
        assert p["float"] == pytest.approx(0.0186, abs=5e-5)

    def test_csv_snow_row(self, snow):
        lines = render(run_test(snow), "csv").decode().splitlines()
        assert lines[0].startswith("alpha,omega")
        assert any(line.startswith("0.10,2.36,") for line in lines[1:])
        assert any(line.startswith("0.05,1.59,") for line in lines[1:])

    def test_formats_agree_on_values(self, snow):
        summary = run_test(snow)
        payload = json.loads(render(summary, "json"))
        lines = render(summary, "csv").decode().splitlines()
        rows = [line.split(",") for line in lines[1:]]
        for row, sens in zip(rows, payload["sensitivity"]):
            assert float(row[2]) == sens["omega_star"]
            assert float(row[4]) == payload["p_upper"]["float"]
        text = render(summary, "text").decode()
        for sens in payload["sensitivity"]:
            assert f"{sens['omega_star']:.3f}" in text

    def test_json_deterministic(self, snow):
        again = parse_ledger(fixture_path("snow1855").read_bytes())
        assert render(run_test(snow), "json") == render(run_test(again), "json")

    def test_unknown_format(self, snow):
        with pytest.raises(DomainError):
            render(run_test(snow), "xml")

    def test_skipped_threshold_renders_empty_cells(self):
        summary = summarize_urn(UrnSpec(2, 3, 2, 2), alphas=(Fraction(1, 20),))
        lines = render(summary, "csv").decode().splitlines()
        assert lines[1].startswith("0.05,,,,")


class TestEmitPlotData:
    def test_null_dist_matches_reference_table(self, snow):
        data = csv_bytes("k,probability", pmf_rows(run_test(snow).urn)).decode()
        lines = data.strip().splitlines()
        assert lines[0] == "k,probability"
        assert len(lines) == 12
        rounded = [round(float(line.split(",")[1]), 2) for line in lines[1:]]
        assert rounded == [0, 0, 0.01, 0.09, 0.33, 0.39, 0.16, 0.02, 0, 0, 0]

    def test_omega_curve_reference_points(self):
        urn = UrnSpec(7, 8, 10, 7)
        curve = sweep_curve(urn, omega_min=1.59, omega_max=2.36, steps=2, scale="linear")
        data = csv_bytes("omega,p", curve).decode()
        lines = data.strip().splitlines()
        assert lines[0] == "omega,p"
        (om1, p1), (om2, p2) = [tuple(map(float, line.split(","))) for line in lines[1:]]
        assert (om1, om2) == (1.59, 2.36)
        assert p1 == pytest.approx(0.05, abs=5e-4)
        assert p2 == pytest.approx(0.10, abs=5e-4)

    def test_weight_grid_reference_cell(self):
        rows = weight_grid_rows(working_obs=3, rival_obs=1, weight_values=[1, 2], omega_values=[1.0])
        data = csv_bytes("weight,omega,p", rows).decode()
        lines = data.strip().splitlines()
        assert lines[0] == "weight,omega,p"
        cells = {line.split(",")[0]: float(line.split(",")[2]) for line in lines[1:]}
        assert cells["2"] == pytest.approx(0.0714, abs=1e-4)
        assert cells["1"] == pytest.approx(4 / 35, abs=1e-12)
