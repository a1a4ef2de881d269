import csv
import glob
import json
import math
import os
import re
import shlex
import subprocess
import sys
from pathlib import Path

import pytest

from urntest import UrnSpec, fixture_path, hyper_pmf, p_upper
from urntest.cli import main

ROSSEL = str(fixture_path("rossel2023"))
SNOW = str(fixture_path("snow1855"))
TEA = str(fixture_path("tea1935"))
ROOT = Path(__file__).resolve().parent.parent
SWEEP = ("sweep", "--t", "7", "--r", "8", "--n", "10")
SENS = ("sens", "--t", "7", "--r", "8", "--n", "10", "--x", "7", "--alpha", "0.05")


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestTestCommand:
    def test_rossel_json(self, capsys):
        code, out, _ = run(capsys, "test", ROSSEL, "--format", "json")
        assert code == 0
        payload = json.loads(out)
        assert payload["p_upper"] == {
            "num": 8,
            "den": 6435,
            "float": 8 / 6435,
            "log10": math.log10(8) - math.log10(6435),
        }
        assert payload["sensitivity"][0]["omega_star"] == pytest.approx(4.216, abs=0.005)
        assert payload["sensitivity"][1]["omega_star"] == pytest.approx(6.292, abs=0.005)

    def test_text_default(self, capsys):
        code, out, _ = run(capsys, "test", ROSSEL)
        assert code == 0
        assert "p <= 0.001" in out

    def test_inline_urn(self, capsys):
        code, out, _ = run(
            capsys, "test", "--t", "7", "--r", "8", "--n", "10", "--x", "7",
            "--format", "json",
        )
        assert code == 0
        payload = json.loads(out)
        assert payload["p_upper"]["num"] == 8
        assert payload["p_upper"]["den"] == 429
        assert payload["case_name"] is None

    def test_alpha_override(self, capsys):
        code, out, _ = run(capsys, "test", SNOW, "--alpha", "0.2", "--format", "json")
        assert code == 0
        payload = json.loads(out)
        assert payload["alphas"] == [0.2]
        assert len(payload["sensitivity"]) == 1

    def test_ledger_and_inline_conflict(self, capsys):
        code, _, err = run(capsys, "test", ROSSEL, "--t", "7", "--r", "8", "--n", "10")
        assert code == 2
        assert "either" in err

    def test_missing_source(self, capsys):
        code, _, err = run(capsys, "test")
        assert code == 2

    def test_duplicate_id_exit_2(self, capsys, tmp_path):
        broken = tmp_path / "broken.json"
        broken.write_text(
            json.dumps(
                {
                    "schema_version": 1,
                    "case_name": "broken",
                    "working_hypothesis": "W",
                    "rival_hypothesis": "R",
                    "observations": [
                        {"id": "obs1", "description": "x", "supports": "working"},
                        {"id": "obs1", "description": "y", "supports": "rival"},
                    ],
                }
            )
        )
        code, _, err = run(capsys, "test", str(broken))
        assert code == 2
        assert "obs1" in err

    def test_missing_file_exit_2(self, capsys):
        code, _, err = run(capsys, "test", "no-such-file.json")
        assert code == 2

    @pytest.mark.parametrize("fmt", ["text", "json", "csv"])
    def test_exact_ints_past_the_digit_limit(self, capsys, fmt):
        # p_upper = 1 / C(14401, 7200), whose denominator has 4,334 digits
        limit = sys.get_int_max_str_digits()
        code, out, _ = run(
            capsys, "test", "--t", "7200", "--r", "7201", "--n", "7200", "--alpha", "0.05",
            "--format", fmt,
        )
        assert code == 0
        assert sys.get_int_max_str_digits() == limit
        sys.set_int_max_str_digits(0)
        try:
            if fmt == "text":
                num, den = re.search(r"\(exact (\d+)/(\d+)\)", out).groups()
            elif fmt == "json":
                exact = json.loads(out)["p_upper"]
                num, den = exact["num"], exact["den"]
            else:
                row = next(csv.DictReader(out.splitlines()))
                num, den = row["p_upper_num"], row["p_upper_den"]
            p = p_upper(UrnSpec(7200, 7201, 7200, 7200))
            assert (int(num), int(den)) == (p.num, p.den)
            assert len(str(p.den)) > 4300
        finally:
            sys.set_int_max_str_digits(limit)

    def test_out_writes_file(self, capsys, tmp_path):
        target = tmp_path / "result.json"
        code, out, _ = run(capsys, "test", ROSSEL, "--format", "json", "--out", str(target))
        assert code == 0
        assert out == ""
        assert json.loads(target.read_text())["p_upper"]["num"] == 8


class TestDistCommand:
    def test_csv(self, capsys):
        code, out, _ = run(capsys, "dist", SNOW, "--format", "csv")
        assert code == 0
        lines = out.strip().splitlines()
        assert lines[0] == "k,probability,log10"
        assert len(lines) == 12
        assert float(lines[8].split(",")[1]) == pytest.approx(56 / 3003, rel=1e-12)

    def test_inline_default_x(self, capsys):
        code, out, _ = run(capsys, "dist", "--t", "2", "--r", "3", "--n", "2", "--format", "csv")
        assert code == 0
        probs = [float(line.split(",")[1]) for line in out.strip().splitlines()[1:]]
        assert probs == [0.3, 0.6, 0.1]

    def test_with_odds(self, capsys):
        code, out, _ = run(
            capsys, "dist", "--t", "7", "--r", "8", "--n", "10", "--odds", "2",
            "--format", "csv",
        )
        assert code == 0
        k7 = float(out.strip().splitlines()[8].split(",")[1])
        assert k7 == pytest.approx(0.0761, abs=2e-4)

    def test_text(self, capsys):
        code, out, _ = run(capsys, "dist", "--t", "2", "--r", "3", "--n", "2")
        assert code == 0
        assert "P(k = 2) = 0.100000" in out

    @pytest.mark.parametrize("fmt", ["csv", "json"])
    def test_rows_carry_log10_where_the_float_underflows(self, fmt, capsys):
        urn = UrnSpec(800, 801, 800, 800)
        code, out, _ = run(capsys, "dist", "--t", "800", "--r", "801", "--n", "800", "--format", fmt)
        assert code == 0
        if fmt == "csv":
            rows = [row[1:] for row in csv.reader(out.splitlines()[1:])]
        else:
            rows = [[r["probability"], r["log10"]] for r in json.loads(out)["distribution"]]
        assert len(rows) == 801
        underflowed = 0
        scale = math.log10(math.comb(1601, 800))  # the size of the logs each log10 subtracts
        for k, (prob, log10) in enumerate(rows):
            exact = hyper_pmf(urn, k)
            assert float(prob) == float(exact)
            assert float(log10) == pytest.approx(exact.log10, rel=0, abs=1e-14 * scale)
            underflowed += float(prob) == 0.0
        assert underflowed == 98  # the far tails, below 1e-308

    def test_rows_outside_the_support_have_no_log10(self, capsys):
        code, out, _ = run(capsys, "dist", "--t", "2", "--r", "5", "--n", "4", "--format", "csv")
        assert code == 0
        assert out.splitlines()[-2:] == ["3,0.0,", "4,0.0,"]
        code, out, _ = run(capsys, "dist", "--t", "2", "--r", "5", "--n", "4", "--format", "json")
        assert [r["log10"] for r in json.loads(out)["distribution"]][-2:] == [None, None]

    def test_large_urn_csv(self, capsys):
        code, out, _ = run(capsys, "dist", "--t", "2000", "--r", "2001", "--n", "3000", "--format", "csv")
        assert code == 0
        assert len(out.splitlines()) == 3002


class TestSensCommand:
    def test_snow(self, capsys):
        code, out, _ = run(capsys, "sens", SNOW, "--alpha", "0.05")
        assert code == 0
        assert "omega* = 1.589" in out

    def test_json(self, capsys):
        code, out, _ = run(capsys, "sens", SNOW, "--alpha", "0.1", "--format", "json")
        assert code == 0
        payload = json.loads(out)
        assert payload["omega_star"] == pytest.approx(2.36, abs=0.01)
        assert abs(payload["achieved_p"] - 0.1) <= 1e-9

    def test_loose_tol(self, capsys):
        code, out, _ = run(capsys, *SENS, "--tol", "1e-6", "--format", "json")
        assert code == 0
        assert abs(json.loads(out)["achieved_p"] / 0.05 - 1) <= 1e-6

    def test_degenerate_exit_3(self, capsys):
        code, _, err = run(
            capsys, "sens", "--t", "2", "--r", "3", "--n", "5", "--x", "2",
            "--alpha", "0.05",
        )
        assert code == 3
        assert "infeasible" in err

    def test_tol_finer_than_the_float_grid_exit_3(self, capsys):
        code, _, err = run(
            capsys, "sens", "--t", "342", "--r", "432", "--n", "252", "--x", "108",
            "--alpha", "1e-300", "--tol", "1e-13",
        )
        assert code == 3
        assert "finer than the tail's step between neighbouring odds ratios on the solver's grid" in err

    def test_bad_alpha_exit_2(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["sens", SNOW, "--alpha", "1.5"])
        assert exc.value.code == 2


class TestSweepCommand:
    def test_curve(self, capsys):
        code, out, err = run(
            capsys, "sweep", SNOW, "--omega-min", "1.0", "--omega-max", "2.36",
            "--steps", "2", "--scale", "linear",
        )
        assert code == 0
        assert "scale=linear" in err
        lines = out.strip().splitlines()
        assert lines[0] == "omega,p"
        last = lines[-1].split(",")
        assert float(last[1]) == pytest.approx(0.10, abs=5e-4)

    def test_weight_grid(self, capsys):
        code, out, _ = run(
            capsys, "sweep", TEA, "--omega-min", "1.0", "--omega-max", "2.0",
            "--steps", "3", "--weight-max", "2",
        )
        assert code == 0
        lines = out.strip().splitlines()
        assert lines[0] == "weight,omega,p"
        assert len(lines) == 1 + 2 * 3

    def test_log_grid_across_the_float_range(self, capsys):
        # omega_max / omega_min overflows here; the grid is built in logs
        code, out, _ = run(
            capsys, *SWEEP, "--x", "7", "--omega-min", "1e-300", "--omega-max", "1e300",
            "--steps", "5",
        )
        assert code == 0
        rows = [line.split(",") for line in out.strip().splitlines()[1:]]
        assert len(rows) == 5
        assert float(rows[0][0]) == 1e-300 and float(rows[-1][0]) == 1e300
        assert [float(p) for _, p in rows] == sorted(float(p) for _, p in rows)


class TestSimulateCommand:
    def test_deterministic_output(self, capsys):
        args = ("simulate", "--t", "2", "--r", "3", "--n", "2", "--draws", "5000",
                "--seed", "42")
        code1, out1, _ = run(capsys, *args)
        code2, out2, _ = run(capsys, *args)
        assert code1 == code2 == 0
        assert out1 == out2
        lines = out1.strip().splitlines()
        assert lines[0] == "k,probability"
        assert float(lines[3].split(",")[1]) == pytest.approx(0.1, abs=0.02)

    def test_seed_required(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["simulate", "--t", "2", "--r", "3", "--n", "2"])
        assert exc.value.code == 2

    def test_urn_above_sampler_guard_exit_3(self, capsys):
        code, out, err = run(
            capsys, "simulate", "--t", "1000000000", "--r", "1", "--n", "1",
            "--draws", "1", "--seed", "1",
        )
        assert (code, out) == (3, "")
        assert "below 1000000000" in err


class TestMultiCommand:
    def test_halving(self, capsys):
        code, out, _ = run(
            capsys, "multi", ROSSEL, SNOW, TEA, "--alpha0", "0.05", "--format", "json"
        )
        assert code == 0
        payload = json.loads(out)
        assert [entry["adjusted_alpha"] for entry in payload] == [0.05, 0.025, 0.0125]
        assert payload[0]["reject"] is True

    def test_csv(self, capsys):
        code, out, _ = run(capsys, "multi", ROSSEL, "--alpha0", "0.05", "--format", "csv")
        assert code == 0
        lines = out.strip().splitlines()
        assert lines[0] == "case,adjusted_alpha,p_upper,reject,omega,p_upper_log10"
        assert ",true," in lines[1]

    def test_csv_case_name_quoted(self, capsys, tmp_path):
        ledger = json.loads(Path(TEA).read_text(encoding="utf-8"))
        ledger["case_name"] = 'Tea, "lady"\ntasting'
        path = tmp_path / "tea.json"
        path.write_text(json.dumps(ledger), encoding="utf-8")
        code, out, _ = run(capsys, "multi", str(path), "--alpha0", "0.05", "--format", "csv")
        assert code == 0
        rows = list(csv.reader(out.splitlines(keepends=True)))
        assert len(rows) == 2
        assert rows[1][0] == 'Tea, "lady"\ntasting'

    def test_text(self, capsys):
        code, out, _ = run(capsys, "multi", ROSSEL, SNOW, "--alpha0", "0.05")
        assert code == 0
        assert "reject rival" in out


class TestHelp:
    @pytest.mark.parametrize("cmd", ["test", "dist", "sens", "sweep", "simulate", "multi"])
    def test_subcommand_help(self, cmd, capsys):
        with pytest.raises(SystemExit) as exc:
            main([cmd, "--help"])
        assert exc.value.code == 0
        out = capsys.readouterr().out
        assert "--" in out

    def test_defaults_documented(self, capsys):
        with pytest.raises(SystemExit):
            main(["test", "--help"])
        assert "0.05,0.10" in capsys.readouterr().out
        with pytest.raises(SystemExit):
            main(["sens", "--help"])
        assert "1e-9" in capsys.readouterr().out


@pytest.mark.parametrize(
    "argv",
    [
        (*SWEEP, "--omega-min", "0.5", "--omega-max", "5", "--steps", "1", "--weight-max", "2"),
        (*SWEEP, "--omega-min", "0", "--omega-max", "5", "--steps", "3", "--weight-max", "2"),
        (*SWEEP, "--omega-min", "5", "--omega-max", "1", "--steps", "3", "--weight-max", "2"),
        (*SWEEP, "--omega-min", "0.5", "--omega-max", "5", "--steps", "3", "--weight-max", "0"),
        ("test", ROSSEL, "--out", "{tmp}/missing/result.txt"),
        ("test", ROSSEL, "--out", "{tmp}"),
        ("simulate", "--t", "2", "--r", "3", "--n", "2", "--seed", "-1"),
        ("simulate", "--t", "2", "--r", "3", "--n", "2", "--seed", "1", "--draws", "0"),
        ("test", ROSSEL, "--x", "3"),
        (*SENS, "--tol", "0"),
        (*SENS, "--tol", "1"),
        ("test", "{tmp}/long_integer.json"),
        ("test", "{tmp}/deep_nesting.json"),
    ],
)
def test_bad_input_exit_2(argv, capsys, tmp_path):
    (tmp_path / "long_integer.json").write_text("7" * 5000)  # past int's string-conversion limit
    (tmp_path / "deep_nesting.json").write_text("[" * 100_000)  # past the recursion limit
    code, out, err = run(capsys, *(arg.replace("{tmp}", str(tmp_path)) for arg in argv))
    assert (code, out) == (2, "")
    assert len(err.splitlines()) == 1
    assert err.startswith("urntest: error: ")


def test_cli_import_leaves_numpy_unloaded():
    code = "import sys, urntest.cli; sys.exit('numpy' in sys.modules)"
    env = {**os.environ, "PYTHONPATH": str(ROOT / "src")}
    result = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, timeout=60)
    assert result.returncode == 0, result.stderr


def _readme_commands():
    text = (ROOT / "README.md").read_text(encoding="utf-8")
    block = text.split("## CLI", 1)[1].split("```sh", 1)[1].split("```", 1)[0]
    return [shlex.split(line)[1:] for line in block.splitlines() if line.startswith("urntest ")]


@pytest.mark.parametrize("argv", _readme_commands(), ids=" ".join)
def test_readme_examples_run(argv, capsys, monkeypatch):
    monkeypatch.chdir(ROOT)
    expanded = [path for arg in argv for path in sorted(glob.glob(arg)) or [arg]]  # as a shell would
    assert run(capsys, *expanded)[0] == 0
