"""Self-tests for the benchmark harness: python3 -m pytest perfbench"""

import dataclasses
import json
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE), str(HERE.parent / "src")]

import checks  # noqa: E402
import inputs  # noqa: E402
import urntest  # noqa: E402


def _input_bytes(workload, seed):
    return json.dumps(inputs.take(workload, seed, 80), sort_keys=True).encode()


@pytest.mark.parametrize("workload", inputs.WORKLOADS)
def test_same_seed_gives_identical_inputs(workload):
    first = _input_bytes(workload, 11)
    assert first == _input_bytes(workload, 11)
    assert first != _input_bytes(workload, 12)


@pytest.mark.parametrize("workload", ["solve_large", "curves"])
def test_in_process_operations_never_share_an_urn(workload):
    seen = []
    for op in inputs.take(workload, 5, 400):
        if op["call"] == "grid":
            seen += [checks.grid_urn(op["working"], op["rival"], w) for w in op["weight_values"]]
        else:
            seen.append(inputs.plus_one_urn(op["working"], op["rival"], op["weights"]))
    assert len(seen) == len(set(seen))


def _solved_summary():
    op = inputs.take("solve_large", 2, 1)[0]
    urn = inputs.plus_one_urn(op["working"], op["rival"], op["weights"])
    spec = urntest.build_plus_one_urn(op["working"], op["rival"], op["weights"])
    alphas = [Fraction(a) for a in ("0.01", "0.05")]
    return urntest.summarize_urn(spec, alphas), urn, alphas


def test_checker_accepts_correct_summary():
    summary, urn, alphas = _solved_summary()
    assert checks.check_summary(summary, urn, alphas) == []


def test_checker_rejects_perturbed_p_upper():
    summary, urn, alphas = _solved_summary()
    p = summary.p_upper
    wrong = dataclasses.replace(summary, p_upper=urntest.ExactProb(p.numerator + 1, p.denominator))
    assert any("p_upper" in problem for problem in checks.check_summary(wrong, urn, alphas))


def test_checker_rejects_perturbed_omega():
    summary, urn, alphas = _solved_summary()
    res = summary.sensitivity[0]
    wrong = dataclasses.replace(
        summary, sensitivity=(dataclasses.replace(res, omega_star=res.omega_star * (1 + 1e-6)),) + summary.sensitivity[1:]
    )
    assert any("omega*" in problem for problem in checks.check_summary(wrong, urn, alphas))


def test_checker_rejects_cli_output_that_differs_from_library():
    op = next(op for op in inputs.take("cli_desk", 3, 24) if op["kind"] == "test-inline")
    summary = urntest.summarize_urn(urntest.UrnSpec(*op["urn"]), [Fraction(a) for a in op["alphas"]])
    good = urntest.render(summary, "json").decode()
    assert checks.check_cli(op, [], good) == []
    doc = json.loads(good)
    doc["p_upper"]["num"] += 1
    assert checks.check_cli(op, [], json.dumps(doc))


def test_simulate_bound_accepts_expected_counts_and_rejects_a_shift():
    op = inputs.take("simulate", 4, 1)[0]
    t, r, n = op["urn"]
    draws = op["draws"]
    exact = [checks.exact_pmf(t, r, n, k) for k in range(n + 1)]
    counts = [round(p * draws) for p in exact]
    counts[max(range(n + 1), key=lambda k: counts[k])] += draws - sum(counts)
    stdout = "k,probability\n" + "".join(f"{k},{c / draws!r}\n" for k, c in enumerate(counts))
    assert checks.check_simulate(op, stdout) == []
    shifted = [0] + counts[:-1]
    shifted[0] += draws - sum(shifted)
    stdout = "k,probability\n" + "".join(f"{k},{c / draws!r}\n" for k, c in enumerate(shifted))
    assert checks.check_simulate(op, stdout)


def _traced_counts(workload, seed):
    out = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed), "--seconds", "1", "--trace", "1"],
        capture_output=True, text=True, check=True, timeout=170,
    ).stdout
    result = json.loads(out.strip().splitlines()[-1])
    assert result["correct"], out
    return {name: m["value"] for name, m in result["metrics"].items() if m["unit"] == "count"}


@pytest.mark.parametrize("workload", ["solve_large", "cli_desk"])
def test_count_metrics_repeat_exactly_for_a_seed(workload):
    first = _traced_counts(workload, 3)
    assert first["sensitivity.solve_omega.calls"] > 0
    assert first == _traced_counts(workload, 3)
