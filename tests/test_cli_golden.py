"""CLI outputs pinned byte for byte.

tests/cli_golden.json holds one record per command: argv (run from the
repository root), the exit code, stdout and stderr. The weight-grid
records end each weight's rows at exactly --omega-max. The two simulate
records pin numpy's hypergeometric stream for their seeds.
"""

import json
from pathlib import Path

import pytest

from urntest.cli import main

ROOT = Path(__file__).resolve().parent.parent
CASES = json.loads((Path(__file__).parent / "cli_golden.json").read_text(encoding="utf-8"))


@pytest.mark.parametrize("case", CASES, ids=[" ".join(c["argv"]) for c in CASES])
def test_golden(case, capsys, monkeypatch):
    monkeypatch.chdir(ROOT)
    code = main(list(case["argv"]))
    captured = capsys.readouterr()
    assert (code, captured.out, captured.err) == (case["exit"], case["stdout"], case["stderr"])
