"""urntest benchmark: seeded closed-loop workloads, checked against an oracle.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

NAME is one of cli_desk, solve_large, curves, simulate, or all. One client
sends each operation after the previous one ends. With --trace 0 the run
measures the end-to-end metrics for S seconds, with no tracer loaded:

    op_ms.p50, op_ms.p90  wall time per operation (ms)
    ops_per_s             operations completed per second of operation
                          time (1/s)
    peak_rss_mb           peak resident memory of any process that ran
                          operations (MiB)
    setup_s               fresh interpreter until `import urntest.cli` is done,
                          median of several spawns (s)
    error_rate            failed / attempted operations (printed, and given
                          by the result's `failed` and `attempted`)

The times are given at reference speed. The host lends this machine its
cores, and their speed drifts by up to 2x within minutes, so between
operations the loop times a fixed reference task that runs no urntest
code, and scales each operation's wall time by the task's nominal time
over the mean of the two timings that bracket the operation. A change to
urntest moves the operation and not the reference, so it shows in full;
a slow spell on the host moves both, and cancels out. The raw wall-clock
figures are printed on the lines above the result.

With --trace 1 the run takes a fixed seeded slice of the workload, runs
each operation untraced and then traced, and reports per-layer metrics from
the spans, and trace.overhead_pct from the two timings of each operation. A layer the slice never reaches is
measured on a fixed census slice of another workload, so every traced run
reports every layer; each line says where its figure came from.

Outputs are checked outside the timed region (see checks.py). The last
stdout line is one JSON object: correct, attempted, failed, metrics.
The urntest under test is always this checkout's src/ tree. With
`--workload all` the workloads run one after another in one process, so an
in-process workload's peak_rss_mb is the high-water mark so far.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import statistics
import subprocess
import sys
import tempfile
import threading
import time
from collections import defaultdict
from fractions import Fraction
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"

import inputs  # noqa: E402
from tracing import Tracer, layer_metrics, merge  # noqa: E402

FRESH_PROCESS = ("cli_desk", "simulate")
# Fixed traced slices (operation counts), so counts repeat exactly per seed.
TRACE_OPS = {"cli_desk": 24, "solve_large": 28, "curves": 18, "simulate": 8}
# Census slices, in the order they fill layers a workload does not reach.
CENSUS_OPS = {"cli_desk": 12, "simulate": 1, "solve_large": 7, "curves": 9}
# Set-up spawns before and after the timed loop, so one slow spell on the
# machine does not set the median alone.
SETUP_SPAWNS = (6, 5)
IMPORT_SPAWNS = 5
OP_TIMEOUT_S = 30
# Reference tasks and their nominal times: typical figures on a quiet
# 2-vCPU Xeon VM, so that times at reference speed read close to wall
# time there. Start-up and page faults drift apart from pure compute on
# the host, so operations that spawn a process are scaled by a bare
# interpreter spawn, and in-process ones by a short pure-Python loop.
# The loop runs after every operation, as the speed of compute swings
# within a second; a spawn costs a third of a cli_desk operation, so it
# runs once REF_SPAWN_GAP_S of operations have passed.
REF_SPAWN_NOMINAL_S = 0.040
REF_SPAWN_GAP_S = 0.25
REF_LOOP_NOMINAL_S = 0.0008
REF_LOOP_ITERATIONS = 5_000

END_TO_END = (
    ("op_ms.p50", "ms"),
    ("op_ms.p90", "ms"),
    ("ops_per_s", "1/s"),
    ("peak_rss_mb", "MiB"),
    ("setup_s", "s"),
)
PER_LAYER_UNITS = {
    "import.urntest_ms": "ms",
    "import.numpy_ms": "ms",
    "import.share_pct": "%",
    "cli.main_ms": "ms",
    "cli.self_ms": "ms",
    "ledger.parse_ledger_ms": "ms",
    "report.render_ms": "ms",
    "urn.null_distribution_ms": "ms",
    "report.summarize_urn.self_ms": "ms",
    "urn.p_upper_ms": "ms",
    "urn.build_plus_one_urn_ms": "ms",
    "sensitivity.solve_omega.calls": "count",
    "sensitivity.solve_omega_ms": "ms",
    "sensitivity.solve_omega.tail_evals_per_call": "count",
    "sensitivity.solve_omega.share_pct": "%",
    "sensitivity.sweep_curve_ms": "ms",
    "sensitivity.weight_omega_grid_ms": "ms",
    "biased.fnch_tail.calls": "count",
    "biased.fnch_tail.small_us_per_call": "us",
    "biased.fnch_tail.large_us_per_call": "us",
    "biased.fnch_pmf.calls": "count",
    "biased.fnch_pmf.us_per_call": "us",
    "oracle.monte_carlo_ms": "ms",
    "oracle.monte_carlo.peak_alloc_mb": "MiB",
    "trace.overhead_pct": "%",
}


class Bench:
    """Runs operations against this checkout's urntest; owns the work directory."""

    def __init__(self, workdir: Path):
        self.workdir = workdir
        path = os.environ.get("PYTHONPATH")
        self.env = dict(os.environ, PYTHONPATH=str(SRC) + (os.pathsep + path if path else ""))
        self.python = sys.executable
        # Compile the package's bytecode once, as an installed copy would have it.
        self._python(["-c", "import urntest.cli"])

    def _python(self, args) -> subprocess.CompletedProcess:
        return subprocess.run(
            [self.python, *args], env=self.env, cwd=ROOT, capture_output=True, text=True, check=True, timeout=60
        )

    def spawn_reference(self) -> float:
        """Seconds to spawn and reap a bare interpreter (`python -c pass`)."""
        start = time.perf_counter()
        proc = subprocess.Popen([self.python, "-c", "pass"], env=self.env, cwd=ROOT)
        _, status, _ = os.wait4(proc.pid, 0)
        seconds = time.perf_counter() - start
        proc.returncode = os.waitstatus_to_exitcode(status)
        return seconds

    def setup_samples(self, count) -> list[tuple[float, float]]:
        """(wall, at reference speed) seconds from spawning an interpreter
        until urntest.cli is imported; each spawn is bracketed by two
        reference spawns.

        perf_counter is the system-wide monotonic clock on Linux, so the
        child's reading after the import compares with the parent's before
        the spawn.
        """
        code = "import time\nimport urntest.cli\nprint(repr(time.perf_counter()))"
        samples = []
        before = self.spawn_reference()
        for _ in range(count):
            start = time.perf_counter()
            wall = float(self._python(["-c", code]).stdout) - start
            after = self.spawn_reference()
            samples.append((wall, wall * REF_SPAWN_NOMINAL_S / ((before + after) / 2)))
            before = after
        return samples

    def import_ms(self) -> dict:
        """Median `-X importtime` cost of `import urntest.cli` and, within it, numpy.

        urntest is the cumulative time of the top-level urntest entries, so
        interpreter start-up imports are left out.
        """
        samples = defaultdict(list)
        for _ in range(IMPORT_SPAWNS):
            found = dict.fromkeys(("urntest", "numpy"), 0.0)
            for line in self._python(["-X", "importtime", "-c", "import urntest.cli"]).stderr.splitlines():
                fields = line.removeprefix("import time:").split("|")
                if len(fields) != 3 or not fields[1].strip().isdigit():
                    continue
                name, ms = fields[2].rstrip(), int(fields[1]) / 1e3
                if name.lstrip() == "numpy":
                    found["numpy"] = ms
                elif name.startswith(" urntest"):
                    found["urntest"] += ms
            for name, ms in found.items():
                samples[name].append(ms)
        return {name: statistics.median(values) for name, values in samples.items()}

    # ------------------------------------------------------ operations

    def run_op(self, workload, op, tracer=None) -> dict:
        """Run and time one operation. With a tracer, in-process spans go to
        it, and fresh-process operations run under the traced launcher."""
        if workload in FRESH_PROCESS:
            return self._spawn_op(op, tracer)
        record = {"op": op}
        if tracer is not None:
            tracer.op = op["id"]
        start = time.perf_counter()
        try:
            record["result"] = call_inprocess(op)
        except Exception as exc:  # counted as a failed operation
            record["error"] = f"{type(exc).__name__}: {exc}"
        record["seconds"] = time.perf_counter() - start
        return record

    def _spawn_op(self, op, tracer) -> dict:
        docs, paths = [], []
        for j, ledger in enumerate(op["ledgers"]):
            if "fixture" in ledger:
                path = SRC / "urntest" / "fixtures" / f"{ledger['fixture']}.json"
                docs.append(json.loads(path.read_text()))
            else:
                path = self.workdir / f"op{op['id']}-{j}.json"
                path.write_text(json.dumps(ledger["doc"], indent=2))
                docs.append(ledger["doc"])
            paths.append(str(path))
        argv = [paths[int(a[1:])] if a.startswith("@") else a for a in op["argv"]]
        spans_file = self.workdir / f"spans{op['id']}.json"
        if tracer is None:
            argv = [self.python, "-m", "urntest.cli", *argv]
        else:
            argv = [self.python, str(HERE / "launch.py"), str(spans_file), str(op["id"]), *argv]
        out_path, err_path = self.workdir / "stdout", self.workdir / "stderr"
        with open(out_path, "wb") as out, open(err_path, "wb") as err:
            start = time.perf_counter()
            proc = subprocess.Popen(argv, stdout=out, stderr=err, env=self.env, cwd=ROOT)
            # wait4 reports the child's own peak RSS; a hung child is killed.
            watchdog = threading.Timer(OP_TIMEOUT_S, proc.kill)
            watchdog.start()
            try:
                _, status, usage = os.wait4(proc.pid, 0)
            except BaseException:
                proc.kill()
                proc.wait()
                raise
            finally:
                watchdog.cancel()
            seconds = time.perf_counter() - start
        proc.returncode = os.waitstatus_to_exitcode(status)
        record = {"op": op, "docs": docs, "seconds": seconds, "rss_mb": usage.ru_maxrss / 1024}
        record["stdout"] = out_path.read_text()
        if proc.returncode != 0:
            stderr = err_path.read_text().strip().splitlines()
            record["error"] = f"exit {proc.returncode}: {stderr[-1] if stderr else ''}"
        if tracer is not None and spans_file.exists():
            record["spans"] = json.loads(spans_file.read_text())
            spans_file.unlink()
        return record


def loop_reference() -> float:
    """Seconds for a fixed pure-Python loop of integer, float and dict work."""
    start = time.perf_counter()
    total, table = 0, {}
    for i in range(REF_LOOP_ITERATIONS):
        total = (total * 31 + i * i) % 1_000_003
        table[i & 255] = total / 7.0
    return time.perf_counter() - start


def call_inprocess(op):
    """One solve_large or curves operation, through the package's public API."""
    from urntest import biased, report, sensitivity, urn

    call = op["call"]
    if call == "grid":
        return sensitivity.weight_omega_grid(op["working"], op["rival"], op["weight_values"], op["omega_values"])
    spec = urn.build_plus_one_urn(op["working"], op["rival"], op["weights"])
    if call == "summarize_urn":
        return report.summarize_urn(spec, [Fraction(a) for a in op["alphas"]])
    if call == "sweep":
        return sensitivity.sweep_curve(spec, op["omega_min"], op["omega_max"], op["steps"], scale=op["scale"])
    return [biased.fnch_pmf(spec, k, op["omega"]) for k in range(spec.sample_size + 1)]


def clear_package_caches():
    """Empty every functools cache in urntest, so a repeated slice starts cold."""
    for name, module in list(sys.modules.items()):
        if name == "urntest" or name.startswith("urntest."):
            for value in vars(module).values():
                if callable(getattr(value, "cache_clear", None)):
                    value.cache_clear()


def failures(workload, records) -> list[tuple[dict, list[str]]]:
    """(operation, problems) for every failed operation; checks run here,
    after the timed loop."""
    import checks

    failed = []
    for record in records:
        if "error" in record:
            failed.append((record["op"], [record["error"]]))
            continue
        try:
            if workload in FRESH_PROCESS:
                problems = checks.check_cli(record["op"], record["docs"], record["stdout"])
            else:
                problems = checks.check_inprocess(record["op"], record["result"])
        except Exception as exc:  # unparseable output is a failed check
            problems = [f"check raised {type(exc).__name__}: {exc}"]
        if problems:
            failed.append((record["op"], problems))
    return failed


def report_failures(workload, failed):
    for op, problems in failed:
        described = op.get("argv") or {k: v for k, v in op.items() if k != "id"}
        print(f"{workload} FAILED op {op['id']}: {described}")
        for problem in problems:
            print(f"    {problem}")


# ------------------------------------------------------------- run modes


def measure(bench, workload, seed, seconds) -> tuple[dict, int, list]:
    """End-to-end metrics of one untraced closed-loop run, at reference speed."""
    if workload in FRESH_PROCESS:
        reference, nominal, gap = bench.spawn_reference, REF_SPAWN_NOMINAL_S, REF_SPAWN_GAP_S
    else:
        reference, nominal, gap = loop_reference, REF_LOOP_NOMINAL_S, 0.0
    setup = bench.setup_samples(SETUP_SPAWNS[0])
    ops = inputs.stream(workload, seed)
    records, pending = [], []
    before = reference()
    references = [before]
    start = last = time.perf_counter()
    while True:
        record = bench.run_op(workload, next(ops))
        records.append(record)
        pending.append(record)
        now = time.perf_counter()
        done = now - start >= seconds
        if done or now - last >= gap:
            after = reference()
            references.append(after)
            for done_record in pending:
                done_record["scaled"] = done_record["seconds"] * nominal / ((before + after) / 2)
            before, pending, last = after, [], time.perf_counter()
        if done:
            break
    elapsed = time.perf_counter() - start
    setup += bench.setup_samples(SETUP_SPAWNS[1])
    if workload in FRESH_PROCESS:
        peak_rss_mb = max(r["rss_mb"] for r in records)
    else:
        peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    failed = failures(workload, records)
    print(
        f"{workload}: {len(records)} operations in {elapsed:.2f} s, seed {seed}; reference task "
        f"{statistics.median(references) * 1e3:.3f} ms (nominal {nominal * 1e3:g} ms), {len(references)} timings"
    )
    print(f"{workload:12s} {'metric':44s} {'wall clock':>14s} {'ref. speed':>14s}")
    found = {}
    for key, column in (("seconds", 0), ("scaled", 1)):
        times_ms = [r[key] * 1e3 for r in records]
        found[key] = {
            "op_ms.p50": statistics.median(times_ms),
            "op_ms.p90": statistics.quantiles(times_ms, n=10)[8] if len(times_ms) > 1 else times_ms[0],
            "ops_per_s": 1e3 * len(times_ms) / sum(times_ms),
            "peak_rss_mb": peak_rss_mb,
            "setup_s": statistics.median(sample[column] for sample in setup),
        }
    for name, unit in END_TO_END:
        print(f"{workload:12s} {name:44s} {found['seconds'][name]:14.6f} {found['scaled'][name]:14.6f} {unit}")
    print(f"{workload:12s} {'error_rate':44s} {len(failed) / len(records):14.6f} ratio")
    report_failures(workload, failed)
    metrics = {name: {"value": found["scaled"][name], "unit": unit} for name, unit in END_TO_END}
    return metrics, len(records), failed


def traced_slice(bench, workload, ops, import_ms, paired=False):
    """Run ops with spans on; return (untraced records, traced records, per-layer metrics).

    With paired, each operation also runs untraced next to its traced run,
    first on even operations and second on odd ones, so neither drift on
    the machine nor the first run's cold memory biases the overhead. Every
    run starts with empty package caches.
    """
    in_process = workload not in FRESH_PROCESS
    tracer = Tracer()
    plain, records = [], []
    for i, op in enumerate(ops):
        order = ((False, True) if i % 2 == 0 else (True, False)) if paired else (True,)
        for traced in order:
            clear_package_caches()
            if not traced:
                plain.append(bench.run_op(workload, op))
                continue
            if in_process:
                tracer.install()
            try:
                records.append(bench.run_op(workload, op, tracer))
            finally:
                tracer.uninstall()
    spans = tracer.spans if in_process else merge(r.get("spans", []) for r in records)
    fresh_import = None if in_process else import_ms["urntest"]
    op_seconds = [r["seconds"] for r in records]
    plain_seconds = [r["seconds"] for r in plain] or op_seconds
    return plain, records, layer_metrics(spans, op_seconds, fresh_import, plain_seconds)


def trace(bench, workload, seed) -> tuple[dict, int, list]:
    """Per-layer metrics from a fixed traced slice, plus tracing overhead."""
    import_ms = bench.import_ms()
    ops = inputs.take(workload, seed, TRACE_OPS[workload])
    plain, records, layers = traced_slice(bench, workload, ops, import_ms, paired=True)
    # Geometric mean of per-operation traced/untraced time: the alternating
    # order's bias cancels, and the slowest operations do not dominate.
    overhead = 100 * (statistics.geometric_mean(t["seconds"] / p["seconds"] for p, t in zip(plain, records)) - 1)
    values = {
        "import.urntest_ms": import_ms["urntest"],
        "import.numpy_ms": import_ms["numpy"],
        "trace.overhead_pct": overhead,
        **layers,
    }
    source = {name: workload for name, value in values.items() if value is not None}
    attempted = len(plain) + len(records)
    failed = failures(workload, plain + records)
    report_failures(workload, failed)
    for other, count in CENSUS_OPS.items():
        missing = [name for name in PER_LAYER_UNITS if values.get(name) is None]
        if not missing or other == workload:
            continue
        _, census_records, census = traced_slice(bench, other, inputs.take(other, seed, count), import_ms)
        for name in missing:
            if census[name] is not None:
                values[name], source[name] = census[name], f"census:{other}"
        census_failed = failures(other, census_records)
        report_failures(other, census_failed)
        attempted += len(census_records)
        failed += census_failed
    print(f"{workload}: traced slice of {len(ops)} operations, seed {seed}")
    metrics = {}
    for name, unit in PER_LAYER_UNITS.items():
        value = values.get(name)
        value = 0.0 if value is None else value
        print(f"{workload:12s} {name:44s} {value:14.6f} {unit:5s} [{source.get(name, 'not reached')}]")
        metrics[name] = {"value": value, "unit": unit}
    return metrics, attempted, failed


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=(*inputs.WORKLOADS, "all"), required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "urntest" / "__init__.py").is_file():
        print(f"perfbench: no urntest package at {SRC / 'urntest'}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import urntest

    if Path(urntest.__file__).resolve().parent != (SRC / "urntest").resolve():
        print(f"perfbench: imported urntest from {urntest.__file__}, not this checkout", file=sys.stderr)
        return 2

    workloads = inputs.WORKLOADS if args.workload == "all" else (args.workload,)
    metrics, attempted, failed = {}, 0, 0
    with tempfile.TemporaryDirectory(prefix=".work-", dir=HERE) as workdir:
        bench = Bench(Path(workdir))
        for workload in workloads:
            if args.trace:
                found, count, bad = trace(bench, workload, args.seed)
            else:
                found, count, bad = measure(bench, workload, args.seed, args.seconds)
            prefix = f"{workload}." if args.workload == "all" else ""
            metrics.update({prefix + name: value for name, value in found.items()})
            attempted += count
            failed += len(bad)
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
