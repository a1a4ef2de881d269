"""Independent correctness checks for benchmark outputs.

The oracle shares no code with the package: exact tails come from
math.comb, biased tails and pmfs from mpmath at 50 digits, and the
Monte Carlo sampler is held to a Bernstein bound around the exact
hypergeometric pmf. scipy is not used: its noncentral hypergeometric
survival function is far off in the deep tail. Every check returns a
list of problems; an empty list means the output is correct.
"""

from __future__ import annotations

import json
import math
import re
from fractions import Fraction

import mpmath
import urntest

from inputs import plus_one_urn

SOLVE_TOL = 1e-9  # solve_omega's documented |p - alpha| bound
POINT_RTOL = 1e-9
# Below the smallest normal double a float cannot hold relative precision.
TINY = 2.0**-1022
# Bernstein bound per (operation, k) cell; with fewer than 1e5 cells in a
# run a correct sampler fails a run with probability below 1e-6.
SIM_CELL_DELTA = 1e-12
_MP_DIGITS = 50
_MP_CUTOFF = mpmath.mpf("1e-400")


# ---------------------------------------------------------------- oracle


def exact_tail(t, r, n, x) -> Fraction:
    hi = min(n, t)
    num = sum(math.comb(t, k) * math.comb(r, n - k) for k in range(x, hi + 1))
    return Fraction(num, math.comb(t + r, n))


def exact_pmf(t, r, n, k) -> Fraction:
    """Central hypergeometric pmf; math.comb is 0 outside the support window."""
    return Fraction(math.comb(t, k) * math.comb(r, n - k), math.comb(t + r, n))


class BiasedUrn:
    """Fisher noncentral hypergeometric weights at one odds ratio, 50 digits.

    Weights are kept relative to the top of the support window and built
    downward by the pmf ratio w(j-1)/w(j) = j (r-n+j) / ((t-j+1)(n-j+1) omega).
    The ratio falls as j falls, so once it is below 1 and a weight drops
    under 1e-400 of the largest, the rest is negligible even next to the
    smallest double; `down_to` forces weights to be built at least that far.
    """

    def __init__(self, t, r, n, omega, down_to=None):
        self.lo, self.hi = max(0, n - r), min(n, t)
        floor = self.hi if down_to is None else max(self.lo, down_to)
        with mpmath.workdps(_MP_DIGITS):
            inv_omega = 1 / mpmath.mpf(omega)
            weights = [mpmath.mpf(1)]
            peak = weights[0]
            for j in range(self.hi, self.lo, -1):
                ratio = mpmath.mpf(j * (r - n + j)) / ((t - j + 1) * (n - j + 1)) * inv_omega
                w = weights[-1] * ratio
                weights.append(w)
                peak = max(peak, w)
                if j - 1 <= floor and ratio < 1 and w < peak * _MP_CUTOFF:
                    break
            self.weights = weights  # weights[i] belongs to j = hi - i
            self.total = mpmath.fsum(weights)

    def tail(self, x) -> float:
        with mpmath.workdps(_MP_DIGITS):
            return float(mpmath.fsum(self.weights[: self.hi - max(x, self.lo) + 1]) / self.total)

    def pmf(self, k) -> float:
        i = self.hi - k
        if k < self.lo or i < 0 or i >= len(self.weights):
            return 0.0
        with mpmath.workdps(_MP_DIGITS):
            return float(self.weights[i] / self.total)


def close(value, reference) -> bool:
    return abs(value - reference) <= POINT_RTOL * abs(reference) + TINY


# --------------------------------------------------- in-process results


def check_summary(summary, urn, alphas) -> list[str]:
    """p_upper exact, and |tail(omega*) - alpha| <= 1e-9 for each solve."""
    t, r, n, x = urn
    problems = []
    got = (summary.urn.t_count, summary.urn.r_count, summary.urn.sample_size, summary.urn.support_count)
    if got != tuple(urn):
        problems.append(f"urn {got} != +1 urn {tuple(urn)}")
    p = exact_tail(t, r, n, x)
    if Fraction(summary.p_upper) != p:
        problems.append(f"p_upper {summary.p_upper!r} != exact {p.numerator}/{p.denominator}")
    if len(summary.sensitivity) != len(alphas):
        return problems + [f"{len(summary.sensitivity)} sensitivity entries for {len(alphas)} thresholds"]
    for alpha, res in zip(alphas, summary.sensitivity):
        alpha = Fraction(alpha)
        if p >= alpha:
            if res is not None:
                problems.append(f"alpha={float(alpha)}: solved although p_upper >= alpha")
        elif res is None:
            problems.append(f"alpha={float(alpha)}: no odds ratio although p_upper < alpha")
        else:
            if res.alpha != float(alpha):
                problems.append(f"alpha {res.alpha} reported for threshold {float(alpha)}")
            problems += check_omega(urn, float(alpha), res.omega_star)
    return problems


def check_omega(urn, alpha, omega) -> list[str]:
    t, r, n, x = urn
    tail = BiasedUrn(t, r, n, omega).tail(x)
    if abs(tail - alpha) <= SOLVE_TOL:
        return []
    return [f"alpha={alpha}: mpmath tail at omega*={omega!r} is {tail!r}"]


def check_points(urn, points) -> list[str]:
    """points: (omega, reported tail) pairs, checked at the first, middle and last."""
    t, r, n, x = urn
    problems = []
    for i in sorted({0, len(points) // 2, len(points) - 1}):
        omega, value = points[i]
        reference = BiasedUrn(t, r, n, omega).tail(x)
        if not close(value, reference):
            problems.append(f"tail at omega={omega!r} is {value!r}, mpmath {reference!r}")
    return problems


def check_pmf_row(urn, omega, row) -> list[str]:
    """row[k] = pmf at k for k = 0..n, checked at the window ends, mid and sum."""
    t, r, n, _ = urn
    if len(row) != n + 1:
        return [f"{len(row)} pmf values for n={n}"]
    biased = BiasedUrn(t, r, n, omega, down_to=0)
    lo, hi = biased.lo, biased.hi
    problems = []
    for k in sorted({0, lo, (lo + hi) // 2, hi, n}):
        reference = biased.pmf(k)
        if not close(row[k], reference):
            problems.append(f"pmf at k={k}, omega={omega!r} is {row[k]!r}, mpmath {reference!r}")
    if not abs(math.fsum(row) - 1.0) <= 1e-9:
        problems.append(f"pmf sums to {math.fsum(row)!r}")
    return problems


def _spans(first, last, op) -> bool:
    """The omega grid starts and ends at the requested bounds, to rounding."""
    return math.isclose(first, op["omega_min"], rel_tol=1e-12) and math.isclose(last, op["omega_max"], rel_tol=1e-12)


def grid_urn(working, rival, weight):
    return plus_one_urn(working, rival, [weight] + [1] * (working - 1))


def check_inprocess(op, result) -> list[str]:
    call = op["call"]
    if call == "summarize_urn":
        urn = plus_one_urn(op["working"], op["rival"], op["weights"])
        return check_summary(result, urn, op["alphas"])
    if call == "sweep":
        urn = plus_one_urn(op["working"], op["rival"], op["weights"])
        problems = [] if len(result) == op["steps"] else [f"{len(result)} points for {op['steps']} steps"]
        if not _spans(result[0][0], result[-1][0], op):
            problems.append(f"grid runs {result[0][0]!r}..{result[-1][0]!r}")
        return problems + check_points(urn, result)
    if call == "grid":
        omegas = op["omega_values"]
        if [len(row) for row in result] != [len(omegas)] * len(op["weight_values"]):
            return ["grid shape does not match weights x omegas"]
        # First, middle and last cell of the grid in row-major order.
        cells = [(w, omega, p) for w, row in zip(op["weight_values"], result) for omega, p in zip(omegas, row)]
        problems = []
        for i in sorted({0, len(cells) // 2, len(cells) - 1}):
            w, omega, p = cells[i]
            problems += check_points(grid_urn(op["working"], op["rival"], w), [(omega, p)])
        return problems
    if call == "pmf":
        urn = plus_one_urn(op["working"], op["rival"], op["weights"])
        return check_pmf_row(urn, op["omega"], result)
    return [f"unknown call {call!r}"]


# ------------------------------------------------------------ CLI output


def ledger_urn(doc):
    """+1 urn of a ledger document, counted straight from its JSON."""
    working = [o.get("weight", 1) for o in doc["observations"] if o["supports"] == "working"]
    rival = sum(1 for o in doc["observations"] if o["supports"] != "working")
    return plus_one_urn(len(working), rival, working)


def _summary_numbers(fmt, text):
    """(num, den, [omega* or None per threshold]) parsed from `test` output."""
    if fmt == "json":
        d = json.loads(text)
        return (
            d["p_upper"]["num"],
            d["p_upper"]["den"],
            [None if s is None else s["omega_star"] for s in d["sensitivity"]],
        )
    if fmt == "csv":
        rows = _csv_rows(text)
        return int(rows[0][5]), int(rows[0][6]), [float(row[2]) if row[2] else None for row in rows]
    num, den = re.search(r"\(exact (\d+)/(\d+)\)", text).groups()
    omegas = [
        m.group(1) for m in re.finditer(r"^  alpha=\S+: (?:odds ratio omega\* = (\S+)|no odds ratio)", text, re.M)
    ]
    return int(num), int(den), omegas


def _library_numbers(fmt, summary):
    omegas = [None if res is None else res.omega_star for res in summary.sensitivity]
    if fmt == "text":
        omegas = [None if o is None else f"{o:.3f}" for o in omegas]
    return summary.p_upper.numerator, summary.p_upper.denominator, omegas


def _csv_rows(text):
    return [line.split(",") for line in text.strip().splitlines()[1:]]


def check_cli(op, docs, stdout) -> list[str]:
    """Compare one CLI operation's stdout with the library result for the
    same input, then check the library result against the oracle.

    docs are the ledger documents the operation read.
    """
    kind = op["kind"]
    if kind in ("test-text", "test-json", "test-csv", "test-inline"):
        if kind == "test-inline":
            urn, alphas = op["urn"], op["alphas"]
            t, r, n, x = urn
            summary = urntest.summarize_urn(urntest.UrnSpec(t, r, n, x), [Fraction(a) for a in alphas])
            fmt = "json"
        else:
            urn = ledger_urn(docs[0])
            alphas = docs[0]["alpha_thresholds"]
            summary = urntest.run_test(urntest.parse_ledger(json.dumps(docs[0])))
            fmt = op["format"]
        alphas = [Fraction(str(a)) for a in alphas]
        problems = _compare("test", _summary_numbers(fmt, stdout), _library_numbers(fmt, summary))
        return problems + check_summary(summary, urn, alphas)

    if kind in ("sens-json", "sens-inline"):
        urn = op["urn"] if kind == "sens-inline" else ledger_urn(docs[0])
        result = urntest.solve_omega(urntest.UrnSpec(*urn), float(Fraction(op["alpha"])))
        if kind == "sens-json":
            omega = json.loads(stdout)["omega_star"]
        else:
            omega = float(_csv_rows(stdout)[0][2])
        return _compare("sens", omega, result.omega_star) + check_omega(urn, float(Fraction(op["alpha"])), omega)

    if kind.startswith("dist-"):
        urn = op["urn"] if kind == "dist-odds-inline" else ledger_urn(docs[0])
        t, r, n, x = urn
        spec = urntest.UrnSpec(t, r, n, x)
        if kind == "dist-json":
            got = [row["probability"] for row in json.loads(stdout)["distribution"]]
            exact = [float(exact_pmf(t, r, n, k)) for k in range(n + 1)]
            library = [float(p) for _, p in urntest.null_distribution(spec)]
            return _compare("dist", got, library) + _compare("dist vs math.comb", library, exact)
        library = [urntest.fnch_pmf(spec, k, op["odds"]) for k in range(n + 1)]
        if kind == "dist-odds-text":
            got = re.findall(r"^P\(k = \d+\) = (\S+)$", stdout, re.M)
            problems = _compare("dist", got, [f"{p:.6f}" for p in library])
        else:
            problems = _compare("dist", [float(row[1]) for row in _csv_rows(stdout)], library)
        return problems + check_pmf_row(urn, op["odds"], library)

    if kind == "sweep-log":
        urn = ledger_urn(docs[0])
        got = [(float(a), float(b)) for a, b in _csv_rows(stdout)]
        library = urntest.sweep_curve(urntest.UrnSpec(*urn), op["omega_min"], op["omega_max"], op["steps"], scale="log")
        return _compare("sweep", got, library) + check_points(urn, library)

    if kind == "sweep-weights":
        t, _, n, _ = op["urn"]
        rows = [(int(w), float(o), float(p)) for w, o, p in _csv_rows(stdout)]
        weights = list(range(1, op["weight_max"] + 1))
        omegas = [o for w, o, _ in rows if w == 1]
        grid = urntest.weight_omega_grid(t, n - t, weights, omegas)
        library = [(w, o, p) for w, row in zip(weights, grid) for o, p in zip(omegas, row)]
        problems = _compare("weight grid", rows, library)
        if len(omegas) != op["steps"] or not _spans(omegas[0], omegas[-1], op):
            problems.append(f"omega grid {omegas[0]!r}..{omegas[-1]!r} in {len(omegas)} steps")
        for w, row in zip(weights, grid):
            problems += check_points(grid_urn(t, n - t, w), list(zip(omegas, row)))
        return problems

    if kind == "multi":
        got = json.loads(stdout)
        ledgers = [urntest.parse_ledger(json.dumps(doc)) for doc in docs]
        outcomes = urntest.run_sequential_rivals(ledgers, Fraction(op["alpha0"]))
        problems = _compare("rival count", len(got), len(outcomes))
        for k, (entry, out, doc) in enumerate(zip(got, outcomes, docs)):
            adjusted = Fraction(op["alpha0"]) / 2**k
            problems += _compare(f"rival {k + 1}", _summary_numbers("json", json.dumps(entry["summary"])), _library_numbers("json", out.summary))
            problems += _compare(f"rival {k + 1} alpha", (entry["adjusted_alpha"], entry["reject"]), (float(adjusted), exact_tail(*ledger_urn(doc)) < adjusted))
            problems += check_summary(out.summary, ledger_urn(doc), [adjusted])
        return problems

    if kind == "simulate":
        return check_simulate(op, stdout)
    return [f"unknown kind {kind!r}"]


def _compare(what, got, library) -> list[str]:
    return [] if got == library else [f"{what}: CLI output differs from the library result"]


def check_simulate(op, stdout) -> list[str]:
    """Frequencies within a Bernstein bound of the exact hypergeometric pmf."""
    t, r, n = op["urn"]
    draws = op["draws"]
    rows = _csv_rows(stdout)
    if [int(k) for k, _ in rows] != list(range(n + 1)):
        return ["simulate rows do not cover k = 0..n"]
    counts = [round(float(p) * draws) for _, p in rows]
    if sum(counts) != draws:
        return [f"simulate counts add to {sum(counts)}, not {draws}"]
    log_term = math.log(2 / SIM_CELL_DELTA)
    problems = []
    for k, count in enumerate(counts):
        p = float(exact_pmf(t, r, n, k))
        var = draws * p * (1 - p)
        bound = log_term / 3 + math.sqrt((log_term / 3) ** 2 + 2 * var * log_term)
        if abs(count - draws * p) > bound:
            problems.append(f"k={k}: {count} draws, expected {draws * p:.1f} +- {bound:.1f}")
    return problems
