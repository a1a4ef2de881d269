"""Seeded operation streams for the benchmark workloads.

Every workload is an endless stream of operation descriptors: plain dicts
of ints, floats, strings and lists, so one seed always serialises to the
same bytes and the program under test only ever sees generated inputs.

Streams are built in blocks. Each block holds one operation per stratum
(urn-size band, or call kind) in seeded order, and sizes within a band
follow a seeded low-discrepancy sequence, so any prefix of a run carries
nearly the same traffic mix whatever the seed and medians stay comparable
across seeds. In-process streams never repeat an urn, so the package's
caches cannot serve one operation from another's work.
"""

from __future__ import annotations

import random

# Rejection thresholds: the ledger defaults and the sequential-rival
# halving sequence 0.05 / 2**k for k <= 4, as exact decimals.
ALPHAS = ("0.1", "0.05", "0.025", "0.0125", "0.00625", "0.003125")
FIXTURES = ("rossel2023", "snow1855", "tea1935")

CLI_KINDS = (
    "test-text",
    "test-json",
    "test-csv",
    "test-inline",
    "sens-json",
    "sens-inline",
    "dist-json",
    "dist-odds-text",
    "dist-odds-inline",
    "sweep-log",
    "sweep-weights",
    "multi",
)
# Kinds that read one ledger file; the shipped fixtures stand in for the
# synthetic ledger of one of these per block until every pairing is used.
LEDGER_KINDS = ("test-text", "test-json", "test-csv", "sens-json", "dist-json", "dist-odds-text", "sweep-log")

SOLVE_BANDS = ((100, 149), (150, 300), (150, 300), (301, 1000), (301, 1000), (1001, 4000), (1001, 4000))
CURVE_BANDS = ((15, 100), (101, 300), (301, 1000))
CURVE_KINDS = ("sweep", "grid", "pmf")
# An odd number of equal bands puts the median inside the middle band.
SIM_BANDS = ((20, 95), (96, 171), (172, 247), (248, 323), (324, 400))
_WEYL = tuple(p**0.5 % 1.0 for p in (2, 3, 5, 7, 11, 13, 17, 19))
SIM_DRAWS = 100_000


def plus_one_urn(working, rival, weights=None):
    """(t, r, n, x) of the +1 null urn, computed from its definition."""
    surplus = sum(w - 1 for w in weights) if weights else 0
    return working, max(working + 1 + surplus, rival), working + rival, working


def stream(workload: str, seed: int):
    """Endless iterator of operation descriptors for one workload and seed."""
    rng = random.Random(f"{workload}/{seed}")
    return _STREAMS[workload](rng)


def take(workload: str, seed: int, count: int) -> list[dict]:
    it = stream(workload, seed)
    return [next(it) for _ in range(count)]


class Spread:
    """Seeded low-discrepancy points in [0, 1)^8, one sequence per stratum.

    The b-th point of a stratum is frac(offset + b * alpha), where alpha
    holds the fractional parts of sqrt(2), sqrt(3), sqrt(5), ... and the
    offset is seeded per stratum. The points fill the unit cube evenly in
    all coordinates jointly, so every run covers each stratum's parameter
    space (urn size, rival share, steps, ...) the same way whatever the seed.
    """

    def __init__(self, rng):
        self.rng = rng
        self.offsets = {}
        self.counts = {}

    def __call__(self, stratum) -> list[float]:
        if stratum not in self.offsets:
            self.offsets[stratum] = [self.rng.random() for _ in _WEYL]
            self.counts[stratum] = 0
        b = self.counts[stratum]
        self.counts[stratum] = b + 1
        return [(offset + b * alpha) % 1.0 for offset, alpha in zip(self.offsets[stratum], _WEYL)]


def _pick(u, lo, hi):
    """Integer in lo..hi at position u in [0, 1)."""
    return lo + int(u * (hi - lo + 1))


def _log_at(u, lo_exp, hi_exp):
    """4-significant-digit value at position u of a log scale 10**lo..10**hi."""
    return float(f"{10 ** (lo_exp + u * (hi_exp - lo_exp)):.4g}")


def _weights_for_surplus(rng, working, surplus):
    """A weight vector of 2s and 3s on the working side adding `surplus`."""
    heavy = []
    while surplus > 0:
        w = 3 if surplus >= 2 and rng.random() < 0.5 else 2
        heavy.append(w)
        surplus -= w - 1
    if len(heavy) > working:
        return None
    weights = heavy + [1] * (working - len(heavy))
    rng.shuffle(weights)
    return weights


def _counts_in_band(rng, u, lo, hi, used):
    """(working, rival, weights) whose +1 urn has lo..hi items, not in used.

    u[0], u[1] and u[2] place the urn size, the rival share and the weight
    surplus; if that urn was used, fresh positions are drawn. Rival counts
    stay at or below half the working count, so the p-value bound sits
    below every threshold and each threshold gets a solve.
    """
    while True:
        total = _pick(u[0], lo, hi)
        surplus = (total - 1) % 2 + (2 if u[2] < 0.5 else 0)
        working = (total - 1 - surplus) // 2
        weights = _weights_for_surplus(rng, working, surplus) if surplus else None
        rival = _pick(u[1], 0, working // 2)
        key = plus_one_urn(working, rival, weights)
        if working >= 2 and (weights or not surplus) and key not in used:
            used.add(key)
            return working, rival, weights
        u = [rng.random() for _ in range(3)]


def _solve_large(rng):
    spread = Spread(rng)
    used = set()
    op_id = 0
    while True:
        strata = list(enumerate(SOLVE_BANDS))
        rng.shuffle(strata)
        for stratum, (lo, hi) in strata:
            u = spread(stratum)
            working, rival, weights = _counts_in_band(rng, u, lo, hi, used)
            alphas = sorted(rng.sample(ALPHAS, 1 if u[3] < 0.5 else 2), key=float)
            yield {
                "id": op_id,
                "call": "summarize_urn",
                "working": working,
                "rival": rival,
                "weights": weights,
                "alphas": alphas,
            }
            op_id += 1


def _curves(rng):
    spread = Spread(rng)
    used = set()
    op_id = 0
    while True:
        strata = [(kind, band) for kind in CURVE_KINDS for band in CURVE_BANDS]
        rng.shuffle(strata)
        for kind, (lo, hi) in strata:
            u = spread((kind, lo))
            op = {"id": op_id, "call": kind}
            if kind == "grid":
                op.update(_grid_op(rng, u, lo, hi, used))
            else:
                working, rival, weights = _counts_in_band(rng, u, lo, hi, used)
                op.update(working=working, rival=rival, weights=weights)
                if kind == "sweep":
                    omega_min = _log_at(u[3], -1.0, 0.5)
                    op.update(
                        omega_min=omega_min,
                        omega_max=float(f"{omega_min * 10 ** (1.0 + 3.0 * u[4]):.4g}"),
                        steps=_pick(u[5], 50, 200),
                        scale="log" if u[6] < 0.5 else "linear",
                    )
                else:
                    op["omega"] = _log_at(u[3], -1.0, 3.0)
            yield op
            op_id += 1


def _grid_op(rng, u, lo, hi, used):
    """weight_omega_grid inputs whose every urn (one per weight) is unused."""
    weight_max = _pick(u[3], 1, 4)
    omega_count = _pick(u[4], 5, 10)
    while True:
        working = max(2, (_pick(u[0], lo, hi) - weight_max) // 2)
        rival = _pick(u[1], 0, working // 2)
        keys = [plus_one_urn(working, rival, [w] + [1] * (working - 1)) for w in range(1, weight_max + 1)]
        if not used.intersection(keys):
            used.update(keys)
            omegas = sorted({_log_at(rng.random(), -0.5, 4.0) for _ in range(omega_count)})
            return {
                "working": working,
                "rival": rival,
                "weight_values": list(range(1, weight_max + 1)),
                "omega_values": omegas,
            }
        u = [rng.random() for _ in range(2)]


def _ledger_doc(rng, name):
    """A synthetic ledger of 5-40 observations whose +1 urn has <= 60 items."""
    working = rng.randint(3, 28)
    rival = rng.randint(max(0, 5 - working), min(working, 40 - working))
    weights = [1] * working
    room = 59 - 2 * working
    if room >= 1 and rng.random() < 0.5:
        for i in rng.sample(range(working), min(working, rng.randint(1, 2))):
            extra = min(room, rng.randint(1, 2))
            if extra < 1:
                break
            weights[i] += extra
            room -= extra
    observations = [
        {"id": f"w{i}", "description": f"working-supporting observation {i}", "supports": "working"}
        for i in range(working)
    ]
    for obs, w in zip(observations, weights):
        if w > 1:
            obs["weight"] = w
    observations += [
        {"id": f"r{i}", "description": f"rival-supporting observation {i}", "supports": "rival"}
        for i in range(rival)
    ]
    rng.shuffle(observations)
    return {
        "schema_version": 1,
        "case_name": name,
        "working_hypothesis": "The working theory explains the case.",
        "rival_hypothesis": "The rival theory explains the case.",
        "alpha_thresholds": rng.choice(([0.05, 0.1], [0.025, 0.05], [0.0125, 0.05, 0.1])),
        "observations": observations,
    }


def _inline_urn(rng):
    """(t, r, n, x) of a +1 urn with <= 60 items, with a solvable x."""
    working = rng.randint(3, 28)
    rival = rng.randint(1, working)
    t, r, n, _ = plus_one_urn(working, rival)
    lo = max(0, n - r)
    x = t if rng.random() < 0.7 or t - 1 <= lo else t - 1
    return [t, r, n, x]


def _urn_flags(urn):
    t, r, n, x = urn
    return ["--t", str(t), "--r", str(r), "--n", str(n), "--x", str(x)]


def _cli_op(rng, kind, op_id, fixture):
    name = f"synthetic case {op_id}"
    op = {"id": op_id, "kind": kind, "ledgers": []}
    if kind in LEDGER_KINDS:
        op["ledgers"] = [{"fixture": fixture} if fixture else {"doc": _ledger_doc(rng, name)}]
    if kind.startswith("test-") and kind != "test-inline":
        op["format"] = kind[5:]
        op["argv"] = ["test", "@0", "--format", op["format"]]
    elif kind == "test-inline":
        op.update(urn=_inline_urn(rng), alphas=sorted(rng.sample(ALPHAS, 2), key=float))
        op["argv"] = ["test", *_urn_flags(op["urn"]), "--alpha", ",".join(op["alphas"]), "--format", "json"]
    elif kind == "sens-json":
        op["alpha"] = rng.choice(ALPHAS)
        op["argv"] = ["sens", "@0", "--alpha", op["alpha"], "--format", "json"]
    elif kind == "sens-inline":
        op.update(urn=_inline_urn(rng), alpha=rng.choice(ALPHAS))
        op["argv"] = ["sens", *_urn_flags(op["urn"]), "--alpha", op["alpha"], "--format", "csv"]
    elif kind == "dist-json":
        op["argv"] = ["dist", "@0", "--format", "json"]
    elif kind == "dist-odds-text":
        op["odds"] = _log_at(rng.random(), -1.0, 2.0)
        op["argv"] = ["dist", "@0", "--odds", repr(op["odds"]), "--format", "text"]
    elif kind == "dist-odds-inline":
        op.update(urn=_inline_urn(rng), odds=_log_at(rng.random(), -1.0, 2.0))
        op["argv"] = ["dist", *_urn_flags(op["urn"]), "--odds", repr(op["odds"]), "--format", "csv"]
    elif kind == "sweep-log":
        op["omega_min"] = _log_at(rng.random(), -1.0, 0.5)
        op["omega_max"] = float(f"{op['omega_min'] * 10 ** rng.uniform(1.0, 3.0):.4g}")
        op["steps"] = rng.randint(20, 100)
        op["argv"] = [
            "sweep", "@0", "--omega-min", repr(op["omega_min"]), "--omega-max",
            repr(op["omega_max"]), "--steps", str(op["steps"]), "--scale", "log",
        ]
    elif kind == "sweep-weights":
        t, r, n, _ = plus_one_urn(rng.randint(3, 28), 0)
        n = rng.randint(t, min(t + r - 1, 40))
        op.update(urn=[t, r, n, t], weight_max=rng.randint(2, 3))
        op["omega_min"] = _log_at(rng.random(), -1.0, 0.0)
        op["omega_max"] = float(f"{op['omega_min'] * 10 ** rng.uniform(1.0, 2.0):.4g}")
        op["steps"] = rng.randint(5, 10)
        op["argv"] = [
            "sweep", *_urn_flags(op["urn"])[:6], "--omega-min", repr(op["omega_min"]),
            "--omega-max", repr(op["omega_max"]), "--steps", str(op["steps"]),
            "--weight-max", str(op["weight_max"]), "--scale", "linear",
        ]
    elif kind == "multi":
        count = rng.randint(2, 4)
        op["ledgers"] = [{"doc": _ledger_doc(rng, f"{name} rival {k + 1}")} for k in range(count)]
        op["alpha0"] = rng.choice(("0.05", "0.1"))
        op["argv"] = ["multi", *(f"@{k}" for k in range(count)), "--alpha0", op["alpha0"], "--format", "json"]
    return op


def _cli_desk(rng):
    op_id = 0
    block = 0
    while True:
        kinds = list(CLI_KINDS)
        rng.shuffle(kinds)
        fixture_kind = None
        if block < len(FIXTURES) * len(LEDGER_KINDS):
            fixture_kind = LEDGER_KINDS[block // len(FIXTURES)]
        for kind in kinds:
            fixture = FIXTURES[block % len(FIXTURES)] if kind == fixture_kind else None
            yield _cli_op(rng, kind, op_id, fixture)
            op_id += 1
        block += 1


def _simulate(rng):
    spread = Spread(rng)
    op_id = 0
    while True:
        bands = list(SIM_BANDS)
        rng.shuffle(bands)
        for lo, hi in bands:
            u = spread(lo)
            total = _pick(u[0], lo, hi)
            t = _pick(u[1], total // 4, total // 2)
            n = _pick(u[2], max(1, total // 8), total // 2)
            seed = rng.getrandbits(63)
            urn = [t, total - t, n]
            yield {
                "id": op_id,
                "kind": "simulate",
                "urn": urn,
                "draws": SIM_DRAWS,
                "seed": seed,
                "ledgers": [],
                "argv": [
                    "simulate", "--t", str(t), "--r", str(total - t), "--n", str(n),
                    "--draws", str(SIM_DRAWS), "--seed", str(seed),
                ],
            }
            op_id += 1


_STREAMS = {
    "cli_desk": _cli_desk,
    "solve_large": _solve_large,
    "curves": _curves,
    "simulate": _simulate,
}
WORKLOADS = tuple(_STREAMS)
