"""Command-line interface.

Every subcommand accepts either an evidence-ledger file or inline urn
parameters (--t/--r/--n/--x), writes results to stdout (or --out), and
keeps diagnostics on stderr. Exit codes: 0 success, 2 parse or validation
failure, 3 infeasible computation, 1 internal error.
"""

from __future__ import annotations

import argparse
import sys
from fractions import Fraction
from pathlib import Path

from .errors import InfeasibleError, UrnTestError
from .ledger import DEFAULT_ALPHAS, derive_counts, parse_ledger
from .oracle import SimConfig, monte_carlo
from .report import (
    csv_bytes,
    json_bytes,
    pmf_rows,
    render,
    run_sequential_rivals,
    run_test,
    sensitivity_as_dict,
    summarize_urn,
    summary_as_dict,
    urn_as_dict,
    weight_grid_rows,
)
from .sensitivity import omega_grid, solve_omega, sweep_curve
from .urn import UrnSpec, build_plus_one_urn


def _alpha(text: str) -> Fraction:
    value = Fraction(text)
    if not 0 < value < 1:
        raise ValueError(f"alpha {text} must lie strictly in (0, 1)")
    return value


def _alpha_list(text: str) -> tuple[Fraction, ...]:
    return tuple(_alpha(part) for part in text.split(","))


def _add_urn_source(parser: argparse.ArgumentParser):
    parser.add_argument("ledger", nargs="?", help="evidence ledger JSON file")
    parser.add_argument("--t", type=int, help="working-supporting items in the urn")
    parser.add_argument("--r", type=int, help="rival-supporting items in the urn")
    parser.add_argument("--n", type=int, help="items drawn from the urn")
    parser.add_argument(
        "--x", type=int, help="observed working-supporting draws (default: min(n, t))"
    )


def _add_output(parser: argparse.ArgumentParser, formats=("text", "json", "csv")):
    parser.add_argument("--format", choices=formats, default=formats[0], help="output format")
    parser.add_argument("--out", type=Path, help="write output to this file instead of stdout")


def _read_ledger(path: str):
    try:
        data = Path(path).read_bytes()
    except OSError as exc:
        raise UrnTestError(f"cannot read ledger {path!r}: {exc}") from exc
    return parse_ledger(data)


def _ledger(args):
    """The ledger file named on the command line, or None for an inline urn."""
    if args.ledger is None:
        return None
    if any(flag is not None for flag in (args.t, args.r, args.n, args.x)):
        raise UrnTestError("give either a ledger file or inline urn flags, not both")
    return _read_ledger(args.ledger)


def _urn_source(args) -> UrnSpec:
    """The +1 urn of the ledger file, or the urn given by --t/--r/--n/--x."""
    ledger = _ledger(args)
    if ledger is not None:
        return build_plus_one_urn(*derive_counts(ledger))
    missing = [flag for flag in ("t", "r", "n") if getattr(args, flag) is None]
    if missing:
        raise UrnTestError(
            "provide a ledger file or a full inline urn (--t, --r, --n missing: "
            + ", ".join("--" + m for m in missing)
            + ")"
        )
    x = min(args.n, args.t) if args.x is None else args.x
    return UrnSpec(t_count=args.t, r_count=args.r, sample_size=args.n, support_count=x)


def _emit(data: bytes, out: Path | None):
    if out is None:
        sys.stdout.write(data.decode("utf-8"))
        return
    try:
        out.write_bytes(data)
    except OSError as exc:
        raise UrnTestError(f"cannot write output {str(out)!r}: {exc}") from exc


def _cmd_test(args) -> bytes:
    ledger = _ledger(args)
    if ledger is None:
        summary = summarize_urn(_urn_source(args), args.alpha or DEFAULT_ALPHAS)
    else:
        summary = run_test(ledger, alphas=args.alpha)
    return render(summary, args.format)


def _cmd_dist(args) -> bytes:
    urn = _urn_source(args)
    rows = pmf_rows(urn, args.odds)
    if args.format == "csv":
        return csv_bytes("k,probability,log10", rows)
    if args.format == "json":
        distribution = [{"k": k, "probability": p, "log10": log10} for k, p, log10 in rows]
        return json_bytes({"urn": urn_as_dict(urn), "odds": args.odds, "distribution": distribution})
    return "".join(f"P(k = {k}) = {p:.6f}\n" for k, p, _ in rows).encode()


def _cmd_sens(args) -> bytes:
    result = solve_omega(_urn_source(args), float(args.alpha), tol=args.tol)
    if args.format == "json":
        return json_bytes(sensitivity_as_dict(result))
    if args.format == "csv":
        return (
            "alpha,omega,omega_precise,achieved_p\n"
            f"{float(args.alpha)!r},{result.omega_star:.2f},{result.omega_star!r},{result.achieved_p!r}\n"
        ).encode()
    return (
        f"alpha={float(args.alpha):g}: odds ratio omega* = {result.omega_star:.3f} "
        f"(working-supporting evidence {result.percent_more_likely:.0f}% more likely)\n"
    ).encode()


def _cmd_sweep(args) -> bytes:
    urn = _urn_source(args)
    if args.weight_max is None:
        curve = sweep_curve(urn, args.omega_min, args.omega_max, args.steps, scale=args.scale)
        data = csv_bytes("omega,p", curve)
    else:
        if urn.sample_size < urn.t_count:
            raise UrnTestError("weight grid needs sample_size >= t_count for the inline urn")
        omegas = omega_grid(args.omega_min, args.omega_max, args.steps, args.scale)
        weights = range(1, args.weight_max + 1)
        rows = weight_grid_rows(urn.t_count, urn.sample_size - urn.t_count, weights, omegas)
        data = csv_bytes("weight,omega,p", rows)
    print(f"scale={args.scale}", file=sys.stderr)
    return data


def _cmd_simulate(args) -> bytes:
    urn = UrnSpec(args.t, args.r, args.n, min(args.n, args.t))
    return csv_bytes("k,probability", monte_carlo(urn, SimConfig(draws=args.draws, seed=args.seed)))


def _cmd_multi(args) -> bytes:
    ledgers = [_read_ledger(path) for path in args.ledgers]
    outcomes = run_sequential_rivals(ledgers, args.alpha0, rule=args.rule)
    if args.format == "json":
        return json_bytes(
            [
                {
                    "adjusted_alpha": float(out.adjusted_alpha),
                    "reject": out.reject,
                    "summary": summary_as_dict(out.summary),
                }
                for out in outcomes
            ]
        )
    if args.format == "csv":
        rows = []
        for out in outcomes:
            res = out.summary.sensitivity[0]
            rows.append(
                (
                    out.summary.digest.case_name,
                    float(out.adjusted_alpha),
                    float(out.summary.p_upper),
                    str(out.reject).lower(),
                    "" if res is None else res.omega_star,
                    out.summary.p_upper.log10,
                )
            )
        return csv_bytes("case,adjusted_alpha,p_upper,reject,omega,p_upper_log10", rows)
    blocks = []
    for out in outcomes:
        verdict = "reject rival" if out.reject else "fail to reject rival"
        blocks.append(
            f"== {out.summary.digest.case_name}\n"
            f"adjusted alpha = {float(out.adjusted_alpha):g} -> {verdict}\n"
            + render(out.summary, "text").decode()
        )
    return "\n".join(blocks).encode()


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="urntest",
        description=(
            "Exact urn-model hypothesis tests for single-case qualitative "
            "evidence, with biased-urn sensitivity analysis."
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_test = sub.add_parser("test", help="run the full test: p-value upper bound plus sensitivity")
    _add_urn_source(p_test)
    p_test.add_argument(
        "--alpha",
        type=_alpha_list,
        default=None,
        help="comma-separated rejection thresholds (default: 0.05,0.10 or the ledger's)",
    )
    _add_output(p_test)
    p_test.set_defaults(func=_cmd_test)

    p_dist = sub.add_parser("dist", help="full null distribution over draw counts")
    _add_urn_source(p_dist)
    p_dist.add_argument("--odds", type=float, default=1.0, help="bias odds ratio (default: 1)")
    _add_output(p_dist)
    p_dist.set_defaults(func=_cmd_dist)

    p_sens = sub.add_parser("sens", help="solve the bias odds ratio for one threshold")
    _add_urn_source(p_sens)
    p_sens.add_argument("--alpha", type=_alpha, required=True, help="rejection threshold")
    p_sens.add_argument(
        "--tol",
        type=float,
        default=1e-9,
        help="relative tolerance on the tail probability at omega* (default: 1e-9)",
    )
    _add_output(p_sens)
    p_sens.set_defaults(func=_cmd_sens)

    p_sweep = sub.add_parser("sweep", help="tail probability over an odds-ratio grid (CSV)")
    _add_urn_source(p_sweep)
    p_sweep.add_argument("--omega-min", type=float, required=True)
    p_sweep.add_argument("--omega-max", type=float, required=True)
    p_sweep.add_argument("--steps", type=int, required=True)
    p_sweep.add_argument(
        "--weight-max",
        type=int,
        default=None,
        help="also sweep the first observation's weight from 1 to this value",
    )
    p_sweep.add_argument(
        "--scale", choices=("log", "linear"), default="log", help="grid spacing (default: log)"
    )
    p_sweep.add_argument("--out", type=Path, help="write output to this file instead of stdout")
    p_sweep.set_defaults(func=_cmd_sweep)

    p_sim = sub.add_parser("simulate", help="seeded Monte Carlo draws from the unbiased urn (CSV)")
    p_sim.add_argument("--t", type=int, required=True)
    p_sim.add_argument("--r", type=int, required=True)
    p_sim.add_argument("--n", type=int, required=True)
    p_sim.add_argument(
        "--draws", type=int, default=100_000, help="replications (default: 100000)"
    )
    p_sim.add_argument("--seed", type=int, required=True, help="explicit 64-bit seed")
    p_sim.add_argument("--out", type=Path, help="write output to this file instead of stdout")
    p_sim.set_defaults(func=_cmd_simulate)

    p_multi = sub.add_parser("multi", help="test several rival ledgers in sequence")
    p_multi.add_argument("ledgers", nargs="+", help="one ledger file per rival")
    p_multi.add_argument("--alpha0", type=_alpha, required=True, help="starting threshold")
    p_multi.add_argument(
        "--rule",
        choices=("halving", "fixed"),
        default="halving",
        help="threshold adjustment per additional rival (default: halving)",
    )
    _add_output(p_multi)
    p_multi.set_defaults(func=_cmd_multi)

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        _emit(args.func(args), args.out)
        return 0
    except InfeasibleError as exc:
        print(f"urntest: infeasible: {exc}", file=sys.stderr)
        return 3
    except UrnTestError as exc:
        print(f"urntest: error: {exc}", file=sys.stderr)
        return 2
    except Exception as exc:  # pragma: no cover
        print(f"urntest: internal error: {exc!r}", file=sys.stderr)
        return 1


def entrypoint():
    sys.exit(main())


if __name__ == "__main__":
    entrypoint()
