"""Sensitivity analysis: how much observation bias overturns a conclusion.

Holding the urn fixed, the tail probability is a strictly increasing
function of the bias odds ratio omega, so for any threshold alpha inside
the attainable range there is exactly one omega* with tail(omega*) =
alpha. Reporting omega* tells a reader how much easier working-supporting
evidence would have to be to observe before the test stops rejecting the
rival at that threshold.

The solver brackets the root and bisects on the geometric mean, which
converges uniformly in relative terms across the huge dynamic range an
odds ratio can take.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

from .biased import fnch_tail
from .errors import DegenerateUrnError, DomainError, SolverError, UnreachableThresholdError
from .urn import UrnSpec, build_plus_one_urn

__all__ = [
    "SensitivityResult",
    "solve_omega",
    "omega_grid",
    "sweep_curve",
    "weight_omega_grid",
]

# Initial bracket for the odds ratio; expanded geometrically if the root
# lies outside, up to the expansion floor/ceiling below.
_BRACKET_LOW = 1e-9
_BRACKET_HIGH = 1e9
_EXPAND_FACTOR = 1e3
_EXPAND_FLOOR = 1e-200
_EXPAND_CEIL = 1e200


@dataclass(frozen=True)
class SensitivityResult:
    """Solved bias odds ratio for one rejection threshold.

    bracket is the final interval containing the root; iterations counts
    bisection steps only.
    """

    alpha: float
    omega_star: float
    achieved_p: float
    iterations: int
    bracket: tuple[float, float]

    @property
    def percent_more_likely(self) -> float:
        """Bias expressed as the percentage change in draw odds, 100*(omega - 1)."""
        return 100.0 * (self.omega_star - 1.0)


def solve_omega(
    urn: UrnSpec,
    alpha: float,
    *,
    tol: float = 1e-9,
    max_iter: int = 200,
) -> SensitivityResult:
    """Find the bias odds ratio at which the tail probability equals alpha.

    Converges when the tail matches alpha within tol/10 or the bracket
    narrows to a relative width of tol. Raises UnreachableThresholdError
    when no positive omega attains alpha and SolverError past max_iter.
    """
    alpha = float(alpha)
    if not 0.0 < alpha < 1.0:
        raise DomainError(f"alpha must lie strictly in (0, 1), got {alpha}")
    lo_k, hi_k = urn.support()
    if hi_k - lo_k < 1:
        raise DegenerateUrnError(
            f"support window [{lo_k}, {hi_k}] has a single point; the tail does not depend on omega"
        )
    if urn.support_count <= lo_k:
        raise DegenerateUrnError(
            "observed support count sits at the bottom of the support window, "
            "so the tail probability is 1 for every omega"
        )

    lo, hi = _BRACKET_LOW, _BRACKET_HIGH
    f_lo = fnch_tail(urn, lo)
    f_hi = fnch_tail(urn, hi)
    while f_lo > alpha:
        lo /= _EXPAND_FACTOR
        if lo < _EXPAND_FLOOR:
            raise UnreachableThresholdError(
                f"tail probability stays above alpha={alpha} for all positive odds ratios"
            )
        f_lo = fnch_tail(urn, lo)
    while f_hi < alpha:
        hi *= _EXPAND_FACTOR
        if hi > _EXPAND_CEIL:
            raise UnreachableThresholdError(
                f"tail probability stays below alpha={alpha} for all positive odds ratios"
            )
        f_hi = fnch_tail(urn, hi)

    p_tol = tol / 10.0
    omega = math.sqrt(lo * hi)
    achieved = fnch_tail(urn, omega)
    iterations = 0
    while abs(achieved - alpha) > p_tol:
        if iterations >= max_iter:
            raise SolverError(
                f"no convergence after {max_iter} iterations "
                f"(bracket [{lo}, {hi}], |p - alpha| = {abs(achieved - alpha):.3e})"
            )
        if achieved < alpha:
            lo = omega
        else:
            hi = omega
        if hi - lo <= tol * lo:
            break
        omega = math.sqrt(lo * hi)
        achieved = fnch_tail(urn, omega)
        iterations += 1
    result = SensitivityResult(
        alpha=alpha,
        omega_star=omega,
        achieved_p=achieved,
        iterations=iterations,
        bracket=(lo, hi),
    )
    if abs(result.achieved_p - alpha) > 1e-9:
        raise SolverError(
            f"converged bracket but |p - alpha| = {abs(result.achieved_p - alpha):.3e} exceeds 1e-9"
        )
    return result


def omega_grid(omega_min: float, omega_max: float, steps: int, scale: str = "log") -> list[float]:
    """steps evenly spaced odds ratios from omega_min to exactly omega_max.

    scale selects log (even ratios) or linear (even differences) spacing.
    """
    if not 0.0 < omega_min < omega_max:
        raise DomainError(
            f"need 0 < omega_min < omega_max, got ({omega_min}, {omega_max})"
        )
    if steps < 2:
        raise DomainError(f"steps must be at least 2, got {steps}")
    if scale not in ("log", "linear"):
        raise DomainError(f"scale must be 'log' or 'linear', got {scale!r}")
    if scale == "log":
        ratio = (omega_max / omega_min) ** (1.0 / (steps - 1))
        grid = [omega_min * ratio**i for i in range(steps)]
    else:
        step = (omega_max - omega_min) / (steps - 1)
        grid = [omega_min + step * i for i in range(steps)]
    grid[-1] = omega_max
    return grid


def sweep_curve(
    urn: UrnSpec,
    omega_min: float,
    omega_max: float,
    steps: int,
    *,
    scale: str = "log",
) -> list[tuple[float, float]]:
    """Tail probability over omega_grid(omega_min, omega_max, steps, scale).

    Callers that render the curve should carry the scale flag along.
    """
    grid = omega_grid(omega_min, omega_max, steps, scale)
    return [(omega, fnch_tail(urn, omega)) for omega in grid]


def weight_omega_grid(
    working_obs: int,
    rival_obs: int,
    weight_values: Sequence[int],
    omega_values: Sequence[float],
) -> list[list[float]]:
    """Tail probabilities over a (weight, omega) grid.

    The weight applies to a single designated working-supporting
    observation (the candidate smoking gun); all others keep weight 1.
    Row i corresponds to weight_values[i], column j to omega_values[j].
    """
    if not weight_values or not omega_values:
        raise DomainError("weight and omega grids must each hold at least one value")
    rows = []
    for w in weight_values:
        weights = (w,) + (1,) * (working_obs - 1)
        urn = build_plus_one_urn(working_obs, rival_obs, weights)
        rows.append([fnch_tail(urn, omega) for omega in omega_values])
    return rows
