"""Sensitivity analysis: how much observation bias overturns a conclusion.

Holding the urn fixed, the tail probability is a strictly increasing
function of the bias odds ratio omega, so for any threshold alpha inside
the attainable range there is exactly one omega* with tail(omega*) =
alpha. Reporting omega* tells a reader how much easier working-supporting
evidence would have to be to observe before the test stops rejecting the
rival at that threshold.

The solver runs Newton's method on u = log omega, starting at omega = 1.
The slope d log tail / du is E[X | X >= x] - E[X], so the float view of
the urn's coefficient table gives value and slope in one pass. Which
equation the steps solve depends on where omega = 1 lies:

- When the tail at omega = 1 is already below alpha and alpha < 1/2 (a +1
  urn that rejects, the common case), Newton solves psi(u) = log(-log
  alpha) - log(-log tail(u)) = 0, whose slope is the view's slope over
  -log tail. Log tail is strongly concave in this far field, where Newton
  on it crawls, but psi is close to linear and convex: the first step
  lands just above the root and every later step falls towards it.
- Otherwise (a root below omega = 1, or alpha >= 1/2) Newton solves
  log tail(u) = log alpha. Log tail is concave, so the steps approach the
  root from below.

A bracket of points known to lie on either side of the root catches any
step that leaves it. A step that fails to bring the view closer to the
root from its side of approach, or one that does not move u, has hit the
view's rounding, and the exact tail is evaluated there. Convergence is
judged on the exact tail, relative to alpha, so tiny thresholds and large
urns are solved to the same relative tolerance. Should the tolerance be
finer than the view's rounding, the exact tail's value steers the last
steps. The steps move on the floats u, so when |u| > 1 the odds ratios
they reach, exp(u), are about |u| times sparser than the floats; should
tol be finer than the tail's step between neighbouring ones, a step
returns to an odds ratio already evaluated exactly, and the solve stops
there.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass
from typing import Sequence

from .biased import fnch_tail, log_tail_view
from .errors import DegenerateUrnError, DomainError, SolverError, UnreachableThresholdError
from .urn import UrnSpec, build_plus_one_urn

__all__ = [
    "SensitivityResult",
    "solve_omega",
    "omega_grid",
    "sweep_curve",
    "weight_omega_grid",
]

# log omega of the smallest and largest positive floats: a root outside
# this range has no float odds ratio.
_LOG_OMEGA_MIN = math.log(math.ulp(0.0))
_LOG_OMEGA_MAX = math.log(sys.float_info.max)


@dataclass(frozen=True)
class SensitivityResult:
    """Solved bias odds ratio for one rejection threshold.

    iterations counts solver steps. bracket is the solver's safeguard
    interval on omega at the end: its ends are the closest odds ratios
    evaluated below and above the root (by the float view, or by the exact
    tail once it steers), or the float range's limits on a side no
    evaluation reached. When the urn rejects at omega = 1 and alpha < 1/2
    the steps come from above, so the upper end is usually a
    view-evaluated point just above the root.
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

    Converges when the exact tail at omega*, achieved_p, satisfies
    |achieved_p / alpha - 1| <= tol. Raises UnreachableThresholdError when
    the root lies outside the range of positive floats, and SolverError
    when tol is not met within max_iter steps or is finer than the tail's
    step between neighbouring odds ratios on the solver's grid, exp(u) for
    float u, at the root.
    """
    alpha = float(alpha)
    if not 0.0 < alpha < 1.0:
        raise DomainError(f"alpha must lie strictly in (0, 1), got {alpha}")
    if not 0.0 < tol < 1.0:
        raise DomainError(f"tol must lie strictly in (0, 1), got {tol}")
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

    log_alpha = math.log(alpha)
    lo, hi = -math.inf, math.inf  # log omega known to lie below / above the root
    u, achieved = 0.0, None
    # The omegas whose exact tail was evaluated. A step that returns to one
    # has stalled on the grid the steps move on, exp(u) for float u, at a
    # tail already known to miss tol.
    evaluated: set[float] = set()
    for iterations in range(1, max_iter + 1):
        log_p, slope = log_tail_view(urn, u)
        if achieved is not None:  # past the view's resolution, the exact tail at u steers
            log_p = math.log(achieved) if achieved else -math.inf
        g = log_p - log_alpha
        if iterations == 1:
            from_above = g < 0.0 and alpha < 0.5
            approach = 1.0 if from_above else -1.0  # the side of the root the steps come from
            g_prev = -approach * math.inf
        if g < 0.0:
            lo = u
        else:
            hi = u
        if lo == _LOG_OMEGA_MAX or hi == _LOG_OMEGA_MIN:
            side = "below" if g < 0.0 else "above"
            raise UnreachableThresholdError(
                f"tail probability stays {side} alpha={alpha} for all positive float odds ratios"
            )
        if not from_above:
            step = u - g / slope if slope > 0.0 else math.nan
        elif slope > 0.0 and log_p < 0.0:
            # psi = log(-log alpha) - log(-log tail) = -log1p(g / log alpha), slope / -log tail
            step = u + math.log1p(g / log_alpha) * -log_p / slope
        else:
            step = math.nan
        newton = lo < step < hi
        if step != u and not newton:
            step = (lo + hi) / 2.0
        step = _clip(step)
        # Log tail is concave in u, so Newton on it approaches the root from
        # below; psi is close to linear and convex where the tail is small, so
        # Newton on it lands just above the root and then falls towards it. A
        # Newton step on the approach side that fails to bring g closer to 0,
        # or crosses the root, has hit the view's rounding, and so has a step
        # that does not move u: the exact tail takes over there. A bisection
        # says nothing of the rounding, so the view is trusted after one.
        if (
            achieved is None
            and step != u
            and abs(g) > tol
            and (approach * g_prev <= 0.0 or 0.0 < approach * g < approach * g_prev)
        ):
            u, g_prev = step, g if newton else -approach * math.inf
            continue
        first_exact = achieved is None
        u, omega = step, math.exp(step)
        if omega in evaluated:
            raise SolverError(
                f"tol={tol} is finer than the tail's step between neighbouring odds "
                f"ratios on the solver's grid, omega = exp(u) for float u: the steps "
                f"returned to omega {omega!r} without meeting alpha={alpha}"
            )
        evaluated.add(omega)
        achieved = fnch_tail(urn, omega)
        if abs(achieved / alpha - 1.0) <= tol:
            lo, hi = (u, hi) if achieved < alpha else (lo, u)
            return SensitivityResult(
                alpha=alpha,
                omega_star=omega,
                achieved_p=achieved,
                iterations=iterations,
                bracket=(math.exp(_clip(lo)), math.exp(_clip(hi))),
            )
        if first_exact:  # the view's signs may disagree with the exact tail's
            lo, hi = -math.inf, math.inf
    raise SolverError(
        f"tail did not reach relative tolerance {tol} of alpha={alpha} "
        f"(max_iter={max_iter}, last omega {math.exp(u)!r})"
    )


def _clip(log_omega: float) -> float:
    """log_omega moved into the log range of the positive floats."""
    return min(max(log_omega, _LOG_OMEGA_MIN), _LOG_OMEGA_MAX)


def omega_grid(omega_min: float, omega_max: float, steps: int, scale: str = "log") -> list[float]:
    """steps evenly spaced odds ratios from exactly omega_min to exactly omega_max.

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
    if scale == "log":  # in logs, as omega_max / omega_min may overflow
        start = math.log(omega_min)
        step = (math.log(omega_max) - start) / (steps - 1)
        grid = [math.exp(start + step * i) for i in range(steps)]
    else:
        step = (omega_max - omega_min) / (steps - 1)
        grid = [omega_min + step * i for i in range(steps)]
    grid[0], grid[-1] = omega_min, omega_max
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
