"""Two-point limit of the pointer statistics.

In the infinite-size limit the pointer dynamics collapses onto a two-point
probability space {P0, P1}: P0 carries the weight of the branch that keeps
pointing at cocked, P1 the weight of the branch that fired.  The weights
are the Born weights |a0|^2 and |a1|^2 of the initial particle state.

Variables on two points are spanned by the indicators chi_P0 and chi_P1,
so products stay in the same family (pointwise) and the indicator
idempotence E[F * F] = E[F] is exact.  `compare_limit` quantifies how the
finite-size time averages approach expectation(chi_P1): the error of the
strict cocked start is exactly |a1|^2 / n, so the fitted log-log decay
exponent sits at -1.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .dynamics import SweepRow
from .errors import NotNormalizedError

WEIGHT_ATOL = 1e-12


@dataclass(frozen=True)
class TwoPointSystem:
    """Probability weights on the limit points (P0, P1)."""

    w0: float
    w1: float

    def __post_init__(self) -> None:
        if not (math.isfinite(self.w0) and math.isfinite(self.w1)):
            raise ValueError(f"weights must be finite, got ({self.w0}, {self.w1})")
        if self.w0 < -WEIGHT_ATOL or self.w1 < -WEIGHT_ATOL:
            raise ValueError(f"weights must be nonnegative, got ({self.w0}, {self.w1})")
        if abs(self.w0 + self.w1 - 1.0) > WEIGHT_ATOL:
            raise ValueError(f"weights must sum to 1, got {self.w0 + self.w1!r}")


def limit_system(a: tuple[complex, complex]) -> TwoPointSystem:
    """Born weights of the particle amplitudes; amplitudes must be normalized."""
    a0, a1 = a
    total = abs(a0) ** 2 + abs(a1) ** 2
    if not math.isfinite(total):
        raise NotNormalizedError(f"|a0|^2 + |a1|^2 = {total!r} is not finite")
    if abs(total - 1.0) > 1e-9:
        raise NotNormalizedError(
            f"|a0|^2 + |a1|^2 = {total!r} deviates from 1 beyond 1e-9"
        )
    return TwoPointSystem(w0=abs(a0) ** 2 / total, w1=abs(a1) ** 2 / total)


@dataclass(frozen=True)
class LimitVariable:
    """Function on the two-point space, written as c0 * chi_P0 + c1 * chi_P1."""

    c0: float
    c1: float

    def __mul__(self, other: "LimitVariable") -> "LimitVariable":
        return LimitVariable(self.c0 * other.c0, self.c1 * other.c1)

    def __add__(self, other: "LimitVariable") -> "LimitVariable":
        return LimitVariable(self.c0 + other.c0, self.c1 + other.c1)


CHI_P0 = LimitVariable(1.0, 0.0)
CHI_P1 = LimitVariable(0.0, 1.0)
UNIT = LimitVariable(1.0, 1.0)


def expectation(system: TwoPointSystem, variable: LimitVariable) -> float:
    return system.w0 * variable.c0 + system.w1 * variable.c1


@dataclass(frozen=True)
class ConvergenceReport:
    ns: tuple[int, ...]
    errors: tuple[float, ...]
    limit_value: float
    fitted_exponent: float | None
    fitted_intercept: float
    final_error: float
    tolerance: float
    passed: bool
    # indicator self-correlation E[F*F] next to E[F]; equal by idempotence
    self_correlation: tuple[float, float]


def compare_limit(
    a: tuple[complex, complex],
    sweep: Sequence[SweepRow],
    tolerance: float = 1e-3,
) -> ConvergenceReport:
    """Error table of a Born sweep against the two-point expectation.

    Reports |mean_n - E[chi_P1]| per size, the least-squares log-log decay
    exponent of the errors (None when they vanish identically), and the
    n -> infinity intercept of a linear fit of mean_n against 1/n.
    """
    if not sweep:
        raise ValueError("sweep table is empty")
    system = limit_system(a)
    target = expectation(system, CHI_P1)
    ns = tuple(r.n for r in sweep)
    means = np.array([r.mean for r in sweep])
    errors = tuple(float(abs(m - target)) for m in means)
    nonzero = [e for e in errors if e > 1e-15]
    if len(nonzero) == len(errors) and len(errors) >= 2:
        slope = np.polyfit(np.log(ns), np.log(errors), 1)[0]
        fitted_exponent = float(slope)
    else:
        fitted_exponent = None
    if len(ns) >= 2:
        intercept = float(np.polyfit(1.0 / np.array(ns, dtype=float), means, 1)[1])
    else:
        intercept = float(means[0])
    final_error = errors[-1]
    ef = expectation(system, CHI_P1 * CHI_P1)
    report = ConvergenceReport(
        ns=ns,
        errors=errors,
        limit_value=target,
        fitted_exponent=fitted_exponent,
        fitted_intercept=intercept,
        final_error=final_error,
        tolerance=tolerance,
        passed=bool(final_error <= tolerance),
        self_correlation=(ef, target),
    )
    # idempotence of the indicator is structural, not numerical
    assert report.self_correlation[0] == report.self_correlation[1]
    return report
