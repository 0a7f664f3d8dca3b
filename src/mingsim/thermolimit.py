"""Two-point limit of the pointer statistics.

In the infinite-size limit the pointer dynamics collapses onto a two-point
probability space {P0, P1}: P0 carries the weight of the branch that keeps
pointing at cocked, P1 the weight of the branch that fired.  The weights
are the Born weights |a0|^2 and |a1|^2 of the initial particle state.

The limit value of the pointer average is the expectation of the
indicator of P1, which is the weight w1.  `compare_limit` quantifies how
the finite-size time averages approach it: the error of the strict cocked
start is exactly |a1|^2 / n, so the fitted log-log decay exponent sits
at -1.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .dynamics import NORM_RTOL, SweepRow
from .errors import NotNormalizedError
from .observable import sq_modulus


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


def compare_limit(
    a: tuple[complex, complex],
    sweep: Sequence[SweepRow],
    tolerance: float = 1e-3,
) -> ConvergenceReport:
    """Error table of a Born sweep against the two-point expectation.

    Reports |mean_n - w1| per size (w1 = E[chi_P1], the weight of P1), the
    least-squares log-log decay exponent of the errors (None when they
    vanish identically), and the n -> infinity intercept of a linear fit of
    mean_n against 1/n.  Each size may appear once: a repeated size would
    leave both fits rank-deficient.  The amplitudes must be normalized:
    |a0|^2 + |a1|^2 non-finite or off 1 by more than NORM_RTOL raises
    NotNormalizedError.
    """
    if not sweep:
        raise ValueError("sweep table is empty")
    a0, a1 = a
    total = sq_modulus(a0) + sq_modulus(a1)
    if not math.isfinite(total):
        raise NotNormalizedError(f"|a0|^2 + |a1|^2 = {total!r} is not finite")
    if abs(total - 1.0) > NORM_RTOL:
        raise NotNormalizedError(
            f"|a0|^2 + |a1|^2 = {total!r} deviates from 1 beyond 1e-9"
        )
    w1 = abs(a1) ** 2 / total
    ns = tuple(r.n for r in sweep)
    if len(set(ns)) != len(ns):
        raise ValueError(f"sweep repeats a size: n = {list(ns)}")
    means = np.array([r.mean for r in sweep])
    errors = tuple(float(abs(m - w1)) for m in means)
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
    return ConvergenceReport(
        ns=ns,
        errors=errors,
        limit_value=w1,
        fitted_exponent=fitted_exponent,
        fitted_intercept=intercept,
        final_error=final_error,
        tolerance=tolerance,
        passed=bool(final_error <= tolerance),
    )
