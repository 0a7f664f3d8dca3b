"""Two-point limit value and convergence comparison."""

import math

import pytest

from mingsim.dynamics import born_limit_sweep
from mingsim.errors import NotNormalizedError
from mingsim.thermolimit import ConvergenceReport, compare_limit

INV_SQRT2 = 1 / math.sqrt(2)


def _limit_value(a):
    return compare_limit(a, born_limit_sweep((1.0, 0.0), [5])).limit_value


def test_limit_weights():
    assert _limit_value((INV_SQRT2, INV_SQRT2)) == pytest.approx(0.5, abs=1e-15)
    assert _limit_value((1.0, 0.0)) == 0.0
    assert _limit_value((0.0, 1.0)) == 1.0


def test_limit_system_norm_gate():
    with pytest.raises(NotNormalizedError, match="deviates from 1 beyond 1e-9"):
        _limit_value((1.0, 1.0))


def test_compare_limit_exact_decay():
    a = (0.6, 0.8)
    rows = born_limit_sweep(a, [5, 7, 11, 13, 101, 1009])
    rep = compare_limit(a, rows, tolerance=1e-3)
    assert isinstance(rep, ConvergenceReport)
    for n, err in zip(rep.ns, rep.errors):
        assert err == pytest.approx(0.64 / n, abs=1e-12)
    assert rep.fitted_exponent == pytest.approx(-1.0, abs=1e-6)
    assert rep.fitted_intercept == pytest.approx(0.64, abs=1e-9)
    assert rep.final_error <= 1e-3
    assert rep.passed


def test_compare_limit_degenerate_branch():
    a = (1.0, 0.0)
    rows = born_limit_sweep(a, [5, 7, 11])
    rep = compare_limit(a, rows, tolerance=1e-12)
    assert rep.fitted_exponent is None
    assert rep.final_error == pytest.approx(0.0, abs=1e-15)
    assert rep.passed


def test_compare_limit_rejects_repeated_size():
    # a repeated n leaves both least-squares fits rank-deficient
    rows = born_limit_sweep((0.6, 0.8), [5, 5])
    with pytest.raises(ValueError, match="repeats a size"):
        compare_limit((0.6, 0.8), rows)


@pytest.mark.parametrize("tolerance", [-1.0, math.nan, math.inf])
def test_compare_limit_rejects_unusable_tolerance(tolerance):
    rows = born_limit_sweep((0.6, 0.8), [5, 7])
    with pytest.raises(ValueError, match=r"^tolerance must be finite and >= 0"):
        compare_limit((0.6, 0.8), rows, tolerance=tolerance)


# 1e200 is finite, but its |.|^2 overflows
@pytest.mark.parametrize("a", [(math.nan, 0.0), (math.inf, 0.0), (0.6, complex(0.0, math.nan)), (1e200, 0.0)])
def test_limit_system_rejects_non_finite_amplitudes(a):
    with pytest.raises(NotNormalizedError, match="not finite"):
        _limit_value(a)
