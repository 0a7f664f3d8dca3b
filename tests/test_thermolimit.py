"""Two-point limit system and convergence comparison."""

import math

import pytest

from mingsim.dynamics import born_limit_sweep
from mingsim.errors import NotNormalizedError
from mingsim.thermolimit import (
    ConvergenceReport,
    TwoPointSystem,
    compare_limit,
    limit_system,
)

INV_SQRT2 = 1 / math.sqrt(2)


def test_limit_weights():
    sys = limit_system((INV_SQRT2, INV_SQRT2))
    assert sys.w0 == pytest.approx(0.5, abs=1e-15)
    assert sys.w1 == pytest.approx(0.5, abs=1e-15)
    sys = limit_system((1.0, 0.0))
    assert (sys.w0, sys.w1) == (1.0, 0.0)


def test_limit_system_norm_gate():
    with pytest.raises(NotNormalizedError):
        limit_system((1.0, 1.0))


def test_two_point_invariants():
    with pytest.raises(ValueError):
        TwoPointSystem(0.7, 0.7)
    with pytest.raises(ValueError):
        TwoPointSystem(-0.1, 1.1)


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


@pytest.mark.parametrize("a", [(math.nan, 0.0), (math.inf, 0.0), (0.6, complex(0.0, math.nan))])
def test_limit_system_rejects_non_finite_amplitudes(a):
    with pytest.raises(NotNormalizedError, match="not finite"):
        limit_system(a)


@pytest.mark.parametrize("w", [(math.nan, math.nan), (math.nan, 1.0), (1.0, math.inf)])
def test_two_point_rejects_non_finite_weights(w):
    with pytest.raises(ValueError, match="finite"):
        TwoPointSystem(*w)
