"""Branch evolution and Born-weight time averages."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mingsim.dynamics import (
    CombinedState,
    SweepRow,
    born_limit_sweep,
    cocked_start,
    evolve_combined,
    orbit_compressed_average,
    time_average_f,
)
from mingsim.acceptance import AMPLITUDES
from mingsim.bitlattice import decompose_orbits, shift_index
from mingsim.errors import NotNormalizedError, UnsupportedInitialStateError
from mingsim.ming import assemble_propagator
from mingsim.observable import CockedSet, PointerVariable, pointer_value, strict_cocked_index

INV_SQRT2 = 1 / math.sqrt(2)


def test_evolution_moves_only_branch_one():
    s = cocked_start(5, INV_SQRT2, INV_SQRT2)
    s1 = evolve_combined(s, 1)
    assert set(s1.amp0) == {3}
    assert set(s1.amp1) == {6}


def test_full_period_returns_to_start():
    s = cocked_start(5, INV_SQRT2, INV_SQRT2)
    s5 = evolve_combined(s, 5)
    assert set(s5.amp1) == {3}
    assert s5.amp1[3] == pytest.approx(s.amp1[3])


def test_interpolated_halves_compose_to_one_step():
    s = cocked_start(5, 0.6, 0.8)
    half = evolve_combined(evolve_combined(s, 0.5), 0.5)
    whole = evolve_combined(s, 1)
    dense_half = np.zeros(2**5, dtype=complex)
    dense_whole = np.zeros(2**5, dtype=complex)
    for i, c in half.amp1.items():
        dense_half[i] = c
    for i, c in whole.amp1.items():
        dense_whole[i] = c
    assert np.abs(dense_half - dense_whole).max() < 1e-9


def test_norm_is_conserved():
    s = cocked_start(7, 0.6, 0.8j)
    for t in (1, 3, 0.37, 2.25):
        assert evolve_combined(s, t).norm() == pytest.approx(1.0, abs=1e-12)


def test_combined_state_rejects_bad_norm():
    with pytest.raises(NotNormalizedError):
        CombinedState(n=5, a0=1.0, a1=1.0, amp0={3: 1.0}, amp1={3: 1.0})
    with pytest.raises(NotNormalizedError, match="both zero"):
        cocked_start(5, 0.0, 0.0)


def test_cocked_start_rejects_non_finite_amplitudes():
    with pytest.raises(NotNormalizedError, match="not finite"):
        cocked_start(5, math.nan, 0.0)
    with pytest.raises(NotNormalizedError, match="not finite"):
        cocked_start(5, math.inf, 1.0)
    # |a0|^2 overflows: the scale is inf, which must not leave a0 / inf = 0
    with pytest.raises(NotNormalizedError, match="not finite"):
        cocked_start(5, 1e200, 0.0)


def test_time_average_example_half_half():
    s = cocked_start(5, INV_SQRT2, INV_SQRT2)
    c = CockedSet(5, 0.0)
    res = time_average_f(s, c, horizon=5)
    assert res.mean == pytest.approx(0.4, abs=1e-12)
    per_step = [PointerVariable(c).value(evolve_combined(s, t)) for t in range(5)]
    assert per_step[0] == pytest.approx(0.0, abs=1e-14)
    for v in per_step[1:]:
        assert v == pytest.approx(0.5, abs=1e-12)


def test_time_average_detector_branch_only():
    s = cocked_start(7, 0.0, 1.0)
    res = time_average_f(s, CockedSet(7, 0.0), horizon=7)
    assert res.mean == pytest.approx(6 / 7, abs=1e-12)


def test_phase_of_amplitudes_is_irrelevant():
    c = CockedSet(5, 0.0)
    m1 = time_average_f(cocked_start(5, 0.6, 0.8), c, 5).mean
    m2 = time_average_f(cocked_start(5, 0.6 * 1j, 0.8 * np.exp(0.3j)), c, 5).mean
    assert m1 == pytest.approx(m2, abs=1e-14)


@pytest.mark.parametrize("n", [5, 7, 11, 13])
@pytest.mark.parametrize("eps", [0.0, 0.2])
def test_compressed_equals_dense(n, eps):
    s = cocked_start(n, 0.6, 0.8)
    c = CockedSet(n, eps)
    dense = time_average_f(s, c, horizon=n)
    fast = orbit_compressed_average(s, c, horizon=n)
    assert fast.mean == pytest.approx(dense.mean, abs=1e-12)


@pytest.mark.parametrize("n", [5, 7, 11, 13])
@pytest.mark.parametrize("eps", [0.0, 0.2])
def test_dense_propagator_reference(n, eps):
    # a dense 2**n vector stepped by the Fourier-phase propagator, read
    # through the cocked mask, against the per-step pointer values and the
    # means of both evaluators at every horizon 1..n
    step = assemble_propagator(decompose_orbits(n), 1)
    cocked = CockedSet(n, eps)
    mask = cocked.mask()
    for a0, a1 in AMPLITUDES:
        state = cocked_start(n, a0, a1)
        frozen = np.zeros(2**n, dtype=complex)
        moving = np.zeros(2**n, dtype=complex)
        for i, c in state.amp0.items():
            frozen[i] = c
        for i, c in state.amp1.items():
            moving[i] = c
        w0, w1 = abs(state.a0) ** 2, abs(state.a1) ** 2
        inside0 = np.sum(np.abs(frozen[mask]) ** 2)
        series = []
        for t in range(n):
            series.append(1.0 - w0 * inside0 - w1 * np.sum(np.abs(moving[mask]) ** 2))
            assert abs(series[t] - pointer_value(evolve_combined(state, t), cocked)) <= 1e-12
            moving = step.apply_dense(moving)
        for horizon in range(1, n + 1):
            mean = np.mean(series[:horizon])
            assert abs(time_average_f(state, cocked, horizon).mean - mean) <= 1e-12
            assert abs(orbit_compressed_average(state, cocked, horizon).mean - mean) <= 1e-12


def test_compressed_large_n():
    for n in (101, 1009):
        s = cocked_start(n, INV_SQRT2, INV_SQRT2)
        res = orbit_compressed_average(s, CockedSet(n, 0.0))
        assert res.mean == pytest.approx(0.5 * (1 - 1 / n), abs=1e-12)


def test_compressed_large_n_with_budget():
    # from the strict start, the moving branch is cocked for the 2b + 1
    # shifts within b sites of the start, b = floor(eps * n)
    n, eps = 100003, 0.2
    res = orbit_compressed_average(cocked_start(n, 0.6, 0.8), CockedSet(n, eps))
    b = math.floor(eps * n)
    assert res.mean == pytest.approx(0.64 * (1 - (2 * b + 1) / n), abs=1e-12)


# small primes and non-primes: the revisit count does not rely on n prime
REVISIT_SIZES = [2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13, 15, 16, 17, 21, 25, 31, 32, 33, 47, 60, 61]


def _stepped_mean(state, cocked, horizon):
    """Literal reference: one shift and one membership test per step."""
    ((i0, _),) = state.amp0.items()
    ((j, _),) = state.amp1.items()
    k0 = horizon if cocked.contains(i0) else 0
    k1 = 0
    for _ in range(horizon):
        k1 += cocked.contains(j)
        j = shift_index(j, state.n, 1)
    w0, w1 = abs(state.a0) ** 2, abs(state.a1) ** 2
    return 1.0 - w0 * (k0 / horizon) - w1 * (k1 / horizon)


@st.composite
def revisit_cases(draw):
    n = draw(st.sampled_from(REVISIT_SIZES))
    index = draw(st.integers(min_value=0, max_value=(1 << n) - 1))
    eps = draw(st.floats(min_value=0.0, max_value=0.5, exclude_max=True))
    horizon = draw(st.integers(min_value=1, max_value=3 * n + 2))
    return n, index, eps, horizon


@given(revisit_cases())
@settings(max_examples=300, deadline=None)
def test_compressed_matches_stepped_reference(case):
    n, index, eps, horizon = case
    cocked = CockedSet(n, eps)
    for i1 in (index, 0, (1 << n) - 1):
        state = CombinedState(n=n, a0=0.6, a1=0.8, amp0={index: 1.0}, amp1={i1: 1.0})
        fast = orbit_compressed_average(state, cocked, horizon)
        assert fast.mean == _stepped_mean(state, cocked, horizon)


def test_compressed_needs_basis_branches():
    s = CombinedState(n=5, a0=INV_SQRT2, a1=INV_SQRT2, amp0={3: 1.0}, amp1={3: INV_SQRT2, 6: INV_SQRT2})
    with pytest.raises(UnsupportedInitialStateError):
        orbit_compressed_average(s, CockedSet(5, 0.0))


def test_pointer_sees_both_branches():
    # f counts cocked weight in either branch
    s = cocked_start(5, INV_SQRT2, INV_SQRT2)
    pv = PointerVariable(CockedSet(5, 0.0))
    assert pv.value(s) == pytest.approx(0.0, abs=1e-14)
    s1 = evolve_combined(s, 1)
    assert pv.value(s1) == pytest.approx(0.5, abs=1e-12)


def test_born_sweep_error_table():
    rows = born_limit_sweep((INV_SQRT2, INV_SQRT2), [5, 7, 11, 13])
    assert [r.n for r in rows] == [5, 7, 11, 13]
    expected = [0.1, 1 / 14, 1 / 22, 1 / 26]
    for row, err in zip(rows, expected):
        assert isinstance(row, SweepRow)
        assert row.born_weight == pytest.approx(0.5, abs=1e-15)
        assert row.abs_error == pytest.approx(err, abs=1e-12)
        assert row.mean == pytest.approx(0.5 - err, abs=1e-12)


def test_born_sweep_paths_agree():
    # the sweep counts revisits; the stepped average is its reference
    for row in born_limit_sweep((0.6, 0.8), [5, 7]):
        stepped = time_average_f(cocked_start(row.n, 0.6, 0.8), CockedSet(row.n, 0.0), row.n)
        assert row.mean == pytest.approx(stepped.mean, abs=1e-12)


@pytest.mark.parametrize("path", ["dense", "auto"])
def test_born_sweep_rejects_retired_path(path):
    with pytest.raises(ValueError, match="unknown path"):
        born_limit_sweep((0.6, 0.8), [5], path=path)


def test_born_sweep_rejects_nonprime():
    from mingsim.errors import NonPrimeOrderError

    with pytest.raises(NonPrimeOrderError):
        born_limit_sweep((1.0, 0.0), [6])


def test_strict_start_is_cocked():
    s = cocked_start(11, 1.0, 0.0)
    assert set(s.amp0) == {strict_cocked_index(11)}
