"""Cocked set membership and the pointer variable."""

import math
import re
import tracemalloc

import numpy as np
import pytest

from mingsim.bitlattice import shift_index
from mingsim.dynamics import CombinedState
from mingsim.errors import NotNormalizedError
from mingsim.observable import (
    CockedSet,
    MacroscopicReport,
    PointerVariable,
    first_site_family,
    macroscopic_check,
    pointer_family,
    pointer_value,
    strict_cocked_index,
)


def idx(s: str) -> int:
    # digit string with site 0 leftmost, site k carrying bit k of the index
    return int(s[::-1], 2)


def test_strict_membership_n5():
    c = CockedSet(5, 0.0)
    assert c.contains(idx("11000"))
    assert not c.contains(idx("01100"))
    assert not c.contains(idx("11100"))
    assert strict_cocked_index(5) == idx("11000") == 3


def test_budget_counts_per_half():
    c = CockedSet(10, 0.1)
    assert c.budget == 1
    assert c.contains(idx("1111100000"))  # strict
    assert c.contains(idx("1111010000"))  # one flip in each half
    assert c.contains(idx("0111100000"))  # one flip left only
    assert not c.contains(idx("1111011000"))  # two right-half deviations
    assert not c.contains(idx("0011100000"))  # two left-half deviations


def test_budget_floor_guard():
    assert CockedSet(100, 0.29).budget == 29
    assert CockedSet(13, 13 ** -0.25).budget == 6


def test_epsilon_range():
    CockedSet(13, 13 ** -0.25)  # 0.527 is legal: the schedule exceeds 1/2 below n=17
    with pytest.raises(ValueError):
        CockedSet(13, 1.0)
    with pytest.raises(ValueError):
        CockedSet(13, -0.01)


def test_membership_large_n_strict():
    n = 1009
    c = CockedSet(n, 0.0)
    s = strict_cocked_index(n)
    assert c.contains(s)
    assert not c.contains(shift_index(s, n))


def test_mask_agrees_with_contains():
    # every dense n; the budget floor(eps * n) runs from 0 to past n / 2,
    # where every index is cocked
    for n in range(2, 14):
        for eps in (0.0, 0.1, 0.2, 0.25, 0.4, 0.55, 0.99):
            c = CockedSet(n, eps)
            mask = c.mask()
            assert mask.shape == (2**n,) and mask.dtype == bool
            assert mask.tolist() == [c.contains(i) for i in range(2**n)], (n, eps)


def test_pointer_on_basis_states():
    c = CockedSet(6, 0.0)
    pv = PointerVariable(c)
    for i in range(2**6):
        v = np.zeros(2**6)
        v[i] = 1.0
        expected = 0.0 if c.contains(i) else 1.0
        assert pv.value(v) == pytest.approx(expected)


def test_pointer_scale_invariance_and_norm_gate():
    rng = np.random.default_rng(2)
    v = rng.normal(size=2**6) + 1j * rng.normal(size=2**6)
    v /= np.linalg.norm(v)
    c = CockedSet(6, 0.2)
    base = pointer_value(v, c)
    assert PointerVariable(c).value((3 - 4j) * v, normalize=True) == pytest.approx(base, abs=1e-12)
    with pytest.raises(NotNormalizedError):
        pointer_value(1.1 * v, c)
    with pytest.raises(NotNormalizedError):
        PointerVariable(c).value(np.zeros(2**6), normalize=True)


def test_pointer_on_sparse_mapping():
    c = CockedSet(5, 0.0)
    amps = {3: np.sqrt(0.25), 6: np.sqrt(0.75)}
    assert pointer_value(amps, c) == pytest.approx(0.75)


def test_shift_conjugation_exhaustive():
    # f with cocked set C on a shifted state equals f with the shift-preimage
    # of C on the original state
    for n, eps in ((5, 0.0), (7, 0.15)):
        c = CockedSet(n, eps)
        rng = np.random.default_rng(n)
        v = rng.normal(size=2**n) + 1j * rng.normal(size=2**n)
        v /= np.linalg.norm(v)
        w = np.empty_like(v)
        for i in range(2**n):
            w[shift_index(i, n)] = v[i]
        lhs = pointer_value(w, c)
        preimage = sum(
            abs(v[j]) ** 2 for j in range(2**n) if c.contains(shift_index(j, n))
        )
        assert lhs == pytest.approx(1.0 - preimage, abs=1e-12)


def random_product_prefix(n0: int, rng) -> np.ndarray:
    state = np.array([1.0 + 0j])
    for _ in range(n0):
        site = rng.normal(size=2) + 1j * rng.normal(size=2)
        site /= np.linalg.norm(site)
        state = np.kron(site, state)
    return state


def test_macroscopic_identical_prefixes_spread_zero():
    rng = np.random.default_rng(8)
    p = random_product_prefix(4, rng)
    fam = pointer_family(lambda n: n ** -0.25)
    rep = macroscopic_check(fam, [p, p.copy()], lambda k: np.array([1.0, 0.0]), 13, 0.05)
    assert isinstance(rep, MacroscopicReport)
    assert rep.spreads.max() == 0.0
    assert rep.passed


def test_macroscopic_pointer_passes_local_fails():
    a = random_product_prefix(6, np.random.default_rng(19))
    b = random_product_prefix(6, np.random.default_rng(20))
    tails = lambda k: np.array([1.0, 0.0])
    fam = pointer_family(lambda n: n ** -0.25)
    rep = macroscopic_check(fam, [a, b], tails, 13, 0.05)
    assert rep.passed
    loc = macroscopic_check(first_site_family, [a, b], tails, 13, 0.05)
    assert not loc.passed
    assert loc.final_spread > 0.05


def test_macroscopic_trend_step_of_exactly_half_the_tolerance_passes():
    # prefix b's value steps from 0 to tolerance / 2 + 1e-15 between the two
    # sizes, prefix a's stays 0, so the spread grows by exactly the trend
    # slack: that step passes, one ulp more fails
    tolerance = 1.0
    prefixes = [np.array([1.0, 0.0]), np.array([0.0, 1.0])]
    for step, passed in [(tolerance / 2 + 1e-15, True), (np.nextafter(tolerance / 2 + 1e-15, 1.0), False)]:
        family = lambda size, state: step if size == 3 and state[1] == 1.0 else 0.0
        rep = macroscopic_check(family, prefixes, lambda k: np.array([1.0, 0.0]), 3, tolerance)
        assert rep.spreads.tolist() == [0.0, step]
        assert rep.final_spread <= tolerance
        assert rep.passed is passed


def test_pointer_weights_each_branch_norm_by_its_amplitude():
    # branch mappings off unit norm: |a0|^2 |amp0|^2 + |a1|^2 |amp1|^2 =
    # 0.5 * 1.5 + 0.5 * 0.5 = 1, and only branch 0 sits on the cocked set,
    # so f = 1 - 0.75 / 1
    a = complex(math.sqrt(0.5))
    c = CockedSet(5, 0.0)
    cocked, off = strict_cocked_index(5), idx("00100")
    assert c.contains(cocked) and not c.contains(off)
    state = CombinedState(n=5, a0=a, a1=a, amp0={cocked: math.sqrt(1.5)}, amp1={off: math.sqrt(0.5)})
    for normalize in (False, True):
        assert PointerVariable(c).value(state, normalize=normalize) == pytest.approx(0.25, rel=1e-12)


def test_macroscopic_states_are_kron_products_bit_for_bit():
    # the reference extends the prefix with np.kron, the code under test does not
    rng = np.random.default_rng(31)
    prefix = random_product_prefix(3, rng)
    sites = [random_product_prefix(1, rng) for _ in range(9)]
    seen = []
    macroscopic_check(lambda size, state: seen.append(state) or 0.0, [prefix], lambda k: sites[k - 3], 12, 0.05)
    state = prefix
    for size, got in zip(range(4, 13), seen, strict=True):
        state = np.kron(sites[size - 4], state)
        assert got.tobytes() == state.tobytes()


def test_macroscopic_rejects_bad_tails():
    rng = np.random.default_rng(4)
    p = random_product_prefix(3, rng)
    fam = pointer_family(lambda n: 0.0)
    with pytest.raises(NotNormalizedError):
        macroscopic_check(fam, [p], lambda k: np.array([1.0, 1.0]), 6, 0.05)
    # a NaN tail fails the norm gate, whatever the family
    for family in (fam, first_site_family):
        with pytest.raises(NotNormalizedError, match="norm one"):
            macroscopic_check(family, [p], lambda k: np.array([np.nan, 0.0]), 6, 0.05)
    # a non-finite prefix is rejected before np.kron spreads it as NaN
    for bad in (np.inf, np.nan):
        q = p.copy()
        q[0] = bad
        with pytest.raises(ValueError, match="prefix 1 holds a non-finite amplitude"):
            macroscopic_check(first_site_family, [p, q], lambda k: np.array([1.0, 0.0]), 6, 0.05)
    with pytest.raises(NotNormalizedError, match="not finite"):
        first_site_family(3, np.array([np.inf, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0]))
    # so is a tolerance that no spread can be compared with
    for tolerance in (-1.0, np.nan, np.inf):
        with pytest.raises(ValueError, match=r"^tolerance must be finite and >= 0"):
            macroscopic_check(first_site_family, [p], lambda k: np.array([1.0, 0.0]), 6, tolerance)


@pytest.mark.parametrize("re", [float("nan"), float("inf"), 1e200])  # 1e200: |.|^2 overflows
def test_pointer_rejects_non_finite_norm(re):
    c = CockedSet(5, 0.0)
    for normalize in (False, True):
        with pytest.raises(NotNormalizedError, match="not finite"):
            PointerVariable(c).value({3: complex(re, 0.0)}, normalize=normalize)


def test_pointer_rejects_mapping_index_out_of_range():
    # a combined state refuses the same indices with the same message
    c = CockedSet(5, 0.0)
    for index in (-1, 2**5):
        message = "^" + re.escape(f"basis index {index} out of range for n=5") + "$"
        with pytest.raises(ValueError, match=message):
            pointer_value({index: 1.0}, c)
        with pytest.raises(ValueError, match=message):
            CombinedState(n=5, a0=1.0, a1=0.0, amp0={index: 1.0}, amp1={3: 1.0})


def test_membership_memory_does_not_depend_on_n():
    # an n-bit mask at n = 10**9 takes over 100 MB; the index and its checks
    # take a few bytes
    tracemalloc.start()
    try:
        assert pointer_value({0: 1 + 0j}, CockedSet(10**9, 0.0)) == 1.0
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1_000_000
