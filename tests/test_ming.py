"""Generator blocks: construction, exponential identity, propagator."""

import math
import re

import numpy as np
import pytest
import scipy.linalg
from hypothesis import given, settings
from hypothesis import strategies as st

from mingsim import dynamics
from mingsim.bitlattice import decompose_orbits
from mingsim.ming import (
    MingBlock,
    assemble_propagator,
    build_block,
    offdiagonal_approximation_error,
    verify_exponential,
)


def relabel(v: np.ndarray, n: int, t: int) -> np.ndarray:
    # the t-step digit shift of a dense vector, written out independently of
    # the library: index i moves to i * 2**t mod (2**n - 1), 0 and 2**n - 1 stay
    modulus = 2**n - 1
    out = v.copy()
    for i in range(1, modulus):
        out[(i << t) % modulus] = v[i]
    return out


def cycle_permutation(n: int) -> np.ndarray:
    # forward cyclic permutation on the ordered orbit basis, e_j -> e_{j+1},
    # as a dense matrix: the reference the exponential identity targets
    p = np.zeros((n, n))
    p[(np.arange(n) + 1) % n, np.arange(n)] = 1.0
    return p


def literal_sum_block(n: int, h: float) -> np.ndarray:
    # defining double sum, kept deliberately naive as an oracle
    omega = np.exp(2j * np.pi / n)
    a = np.zeros((n, n), dtype=complex)
    for i in range(n):
        for j in range(n):
            a[i, j] = -(1j * h / n**2) * sum(k * omega ** (k * (i - j)) for k in range(n))
    return a


@pytest.mark.parametrize("n", [2, 3, 5, 7])
def test_block_matches_literal_sum(n):
    h = 0.31
    block = build_block(n, h)
    assert np.abs(block.entries - literal_sum_block(n, h)).max() < 1e-12


def test_zero_block_for_fixed_subspace():
    block = build_block(1, 2.0)
    assert block.entries.shape == (1, 1)
    assert block.entries[0, 0] == 0


def test_diagonal_magnitude_n2():
    h = 0.7
    block = build_block(2, h)
    assert abs(block.entries[0, 0]) == pytest.approx(h / 4, abs=1e-15)


@pytest.mark.parametrize("n", [1, 2, 3, 5, 8, 13])
def test_skew_hermitian(n):
    a = build_block(n, 1.3).entries
    assert np.abs(a + a.conj().T).max() < 1e-14


def test_diagonal_value():
    # -i h (n-1) / (2n) on the diagonal
    for n in (2, 5, 11):
        h = 0.9
        a = build_block(n, h).entries
        assert np.allclose(np.diag(a), -1j * h * (n - 1) / (2 * n), atol=1e-15)


@pytest.mark.parametrize("n", [3, 5, 7])
def test_fourier_eigenvalues(n):
    # mode j carries eigenvalue -i h j / n
    h = 1.7
    a = build_block(n, h).entries
    for j in range(n):
        v = np.exp(2j * np.pi * j * np.arange(n) / n) / np.sqrt(n)
        assert np.abs(a @ v - (-1j * h * j / n) * v).max() < 1e-12


@pytest.mark.parametrize("n", [1, 2, 3, 5, 7, 11, 13, 101, 401])
def test_exponential_identity(n):
    # at 4e-308, 2 pi / h is finite but 3 pi / h is not
    for h in (0.618, 1e-300, 4e-308, 1e300):
        assert verify_exponential(build_block(n, h)) <= 1e-9


def test_exponential_identity_h_independent():
    for h in (0.1, 1.0, 17.0):
        assert verify_exponential(build_block(5, h)) <= 1e-9


def test_exponential_sees_upper_triangle_defect():
    # the eigensolver reads one triangle only; a defect in the other one
    # must still show, through the Hermitian check of (2 pi i / h) A
    block = build_block(5, 0.618)
    entries = block.entries.copy()
    entries[1, 3] += 1e-6
    assert verify_exponential(MingBlock(n=5, h=0.618, entries=entries)) > 1e-9


def _pair_1_3(entries, n):
    entries[1, 3] += 1e-6
    entries[3, 1] -= 1e-6


def _mirrored_diagonal(entries, n):
    # invisible to the exponential too: the real reduction drops this part of G
    entries[1, 1] += 1e-6j
    entries[n - 1, n - 1] -= 1e-6j


@pytest.mark.parametrize("n", [5, 101])
@pytest.mark.parametrize("defect", [_pair_1_3, _mirrored_diagonal])
def test_exponential_sees_defect_that_keeps_the_block_skew_hermitian(n, defect):
    # A stays skew-Hermitian but is no longer circulant; the reflection
    # check conj(G) = J G J sees it
    entries = build_block(n, 0.618).entries.copy()
    defect(entries, n)
    assert verify_exponential(MingBlock(n=n, h=0.618, entries=entries)) > 1e-9


@pytest.mark.parametrize("n", [5, 101])
def test_exponential_sees_defect_in_the_triangle_eigh_skips(n):
    # G + Q E Q^H with E real and strictly upper triangular still meets the
    # reflection condition and leaves the lower triangle of T, which eigh
    # reads, unchanged; only the Hermitian check sees it
    h = 0.618
    flip = -np.arange(n) % n
    q = (np.eye(n) + 1j * np.eye(n)[flip]) / np.sqrt(2)
    e = np.zeros((n, n))
    e[1, 3] = 1e-6
    entries = build_block(n, h).entries + (h / (2j * np.pi)) * (q @ e @ q.conj().T)
    assert verify_exponential(MingBlock(n=n, h=h, entries=entries)) > 1e-9


@given(st.data())
@settings(max_examples=200, deadline=None, derandomize=True)
def test_exponential_sees_every_single_entry_defect(data):
    n = data.draw(st.integers(1, 32), label="n")
    i = data.draw(st.integers(0, n - 1), label="i")
    j = data.draw(st.integers(0, n - 1), label="j")
    phase = data.draw(st.floats(0.0, 2 * np.pi), label="phase")
    entries = build_block(n, 0.618).entries.copy()
    entries[i, j] += 1e-6 * np.exp(1j * phase)
    assert verify_exponential(MingBlock(n=n, h=0.618, entries=entries)) > 1e-9


@pytest.mark.parametrize("n", [2, 3, 5, 8, 13, 64])
def test_exponential_residual_matches_expm_off_the_circulants(n):
    # a skew-Hermitian, reflection-symmetric block that is not circulant: the
    # real reduction still holds, so the residual is a dense expm's against P
    rng = np.random.default_rng(n)
    h = 0.9
    m = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
    g = (m + m.conj().T) / 2
    flip = -np.arange(n) % n
    g = (g + g[np.ix_(flip, flip)].conj()) / 2  # Hermitian and conj(G) = J G J
    entries = g * (h / (2j * np.pi))
    assert np.abs(entries - np.roll(entries, (1, 1), (0, 1))).max() > 0.01
    expected = max(
        np.abs(scipy.linalg.expm((2 * np.pi / h) * entries) - cycle_permutation(n)).max(),
        np.abs(g - g.conj().T).max(),
        np.abs(g.conj() - g[np.ix_(flip, flip)]).max(),
    )
    assert expected > 0.1
    assert verify_exponential(MingBlock(n=n, h=h, entries=entries)) == pytest.approx(expected, abs=1e-12)


def test_offdiagonal_magnitudes_near_diagonal():
    # desk-size check of the h/(2 pi s) asymptotics used by the acceptance suite
    block = build_block(101, 1.0)
    assert offdiagonal_approximation_error(block) <= 0.05
    # and it really is an O((s/n)^2) effect, not a near-miss
    assert offdiagonal_approximation_error(block) <= 0.005


def test_offdiagonal_error_needs_a_block_wider_than_its_band():
    # the band is 1 <= |i - j| <= 3: a 3 x 3 block has no entry at offset 3
    # (an IndexError if the guard let it through), a 4 x 4 block has one
    with pytest.raises(ValueError, match=r"^block dimension must exceed the band 3, got 3$"):
        offdiagonal_approximation_error(build_block(3, 1.0))
    assert math.isfinite(offdiagonal_approximation_error(build_block(4, 1.0)))


def test_propagator_integer_matches_digit_shift():
    # at integer t the Fourier phases reproduce the relabeling to rounding
    rng = np.random.default_rng(3)
    for n in (2, 3, 5, 7, 11, 13):
        dec = decompose_orbits(n)
        v = rng.normal(size=2**n) + 1j * rng.normal(size=2**n)
        for t in (1, 2, n - 1):
            w = assemble_propagator(dec, t).apply_dense(v)
            assert np.abs(w - relabel(v, n, t)).max() < 1e-12


def test_propagator_sparse_matches_dense():
    # evolve_combined relabels integer t exactly; the dense propagator agrees to rounding
    amps = {1: 0.5 + 0.1j, 9: -0.25j, 127: 1.0, 0: 0.125}
    norm = math.sqrt(sum(abs(c) ** 2 for c in amps.values()))
    state = dynamics.CombinedState(n=7, a0=0.6, a1=0.8, amp0={0: 1.0}, amp1={i: c / norm for i, c in amps.items()})
    moved = dynamics.evolve_combined(state, 3).amp1
    dense = np.zeros(2**7, dtype=complex)
    for i, a in state.amp1.items():
        dense[i] = a
    expected = relabel(dense, 7, 3)
    assert dict(moved) == {i: expected[i] for i in np.flatnonzero(expected).tolist()}
    dense_moved = assemble_propagator(decompose_orbits(7), 3).apply_dense(dense)
    assert np.abs(dense_moved - expected).max() < 1e-12


def test_interpolated_reduces_to_permutation_at_integer_t():
    dec = decompose_orbits(5)
    rng = np.random.default_rng(11)
    v = rng.normal(size=2**5) + 1j * rng.normal(size=2**5)
    half = assemble_propagator(dec, 0.5)
    for t in (0, 1, 2, 4, 5, 9):
        interp = assemble_propagator(dec, t - 0.5).apply_dense(half.apply_dense(v))
        assert np.abs(relabel(v, 5, t) - interp).max() < 1e-12


@given(
    st.sampled_from([2, 3, 5, 7, 11]),
    st.floats(-3.0, 3.0).filter(lambda t: not t.is_integer()),
    st.floats(0.1, 10.0),
)
@settings(max_examples=60, deadline=None)
def test_interpolated_propagator_is_block_exponential(n, t, h):
    # on each orbit row of `members` the propagator is exp((2 pi t / h) A),
    # taken from a general dense matrix exponential of the block
    dec = decompose_orbits(n)
    prop = assemble_propagator(dec, t)
    expected = scipy.linalg.expm((2 * np.pi * t / h) * build_block(n, h).entries)
    for m in range(n):
        # orbits are disjoint, so one dense vector probes basis column m of every row
        v = np.zeros(2**n, dtype=complex)
        v[dec.members[:, m]] = 1.0
        column = prop.apply_dense(v)[dec.members]
        assert np.abs(column - expected[:, m]).max() < 1e-12


def test_interpolated_group_law_and_unitarity():
    dec = decompose_orbits(5)
    rng = np.random.default_rng(5)
    v = rng.normal(size=2**5) + 1j * rng.normal(size=2**5)
    v /= np.linalg.norm(v)
    t1, t2 = 0.37, 1.91
    u1 = assemble_propagator(dec, t1)
    u2 = assemble_propagator(dec, t2)
    u12 = assemble_propagator(dec, t1 + t2)
    w = u1.apply_dense(u2.apply_dense(v))
    assert np.abs(w - u12.apply_dense(v)).max() < 1e-9
    assert abs(np.linalg.norm(w) - 1.0) < 1e-12


def test_fixed_subspace_untouched():
    dec = decompose_orbits(3)
    v = np.zeros(8, dtype=complex)
    v[0] = 0.6
    v[7] = 0.8j
    for t in (1, 0.5, 2.25):
        w = assemble_propagator(dec, t).apply_dense(v)
        assert w[0] == pytest.approx(0.6)
        assert w[7] == pytest.approx(0.8j)


def test_full_period_is_identity():
    dec = decompose_orbits(7)
    rng = np.random.default_rng(23)
    v = rng.normal(size=2**7) + 1j * rng.normal(size=2**7)
    w = assemble_propagator(dec, 7).apply_dense(v)
    assert np.abs(w - v).max() < 1e-12


@pytest.mark.parametrize(
    "h, reason",
    [
        (math.nan, "must be finite and > 0"),
        (math.inf, "must be finite and > 0"),
        (0.0, "must be finite and > 0"),
        (-1.0, "must be finite and > 0"),
        (5e-324, "is too small: 2 pi / h is not finite"),
        (1e-310, "is too small: 2 pi / h is not finite"),
        (3e-308, "is too small: 2 pi / h is not finite"),
        (1e308, "is too large: the block entries overflow"),
    ],
)
def test_build_block_rejects_unusable_h(h, reason):
    with pytest.raises(ValueError, match=r"^h\b.*" + re.escape(reason)):
        build_block(5, h)


def test_entries_are_readonly():
    block = build_block(3, 1.0)
    assert isinstance(block, MingBlock)
    with pytest.raises(ValueError):
        block.entries[0, 0] = 0


def test_cycle_permutation_layout():
    p = cycle_permutation(3)
    # row 0 is (0, 0, 1): the last basis vector advances to position 0
    assert p[0].tolist() == [0.0, 0.0, 1.0]
    assert p[1].tolist() == [1.0, 0.0, 0.0]
