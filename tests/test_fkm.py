"""Harmonic ring: modes, Gibbs sampling, autocorrelations, OU fit.

Stochastic assertions use fixed seeds with thresholds frozen from pilot
runs; the pilot value is noted next to each.
"""

import copy
import functools
import hashlib
import math
import os
import subprocess
import sys
import threading
import tracemalloc
import warnings
from pathlib import Path

import numpy as np
import pytest
import scipy.optimize

from mingsim import acceptance, fkm
from mingsim.errors import (
    DegenerateFitError,
    IndefiniteFormError,
    ZeroModeError,
)

TAU = np.linspace(0.0, 20.0, 200)


def stiffness_matrix(chain):
    """The dense n x n stiffness circulant: the tests' reference for the modes and the energy."""
    n = chain.n
    k = np.zeros((n, n))
    idx = np.arange(n)
    k[idx, idx] = chain.omega0_sq + 2 * chain.kappa
    k[idx, (idx + 1) % n] -= chain.kappa
    k[idx, (idx - 1) % n] -= chain.kappa
    return k


def energy(stiffness, x):
    """H = (p.p + q^T K q) / 2, from the site-basis stiffness matrix K."""
    return 0.5 * (x.p @ x.p + x.q @ stiffness @ x.q)


def traced_peak(call):
    """Peak bytes that tracemalloc sees allocated while call() runs."""
    tracemalloc.start()
    try:
        call()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


# ---------------------------------------------------------------------------
# chain and modes
# ---------------------------------------------------------------------------


def test_chain_validation():
    with pytest.raises(ValueError):
        fkm.HarmonicChain(n=0, beta=1.0)
    with pytest.raises(ValueError):
        fkm.HarmonicChain(n=8, beta=0.0)
    with pytest.raises(ValueError):
        fkm.HarmonicChain(n=8, beta=-2.0)
    with pytest.raises(ValueError, match=r"beta=5e-324 is too small: 1 / beta is not finite"):
        fkm.HarmonicChain(n=8, beta=5e-324)
    for field in ("beta", "omega0_sq", "kappa"):
        for bad in (math.nan, math.inf, -math.inf):
            with pytest.raises(ValueError, match=f"{field} must be finite"):
                fkm.HarmonicChain(n=8, **{"beta": 1.0, field: bad})


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
def test_phase_point_rejects_non_finite(bad):
    with pytest.raises(ValueError, match="finite"):
        fkm.PhasePoint(q=[bad, 0.0], p=[0.0, 0.0])
    with pytest.raises(ValueError, match="finite"):
        fkm.PhasePoint(q=[0.0, 0.0], p=[0.0, bad])


def test_scaled_ring_schedule():
    chain = fkm.scaled_ring(64, beta=2.0, kappa0=3.0)
    assert chain.kappa == pytest.approx(3.0 * 64**2 / math.pi**2, rel=1e-15)
    assert chain.omega0_sq == 1.0
    assert chain.beta == 2.0


def test_uncoupled_chain_all_modes_equal():
    chain = fkm.HarmonicChain(n=6, beta=1.0, omega0_sq=4.0, kappa=0.0)
    modes = fkm.normal_modes(chain)
    assert np.allclose(modes.frequencies, 2.0, atol=1e-14)


def test_single_site_chain():
    chain = fkm.HarmonicChain(n=1, beta=1.0, omega0_sq=9.0)
    modes = fkm.normal_modes(chain)
    assert modes.frequencies.shape == (1,)
    assert modes.frequencies[0] == pytest.approx(3.0, abs=1e-14)


@pytest.mark.parametrize("n", [2, 3, 8, 9])
def test_modes_orthonormal_and_reconstruct(n):
    chain = fkm.HarmonicChain(n=n, beta=1.0, omega0_sq=1.0, kappa=2.5)
    modes = fkm.normal_modes(chain)
    v = modes.vectors
    assert np.abs(v.T @ v - np.eye(n)).max() < 1e-12
    k = stiffness_matrix(chain)
    recon = v @ np.diag(modes.frequencies**2) @ v.T
    assert np.abs(recon - k).max() < 1e-10


DENSE_RING = fkm.HarmonicChain(n=8, beta=1.0, omega0_sq=1.0, kappa=1.7)


def _dispersion_matches_dense_eigensolver(chain):
    k = np.arange(chain.n)
    expected = np.sort(chain.omega0_sq + 4 * chain.kappa * np.sin(np.pi * k / chain.n) ** 2)
    dense = np.linalg.eigvalsh(stiffness_matrix(chain))
    # the K distinct frequencies, each once per DFT index k that shares it
    every_k = np.sort(fkm.dft_frequencies(chain)[np.minimum(k, chain.n - k)] ** 2)
    return bool(
        np.allclose(every_k, expected, atol=1e-12)
        and np.allclose(every_k, dense, atol=1e-10)
        and np.allclose(np.sort(fkm.normal_modes(chain).frequencies ** 2), dense, atol=1e-10)
    )


def test_dispersion_matches_dense_eigensolver():
    assert _dispersion_matches_dense_eigensolver(DENSE_RING)


def test_indefinite_form_rejected():
    chain = fkm.HarmonicChain(n=8, beta=1.0, omega0_sq=1.0, kappa=-1.0)
    with pytest.raises(IndefiniteFormError):
        fkm.normal_modes(chain)


def _per_mode_columns(chain):
    """Reference mode table: one column per mode, stacked at the end, each
    cos/sin pair evaluated at the exact phases 2 pi ((k j) mod n) / n."""
    n = chain.n
    w_dft = fkm.dft_frequencies(chain)
    j = np.arange(n)
    cols = [np.full(n, 1.0 / math.sqrt(n))]
    freqs = [w_dft[0]]
    for k in range(1, (n + 1) // 2):
        theta = 2.0 * np.pi * (k * j % n) / n
        cols.append(np.sqrt(2.0 / n) * np.cos(theta))
        freqs.append(w_dft[k])
        cols.append(np.sqrt(2.0 / n) * np.sin(theta))
        freqs.append(w_dft[k])
    if n % 2 == 0:
        cols.append(np.where(j % 2 == 0, 1.0, -1.0) / math.sqrt(n))
        freqs.append(w_dft[n // 2])
    return np.array(freqs), np.column_stack(cols)


# 2048 spans sixteen whole blocks of 128 rows; 2049 folds a lone row into its last
@pytest.mark.parametrize("n", [1, 2, 3, 7, 8, 255, 256, 2048, 2049])
def test_normal_modes_match_per_mode_columns(n):
    chain = fkm.HarmonicChain(n=n, beta=1.0, kappa=0.3)
    if n > 2000:
        rows = [hi - lo for lo, hi in fkm._row_blocks(n, 2 * ((n + 1) // 2 - 1), fkm._BLOCK_VALUES)]
        assert rows == ([128] * 16 if n == 2048 else [128] * 15 + [129])
    frequencies, vectors = _per_mode_columns(chain)
    modes = fkm.normal_modes(chain)
    assert np.array_equal(modes.frequencies, frequencies)
    assert np.array_equal(modes.vectors, vectors)
    assert modes.vectors.flags.c_contiguous


@pytest.mark.parametrize("n", [255, 256, 1024, 4096])
def test_normal_modes_orthonormal_to_rounding(n):
    # Bound 1e-14: the exact phases read at most 2.8e-15 at these sizes, the
    # table evaluated at the angles 2 pi k j / n 1.9e-14 at n = 255 and
    # 2.6e-13 at n = 4096.  V^T V is symmetric, so each block of columns is
    # checked against the rows up to its own end only
    v = fkm.normal_modes(fkm.HarmonicChain(n=n, beta=1.0, kappa=0.3)).vectors
    worst = 0.0
    for lo in range(0, n, 1024):
        hi = min(lo + 1024, n)
        gram = v[:, :hi].T @ v[:, lo:hi]
        gram[np.arange(lo, hi), np.arange(hi - lo)] -= 1.0
        worst = max(worst, np.abs(gram).max())
    assert worst <= 1e-14, f"max|V^T V - I| = {worst:.2e}"


def test_normal_modes_project_as_the_scaled_rfft():
    # V^T x is (X_0 / sqrt n, sqrt(2/n) (Re X_k, -Im X_k) for each pair,
    # X_{n/2} / sqrt n) with X = rfft(x).  Bound 1e-13: the exact phases
    # read 8.0e-15, the table evaluated at the angles 2 pi k j / n 2.0e-12
    n = 4096
    x = np.random.default_rng(0).standard_normal(n)
    spectrum = np.fft.rfft(x)
    pairs = spectrum[1 : n // 2]
    expected = np.empty(n)
    expected[0] = spectrum[0].real / math.sqrt(n)
    expected[1 : n - 1 : 2] = math.sqrt(2.0 / n) * pairs.real
    expected[2 : n - 1 : 2] = -math.sqrt(2.0 / n) * pairs.imag
    expected[n - 1] = spectrum[n // 2].real / math.sqrt(n)
    projected = fkm.normal_modes(fkm.HarmonicChain(n=n, beta=1.0, kappa=0.3)).vectors.T @ x
    assert np.abs(projected - expected).max() <= 1e-13


# ---------------------------------------------------------------------------
# analytic phase curve
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("beta", [1.0, 3.0])
def test_phase_curve_at_zero_is_inverse_beta_exactly(beta):
    chain = fkm.scaled_ring(16, beta=beta)
    curve = fkm.phase_autocorrelation(chain, TAU)
    assert curve.values[0] == 1.0 / beta
    assert curve.kind == "phase-analytic"


@pytest.mark.parametrize("n", [1, 2, 3, 8, 9, 256])
def test_phase_curve_matches_sum_over_every_dft_index(n):
    # the paired sum against the plain mean over k = 0..n-1, each omega_k
    # from the dispersion formula
    chain = fkm.scaled_ring(n, beta=2.5)
    curve = fkm.phase_autocorrelation(chain, TAU)
    w = np.sqrt(chain.omega0_sq + 4.0 * chain.kappa * np.sin(np.pi * np.arange(n) / n) ** 2)
    every_k = np.cos(np.outer(w, TAU)).mean(axis=0) / chain.beta
    assert np.abs(curve.values - every_k).max() <= 1e-12
    assert curve.values[0] == 1.0 / chain.beta


# 2000 lags at n = 1024 are four blocks of 512, the last one partial; 1025
# fold a lone lag into the second block
@pytest.mark.parametrize("lags", [2, 1025, 2000])
def test_phase_curve_blocks_move_no_bit(lags):
    chain = fkm.scaled_ring(1024, beta=2.5)
    tau = np.linspace(0.0, 20.0, lags)
    w = fkm.dft_frequencies(chain)
    whole = np.cos(w[0] * tau) + 2.0 * np.cos(np.outer(w[1:512], tau)).sum(axis=0)
    whole += np.cos(w[512] * tau)
    assert np.array_equal(fkm.phase_autocorrelation(chain, tau).values, whole / 1024 / chain.beta)


def test_phase_curve_peak_memory_bounded_by_block():
    # Bound in doubles: one block of angles, 512 lags of the 511 pairs here,
    # within _BLOCK_VALUES, and a few len(tau) arrays (the total, its pieces,
    # the values).  A second block alive at once breaks it; the whole pairs x
    # len(tau) cosine table, held twice, peaked at 164 MB.
    tau = np.linspace(0.0, 20.0, 20000)
    bound = 8 * (fkm._BLOCK_VALUES + 6 * tau.size)
    peak = traced_peak(lambda: fkm.phase_autocorrelation(fkm.scaled_ring(1024, 1.0), tau))
    assert peak < bound, f"peak {peak / 1e6:.1f} MB over the {bound / 1e6:.1f} MB bound"


def _time_curve(chain, tau):
    """time_autocorrelation over tau, its other arguments valid for a tau up to 20."""
    return fkm.time_autocorrelation(chain, fkm.sample_gibbs(chain, 0), 100.0, tau, oversample=1)


@pytest.mark.parametrize("tau", [1.0, [[0.0, 1.0]]], ids=["scalar", "2-d"])
def test_phase_curve_rejects_tau_that_is_not_1d(tau):
    mc = functools.partial(fkm.mc_phase_autocorrelation, samples=2, seed=0)
    for curve in (fkm.phase_autocorrelation, mc, _time_curve):
        with pytest.raises(ValueError, match=r"^tau grid must be 1-d, got shape \("):
            curve(fkm.scaled_ring(8, beta=1.0), tau)


def test_uncoupled_phase_curve_is_single_cosine():
    chain = fkm.HarmonicChain(n=5, beta=2.0, omega0_sq=9.0, kappa=0.0)
    curve = fkm.phase_autocorrelation(chain, TAU)
    assert np.allclose(curve.values, 0.5 * np.cos(3.0 * TAU), atol=1e-12)


# ---------------------------------------------------------------------------
# Gibbs sampling
# ---------------------------------------------------------------------------


def test_gibbs_determinism():
    chain = fkm.scaled_ring(8, beta=1.0)
    x1 = fkm.sample_gibbs(chain, 42)
    x2 = fkm.sample_gibbs(chain, 42)
    assert np.array_equal(x1.q, x2.q) and np.array_equal(x1.p, x2.p)


@pytest.mark.parametrize(
    "seed, digest",
    [
        (10, "4dd3e0dee60c5e987a7a014d8266b99f7f7a79a10f4cfe17be27b8995c28744b"),
        (8, "4fa763ad7c440fdc311b161b969300bae520dbffab8300d2d8b072c815cce262"),
    ],
    ids=["a5-seed-10", "a6-seed-8"],
)
def test_gibbs_draw_stream_is_pinned(seed, digest):
    # A5's Monte-Carlo and A6's Gibbs start draw from these streams, and
    # their frozen z and gaps hold for these bits only; a numpy whose
    # ziggurat draws other numbers fails here by name
    z = np.random.default_rng(seed).standard_normal(64)
    assert hashlib.sha256(z.astype("<f8").tobytes()).hexdigest() == digest, (
        f"default_rng({seed}).standard_normal's first 64 draws changed; first draw {z[0].hex()}"
    )


def test_gibbs_rejects_zero_mode():
    chain = fkm.HarmonicChain(n=8, beta=1.0, omega0_sq=0.0, kappa=1.0)
    with pytest.raises(ZeroModeError):
        fkm.sample_gibbs(chain, 0)


def _gibbs_energies(chain, rng, draws):
    """H of `draws` Gibbs points from one normal draw of shape (draws, 2n).

    numpy fills the draw row by row, so row i holds the q then p normals of
    the i-th of `draws` sample_gibbs calls on `rng`; the first rows are
    checked against such calls.
    """
    calls = copy.deepcopy(rng)
    modes = fkm.normal_modes(chain)
    n, scale = chain.n, math.sqrt(chain.beta)
    z = rng.normal(size=(draws, 2 * n))
    q = (z[:, :n] / (scale * modes.frequencies)) @ modes.vectors.T
    p = (z[:, n:] / scale) @ modes.vectors.T
    for i in range(3):
        x = fkm.sample_gibbs(chain, calls)
        assert np.abs(x.q - q[i]).max() <= 1e-12 and np.abs(x.p - p[i]).max() <= 1e-12
    return 0.5 * ((p * p).sum(axis=1) + ((q @ stiffness_matrix(chain)) * q).sum(axis=1))


def test_gibbs_mean_energy_equipartition():
    # E[H] = n/beta; pilot z = -0.45 at this seed
    chain = fkm.scaled_ring(8, beta=1.0)
    vals = _gibbs_energies(chain, np.random.default_rng(7), 100_000)
    se = vals.std(ddof=1) / math.sqrt(len(vals))
    assert abs(vals.mean() - 8.0) < 3 * se


def test_gibbs_energy_scales_inversely_with_beta():
    rng = np.random.default_rng(5)
    e_hot = _gibbs_energies(fkm.scaled_ring(8, beta=1.0), rng, 20_000).mean()
    e_cold = _gibbs_energies(fkm.scaled_ring(8, beta=10.0), rng, 20_000).mean()
    assert abs(e_hot / e_cold - 10.0) < 0.2


def test_gibbs_mode_variances():
    # pilot |z| <= 1.4 at seed 123 for all six checks
    chain = fkm.scaled_ring(8, beta=1.0)
    modes = fkm.normal_modes(chain)
    rng = np.random.default_rng(123)
    draws = 20_000
    qs = np.empty((draws, 8))
    ps = np.empty((draws, 8))
    for i in range(draws):
        x = fkm.sample_gibbs(chain, rng)
        qs[i] = modes.vectors.T @ x.q
        ps[i] = modes.vectors.T @ x.p
    spread = math.sqrt(2.0 / draws)
    for k in (0, 3, 7):
        target = 1.0 / modes.frequencies[k] ** 2
        assert abs(qs[:, k].var(ddof=1) - target) < 3 * target * spread
        assert abs(ps[:, k].var(ddof=1) - 1.0) < 3 * spread


def test_single_mode_state_carries_requested_energy():
    chain = fkm.scaled_ring(16, beta=1.0)
    x = fkm.single_mode_state(chain, 5, energy=7.5)
    assert np.allclose(x.q, 0.0)
    assert energy(stiffness_matrix(chain), x) == pytest.approx(7.5, rel=1e-12)
    assert np.array_equal(fkm.single_mode_state(chain, np.int64(5), energy=7.5).p, x.p)
    assert np.array_equal(fkm.single_mode_state(chain, 5, energy=0.0).p, np.zeros(16))
    with pytest.raises(ValueError):
        fkm.single_mode_state(chain, 16, energy=1.0)


@pytest.mark.parametrize(
    "mode, energy_, message",
    [
        (5, -1.0, r"^energy must be finite and non-negative, got -1\.0$"),
        (5, math.nan, r"^energy must be finite and non-negative, got nan$"),
        (5, math.inf, r"^energy must be finite and non-negative, got inf$"),
        (5, 10**400, r"^energy must be finite and non-negative, got 10{400}$"),
        (5, 1e308, r"^energy=1e\+308 is too large: sqrt\(2 energy\) is not finite$"),
        (5, np.float64(1e308), r"^energy=np\.float64\(1e\+308\) is too large: sqrt\(2 energy\) is not finite$"),
        (2.5, 1.0, r"^mode must be an integer, got 2\.5$"),
        (5.0, 1.0, r"^mode must be an integer, got 5\.0$"),
        (True, 1.0, r"^mode must be an integer, got True$"),
        ("5", 1.0, r"^mode must be an integer, got '5'$"),
        (16, 1.0, r"^mode 16 is out of range 0\.\.15$"),
        (-1, 1.0, r"^mode -1 is out of range 0\.\.15$"),
    ],
    ids=["negative", "nan", "inf", "int-past-float", "overflow", "numpy-overflow", "fraction", "float", "bool", "str", "past-end", "negative-mode"],
)
def test_single_mode_state_names_the_bad_argument(mode, energy_, message):
    with pytest.raises(ValueError, match=message):
        fkm.single_mode_state(fkm.scaled_ring(16, beta=1.0), mode, energy=energy_)


# ---------------------------------------------------------------------------
# evolution (the exact flow lives in the site-0 phasors)
# ---------------------------------------------------------------------------


def _site0_momentum(chain, x, t):
    """p0 at the times t from the phasors: Re sum_k c_k exp(i omega_k t)."""
    omega, coef = fkm._site0_phasors(chain, x)
    return (np.exp(1j * np.outer(np.atleast_1d(t), omega)) @ coef).real


def test_evolve_identity_at_zero():
    chain = fkm.scaled_ring(8, beta=1.0)
    x = fkm.sample_gibbs(chain, 1)
    assert _site0_momentum(chain, x, 0.0)[0] == pytest.approx(x.p[0], rel=1e-12)


def test_quarter_period_rotation():
    # single oscillator at omega = 2: (q, p) -> (p/omega, -omega q)
    chain = fkm.HarmonicChain(n=1, beta=1.0, omega0_sq=4.0)
    x = fkm.PhasePoint(q=np.array([0.3]), p=np.array([-1.1]))
    assert _site0_momentum(chain, x, math.pi / 4)[0] == pytest.approx(-2.0 * 0.3, abs=1e-12)


def test_zero_mode_streams_freely():
    # a uniform state moves only the zero mode, whose momentum stays put
    chain = fkm.HarmonicChain(n=4, beta=1.0, omega0_sq=0.0, kappa=1.0)
    ones = np.ones(4)
    x = fkm.PhasePoint(q=0.2 * ones, p=0.5 * ones)
    assert np.allclose(_site0_momentum(chain, x, 0.75 * np.arange(5)), 0.5, rtol=0.0, atol=1e-12)


# ---------------------------------------------------------------------------
# Monte-Carlo phase estimate
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("n", [8, 256])
def test_mc_stderr_matches_isserlis(n):
    # p0(0) and p0(tau) are jointly Gaussian with covariance g(tau), so by
    # Isserlis' theorem Var[p0(0) p0(tau)] = g(0)^2 + g(tau)^2 and the
    # stderr must be sqrt((g(0)^2 + g(tau)^2) / N).  The tolerance is fixed
    # from theory: the product's kurtosis is at most 15 (tau = 0, a squared
    # normal), so the estimated stderr has relative sd <= sqrt(14 / N) / 2,
    # 0.006 at N = 1e5, and 5% is over eight of those.
    samples = 100_000
    chain = fkm.scaled_ring(n, beta=1.0)
    g = fkm.phase_autocorrelation(chain, TAU).values
    mc = fkm.mc_phase_autocorrelation(chain, TAU, samples=samples, seed=10)
    assert mc.kind == "phase-monte-carlo"
    assert (mc.stderr > 0).all()
    ratio = mc.stderr / np.sqrt((g[0] ** 2 + g**2) / samples)
    assert np.abs(ratio - 1.0).max() < 0.05


def test_mc_determinism():
    chain = fkm.scaled_ring(8, beta=1.0)
    c1 = fkm.mc_phase_autocorrelation(chain, TAU, samples=5_000, seed=42)
    c2 = fkm.mc_phase_autocorrelation(chain, TAU, samples=5_000, seed=42)
    assert np.array_equal(c1.values, c2.values)
    assert np.array_equal(c1.stderr, c2.stderr)


def test_mc_error_shrinks_at_root_samples_rate():
    # 16x samples should cut rms error ~4x; pooled pilot ratio 4.42
    chain = fkm.scaled_ring(8, beta=1.0)
    ana = fkm.phase_autocorrelation(chain, TAU).values
    small_sq = big_sq = 0.0
    for i in range(8):
        small = fkm.mc_phase_autocorrelation(chain, TAU, 2_500, seed=1000 + i)
        big = fkm.mc_phase_autocorrelation(chain, TAU, 40_000, seed=2000 + i)
        small_sq += np.mean((small.values - ana) ** 2)
        big_sq += np.mean((big.values - ana) ** 2)
    ratio = math.sqrt(small_sq / big_sq)
    assert 2.8 < ratio < 6.3


def test_mc_rejects_zero_mode():
    chain = fkm.HarmonicChain(n=8, beta=1.0, omega0_sq=0.0, kappa=1.0)
    with pytest.raises(ZeroModeError):
        fkm.mc_phase_autocorrelation(chain, TAU, samples=100, seed=0)


@pytest.mark.parametrize(
    "estimate",
    [fkm.phase_autocorrelation, functools.partial(fkm.mc_phase_autocorrelation, samples=100, seed=0), _time_curve],
    ids=["analytic", "mc", "time"],
)
@pytest.mark.parametrize(
    ("last", "message"),
    [
        # omega_max is about 5.2 at n = 8, so omega * tau overflows at tau = 1e308
        (1e308, r"tau up to 1e\+308 is too large"),
        (math.nan, "tau holds a non-finite value"),
        (-math.inf, "tau holds a non-finite value"),
    ],
    ids=["overflow", "nan", "inf"],
)
def test_overflowing_tau_names_tau(estimate, last, message):
    with np.errstate(over="raise", invalid="raise"), pytest.raises(ValueError, match=message):
        estimate(fkm.scaled_ring(8, beta=1.0), [0.0, last])


def test_mc_worker_thread_joined_on_return_and_on_error(monkeypatch):
    made, pool = [], fkm.ThreadPoolExecutor  # the pools the estimator makes
    monkeypatch.setattr(fkm, "ThreadPoolExecutor", lambda *args, **kwargs: made.append(True) or pool(*args, **kwargs))
    threads = threading.active_count()
    # n = 256: 1026 samples are two draw blocks of 1024 and 2 rows
    assert fkm._mc_plan(256, 1026, TAU.size)[1]
    fkm.mc_phase_autocorrelation(fkm.scaled_ring(256, beta=1.0), TAU, samples=1026, seed=1)
    assert threading.active_count() == threads and made == [True]
    # the overflow happens on the calling thread, under the caller's errstate:
    # in the Gram form's z^T z on 200 lags, in the squared products on 5; at
    # n = 8, 32 770 samples are two draw blocks of 32 768 and 2 rows
    chain = fkm.HarmonicChain(n=8, beta=1e-200, kappa=0.3)
    for tau, op in ((TAU, "matmul"), (TAU[:5], "multiply")):
        assert fkm._mc_plan(8, 32_770, tau.size) == (op == "matmul", True)
        made.clear()
        with np.errstate(over="raise"), pytest.raises(FloatingPointError, match=f"overflow encountered in {op}$"):
            fkm.mc_phase_autocorrelation(chain, tau, samples=32_770, seed=0)
        assert threading.active_count() == threads and made == [True]


def test_mc_small_call_draws_on_the_calling_thread(monkeypatch):
    # A call makes no pool while the values it makes before its first
    # product stay under _CACHE_VALUES = 65 536: its 2 n S draws and, in the
    # product form, its 2 K |tau| cos/sin table.  n = 16 at 2048 samples is
    # the first Gram-form call that reaches it; n = 256 at 64 samples takes
    # the product form, 32 768 draws and 51 600 table values.
    assert fkm._mc_plan(16, 2047, TAU.size) == (True, False) and fkm._mc_plan(16, 2048, TAU.size) == (True, True)
    assert fkm._mc_plan(256, 64, TAU.size) == (False, True)
    assert fkm._mc_plan(256, 16, TAU.size) == (False, False)
    # and the calls themselves: n = 256 at 64 samples reaches the worker only
    # through the product form's table, and at 16 samples makes no pool
    made, pool = [], fkm.ThreadPoolExecutor
    monkeypatch.setattr(fkm, "ThreadPoolExecutor", lambda *args, **kwargs: made.append(True) or pool(*args, **kwargs))
    for samples, pools in ((64, [True]), (16, [])):
        made.clear()
        fkm.mc_phase_autocorrelation(fkm.scaled_ring(256, beta=1.0), TAU, samples, seed=1)
        assert made == pools, f"{samples} samples made {len(made)} pools"
    # The CLI's calls draw on the calling thread, under the caller's
    # np.errstate: at an ordinary beta nothing raises, not even an
    # underflow, and the bits are those of the call under the default state.
    plain = {n: fkm.mc_phase_autocorrelation(fkm.scaled_ring(n, beta=1.0), TAU, 2000, seed=42) for n in (8, 16)}

    def refuse(*args, **kwargs):
        raise AssertionError("a small call made a worker pool")

    monkeypatch.setattr(fkm, "ThreadPoolExecutor", refuse)
    for n, curve in plain.items():
        assert not fkm._mc_plan(n, 2000, TAU.size)[1]
        with np.errstate(all="raise"):
            raised = fkm.mc_phase_autocorrelation(fkm.scaled_ring(n, beta=1.0), TAU, 2000, seed=42)
        assert np.array_equal(raised.values, curve.values) and np.array_equal(raised.stderr, curve.stderr)


def _one_shot_chunks(chain, samples, seed):
    """The estimator's scaled (m, n) p and q mode draws, one chunk at a time."""
    omega = fkm.normal_modes(chain).frequencies
    rng = seed if isinstance(seed, np.random.Generator) else np.random.default_rng(seed)
    sqrt_beta = math.sqrt(chain.beta)
    done = 0
    while done < samples:
        m = 20000 if samples - done > 20001 else samples - done  # the documented chunks fix the p/q split
        p_modes = rng.normal(size=(m, chain.n)) / sqrt_beta
        q_modes = rng.normal(size=(m, chain.n)) / (sqrt_beta * omega)
        yield p_modes, q_modes
        done += m


def _one_shot_mc(chain, tau, samples, seed):
    """Reference estimator: whole (m, n) draws and every mode column per chunk."""
    modes = fkm.normal_modes(chain)
    w_site = modes.vectors[0, :]
    omega = modes.frequencies
    cos_t = np.cos(np.outer(omega, tau))
    sin_t = np.sin(np.outer(omega, tau))
    sum1 = np.zeros(tau.shape)
    sum2 = np.zeros(tau.shape)
    for p_modes, q_modes in _one_shot_chunks(chain, samples, seed):
        a = p_modes @ w_site
        b = (p_modes * w_site) @ cos_t - (q_modes * (w_site * omega)) @ sin_t
        prod = a[:, None] * b
        sum1 += prod.sum(axis=0)
        sum2 += (prod**2).sum(axis=0)
    mean = sum1 / samples
    var = (sum2 - samples * mean**2) / (samples - 1)
    return mean, np.sqrt(np.clip(var, 0.0, None) / samples)


def _absolute_moments(chain, tau, samples, seed):
    """Per lag, sum_s |a_s| B_s and sum_s a_s^2 B_s^2 over the same draws,
    B_s = sum_j |x_sj phi_j(tau)|: the terms' absolute values that bound the
    rounding error of any order of summing the two moments."""
    modes = fkm.normal_modes(chain)
    w_site = modes.vectors[0, :]
    omega = modes.frequencies
    abs_cos = np.abs(np.cos(np.outer(omega, tau)))
    abs_sin = np.abs(np.sin(np.outer(omega, tau)))
    first, second = np.zeros(tau.shape), np.zeros(tau.shape)
    for p_modes, q_modes in _one_shot_chunks(chain, samples, seed):
        a = p_modes @ w_site
        terms = np.abs(p_modes * w_site) @ abs_cos + np.abs(q_modes * (w_site * omega)) @ abs_sin
        first += (np.abs(a)[:, None] * terms).sum(axis=0)
        second += ((a[:, None] * terms) ** 2).sum(axis=0)
    return first, second


def _run_on_one_blas_thread(script):
    """stdout of `script` run by a fresh interpreter with BLAS on one thread."""
    env = dict(os.environ, OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1", MKL_NUM_THREADS="1")
    env["PYTHONPATH"] = os.pathsep.join([str(Path(fkm.__file__).parents[1]), str(Path(__file__).parent)])
    run = subprocess.run([sys.executable, "-c", script], env=env, capture_output=True, text=True, timeout=600)
    assert run.returncode == 0, run.stderr
    return run.stdout


def _bit_tau(n):
    """No more lags than the K = n // 2 + 1 support modes, so that the rule
    sends the estimator to the product form at any sample count, and past 8
    a multiple of 8: off one, gemm's tail lags may move in the last digit
    (at n = 256 and 2 samples, every width of 8j + 1 to 8j + 4 up to 196)."""
    k = n // 2 + 1
    return np.linspace(0.0, 20.0, k if k < 8 else k // 8 * 8)


# At n = 256 a block is 1024 rows: 1025 samples fold a lone row into it, 1026
# leave a two-row second block, 20001 fold a lone sample into one chunk.  At
# n = 200 the block is rounded down to 1304 rows.  Each q block's lag
# products are reduced whole, so these tall blocks pin the one-shot bits at
# the most rows one reduction takes.  n = 9 is odd: no alternating mode.  At
# n = 8 and 9 a chunk is one block: 13105 samples make one of 8j + 1 rows,
# and 2000 are the CLI's size.  40001 samples are two chunks, the second of
# 20001.
_BIT_CASES = [(n, s) for n in (8, 9, 200, 256) for s in (2, 1025, 1026, 20001)]
_BIT_CASES += [(n, s) for n in (8, 9) for s in (13105, 2000, 40001)]
# n = 8 has K = 5 support modes, so on 10 lags the two costs, K^2 (S + 10)
# and K S 10, are equal at S = 10: a tie keeps the product form
_CROSSOVER_TAU = np.linspace(0.0, 20.0, 10)


def test_mc_bit_identical_to_one_shot_draws():
    # Threaded BLAS deals a gemv's rows out to threads by count, and a row's
    # rounding depends on its place in its thread's share, so there even the
    # one-shot formula's bits move with the thread count: compare on one.
    plans = {(n, s): fkm._mc_plan(n, s, _bit_tau(n).size) for n, s in _BIT_CASES}
    assert not any(gram for gram, _ in plans.values())
    # both sides of the draw-thread rule: the calling thread draws up to 2000
    # samples at n = 8 and 9 and 2 samples at n = 200 and 256, a worker the rest
    on_worker = {case for case, (_, worker) in plans.items() if worker}
    assert on_worker == {(n, s) for n, s in _BIT_CASES if s > 2000 or (n >= 200 and s > 2)}
    assert fkm._mc_plan(8, 10, _CROSSOVER_TAU.size) == (False, False)
    script = f"""
from test_fkm import _CROSSOVER_TAU, _bit_tau, _one_shot_mc, fkm, np

def same(n, samples, seed, ref_seed, tau, **errstate):
    chain = fkm.scaled_ring(n, beta=2.5)
    with np.errstate(**errstate):
        mc = fkm.mc_phase_autocorrelation(chain, tau, samples, seed)
    values, stderr = _one_shot_mc(chain, tau, samples, ref_seed)
    return np.array_equal(mc.values, values) and np.array_equal(mc.stderr, stderr)

for n, samples in {_BIT_CASES!r}:
    print(n, samples, same(n, samples, 7, 7, _bit_tau(n)))
rng_mc, rng_ref = np.random.default_rng(11), np.random.default_rng(11)
print("generator", same(256, 20001, rng_mc, rng_ref, _bit_tau(256)) and rng_mc.normal() == rng_ref.normal())
print("crossover", same(8, 10, 7, 7, _CROSSOVER_TAU))
print("errstate", same(8, 2000, 7, 7, _bit_tau(8), all="raise"))
"""
    lines = _run_on_one_blas_thread(script).splitlines()
    assert len(lines) == len(_BIT_CASES) + 3
    assert [line for line in lines if not line.endswith(" True")] == []


@pytest.mark.parametrize("n", [1024, 4096])
def test_mc_matches_one_shot_draws_at_large_n(n):
    # dropping the zero-weight columns changes BLAS's blocking of the inner
    # sum past a few hundred columns, so only the last bit may move; with
    # more support modes than lags, both take the product form
    chain = fkm.scaled_ring(n, beta=1.0)
    assert not fkm._mc_plan(n, 1025, TAU.size)[0]
    mc = fkm.mc_phase_autocorrelation(chain, TAU, samples=1025, seed=7)
    values, stderr = _one_shot_mc(chain, TAU, 1025, 7)
    assert np.allclose(mc.values, values, rtol=0.0, atol=1e-15)
    assert np.allclose(mc.stderr, stderr, rtol=0.0, atol=1e-15)


@pytest.mark.parametrize("n", [8, 256])
def test_mc_matches_one_shot_draws_on_wide_lag_grid(n):
    # Past 192 lags and off a multiple of 8, gemm's tail columns depend on
    # the inner length and how many rows one call takes, so the last lags'
    # last bits may move; the block layout fixes them, so a rerun gives the
    # same bytes.  The samples are the most that the rule keeps on the
    # product form on this grid: 5 at n = 8 (K = 5), and 215 at n = 256
    # (K = 129), one block of 215 rows.
    chain = fkm.scaled_ring(n, beta=1.0)
    tau = np.linspace(0.0, 20.0, 321)
    samples = max(s for s in range(2, 2001) if not fkm._mc_plan(n, s, tau.size)[0])
    assert samples == {8: 5, 256: 215}[n]
    mc = fkm.mc_phase_autocorrelation(chain, tau, samples=samples, seed=7)
    values, stderr = _one_shot_mc(chain, tau, samples, 7)
    assert np.allclose(mc.values, values, rtol=0.0, atol=1e-15)
    assert np.allclose(mc.stderr, stderr, rtol=0.0, atol=1e-15)
    again = fkm.mc_phase_autocorrelation(chain, tau, samples=samples, seed=7)
    assert np.array_equal(again.values, mc.values) and np.array_equal(again.stderr, mc.stderr)


@pytest.mark.parametrize(
    ("n", "samples", "tau"),
    [(8, 2000, TAU), (8, 100_000, TAU), (9, 20001, TAU), (256, 2000, TAU), (8, 11, _CROSSOVER_TAU)],
    ids=["cli", "a5", "folded-last-sample", "n256", "crossover"],
)
def test_mc_gram_form_within_rounding_of_one_shot_draws(n, samples, tau):
    # The Gram form sums the one-shot formula's terms in another order.  Each
    # order is within gamma(N) = N u / (1 - N u) of the exact sum times the
    # sum of the terms' absolute values (Higham, Accuracy and Stability of
    # Numerical Algorithms, sec. 3.1), N = S + 4K + 8 covering the sample
    # sum, the two inner sums over 2K coordinates, the products and the
    # cos/sin tables; so the two differ by at most twice that.  The stderr
    # bound carries those errors through (sum2 - S mean^2) / (S - 1) / S and
    # the square root, with 4u for the rounding of those steps.
    k = n // 2 + 1
    assert fkm._mc_plan(n, samples, tau.size)[0]
    chain = fkm.scaled_ring(n, beta=1.0)
    rng_mc, rng_ref = np.random.default_rng(7), np.random.default_rng(7)
    mc = fkm.mc_phase_autocorrelation(chain, tau, samples, rng_mc)
    values, stderr = _one_shot_mc(chain, tau, samples, rng_ref)
    assert rng_mc.normal() == rng_ref.normal()  # the same stream, to its end
    abs1, abs2 = _absolute_moments(chain, tau, samples, 7)
    u = 2.0**-53
    length = samples + 4 * k + 8
    gamma = length * u / (1 - length * u)
    e1 = 2 * gamma * abs1 / samples
    assert (np.abs(mc.values - values) <= e1).all()
    d = (2 * gamma * abs2 + samples * (2 * np.abs(values) + e1) * e1 + 4 * u * (abs2 + samples * values**2)) / (
        (samples - 1) * samples
    )
    se_bound = d / (mc.stderr + stderr) + 2 * u * np.maximum(mc.stderr, stderr)
    assert (np.abs(mc.stderr - stderr) <= se_bound).all()


def test_mc_takes_the_gram_form_only_past_the_crossover(monkeypatch):
    # at the tie (10 samples on 10 lags at n = 8) the product form; one
    # sample or one lag more, the Gram form
    assert [fkm._mc_plan(8, s, lags)[0] for s, lags in ((10, 10), (11, 10), (10, 11))] == [False, True, True]
    chain = fkm.scaled_ring(8, beta=1.0)
    taken = []
    gram_sums = fkm._GramSums.sums
    monkeypatch.setattr(fkm._GramSums, "sums", lambda self: taken.append(True) or gram_sums(self))
    for samples in (10, 11):
        taken.clear()
        fkm.mc_phase_autocorrelation(chain, _CROSSOVER_TAU, samples, seed=7)
        assert taken == [True] * (samples == 11)


def test_mc_chunks_fold_a_lone_last_sample(monkeypatch):
    # chunks of _MC_CHUNK samples, a lone last sample joining the chunk
    # before it, as a lone last row joins its block in _row_blocks; a chunk's
    # p blocks run from lo = 0 to its size
    chain = fkm.scaled_ring(8, beta=1.0)
    sizes = []
    take_p = fkm._ProductSums.take_p

    def spy(self, lo, hi, a, p_site):
        if lo == 0:  # a chunk's first p block
            sizes.append(0)
        sizes[-1] = hi
        take_p(self, lo, hi, a, p_site)

    monkeypatch.setattr(fkm._ProductSums, "take_p", spy)
    for samples, chunks in ((20001, [20001]), (20002, [20000, 2]), (40001, [20000, 20001])):
        assert not fkm._mc_plan(8, samples, _bit_tau(8).size)[0]
        sizes.clear()
        fkm.mc_phase_autocorrelation(chain, _bit_tau(8), samples, seed=7)
        assert sizes == chunks, f"{samples} samples made chunks {sizes}"


def test_mc_peak_memory_independent_of_ring_width():
    # Bound from the block layout, in doubles: the draw block, its gathered
    # site-0 columns, the q block's buffer and slack (3 x _BLOCK_VALUES);
    # the call's one chunk x |tau| array b, the only one of that size; the
    # cos/sin tables with their gathered copies and temporaries (5 x n x |tau|).
    # At n = 1024 one (m, n) draw is 41 MB; the one-shot chunk holds three at
    # once.  n = 1024 takes the product form; n = 8 the Gram form, which holds
    # no b, only the chunk's m x K p halves of z, well inside the bound.
    for n, m in [(1024, 5000), (8, 20000), (8, 2 * fkm._MC_CHUNK)]:
        chain = fkm.scaled_ring(n, beta=1.0)
        rows = min(m, fkm._MC_CHUNK)
        bound = 8 * (3 * fkm._BLOCK_VALUES + rows * TAU.size + 5 * n * TAU.size)
        peak = traced_peak(lambda: fkm.mc_phase_autocorrelation(chain, TAU, samples=m, seed=3))
        assert peak < bound, f"n={n}: peak {peak / 1e6:.1f} MB over the {bound / 1e6:.1f} MB bound"


def test_mc_tables_hold_only_the_support_rows():
    # Bound, in doubles: the cos and sin tables on the n // 2 + 1 support
    # rows, 2 (n // 2 + 1) |tau|; the blocks (3 x _BLOCK_VALUES, as above);
    # the call's two-row b, three-row q block buffer and its |tau|-long
    # sums, means and errors (12 |tau| in all).  Whole n x |tau| tables with
    # their gathered support copies peaked at 249 MB.
    n, lags = 512, 20_000
    chain = fkm.scaled_ring(n, beta=1.0)
    tau = np.linspace(0.0, 20.0, lags)
    bound = 8 * (2 * (n // 2 + 1) * lags + 3 * fkm._BLOCK_VALUES + 12 * lags)
    peak = traced_peak(lambda: fkm.mc_phase_autocorrelation(chain, tau, samples=2, seed=3))
    assert peak < bound, f"peak {peak / 1e6:.1f} MB over the {bound / 1e6:.1f} MB bound"


def test_mc_gram_form_memory_does_not_grow_with_support_times_lags():
    # n = 64 (K = 33) with 100 samples on 200 000 lags takes the Gram form,
    # which evaluates its quadratic forms over blocks of tau; the product
    # form's cos and sin tables alone would hold 2 K |tau| = 13.2 M doubles.
    # Bound, in doubles, with neither K nor K |tau| in it: the blocks
    # (3 x _BLOCK_VALUES, as above) and the |tau|-long sums, means and
    # errors (12 |tau|).
    n, samples, lags = 64, 100, 200_000
    assert fkm._mc_plan(n, samples, lags)[0]
    chain = fkm.scaled_ring(n, beta=1.0)
    tau = np.linspace(0.0, 20.0, lags)
    bound = 8 * (3 * fkm._BLOCK_VALUES + 12 * lags)
    peak = traced_peak(lambda: fkm.mc_phase_autocorrelation(chain, tau, samples=samples, seed=3))
    assert peak < bound, f"peak {peak / 1e6:.1f} MB over the {bound / 1e6:.1f} MB bound"


def test_mc_chunk_layout_does_not_grow_with_the_sample_count():
    # 2e10 samples are 10^6 chunks.  The chunks are laid out as they are
    # reached, so the call overflows in the Gram form's z^T z on its first q
    # block, having read at most one later chunk's size (the worker draws one
    # block ahead, into the other draw buffer); a list of every chunk's
    # blocks, made before the first draw, peaked at about 220 MB.  Bound: at
    # n = 8 a chunk is one block of 20 000 rows, so the two draw buffers
    # (2 x 8 columns), a (1), the p halves of z (5), one block of z rows
    # (10), the gathered p and q columns (2 x 5) and -a (1) come to
    # 43 x 20 000 doubles (6.9 MB), plus an allowance of 2 MB for smaller
    # temporaries, Python objects and the modules a first call imports.
    chain = fkm.HarmonicChain(n=8, beta=1e-200, kappa=0.3)
    assert fkm._mc_plan(8, 2 * 10**10, TAU.size)[0]
    bound = 8 * 43 * 20_000 + 2_000_000

    def overflow():
        with np.errstate(over="raise"), pytest.raises(FloatingPointError, match="overflow encountered in matmul$"):
            fkm.mc_phase_autocorrelation(chain, TAU, samples=2 * 10**10, seed=0)

    peak = traced_peak(overflow)
    assert peak < bound, f"peak {peak / 1e6:.1f} MB over the {bound / 1e6:.1f} MB bound"


# ---------------------------------------------------------------------------
# trajectory time average
# ---------------------------------------------------------------------------


def _small_ring():
    return fkm.HarmonicChain(n=64, beta=1.0, omega0_sq=1.0, kappa=1.0)


def test_time_average_matches_phase_average_for_gibbs_start():
    # pilot gap 0.133 at seed 0 over 1e3 characteristic periods
    chain = _small_ring()
    horizon = 1e3 * 2 * math.pi / fkm.dft_frequencies(chain).max()
    x0 = fkm.sample_gibbs(chain, 0)
    curve = fkm.time_autocorrelation(chain, x0, horizon, TAU, oversample=4)
    assert curve.kind == "time-trajectory"
    assert np.abs(curve.values - fkm.phase_autocorrelation(chain, TAU).values).max() < 0.2
    assert abs(curve.values[0] - 1.0) < 0.2


def test_single_mode_start_violates_phase_average():
    # pilot gap 2.28: one excited cosine mode keeps a pure cosine correlation
    chain = _small_ring()
    horizon = 1e3 * 2 * math.pi / fkm.dft_frequencies(chain).max()
    x_bad = fkm.single_mode_state(chain, 31, energy=64.0)
    curve = fkm.time_autocorrelation(chain, x_bad, horizon, TAU, oversample=4)
    assert np.abs(curve.values - fkm.phase_autocorrelation(chain, TAU).values).max() > 1.0


def test_time_autocorrelation_huge_oversample_matches_1e9():
    # the lag offsets j * oversample wrapped in int64 at 10**18 without an
    # error, and the curve was off by 1.36
    chain = fkm.scaled_ring(8, 1.0)
    x0 = fkm.sample_gibbs(chain, 42)
    horizon = 1e4 * 2 * math.pi / fkm.dft_frequencies(chain).max()
    reference = fkm.time_autocorrelation(chain, x0, horizon, TAU, oversample=10**9).values
    curve = fkm.time_autocorrelation(chain, x0, horizon, TAU, oversample=10**18)
    np.testing.assert_allclose(curve.values, reference, rtol=0, atol=1e-9)


def test_time_autocorrelation_grid_validation():
    chain = _small_ring()
    x0 = fkm.sample_gibbs(chain, 0)
    with pytest.raises(ValueError):
        fkm.time_autocorrelation(chain, x0, 100.0, np.array([1.0, 2.0]), oversample=4)
    with pytest.raises(ValueError):
        fkm.time_autocorrelation(chain, x0, 100.0, np.array([0.0, 1.0, 3.0]), oversample=4)
    with pytest.raises(ValueError):
        fkm.time_autocorrelation(chain, x0, 10.0, TAU, oversample=4)
    with pytest.raises(ValueError):
        fkm.time_autocorrelation(chain, x0, 100.0, TAU, oversample=0)


def test_time_autocorrelation_grid_is_j_times_step():
    # every step is under the old absolute slack of 1e-8, but tau_2 is 5e-9,
    # not the 2e-9 the estimator would compute at
    chain = _small_ring()
    with pytest.raises(ValueError, match="tau grid must be uniform and start at 0"):
        fkm.time_autocorrelation(chain, fkm.sample_gibbs(chain, 0), 1.0, np.array([0.0, 1e-9, 5e-9]), oversample=1)


def _direct_series(chain, x0, dt, total):
    """p0(j dt) for j < total by cos/sin over every mode column: the brute-force orbit.

    Independent of the phasor kernel; evaluated a block of times at a time,
    so a wide ring needs no total x n array.
    """
    modes = fkm.normal_modes(chain)
    q = modes.vectors.T @ x0.q
    p = modes.vectors.T @ x0.p
    w_site = modes.vectors[0, :]
    omega = modes.frequencies
    rows = max(1, (1 << 20) // chain.n)
    series = np.empty(total)
    for lo in range(0, total, rows):
        phases = np.outer(np.arange(lo, min(lo + rows, total)) * dt, omega)
        series[lo : lo + rows] = np.cos(phases) @ (w_site * p) - np.sin(phases) @ (w_site * omega * q)
    return series


def _random_point(n, seed):
    rng = np.random.default_rng(seed)
    return fkm.PhasePoint(q=rng.normal(size=n), p=rng.normal(size=n))


DIRECT_TAU = np.linspace(0.0, 5.0, 21)


def _matches_direct_evaluation(chain, tau=DIRECT_TAU, oversample=3, horizon=300.0):
    """The closed-form time average against lag products of _direct_series."""
    x0 = _random_point(chain.n, chain.n)
    dt = (tau[1] - tau[0]) / oversample
    n_base = int(math.ceil(horizon / dt))
    direct = _direct_series(chain, x0, dt, n_base + (len(tau) - 1) * oversample)
    scale = np.abs(direct).max()
    direct_curve = np.array(
        [direct[:n_base] @ direct[j * oversample : j * oversample + n_base] / n_base for j in range(len(tau))]
    )
    curve = fkm.time_autocorrelation(chain, x0, horizon, tau, oversample=oversample)
    return bool(np.abs(curve.values - direct_curve).max() <= 1e-10 * scale**2)


ODD_RING = fkm.HarmonicChain(n=17, beta=1.0, omega0_sq=1.0, kappa=1.0)
EVEN_RING = fkm.HarmonicChain(n=32, beta=2.0, omega0_sq=0.5, kappa=3.0)


@pytest.mark.parametrize(
    "chain, grid",
    [
        pytest.param(ODD_RING, {}, id="odd"),
        pytest.param(EVEN_RING, {}, id="even"),
        pytest.param(fkm.HarmonicChain(n=12, beta=1.0, omega0_sq=0.0, kappa=1.0), {}, id="zero-mode"),
        # every difference sine is 0: all frequencies coincide
        pytest.param(fkm.HarmonicChain(n=10, beta=1.0, omega0_sq=1.0, kappa=0.0), {}, id="kappa-0"),
        # omega_max dt ~ 104 rad, so the angles wrap; N = 16 is even
        pytest.param(
            fkm.scaled_ring(8, beta=1.0), {"tau": np.array([0.0, 20.0]), "oversample": 1, "horizon": 310.0}, id="aliased"
        ),
        # omega dt = pi: the sum angle sits where both of its sines vanish
        pytest.param(
            fkm.HarmonicChain(n=1, beta=1.0, omega0_sq=math.pi**2),
            {"tau": np.array([0.0, 1.0]), "oversample": 1},
            id="half-turn",
        ),
        # omega dt = pi and 3 pi: the difference angle sits where both of its sines vanish
        pytest.param(
            fkm.HarmonicChain(n=2, beta=1.0, omega0_sq=math.pi**2, kappa=2.0 * math.pi**2),
            {"tau": np.array([0.0, 1.0]), "oversample": 1},
            id="aliased-pair",
        ),
        # band-edge modes about 1e-7 dt apart; several blocks of mode pairs.
        # A short horizon keeps the brute-force orbit at 740 x 4096 angles
        pytest.param(fkm.HarmonicChain(n=4096, beta=1.0, kappa=1.0), {"horizon": 60.0}, id="band-edge-4096"),
    ],
)
def test_time_autocorrelation_matches_direct_evaluation(chain, grid):
    assert _matches_direct_evaluation(chain, **grid)


@pytest.mark.parametrize("n", [1, 2, 7, 8, 255, 256])
def test_site0_weight_vanishes_on_every_sin_column(n):
    # the site-0 phasors drop exactly these columns
    row = fkm.normal_modes(fkm.HarmonicChain(n=n, beta=1.0)).vectors[0]
    assert np.all(row[2::2] == 0.0)
    assert np.count_nonzero(row) == n // 2 + 1


@pytest.mark.parametrize("n", [*range(1, 71), 4096])
def test_closed_form_site0_row_is_the_mode_table_row(n):
    # the site-0 kernels read these two instead of the mode table
    chain = fkm.scaled_ring(n, beta=1.0)
    modes = fkm.normal_modes(chain)
    assert np.array_equal(fkm._site0_row(n), modes.vectors[0])
    assert np.array_equal(modes.frequencies[modes.vectors[0] != 0.0], fkm.dft_frequencies(chain))
    fkm.normal_modes.cache_clear()


@pytest.mark.parametrize("n", [*range(1, 71), 4096])
def test_dft_frequencies_are_the_first_half_of_every_index(n):
    # the n-index evaluation, bit for bit, up to k = n // 2
    for chain in (fkm.scaled_ring(n, beta=1.0), fkm.HarmonicChain(n=n, beta=1.0, omega0_sq=0.3, kappa=2.7)):
        k = np.arange(n)
        w2 = chain.omega0_sq + 4.0 * chain.kappa * np.sin(np.pi * k / n) ** 2
        every_k = np.sqrt(np.clip(w2, 0.0, None))
        assert fkm.dft_frequencies(chain).shape == (n // 2 + 1,)
        assert np.array_equal(fkm.dft_frequencies(chain), every_k[: n // 2 + 1])


@pytest.mark.parametrize("n", [1, 2, 7, 8, 255, 256])
def test_site0_phasors_match_the_mode_table_formula(n):
    # the phasors from the table's row 0 and column frequencies, bit for bit
    chain = fkm.scaled_ring(n, beta=1.0)
    x = fkm.sample_gibbs(chain, 11)
    modes = fkm.normal_modes(chain)
    q, p = modes.vectors.T @ x.q, modes.vectors.T @ x.p
    w_site = modes.vectors[0, :]
    keep = w_site != 0.0
    omega = modes.frequencies[keep]
    got_omega, got_coef = fkm._site0_phasors(chain, x)
    assert np.array_equal(got_omega, omega)
    assert np.array_equal(got_coef, w_site[keep] * (p[keep] + 1j * omega * q[keep]))
    fkm.normal_modes.cache_clear()


def test_normal_modes_caches_the_last_chain_only():
    fkm.normal_modes.cache_clear()
    try:
        fkm.normal_modes(fkm.scaled_ring(8, beta=1.0))
        fkm.normal_modes(fkm.scaled_ring(16, beta=1.0))
        assert fkm.normal_modes.cache_info().currsize == 1
        fkm.normal_modes.cache_clear()
        # A6's four calls on one chain: one build, three reuses
        assert acceptance._a6()[0]
        info = fkm.normal_modes.cache_info()
        assert (info.hits, info.misses) == (3, 1)
    finally:
        fkm.normal_modes.cache_clear()


def test_mc_builds_no_mode_table():
    # Bound, stated before the first run: 16 MB, where n = 4096's mode
    # table alone is 134 MB; the call itself holds two 2 x 4096 draw blocks,
    # the 2049 x 2 cos/sin tables and a few n-long rows
    fkm.normal_modes.cache_clear()
    peak = traced_peak(lambda: fkm.mc_phase_autocorrelation(fkm.scaled_ring(4096, beta=1.0), TAU[:2], samples=2, seed=3))
    assert fkm.normal_modes.cache_info().currsize == 0
    assert peak < 16e6, f"peak {peak / 1e6:.1f} MB"


def _time_reversed(monkeypatch):
    # the orbit starts from (-q, p)
    original = fkm._site0_phasors
    monkeypatch.setattr(
        fkm, "_site0_phasors", lambda chain, x0: original(chain, fkm.PhasePoint(q=-x0.q, p=x0.p))
    )


def _dispersion_4_2_kappa(monkeypatch):
    def dft_frequencies(chain):
        k = np.arange(chain.n // 2 + 1)
        return np.sqrt(chain.omega0_sq + 4.2 * chain.kappa * np.sin(np.pi * k / chain.n) ** 2)

    monkeypatch.setattr(fkm, "dft_frequencies", dft_frequencies)


@pytest.mark.parametrize(
    "mutant, caught_by",
    [(None, set()), (_time_reversed, {"direct-odd", "direct-even"}), (_dispersion_4_2_kappa, {"dense"})],
    ids=["clean", "time-reversed", "dispersion-4.2-kappa"],
)
def test_mode_kernel_mutation_matrix(monkeypatch, mutant, caught_by):
    # each broken kernel fails the comparisons that target it and no other;
    # the mode table is cached per chain, so it is rebuilt on both sides
    fkm.normal_modes.cache_clear()
    try:
        if mutant is not None:
            mutant(monkeypatch)
        checks = {
            "direct-odd": lambda: _matches_direct_evaluation(ODD_RING),
            "direct-even": lambda: _matches_direct_evaluation(EVEN_RING),
            "dense": lambda: _dispersion_matches_dense_eigensolver(DENSE_RING),
        }
        failed = {name for name, check in checks.items() if not check()}
    finally:
        fkm.normal_modes.cache_clear()
    assert failed == caught_by


# ---------------------------------------------------------------------------
# OU fit and recurrence
# ---------------------------------------------------------------------------


def test_ou_fit_recovers_exact_exponential():
    curve = fkm.AutocorrCurve(tau=TAU, values=np.exp(-2.0 * TAU), kind="phase-analytic")
    fit = fkm.ou_fit(curve)
    assert abs(fit.gamma - 2.0) < 1e-9
    assert fit.residual < 1e-10


@pytest.mark.parametrize("scale", [1e-300, 1e300])
def test_ou_fit_at_extreme_scales(scale):
    # finite, positive and decaying, but the fit's products and norms leave
    # the float range unless it runs on the curve over a power of two
    tau = np.linspace(0.0, 3.0, 31)
    curve = fkm.AutocorrCurve(tau=tau, values=scale * 10.0**-tau, kind="phase-analytic")
    with np.errstate(over="raise", divide="raise", invalid="raise"):
        fit = fkm.ou_fit(curve)
    assert fit.gamma == pytest.approx(math.log(10.0), rel=1e-12)
    assert fit.amplitude == pytest.approx(scale, rel=1e-12)
    assert 0.0 <= fit.residual < 1e-12


def _curve_fit_reference(curve, window_factor=5.0):
    """(gamma, residual, window) of ou_fit's window loop around scipy.optimize.curve_fit."""
    tau, vals = curve.tau, curve.values
    below = np.nonzero(vals < vals[0] / math.e)[0]
    gamma = 1.0 / (tau[below[0]] if len(below) and tau[below[0]] > 0 else tau[-1])
    last = len(tau)
    for _ in range(fkm._OU_MAX_ITER):
        window = max(int(np.searchsorted(tau, window_factor / gamma, side="right")), 3)
        t, v = tau[:window], vals[:window]
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", scipy.optimize.OptimizeWarning)  # the covariance is unused
            (c, gamma), _ = scipy.optimize.curve_fit(
                lambda t, c, g: c * np.exp(-g * t), t, v, p0=(vals[0], gamma), maxfev=20000
            )
        if window == last:
            break
        last = window
    return gamma, np.linalg.norm(c * np.exp(-gamma * t) - v) / np.linalg.norm(v), t[-1]


def _resolved_ring_curve(n):
    """g_n on 101 lags of step 0.1 / omega_max: the grid resolves the band edge."""
    chain = fkm.scaled_ring(n, beta=1.0)
    return fkm.phase_autocorrelation(chain, np.arange(101) * 0.1 / fkm.dft_frequencies(chain).max())


_FIT_CASES = {
    "exp-0.4": lambda: fkm.AutocorrCurve(tau=TAU, values=np.exp(-0.4 * TAU), kind="phase-analytic"),
    "exp-2": lambda: fkm.AutocorrCurve(tau=TAU, values=3.0 * np.exp(-2.0 * TAU), kind="phase-analytic"),
    "cosine-n1": lambda: fkm.phase_autocorrelation(fkm.HarmonicChain(n=1, beta=1.0, omega0_sq=1.0), TAU),
    **{f"resolved-ring-{n}": functools.partial(_resolved_ring_curve, n) for n in (8, 16, 32, 64, 128, 256)},
}


@pytest.mark.parametrize("case", list(_FIT_CASES))
def test_ou_fit_matches_curve_fit(case):
    # Outside reference: scipy's curve_fit (MINPACK Levenberg-Marquardt) in
    # the same window loop.  Bounds stated before the first run: the same
    # window, a residual no larger than curve_fit's up to a factor 1 + 1e-9,
    # and gamma within 1e-4 relative (a scratch probe of the method was
    # within 3e-5 on resolved rings); exact exponentials within 1e-9 of their
    # rate.  On A7's grid gamma is not identified (see the next test).  An
    # exact exponential's residual is rounding, and curve_fit's can be
    # exactly 0 (3 exp(-2 tau)), so there the bound is 1e-15.
    curve = _FIT_CASES[case]()
    gamma, residual, window = _curve_fit_reference(curve)
    with np.errstate(over="raise", divide="raise", invalid="raise"):
        fit = fkm.ou_fit(curve)
    assert fit.window == window
    assert fit.residual <= max(residual * (1 + 1e-9), 1e-15)
    assert abs(fit.gamma - gamma) <= 1e-4 * gamma
    if case.startswith("exp-"):
        assert abs(fit.gamma - float(case[4:])) <= 1e-9 * fit.gamma


@pytest.mark.parametrize("n", [64, 256, 1024])
def test_ou_fit_residual_on_a7_grid_no_larger_than_curve_fit(n):
    # the first lag is past the decay, so the misfit is flat in gamma and the
    # two optimizers stop at rates orders of magnitude apart; only the
    # residual is comparable
    curve = fkm.phase_autocorrelation(fkm.scaled_ring(n, beta=1.0), TAU)
    _, residual, window = _curve_fit_reference(curve)
    fit = fkm.ou_fit(curve)
    assert fit.window == window
    assert fit.residual <= residual * (1 + 1e-9)


@pytest.mark.parametrize("start", [0.5, 100.0])
def test_ou_fit_on_tau_that_starts_above_zero(start):
    tau = start + np.linspace(0.0, 3.0, 31)
    curve = fkm.AutocorrCurve(tau=tau, values=3.0 * np.exp(-2.0 * (tau - start)), kind="phase-analytic")
    with np.errstate(over="raise", divide="raise", invalid="raise"):
        fit = fkm.ou_fit(curve)
    assert fit.gamma == pytest.approx(2.0, rel=1e-9)
    assert fit.amplitude == pytest.approx(3.0 * math.exp(2.0 * start), rel=1e-9)
    assert fit.residual < 1e-12


def test_ou_fit_rejects_rates_where_every_exp_underflows(monkeypatch):
    # On tau = 600..603 every exp(-gamma tau) underflows to 0 once gamma is
    # past about 1.24; the fit's steps go there, where the misfit is inf, so
    # they are halved, and under the CLI's errstate nothing raises.
    project, underflowed = fkm._ou_project, []

    def spy(t, v, gamma):
        out = project(t, v, gamma)
        underflowed.append(not out[2].any())
        return out

    monkeypatch.setattr(fkm, "_ou_project", spy)
    tau = 600.0 + np.linspace(0.0, 3.0, 31)
    curve = fkm.AutocorrCurve(tau=tau, values=np.where(tau == tau[0], 1.0, 1e-3), kind="phase-analytic")
    with np.errstate(over="raise", divide="raise", invalid="raise"):
        fit = fkm.ou_fit(curve)
    assert any(underflowed)
    assert all(math.isfinite(x) for x in (fit.gamma, fit.amplitude, fit.residual))


@pytest.mark.parametrize("n", [8, 16])
def test_ou_fit_takes_only_steps_that_lower_the_misfit(monkeypatch, n):
    # On these curves the step search meets trial steps whose misfit equals
    # the current one; taking them moves gamma in its last digits.  Every
    # misfit comparison that lets a step through is recorded.
    taken = []

    class Misfit(float):
        def __lt__(self, other):
            return self._record(other, float(self) < float(other))

        def __le__(self, other):
            return self._record(other, float(self) <= float(other))

        def _record(self, other, result):
            if result:
                taken.append((float(self), float(other)))
            return result

    project = fkm._ou_project

    def spy(t, v, gamma):
        s, *rest = project(t, v, gamma)
        return (Misfit(s), *rest)

    monkeypatch.setattr(fkm, "_ou_project", spy)
    fkm.ou_fit(fkm.phase_autocorrelation(fkm.scaled_ring(n, beta=1.0), TAU))
    assert taken
    assert all(trial < current for trial, current in taken), [p for p in taken if not p[0] < p[1]]


def test_ou_fit_amplitude_past_float_range_is_degenerate():
    tau = np.linspace(0.0, 3.0, 31)
    values = 1.7e308 * np.exp(-tau)
    values[1:4] = 1.79e308
    curve = fkm.AutocorrCurve(tau=tau, values=values, kind="phase-analytic")
    with np.errstate(over="raise", divide="raise", invalid="raise"):
        with pytest.raises(DegenerateFitError, match=r"^fitted amplitude [0-9.e+]+ \* 2\*\*1023 is beyond the float range$"):
            fkm.ou_fit(curve)


@pytest.mark.parametrize("bad", [math.nan, math.inf])
def test_ou_fit_rejects_non_finite_curve(bad):
    values = np.exp(-TAU)
    values[3] = bad
    with pytest.raises(ValueError, match=r"^tau and values must be finite$"):
        fkm.ou_fit(fkm.AutocorrCurve(tau=TAU, values=values, kind="phase-analytic"))
    with pytest.raises(ValueError, match=r"^tau and values must be finite$"):
        fkm.ou_fit(fkm.AutocorrCurve(tau=np.where(TAU == TAU[3], bad, TAU), values=np.exp(-TAU), kind="phase-analytic"))


@pytest.mark.parametrize("start", [-2.0, -3.0, -1e-300])
def test_ou_fit_rejects_negative_tau(start):
    # tau -2, -1, 0 divided by zero for the start rate; tau -3, -2, -1 fitted
    # a window of -1.0
    tau = start + np.arange(3.0) if start <= -1 else np.array([start, 1.0, 2.0])
    curve = fkm.AutocorrCurve(tau=tau, values=np.array([1.0, 0.5, 0.2]), kind="phase-analytic")
    with pytest.raises(ValueError) as exc:
        fkm.ou_fit(curve)
    assert str(exc.value) == f"tau must be >= 0, got tau[0] = {start!r}"


def test_ou_fit_rejects_cosine_shape():
    # pilot residual 0.741
    chain = fkm.HarmonicChain(n=1, beta=1.0, omega0_sq=1.0)
    fit = fkm.ou_fit(fkm.phase_autocorrelation(chain, TAU))
    assert fit.residual > 0.1


def test_ou_fit_degenerate_inputs():
    zero = fkm.AutocorrCurve(tau=TAU, values=np.zeros_like(TAU), kind="phase-analytic")
    with pytest.raises(DegenerateFitError):
        fkm.ou_fit(zero)
    neg = fkm.AutocorrCurve(tau=TAU, values=-np.exp(-TAU), kind="phase-analytic")
    with pytest.raises(DegenerateFitError):
        fkm.ou_fit(neg)
    short = fkm.AutocorrCurve(tau=TAU[:2], values=np.exp(-TAU[:2]), kind="phase-analytic")
    with pytest.raises(DegenerateFitError):
        fkm.ou_fit(short)
    decay = fkm.AutocorrCurve(tau=TAU, values=np.exp(-TAU), kind="phase-analytic")
    for factor in (0.0, -1.0, math.nan, math.inf):
        with pytest.raises(ValueError, match=r"^window_factor must be finite and > 0"):
            fkm.ou_fit(decay, window_factor=factor)


def test_ou_residual_recomputed_from_fit():
    # A7's curves: the reported residual is the relative 2-norm misfit of
    # amplitude * exp(-gamma tau) over tau <= window
    for n in (64, 256, 1024):
        curve = fkm.phase_autocorrelation(fkm.scaled_ring(n, beta=1.0), TAU)
        fit = fkm.ou_fit(curve)
        inside = curve.tau <= fit.window
        v = curve.values[inside]
        misfit = fit.amplitude * np.exp(-fit.gamma * curve.tau[inside]) - v
        assert abs(np.linalg.norm(misfit) / np.linalg.norm(v) - fit.residual) <= 1e-12


def test_ou_residual_trend_with_ring_size():
    # pilot residuals 0.379, 0.223, 0.033
    resids = []
    for n in (64, 256, 1024):
        curve = fkm.phase_autocorrelation(fkm.scaled_ring(n, beta=1.0), TAU)
        resids.append(fkm.ou_fit(curve).residual)
    assert resids[0] >= resids[1] >= resids[2]


def test_recurrence_of_small_ring():
    # pilot: |g| returns to 0.99086 at tau = 263.89
    chain = fkm.scaled_ring(8, beta=1.0)
    tau_star, value = fkm.recurrence_peak(chain, tau_max=1e4, dt=0.01, skip=1.0)
    assert value >= 0.99
    assert value <= 1.0 + 1e-12
    assert tau_star > 1.0
    with pytest.raises(ValueError):
        fkm.recurrence_peak(chain, tau_max=10.0, dt=0.01, skip=20.0)
    for dt in (-0.01, 0.0, math.nan, math.inf, 5e-324):
        with pytest.raises(ValueError, match="dt"):
            fkm.recurrence_peak(chain, tau_max=10.0, dt=dt, skip=1.0)
    with pytest.raises(ValueError, match="tau_max"):
        fkm.recurrence_peak(chain, tau_max=math.inf, dt=0.01, skip=1.0)
    with pytest.raises(ValueError, match="dt"):  # no grid point in [0.5, 0.9]
        fkm.recurrence_peak(chain, tau_max=0.9, dt=1.0, skip=0.5)
    with pytest.raises(ValueError, match=r"^tau up to 1e\+160 is too large"):  # omega_max = 2e150
        fkm.recurrence_peak(fkm.HarmonicChain(n=8, beta=1.0, kappa=1e300), tau_max=1e160, dt=1e157, skip=1e158)


@pytest.mark.parametrize("n", [8, 9])
def test_recurrence_peak_reads_the_analytic_curve(n):
    chain = fkm.scaled_ring(n, beta=1.5)
    tau_star, value = fkm.recurrence_peak(chain, tau_max=200.0, dt=0.01, skip=1.0)
    assert abs(value - abs(fkm.phase_autocorrelation(chain, [tau_star]).values[0])) <= 1e-15


def _scan_every_grid_point(chain, tau_max, dt, skip):
    """recurrence_peak's reference: |g_n| at every grid point, first argmax."""
    t = np.arange(math.ceil(skip / dt), int(tau_max / dt) + 1) * dt
    vals = np.abs(fkm.phase_autocorrelation(chain, t).values)
    j = int(np.argmax(vals))
    return float(t[j]), float(vals[j])


_TIE = fkm.HarmonicChain(n=2, beta=1.0, omega0_sq=math.pi**2, kappa=2 * math.pi**2)  # omega = pi, 3 pi


@pytest.mark.parametrize(
    "chain, tau_max, dt, skip",
    [
        pytest.param(fkm.scaled_ring(8, beta=1.0), 1e4, 0.01, 1.0, id="a7"),
        pytest.param(fkm.scaled_ring(9, beta=1.5), 200.0, 0.01, 1.0, id="n9"),
        pytest.param(fkm.scaled_ring(5, beta=1.0), 3000.0, 0.013, 2.0, id="n5"),
        pytest.param(fkm.scaled_ring(16, beta=0.7), 2000.0, 0.003, 1.0, id="n16"),
        pytest.param(fkm.scaled_ring(8, beta=1.0), 50.0, 1e-4, 1.0, id="fine-grid"),
        pytest.param(fkm.scaled_ring(8, beta=1.0), 1.1, 0.01, 1.0, id="eleven-points-whole-scan"),
        pytest.param(fkm.scaled_ring(64, beta=1.0), 30.0, 0.01, 1.0, id="stride-2"),
        # |g| is exactly 1.0 at every integer tau: the first wins
        pytest.param(_TIE, 10.0, 1 / 64, 0.5, id="tie"),
        pytest.param(_TIE, 9000.0, 1 / 64, 0.5, id="tie-across-blocks"),
        # |g| is within rounding of 1.0 at every integer tau: without the
        # slack the approximation's own maximum picks the wrong one
        pytest.param(_TIE, 1000.0, 0.01, 0.5, id="tie-dt-0.01"),
        pytest.param(fkm.scaled_ring(256, beta=1.0), 1000.0, 0.01, 1.0, id="n256"),
        # the window ends just before A7's peak at 263.89, on the rise to it
        pytest.param(fkm.scaled_ring(8, beta=1.0), 263.88, 0.01, 263.0, id="peak-past-the-end"),
        # the approximation's last row runs past the window to |g| = 0.88 at 52.89
        pytest.param(fkm.scaled_ring(8, beta=1.0), 52.16, 0.01, 1.0, id="row-past-the-end"),
    ],
)
def test_recurrence_peak_matches_full_scan(monkeypatch, chain, tau_max, dt, skip):
    evaluated = []
    curve = fkm.phase_autocorrelation
    monkeypatch.setattr(fkm, "phase_autocorrelation", lambda ch, t: evaluated.append(len(t)) or curve(ch, t))
    got = fkm.recurrence_peak(chain, tau_max=tau_max, dt=dt, skip=skip)
    assert min(evaluated) >= 2  # the per-point bits hold for blocks of 2 or more
    reference = _scan_every_grid_point(chain, tau_max, dt, skip)
    assert got == reference
    if chain is _TIE:
        assert reference == (1.0, 1.0)
    if tau_max == 1e4:  # A7: 2 of 999 901 points
        assert sum(evaluated[:-1]) < 5000


def test_recurrence_peak_memory_does_not_grow_with_the_grid():
    # Bound in doubles: one block of the approximation (its angles, its
    # coarse table and its product, within _BLOCK_VALUES), the fine table and
    # the exact evaluation of a few points; no term grows with the grid.
    # Holding |g_n| at all 10^7 points would take 80 MB.
    chain = fkm.scaled_ring(8, beta=1.0)
    bound = 8 * 2 * fkm._BLOCK_VALUES
    peak = traced_peak(lambda: fkm.recurrence_peak(chain, tau_max=1e5, dt=0.01, skip=1.0))
    assert peak < bound, f"peak {peak / 1e6:.1f} MB over the {bound / 1e6:.1f} MB bound"


@pytest.mark.parametrize(
    "horizon, tau, oversample",
    [
        pytest.param(math.inf, TAU, 4, id="inf"),
        pytest.param(math.nan, TAU, 4, id="nan"),
        pytest.param(20.0, TAU, 4, id="20.0"),
        pytest.param(1e308, TAU, 4, id="too-many-steps"),  # horizon / dt is not finite
        pytest.param(1e308, np.array([0.0, 20.0]), 1, id="too-wide-angle"),  # N omega_max dt is not finite
    ],
)
def test_time_autocorrelation_rejects_bad_horizon(horizon, tau, oversample):
    chain = fkm.scaled_ring(8, beta=1.0)
    with pytest.raises(ValueError, match="horizon"):
        fkm.time_autocorrelation(chain, fkm.sample_gibbs(chain, 1), horizon, tau, oversample=oversample)
