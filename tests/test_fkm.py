"""Harmonic ring: modes, Gibbs sampling, autocorrelations, OU fit.

Stochastic assertions use fixed seeds with thresholds frozen from pilot
runs; the pilot value is noted next to each.
"""

import math

import numpy as np
import pytest

from mingsim import fkm
from mingsim.errors import (
    DegenerateFitError,
    IndefiniteFormError,
    ZeroModeError,
)

TAU = np.linspace(0.0, 20.0, 200)


def energy(stiffness, x):
    """H = (p.p + q^T K q) / 2, from the site-basis stiffness matrix K."""
    return 0.5 * (x.p @ x.p + x.q @ stiffness @ x.q)


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
    k = fkm.stiffness_matrix(chain)
    recon = v @ np.diag(modes.frequencies**2) @ v.T
    assert np.abs(recon - k).max() < 1e-10


def test_dispersion_matches_dense_eigensolver():
    chain = fkm.HarmonicChain(n=8, beta=1.0, omega0_sq=1.0, kappa=1.7)
    k = np.arange(8)
    expected = np.sort(chain.omega0_sq + 4 * chain.kappa * np.sin(np.pi * k / 8) ** 2)
    assert np.allclose(np.sort(fkm.dft_frequencies(chain) ** 2), expected, atol=1e-12)
    dense = np.linalg.eigvalsh(fkm.stiffness_matrix(chain))
    assert np.allclose(np.sort(fkm.normal_modes(chain).frequencies ** 2), dense, atol=1e-10)


def test_indefinite_form_rejected():
    chain = fkm.HarmonicChain(n=8, beta=1.0, omega0_sq=1.0, kappa=-1.0)
    with pytest.raises(IndefiniteFormError):
        fkm.normal_modes(chain)


# ---------------------------------------------------------------------------
# analytic phase curve
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("beta", [1.0, 3.0])
def test_phase_curve_at_zero_is_inverse_beta_exactly(beta):
    chain = fkm.scaled_ring(16, beta=beta)
    curve = fkm.phase_autocorrelation(chain, TAU)
    assert curve.values[0] == 1.0 / beta
    assert curve.kind == "phase-analytic"


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


def test_gibbs_rejects_zero_mode():
    chain = fkm.HarmonicChain(n=8, beta=1.0, omega0_sq=0.0, kappa=1.0)
    with pytest.raises(ZeroModeError):
        fkm.sample_gibbs(chain, 0)


def test_gibbs_mean_energy_equipartition():
    # E[H] = n/beta; pilot z = -0.45 at this seed
    chain = fkm.scaled_ring(8, beta=1.0)
    k = fkm.stiffness_matrix(chain)
    rng = np.random.default_rng(7)
    vals = np.array([energy(k, fkm.sample_gibbs(chain, rng)) for _ in range(100_000)])
    se = vals.std(ddof=1) / math.sqrt(len(vals))
    assert abs(vals.mean() - 8.0) < 3 * se


def test_gibbs_energy_scales_inversely_with_beta():
    chain_hot = fkm.scaled_ring(8, beta=1.0)
    chain_cold = fkm.scaled_ring(8, beta=10.0)
    k_hot, k_cold = fkm.stiffness_matrix(chain_hot), fkm.stiffness_matrix(chain_cold)
    rng = np.random.default_rng(5)
    e_hot = np.mean([energy(k_hot, fkm.sample_gibbs(chain_hot, rng)) for _ in range(20_000)])
    e_cold = np.mean([energy(k_cold, fkm.sample_gibbs(chain_cold, rng)) for _ in range(20_000)])
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
    assert energy(fkm.stiffness_matrix(chain), x) == pytest.approx(7.5, rel=1e-12)
    with pytest.raises(ValueError):
        fkm.single_mode_state(chain, 16, energy=1.0)


# ---------------------------------------------------------------------------
# evolution (the exact flow lives in the trajectory kernel)
# ---------------------------------------------------------------------------


def test_evolve_identity_at_zero():
    chain = fkm.scaled_ring(8, beta=1.0)
    x = fkm.sample_gibbs(chain, 1)
    series = fkm._site0_momentum_series(chain, x, 0.1, 3)
    assert series[0] == pytest.approx(x.p[0], rel=1e-12)


def test_quarter_period_rotation():
    # single oscillator at omega = 2: (q, p) -> (p/omega, -omega q)
    chain = fkm.HarmonicChain(n=1, beta=1.0, omega0_sq=4.0)
    x = fkm.PhasePoint(q=np.array([0.3]), p=np.array([-1.1]))
    series = fkm._site0_momentum_series(chain, x, math.pi / 4, 2)
    assert series[1] == pytest.approx(-2.0 * 0.3, abs=1e-12)


def test_zero_mode_streams_freely():
    # a uniform state moves only the zero mode, whose momentum stays put
    chain = fkm.HarmonicChain(n=4, beta=1.0, omega0_sq=0.0, kappa=1.0)
    ones = np.ones(4)
    x = fkm.PhasePoint(q=0.2 * ones, p=0.5 * ones)
    series = fkm._site0_momentum_series(chain, x, 0.75, 5)
    assert np.allclose(series, 0.5, rtol=0.0, atol=1e-12)


# ---------------------------------------------------------------------------
# Monte-Carlo phase estimate
# ---------------------------------------------------------------------------


def test_mc_matches_analytic_within_three_stderr():
    # pilot max |z| = 2.13 at this seed
    chain = fkm.scaled_ring(8, beta=1.0)
    ana = fkm.phase_autocorrelation(chain, TAU)
    mc = fkm.mc_phase_autocorrelation(chain, TAU, samples=100_000, seed=10)
    assert mc.kind == "phase-monte-carlo"
    assert (mc.stderr > 0).all()
    assert (np.abs(mc.values - ana.values) < 3 * mc.stderr).all()


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
    res = fkm.time_autocorrelation(chain, x0, horizon, TAU, oversample=4)
    assert res.curve.kind == "time-trajectory"
    assert res.sup_gap < 0.2
    assert abs(res.curve.values[0] - 1.0) < 0.2


def test_single_mode_start_violates_phase_average():
    # pilot gap 2.28: one excited cosine mode keeps a pure cosine correlation
    chain = _small_ring()
    horizon = 1e3 * 2 * math.pi / fkm.dft_frequencies(chain).max()
    x_bad = fkm.single_mode_state(chain, 31, energy=64.0)
    res = fkm.time_autocorrelation(chain, x_bad, horizon, TAU, oversample=4)
    assert res.sup_gap > 1.0


def test_time_autocorrelation_grid_validation():
    chain = _small_ring()
    x0 = fkm.sample_gibbs(chain, 0)
    with pytest.raises(ValueError):
        fkm.time_autocorrelation(chain, x0, 100.0, np.array([1.0, 2.0]))
    with pytest.raises(ValueError):
        fkm.time_autocorrelation(chain, x0, 100.0, np.array([0.0, 1.0, 3.0]))
    with pytest.raises(ValueError):
        fkm.time_autocorrelation(chain, x0, 10.0, TAU)
    with pytest.raises(ValueError):
        fkm.time_autocorrelation(chain, x0, 100.0, TAU, oversample=0)


def _direct_series(chain, x0, dt, total):
    # the cos/sin evaluation over every mode column, independent of the phasor kernel
    modes = fkm.normal_modes(chain)
    q = modes.vectors.T @ x0.q
    p = modes.vectors.T @ x0.p
    w_site = modes.vectors[0, :]
    omega = modes.frequencies
    phases = np.outer(np.arange(total) * dt, omega)
    return np.cos(phases) @ (w_site * p) - np.sin(phases) @ (w_site * omega * q)


def _random_point(n, seed):
    rng = np.random.default_rng(seed)
    return fkm.PhasePoint(q=rng.normal(size=n), p=rng.normal(size=n))


@pytest.mark.parametrize(
    "chain",
    [
        fkm.HarmonicChain(n=17, beta=1.0, omega0_sq=1.0, kappa=1.0),
        fkm.HarmonicChain(n=32, beta=2.0, omega0_sq=0.5, kappa=3.0),
        fkm.HarmonicChain(n=12, beta=1.0, omega0_sq=0.0, kappa=1.0),  # omega = 0 column
    ],
    ids=["odd", "even", "zero-mode"],
)
def test_time_autocorrelation_matches_direct_evaluation(chain):
    x0 = _random_point(chain.n, chain.n)
    tau = np.linspace(0.0, 5.0, 21)
    oversample = 3
    dt = (tau[1] - tau[0]) / oversample
    horizon = 300.0  # several series chunks, the last one partial
    n_base = int(math.ceil(horizon / dt))
    total = n_base + (len(tau) - 1) * oversample
    direct = _direct_series(chain, x0, dt, total)
    scale = np.abs(direct).max()
    assert np.abs(fkm._site0_momentum_series(chain, x0, dt, total) - direct).max() <= 1e-10 * scale
    direct_curve = np.array(
        [direct[:n_base] @ direct[j * oversample : j * oversample + n_base] / n_base for j in range(len(tau))]
    )
    res = fkm.time_autocorrelation(chain, x0, horizon, tau, oversample=oversample)
    assert np.abs(res.curve.values - direct_curve).max() <= 1e-10 * scale**2


@pytest.mark.parametrize("n", [1, 2, 7, 8, 255, 256])
def test_site0_weight_vanishes_on_every_sin_column(n):
    # the trajectory kernel drops exactly these columns
    row = fkm.normal_modes(fkm.HarmonicChain(n=n, beta=1.0)).vectors[0]
    assert np.all(row[2::2] == 0.0)
    assert np.count_nonzero(row) == n // 2 + 1


# ---------------------------------------------------------------------------
# OU fit and recurrence
# ---------------------------------------------------------------------------


def test_ou_fit_recovers_exact_exponential():
    curve = fkm.AutocorrCurve(tau=TAU, values=np.exp(-2.0 * TAU), kind="phase-analytic")
    fit = fkm.ou_fit(curve)
    assert abs(fit.gamma - 2.0) < 1e-9
    assert fit.residual < 1e-10


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


@pytest.mark.parametrize("horizon", [math.inf, math.nan, 20.0])
def test_time_autocorrelation_rejects_bad_horizon(horizon):
    chain = fkm.scaled_ring(8, beta=1.0)
    with pytest.raises(ValueError, match="horizon"):
        fkm.time_autocorrelation(chain, fkm.sample_gibbs(chain, 1), horizon, TAU)
