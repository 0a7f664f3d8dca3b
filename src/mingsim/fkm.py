"""Classical harmonic ring and its momentum autocorrelation.

The chain couples n unit masses on a ring,

    H = sum_i p_i^2 / 2 + (1/2) q^T K q,
    K = omega0_sq * I + kappa * (2 I - S - S^T),      S = cyclic shift,

so the normal-mode frequencies are omega_k^2 = omega0_sq
+ 4 kappa sin^2(pi k / n).  Everything downstream works in the real
orthonormal mode basis (cos/sin pairs), in which the flow is an exact
per-mode rotation.

The site-0 momentum autocorrelation under the Gibbs phase average has the
closed form

    g_n(tau) = (1 / (beta n)) * sum_k cos(omega_k tau),        g_n(0) = 1/beta,

which serves as the reference curve for the Monte-Carlo estimator (phase
average over Gibbs samples) and the single-trajectory time average
(stroboscopic products along one exactly-evolved orbit).  The default
size scaling kappa(n) = kappa0 * n^2 / pi^2 keeps the low end of the mode
spectrum on a fixed profile while the band edge grows with n; it is the
schedule used by the convergence-trend checks and is a configuration
choice, not a derived quantity.
"""

from __future__ import annotations

import functools
import math
import warnings
from dataclasses import dataclass

import numpy as np
import scipy.optimize

from .errors import DegenerateFitError, IndefiniteFormError, ZeroModeError

_FREQ_SQ_TOL = 1e-12

# Monte-Carlo samples drawn per block.  It fixes how the normal draws split
# between p and q, and so the output bytes; it is not a memory knob.
_MC_CHUNK = 20000

_OU_MAX_ITER = 8  # window refits in ou_fit


@dataclass(frozen=True)
class HarmonicChain:
    """Ring of n unit masses with on-site stiffness and nearest-neighbor coupling."""

    n: int
    beta: float
    omega0_sq: float = 1.0
    kappa: float = 0.0

    def __post_init__(self) -> None:
        if self.n < 1:
            raise ValueError(f"ring needs at least one site, got n={self.n}")
        if not self.beta > 0:
            raise ValueError(f"inverse temperature must be positive, got {self.beta}")


def scaled_ring(n: int, beta: float, kappa0: float = 1.0, omega0_sq: float = 1.0) -> HarmonicChain:
    """Chain with the documented default coupling schedule kappa0 * n^2 / pi^2."""
    return HarmonicChain(n=n, beta=beta, omega0_sq=omega0_sq, kappa=kappa0 * n**2 / math.pi**2)


def stiffness_matrix(chain: HarmonicChain) -> np.ndarray:
    n = chain.n
    k = np.zeros((n, n))
    idx = np.arange(n)
    k[idx, idx] = chain.omega0_sq + 2 * chain.kappa
    k[idx, (idx + 1) % n] -= chain.kappa
    k[idx, (idx - 1) % n] -= chain.kappa
    return k


def dft_frequencies(chain: HarmonicChain) -> np.ndarray:
    """omega_k over the DFT index k = 0..n-1 (the k and n-k entries coincide)."""
    k = np.arange(chain.n)
    w2 = chain.omega0_sq + 4.0 * chain.kappa * np.sin(np.pi * k / chain.n) ** 2
    if (w2 < -_FREQ_SQ_TOL).any():
        raise IndefiniteFormError("quadratic form has negative mode frequencies")
    return np.sqrt(np.clip(w2, 0.0, None))


@dataclass(frozen=True)
class NormalModes:
    """Real orthonormal eigenbasis of the stiffness circulant.

    Column order is DFT index 0, then (cos, sin) pairs for k = 1.., then
    the alternating mode for even n.  `frequencies[j]` belongs to column j.
    """

    frequencies: np.ndarray
    vectors: np.ndarray

    def __post_init__(self) -> None:
        self.frequencies.setflags(write=False)
        self.vectors.setflags(write=False)


@functools.lru_cache(maxsize=32)
def normal_modes(chain: HarmonicChain) -> NormalModes:
    # cached; safe because the returned arrays are read-only
    n = chain.n
    w_dft = dft_frequencies(chain)
    j = np.arange(n)
    cols = [np.full(n, 1.0 / math.sqrt(n))]
    freqs = [w_dft[0]]
    for k in range(1, (n + 1) // 2):
        theta = 2.0 * np.pi * k * j / n
        cols.append(np.sqrt(2.0 / n) * np.cos(theta))
        freqs.append(w_dft[k])
        cols.append(np.sqrt(2.0 / n) * np.sin(theta))
        freqs.append(w_dft[k])
    if n % 2 == 0:
        cols.append(np.where(j % 2 == 0, 1.0, -1.0) / math.sqrt(n))
        freqs.append(w_dft[n // 2])
    return NormalModes(frequencies=np.array(freqs), vectors=np.column_stack(cols))


@dataclass(frozen=True)
class PhasePoint:
    q: np.ndarray
    p: np.ndarray

    def __post_init__(self) -> None:
        q = np.asarray(self.q, dtype=float)
        p = np.asarray(self.p, dtype=float)
        if q.shape != p.shape or q.ndim != 1:
            raise ValueError("q and p must be 1-d arrays of equal length")
        object.__setattr__(self, "q", q)
        object.__setattr__(self, "p", p)
        self.q.setflags(write=False)
        self.p.setflags(write=False)


def sample_gibbs(chain: HarmonicChain, seed) -> PhasePoint:
    """Draw one phase point from the Gibbs measure exp(-beta H).

    Mode coordinates are independent Gaussians: Var Q_k = 1/(beta w_k^2),
    Var P_k = 1/beta.  Zero modes have no Gibbs marginal and are rejected.
    """
    modes = normal_modes(chain)
    if (modes.frequencies <= math.sqrt(_FREQ_SQ_TOL)).any():
        raise ZeroModeError("chain has a zero mode; the Gibbs measure is not normalizable")
    rng = seed if isinstance(seed, np.random.Generator) else np.random.default_rng(seed)
    n = chain.n
    q_modes = rng.normal(size=n) / (math.sqrt(chain.beta) * modes.frequencies)
    p_modes = rng.normal(size=n) / math.sqrt(chain.beta)
    return PhasePoint(q=modes.vectors @ q_modes, p=modes.vectors @ p_modes)


def single_mode_state(chain: HarmonicChain, mode: int, energy: float) -> PhasePoint:
    """All of `energy` in one normal mode's momentum; the equipartition violator."""
    modes = normal_modes(chain)
    if not 0 <= mode < chain.n:
        raise ValueError(f"mode index {mode} out of range")
    p_modes = np.zeros(chain.n)
    p_modes[mode] = math.sqrt(2.0 * energy)
    return PhasePoint(q=np.zeros(chain.n), p=modes.vectors @ p_modes)


# ---------------------------------------------------------------------------
# autocorrelation curves
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class AutocorrCurve:
    """Sampled autocorrelation of the site-0 momentum."""

    tau: np.ndarray
    values: np.ndarray
    kind: str  # "phase-analytic" | "phase-monte-carlo" | "time-trajectory"
    stderr: np.ndarray | None = None

    def __post_init__(self) -> None:
        if self.tau.shape != self.values.shape:
            raise ValueError("tau and values must have matching shapes")
        self.tau.setflags(write=False)
        self.values.setflags(write=False)
        if self.stderr is not None:
            self.stderr.setflags(write=False)


def phase_autocorrelation(chain: HarmonicChain, tau_grid) -> AutocorrCurve:
    """Analytic Gibbs phase average: (1/(beta n)) sum_k cos(omega_k tau)."""
    tau = np.asarray(tau_grid, dtype=float)
    w = dft_frequencies(chain)
    values = np.cos(np.outer(w, tau)).mean(axis=0) / chain.beta
    return AutocorrCurve(tau=tau, values=values, kind="phase-analytic")


def mc_phase_autocorrelation(
    chain: HarmonicChain,
    tau_grid,
    samples: int,
    seed,
) -> AutocorrCurve:
    """Monte-Carlo phase average of p0(0) p0(tau) over Gibbs samples.

    Works in mode coordinates throughout; per-tau standard errors come from
    the sample variance.  Samples are drawn in fixed blocks of _MC_CHUNK,
    which keeps the draw split and the accumulation order, and with them
    the output bytes, independent of memory pressure.
    """
    if samples < 2:
        raise ValueError("need at least two samples")
    tau = np.asarray(tau_grid, dtype=float)
    modes = normal_modes(chain)
    if (modes.frequencies <= math.sqrt(_FREQ_SQ_TOL)).any():
        raise ZeroModeError("chain has a zero mode; the Gibbs measure is not normalizable")
    rng = seed if isinstance(seed, np.random.Generator) else np.random.default_rng(seed)
    w_site = modes.vectors[0, :]
    omega = modes.frequencies
    cos_t = np.cos(np.outer(omega, tau))
    sin_t = np.sin(np.outer(omega, tau))
    sum1 = np.zeros(tau.shape)
    sum2 = np.zeros(tau.shape)
    done = 0
    sqrt_beta = math.sqrt(chain.beta)
    while done < samples:
        m = min(_MC_CHUNK, samples - done)
        p_modes = rng.normal(size=(m, chain.n)) / sqrt_beta
        q_modes = rng.normal(size=(m, chain.n)) / (sqrt_beta * omega)
        a = p_modes @ w_site
        b = (p_modes * w_site) @ cos_t - (q_modes * (w_site * omega)) @ sin_t
        prod = a[:, None] * b
        sum1 += prod.sum(axis=0)
        sum2 += (prod**2).sum(axis=0)
        done += m
    mean = sum1 / samples
    var = (sum2 - samples * mean**2) / (samples - 1)
    stderr = np.sqrt(np.clip(var, 0.0, None) / samples)
    return AutocorrCurve(tau=tau, values=mean, kind="phase-monte-carlo", stderr=stderr)


@dataclass(frozen=True)
class TimeAutocorrelation:
    curve: AutocorrCurve
    sup_gap: float


def _site0_momentum_series(chain: HarmonicChain, x0: PhasePoint, dt: float, total: int) -> np.ndarray:
    """p0(j dt) for j = 0..total-1 along the exact orbit from x0."""
    modes = normal_modes(chain)
    q, p = modes.vectors.T @ x0.q, modes.vectors.T @ x0.p
    w_site = modes.vectors[0, :]
    keep = w_site != 0.0
    omega = modes.frequencies[keep]
    coef = w_site[keep] * (p[keep] + 1j * omega * q[keep])
    chunk = min(1 << 10, total)
    rotation = np.exp(1j * np.outer(np.arange(chunk) * dt, omega))
    series = np.empty(total)
    for start in range(0, total, chunk):
        stop = min(start + chunk, total)
        series[start:stop] = (rotation[: stop - start] @ (coef * np.exp(1j * omega * (start * dt)))).real
    return series


def time_autocorrelation(
    chain: HarmonicChain,
    x0: PhasePoint,
    horizon: float,
    tau_grid,
    oversample: int = 32,
) -> TimeAutocorrelation:
    """Single-trajectory stroboscopic time average of p0(t) p0(t+tau).

    The trajectory is evaluated exactly in mode coordinates on a grid
    `oversample` times finer than the (uniform, zero-based) tau grid, and
    the estimate at tau_j averages products over the horizon.  Also returns
    the sup-norm gap to the analytic phase curve on the same grid, the
    agreement metric between time statistics and the Gibbs average.

    The site-0 momentum is the phasor sum p0(t) = Re sum_k c_k exp(i w_k t)
    with c_k = v_0k (p_k + i w_k q_k), where v_0k is the site-0 weight of
    mode k.  Columns with v_0k == 0.0 exactly (the sin half of every pair)
    contribute nothing and are dropped.  The series is built chunk by chunk
    as one complex mat-vec of a fixed block exp(i w_k j dt) with the
    coefficients rotated to the chunk start, exp(i w_k t0) c_k; each chunk's
    rotation is computed directly from t0, so rounding does not accumulate
    along the trajectory.
    """
    tau = np.asarray(tau_grid, dtype=float)
    if tau.ndim != 1 or len(tau) < 2:
        raise ValueError("tau grid must hold at least two points")
    step = tau[1] - tau[0]
    if tau[0] != 0.0 or step <= 0 or not np.allclose(np.diff(tau), step, rtol=1e-9):
        raise ValueError("tau grid must be uniform and start at 0")
    if not (math.isfinite(horizon) and horizon > tau[-1]):
        raise ValueError(f"horizon {horizon:.6g} must be finite and exceed the largest tau {tau[-1]:.6g}")
    if oversample < 1:
        raise ValueError("oversample must be at least 1")
    dt = step / oversample
    n_lags = (len(tau) - 1) * oversample
    n_base = int(math.ceil(horizon / dt))
    series = _site0_momentum_series(chain, x0, dt, n_base + n_lags)
    base = series[:n_base]
    values = np.empty(len(tau))
    for j in range(len(tau)):
        off = j * oversample
        values[j] = base @ series[off : off + n_base] / n_base
    curve = AutocorrCurve(tau=tau, values=values, kind="time-trajectory")
    phase = phase_autocorrelation(chain, tau)
    gap = float(np.abs(curve.values - phase.values).max())
    return TimeAutocorrelation(curve=curve, sup_gap=gap)


def recurrence_peak(
    chain: HarmonicChain,
    tau_max: float,
    dt: float,
    skip: float,
) -> tuple[float, float]:
    """Largest |g_n| on [skip, tau_max]; quasi-periodic revisit probe.

    The analytic curve is a finite cosine sum, so it keeps returning
    arbitrarily close to g_n(0); this scans a window and reports where and
    how closely.  Distinct frequencies are collapsed first (the k and n-k
    branches coincide), which makes long scans cheap for small rings.
    """
    if not 0 < skip < tau_max:
        raise ValueError("need 0 < skip < tau_max")
    w = dft_frequencies(chain)
    w_unique, counts = np.unique(np.round(w, 12), return_counts=True)
    weights = counts / (chain.n * chain.beta)
    best_tau = skip
    best_val = -np.inf
    chunk = 1 << 17
    n_pts = int(tau_max / dt) + 1
    start_idx = int(math.ceil(skip / dt))
    for lo in range(start_idx, n_pts, chunk):
        hi = min(lo + chunk, n_pts)
        t = np.arange(lo, hi) * dt
        vals = np.abs(np.cos(np.outer(t, w_unique)) @ weights)
        j = int(np.argmax(vals))
        if vals[j] > best_val:
            best_val = float(vals[j])
            best_tau = float(t[j])
    return best_tau, best_val


# ---------------------------------------------------------------------------
# the OU fit
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class OuFit:
    gamma: float
    amplitude: float
    residual: float
    window: float  # fit used tau <= window


def ou_fit(curve: AutocorrCurve, window_factor: float = 5.0) -> OuFit:
    """Least-squares fit of c * exp(-gamma tau) on the window tau <= window_factor / gamma.

    The window is found self-consistently: fit, shrink the window to
    window_factor / gamma_hat, refit, until stable or after _OU_MAX_ITER
    fits.  The residual is the 2-norm misfit divided by the 2-norm of the
    data on the final window.
    """
    tau = curve.tau
    vals = curve.values
    if len(tau) < 3:
        raise DegenerateFitError("need at least three curve points")
    if not np.any(vals != 0.0):
        raise DegenerateFitError("curve is identically zero")
    if vals[0] <= 0.0:
        raise DegenerateFitError("curve must be positive at tau = 0")

    # crossing of values[0]/e sets the first rate guess
    below = np.nonzero(vals < vals[0] / math.e)[0]
    tau_e = tau[below[0]] if len(below) and tau[below[0]] > 0 else tau[-1]
    gamma = 1.0 / tau_e

    model = lambda t, c, g: c * np.exp(-g * t)
    n_window = len(tau)
    for _ in range(_OU_MAX_ITER):
        cut = window_factor / gamma
        new_window = int(np.searchsorted(tau, cut, side="right"))
        new_window = max(new_window, 3)
        t_fit = tau[:new_window]
        v_fit = vals[:new_window]
        try:
            with warnings.catch_warnings():
                # the covariance is unused, its conditioning is irrelevant here
                warnings.simplefilter("ignore", scipy.optimize.OptimizeWarning)
                (c_hat, gamma_hat), _ = scipy.optimize.curve_fit(
                    model, t_fit, v_fit, p0=(vals[0], gamma), maxfev=20000
                )
        except RuntimeError as exc:
            raise DegenerateFitError(f"exponential fit failed to converge: {exc}") from exc
        if gamma_hat <= 0 or c_hat <= 0:
            raise DegenerateFitError(
                f"fit left the decay family (c={c_hat:.3g}, gamma={gamma_hat:.3g})"
            )
        gamma = float(gamma_hat)
        if new_window == n_window:
            break
        n_window = new_window
    t_fit = tau[:n_window]
    v_fit = vals[:n_window]
    resid = float(
        np.linalg.norm(model(t_fit, c_hat, gamma) - v_fit) / np.linalg.norm(v_fit)
    )
    return OuFit(gamma=gamma, amplitude=float(c_hat), residual=resid, window=float(t_fit[-1]))
