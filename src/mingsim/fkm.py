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
(stroboscopic products along one exactly-evolved orbit).  Each estimator
returns only its AutocorrCurve; comparing it with the closed form is left
to the caller, which builds the reference once.  The default
size scaling kappa(n) = kappa0 * n^2 / pi^2 keeps the low end of the mode
spectrum on a fixed profile while the band edge grows with n; it is the
schedule used by the convergence-trend checks and is a configuration
choice, not a derived quantity.
"""

from __future__ import annotations

import functools
import math
import warnings
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass

import numpy as np
import scipy.optimize

from .errors import DegenerateFitError, IndefiniteFormError, ZeroModeError

_FREQ_SQ_TOL = 1e-12

# Monte-Carlo samples per chunk.  Each chunk draws all of its p normals,
# then all of its q normals, so the chunk fixes how the stream splits between
# p and q, and with it the output bytes; it is not a memory knob.
_MC_CHUNK = 20000

# Normal draws per row block (~2 MB of doubles).  The row blocks cut the
# chunk's stream without reordering it: a memory bound only.  With the draw
# one block ahead, up to two blocks of draws are alive at once.
_MC_BLOCK_VALUES = 1 << 18

# Angles computed at once by normal_modes and per recurrence_peak chunk
# (~8 MB of doubles).
_MODE_BLOCK_VALUES = 1 << 20

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
        for name in ("beta", "omega0_sq", "kappa"):
            if not math.isfinite(getattr(self, name)):
                raise ValueError(f"{name} must be finite, got {getattr(self, name)}")
        if not self.beta > 0:
            raise ValueError(f"inverse temperature must be positive, got {self.beta}")


def scaled_ring(n: int, beta: float, kappa0: float = 1.0, omega0_sq: float = 1.0) -> HarmonicChain:
    """Chain with the documented default coupling schedule kappa0 * n^2 / pi^2."""
    kappa = kappa0 * n**2 / math.pi**2
    if not math.isfinite(kappa):
        raise ValueError(f"coupling kappa0 * n^2 / pi^2 is not finite for kappa0={kappa0!r}, n={n}")
    return HarmonicChain(n=n, beta=beta, omega0_sq=omega0_sq, kappa=kappa)


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
    """Mode table of the ring, cached; safe because its arrays are read-only.

    The cos/sin pairs are filled into one preallocated array, a block of
    pairs at a time (at most _MODE_BLOCK_VALUES angles per block).  Each
    entry is the same expression, sqrt(2/n) * cos(2 pi k j / n) (or sin),
    evaluated elementwise, so the block size moves no bit of the table.
    """
    n = chain.n
    w_dft = dft_frequencies(chain)
    j = np.arange(n)
    vectors = np.empty((n, n))
    vectors[:, 0] = 1.0 / math.sqrt(n)
    half = (n + 1) // 2  # pairs k = 1 .. half - 1, in columns 2k - 1 and 2k
    step = max(1, _MODE_BLOCK_VALUES // n)
    for lo in range(1, half, step):
        hi = min(lo + step, half)
        theta = 2.0 * np.pi * np.arange(lo, hi) * j[:, None] / n
        vectors[:, 2 * lo - 1 : 2 * hi - 1 : 2] = np.sqrt(2.0 / n) * np.cos(theta)
        vectors[:, 2 * lo : 2 * hi : 2] = np.sqrt(2.0 / n) * np.sin(theta)
    if n % 2 == 0:
        vectors[:, n - 1] = np.where(j % 2 == 0, 1.0, -1.0) / math.sqrt(n)
    # column c is DFT index (c + 1) // 2: 0, then each pair, then n/2
    return NormalModes(frequencies=w_dft[(j + 1) // 2], vectors=vectors)


@dataclass(frozen=True)
class PhasePoint:
    q: np.ndarray
    p: np.ndarray

    def __post_init__(self) -> None:
        q = np.asarray(self.q, dtype=float)
        p = np.asarray(self.p, dtype=float)
        if q.shape != p.shape or q.ndim != 1:
            raise ValueError("q and p must be 1-d arrays of equal length")
        if not (np.isfinite(q).all() and np.isfinite(p).all()):
            raise ValueError("q and p must be finite")
        object.__setattr__(self, "q", q)
        object.__setattr__(self, "p", p)
        self.q.setflags(write=False)
        self.p.setflags(write=False)


def _gibbs_start(chain: HarmonicChain, seed) -> tuple[NormalModes, np.random.Generator]:
    """Modes and generator for Gibbs draws; zero modes have no Gibbs marginal."""
    modes = normal_modes(chain)
    if (modes.frequencies <= math.sqrt(_FREQ_SQ_TOL)).any():
        raise ZeroModeError("chain has a zero mode; the Gibbs measure is not normalizable")
    return modes, np.random.default_rng(seed)


def sample_gibbs(chain: HarmonicChain, seed) -> PhasePoint:
    """Draw one phase point from the Gibbs measure exp(-beta H).

    Mode coordinates are independent Gaussians: Var Q_k = 1/(beta w_k^2),
    Var P_k = 1/beta.  Zero modes have no Gibbs marginal and are rejected.
    """
    modes, rng = _gibbs_start(chain, seed)
    n = chain.n
    q_modes = rng.normal(size=n) / (math.sqrt(chain.beta) * modes.frequencies)
    p_modes = rng.normal(size=n) / math.sqrt(chain.beta)
    return PhasePoint(q=modes.vectors @ q_modes, p=modes.vectors @ p_modes)


def single_mode_state(chain: HarmonicChain, mode: int, energy: float) -> PhasePoint:
    """All of `energy` in one normal mode's momentum; the equipartition violator."""
    if not 0 <= mode < chain.n:
        raise ValueError(f"mode index {mode} out of range")
    p = normal_modes(chain).vectors[:, mode] * math.sqrt(2.0 * energy)
    return PhasePoint(q=np.zeros(chain.n), p=p)


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
    """Analytic Gibbs phase average: (1/(beta n)) sum_k cos(omega_k tau).

    Since omega_k = omega_{n-k}, the sum takes DFT index 0 once, each pair
    k = 1..ceil(n/2)-1 once with weight 2, and k = n/2 once for even n.  The
    sums are numpy reductions, not BLAS products, so the bits do not depend
    on the BLAS thread count.  At tau = 0 the total is exactly n, so
    g_n(0) == 1/beta holds exactly.
    """
    tau = np.asarray(tau_grid, dtype=float)
    w = dft_frequencies(chain)
    n = chain.n
    total = np.cos(w[0] * tau) + 2.0 * np.cos(np.outer(w[1 : (n + 1) // 2], tau)).sum(axis=0)
    if n % 2 == 0:
        total += np.cos(w[n // 2] * tau)
    values = total / n / chain.beta
    return AutocorrCurve(tau=tau, values=values, kind="phase-analytic")


def mc_phase_autocorrelation(
    chain: HarmonicChain,
    tau_grid,
    samples: int,
    seed,
) -> AutocorrCurve:
    """Monte-Carlo phase average of p0(0) p0(tau) over Gibbs samples.

    Works in mode coordinates throughout: with P_k, Q_k the Gibbs mode
    draws and v_k = vectors[0, k] the site-0 weights, each sample gives
    p0(0) = sum_k v_k P_k and p0(tau) = sum_k v_k (P_k cos w_k tau
    - w_k Q_k sin w_k tau).  Per-tau standard errors come from the sample
    variance.

    Samples come in chunks of _MC_CHUNK.  Each chunk draws its p normals in
    row blocks, then its q normals in the same blocks; numpy fills an (m, n)
    draw row by row, so this is the stream of one (m, n) p draw followed by
    one (m, n) q draw.  A block is a multiple of 8 rows holding about
    _MC_BLOCK_VALUES doubles (a lone last row joins the block before it),
    so memory is O(_MC_BLOCK_VALUES + _MC_CHUNK * len(tau)) whatever n is.
    The tau products skip the columns whose site-0 weight is exactly 0.0,
    the sin half of every cos/sin pair: they add nothing but work.

    Only the rng.normal calls run on a worker thread, one per block, in
    stream order and at most one block ahead of the calling thread, which
    meanwhile works on the block before.  All arithmetic stays on the
    calling thread, because np.errstate is per thread: the caller's error
    state governs every division, product and sum.  The worker's pool is
    joined before this returns, on error too.

    The reduction is the one-shot formula's, and with single-threaded BLAS
    so are the bits while n fits in one BLAS K block (384 columns on the
    OpenBLAS this was measured with).  Block edges fall on multiples of 8
    rows, where gemv's row groups start, and no block is one row, which
    numpy would send to gemv instead of gemm.  A one-sample chunk is a gemv
    whose sums group the zero columns with the rest, so it keeps them.
    Past one K block the shorter inner sum is split differently and the
    last digit may move.  Threaded BLAS deals a gemv's rows out to threads
    by count, so there even the one-shot formula's bits vary with the
    thread count.
    """
    if samples < 2:
        raise ValueError("need at least two samples")
    tau = np.asarray(tau_grid, dtype=float)
    modes, rng = _gibbs_start(chain, seed)
    n = chain.n
    w_site = modes.vectors[0, :]
    omega = modes.frequencies
    support = np.flatnonzero(w_site != 0.0)
    cos_t = np.cos(np.outer(omega, tau))
    sin_t = np.sin(np.outer(omega, tau))
    sqrt_beta = math.sqrt(chain.beta)
    q_scale = sqrt_beta * omega
    rows = max(8, _MC_BLOCK_VALUES // n // 8 * 8)
    chunks = []
    for done in range(0, samples, _MC_CHUNK):
        m = min(_MC_CHUNK, samples - done)
        # blocks of `rows`; a one-row remainder joins the block before it
        edges = [*range(0, max(m - 1, 1), rows), m]
        chunks.append((m, list(zip(edges, edges[1:]))))
    sum1 = np.zeros(tau.shape)
    sum2 = np.zeros(tau.shape)
    with ThreadPoolExecutor(max_workers=1) as pool:
        # one rng.normal call per block in stream order (each chunk's p
        # blocks, then its q blocks), submitted as the block before is taken
        draws_ahead = (
            pool.submit(rng.normal, size=(hi - lo, n)) for _, spans in chunks for _half in "pq" for lo, hi in spans
        )
        ahead = next(draws_ahead)
        for m, spans in chunks:
            keep = support if m > 1 else np.arange(n)  # see the docstring
            p_weight, q_weight = w_site[keep], (w_site * omega)[keep]
            cos_k, sin_k = cos_t[keep], sin_t[keep]
            a = np.empty(m)
            b = np.empty((m, tau.size))
            for lo, hi in spans:
                # rebinding `draws` frees the block before the next is
                # submitted, so at most two blocks of draws are alive
                draws = ahead.result()
                ahead = next(draws_ahead, None)
                draws /= sqrt_beta
                a[lo:hi] = draws @ w_site
                p_site = np.take(draws, keep, axis=1)
                p_site *= p_weight
                b[lo:hi] = p_site @ cos_k
            for lo, hi in spans:
                draws = ahead.result()
                ahead = next(draws_ahead, None)
                draws /= q_scale
                q_site = np.take(draws, keep, axis=1)
                q_site *= q_weight
                b[lo:hi] -= q_site @ sin_k
            prod = a[:, None] * b
            sum1 += prod.sum(axis=0)
            sum2 += (prod**2).sum(axis=0)
    mean = sum1 / samples
    var = (sum2 - samples * mean**2) / (samples - 1)
    stderr = np.sqrt(np.clip(var, 0.0, None) / samples)
    return AutocorrCurve(tau=tau, values=mean, kind="phase-monte-carlo", stderr=stderr)


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
    oversample: int,
) -> AutocorrCurve:
    """Single-trajectory stroboscopic time average of p0(t) p0(t+tau).

    The trajectory is evaluated exactly in mode coordinates on a grid
    `oversample` times finer than the (uniform, zero-based) tau grid, and
    the estimate at tau_j averages products over the horizon.  Only the
    curve is returned; its gap to phase_autocorrelation is the caller's to
    take.

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
    return AutocorrCurve(tau=tau, values=values, kind="time-trajectory")


def recurrence_peak(
    chain: HarmonicChain,
    tau_max: float,
    dt: float,
    skip: float,
) -> tuple[float, float]:
    """Largest |g_n| on the grid j dt in [skip, tau_max]; quasi-periodic revisit probe.

    The analytic curve is a finite cosine sum, so it keeps returning
    arbitrarily close to g_n(0); this scans a window and reports where and
    how closely.  Each chunk of the grid is evaluated by
    phase_autocorrelation, at most _MODE_BLOCK_VALUES angles at a time; the
    first grid point of the largest |g_n| wins.  The work is
    O((tau_max - skip) / dt) curve points; no cap is applied.
    """
    if not (math.isfinite(dt) and dt > 0):
        raise ValueError(f"dt must be finite and > 0, got {dt!r}")
    if not math.isfinite(tau_max):
        raise ValueError(f"tau_max must be finite, got {tau_max!r}")
    if not 0 < skip < tau_max:
        raise ValueError("need 0 < skip < tau_max")
    if not math.isfinite(tau_max / dt):
        raise ValueError(f"dt={dt!r} is too small: tau_max / dt is not finite")
    n_pts = int(tau_max / dt) + 1
    start_idx = int(math.ceil(skip / dt))
    if start_idx >= n_pts:
        raise ValueError(f"no grid point j*dt lies in [skip, tau_max] = [{skip!r}, {tau_max!r}] for dt={dt!r}")
    best_tau, best_val = skip, -np.inf
    chunk = max(1, _MODE_BLOCK_VALUES // chain.n)
    for lo in range(start_idx, n_pts, chunk):
        hi = min(lo + chunk, n_pts)
        t = np.arange(lo, hi) * dt
        vals = np.abs(phase_autocorrelation(chain, t).values)
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
    data on the final window.  tau must increase strictly (ValueError).
    """
    tau = curve.tau
    vals = curve.values
    if len(tau) < 3:
        raise DegenerateFitError("need at least three curve points")
    if np.any(np.diff(tau) <= 0.0):
        raise ValueError("tau must increase strictly")
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
