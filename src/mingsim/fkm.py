"""Classical harmonic ring and its momentum autocorrelation.

The chain couples n unit masses on a ring,

    H = sum_i p_i^2 / 2 + (1/2) q^T K q,
    K = omega0_sq * I + kappa * (2 I - S - S^T),      S = cyclic shift,

so the normal-mode frequencies are omega_k^2 = omega0_sq
+ 4 kappa sin^2(pi k / n), k = 0..n-1.  As omega_k = omega_{n-k}, the ring
has K = n // 2 + 1 distinct modes, and every site-0 kernel takes them one
way: their frequencies from dft_frequencies (these K only), their site-0
weights from _site0_row in closed form, nonzero on one mode column per k.
The real orthonormal mode basis (normal_modes: cos/sin pairs, in which the
flow is a per-mode rotation) serves only sample_gibbs, single_mode_state
and the projection of a phase point in _site0_phasors.  Its entries are
read from one table of n cos/sin values at the exact integer phases
(k j) mod n: max|V^T V - I| read at most 2.8e-15 at n = 255, 256, 1024 and
4096, and the projection V^T x matched np.fft.rfft(x), scaled, to 8.0e-15
at n = 4096.

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

import contextlib
import functools
import itertools
import math
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass

import numpy as np

from .errors import DegenerateFitError, IndefiniteFormError, ZeroModeError

_FREQ_SQ_TOL = 1e-12

# Monte-Carlo samples per chunk; a lone last sample joins the chunk before it,
# as in _row_blocks.  Each chunk draws all of its p normals, then all of its q
# normals, so the chunks fix how the stream splits between p and q, and with
# it the output bytes; this is not a memory knob.
_MC_CHUNK = 20000

# Values per block of the blocked loops here, each cut by _row_blocks.  The
# memory bound (~2 MB of doubles) caps a loop's temporaries whatever n and
# the tau grid are.  The cache bound (~512 KB, sized for L2) keeps
# time_autocorrelation's K x K pair blocks in cache, and their edges fix the
# last bits of its sums; _mc_plan starts the Monte-Carlo's draw thread at it.
_BLOCK_VALUES = 1 << 18
_CACHE_VALUES = 1 << 16

_OU_MAX_ITER = 8  # window refits in ou_fit
_OU_MAX_STEPS = 100  # Gauss-Newton steps per window fit in ou_fit


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
        if not math.isfinite(1.0 / self.beta):
            raise ValueError(f"beta={self.beta!r} is too small: 1 / beta is not finite")


def scaled_ring(n: int, beta: float, kappa0: float = 1.0, omega0_sq: float = 1.0) -> HarmonicChain:
    """Chain with the documented default coupling schedule kappa0 * n^2 / pi^2."""
    kappa = kappa0 * n**2 / math.pi**2
    if not math.isfinite(kappa):
        raise ValueError(f"coupling kappa0 * n^2 / pi^2 is not finite for kappa0={kappa0!r}, n={n}")
    return HarmonicChain(n=n, beta=beta, omega0_sq=omega0_sq, kappa=kappa)


def dft_frequencies(chain: HarmonicChain) -> np.ndarray:
    """omega_k for k = 0..n // 2, the K distinct frequencies: DFT index n - k
    has omega_k's value, which an n-index evaluation may round apart in the last bit."""
    k = np.arange(chain.n // 2 + 1)
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


def _site0_row(n: int) -> np.ndarray:
    """Row 0 of the mode table in closed form, bit for bit: 1/sqrt(n), then
    sqrt(2/n) and 0.0 for each cos/sin pair, then 1/sqrt(n) for even n."""
    row = np.zeros(n)
    row[0] = 1.0 / math.sqrt(n)
    row[1 : (n + 1) // 2 * 2 - 1 : 2] = math.sqrt(2.0 / n)
    if n % 2 == 0:
        row[n - 1] = 1.0 / math.sqrt(n)
    return row


@functools.lru_cache(maxsize=1)
def normal_modes(chain: HarmonicChain) -> NormalModes:
    """Mode table of the ring, cached for the last chain asked for only (one
    table is 134 MB at n = 4096); safe because its arrays are read-only.

    Entry (j, column of pair k) is sqrt(2/n) * cos(2 pi r / n) (or sin) at
    the exact integer phase r = (k j) mod n.  So the n^2 / 2 cos/sin pairs
    are read from one table of n pairs, computed once, rather than evaluated
    at angles up to about pi n, whose rounding and range reduction cost both
    time and orthonormality.  Each block of rows (_row_blocks under
    _BLOCK_VALUES entries) is one integer outer product, its remainder mod n
    and one gather into the interleaved cos/sin columns; an entry depends on
    its r only, so the block size moves no bit of the table.
    """
    n = chain.n
    frequencies = dft_frequencies(chain)[(np.arange(n) + 1) // 2]  # column j is DFT index (j + 1) // 2
    j = np.arange(n)
    theta = 2.0 * np.pi * j / n
    phases = np.stack((np.cos(theta), np.sin(theta)), axis=1)  # row r: (cos, sin)(2 pi r / n)
    phases *= math.sqrt(2.0 / n)
    vectors = np.empty((n, n))
    vectors[:, 0] = 1.0 / math.sqrt(n)
    k = np.arange(1, (n + 1) // 2)  # the pairs, in columns 2k - 1 and 2k
    for lo, hi in _row_blocks(n, 2 * k.size, _BLOCK_VALUES):
        r = np.outer(j[lo:hi], k)
        r %= n
        pairs = vectors[lo:hi, 1 : 1 + 2 * k.size].reshape(hi - lo, k.size, 2)
        np.take(phases, r, axis=0, out=pairs)
        del r  # before the next block's indices are made
    if n % 2 == 0:
        vectors[:, n - 1] = np.where(j % 2 == 0, 1.0, -1.0) / math.sqrt(n)
    return NormalModes(frequencies=frequencies, vectors=vectors)


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


def _gibbs_rng(frequencies: np.ndarray, seed) -> np.random.Generator:
    """Generator for Gibbs draws; zero modes have no Gibbs marginal."""
    if (frequencies <= math.sqrt(_FREQ_SQ_TOL)).any():
        raise ZeroModeError("chain has a zero mode; the Gibbs measure is not normalizable")
    return np.random.default_rng(seed)


def sample_gibbs(chain: HarmonicChain, seed) -> PhasePoint:
    """Draw one phase point from the Gibbs measure exp(-beta H).

    Mode coordinates are independent Gaussians: Var Q_k = 1/(beta w_k^2),
    Var P_k = 1/beta.  Zero modes have no Gibbs marginal and are rejected.
    """
    modes = normal_modes(chain)
    rng = _gibbs_rng(modes.frequencies, seed)
    n = chain.n
    q_modes = rng.normal(size=n) / (math.sqrt(chain.beta) * modes.frequencies)
    p_modes = rng.normal(size=n) / math.sqrt(chain.beta)
    return PhasePoint(q=modes.vectors @ q_modes, p=modes.vectors @ p_modes)


def single_mode_state(chain: HarmonicChain, mode: int, energy: float) -> PhasePoint:
    """All of `energy` in one normal mode's momentum; the equipartition violator.

    `mode` is an integer column index of the mode table (not a bool), and
    `energy` a finite non-negative number whose sqrt(2 energy) is finite;
    anything else is a ValueError naming the argument.
    """
    if isinstance(mode, bool) or not isinstance(mode, (int, np.integer)):
        raise ValueError(f"mode must be an integer, got {mode!r}")
    if not 0 <= mode < chain.n:
        raise ValueError(f"mode {mode} is out of range 0..{chain.n - 1}")
    try:
        finite = math.isfinite(energy)
    except OverflowError:  # an int past the float range
        finite = False
    if not (finite and energy >= 0.0):
        raise ValueError(f"energy must be finite and non-negative, got {energy!r}")
    amplitude = math.sqrt(2.0 * float(energy))  # a Python float overflows to inf, a numpy one warns
    if not math.isfinite(amplitude):
        raise ValueError(f"energy={energy!r} is too large: sqrt(2 energy) is not finite")
    p = normal_modes(chain).vectors[:, mode] * amplitude
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


def _check_tau_grid(omega: np.ndarray, tau: np.ndarray) -> None:
    """Reject a tau grid that is not 1-d, holds a non-finite value, or has a non-finite omega_max * max|tau|."""
    if tau.ndim != 1:
        raise ValueError(f"tau grid must be 1-d, got shape {tau.shape}")
    if not np.isfinite(tau).all():
        raise ValueError("tau holds a non-finite value")
    # Python floats: an overflow here gives inf, not an error under np.errstate
    tau_max = float(np.abs(tau).max(initial=0.0))
    if not math.isfinite(float(omega.max()) * tau_max):
        raise ValueError(f"tau up to {tau_max!r} is too large: omega_max * max|tau| is not finite")


def phase_autocorrelation(chain: HarmonicChain, tau_grid) -> AutocorrCurve:
    """Analytic Gibbs phase average: (1/(beta n)) sum_k cos(omega_k tau).

    Since omega_k = omega_{n-k}, the sum takes DFT index 0 once, each pair
    k = 1..ceil(n/2)-1 once with weight 2, and k = n/2 once for even n.  The
    pair sums run over blocks of tau (_row_blocks under _BLOCK_VALUES
    angles), so memory is O(len(tau)) plus one block.  They are numpy
    reductions, not BLAS products, and numpy sums a (pairs, B) block's rows
    in order for every B >= 2 (no block is one lag unless the grid is), so
    the bits depend on neither the BLAS thread count nor the blocks.  At
    tau = 0 the total is exactly n, so g_n(0) == 1/beta holds exactly.  A tau
    grid that is not 1-d, holds a non-finite value, or whose largest angle
    omega_max * max|tau| is not finite, is a ValueError.
    """
    tau = np.asarray(tau_grid, dtype=float)
    w = dft_frequencies(chain)
    _check_tau_grid(w, tau)
    n = chain.n
    pairs = w[1 : (n + 1) // 2]
    total = np.cos(w[0] * tau)
    for lo, hi in _row_blocks(tau.size, pairs.size, _BLOCK_VALUES):
        angles = np.outer(pairs, tau[lo:hi])
        total[lo:hi] += 2.0 * np.cos(angles, out=angles).sum(axis=0)
        del angles  # before the next block's angles are made
    if n % 2 == 0:
        total += np.cos(w[n // 2] * tau)
    return AutocorrCurve(tau=tau, values=total / n / chain.beta, kind="phase-analytic")


def _row_blocks(m: int, width: int, values: int) -> list[tuple[int, int]]:
    """[lo, hi) row blocks of an (m, width) array.

    Each block is a multiple of 8 rows holding about `values` numbers; a
    one-row remainder joins the block before it.
    """
    rows = max(8, values // max(width, 1) // 8 * 8)
    edges = [*range(0, max(m - 1, 1), rows), m]
    return list(zip(edges, edges[1:]))


def _mc_plan(n: int, samples: int, lags: int) -> tuple[bool, bool]:
    """The Monte-Carlo's size rules for an n-site ring, as (gram, worker).

    The Gram form, over the K = n // 2 + 1 support modes, costs about
    K^2 (samples + lags) multiply-adds, the product form K samples lags.  A
    worker thread draws when the values made before the first product (the
    2 n samples draws and the product form's 2 K lags cos/sin table) reach
    _CACHE_VALUES.  Below that the worker costs more than it hides: on one
    BLAS thread the CLI's n = 8 and 16 calls at 2000 samples took 1.6 and
    2.8 ms, against 2.2 and 3.5 ms with it; past the bound the calling
    thread was slower, by up to a third (product form, n = 1024 at 256)."""
    k = n // 2 + 1
    gram = k * k * (samples + lags) < k * samples * lags
    return gram, 2 * n * samples + (0 if gram else 2 * k * lags) >= _CACHE_VALUES


class _DrawBlocks:
    """The Monte-Carlo's Gibbs normals, a block at a time into two buffers.

    Samples come in chunks of _MC_CHUNK, laid out as they are reached; a
    lone last sample joins the chunk before it, as in _row_blocks.  A chunk
    draws its p normals in row blocks (_row_blocks under _BLOCK_VALUES
    draws), then its q normals in the same blocks: numpy fills a draw row by
    row, so this is the stream of one (m, n) p draw and one (m, n) q draw.
    One standard_normal(out=...) call per block gives the bits of
    rng.normal(size=...) but for the sign of a zero (normal returns
    0.0 + 1.0 * x, so +0.0 for -0.0), without its scaling pass.  `rows`
    and `height`, the largest chunk and block, size the reductions' arrays.
    `with draws.chunks(worker)` gives each chunk as (p blocks, q blocks), a
    block being ((lo, hi), the draws of the chunk's rows lo:hi), done with
    when the next is taken, in stream order: p blocks (from lo = 0) first.
    With `worker` (_mc_plan's rule), a worker thread makes the draw calls one
    block ahead (past a chunk's last block, the next chunk's first); it
    allocates no arrays, so memory does not depend on how the threads
    interleave, and the `with` joins its pool, on error too.  Otherwise the
    calling thread draws each block as it takes it.
    """

    def __init__(self, rng: np.random.Generator, n: int, samples: int):
        self.rng, self.samples = rng, samples
        ends = {next(self.sizes()), (samples - 2) % _MC_CHUNK + 2}  # the first chunk's size and the last's
        self.rows = max(ends)
        self.blocks = {m: _row_blocks(m, n, _BLOCK_VALUES) for m in ends}
        self.height = max(hi - lo for spans in self.blocks.values() for lo, hi in spans)
        self.bufs = [np.empty((self.height, n)) for _ in range(2)]

    def sizes(self):
        edges = itertools.chain(range(0, self.samples - 1, _MC_CHUNK), [self.samples])  # as in _row_blocks
        return (hi - lo for lo, hi in itertools.pairwise(edges))

    @contextlib.contextmanager
    def chunks(self, worker: bool):
        with ThreadPoolExecutor(max_workers=1) if worker else contextlib.nullcontext() as pool:
            bufs = itertools.cycle(self.bufs)  # each call fills the one the calling thread is done with
            spans = (span for m in self.sizes() for _half in "pq" for span in self.blocks[m])
            calls = (functools.partial(self.rng.standard_normal, out=next(bufs)[: hi - lo]) for lo, hi in spans)
            calls = (pool.submit(call).result for call in calls) if worker else calls
            ahead = next(calls)  # a worker starts on block 0 now, and on block j + 1 once block j is taken

            def take(spans):
                nonlocal ahead
                for span in spans:
                    block, ahead = ahead(), next(calls, None)  # block j's draws, then block j + 1's call
                    yield span, block

            yield ((take(self.blocks[m]), take(self.blocks[m])) for m in self.sizes())


class _ProductSums:
    """The Monte-Carlo's product form: it builds every b_s(tau).

    The p blocks' tau products go straight into their rows of b, the call's
    one (largest chunk) x len(tau) array; a chunk's first p block (lo = 0)
    banks the running sums of the chunk before.  A q block's q products go
    into rows 1: of one (1 + tallest block) x len(tau) buffer, then p0(tau)
    from its rows of b, then the products, then their squares, each summed
    with the chunk's running sum in row 0.  numpy sums a 2-d array's rows
    in order, so the sum continues the running sum bit for bit, and an
    overflow is raised by the sum, as by one sum over the chunk.  A
    one-column grid is the exception: numpy sums one column pairwise, here
    over each block, so its last digit may differ from the one-shot
    formula's.  The cos and sin tables of w_k tau on the K support rows are
    built once, and the buffer is at most one row taller than b, so memory
    is O(_BLOCK_VALUES + (K + _MC_CHUNK) len(tau)).

    It is the one-shot formula's reduction: with single-threaded BLAS it
    keeps that formula's bits on a grid of a multiple of 8 lags while n fits
    in one BLAS K block (384 columns on the OpenBLAS measured).  Block edges
    fall on multiples of 8 rows, where gemv's row groups start, and no block
    is one row and no chunk one sample, either of which numpy would send to
    gemv.  The last digit may move past one K block, and off a multiple of 8
    lags in the last len(tau) % 8, from gemm's tail columns, whose sums
    depend on the inner length and the rows per call: on that OpenBLAS at
    n = 256 with 2 samples, every width of 8j + 1 to 8j + 4 lags to 196 did.
    """

    def __init__(self, omega, tau, rows: int, height: int):
        # one b for all chunks, so a chunk's b is not made while the last one's is alive
        self.b = np.empty((rows, tau.size))
        self.buf = np.empty((1 + height, tau.size))  # row 0 carries the chunk's running sum
        angles = np.outer(omega, tau)
        self.cos_k, self.sin_k = np.cos(angles), np.sin(angles, out=angles)
        self.total, self.acc = np.zeros((2, tau.size)), np.zeros((2, tau.size))

    def take_p(self, lo: int, hi: int, a: np.ndarray, p_site: np.ndarray) -> None:
        if lo == 0:  # a new chunk: bank the one before's running sums
            self.total += self.acc
            self.acc[:] = 0.0
        np.matmul(p_site, self.cos_k, out=self.b[lo:hi])

    def take_q(self, lo: int, hi: int, a: np.ndarray, q_site: np.ndarray) -> None:
        block = self.buf[: 1 + hi - lo]
        rows = block[1:]
        np.matmul(q_site, self.sin_k, out=rows)
        np.subtract(self.b[lo:hi], rows, out=rows)
        rows *= a[:, None]  # the products
        block[0] = self.acc[0]
        block.sum(axis=0, out=self.acc[0])
        rows *= rows  # and their squares
        block[0] = self.acc[1]
        block.sum(axis=0, out=self.acc[1])

    def sums(self) -> np.ndarray:
        return self.total + self.acc


class _GramSums:
    """The Monte-Carlo's Gram form, which never builds b.

    With x_s = (v_k P_k, -v_k w_k Q_k) the 2K scaled support coordinates and
    phi(tau) = (cos w_k tau, sin w_k tau), b_s(tau) = x_s . phi(tau), so
    sum_s a_s b_s = (sum_s z_s) . phi and sum_s a_s^2 b_s^2 = phi^T C phi,
    with z_s = a_s x_s and C = sum_s z_s z_s^T.  Each chunk keeps the p
    halves of its z rows in one (largest chunk) x K array.  Each q block
    copies its rows' p halves into a block of whole z rows, completes them,
    and adds them to sum_s z_s and, by one z^T z, to C.  sums() takes the
    quadratic forms over _BLOCK_VALUES blocks of tau, so past the
    len(tau)-long results memory is O(K^2 + K _MC_CHUNK + _BLOCK_VALUES).
    It sums the same terms in another order, so its bits are not the
    one-shot formula's; the rounding error of each reduction is at most
    gamma_N = N u / (1 - N u) times the sum of the terms' absolute values,
    with N about S + 4K and u = 2^-53.  An overflow is raised by the matmul
    that forms C or by the sum that closes a quadratic form.
    """

    def __init__(self, omega, tau, rows: int, height: int):
        self.omega, self.tau = omega, tau
        k = self.k = omega.size
        # the chunk's p halves of z, and one block of whole z rows
        self.zp, self.z_buf = np.empty((rows, k)), np.empty((height, 2 * k))
        self.z_sum, self.z_gram = np.zeros(2 * k), np.zeros((2 * k, 2 * k))

    def take_p(self, lo: int, hi: int, a: np.ndarray, p_site: np.ndarray) -> None:
        np.multiply(p_site, a[:, None], out=self.zp[lo:hi])

    def take_q(self, lo: int, hi: int, a: np.ndarray, q_site: np.ndarray) -> None:
        rows = self.z_buf[: hi - lo]
        rows[:, : self.k] = self.zp[lo:hi]
        np.multiply(q_site, -a[:, None], out=rows[:, self.k :])  # x_s's sign; x (-a) is -(x a), bit for bit
        self.z_sum += rows.sum(axis=0)
        self.z_gram += rows.T @ rows

    def sums(self) -> np.ndarray:
        k, tau = self.k, self.tau
        sums = np.empty((2, tau.size))
        for lo, hi in _row_blocks(tau.size, 2 * k, _BLOCK_VALUES):
            angles = np.outer(self.omega, tau[lo:hi])
            phi = np.concatenate([np.cos(angles), np.sin(angles, out=angles)])
            del angles  # before the quadratic form's table is made
            sums[0, lo:hi] = self.z_sum @ phi
            quad = self.z_gram @ phi
            quad *= phi
            sums[1, lo:hi] = quad.sum(axis=0)
        return sums


def mc_phase_autocorrelation(chain: HarmonicChain, tau_grid, samples: int, seed) -> AutocorrCurve:
    """Monte-Carlo phase average of p0(0) p0(tau) over Gibbs samples.

    Works in mode coordinates throughout: with P_k, Q_k the Gibbs mode
    draws and v_k the site-0 weights (_site0_row, so no n x n table is
    built), each sample s gives a_s = p0(0) = sum_k v_k P_k and b_s(tau) =
    p0(tau) = sum_k v_k (P_k cos w_k tau - w_k Q_k sin w_k tau).  The
    estimate is sum_s a_s b_s / S over the S samples, and the per-tau
    standard errors come from the sample variance, that is from
    sum_s a_s^2 b_s^2.  Only the K = n // 2 + 1 support modes, of nonzero
    site-0 weight, enter b_s, at the frequencies of dft_frequencies: a q
    block is cut to their columns before it is scaled.  The tau grid is
    checked as in phase_autocorrelation.

    _mc_plan picks the reduction and the draw thread.  The draws come from
    _DrawBlocks, in chunks of blocks, and the sums from _ProductSums or
    _GramSums, which see only blocks: take_p and take_q take a block's rows
    lo:hi of a_s and of v_k P_k or v_k w_k Q_k on the K support modes, and
    sums() returns sum_s a_s b_s and sum_s a_s^2 b_s^2.  All arithmetic
    stays on the calling thread, as np.errstate is per thread: the caller's
    error state governs every division, product and sum (and, on a small
    call, the draws), and a FloatingPointError is raised again naming the
    products and beta, numpy's text kept.  Threaded BLAS deals a gemv's rows
    out to threads by count and splits the Gram products as it likes, so
    with more than one BLAS thread even the one-shot formula's bits vary.
    """
    if samples < 2:
        raise ValueError("need at least two samples")
    tau = np.asarray(tau_grid, dtype=float)
    omega = dft_frequencies(chain)
    rng = _gibbs_rng(omega, seed)
    w_site = _site0_row(chain.n)
    _check_tau_grid(omega, tau)
    support = np.flatnonzero(w_site != 0.0)  # the column of each of the K frequencies
    p_weight, q_weight = w_site[support], w_site[support] * omega
    gram, worker = _mc_plan(chain.n, samples, tau.size)
    draws = _DrawBlocks(rng, chain.n, samples)
    reduction = (_GramSums if gram else _ProductSums)(omega, tau, draws.rows, draws.height)
    sqrt_beta = math.sqrt(chain.beta)
    q_scale = sqrt_beta * omega
    a = np.empty(draws.rows)
    try:
        with draws.chunks(worker) as chunks:
            for p_blocks, q_blocks in chunks:
                for (lo, hi), block in p_blocks:
                    block /= sqrt_beta
                    a[lo:hi] = block @ w_site
                    p_site = np.take(block, support, axis=1)
                    p_site *= p_weight
                    reduction.take_p(lo, hi, a[lo:hi], p_site)
                for (lo, hi), block in q_blocks:
                    q_site = np.take(block, support, axis=1)
                    q_site /= q_scale
                    q_site *= q_weight
                    reduction.take_q(lo, hi, a[lo:hi], q_site)
        sum1, sum2 = reduction.sums()
    except FloatingPointError as exc:
        raise FloatingPointError(f"Monte-Carlo products p0(0) p0(tau) at beta={chain.beta!r}: {exc}") from exc
    mean = sum1 / samples
    var = (sum2 - samples * mean**2) / (samples - 1)
    stderr = np.sqrt(np.clip(var, 0.0, None) / samples)
    return AutocorrCurve(tau=tau, values=mean, kind="phase-monte-carlo", stderr=stderr)


def _site0_phasors(chain: HarmonicChain, x0: PhasePoint) -> tuple[np.ndarray, np.ndarray]:
    """(omega_k, c_k) with p0(t) = Re sum_k c_k exp(i omega_k t) along the exact orbit from x0.

    c_k = v_0k (p_k + i omega_k q_k) over the K = n // 2 + 1 modes whose
    site-0 weight v_0k (_site0_row) is not 0.0, with omega_k from
    dft_frequencies.  The mode table serves only the projection of x0 onto
    the modes, (q_k, p_k) = vectors^T (q, p).
    """
    vectors = normal_modes(chain).vectors
    q, p = vectors.T @ x0.q, vectors.T @ x0.p
    w_site = _site0_row(chain.n)
    keep = w_site != 0.0
    omega = dft_frequencies(chain)
    return omega, w_site[keep] * (p[keep] + 1j * omega * q[keep])


def _exact_product(n: float, h: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(p, e) with p + e == n * h exactly, barring underflow (Dekker's product).

    n and h are each split into two halves of at most 26 significant bits,
    whose pairwise products are exact.  n is split with Python arithmetic,
    so no n can overflow the splitting constant; n * h itself must be
    finite.
    """
    mantissa, exponent = math.frexp(n)
    n_hi = math.ldexp(round(math.ldexp(mantissa, 26)), exponent - 26)
    n_lo = n - n_hi
    t = 134217729.0 * h  # 2^27 + 1
    h_hi = t - (t - h)
    h_lo = h - h_hi
    p = n * h
    return p, ((n_hi * h_hi - p) + n_hi * h_lo + n_lo * h_hi) + n_lo * h_lo


def _dirichlet_ratio(num: np.ndarray, den: np.ndarray, n: float) -> np.ndarray:
    """num / den, and n where den == 0 (sin(n x) / sin(x) at x = 0)."""
    return np.divide(num, den, out=np.full(den.shape, n), where=den != 0.0)


def time_autocorrelation(
    chain: HarmonicChain, x0: PhasePoint, horizon: float, tau_grid, oversample: int
) -> AutocorrCurve:
    """Single-trajectory stroboscopic time average of p0(t) p0(t+tau), in closed form.

    The orbit is sampled at t dt, on a grid `oversample` times finer than
    the tau grid, so tau_j = o_j dt with o_j = j * oversample; the grid
    must hold tau_j = j * step to 1e-9 relative, for step = tau_1 > 0
    (ValueError).  The estimate averages the products over the
    N = ceil(horizon / dt) points of the horizon,

        values_j = (1/N) sum_{t<N} p0(t dt) p0((t + o_j) dt),

    for the site-0 momentum p0(t) = Re sum_k c_k exp(i w_k t) of
    _site0_phasors.  Only the curve is returned; its gap to
    phase_autocorrelation is the caller's to take.

    The sum over t has a closed form.  With theta_k = w_k dt and the
    Dirichlet sum D_N(theta) = sum_{t<N} exp(i theta t)
    = exp(i (N-1) theta/2) sin(N theta/2) / sin(theta/2), which is N where
    the sine vanishes,

        values_j = (1/2N) Re sum_l c_l exp(i theta_l o_j)
                   sum_k [c_k D_N(theta_k + theta_l) + conj(c_k) D_N(theta_l - theta_k)].

    Each theta_k is first reduced to [-pi, pi], which leaves every term as
    it is.  Forming w_k dt and reducing it each round, at about
    eps |w_k dt| per step, so over N steps the phases may drift by about
    N eps |w_k dt|, as the trajectory's own phases would.  The phase
    exp(i (N-1) theta/2) factors into per-mode phases,
    b_k = c_k exp(i (N-1) theta_k / 2), and leaves the ratios
    r(x) = sin(N x) / sin(x) at x = (theta_k +- theta_l) / 2: two real
    symmetric K x K matrices over the K = n // 2 + 1 support modes, with
    values_j = (1/2N) Re sum_l b_l exp(i theta_l o_j) u_l and
    u_l = sum_k (R+ + R-)_kl Re b_k + i (R+ - R-)_kl Im b_k.

    * R- is evaluated directly: theta_k - theta_l is exact for close modes,
      so near-degenerate pairs keep full precision.  Its angle is first
      shifted by a multiple of pi into [-pi/2, pi/2] (r(x - pi) =
      (-1)^(N+1) r(x)), so an angle at pi, where both sines vanish, gives
      +-N like one at 0.
    * R+ comes from per-mode sines and cosines of theta_k / 2 and of
      N theta_k / 2 by the angle-addition formulas; N theta_k / 2 is formed
      exactly (_exact_product), so these per-mode values, and the phases
      b_k built from them, are good to rounding for the reduced theta_k,
      whatever N is.  Its denominator loses relative precision only when
      two aliased modes (w dt beyond pi) sum to near a multiple of 2 pi.

    The pairs are taken once each, in row blocks of the upper triangle of
    about _CACHE_VALUES entries, and the lag sum uses
    exp(i theta o_j) = exp(i theta o_{a r}) exp(i theta o_b) for
    j = a r + b with r about sqrt(len(tau)).  All sums are numpy reductions,
    not BLAS products, so their bits do not depend on the BLAS thread
    count; the mode projection in _site0_phasors is the one BLAS call.  The
    cost is O(K^2 + K len(tau)) whatever the horizon, after the O(n^2)
    projection.  The tau grid is checked as in phase_autocorrelation, and a
    horizon for which horizon / dt or N omega_max dt is not finite is a
    ValueError.
    """
    tau = np.asarray(tau_grid, dtype=float)
    _check_tau_grid(dft_frequencies(chain), tau)
    if len(tau) < 2:
        raise ValueError("tau grid must hold at least two points")
    step = tau[1]
    if step <= 0 or not np.allclose(tau, step * np.arange(tau.size), rtol=1e-9, atol=0.0):
        raise ValueError("tau grid must be uniform and start at 0")
    if not (math.isfinite(horizon) and horizon > tau[-1]):
        raise ValueError(f"horizon {horizon:.6g} must be finite and exceed the largest tau {tau[-1]:.6g}")
    if oversample < 1:
        raise ValueError("oversample must be at least 1")
    # Python floats: an overflow in these checks gives inf, not an error under np.errstate
    dt = float(step) / oversample
    if not math.isfinite(float(horizon) / dt):
        raise ValueError(f"horizon {float(horizon)!r} is too long: horizon / dt is not finite for dt={dt!r}")
    n_base = math.ceil(float(horizon) / dt)
    omega, coef = _site0_phasors(chain, x0)
    if not math.isfinite(n_base * float(omega.max()) * dt):
        raise ValueError(f"horizon {float(horizon)!r} is too long: N * omega_max * dt is not finite")
    n_pts = float(n_base)
    theta = omega * dt
    theta -= 2.0 * np.pi * np.rint(theta / (2.0 * np.pi))  # to [-pi, pi]
    half = theta / 2.0
    sin_h, cos_h = np.sin(half), np.cos(half)
    p, e = _exact_product(n_pts, half)
    sin_nh = np.sin(p) * np.cos(e) + np.cos(p) * np.sin(e)
    cos_nh = np.cos(p) * np.cos(e) - np.sin(p) * np.sin(e)
    b = coef * (cos_nh + 1j * sin_nh) * (cos_h - 1j * sin_h)  # c_k exp(i (N-1) theta_k / 2)
    b_re, b_im = b.real.copy(), b.imag.copy()  # contiguous, for einsum's fast loops
    k_modes = len(omega)
    u_re, u_im = np.zeros(k_modes), np.zeros(k_modes)
    for lo, hi in _row_blocks(k_modes, k_modes, _CACHE_VALUES):
        # rows lo:hi against columns lo:, so each pair is taken once
        plus = _dirichlet_ratio(
            sin_nh[lo:hi, None] * cos_nh[lo:] + cos_nh[lo:hi, None] * sin_nh[lo:],
            sin_h[lo:hi, None] * cos_h[lo:] + cos_h[lo:hi, None] * sin_h[lo:],
            n_pts,
        )
        x = half[lo:hi, None] - half[lo:]
        turns = np.rint(x / np.pi)
        x -= turns * np.pi  # exact, as |x| <= pi
        minus = _dirichlet_ratio(np.sin(n_pts * x), np.sin(x), n_pts)
        if n_base % 2 == 0:  # r(x + pi) = -r(x)
            minus *= 1.0 - 2.0 * np.abs(turns)
        both, diff = plus + minus, plus - minus
        u_re[lo:] += np.einsum("kl,k->l", both, b_re[lo:hi])
        u_im[lo:] += np.einsum("kl,k->l", diff, b_im[lo:hi])
        u_re[lo:hi] += np.einsum("kl,l->k", both[:, hi - lo :], b_re[hi:])
        u_im[lo:hi] += np.einsum("kl,l->k", diff[:, hi - lo :], b_im[hi:])
    lags = len(tau)
    r = math.isqrt(lags - 1) + 1
    # float offsets: int64 ones wrap without an error for a huge oversample
    fine = np.exp(1j * np.outer(theta, np.arange(r, dtype=float) * oversample))
    coarse = np.exp(1j * np.outer(theta, np.arange(0, lags, r, dtype=float) * oversample))
    sums = np.einsum("ka,kb->ab", coarse * (b * (u_re + 1j * u_im))[:, None], fine)
    values = sums.real.ravel()[:lags] / (2.0 * n_pts)
    return AutocorrCurve(tau=tau, values=values, kind="time-trajectory")


def recurrence_peak(chain: HarmonicChain, tau_max: float, dt: float, skip: float) -> tuple[float, float]:
    """Largest |g_n| on the grid j dt in [skip, tau_max]; quasi-periodic revisit probe.

    The analytic curve is a finite cosine sum, so it keeps returning
    arbitrarily close to g_n(0); this reports the first grid point of the
    largest |g_n| as phase_autocorrelation evaluates it, and that value.

    The m points of the window are laid out in rows of `cols`, about
    sqrt(m): point a cols + b is c_a + f_b, so g_n = sum_k d_k (cos w_k c_a
    cos w_k f_b - sin w_k c_a sin w_k f_b) / (beta n) over the K = n // 2 + 1
    distinct frequencies w_k, each shared by d_k DFT indices, is one
    (rows x 2K) @ (2K x cols) product per _row_blocks block of rows.  It is
    within slack = eps (4 omega_max n_pts dt + 3K + 32) / beta of
    phase_autocorrelation at every grid point (the angles' rounding and
    c_a + f_b against j dt, cos/sin to 4 ulp, and both sums in any order,
    doubled), so the first exact argmax and its ties approximate within
    2 slack of the largest approximation.  A first pass keeps each block's
    maximum; a second recomputes the blocks that reach the overall maximum
    less 2 slack and evaluates exactly their points that reach it, in blocks
    of at least 2 points (a lone one is padded with a neighbour), whose
    per-point bits do not depend on the block: the result is the full
    scan's bit for bit.  Memory is O(_BLOCK_VALUES) at any grid length; the
    cost is about 2K multiply-adds per point, plus K cos/sin per row and
    per column.  At A7's arguments 2 of 999 901 points are evaluated.
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
    m = n_pts - start_idx  # grid points start_idx + i, i = 0..m-1
    n, beta = chain.n, chain.beta
    omega = dft_frequencies(chain)
    _check_tau_grid(omega, np.array([tau_max]))
    k = omega.size
    # each frequency weighted by the number of DFT indices that share it
    weight = np.bincount(np.minimum(np.arange(n), n - np.arange(n))) / (n * beta)
    weight = np.concatenate([weight, -weight])  # the cos half, then the sin half
    slack = np.finfo(float).eps * (4 * float(omega.max()) * n_pts * dt + 3 * k + 32) / beta
    cols = min(math.isqrt(m - 1) + 1, max(_BLOCK_VALUES // (8 * k), 1))
    fine = np.outer(omega, np.arange(cols) * dt)
    fine = np.concatenate([np.cos(fine), np.sin(fine)])
    # per row: the angles, their cos and sin, the weighted coarse table, the product
    blocks = _row_blocks(-(-m // cols), 5 * k + cols, _BLOCK_VALUES)

    def approx(lo: int, hi: int) -> np.ndarray:
        """|g_n| to within slack at the grid points i = lo cols .. min(hi cols, m) - 1."""
        angles = np.outer((start_idx + np.arange(lo, hi) * cols) * dt, omega)
        values = (np.hstack([np.cos(angles), np.sin(angles)]) * weight) @ fine
        return np.abs(values, out=values).ravel()[: min(hi * cols, m) - lo * cols]

    tops = [float(approx(lo, hi).max()) for lo, hi in blocks]
    cut = max(tops) - 2 * slack
    best_tau, best_val = skip, -np.inf
    for (lo, hi), top in zip(blocks, tops):
        if top < cut:
            continue
        i = lo * cols + np.flatnonzero(approx(lo, hi) >= cut)
        if i.size == 1 and m > 1:
            i = min(int(i[0]), m - 2) + np.arange(2)
        t = (start_idx + i) * dt
        vals = np.abs(phase_autocorrelation(chain, t).values)
        j = int(np.argmax(vals))
        if vals[j] > best_val:
            best_tau, best_val = float(t[j]), float(vals[j])
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


def _ou_project(t: np.ndarray, v: np.ndarray, gamma: float) -> tuple[float, float, np.ndarray, np.ndarray]:
    """(S, c, e, r) of ou_fit at gamma: e = exp(-gamma t), the best c, r = v - c e, S = <r, r> or inf."""
    e = np.exp(-gamma * t)
    c = float(v @ e / (e @ e))
    r = v - c * e
    s = float(r @ r)
    return (s if math.isfinite(s) else math.inf), c, e, r


def ou_fit(curve: AutocorrCurve, window_factor: float = 5.0) -> OuFit:
    """Least-squares fit of c * exp(-gamma tau) on the window tau <= window_factor / gamma.

    The window is found self-consistently: fit, shrink the window to
    window_factor / gamma_hat, refit, until stable or after _OU_MAX_ITER
    fits.  The residual is the 2-norm misfit divided by the 2-norm of the
    data on the final window.  The fit runs on values / 2^k, 2^k <= values[0]
    < 2^(k+1), which is exact and keeps it in range at any scale.  tau must
    increase strictly from tau[0] >= 0, and window_factor must be finite and
    > 0 (each a ValueError, as is a non-finite tau or value).  Each fit is a
    variable projection (Golub and Pereyra, SIAM J. Numer. Anal. 10, 413 (1973)): c
    is <v, e> / <e, e> for e = exp(-gamma tau), and gamma takes Gauss-Newton
    steps with the projected derivative, each halved until it lowers the
    squared misfit S; the fit stops when none does (the halved step no
    longer moves gamma, or is not finite) or after _OU_MAX_STEPS steps.  An
    amplitude past the float range is a DegenerateFitError.
    """
    if not (math.isfinite(window_factor) and window_factor > 0):
        raise ValueError(f"window_factor must be finite and > 0, got {window_factor!r}")
    tau, vals = curve.tau, curve.values
    if len(tau) < 3:
        raise DegenerateFitError("need at least three curve points")
    if not (np.isfinite(tau).all() and np.isfinite(vals).all()):
        raise ValueError("tau and values must be finite")
    if np.any(np.diff(tau) <= 0.0):
        raise ValueError("tau must increase strictly")
    if tau[0] < 0.0:
        raise ValueError(f"tau must be >= 0, got tau[0] = {float(tau[0])!r}")
    if not np.any(vals != 0.0):
        raise DegenerateFitError("curve is identically zero")
    if vals[0] <= 0.0:
        raise DegenerateFitError("curve must be positive at tau = 0")
    k = math.frexp(vals[0])[1] - 1  # 0 for 1 <= values[0] < 2
    vals = np.ldexp(vals, -k)

    # crossing of values[0]/e sets the first rate guess
    below = np.nonzero(vals < vals[0] / math.e)[0]
    tau_e = tau[below[0]] if len(below) and tau[below[0]] > 0 else tau[-1]
    gamma = float(1.0 / tau_e)

    n_window = len(tau)
    for _ in range(_OU_MAX_ITER):
        cut = window_factor / gamma
        new_window = max(int(np.searchsorted(tau, cut, side="right")), 3)
        t_fit, v_fit = tau[:new_window], vals[:new_window]
        with np.errstate(all="ignore"):  # a trial gamma may under- or overflow every exp(-gamma tau): its S is inf
            s, c_hat, e, r = _ou_project(t_fit, v_fit, gamma)
            for _ in range(_OU_MAX_STEPS):
                d = t_fit * e  # -de/dgamma
                proj = d - e * ((d @ e) / (e @ e))  # (I - e e^T / <e, e>) d: the projected derivative over c
                step = float(-(d @ r) / (c_hat * (proj @ proj)))
                while math.isfinite(step) and gamma + step != gamma:
                    if (trial := _ou_project(t_fit, v_fit, gamma + step))[0] < s:
                        break
                    step /= 2
                else:
                    break  # no step lowers S
                gamma, (s, c_hat, e, r) = gamma + step, trial
        if gamma <= 0 or c_hat <= 0:
            raise DegenerateFitError(f"fit left the decay family (c={c_hat * 2.0**k:.3g}, gamma={gamma:.3g})")
        if new_window == n_window:
            break
        n_window = new_window
    if math.isinf(amplitude := c_hat * 2.0**k):  # Python floats: inf, not an OverflowError
        raise DegenerateFitError(f"fitted amplitude {c_hat!r} * 2**{k} is beyond the float range")
    resid = float(np.linalg.norm(r) / np.linalg.norm(v_fit))
    return OuFit(gamma=gamma, amplitude=amplitude, residual=resid, window=float(t_fit[-1]))
