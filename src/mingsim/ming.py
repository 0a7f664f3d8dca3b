"""Ming generator blocks and the shift propagator.

On each length-L cyclic orbit the one-step digit cycle acts as the forward
permutation P (ones on the subdiagonal and in the top-right corner, in the
orbit basis ordered by phase offset).  The Ming Hamiltonian restricted to
the orbit is the circulant matrix

    A[j, k] = -(i h / L**2) * sum_{m=0}^{L-1} m * exp((2 pi i / L) m (j - k)),

i.e. A = (h / 2 pi) log P with the log branch that puts eigenvalue
-i h j / L on the j-th Fourier mode, so that

    exp((2 pi / h) A) = P            (exactly, all L)

holds.  Closed form of the first column (geometric-series derivative):

    A[m, 0] = -i h (L - 1) / (2 L)              for m = 0,
    A[m, 0] = -i h / (L (exp(2 pi i m / L) - 1)) otherwise.

A is skew-Hermitian, so A / (i h) is a Hermitian energy; h itself cancels
from the propagator exp((2 pi t / h) A), which depends on t alone.  The
fixed-point subspace spanned by the two constant configurations carries the
zero block and is left untouched at every t.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy.linalg

from .bitlattice import OrbitDecomposition


def rescaled_h(h0: float, n: int) -> float:
    """Size-dependent quantum of action h0/n used in the amplifier scaling."""
    if n < 1:
        raise ValueError(f"n must be positive, got {n}")
    return h0 / n


def _first_column(length: int, h: float) -> np.ndarray:
    c = np.empty(length, dtype=complex)
    c[0] = -1j * h * (length - 1) / (2 * length)
    if length > 1:
        m = np.arange(1, length)
        c[1:] = -1j * h / (length * (np.exp(2j * np.pi * m / length) - 1.0))
    return c


@dataclass(frozen=True)
class MingBlock:
    """Circulant generator block on a single orbit of dimension n."""

    n: int
    h: float
    entries: np.ndarray

    def __post_init__(self) -> None:
        self.entries.setflags(write=False)


def build_block(n: int, h: float) -> MingBlock:
    """Construct the orbit block of dimension n (n = 1 gives the zero block)."""
    if n < 1:
        raise ValueError(f"block dimension must be positive, got {n}")
    c = _first_column(n, h)
    j = np.arange(n)
    entries = c[(j[:, None] - j[None, :]) % n]
    return MingBlock(n=n, h=h, entries=entries)


def cycle_permutation(n: int) -> np.ndarray:
    """Forward cyclic permutation on the ordered orbit basis: e_j -> e_{j+1}."""
    p = np.zeros((n, n))
    p[(np.arange(n) + 1) % n, np.arange(n)] = 1.0
    return p


def verify_exponential(block: MingBlock) -> float:
    """Max-abs residual of exp((2 pi / h) A) against the cyclic permutation.

    Uses a general dense matrix exponential, independent of the Fourier
    construction of the block, so the identity is checked and not assumed.
    """
    u = scipy.linalg.expm((2 * np.pi / block.h) * block.entries)
    return float(np.abs(u - cycle_permutation(block.n)).max())


def offdiagonal_approximation_error(block: MingBlock, band: int = 3) -> float:
    """Relative mismatch of near-diagonal entry magnitudes against h / (2 pi |i-j|).

    The large-n entry asymptotics fix the magnitude h / (2 pi |i - j|) close
    to the diagonal; the entry's phase is a branch convention, so the check
    compares moduli.  Returns the max relative error over 1 <= |i-j| <= band.
    """
    if band < 1 or band >= block.n:
        raise ValueError(f"band must lie in [1, n), got {band}")
    c = block.entries[:, 0]
    worst = 0.0
    for s in range(1, band + 1):
        target = block.h / (2 * np.pi * s)
        # circulant: entries at literal offset +s and -s have moduli |c[s]|, |c[n-s]|
        for mag in (abs(c[s]), abs(c[block.n - s])):
            worst = max(worst, abs(mag - target) / target)
    return worst


@dataclass(frozen=True)
class Propagator:
    """Time-t amplifier propagator assembled from an orbit decomposition.

    mode "permutation" (integer t): pure index relabeling, exact.
    mode "interpolated" (real t): per-orbit Fourier phases
    exp(-2 pi i j t / n) on mode j, which reduces to the permutation at
    integer t and obeys the group law in t.
    """

    n_sites: int
    t: float
    mode: str
    _members: np.ndarray | None = None
    _phases: np.ndarray | None = None

    def apply_dense(self, state: np.ndarray) -> np.ndarray:
        """Apply to a dense amplifier vector of length 2**n."""
        size = 1 << self.n_sites
        if state.shape != (size,):
            raise ValueError(f"expected state of shape ({size},), got {state.shape}")
        if self.mode == "permutation":
            idx = np.arange(size)
            out = np.empty(size, dtype=complex)
            # vectorized doubling map; endpoints are fixed
            modulus = size - 1
            mult = pow(2, int(self.t) % self.n_sites, modulus)
            images = (idx[1:-1] * mult) % modulus
            out[images] = state[1:-1]
            out[0] = state[0]
            out[modulus] = state[modulus]
            return out
        out = np.asarray(state, dtype=complex).copy()
        block = out[self._members]
        block = np.fft.ifft(np.fft.fft(block, axis=1) * self._phases[None, :], axis=1)
        out[self._members] = block
        return out


def assemble_propagator(
    decomp: OrbitDecomposition, t: float, mode: str = "auto"
) -> Propagator:
    """Build the time-t propagator (h cancels from exp((2 pi t / h) A)).

    Integer t selects the exact permutation mode; any other t the
    interpolated Fourier mode (dense bound applies to the decomposition
    already, so no further size check is needed).
    """
    if mode not in ("auto", "permutation", "interpolated"):
        raise ValueError(f"unknown propagator mode {mode!r}")
    t_is_integer = float(t).is_integer()
    if mode == "permutation" and not t_is_integer:
        raise ValueError("permutation mode needs integer t")
    if mode == "auto":
        mode = "permutation" if t_is_integer else "interpolated"
    if mode == "permutation":
        return Propagator(n_sites=decomp.n, t=float(t), mode=mode)
    n = decomp.n
    members = np.array([decomp.orbit_members(oid) for oid in range(decomp.q)])
    phases = np.exp(-2j * np.pi * np.arange(n) * (t / n))
    return Propagator(n_sites=n, t=float(t), mode=mode, _members=members, _phases=phases)
