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
from the propagator exp((2 pi t / h) A), which depends on t alone.
verify_exponential checks the identity without any Fourier mode, through a
real symmetric eigensolve of the same size n: with J the reflection
e_k -> e_{-k mod n}, Q = (I + i J) / sqrt(2) is unitary, and for a Hermitian
G = (2 pi i / h) A with conj(G) = J G J, which every Hermitian circulant
meets, Q^H G Q is real symmetric (the construction Lee gives for
centro-Hermitian matrices, Linear Algebra Appl. 29, 205 (1980)).  The check
measures the Hermitian and reflection conditions as well, since the
reduction holds only under them, and runs on numpy alone.  The
fixed-point subspace spanned by the two constant configurations carries the
zero block and is left untouched at every t.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .bitlattice import OrbitDecomposition

_BAND = 3  # largest |i - j| that offdiagonal_approximation_error checks


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
    """Construct the orbit block of dimension n (n = 1 gives the zero block).

    h must be finite and > 0, and so must 2 pi / h, which scales the block in
    verify_exponential; an h so large that an entry overflows is rejected
    too.  Each is a ValueError naming h.
    """
    if n < 1:
        raise ValueError(f"block dimension must be positive, got {n}")
    if not (math.isfinite(h) and h > 0):
        raise ValueError(f"h must be finite and > 0, got {h!r}")
    if not math.isfinite(2 * math.pi / h):
        raise ValueError(f"h={h!r} is too small: 2 pi / h is not finite")
    c = _first_column(n, h)
    if not np.isfinite(c).all():
        raise ValueError(f"h={h!r} is too large: the block entries overflow")
    j = np.arange(n)
    entries = c[(j[:, None] - j[None, :]) % n]
    return MingBlock(n=n, h=h, entries=entries)


def verify_exponential(block: MingBlock) -> float:
    """Max-abs residual of exp((2 pi / h) A) against the cyclic permutation.

    The exponential comes from numpy's general symmetric eigensolver, not
    from the Fourier construction of the block, so the identity is checked
    and not assumed.  With G = (2 pi i / h) A and J the reflection
    e_k -> e_{-k mod n}, Q = (I + i J) / sqrt(2) is unitary, and when G is
    Hermitian with conj(G) = J G J the matrix T = Q^H G Q is real symmetric:
    T = (Re G + J Re G J + J Im G - Im G J) / 2.  With T = W diag(lam) W^T,
    exp(-i G) = Q (R + i S) Q^H, where R = W diag(cos lam) W^T and
    S = -W diag(sin lam) W^T, so the check costs one real eigensolve of
    size n and two real products.  Every Hermitian circulant meets the
    reflection condition; a matrix that does not is not similar to T, so the
    result is the largest of the exponential residual, the Hermitian defect
    max|G - G^H| and the reflection defect max|conj(G) - J G J|.  The
    Hermitian defect also covers the triangle of T that eigh does not
    read.  Scaling by 2 pi / h before the solve keeps every term
    independent of h.
    """
    n = block.n
    flip = -np.arange(n) % n  # J as an index: J X = X[flip], X J = X[:, flip]
    mirror = np.ix_(flip, flip)  # J X J = X[mirror]
    g = (2j * np.pi / block.h) * block.entries
    d = g[mirror]  # J G J
    t = d.real + g.real
    t += g.imag[flip]
    t -= g.imag[:, flip]
    t *= 0.5
    np.conjugate(d, out=d)
    d -= g  # conj(J G J) - G
    reflection = np.abs(d).max()
    np.conjugate(g.T, out=d)
    d -= g  # G^H - G
    hermitian = np.abs(d).max()
    del g, d
    lam, w = np.linalg.eigh(t)
    del t
    r = (w * np.cos(lam)) @ w.T
    s = (w * -np.sin(lam)) @ w.T
    del w
    # real and imaginary parts of Q (R + i S) Q^H
    re = r[mirror]
    re += r
    re -= s[flip]
    re += s[:, flip]
    re *= 0.5
    im = s[mirror]
    im += s
    im += r[flip]
    im -= r[:, flip]
    im *= 0.5
    del r, s
    j = np.arange(n)
    re[(j + 1) % n, j] -= 1.0  # P: e_j -> e_{j+1}
    return float(max(np.hypot(re, im).max(), hermitian, reflection))


def offdiagonal_approximation_error(block: MingBlock) -> float:
    """Relative mismatch of near-diagonal entry magnitudes against h / (2 pi |i-j|).

    The large-n entry asymptotics fix the magnitude h / (2 pi |i - j|) close
    to the diagonal; the entry's phase is a branch convention, so the check
    compares moduli.  Returns the max relative error over 1 <= |i-j| <= _BAND.
    """
    if block.n <= _BAND:
        raise ValueError(f"block dimension must exceed the band {_BAND}, got {block.n}")
    c = block.entries[:, 0]
    worst = 0.0
    for s in range(1, _BAND + 1):
        target = block.h / (2 * np.pi * s)
        # circulant: entries at literal offset +s and -s have moduli |c[s]|, |c[n-s]|
        for mag in (abs(c[s]), abs(c[block.n - s])):
            worst = max(worst, abs(mag - target) / target)
    return worst


@dataclass(frozen=True)
class Propagator:
    """Amplifier propagator exp((2 pi t / h) A) on every orbit block, held as
    the orbit table and the n Fourier phases exp(-2 pi i j t / n) of time t.

    apply_dense multiplies mode j of every orbit row of the decomposition's
    `members` table by phase j, for any real t; this obeys the group law in
    t.  At integer t it gives the digit-shift permutation to rounding (about
    1e-14 for n <= 13), so it serves as a dense reference that shares no
    code with bitlattice.shift_index.  The fixed points are left untouched.
    """

    n_sites: int
    _members: np.ndarray
    _phases: np.ndarray

    def apply_dense(self, state: np.ndarray) -> np.ndarray:
        """Apply to a dense amplifier vector of length 2**n."""
        size = 1 << self.n_sites
        if state.shape != (size,):
            raise ValueError(f"expected state of shape ({size},), got {state.shape}")
        out = np.asarray(state, dtype=complex).copy()
        block = out[self._members]
        block = np.fft.ifft(np.fft.fft(block, axis=1) * self._phases[None, :], axis=1)
        out[self._members] = block
        return out


def assemble_propagator(decomp: OrbitDecomposition, t: float) -> Propagator:
    """Build the time-t propagator (h cancels from exp((2 pi t / h) A)).

    The decomposition already enforces the dense bound, so no further size
    check is needed.
    """
    n = decomp.n
    phases = np.exp(-2j * np.pi * np.arange(n) * (t / n))
    return Propagator(n_sites=n, _members=decomp.members, _phases=phases)
