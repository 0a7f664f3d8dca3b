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

from .bitlattice import OrbitDecomposition, require_int

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

    n must be a positive integer (not a bool).  h must be finite and > 0,
    and so must 2 pi / h, which scales the block in verify_exponential; an h
    so large that an entry overflows is rejected too.  Each is a ValueError,
    and each on h names h.  Row j of the circulant is the reversed window
    c[j + n], c[j + n - 1], .., c[j + 1] of the doubled first column c, so
    the entries are one copy of a strided view, with no n x n index.
    """
    require_int("n", n)
    if n < 1:
        raise ValueError(f"block dimension must be positive, got {n}")
    if not (math.isfinite(h) and h > 0):
        raise ValueError(f"h must be finite and > 0, got {h!r}")
    if not math.isfinite(2 * math.pi / h):
        raise ValueError(f"h={h!r} is too small: 2 pi / h is not finite")
    c = _first_column(n, h)
    if not np.isfinite(c).all():
        raise ValueError(f"h={h!r} is too large: the block entries overflow")
    c = np.concatenate((c, c))
    step = c.strides[0]
    entries = np.ndarray((n, n), c.dtype, c, n * step, (step, -step)).copy()
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
    read.  Scaling by 2 pi / h before any square keeps every term
    independent of h and in range; each modulus is the square root of the
    largest re^2 + im^2.

    The working set is fixed: eigh's eigenvectors and three pairs of
    (n + 1) x (n + 1) real planes, reused in place: G's parts, freed before
    the eigensolve so that its workspace can reuse them; R and S; scratch
    for the defects, T and the residual.  A plane holds an n x n matrix X
    with row n and column n repeating row 0 and column 0, so J X J, J X and
    X J are the reversed views X[::-1, ::-1], X[::-1] and X[:, ::-1]: no
    step gathers through an index array or makes a complex temporary.
    """
    n = block.n
    g = np.empty((2, n + 1, n + 1))
    d = np.empty((2, n + 1, n + 1))
    x, y, a, b = g[0], g[1], d[0], d[1]
    fx, fy = g.reshape(2, -1)  # flat: J X J is the reversal fx[::-1]
    fa, fb = d.reshape(2, -1)
    # x, y = Re G, Im G at half scale, which folds T's 1/2 into the scale; the
    # factors of 2 here and below are exact, so T has the bits of the full-scale
    # sum halved
    half = math.pi / block.h
    np.multiply(block.entries.imag, -half, out=x[:-1, :-1])
    np.multiply(block.entries.real, half, out=y[:-1, :-1])
    _repeat_first(g)
    np.subtract(x.T, x, out=a)
    np.add(y.T, y, out=b)  # G^H - G, up to the sign of its imaginary part
    np.square(d, out=d)
    a += b
    hermitian = float(fa.max())
    np.subtract(fx[::-1], fx, out=fa)
    np.add(fy[::-1], fy, out=fb)  # conj(J G J) - G, up to the same sign
    np.square(d, out=d)
    a += b
    reflection = float(fa.max())
    np.add(fx[::-1], fx, out=fa)  # T = Re G + J Re G J + J Im G - Im G J
    a += y[::-1]
    a -= y[:, ::-1]
    del g, x, y, fx, fy  # eigh's workspace may reuse G's planes
    lam, w = np.linalg.eigh(a[:-1, :-1])
    # r, s = R / 4, S / 4: this folds in the 1/2 of Q (R + i S) Q^H, so a, b
    # below are the real and imaginary parts of (exp(-i G) - P) / 2
    cos = np.cos(lam) * 0.25
    sin = np.sin(lam) * -0.25
    rs = np.empty((2, n + 1, n + 1))
    r, s = rs[0], rs[1]
    fr, fs = rs.reshape(2, -1)
    weighted = fa[: n * n].reshape(n, n)
    np.multiply(w, cos, out=weighted)
    np.matmul(weighted, w.T, out=r[:-1, :-1])
    np.multiply(w, sin, out=weighted)
    np.matmul(weighted, w.T, out=s[:-1, :-1])
    _repeat_first(rs)
    np.add(fr[::-1], fr, out=fa)
    a -= s[::-1]
    a += s[:, ::-1]
    np.add(fs[::-1], fs, out=fb)
    b += r[::-1]
    b -= r[:, ::-1]
    # P: e_j -> e_{j+1} sits on the plane's subdiagonal, and rows 1..n,
    # columns 0..n-1 hold every entry of the n x n matrix once
    fa[n + 1 :: n + 2] -= 0.5
    np.square(d, out=d)
    a += b
    return 2 * math.sqrt(max(float(a[1:, :-1].max()), hermitian, reflection))


def _repeat_first(planes: np.ndarray) -> None:
    """Set row n and column n of each (n + 1) x (n + 1) plane to its row 0 and column 0."""
    planes[:, :-1, -1] = planes[:, :-1, 0]
    planes[:, -1] = planes[:, 0]


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
