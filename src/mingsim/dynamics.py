"""Two-branch amplifier dynamics and Born-weight time averages.

The combined system holds a two-state particle and the n-site amplifier.
States are kept in branch form

    a0 * psi0 (x) amp0  +  a1 * psi1 (x) amp1 ,

with amp0/amp1 sparse over basis indices.  The interaction freezes the
psi0 branch and advances the psi1 branch with the shift propagator, so a
detection event walks the amplifier pattern around its orbit while a
non-event leaves it cocked.

The time average of the pointer variable over one period approaches the
Born weight |a1|^2 of the moving branch:

    <f_n> = |a1|^2 (1 - 1/n)        (strict cocked start, horizon n)

which is what `born_limit_sweep` tabulates across lattice sizes.  At
every size it counts cocked revisits (`orbit_compressed_average`), O(n)
array work independent of the horizon, so it takes milliseconds at
n ~ 10^5.  `time_average_f` steps the state one integer tick at a time
and stays as the reference for the count.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from types import MappingProxyType
from typing import Iterable, Mapping

import numpy as np

from .bitlattice import decompose_orbits, require_dense, require_prime, shift_index
from .errors import NotNormalizedError, UnsupportedInitialStateError
from .ming import assemble_propagator
from .observable import CockedSet, PointerVariable, sq_modulus, strict_cocked_index

NORM_RTOL = 1e-9


def _norm(amp: Mapping[int, complex]) -> float:
    return math.sqrt(math.fsum(abs(c) ** 2 for c in amp.values()))


@dataclass(frozen=True)
class CombinedState:
    """Branch decomposition of a combined particle+amplifier state."""

    n: int
    a0: complex
    a1: complex
    amp0: Mapping[int, complex]
    amp1: Mapping[int, complex]

    def __post_init__(self) -> None:
        object.__setattr__(self, "amp0", MappingProxyType(dict(self.amp0)))
        object.__setattr__(self, "amp1", MappingProxyType(dict(self.amp1)))
        size = 1 << self.n
        for amp in (self.amp0, self.amp1):
            for i in amp:
                if not 0 <= i < size:
                    raise ValueError(f"basis index {i} out of range for n={self.n}")
        total = self.norm()
        if not math.isfinite(total):
            raise NotNormalizedError(f"combined norm {total!r} is not finite")
        if abs(total - 1.0) > NORM_RTOL:
            raise NotNormalizedError(
                f"combined norm {total!r} deviates from 1 beyond {NORM_RTOL}"
            )

    @property
    def branches(self) -> tuple[tuple[complex, Mapping[int, complex]], ...]:
        """Branch view consumed by the pointer variable."""
        return ((self.a0, self.amp0), (self.a1, self.amp1))

    def norm(self) -> float:
        return math.sqrt(
            abs(self.a0) ** 2 * _norm(self.amp0) ** 2
            + abs(self.a1) ** 2 * _norm(self.amp1) ** 2
        )


def cocked_start(n: int, a0: complex, a1: complex) -> CombinedState:
    """Both branches on the strict cocked configuration, particle in (a0, a1)
    scaled to unit norm."""
    w = math.sqrt(sq_modulus(a0) + sq_modulus(a1))
    if not math.isfinite(w):
        raise NotNormalizedError(f"particle amplitude norm {w!r} is not finite")
    if w == 0.0:
        raise NotNormalizedError("particle amplitudes are both zero")
    i = strict_cocked_index(n)
    return CombinedState(n=n, a0=a0 / w, a1=a1 / w, amp0={i: 1 + 0j}, amp1={i: 1 + 0j})


def evolve_combined(state: CombinedState, t: float) -> CombinedState:
    """Advance the psi1 branch by time t; the psi0 branch is frozen.

    Integer t relabels indices exactly at any n.  Any other t applies the
    Fourier-phase propagator to a dense 2**n vector, so the dense bound
    applies; the orbit table comes from the cached decompose_orbits.
    """
    if float(t).is_integer():
        moved = {
            shift_index(i, state.n, int(t)): c for i, c in state.amp1.items()
        }
    else:
        require_dense(state.n)
        prop = assemble_propagator(decompose_orbits(state.n), t)
        dense = np.zeros(1 << state.n, dtype=complex)
        for i, c in state.amp1.items():
            dense[i] = c
        v = prop.apply_dense(dense)
        moved = {int(i): complex(v[i]) for i in np.flatnonzero(v)}
    return CombinedState(
        n=state.n, a0=state.a0, a1=state.a1, amp0=dict(state.amp0), amp1=moved
    )


@dataclass(frozen=True)
class TimeAverageResult:
    mean: float


def time_average_f(state: CombinedState, cocked: CockedSet, horizon: int) -> TimeAverageResult:
    """Stroboscopic mean of f_n over t = 0 .. horizon-1 (exact permutation steps)."""
    if horizon < 1:
        raise ValueError(f"horizon must be positive, got {horizon}")
    if cocked.n != state.n:
        raise ValueError("cocked set and state have different n")
    pv = PointerVariable(cocked)
    vals = []
    current = state
    for t in range(horizon):
        if t > 0:
            current = evolve_combined(current, 1)
        vals.append(pv.value(current))
    return TimeAverageResult(mean=math.fsum(vals) / horizon)


def _revisit_count(index: int, cocked: CockedSet, horizon: int) -> int:
    """Number of t in [0, horizon) with shift^t(index) in the cocked set.

    After t steps site k holds the start digit of site (k - t) mod n, so
    the left half is the cyclic window of left_size start digits that
    begins at site (-t) mod n.  One cumulative sum over the doubled digit
    ring gives every window's digit count at once.
    """
    n, ls, b = cocked.n, cocked.left_size, cocked.budget
    digits = np.unpackbits(
        np.frombuffer(index.to_bytes((n + 7) // 8, "little"), dtype=np.uint8),
        count=n,
        bitorder="little",
    )
    ring = np.zeros(2 * n + 1, dtype=np.int32)
    np.cumsum(np.concatenate((digits, digits)), dtype=np.int32, out=ring[1:])
    left = ring[ls : ls + n] - ring[:n]  # left[s]: ones in the window at site s
    total = int(ring[n])
    hit = (ls - left <= b) & (total - left <= b)
    # t = 0 reads window 0, t = 1 .. rest-1 windows n-1 .. n-rest+1
    rest = horizon % n
    partial = int(hit[0]) + int(hit[n - rest + 1 :].sum()) if rest else 0
    return (horizon // n) * int(hit.sum()) + partial


def orbit_compressed_average(
    state: CombinedState,
    cocked: CockedSet,
    horizon: int | None = None,
) -> TimeAverageResult:
    """Same stroboscopic mean, evaluated by counting cocked revisits.

    Needs both branch vectors to be single basis configurations; then

        f(t) = 1 - |a0|^2 [amp0 in C] - |a1|^2 [shift^t(amp1) in C]

    and the mean only requires the revisit counts.  They come from window
    sums over the n digits of amp1, O(n) array work independent of the
    horizon and of 2**n.
    """
    if cocked.n != state.n:
        raise ValueError("cocked set and state have different n")
    if horizon is None:
        horizon = state.n
    if horizon < 1:
        raise ValueError(f"horizon must be positive, got {horizon}")
    basis = []
    for _, amp in state.branches:
        if len(amp) != 1:
            raise UnsupportedInitialStateError(
                "orbit-compressed averaging needs basis-vector branches"
            )
        ((i, c),) = amp.items()
        if abs(abs(c) - 1.0) > NORM_RTOL:
            raise UnsupportedInitialStateError("branch amplitude must be unit modulus")
        basis.append(i)
    i0, i1 = basis
    k0 = horizon if cocked.contains(i0) else 0
    k1 = _revisit_count(i1, cocked, horizon)
    w0 = abs(state.a0) ** 2
    w1 = abs(state.a1) ** 2
    return TimeAverageResult(mean=1.0 - w0 * (k0 / horizon) - w1 * (k1 / horizon))


@dataclass(frozen=True)
class SweepRow:
    n: int
    mean: float
    born_weight: float
    abs_error: float


def born_limit_sweep(
    a: tuple[complex, complex],
    n_list: Iterable[int],
    epsilon_schedule: float = 0.0,
    path: str = "compressed",
) -> list[SweepRow]:
    """Tabulate <f_n> against the Born weight |a1|^2 across lattice sizes.

    Every size starts from the strict cocked configuration in both branches
    and averages over one period, horizon n, by counting cocked revisits
    (orbit_compressed_average).  epsilon_schedule is the one deviation
    fraction of the cocked set at every size.  path takes only "compressed":
    it stays because the benchmark's amplifier workload passes it, and goes
    once that workload calls orbit_compressed_average directly (ROADMAP
    item 1).
    """
    if path != "compressed":
        raise ValueError(f"unknown path {path!r}")
    a0, a1 = a
    rows = []
    for n in n_list:
        require_prime(n)
        state = cocked_start(n, a0, a1)
        res = orbit_compressed_average(state, CockedSet(n, float(epsilon_schedule)), n)
        w1 = abs(state.a1) ** 2
        rows.append(
            SweepRow(n=n, mean=res.mean, born_weight=w1, abs_error=abs(res.mean - w1))
        )
    return rows
