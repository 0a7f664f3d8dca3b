"""Pointer observable built on the cocked configuration set.

A configuration is "cocked" when the left half of the register (sites
k < n // 2) is all ones and the right half all zeros, up to a deviation
budget of floor(eps * n) digits per half.  eps = 0 leaves the single
strict cocked configuration |11..100..0> with n // 2 ones.

The pointer variable of a normalized state v is

    f_n(v) = 1 - sum_{i in C} |<i|v>|^2 ,

the weight outside the cocked set.  On the combined particle+amplifier
space the sum runs over both particle branches tensored with cocked basis
states, so f_n of a separable state ignores the particle factor.  f_n is
insensitive to overall scale (states are normalized first) and, in the
family sense checked by `macroscopic_check`, to any fixed finite prefix
of the device.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache
from typing import Callable, Mapping, Sequence

import numpy as np

from .bitlattice import require_dense
from .errors import NotNormalizedError

# norm windows: accept silently within NORM_ATOL, else require normalize=True
NORM_ATOL = 1e-6


@dataclass(frozen=True)
class CockedSet:
    """Deviation-budget description of the cocked configurations."""

    n: int
    epsilon: float

    def __post_init__(self) -> None:
        if self.n < 2:
            raise ValueError(f"need at least two sites, got n={self.n}")
        if not 0.0 <= self.epsilon < 1.0:
            raise ValueError(f"epsilon must lie in [0, 1), got {self.epsilon}")

    @property
    def left_size(self) -> int:
        return self.n // 2

    @property
    def budget(self) -> int:
        # guard against representation dust in eps * n (e.g. 0.29 * 100)
        return int(math.floor(self.epsilon * self.n + 1e-12))

    def contains(self, index: int) -> bool:
        """Membership by digit counts; works at any n (index is a plain int)."""
        ls = self.left_size
        left_dev = ls - (index & ((1 << ls) - 1)).bit_count()
        right_dev = (index >> ls).bit_count()
        return left_dev <= self.budget and right_dev <= self.budget

    def mask(self) -> np.ndarray:
        """Boolean membership table over all 2**n indices (dense bound)."""
        require_dense(self.n)
        return _mask(self.n, self.left_size, self.budget)


def strict_cocked_index(n: int) -> int:
    """Index of |11..100..0> with n // 2 ones (the eps = 0 cocked configuration)."""
    return (1 << (n // 2)) - 1


@lru_cache(maxsize=64)
def _mask(n: int, left_size: int, budget: int) -> np.ndarray:
    idx = np.arange(1 << n, dtype=np.int64)
    left_ones = np.zeros(idx.shape, dtype=np.int64)
    right_ones = np.zeros(idx.shape, dtype=np.int64)
    for k in range(n):
        bit = (idx >> k) & 1
        if k < left_size:
            left_ones += bit
        else:
            right_ones += bit
    out = ((left_size - left_ones) <= budget) & (right_ones <= budget)
    out.setflags(write=False)
    return out


def sq_modulus(c: complex) -> float:
    """|c|^2, or inf where the float power overflows: Python raises
    OverflowError there, ahead of any not-finite check."""
    try:
        return abs(c) ** 2
    except OverflowError:
        return math.inf


def _norm_sq_and_cocked_weight(state, cocked: CockedSet) -> tuple[float, float]:
    """Total |v|^2 and the part supported on the cocked set.

    A combined state is the |a|^2-weighted sum of its branch mappings.
    """
    if hasattr(state, "branches"):
        parts = [(abs(a) ** 2, _norm_sq_and_cocked_weight(amp, cocked)) for a, amp in state.branches]
        return sum(w * total for w, (total, _) in parts), sum(w * inside for w, (_, inside) in parts)
    if isinstance(state, Mapping):
        for i in state:
            if i < 0 or i >> cocked.n:
                raise ValueError(f"basis index {i} out of range for n={cocked.n}")
        total = sum(sq_modulus(c) for c in state.values())
        inside = sum(sq_modulus(c) for i, c in state.items() if cocked.contains(i))
        return total, inside
    v = np.asarray(state)
    if v.ndim != 1 or v.shape[0] != (1 << cocked.n):
        raise ValueError(
            f"expected amplifier vector of length {1 << cocked.n}, got shape {v.shape}"
        )
    p = np.abs(v) ** 2
    return float(p.sum()), float(p[cocked.mask()].sum())


class PointerVariable:
    """f_n evaluator bound to one cocked set."""

    def __init__(self, cocked: CockedSet):
        self.cocked = cocked

    def value(self, state, normalize: bool = False) -> float:
        total, inside = _norm_sq_and_cocked_weight(state, self.cocked)
        if total == 0.0:
            raise NotNormalizedError("state has zero norm")
        if not math.isfinite(total):
            raise NotNormalizedError(f"state norm {math.sqrt(total)!r} is not finite")
        if not normalize and abs(math.sqrt(total) - 1.0) > NORM_ATOL:
            raise NotNormalizedError(
                f"state norm {math.sqrt(total):.6g} deviates from 1; "
                "pass normalize=True to rescale"
            )
        return 1.0 - inside / total


def pointer_value(state, cocked: CockedSet) -> float:
    """f_n of a state whose norm is 1 within NORM_ATOL; PointerVariable.value
    takes normalize=True to rescale any other nonzero state."""
    return PointerVariable(cocked).value(state)


# ---------------------------------------------------------------------------
# macroscopicity check for indexed variable families
# ---------------------------------------------------------------------------

# a family maps (total size n, dense amplifier vector) to a value
VariableFamily = Callable[[int, np.ndarray], float]


def pointer_family(epsilon_schedule: Callable[[int], float]) -> VariableFamily:
    """f_n family with a per-size negligibility fraction epsilon_schedule(n)."""
    return lambda n, v: PointerVariable(CockedSet(n, epsilon_schedule(n))).value(v, normalize=True)


def first_site_family(n: int, v: np.ndarray) -> float:
    """Excitation probability of site 0: a local variable that is not macroscopic."""
    p = np.abs(np.asarray(v)) ** 2
    total = p.sum()
    if total == 0.0:
        raise NotNormalizedError("state has zero norm")
    odd = p[1::2].sum()  # indices with d_0 = 1
    return float(odd / total)


@dataclass(frozen=True)
class MacroscopicReport:
    spreads: np.ndarray  # max pairwise |difference| per total size n0+1..horizon
    final_spread: float
    passed: bool


def macroscopic_check(
    family: VariableFamily,
    prefixes: Sequence[np.ndarray],
    tails: Callable[[int], np.ndarray],
    horizon: int,
    tolerance: float,
) -> MacroscopicReport:
    """Exact prefix-independence probe for a variable family.

    Each prefix v0 over n0 sites is extended one site at a time, site k
    getting the single-site vector tails(k), and the family is evaluated on
    the dense product state at every total size n0+1..horizon.  The
    report's `spreads` holds the max pairwise spread of the values across
    prefixes at each of those sizes, in order.  PASS means the spread never
    grows by more than tolerance / 2 in one step (a noise-tolerant
    nonincreasing trend) and the final spread is at or below `tolerance`,
    an explicit input rather than a hidden default of the physics.
    """
    require_dense(horizon)
    if not prefixes:
        raise ValueError("need at least one prefix")
    sizes_n0 = {int(np.log2(len(p))) for p in prefixes}
    if len(sizes_n0) != 1:
        raise ValueError("all prefixes must cover the same number of sites")
    n0 = sizes_n0.pop()
    if 2**n0 != len(prefixes[0]):
        raise ValueError("prefix length must be a power of two")
    if horizon <= n0:
        raise ValueError(f"horizon {horizon} must exceed prefix size {n0}")
    sizes = range(n0 + 1, horizon + 1)
    values = np.zeros((len(prefixes), len(sizes)))
    for pi, prefix in enumerate(prefixes):
        state = np.asarray(prefix, dtype=complex)
        for si, size in enumerate(sizes):
            tail = np.asarray(tails(size - 1), dtype=complex)
            if tail.shape != (2,):
                raise ValueError("tail vectors must be single-site (length 2)")
            if abs(np.linalg.norm(tail) - 1.0) > 1e-9:
                raise NotNormalizedError("tail vectors must have norm one")
            # new site becomes the highest bit of the index
            state = np.kron(tail, state)
            values[pi, si] = family(size, state)
    spreads = values.max(axis=0) - values.min(axis=0)
    steps_ok = bool((np.diff(spreads) <= tolerance / 2 + 1e-15).all())
    final_spread = float(spreads[-1])
    passed = steps_ok and final_spread <= tolerance
    return MacroscopicReport(spreads=spreads, final_spread=final_spread, passed=passed)
