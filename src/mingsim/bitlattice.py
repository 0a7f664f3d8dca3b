"""Cyclic bit-lattice geometry.

A register of n binary sites is identified with the index set
[0, 2**n - 1] through

    index = sum_k  d_k * 2**k ,

so site k carries the digit d_k = (index >> k) & 1.  Digit strings are
written site 0 first: for n = 5 the index 3 reads "11000".

The one-step lattice motion cycles the digits,

    (d_0, d_1, ..., d_{n-1})  ->  (d_{n-1}, d_0, ..., d_{n-2}),

which on indices is multiplication by 2 modulo 2**n - 1, with the two
constant configurations 0 and 2**n - 1 left fixed.  For prime n every
non-fixed index lies on an orbit of length exactly n, giving the
partition into q = (2**n - 2)/n cyclic orbits plus the two fixed points.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .errors import DenseBoundError, NonPrimeOrderError

# Dense tables and dense state vectors are only built up to this many sites
# (2**13 = 8192 basis states).  Index checks build no 2**n and take any n.
DENSE_MAX_SITES = 13

# A one-period sweep holds about 19 bytes per site at its peak (20 MB at
# n = 1 048 573), so 2**25 sites take about 640 MB of arrays: one sweep
# process stays within a 768 MB budget of peak resident memory.
SWEEP_MAX_SITES = 1 << 25


def is_prime(n: int) -> bool:
    """Trial-division primality check, adequate for lattice sizes used here."""
    if n < 2:
        return False
    if n < 4:
        return True
    if n % 2 == 0:
        return False
    d = 3
    while d * d <= n:
        if n % d == 0:
            return False
        d += 2
    return True


def require_prime(n: int) -> None:
    """Refuse n over SWEEP_MAX_SITES (ValueError) before any trial division,
    then a composite n (NonPrimeOrderError)."""
    if n > SWEEP_MAX_SITES:
        raise ValueError(f"n={n} exceeds the sweep bound of {SWEEP_MAX_SITES} sites")
    if not is_prime(n):
        raise NonPrimeOrderError(f"n must be prime, got {n}")


def require_index(i: int, n: int) -> None:
    """Refuse a basis index outside [0, 2**n - 1], without building 2**n."""
    if i < 0 or i >> n:
        raise ValueError(f"basis index {i} out of range for n={n}")


def require_dense(n: int) -> None:
    if n > DENSE_MAX_SITES:
        raise DenseBoundError(
            f"n={n} exceeds dense-mode bound of {DENSE_MAX_SITES} sites"
        )


def shift_index(index: int, n: int, steps: int = 1) -> int:
    """Apply the digit cycle (d_0, .., d_{n-1}) -> (d_{n-1}, d_0, .., d_{n-2})
    `steps` times to an index; this is the package's one shift.

    Fixed points 0 and 2**n - 1 are invariant; everything else is
    index * 2**steps mod (2**n - 1).  Negative steps run the cycle backwards.
    """
    modulus = (1 << n) - 1
    if index == 0 or index == modulus:
        return index
    return (index * pow(2, steps % n, modulus)) % modulus


@dataclass(frozen=True)
class OrbitDecomposition:
    """Partition of [0, 2**n - 1] into shift orbits.

    Row k of ``members`` (shape q x n, read-only) lists cyclic orbit k in
    phase-offset order, members[k, m] = members[k, 0] * 2**m mod (2**n - 1).
    Column 0 holds each orbit's minimal member (its representative), and
    rows are ordered by it.  The fixed points 0 and 2**n - 1 lie on no row.
    """

    n: int
    members: np.ndarray

    def __post_init__(self) -> None:
        self.members.setflags(write=False)

    @property
    def q(self) -> int:
        return len(self.members)


@lru_cache(maxsize=16)
def decompose_orbits(n: int) -> OrbitDecomposition:
    """Build the full orbit table for prime n within the dense bound.

    Closed form: for each start index i = 1 .. 2**n - 2 the row
    i * 2**m mod (2**n - 1), m = 0 .. n - 1, is the orbit of i in
    phase-offset order.  The rows whose minimum is i itself are kept, one
    per orbit, led by its minimal member and in increasing order; prime n
    makes each a full orbit of length n.  Cached; safe because the table is
    read-only.
    """
    require_dense(n)
    require_prime(n)
    modulus = (1 << n) - 1
    start = np.arange(1, modulus, dtype=np.int64)
    table = start[:, None] * (1 << np.arange(n, dtype=np.int64)) % modulus
    members = table[table.min(axis=1) == start]
    return OrbitDecomposition(n=n, members=members)
