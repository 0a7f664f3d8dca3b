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
# (2**13 = 8192 basis states).  Index arithmetic itself has no bound.
DENSE_MAX_SITES = 13


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
    if not is_prime(n):
        raise NonPrimeOrderError(f"lattice size must be prime, got n={n}")


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

    Every non-fixed index belongs to exactly one orbit of length n; the
    representative is the minimal index on the orbit and representatives
    are listed in increasing order.  Cached; safe because the table is
    read-only.
    """
    require_prime(n)
    require_dense(n)
    size = 1 << n
    modulus = size - 1
    rows: list[list[int]] = []
    seen = np.zeros(size, dtype=bool)
    seen[0] = seen[modulus] = True
    for start in range(1, modulus):
        if seen[start]:
            continue
        members = []
        k = start
        while True:
            members.append(k)
            seen[k] = True
            k = (k * 2) % modulus
            if k == start:
                break
        # prime n forces full-length orbits off the fixed points
        assert len(members) == n, (n, start, members)
        rows.append(members)
    assert len(rows) * n == size - 2
    return OrbitDecomposition(n=n, members=np.array(rows, dtype=np.int64))
