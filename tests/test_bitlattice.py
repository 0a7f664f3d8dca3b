"""Shift map and orbit decomposition."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mingsim.bitlattice import (
    DENSE_MAX_SITES,
    OrbitDecomposition,
    decompose_orbits,
    is_prime,
    shift_index,
)
from mingsim.errors import DenseBoundError, NonPrimeOrderError

PRIMES_DENSE = [2, 3, 5, 7, 11, 13]


def digits(index: int, n: int) -> tuple[int, ...]:
    """(d_0, ..., d_{n-1}): site k carries bit k of the index."""
    return tuple((index >> k) & 1 for k in range(n))


def bitstring(index: int, n: int) -> str:
    """Digit string with site 0 leftmost."""
    return "".join(map(str, digits(index, n)))


def test_digit_convention():
    # site 0 is the least significant bit and prints first; one shift moves
    # the digit of site k to site k + 1, and the last site's to site 0
    assert digits(3, 5) == (1, 1, 0, 0, 0)
    assert bitstring(3, 5) == "11000"
    n = 7
    for k in range(n):
        assert shift_index(1 << k, n) == 1 << ((k + 1) % n)


def test_shift_example_n5():
    # 11000 -> 01100, i.e. index 3 -> 6
    assert shift_index(3, 5) == 6
    assert bitstring(shift_index(3, 5), 5) == "01100"


def test_shift_is_doubling_mod():
    n = 7
    modulus = 2**n - 1
    for i in range(1, modulus):
        assert shift_index(i, n) == (2 * i) % modulus


def test_fixed_points_stay():
    for n in PRIMES_DENSE:
        assert shift_index(0, n) == 0
        assert shift_index(2**n - 1, n) == 2**n - 1


@given(st.sampled_from(PRIMES_DENSE), st.integers(min_value=0, max_value=2**13 - 1))
@settings(max_examples=200)
def test_shift_period_divides_n(n, raw):
    idx = raw % 2**n
    assert shift_index(idx, n, steps=n) == idx


@given(st.sampled_from(PRIMES_DENSE), st.integers(min_value=0, max_value=2**13 - 1), st.integers(-20, 20))
@settings(max_examples=200)
def test_shift_inverse(n, raw, t):
    idx = raw % 2**n
    assert shift_index(shift_index(idx, n, t), n, -t) == idx


def test_shift_matches_digit_rotation():
    rng = np.random.default_rng(7)
    for n in PRIMES_DENSE:
        for idx in rng.integers(0, 2**n, size=20):
            d = digits(int(idx), n)
            rotated = (d[-1],) + d[:-1]
            assert digits(shift_index(int(idx), n), n) == rotated


def test_shift_index_large_n():
    # index arithmetic is unbounded; only tables are
    n = 1009
    i = 3
    assert shift_index(i, n) == 6
    assert shift_index(i, n, steps=n) == i


def test_decompose_n3():
    dec = decompose_orbits(3)
    assert dec.q == 2
    # rows by representative (column 0), members by phase offset
    assert dec.members.tolist() == [[1, 2, 4], [3, 6, 5]]
    # the fixed points lie on no orbit
    assert not {0, 7} & set(dec.members.ravel().tolist())


def test_decompose_rejects_nonprime():
    with pytest.raises(NonPrimeOrderError):
        decompose_orbits(4)


def test_decompose_rejects_beyond_dense_bound():
    with pytest.raises(DenseBoundError):
        decompose_orbits(17)


@pytest.mark.parametrize("n", PRIMES_DENSE)
def test_decomposition_partitions_everything(n):
    dec = decompose_orbits(n)
    size = 2**n
    assert dec.q == (size - 2) // n
    assert dec.members.shape == (dec.q, n)
    counts = np.zeros(size, dtype=int)
    for members in dec.members:
        assert len(set(members.tolist())) == n
        counts[members] += 1
    counts[[0, size - 1]] += 1
    assert (counts == 1).all()


@pytest.mark.parametrize("n", PRIMES_DENSE)
def test_offsets_consistent_with_representative(n):
    dec = decompose_orbits(n)
    modulus = 2**n - 1
    reps = dec.members[:, 0]
    assert (np.diff(reps) > 0).all()
    for members in dec.members:
        rep = int(members[0])
        assert rep == members.min()
        for m, idx in enumerate(members.tolist()):
            assert idx == (rep * pow(2, m, modulus)) % modulus


def test_is_prime_small():
    primes = {2, 3, 5, 7, 11, 13, 101, 1009}
    for n in range(2, 30):
        assert is_prime(n) == (n in {2, 3, 5, 7, 11, 13, 17, 19, 23, 29})
    for n in primes:
        assert is_prime(n)
    assert not is_prime(1) and not is_prime(0)


def test_tables_are_readonly():
    dec = decompose_orbits(5)
    assert isinstance(dec, OrbitDecomposition)
    with pytest.raises(ValueError):
        dec.members[0, 0] = 5
    # cached: every caller shares the one read-only table
    assert decompose_orbits(5) is dec
    assert DENSE_MAX_SITES == 13
