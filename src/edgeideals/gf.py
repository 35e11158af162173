"""Rank computations over small prime fields."""

from __future__ import annotations

import numpy as np

from .errors import CapExceededError, NonPrimeCharacteristicError

# Strong-probable-prime tests to the first 13 prime bases decide
# primality exactly below this bound (Sorenson and Webster, 2015).
_MR_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)
MILLER_RABIN_LIMIT = 3317044064679887385961981


def _is_prime(n: int) -> bool:
    """Deterministic Miller-Rabin for 0 <= n < MILLER_RABIN_LIMIT."""
    if n < 2:
        return False
    for a in _MR_BASES:
        if n % a == 0:
            return n == a
    d, s = n - 1, 0
    while d % 2 == 0:
        d //= 2
        s += 1
    for a in _MR_BASES:
        x = pow(a, d, n)
        if x == 1 or x == n - 1:
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


def check_prime(p: int) -> None:
    if p >= MILLER_RABIN_LIMIT:
        raise CapExceededError(
            f"characteristic {p} is not below {MILLER_RABIN_LIMIT}, "
            f"where primality is decided exactly", limit="primality_bound")
    if not _is_prime(p):
        raise NonPrimeCharacteristicError(f"characteristic {p} is not prime")


def gf2_rank(rows: list[int]) -> int:
    """Rank over GF(2) of rows given as bitmasks."""
    pivots: dict[int, int] = {}
    rank = 0
    for row in rows:
        while row:
            low = row & -row
            other = pivots.get(low)
            if other is None:
                pivots[low] = row
                rank += 1
                break
            row ^= other
    return rank


def gfp_rank(matrix: np.ndarray, p: int) -> int:
    """Rank mod p by Gaussian elimination; matrix entries may be negative.

    Below 2^31 a product of two residues fits in int64 with room for the
    subtraction; from there on the entries are Python ints in an object
    array, on the same elimination.
    """
    if matrix.size == 0:
        return 0
    dtype = np.int64 if p < 1 << 31 else object
    a = np.array(matrix, dtype=dtype) % p
    n_rows, n_cols = a.shape
    rank = 0
    for col in range(n_cols):
        if rank == n_rows:
            break
        pivot_rows = np.nonzero(a[rank:, col])[0]
        if pivot_rows.size == 0:
            continue
        pivot = rank + pivot_rows[0]
        if pivot != rank:
            a[[rank, pivot]] = a[[pivot, rank]]
        inv = pow(int(a[rank, col]), p - 2, p)
        a[rank] = (a[rank] * inv) % p
        mask = np.nonzero(a[:, col])[0]
        mask = mask[mask != rank]
        if mask.size:
            a[mask] = (a[mask] - np.outer(a[mask, col], a[rank])) % p
        rank += 1
    return rank
