"""Rank computations over small prime fields."""

from __future__ import annotations

import numpy as np

from .errors import NonPrimeCharacteristicError


def check_prime(p: int) -> None:
    if p < 2 or any(p % d == 0 for d in range(2, int(p ** 0.5) + 1)):
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
