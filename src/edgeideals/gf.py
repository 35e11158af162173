"""Rank computations over small prime fields."""

from __future__ import annotations

from .errors import InvalidParameterError, SizeLimitError

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
        raise SizeLimitError(
            f"characteristic {p} is not below {MILLER_RABIN_LIMIT}, "
            f"where primality is decided exactly", limit="primality_bound")
    if not _is_prime(p):
        raise InvalidParameterError(f"characteristic {p} is not prime")


def gfp_rank(rows: list[dict[int, int]], p: int) -> int:
    """Rank mod p of sparse rows {column: entry}; entries may be negative.

    Each row is reduced by the stored pivot row of its lowest column
    until it vanishes or opens a new pivot; entries are Python ints, so
    any prime p works, 2 included.
    """
    pivots: dict[int, dict[int, int]] = {}
    rank = 0
    for row in rows:
        row = {c: x % p for c, x in row.items() if x % p}
        while row:
            col = min(row)
            other = pivots.get(col)
            if other is None:
                inv = pow(row[col], -1, p)
                pivots[col] = {c: x * inv % p for c, x in row.items()}
                rank += 1
                break
            factor = row[col]
            for c, x in other.items():
                y = (row.get(c, 0) - factor * x) % p
                if y:
                    row[c] = y
                else:
                    del row[c]
    return rank
