"""Betti numbers through the Taylor complex, as an independent oracle.

The Taylor complex on the r minimal generators is a (generally
non-minimal) free resolution indexed by generator subsets.  Tensoring
with the residue field keeps exactly the unit entries of the
differential, i.e. the pairs A, A minus g with equal lcm.  The complex
therefore splits into strands, one per lcm value, and the homology of
the strand in homological degree i is beta_{i, lcm}.  Nothing here is
shared with the subset-scan engine beyond gf.gfp_rank, which both call
for every field.  The complex has 2^r faces, so more than
DEFAULT_MAX_GENS generators raise SizeLimitError (limit "taylor_cap").
"""

from __future__ import annotations

from .errors import InvalidParameterError, SizeLimitError
from .gf import check_prime, gfp_rank
from .ideals import MonomialIdeal
from .betti import BettiTable

DEFAULT_MAX_GENS = 12


def betti_table_taylor(ideal: MonomialIdeal, characteristic: int = 2
                       ) -> BettiTable:
    check_prime(characteristic)
    if ideal.is_unit:
        raise InvalidParameterError(
            "S/I is the zero module; its Betti table is empty")
    gens = sorted(ideal.gens, key=lambda g: (g.bit_count(), g))
    r = len(gens)
    if r > DEFAULT_MAX_GENS:
        raise SizeLimitError(
            f"{r} generators exceeds the Taylor cap of {DEFAULT_MAX_GENS}",
            limit="taylor_cap")
    # lcm of every generator subset, built one lowest bit at a time
    lcm = [0] * (1 << r)
    for a in range(1, 1 << r):
        low = a & -a
        lcm[a] = lcm[a ^ low] | gens[low.bit_length() - 1]
    strands: dict[int, dict[int, list[int]]] = {}
    for a in range(1 << r):
        strands.setdefault(lcm[a], {}).setdefault(a.bit_count(), []).append(a)
    entries: dict[tuple[int, int], int] = {}
    for mu, levels in strands.items():
        j = mu.bit_count()
        for lst in levels.values():
            lst.sort()
        index = {i: {a: c for c, a in enumerate(lst)} for i, lst in levels.items()}
        top = max(levels)
        # rank of the differential from level i to level i-1 within the strand
        rank = [0] * (top + 2)
        for i in range(1, top + 1):
            sources = levels.get(i, ())
            targets = index.get(i - 1, {})
            if not sources or not targets:
                continue
            rows = []
            for a in sources:
                row = {}
                sign = 1
                rem = a
                while rem:
                    low = rem & -rem
                    rem ^= low
                    b = a ^ low
                    if lcm[b] == mu:
                        row[targets[b]] = sign
                    sign = -sign
                rows.append(row)
            rank[i] = gfp_rank(rows, characteristic)
        for i, lst in levels.items():
            h = len(lst) - rank[i] - rank[i + 1]
            if h:
                entries[(i, j)] = entries.get((i, j), 0) + h
    return BettiTable.from_dict(ideal.n_vars, characteristic, entries)
