"""Squarefree monomial ideals, stored as bitmasks of any width.

A squarefree monomial is the bitmask of its support.  An ideal keeps the
sorted antichain of minimal generators; mask 0 denotes the monomial 1,
so gens == (0,) is the unit ideal and gens == () the zero ideal.
"""

from __future__ import annotations

from typing import Iterable, NamedTuple, Sequence

from .errors import InvalidParameterError
from .graphs import LabeledGraph, vars_of


def minimize(gens: Iterable[int]) -> tuple[int, ...]:
    """Reduce a generating set to the antichain of minimal monomials.

    A degree-1 generator kills its variable and every other generator
    through it, and distinct degree-2 generators never divide each
    other, so only generators of degree 3 or more scan the kept ones.
    """
    ordered = sorted(set(gens))
    ordered.sort(key=int.bit_count)  # stable: sorted by (size, mask)
    if ordered and ordered[0] == 0:
        return (0,)
    killed = 0
    kept: list[int] = []
    for g in ordered:
        if g & killed:
            continue
        d = g.bit_count()
        if d == 1:
            killed |= g
        elif d > 2 and any(k & g == k for k in kept):
            continue
        kept.append(g)
    return tuple(sorted(kept))


def faces_of(n_vars: int, gens: Iterable[int]) -> list[int]:
    """Every face of the Stanley-Reisner complex, sorted by (size, mask).

    The faces are the squarefree monomials on n_vars variables outside
    the ideal the generators span; the empty face comes first.  They
    grow one variable at a time: f | x_v, for a face f on the variables
    below v, can only contain a generator whose top variable is v.  The
    degree-2 ones among those are tested with one mask; only higher
    degrees need a scan.
    """
    killed = 0
    block = [0] * n_vars  # x_u for each generator x_u x_v with u < v
    rests: list[list[int]] = [[] for _ in range(n_vars)]  # higher ones, less x_v
    for g in gens:
        if g == 0:
            return []  # the unit ideal has no faces at all
        v = g.bit_length() - 1
        r = g ^ 1 << v
        if r == 0:
            killed |= g
        elif r & (r - 1) == 0:
            block[v] |= r
        else:
            rests[v].append(r)
    faces = [0]
    for v in range(n_vars):
        if killed >> v & 1:
            continue
        bit, b, rs = 1 << v, block[v], rests[v]
        if rs:
            faces += [f | bit for f in faces
                      if not f & b and not any(r & f == r for r in rs)]
        else:
            faces += [f | bit for f in faces if not f & b]
    # the list is sorted by mask after every step, so a stable sort by
    # size leaves it sorted by (size, mask)
    faces.sort(key=int.bit_count)
    return faces


def _edge_gens(adj: Sequence[int]) -> list[int]:
    """One degree-2 generator per edge of a graph given as adjacency masks."""
    return [1 << a | 1 << b for a, m in enumerate(adj)
            for b in vars_of(m) if b > a]


def graph_faces(adj: Sequence[int]) -> list[int]:
    """faces_of the edge ideal of a graph given as adjacency masks."""
    return faces_of(len(adj), _edge_gens(adj))


class MonomialIdeal(NamedTuple):
    n_vars: int
    gens: tuple[int, ...]

    @classmethod
    def make(cls, n_vars: int, gens: Iterable[int]) -> "MonomialIdeal":
        if n_vars < 0:
            raise InvalidParameterError(f"n_vars must be at least 0, got {n_vars}")
        gens = minimize(gens)
        top = 1 << n_vars
        if any(g >= top for g in gens):
            raise InvalidParameterError("generator uses a variable outside the ring")
        return cls(n_vars, gens)

    @property
    def is_unit(self) -> bool:
        return self.gens == (0,)

    @property
    def support(self) -> int:
        m = 0
        for g in self.gens:
            m |= g
        return m


def edge_ideal(graph: LabeledGraph) -> MonomialIdeal:
    """Edge ideal of a simple graph on its canonical variable order."""
    return MonomialIdeal.make(graph.n_vertices, _edge_gens(graph.adjacency))


def graph_parts(ideal: MonomialIdeal) -> tuple[int, tuple[int, ...], int]:
    """Split generators into (killed mask, adjacency, free mask).

    killed collects degree-1 generators, and adjacency[v] is the mask of
    v's neighbours in the graph of the degree-2 ones, one entry per
    variable.  free holds the variables missing from every generator.
    This is the one check that an ideal has the form I(G) + (x_K): a
    generator of degree 0 or of degree 3 or more raises
    InvalidParameterError.
    """
    killed = 0
    adj = [0] * ideal.n_vars
    for g in ideal.gens:
        if g == 0:
            raise InvalidParameterError("unit ideal has no graph form")
        low = g & -g
        high = g ^ low  # every variable of g but the lowest
        if not high:
            killed |= g
        elif high & (high - 1):
            raise InvalidParameterError(
                f"generator of degree {g.bit_count()} has no graph form")
        else:
            adj[low.bit_length() - 1] |= high
            adj[high.bit_length() - 1] |= low
    free = ((1 << ideal.n_vars) - 1) & ~ideal.support
    return killed, tuple(adj), free
