"""Regularity of edge-ideal quotients by the colon/add recursion.

For a variable y not in I, reg(S/I) is determined by reg(S/(I:y)) and
reg(S/(I,y)): strictly larger colon wins plus one, strictly larger add
wins as is, and a tie only pins the value to a two-element range.

For an edge ideal I = I(G), (I : x_v) = I(G - N[v]) + (N(v)) and
(I, x_v) = I(G - v) + (x_v), so every node of the recursion is the
subgraph of G induced on a vertex mask: killed and free variables are
just the vertices left out.  Each node drops its isolated vertices,
splits into connected components and adds their values, memoising each
component on its compacted adjacency.  It bottoms out at the empty
graph (0) and a single edge (1).

A tie does not have to be the last word: any variable is a valid pivot,
so on a tie we retry the remaining pivots and intersect the resulting
ranges, returning a point whenever one pivot is decisive.  The result
type is an interval either way; callers assert is_point where a
claim row of verify.CLAIMS predicts an exact value.  Each call may take
at most STEP_BUDGET steps and raises SizeLimitError (limit
"step_budget") past it.
"""

from __future__ import annotations

from typing import NamedTuple

from .errors import InvalidParameterError, SizeLimitError
from .graphs import component_masks, induced_adjacency, live_vertices, vars_of
from .ideals import MonomialIdeal, graph_parts

STEP_BUDGET = 200_000  # recursion nodes per call


class RegInterval(NamedTuple):
    lo: int
    hi: int

    @property
    def is_point(self) -> bool:
        return self.lo == self.hi

    @property
    def value(self) -> int:
        if not self.is_point:
            raise InvalidParameterError(
                f"range [{self.lo}, {self.hi}] is not a point")
        return self.lo

    # the sum of two ranges, in place of tuple concatenation
    def __add__(self, other: "RegInterval") -> "RegInterval":
        return RegInterval(self.lo + other.lo, self.hi + other.hi)


_POINT_ZERO = RegInterval(0, 0)
_POINT_ONE = RegInterval(1, 1)


def _combine(colon: RegInterval, add: RegInterval) -> RegInterval:
    # sound envelope of the trichotomy; exact when both inputs are points
    if colon.lo > add.hi:
        return RegInterval(colon.lo + 1, colon.hi + 1)
    if colon.hi < add.lo:
        return add
    return RegInterval(min(add.lo, colon.lo + 1), max(add.hi, colon.hi + 1))


def _intersect(a: RegInterval, b: RegInterval) -> RegInterval:
    lo, hi = max(a.lo, b.lo), min(a.hi, b.hi)
    if lo > hi:
        raise ValueError("pivot results are contradictory; this is a bug")
    return RegInterval(lo, hi)


class _Engine:
    """The recursion on vertex masks of one graph, given by its adjacency."""

    def __init__(self, adj: tuple[int, ...]):
        self.adj = adj
        self.memo: dict[tuple[int, ...], RegInterval] = {}
        self.steps = 0

    def reg(self, verts: int) -> RegInterval:
        """reg of the edge ideal of the subgraph induced on verts."""
        self.steps += 1
        if self.steps > STEP_BUDGET:
            raise SizeLimitError(
                f"regularity recursion exceeded {STEP_BUDGET} steps",
                limit="step_budget")
        adj = self.adj
        total = _POINT_ZERO
        for comp in component_masks(adj, live_vertices(adj, verts)):
            total = total + self._component(comp)
        return total

    def _component(self, comp: int) -> RegInterval:
        if comp.bit_count() == 2:
            return _POINT_ONE  # a single edge
        # the compacted subgraph: equal keys are isomorphic by identity
        key = induced_adjacency(self.adj, comp)
        hit = self.memo.get(key)
        if hit is not None:
            return hit
        adj = self.adj
        result: RegInterval | None = None
        # highest induced degree first; ties broken toward lower index
        for v in sorted(vars_of(comp),
                        key=lambda v: (-(adj[v] & comp).bit_count(), v)):
            colon = self.reg(comp & ~(adj[v] | 1 << v))
            add = self.reg(comp & ~(1 << v))
            step = _combine(colon, add)
            result = step if result is None else _intersect(result, step)
            if result.is_point:
                break
        self.memo[key] = result
        return result


def regularity_by_recursion(ideal: MonomialIdeal) -> RegInterval:
    """reg(S/I) for an edge-type ideal by the colon/add trichotomy.

    The unit ideal, or a generator of degree 3 or more, raises
    InvalidParameterError.
    """
    killed, adj, _free = graph_parts(ideal)
    return _Engine(adj).reg(((1 << ideal.n_vars) - 1) & ~killed)
