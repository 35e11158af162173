"""Regularity via the colon/add pivot recursion."""

import random

import pytest

from edgeideals import (LabeledGraph, MonomialIdeal, RegInterval,
                        build_extended, edge_ideal, invariants, parse_family,
                        regularity_by_recursion)
from edgeideals import recursion
from edgeideals.errors import InvalidParameterError, SizeLimitError
from edgeideals.graphs import path_vertex, vars_of
from edgeideals.ideals import graph_parts
from edgeideals.recursion import _combine, _intersect
from oracles import compact, cycle_ideal, unit_ideal, zero_ideal


def test_interval_arithmetic():
    a, b = RegInterval(1, 1), RegInterval(2, 3)
    assert a.is_point and not b.is_point
    assert (a + b) == RegInterval(3, 4)
    assert a.value == 1


def test_combine_trichotomy():
    # colon strictly above add: reg = colon + 1
    assert _combine(RegInterval(2, 2), RegInterval(1, 1)) == RegInterval(3, 3)
    # colon strictly below add: reg = add
    assert _combine(RegInterval(0, 0), RegInterval(2, 2)) == RegInterval(2, 2)
    # tie: either value may win
    assert _combine(RegInterval(1, 1), RegInterval(1, 1)) == RegInterval(1, 2)


def test_zero_and_single_edge():
    assert regularity_by_recursion(zero_ideal(3)) == RegInterval(0, 0)
    single = edge_ideal(LabeledGraph.from_edge_list(2, [(0, 1)]))
    assert regularity_by_recursion(single) == RegInterval(1, 1)


def test_stars_are_points():
    for u in range(1, 6):
        ideal = edge_ideal(build_extended(parse_family(f"star(u={u})")))
        assert regularity_by_recursion(ideal) == RegInterval(1, 1)


def test_paths_and_cycles_match_homology():
    for n in range(3, 8):
        ring = LabeledGraph.from_edge_list(n, [(i, i + 1) for i in range(n - 1)])
        ideal = edge_ideal(ring)
        iv = regularity_by_recursion(ideal)
        assert iv.is_point
        assert iv.value == invariants(ideal).regularity
    for n in (3, 4, 6, 7):
        iv = regularity_by_recursion(cycle_ideal(n))
        assert iv.is_point
        assert iv.value == invariants(cycle_ideal(n)).regularity


def test_five_cycle_is_a_genuine_tie():
    # every pivot of the 5-cycle ties, so the recursion can only
    # bracket the answer; the true value 2 must lie inside
    iv = regularity_by_recursion(cycle_ideal(5))
    assert iv.lo <= 2 <= iv.hi


def pivot_step(ideal, pivot):
    """(interval, steps) of one colon/add step at pivot on recursion._Engine.

    The family proofs name the pivot of their first step; the engine
    picks every deeper one itself.
    """
    killed, adj, _free = graph_parts(ideal)
    engine = recursion._Engine(adj)
    verts = ((1 << ideal.n_vars) - 1) & ~killed
    colon = engine.reg(verts & ~(adj[pivot] | 1 << pivot))
    add = engine.reg(verts & ~(1 << pivot))
    return _combine(colon, add), engine.steps


def test_snake_cells_give_points_with_named_pivot():
    for n in range(1, 5):
        spec = parse_family(f"tsnake(n={n},p=1)")
        graph = build_extended(spec)
        ideal = edge_ideal(graph)
        pivot = graph.index_of(path_vertex(n))
        iv, _ = pivot_step(ideal, pivot)
        assert iv.is_point
        assert iv.value == (n + 2) // 2


def test_disjoint_pieces_add():
    g = LabeledGraph.from_edge_list(4, [(0, 1), (2, 3)])
    assert regularity_by_recursion(edge_ideal(g)) == RegInterval(2, 2)


def test_cubic_generator_rejected():
    with pytest.raises(ValueError):
        regularity_by_recursion(MonomialIdeal.make(3, [0b111]))


def test_unit_ideal_rejected():
    # graph_parts refuses the degree-0 generator before any recursion
    with pytest.raises(InvalidParameterError, match="unit ideal"):
        regularity_by_recursion(unit_ideal(3))


def test_step_cap(monkeypatch):
    monkeypatch.setattr(recursion, "STEP_BUDGET", 2)
    with pytest.raises(SizeLimitError, match="exceeded 2 steps"):
        regularity_by_recursion(cycle_ideal(7))


def test_catalogue_cells_match_homology():
    for text in ["tsnake(n=2,p=2)", "tsnake_star(n=2,p=1)",
                 "tsnake_starstar(n=1,p=2)", "ouroboros(n=4,p=2)",
                 "brs(q=1,tsnake(n=2,p=1))", "brs(q=1,ouroboros(n=3,p=1))"]:
        ideal = edge_ideal(build_extended(parse_family(text)))
        iv = regularity_by_recursion(ideal)
        assert iv.is_point, text
        assert iv.value == invariants(ideal).regularity, text


# A copy of the ideal-level recursion the vertex-mask engine replaced:
# it splits each node by a union-find over generators, builds the colon
# and add ideals as MonomialIdeals and memoises on compacted ideals.  It
# is the reference the engine must match in value and in step count.

class _IdealEngine:
    def __init__(self):
        self.memo = {}
        self.steps = 0

    def reg(self, ideal):
        self.steps += 1
        gens2 = [g for g in ideal.gens if g.bit_count() == 2]
        if not gens2:
            return RegInterval(0, 0)
        if len(gens2) == 1:
            return RegInterval(1, 1)
        total = RegInterval(0, 0)
        for comp in _ideal_components(ideal):
            if len(comp.gens) == 1 and comp.gens[0].bit_count() == 1:
                continue  # a killed variable contributes nothing
            total = total + self._component(comp)
        return total

    def _component(self, comp):
        edges = [g for g in comp.gens if g.bit_count() == 2]
        if not edges:
            return RegInterval(0, 0)
        if len(edges) == 1:
            return RegInterval(1, 1)
        key = (comp.n_vars, comp.gens)
        hit = self.memo.get(key)
        if hit is not None:
            return hit
        degree = [0] * comp.n_vars
        for g in comp.gens:
            for v in vars_of(g):
                degree[v] += 1
        pivots = [v for v in sorted(range(comp.n_vars),
                                    key=lambda v: (-degree[v], v))
                  if degree[v] > 0]
        result = None
        for v in pivots:
            step = _combine(self.reg(_ideal_colon(comp, v)),
                            self.reg(_ideal_add(comp, v)))
            result = step if result is None else _intersect(result, step)
            if result.is_point:
                break
        self.memo[key] = result
        return result


def _ideal_colon(ideal, v):
    gens = [g & ~(1 << v) for g in ideal.gens]
    return MonomialIdeal.make(ideal.n_vars, gens)


def _ideal_add(ideal, v):
    gens = [g for g in ideal.gens if not g >> v & 1] + [1 << v]
    return MonomialIdeal.make(ideal.n_vars, gens)


def _ideal_components(ideal):
    """Compacted variable-disjoint blocks, ordered by least generator."""
    gens = list(ideal.gens)
    parent = list(range(len(gens)))

    def find(i):
        while parent[i] != i:
            i = parent[i]
        return i

    owner = {}
    for i, g in enumerate(gens):
        for v in vars_of(g):
            if v in owner:
                ri, rj = find(i), find(owner[v])
                if ri != rj:
                    parent[ri] = rj
            else:
                owner[v] = i
    blocks = {}
    for i in range(len(gens)):
        blocks.setdefault(find(i), []).append(gens[i])
    out = []
    for block in sorted(blocks.values(), key=min):
        support = 0
        for g in block:
            support |= g
        out.append(compact(MonomialIdeal.make(ideal.n_vars, block),
                           vars_of(support)))
    return out


def _reference(ideal, first_pivot):
    """(interval, steps) of the ideal-level recursion."""
    engine = _IdealEngine()
    if first_pivot is None:
        return engine.reg(ideal), engine.steps
    colon = engine.reg(_ideal_colon(ideal, first_pivot))
    add = engine.reg(_ideal_add(ideal, first_pivot))
    return _combine(colon, add), engine.steps


def _random_edge_type_ideal(rng):
    """At most 13 variables; some killed, some free, the rest edges.

    One ideal in ten has 10 to 13 variables, which keeps the reference
    cheap enough to run with every pivot.
    """
    n = rng.randint(1, 13) if rng.random() < 0.1 else rng.randint(1, 9)
    density = rng.choice([0.15, 0.3, 0.5])
    gens = [1 << a | 1 << b for a in range(n) for b in range(a + 1, n)
            if rng.random() < density]
    gens += [1 << v for v in range(n) if rng.random() < 0.08]
    free = [v for v in range(n) if rng.random() < 0.1]
    gens = [g for g in gens if not any(g >> v & 1 for v in free)]
    return MonomialIdeal.make(n, gens)


def test_vertex_mask_engine_matches_the_ideal_recursion(monkeypatch):
    engines = []

    class Recording(recursion._Engine):
        def __init__(self, *args):
            super().__init__(*args)
            engines.append(self)

    monkeypatch.setattr(recursion, "_Engine", Recording)
    rng = random.Random(8)
    cases = ties = 0
    for _ in range(2000):
        ideal = _random_edge_type_ideal(rng)
        killed = sum(g for g in ideal.gens if g.bit_count() == 1)
        pivots = [None] + [v for v in range(ideal.n_vars)
                           if not killed >> v & 1]
        for pivot in pivots:
            if pivot is None:
                got = regularity_by_recursion(ideal), engines[-1].steps
            else:
                got = pivot_step(ideal, pivot)
            assert got == _reference(ideal, pivot), (ideal, pivot)
            cases += 1
            ties += not got[0].is_point
    assert cases > 10000 and ties > 1000


def test_step_cap_falls_where_the_ideal_recursion_stops(monkeypatch):
    rng = random.Random(9)
    for _ in range(40):
        ideal = _random_edge_type_ideal(rng)
        _, steps = _reference(ideal, None)
        monkeypatch.setattr(recursion, "STEP_BUDGET", steps)
        assert regularity_by_recursion(ideal) is not None
        monkeypatch.setattr(recursion, "STEP_BUDGET", steps - 1)
        with pytest.raises(SizeLimitError):
            regularity_by_recursion(ideal)
