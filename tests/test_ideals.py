"""Bitmask monomial ideals: minimization, membership, graph parts, and the
colon and add oracles of tests/oracles.py."""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from edgeideals import (LabeledGraph, MonomialIdeal, edge_ideal, invariants,
                        mask_of, stanley_depth, vars_of)
from edgeideals.errors import InvalidParameterError
from edgeideals.graphs import induced_adjacency
from edgeideals.ideals import faces_of, graph_faces, graph_parts, minimize
from oracles import (add_variable, colon_by, compact, contains, is_zero,
                     unit_ideal, zero_ideal)


# small random squarefree ideals on up to 6 variables
gen_masks = st.lists(st.integers(min_value=1, max_value=63), min_size=1,
                     max_size=8)


def test_mask_round_trip():
    assert vars_of(mask_of([0, 3, 5])) == [0, 3, 5]
    assert mask_of([]) == 0
    assert vars_of(0) == []


def test_minimize_keeps_antichain():
    gens = minimize([0b011, 0b111, 0b110, 0b110])
    assert gens == (0b011, 0b110)


def quadratic_minimize(gens):
    """The former minimize: every generator scans all the kept ones."""
    ordered = sorted(set(gens), key=lambda g: (g.bit_count(), g))
    kept = []
    for g in ordered:
        if not any(k & g == k for k in kept):
            kept.append(g)
    return tuple(sorted(kept))


def test_minimize_matches_the_quadratic_reference():
    rng = random.Random(35)
    cases = [[], [0], [0, 0b11, 0b1]]
    for _ in range(2000):
        n = rng.randint(1, 9)
        degrees = [min(n, rng.randint(0, 5)) for _ in range(rng.randint(0, 12))]
        cases.append([mask_of(rng.sample(range(n), d)) for d in degrees])
    seen = {g.bit_count() for gens in cases for g in gens}
    assert seen == set(range(6))
    for gens in cases:
        assert minimize(gens) == quadratic_minimize(gens), gens


def test_faces_of_matches_brute_force():
    rng = random.Random(10)
    for _ in range(400):
        n = rng.randint(0, 10)
        degrees = [min(n, rng.randint(1, 4)) for _ in range(rng.randint(0, 10) if n else 0)]
        gens = [mask_of(rng.sample(range(n), d)) for d in degrees]
        ideal = MonomialIdeal.make(n, gens)
        want = sorted((m for m in range(1 << n) if not contains(ideal, m)),
                      key=lambda f: (f.bit_count(), f))
        assert faces_of(n, ideal.gens) == want, ideal
    assert faces_of(3, [0]) == []  # the unit ideal has no faces


def test_graph_faces_are_the_independent_sets():
    rng = random.Random(11)
    for _ in range(200):
        n = rng.randint(0, 9)
        edges = [(a, b) for a in range(n) for b in range(a + 1, n)
                 if rng.random() < 0.4]
        adj = LabeledGraph.from_edge_list(n, edges).adjacency
        want = sorted((m for m in range(1 << n)
                       if not any(m >> a & m >> b & 1 for a, b in edges)),
                      key=lambda f: (f.bit_count(), f))
        assert graph_faces(adj) == want, edges


def test_make_takes_any_variable_count_but_a_negative_one():
    ideal = MonomialIdeal.make(65, [1 << 64 | 1])
    assert ideal.gens == (1 << 64 | 1,)
    assert not contains(ideal, 1 << 64) and contains(ideal, 1 << 64 | 3)
    with pytest.raises(ValueError, match="at least 0"):
        MonomialIdeal.make(-1, [])


def test_engines_take_an_ideal_past_64_variables():
    # one edge x_0 x_69 and 68 free variables: free variables only add to
    # depth and sdepth, so every engine answers from the one edge
    ideal = MonomialIdeal.make(70, [1 | 1 << 69])
    inv = invariants(ideal, max_vars=70)
    assert (inv.regularity, inv.projective_dimension, inv.depth) == (1, 1, 69)
    assert stanley_depth(ideal)[0] == 69


def test_zero_and_unit():
    z = zero_ideal(4)
    assert is_zero(z) and not z.is_unit
    u = unit_ideal(4)
    assert u.is_unit and not is_zero(u)
    assert contains(u, 0)
    assert not contains(z, 0b1111)


def test_contains_uses_divisibility():
    ideal = MonomialIdeal.make(4, [0b0011])
    assert contains(ideal, 0b0011)
    assert contains(ideal, 0b1011)
    assert not contains(ideal, 0b0001)


def test_colon_drops_pivot_from_generators():
    # I = (ab, bc), (I : b) = (a, c)
    ideal = MonomialIdeal.make(3, [0b011, 0b110])
    quo = colon_by(ideal, 0b010)
    assert set(quo.gens) == {0b001, 0b100}


def test_colon_by_member_raises():
    ideal = MonomialIdeal.make(3, [0b011])
    with pytest.raises(InvalidParameterError, match="colon pivot lies in the ideal"):
        colon_by(ideal, 0b011)


def test_colon_by_one_is_identity():
    ideal = MonomialIdeal.make(3, [0b011, 0b110])
    assert colon_by(ideal, 0) == ideal


def test_add_variable_swallows_multiples():
    ideal = MonomialIdeal.make(3, [0b011, 0b110])
    out = add_variable(ideal, 1)
    assert set(out.gens) == {0b010}


@given(gen_masks)
@settings(max_examples=80, deadline=None)
def test_minimized_gens_form_antichain(gens):
    ideal = MonomialIdeal.make(6, gens)
    for a in ideal.gens:
        for b in ideal.gens:
            assert a == b or (a | b) not in (a, b)


@given(gen_masks, st.integers(min_value=0, max_value=5))
@settings(max_examples=80, deadline=None)
def test_colon_twice_is_colon_once(gens, v):
    ideal = MonomialIdeal.make(6, gens)
    pivot = 1 << v
    if contains(ideal, pivot):
        return
    once = colon_by(ideal, pivot)
    assert colon_by(once, pivot) == once


@given(gen_masks, st.integers(min_value=0, max_value=5))
@settings(max_examples=80, deadline=None)
def test_colon_members_multiply_back(gens, v):
    ideal = MonomialIdeal.make(6, gens)
    pivot = 1 << v
    if contains(ideal, pivot):
        return
    quo = colon_by(ideal, pivot)
    for g in quo.gens:
        assert contains(ideal, g | pivot)


def test_compact_renumbers():
    # the reference compaction the engine tests compare against
    ideal = MonomialIdeal.make(5, [0b10010, 0b01010])
    small = compact(ideal, [1, 3, 4])
    assert small.n_vars == 3
    assert set(small.gens) == {mask_of([0, 2]), mask_of([0, 1])}


def test_induced_adjacency_is_the_graph_of_the_compacted_ideal():
    # what the Betti split hands its scan fallback, against the ideal the
    # compaction route rebuilt: same graph, numbered in the same order
    rng = random.Random(21)
    for _ in range(300):
        n = rng.randint(1, 11)
        gens = [1 << a | 1 << b for a in range(n) for b in range(a + 1, n)
                if rng.random() < 0.35]
        gens += [1 << v for v in range(n) if rng.random() < 0.15]
        ideal = MonomialIdeal.make(n, gens)
        killed, adj, _ = graph_parts(ideal)
        verts = rng.getrandbits(n) & ~killed
        assert graph_parts(compact(ideal, vars_of(verts)))[:2] == \
            (0, induced_adjacency(adj, verts)), (ideal, verts)


def test_graph_parts_classifies_generators():
    # killed variable, one edge, one free variable
    ideal = MonomialIdeal.make(6, [0b000001, 0b000110])
    killed, adj, free = graph_parts(ideal)
    assert killed == 0b000001
    assert adj == (0, 0b100, 0b010, 0, 0, 0)  # the edge x1 x2
    assert free == 0b111000  # x3, x4, x5 touch no generator
    # a cubic generator, or the unit ideal, has no graph form
    with pytest.raises(ValueError, match="degree 3"):
        graph_parts(MonomialIdeal.make(6, [0b000001, 0b000110, 0b111000]))
    with pytest.raises(ValueError, match="unit ideal"):
        graph_parts(unit_ideal(6))


def test_edge_ideal_gen_count():
    g = LabeledGraph.from_edge_list(4, [(0, 1), (1, 2), (2, 3)])
    ideal = edge_ideal(g)
    assert len(ideal.gens) == 3

