"""Betti tables: the split engine against the subset scan and the Taylor oracle."""

import random
from contextlib import nullcontext
from unittest.mock import patch

import pytest

from edgeideals import (BettiTable, LabeledGraph, MonomialIdeal, betti_table,
                        betti_table_taylor, build_extended, edge_ideal,
                        invariants, parse_family, regularity_by_recursion,
                        stanley_depth)
from edgeideals import betti, sdepth
from edgeideals.ideals import faces_of, graph_parts
from edgeideals.errors import InvalidParameterError, SizeLimitError
from oracles import (cycle_ideal, disjoint_union, path_ideal, unit_ideal,
                     zero_ideal)


def star_ideal(u):
    return edge_ideal(LabeledGraph.from_edge_list(u + 1, [(0, i) for i in range(1, u + 1)]))


# frozen tables, cross-checked against the generator-resolution oracle
SINGLE_EDGE = {(0, 0): 1, (1, 2): 1}
TRIANGLE = {(0, 0): 1, (1, 2): 3, (2, 3): 2}
P4 = {(0, 0): 1, (1, 2): 3, (2, 3): 2}
STAR3 = {(0, 0): 1, (1, 2): 3, (2, 3): 3, (3, 4): 1}
C5 = {(0, 0): 1, (1, 2): 5, (2, 3): 5, (3, 5): 1}
C6 = {(0, 0): 1, (1, 2): 6, (2, 3): 6, (2, 4): 3, (3, 5): 6, (4, 6): 2}
KILLED_PLUS_EDGE = {(0, 0): 1, (1, 1): 1, (1, 2): 1, (2, 3): 1}


def test_single_edge_table():
    bt = betti_table(edge_ideal(LabeledGraph.from_edge_list(2, [(0, 1)])))
    assert bt.as_dict() == SINGLE_EDGE
    assert bt.regularity == 1 and bt.projective_dimension == 1


def test_triangle_table():
    bt = betti_table(cycle_ideal(3))
    assert bt.as_dict() == TRIANGLE


def test_p4_table_and_depth():
    assert betti_table(path_ideal(4)).as_dict() == P4
    inv = invariants(path_ideal(4))
    assert inv.depth == 2
    assert inv.regularity == 1
    assert inv.projective_dimension == 2


def test_star3_table():
    assert betti_table(star_ideal(3)).as_dict() == STAR3


def test_c5_table_has_regularity_two():
    bt = betti_table(cycle_ideal(5))
    assert bt.as_dict() == C5
    assert bt.regularity == 2


def test_c6_table():
    assert betti_table(cycle_ideal(6)).as_dict() == C6


def test_degree_one_generator_gives_linear_strand():
    ideal = MonomialIdeal.make(3, [0b001, 0b110])
    assert betti_table(ideal).as_dict() == KILLED_PLUS_EDGE


def test_zero_ideal_has_unit_table():
    bt = betti_table(zero_ideal(4))
    assert bt.as_dict() == {(0, 0): 1}
    assert bt.regularity == 0 and bt.projective_dimension == 0
    assert invariants(zero_ideal(4)).depth == 4


def test_unit_ideal_rejected():
    with pytest.raises(InvalidParameterError, match="unit ideal"):
        betti_table(unit_ideal(3))


def test_variable_cap_enforced():
    ideal = MonomialIdeal.make(17, [0b11])
    with pytest.raises(SizeLimitError):
        betti_table(ideal)
    betti_table(ideal, max_vars=17)  # explicit cap lifts it


def test_characteristic_must_be_prime():
    with pytest.raises(InvalidParameterError,
                       match="characteristic 4 is not prime"):
        betti_table(cycle_ideal(3), characteristic=4)


def test_gf3_agrees_on_small_cycles_and_paths():
    for ideal in [cycle_ideal(3), cycle_ideal(5), cycle_ideal(6), path_ideal(5),
                  star_ideal(4)]:
        assert betti_table(ideal, characteristic=2).as_dict() == \
            betti_table(ideal, characteristic=3).as_dict()


def test_disjoint_union_table_is_tensor_product():
    g = LabeledGraph.from_edge_list(2, [(0, 1)])
    u = disjoint_union(g, g)
    got = betti_table(edge_ideal(u)).as_dict()
    # (x0x1) tensor (x2x3): binomial convolution of {(0,0):1,(1,2):1}
    assert got == {(0, 0): 1, (1, 2): 2, (2, 4): 1}


def random_graph(rng, max_v=5, max_e=6):
    nv = rng.randint(2, max_v)
    possible = [(i, j) for i in range(nv) for j in range(i + 1, nv)]
    ne = rng.randint(1, min(max_e, len(possible)))
    return LabeledGraph.from_edge_list(nv, rng.sample(possible, ne))


def test_regularity_additive_over_disjoint_union():
    rng = random.Random(29)
    for _ in range(10):
        ga, gb = random_graph(rng), random_graph(rng)
        union = invariants(edge_ideal(disjoint_union(ga, gb)))
        assert union.regularity == invariants(edge_ideal(ga)).regularity + \
            invariants(edge_ideal(gb)).regularity


def test_free_variables_shift_depth_not_reg():
    ideal = cycle_ideal(5)
    widened = MonomialIdeal.make(ideal.n_vars + 3, ideal.gens)
    a, b = invariants(ideal), invariants(widened)
    assert b.regularity == a.regularity
    assert b.projective_dimension == a.projective_dimension
    assert b.depth == a.depth + 3


def test_cycle_symmetry_of_tables():
    # relabeling a cycle must not change the table
    rng = random.Random(61)
    for n in (5, 6, 7):
        base = cycle_ideal(n)
        perm = list(range(n))
        rng.shuffle(perm)
        edges = [(perm[i], perm[(i + 1) % n]) for i in range(n)]
        relabeled = edge_ideal(LabeledGraph.from_edge_list(n, edges))
        assert betti_table(base).as_dict() == betti_table(relabeled).as_dict()


def test_independence_complex_faces():
    # the faces outside the edge ideal are the independent sets
    g = LabeledGraph.from_edge_list(3, [(0, 1), (1, 2)])
    faces = faces_of(3, edge_ideal(g).gens)
    assert faces == [0b000, 0b001, 0b010, 0b100, 0b101]


def test_taylor_generator_cap():
    ideal = cycle_ideal(13)
    with pytest.raises(SizeLimitError):
        betti_table_taylor(ideal)


def random_ideal_with_killed(rng, max_v=9, max_gens=12):
    """Edge ideal plus a few degree-1 generators, at most max_gens in all."""
    nv = rng.randint(1, max_v)
    possible = [(i, j) for i in range(nv) for j in range(i + 1, nv)]
    edges = rng.sample(possible, rng.randint(0, min(max_gens, len(possible))))
    gens = [(1 << a) | (1 << b) for a, b in edges]
    gens += [1 << v for v in range(nv) if rng.random() < 0.15]
    ideal = MonomialIdeal.make(nv, gens)
    if ideal.is_unit or len(ideal.gens) > max_gens:
        return None
    return ideal


def scan_table(ideal, char, fold):
    """The subset scan alone, over the whole ideal: the split engine's oracle.

    fold=False swaps the dominated-vertex folds for the identity.
    """
    unfolded = patch.object(betti, "_fold_down", lambda verts, adj: verts)
    with nullcontext() if fold else unfolded:
        entries = betti._scan(*graph_parts(ideal)[:2], char)
    return BettiTable.from_dict(ideal.n_vars, char, entries).as_dict()


def assert_all_engines_agree(ideal, char):
    split = betti_table(ideal, char).as_dict()
    assert split == scan_table(ideal, char, fold=True)
    assert split == scan_table(ideal, char, fold=False)
    assert split == betti_table_taylor(ideal, char).as_dict()


@pytest.mark.parametrize("char", [2, 3])
def test_split_equals_scan_and_taylor_on_random_corpus(char):
    rng = random.Random(20261018 + char)
    checked = killed = 0
    while checked < 200:
        ideal = random_ideal_with_killed(rng)
        if ideal is None:
            continue
        checked += 1
        killed += any(g.bit_count() == 1 for g in ideal.gens)
        assert_all_engines_agree(ideal, char)
    assert killed >= 50  # the corpus really exercises the Koszul factor


# x0x1x2, x2x3, x3x4x5 and a killed x6
CUBIC_IDEAL = MonomialIdeal.make(7, [0b0000111, 0b0001100, 0b0111000, 0b1000000])


@pytest.mark.parametrize("char", [2, 3])
def test_degree_three_generator_is_refused_before_any_work(char, monkeypatch):
    def refuse(*args):
        raise AssertionError("an engine ran on an ideal with a cubic generator")

    monkeypatch.setattr(betti, "_scan", refuse)
    monkeypatch.setattr(betti, "_homology_dims", refuse)
    monkeypatch.setattr(sdepth, "_Exact", refuse)
    for engine in (lambda i: betti_table(i, char), lambda i: invariants(i, char),
                   regularity_by_recursion, stanley_depth):
        with pytest.raises(ValueError, match="degree 3"):
            engine(CUBIC_IDEAL)


@pytest.mark.parametrize("char", [2, 3])
def test_degree_three_generator_goes_to_taylor(char):
    # Taylor on x0x1x2, x2x3, x3x4x5 is minimal except that the pair
    # {x0x1x2, x3x4x5} cancels the triple (same lcm); then one Koszul factor
    assert betti_table_taylor(CUBIC_IDEAL, char).as_dict() == {
        (0, 0): 1, (1, 1): 1, (1, 2): 1, (1, 3): 2, (2, 3): 1, (2, 4): 4,
        (3, 5): 2}


@pytest.mark.parametrize("n", [5, 6, 7, 8, 9])
def test_cycles_have_no_simplicial_vertex_and_use_the_fallback(n, monkeypatch):
    seen = spy_on_the_scan(monkeypatch)
    for char in (2, 3):
        assert_all_engines_agree(cycle_ideal(n), char)
        seen.clear()
        betti_table(cycle_ideal(n), char)
        # one fallback, on the whole cycle
        assert seen == [graph_parts(cycle_ideal(n))[:2]]


def spy_on_the_scan(monkeypatch):
    """The (killed, adjacency) of every _scan call from here on."""
    seen = []
    scan = betti._scan

    def counted(killed, adj, *args):
        seen.append((killed, adj))
        return scan(killed, adj, *args)

    monkeypatch.setattr(betti, "_scan", counted)
    return seen


def test_the_fallback_gets_the_renumbered_core_and_no_killed_variable(monkeypatch):
    # the 5-cycle 3-5-6-7-8 with the triangle 0-2-3 hanging off vertex 3
    # and x1, x4 killed: the split peels the triangle, and its Koszul
    # step owns the killed variables, so the scan sees the cycle alone,
    # renumbered 0..4 in vertex order
    edges = [(3, 5), (5, 6), (6, 7), (7, 8), (3, 8), (0, 2), (0, 3), (2, 3)]
    ideal = MonomialIdeal.make(9, [1 << a | 1 << b for a, b in edges]
                               + [1 << 1, 1 << 4])
    seen = spy_on_the_scan(monkeypatch)
    for char in (2, 3):
        seen.clear()
        betti_table(ideal, char)
        assert seen == [(0, graph_parts(cycle_ideal(5))[1])]
        seen.clear()
        assert_all_engines_agree(ideal, char)


def test_chordal_snake_never_reaches_the_scan(monkeypatch):
    def refuse(*args):
        raise AssertionError("the scan ran on a graph with simplicial vertices")

    monkeypatch.setattr(betti, "_scan", refuse)
    ideal = edge_ideal(build_extended(parse_family("tsnake(n=21,p=2)")))
    assert invariants(ideal, max_vars=64).regularity == 11


def split_states(spec):
    """The memo states of one split: the distinct non-empty masks that
    live_vertices returns during one betti_table call on spec."""
    states = set()
    live = betti.live_vertices

    def counted(adj, verts):
        out = live(adj, verts)
        states.add(out)
        return out

    with patch.object(betti, "live_vertices", counted):
        betti_table(edge_ideal(build_extended(parse_family(spec))), max_vars=200)
    return len(states - {0})


def test_split_states_grow_linearly_along_a_bristled_snake():
    # the pivots follow one breadth-first order out along the spine; a
    # pivot of least degree per state jumps along it and visits 5344
    # states at k = 10, so k = 10 runs first and such an order fails fast
    at_10 = split_states("brs(q=1,tsnake(n=10,p=2))")
    assert at_10 <= 100
    at_20 = split_states("brs(q=1,tsnake(n=20,p=2))")
    assert at_20 - at_10 <= 12 * (20 - 10)


def test_killed_variables_tensor_with_koszul_factors():
    # C5 with three killed variables: beta(S/I) is beta(C5) times (1 + t)^3
    ideal = MonomialIdeal.make(8, cycle_ideal(5).gens + (1 << 5, 1 << 6, 1 << 7))
    got = betti_table(ideal).as_dict()
    want = {}
    for (i, j), b in C5.items():
        for a, c in enumerate((1, 3, 3, 1)):
            want[(i + a, j + a)] = want.get((i + a, j + a), 0) + c * b
    assert got == want
