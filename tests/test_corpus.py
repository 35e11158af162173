"""Every graph on 1 to 7 vertices, one per isomorphism class, as the
shared oracle corpus: each route runs on the 1252 graphs against the
pins.

tests/pinned_graphs7.json holds one graph per line: its adjacency
masks, the entries (i, j, beta_ij) of its Betti table over GF(2), the
interval regularity_by_recursion gives and its exact Stanley depth.
The tests read the file and never enumerate.  The counts per vertex
count equal OEIS A000088, and no two graphs that share vertex count,
degree sequence and triangle count are isomorphic, so each class
appears exactly once.

    PYTHONPATH=src python tests/test_corpus.py --write

enumerates the classes again, growing each class by one vertex in every
way, and rewrites the file.
"""

import functools
import json
import random
import sys
from collections import Counter, defaultdict
from itertools import combinations
from pathlib import Path
from typing import NamedTuple

import pytest

from edgeideals import (BettiTable, LabeledGraph, MonomialIdeal, betti_table,
                        betti_table_taylor, invariants, is_isomorphic, mask_of,
                        regularity_by_recursion, stanley_depth,
                        validate_partition, vars_of)
from edgeideals import betti
from edgeideals import sdepth as sdepth_module
from edgeideals.graphs import is_chordal
from edgeideals.ideals import faces_of
from oracles import (colon_by, independence_number,
                     least_maximal_independent_set)
from test_betti import scan_table
from test_decomp import assert_quotient_matches

PINS = Path(__file__).resolve().parent / "pinned_graphs7.json"
A000088 = [1, 2, 4, 11, 34, 156, 1044]  # graphs on 1..7 vertices


def edges_of(adj):
    return [(a, b) for a in range(len(adj)) for b in vars_of(adj[a]) if b > a]


def ideal_of(adj):
    return MonomialIdeal.make(len(adj), [1 << a | 1 << b for a, b in edges_of(adj)])


class Pinned(NamedTuple):
    adj: tuple[int, ...]
    ideal: MonomialIdeal
    table: BettiTable  # over GF(2)
    reg: tuple[int, int]  # regularity_by_recursion's interval
    sdepth: int


def checked_masks(masks):
    """The masks as a tuple, refused unless they are a simple graph on
    len(masks) vertices."""
    n = len(masks)
    for v, m in enumerate(masks):
        if m < 0 or m >> n:
            raise ValueError(f"vertex {v} has a neighbour past vertex {n - 1}: {masks}")
        if m >> v & 1:
            raise ValueError(f"loop at vertex {v}: {masks}")
        for w in vars_of(m):
            if not masks[w] >> v & 1:
                raise ValueError(f"edge {v}-{w} is missing at {w}: {masks}")
    return tuple(masks)


def load(text):
    corpus = []
    for doc in json.loads(text):
        adj = checked_masks(doc["adj"])
        table = BettiTable.from_dict(len(adj), 2, {(i, j): b for i, j, b in doc["betti"]})
        corpus.append(Pinned(adj, ideal_of(adj), table, tuple(doc["reg"]), doc["sdepth"]))
    return corpus


def triangles(adj):
    return sum((adj[a] & adj[b]).bit_count() for a, b in edges_of(adj)) // 3


def bucket_key(adj):
    """Vertex count, sorted degree sequence and triangle count: graphs
    that differ in any of them are not isomorphic."""
    return len(adj), tuple(sorted(m.bit_count() for m in adj)), triangles(adj)


def same_bucket_pairs(graphs):
    """Every pair of graphs with one bucket key: the only pairs that can
    be isomorphic."""
    buckets = defaultdict(list)
    for adj in graphs:
        buckets[bucket_key(adj)].append(adj)
    return [pair for bucket in buckets.values() for pair in combinations(bucket, 2)]


def completeness_faults(graphs, isomorphic=is_isomorphic):
    """Why graphs is not one graph per class on 1..7 vertices; [] if it is."""
    counts = sorted(Counter(map(len, graphs)).items())
    faults = [] if counts == list(enumerate(A000088, 1)) else [f"counts {counts}"]
    return faults + [f"{g} and {h} are isomorphic"
                     for g, h in same_bucket_pairs(graphs) if isomorphic(g, h)]


def relabeled(adj, seed):
    """adj with its vertices renamed by a seeded random permutation."""
    perm = random.Random(seed).sample(range(len(adj)), len(adj))
    out = [0] * len(adj)
    for v, m in enumerate(adj):
        out[perm[v]] = mask_of(perm[w] for w in vars_of(m))
    return tuple(out)


@functools.cache
def corpus():
    return load(PINS.read_text())


def test_the_corpus_holds_every_graph_on_at_most_7_vertices_once():
    graphs = [g.adj for g in corpus()]
    assert len(graphs) == 1252 and len(same_bucket_pairs(graphs)) == 924
    assert completeness_faults(graphs) == []


def test_networkx_finds_no_isomorphic_pair_in_a_bucket():
    nx = pytest.importorskip("networkx")

    def isomorphic(g, h):
        g, h = (nx.from_dict_of_lists(dict(enumerate(map(vars_of, a)))) for a in (g, h))
        return nx.is_isomorphic(g, h)

    assert completeness_faults([g.adj for g in corpus()], isomorphic) == []


def test_a_class_given_twice_fails_the_completeness_check():
    # the counts stay right; only the isomorphic pair gives it away
    graphs = [g.adj for g in corpus()]
    graphs[-1] = relabeled(graphs[-2], 0)
    assert completeness_faults(graphs) == [
        f"{graphs[-2]} and {graphs[-1]} are isomorphic"]


@pytest.mark.parametrize("masks, fault", [
    ([0b10, 0b00], "missing"), ([0b11, 0b01], "loop"), ([0b100, 0b000], "past")])
def test_the_loader_refuses_masks_that_are_no_simple_graph(masks, fault):
    doc = {"adj": masks, "betti": [[0, 0, 1]], "reg": [0, 0], "sdepth": 2}
    with pytest.raises(ValueError, match=fault):
        load(json.dumps([doc]))


@pytest.mark.parametrize("char", [2, 3])
def test_split_table_is_the_pin_and_the_subset_scan(char):
    unfolded = 0
    for g in corpus():
        split = betti_table(g.ideal, char).as_dict()
        assert split == g.table.as_dict(), g.adj
        assert scan_table(g.ideal, char, fold=True) == split, g.adj
        if len(g.adj) <= 6:
            assert scan_table(g.ideal, char, fold=False) == split, g.adj
            unfolded += 1
    assert unfolded == 208


def test_is_chordal_is_networkx_on_every_graph():
    nx = pytest.importorskip("networkx")
    for g in corpus():
        graph = nx.from_dict_of_lists(dict(enumerate(map(vars_of, g.adj))))
        assert is_chordal(g.adj) == nx.is_chordal(graph), g.adj
    assert sum(is_chordal(g.adj) for g in corpus()) == 531


def test_the_split_scans_exactly_the_graphs_that_are_not_chordal(monkeypatch):
    # Dirac: every induced subgraph of a chordal graph has a simplicial
    # vertex, so the split never scans it and its table is field-free;
    # on any other graph it removes simplicial vertices down to a core
    # that has none, which keeps an induced cycle of length 4 or more
    def scan(killed, adj, char):
        raise LookupError("scanned")

    monkeypatch.setattr(betti, "_scan", scan)
    for g in corpus():
        try:
            table = betti_table(g.ideal, 3)
        except LookupError:
            assert not is_chordal(g.adj), g.adj
        else:
            assert is_chordal(g.adj), g.adj
            assert table.as_dict() == g.table.as_dict(), g.adj


@functools.cache
def taylor_mismatches(char):
    """(graphs with at most 8 edges, those whose Taylor table differs)."""
    few = [g for g in corpus() if len(g.ideal.gens) <= 8]
    return len(few), [g.adj for g in few if betti_table_taylor(g.ideal, char).as_dict()
                      != betti_table(g.ideal, char).as_dict()]


@pytest.mark.parametrize("char", [2, 3])
def test_taylor_is_the_split_on_graphs_of_at_most_8_edges(char):
    assert taylor_mismatches(char) == (395, [])


def test_recursion_interval_is_the_pin_and_holds_the_betti_reg():
    gaps = Counter()
    for g in corpus():
        iv = regularity_by_recursion(g.ideal)
        assert (iv.lo, iv.hi) == g.reg, g.adj
        assert iv.lo <= g.table.regularity <= iv.hi, g.adj
        gaps[len(g.adj)] += not iv.is_point
    # C5, six graphs on six vertices and 49 on seven
    assert +gaps == {5: 1, 6: 6, 7: 49}


def test_exact_sdepth_is_the_pin_between_depth_and_the_independent_set_bound():
    for g in corpus():
        value, witness = stanley_depth(g.ideal)
        assert value == g.sdepth, g.adj
        validate_partition(faces_of(len(g.adj), g.ideal.gens), witness)
        assert g.table.depth <= value <= least_maximal_independent_set(g.adj), g.adj


def test_the_probe_size_is_the_least_maximal_independent_set():
    # the first dominating face in (size, mask) order, against the
    # branch and bound of the oracle
    for g in corpus():
        faces = tuple(faces_of(len(g.adj), g.ideal.gens))
        assert (sdepth_module._least_maximal_independent(g.adj, faces)
                == least_maximal_independent_set(g.adj)), g.adj


@functools.cache
def colon_drops():
    """(colons taken, those that lower depth or sdepth): every colon
    (I : x_v) by a vertex v with a neighbour, against the pins of I."""
    colons, drops = 0, []
    for g in corpus():
        for v in range(len(g.adj)):
            if g.adj[v]:
                colons += 1
                quotient = colon_by(g.ideal, 1 << v)
                if invariants(quotient).depth < g.table.depth:
                    drops.append(("colon depth", g.adj, v))
                if stanley_depth(quotient)[0] < g.sdepth:
                    drops.append(("colon sdepth", g.adj, v))
    return colons, drops


def test_no_colon_by_a_vertex_lowers_depth_or_sdepth():
    assert colon_drops() == (8179, [])


def test_quotient_is_the_ideal_route_at_every_vertex():
    for g in corpus():
        graph = LabeledGraph.from_edge_list(len(g.adj), edges_of(g.adj))
        for v in range(len(g.adj)):
            for kind in ("colon", "add"):
                assert assert_quotient_matches(graph, 1 << v, kind)


def test_is_isomorphic_accepts_a_relabeling_of_every_graph():
    for seed, g in enumerate(corpus()):
        assert is_isomorphic(g.adj, relabeled(g.adj, seed)), g.adj


def bristled_masks(adj, q):
    """brs_q G: vertex v keeps its index and gains the q pendant vertices
    n + qv, ..., n + qv + q - 1."""
    n = len(adj)
    base = [m | ((1 << q) - 1) << (n + q * v) for v, m in enumerate(adj)]
    return tuple(base + [1 << v for v in range(n) for _ in range(q)])


def on_at_most_6_vertices():
    return [g for g in corpus() if len(g.adj) <= 6]


@pytest.mark.parametrize("q", [1, 2, 3])
def test_bristled_depth_reg_and_pdim_come_from_the_independence_number(q):
    # depth qN - (q - 1)alpha, reg alpha and pdim N + (q - 1)alpha, where
    # N = |V(G)| and alpha is G's independence number
    for g in on_at_most_6_vertices():
        n, alpha = len(g.adj), independence_number(g.adj)
        table = betti_table(ideal_of(bristled_masks(g.adj, q)), max_vars=n * (1 + q))
        assert (table.depth, table.regularity, table.projective_dimension) == (
            q * n - (q - 1) * alpha, alpha, n + (q - 1) * alpha), g.adj


def test_once_bristled_sdepth_is_the_vertex_count():
    for g in on_at_most_6_vertices():
        n = len(g.adj)
        assert stanley_depth(ideal_of(bristled_masks(g.adj, 1)), 2 * n)[0] == n, g.adj


def enumerate_graphs():
    """One graph per isomorphism class on 1..7 vertices.

    A graph on n vertices less its last vertex is a graph on n - 1, so
    growing one graph of each class on n - 1 vertices by a vertex, in
    every way, reaches every class on n; copies are dropped with
    is_isomorphic.  Each size is sorted by edge count, then masks.
    """
    level, graphs = [(0,)], [(0,)]
    for n in range(1, len(A000088)):
        buckets = defaultdict(list)
        for adj in level:
            for near in range(1 << n):
                new = tuple(m | (near >> v & 1) << n for v, m in enumerate(adj)) + (near,)
                bucket = buckets[bucket_key(new)]
                if not any(is_isomorphic(new, other) for other in bucket):
                    bucket.append(new)
        level = sorted((adj for bucket in buckets.values() for adj in bucket),
                       key=lambda adj: (sum(map(int.bit_count, adj)), adj))
        graphs += level
    return graphs


def pinned_line(adj):
    ideal = ideal_of(adj)
    reg = regularity_by_recursion(ideal)
    return json.dumps({"adj": list(adj),
                       "betti": [[i, j, b] for (i, j), b in betti_table(ideal).entries],
                       "reg": [reg.lo, reg.hi], "sdepth": stanley_depth(ideal)[0]},
                      separators=(",", ":"))


if __name__ == "__main__":
    if sys.argv[1:] != ["--write"]:
        sys.exit("usage: python tests/test_corpus.py --write")
    PINS.write_text("[\n" + ",\n".join(map(pinned_line, enumerate_graphs())) + "\n]\n")
