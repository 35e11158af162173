"""Labeled graphs, products and the isomorphism checker."""

import random

import pytest

from edgeideals import (LabeledGraph, bristle, build_extended,
                        connected_components, corona, disjoint_union, fuse,
                        is_isomorphic, null_graph, parse_family,
                        read_edge_list, strip_isolated, to_dot)
from edgeideals.errors import FusionLoopError
from edgeideals.graphs import (anonymous, apex, component_masks, path_bristle,
                               path_vertex)


def k_path(n):
    return LabeledGraph.from_edge_list(n, [(i, i + 1) for i in range(n - 1)])


def k_cycle(n):
    edges = [(i, (i + 1) % n) for i in range(n)]
    return LabeledGraph.from_edge_list(n, edges)


def iso(g, h):
    return is_isomorphic(g.adjacency, h.adjacency)


def random_graph(rng, max_v=7):
    nv = rng.randint(1, max_v)
    possible = [(i, j) for i in range(nv) for j in range(i + 1, nv)]
    ne = rng.randint(0, len(possible))
    return LabeledGraph.from_edge_list(nv, rng.sample(possible, ne))


def test_from_edge_list_counts():
    g = k_path(4)
    assert g.n_vertices == 4
    assert g.n_edges == 3
    assert g.degree_sequence() == (1, 1, 2, 2)


def test_labels_sort_canonically():
    labels = [apex(1, 1), path_vertex(2), path_vertex(1)]
    g = LabeledGraph(labels, [(path_vertex(1), path_vertex(2)),
                              (path_vertex(1), apex(1, 1)),
                              (path_vertex(2), apex(1, 1))])
    assert [lab.name for lab in g.labels] == ["x1", "x2", "y11"]
    assert g.degree(g.index_of(path_vertex(1))) == 2


def test_duplicate_edges_collapse():
    g = LabeledGraph.from_edge_list(2, [(0, 1), (1, 0)])
    assert g.n_edges == 1


def test_self_loop_rejected():
    with pytest.raises(ValueError):
        LabeledGraph.from_edge_list(2, [(0, 0)])


def test_neighbors_and_is_edge():
    g = k_cycle(5)
    assert g.is_edge(0, 4)
    assert not g.is_edge(0, 2)
    assert g.neighbors(0) == [1, 4]


def test_disjoint_union_counts():
    u = disjoint_union(k_path(3), k_cycle(4))
    assert u.n_vertices == 7
    assert u.n_edges == 6
    assert len(connected_components(u)) == 2


def test_corona_counts():
    # |V| = |V(g)|(1+|V(h)|), |E| = |E(g)| + |V(g)|(|E(h)|+|V(h)|)
    g, h = k_cycle(4), k_path(3)
    c = corona(g, h)
    assert c.n_vertices == 4 * 4
    assert c.n_edges == 4 + 4 * (2 + 3)


def test_bristle_equals_corona_with_null():
    rng = random.Random(11)
    for _ in range(20):
        g = random_graph(rng)
        q = rng.randint(1, 3)
        assert iso(bristle(g, q), corona(g, null_graph(q)))


def test_bristle_pendant_degrees():
    g = bristle(k_path(3), 2)
    ones = sum(1 for v in range(g.n_vertices) if g.degree(v) == 1)
    assert ones == 6
    assert g.n_vertices == 9


def test_bristle_twice_keeps_indices_distinct():
    g = bristle(bristle(k_path(2), 1), 1)
    assert g.n_vertices == 8
    assert len({lab.name for lab in g.labels}) == 8


def test_fuse_path_ends_makes_cycle():
    for n in (4, 5, 6):
        g = k_path(n)
        fused = fuse(g, 0, n - 1)
        assert iso(fused, k_cycle(n - 1))


def test_fuse_adjacent_raises():
    with pytest.raises(FusionLoopError):
        fuse(k_path(3), 0, 1)


def test_fuse_self_raises():
    with pytest.raises(ValueError):
        fuse(k_path(3), 1, 1)


def test_strip_isolated():
    g = LabeledGraph.from_edge_list(5, [(0, 1)])
    stripped, removed = strip_isolated(g)
    assert removed == 3
    assert stripped.n_vertices == 2
    assert stripped.n_edges == 1


def test_components_split_and_cover():
    g = LabeledGraph.from_edge_list(6, [(0, 1), (1, 2), (4, 5)])
    parts = connected_components(g)
    assert sorted(c.n_vertices for c in parts) == [1, 2, 3]
    assert sum(c.n_edges for c in parts) == 3


def reference_components(g):
    """Components by a label-level search, the order of their lowest vertex."""
    left, comps = set(range(g.n_vertices)), []
    while left:
        stack, comp = [min(left)], set()
        while stack:
            v = stack.pop()
            if v not in comp:
                comp.add(v)
                stack.extend(g.neighbors(v))
        left -= comp
        comps.append(LabeledGraph([g.labels[v] for v in comp],
                                  [(g.labels[a], g.labels[b]) for a, b in g.edges
                                   if a in comp]))
    return comps


def test_components_match_a_label_level_search():
    rng = random.Random(29)
    graphs = [random_graph(rng, max_v=12) for _ in range(300)]
    graphs += [build_extended(parse_family(t)) for t in
               ("brs(q=2,ouroboros(n=4,p=2))", "tsnake_star(n=3,p=2)")]
    graphs.append(disjoint_union(bristle(k_cycle(5), 1), null_graph(2)))
    for g in graphs:
        assert connected_components(g) == reference_components(g)


def test_component_masks_stay_inside_the_vertex_set():
    # brute force: v and w share a component of G[S] iff some walk
    # inside S joins them, found by closing S's reachability to a fixpoint
    rng = random.Random(41)
    for _ in range(400):
        g = random_graph(rng, max_v=12)
        adj = g.adjacency
        within = rng.getrandbits(g.n_vertices)
        comps = []
        for v in range(g.n_vertices):
            if not within >> v & 1 or any(c >> v & 1 for c in comps):
                continue
            comp = 1 << v
            grown = True
            while grown:
                grown = False
                for a, b in g.edges:
                    for x, y in ((a, b), (b, a)):
                        if (comp >> x & 1 and within >> y & 1
                                and not comp >> y & 1):
                            comp |= 1 << y
                            grown = True
            comps.append(comp)
        assert component_masks(adj, within) == comps


def test_isomorphic_positive_cycle_relabelings():
    rng = random.Random(5)
    for n in (3, 4, 5, 6):
        g = k_cycle(n)
        perm = list(range(n))
        rng.shuffle(perm)
        edges = [(perm[a], perm[b]) for a, b in g.edges]
        assert iso(g, LabeledGraph.from_edge_list(n, edges))


def test_isomorphic_negative():
    assert not iso(k_path(4), k_cycle(4))
    assert not iso(k_cycle(4), k_cycle(5))
    # same degree sequence, different structure: C6 vs two triangles
    two_tri = disjoint_union(k_cycle(3), k_cycle(3))
    assert not iso(k_cycle(6), two_tri)


def test_isomorphic_random_permutations():
    rng = random.Random(23)
    for _ in range(20):
        g = random_graph(rng)
        perm = list(range(g.n_vertices))
        rng.shuffle(perm)
        edges = [(perm[a], perm[b]) for a, b in g.edges]
        h = LabeledGraph.from_edge_list(g.n_vertices, edges)
        assert iso(g, h)


def test_to_dot_mentions_counts_and_labels():
    g = bristle(k_path(2), 1)
    dot = to_dot(g)
    assert "// vertices: 4" in dot
    assert "// edges: 3" in dot
    assert dot.startswith("graph ")
    assert dot.rstrip().endswith("}")


def test_read_edge_list_round_trip():
    g = read_edge_list("0 1\n1 2\n# comment\n\n2 3\n")
    assert iso(g, k_path(4))


def test_read_edge_list_isolated_via_max_index():
    g = read_edge_list("0 1\n3 4\n")
    assert g.n_vertices == 5
    assert g.n_edges == 2


def test_anonymous_labels_unique_in_union():
    g = null_graph(3)
    h = null_graph(3)
    u = disjoint_union(g, h)
    assert len({lab.name for lab in u.labels}) == 6


def test_path_bristle_label_names():
    assert path_bristle(2, 1).name == "x21"
    assert apex(3, 2).name == "y32"
    assert anonymous(7).name == "v7"


# ---------------------------------------------------------------------------
# networkx as an independent isomorphism oracle


def nx_graph(nx, g):
    out = nx.Graph()
    out.add_nodes_from(range(g.n_vertices))
    out.add_edges_from(g.edges)
    return out


def from_nx(nx_g):
    # the oracle's graphs here are on vertices 0..n-1
    return LabeledGraph.from_edge_list(nx_g.number_of_nodes(), nx_g.edges())


def assert_agrees(nx, pairs):
    answers = [iso(g, h) for g, h in pairs]
    for (g, h), answer in zip(pairs, answers):
        assert answer == nx.is_isomorphic(nx_graph(nx, g), nx_graph(nx, h)), \
            (g.edges, h.edges)
    return answers


def test_isomorphism_matches_networkx_on_random_pairs():
    nx = pytest.importorskip("networkx")
    rng = random.Random(71)
    pairs = []
    for _ in range(400):
        g = random_graph(rng, max_v=11)
        n = g.n_vertices
        perm = list(range(n))
        rng.shuffle(perm)
        edges = {(min(perm[a], perm[b]), max(perm[a], perm[b])) for a, b in g.edges}
        if n > 1 and rng.random() < 0.5:  # toggle one pair: an edge edit
            a, b = sorted(rng.sample(range(n), 2))
            edges ^= {(a, b)}
        pairs.append((g, LabeledGraph.from_edge_list(n, sorted(edges))))
    answers = assert_agrees(nx, pairs)
    assert 100 < sum(answers) < 300


def test_isomorphism_matches_networkx_on_cubic_pairs():
    # colour refinement cannot split a regular graph, so the search
    # alone tells these pairs apart
    nx = pytest.importorskip("networkx")
    rng = random.Random(72)
    pairs = []
    for _ in range(120):
        n = rng.choice([8, 10, 12, 14, 16])
        g = nx.random_regular_graph(3, n, seed=rng.randrange(1 << 30))
        if rng.random() < 0.5:
            h = nx.relabel_nodes(g, dict(zip(range(n), rng.sample(range(n), n))))
        else:
            h = nx.random_regular_graph(3, n, seed=rng.randrange(1 << 30))
        pairs.append((from_nx(g), from_nx(h)))
    answers = assert_agrees(nx, pairs)
    assert 30 < sum(answers) < 90


def from_masks(adj):
    """The anonymous graph whose adjacency is the mask tuple adj."""
    g = LabeledGraph.from_edge_list(
        len(adj), [(a, b) for a in range(len(adj)) for b in range(a + 1, len(adj))
                   if adj[a] >> b & 1])
    assert g.adjacency == tuple(adj)
    return g


def test_isomorphism_matches_networkx_on_replay_pairs(monkeypatch):
    nx = pytest.importorskip("networkx")
    from edgeideals import decompositions, parse_family, replay_family

    pairs = []

    def recording(g, h):
        pairs.append((from_masks(g), from_masks(h)))
        return is_isomorphic(g, h)

    monkeypatch.setattr(decompositions, "is_isomorphic", recording)
    reports = replay_family(parse_family("brs(q=1,ouroboros(n=5,p=4))"))
    assert all(r.ok for r in reports) and pairs
    # replay hands over adjacency masks, the components mostly numbered
    # like the expected factors; shuffled copies, and copies with one
    # edge moved, make the search work
    rng = random.Random(73)
    recorded = len(pairs)
    for g, h in pairs[:recorded]:
        n = h.n_vertices
        perm = list(range(n))
        rng.shuffle(perm)
        edges = [(perm[a], perm[b]) for a, b in h.edges]
        pairs.append((g, LabeledGraph.from_edge_list(n, edges)))
        a, b = edges.pop(rng.randrange(len(edges)))
        c = next(c for c in range(n) if c not in (a, b)
                 and (a, c) not in edges and (c, a) not in edges)
        pairs.append((g, LabeledGraph.from_edge_list(n, edges + [(a, c)])))
    answers = assert_agrees(nx, pairs)
    assert all(answers[:recorded]) and all(answers[recorded::2])
    assert not all(answers[recorded + 1::2])
