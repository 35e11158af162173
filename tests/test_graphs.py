"""Labeled graphs, components and the isomorphism checker."""

import copy
import pickle
import random

import pytest

from edgeideals import (LabeledGraph, VertexLabel, build_extended, bristled,
                        edge_ideal, is_isomorphic, parse_family, to_dot)
from edgeideals import decompositions
from edgeideals.families import cycle, path
from edgeideals.graphs import (anonymous, apex, component_masks,
                               induced_adjacency, live_vertices, mask_of,
                               path_bristle, path_vertex, vars_of)
from edgeideals.ideals import MonomialIdeal, graph_parts
from oracles import disjoint_union, iso, nx_graph


def k_path(n):
    return LabeledGraph.from_edge_list(n, [(i, i + 1) for i in range(n - 1)])


def k_cycle(n):
    edges = [(i, (i + 1) % n) for i in range(n)]
    return LabeledGraph.from_edge_list(n, edges)


def random_graph(rng, max_v):
    nv = rng.randint(1, max_v)
    possible = [(i, j) for i in range(nv) for j in range(i + 1, nv)]
    ne = rng.randint(0, len(possible))
    return LabeledGraph.from_edge_list(nv, rng.sample(possible, ne))


def corona_with_leaves(g, q):
    """The corona of g with the null graph on q vertices: q leaves per vertex."""
    n = g.n_vertices
    leaves = [(v, n + q * v + t) for v in range(n) for t in range(q)]
    return LabeledGraph.from_edge_list(n * (1 + q), list(g.edges) + leaves)


# one spec of every family kind, the n = 0 star degeneration and a nesting
EVERY_KIND = ["path(n=3)", "cycle(n=4)", "star(u=3)", "bstar(u=2,q=1)",
              "tsnake(n=2,p=2)", "tsnake_star(n=2,p=1)", "tsnake_star(n=0,p=2)",
              "tsnake_starstar(n=1,p=2)", "tsnake_starstar(n=0,p=1)",
              "ouroboros(n=3,p=2)", "brs(q=1,tsnake(n=1,p=1))"]


def test_from_edge_list_counts():
    g = k_path(4)
    assert g.n_vertices == 4
    assert g.n_edges == 3
    assert sorted(m.bit_count() for m in g.adjacency) == [1, 1, 2, 2]


def test_labels_sort_canonically():
    labels = [apex(1, 1), path_vertex(2), path_vertex(1)]
    g = LabeledGraph(labels, [(path_vertex(1), path_vertex(2)),
                              (path_vertex(1), apex(1, 1)),
                              (path_vertex(2), apex(1, 1))])
    assert [lab.name for lab in g.labels] == ["x1", "x2", "y11"]
    assert g.adjacency[g.index_of(path_vertex(1))].bit_count() == 2


def test_index_of_names_a_missing_vertex():
    g = build_extended(path(3))
    assert g.index_of(path_vertex(3)) == 2
    with pytest.raises(KeyError, match="graph has no vertex x4"):
        g.index_of(path_vertex(4))
    with pytest.raises(KeyError, match="graph has no vertex y11"):
        g.index_of(apex(1, 1))


def test_duplicate_edges_collapse():
    g = LabeledGraph.from_edge_list(2, [(0, 1), (1, 0)])
    assert g.n_edges == 1
    # reversed or repeated, each edge gives one sorted pair
    g = LabeledGraph.from_edge_list(4, [(3, 0), (0, 3), (3, 0), (1, 3), (2, 1)])
    assert g.edges == ((0, 3), (1, 2), (1, 3))
    assert g.n_edges == 3


def test_edges_are_the_sorted_index_pairs_on_every_kind():
    # the masks are the only stored form; the pairs read off them are
    # the sorted, deduplicated index pairs of the labelled edges
    from edgeideals import families

    for text in EVERY_KIND + [f"brs(q=2,{t})" for t in EVERY_KIND]:
        labels, edges = families._build(families._resolved(parse_family(text)))
        index = {lab: i for i, lab in enumerate(sorted(labels))}
        pairs = sorted({tuple(sorted((index[a], index[b]))) for a, b in edges})
        g = LabeledGraph(labels, edges)
        assert g.edges == tuple(pairs), text
        assert g.n_edges == len(pairs), text


def test_self_loop_rejected():
    with pytest.raises(ValueError):
        LabeledGraph.from_edge_list(2, [(0, 0)])


@pytest.mark.parametrize("pair", [(-1, 0), (3, 0), (0, 3), (1, -3)])
def test_from_edge_list_refuses_an_index_outside_the_vertices(pair):
    # a negative index must not wrap round to a vertex at the far end
    with pytest.raises(ValueError, match=rf"edge \({pair[0]}, {pair[1]}\)"):
        LabeledGraph.from_edge_list(3, [(0, 1), pair])


def test_refusals_name_what_is_wrong():
    x1, x9 = path_vertex(1), path_vertex(9)
    with pytest.raises(ValueError, match="^duplicate vertex labels$"):
        LabeledGraph([x1, apex(1, 1), x1], [])
    # a loop is reported before its endpoint is looked up
    with pytest.raises(ValueError, match="^loop at x9$"):
        LabeledGraph([x1], [(x9, x9)])
    with pytest.raises(ValueError) as info:
        LabeledGraph([x1], [(x1, x9)])
    assert str(info.value) == "edge endpoint VertexLabel('path', (9,)) not a vertex"
    with pytest.raises(ValueError) as info:
        LabeledGraph([x1], [(x9, apex(1, 1))])
    assert str(info.value) == "edge endpoint VertexLabel('path', (9,)) not a vertex"
    with pytest.raises(ValueError) as info:
        VertexLabel("foo", (1,))
    assert str(info.value) == "unknown vertex role 'foo'"


# ---------------------------------------------------------------------------
# vertex labels are values


# the canonical role order of vertex labels
ROLE_RANK = {"path": 0, "apex": 1, "path_bristle": 2, "apex_bristle": 3,
             "anon": 4}


def every_kind_labels():
    labels = []
    for text in EVERY_KIND:
        labels += build_extended(parse_family(text)).labels
        labels += build_extended(parse_family(f"brs(q=2,{text})")).labels
    return labels


def test_vertex_labels_survive_pickle_and_deepcopy():
    labels = every_kind_labels()
    for lab in labels + [anonymous(12), apex(10, 3)]:
        for back in (pickle.loads(pickle.dumps(lab)), copy.deepcopy(lab),
                     copy.copy(lab)):
            assert back == lab and hash(back) == hash(lab)
            assert type(back) is VertexLabel
            assert (back.role, back.indices, back.name) == \
                (lab.role, lab.indices, lab.name)
    g = build_extended(parse_family("brs(q=1,tsnake(n=2,p=1))"))
    assert copy.deepcopy(g.labels) == g.labels


def test_vertex_label_repr_and_roles():
    assert repr(apex(2, 1)) == "VertexLabel('apex', (2, 1))"
    assert repr(path_vertex(3)) == "VertexLabel('path', (3,))"
    assert repr(anonymous(0)) == "VertexLabel('anon', (0,))"
    lab = path_bristle(10, 2)
    assert (lab.role, lab.indices, lab.name) == ("path_bristle", (10, 2), "x10_2")


def test_labels_of_different_roles_stay_distinct():
    keys = {path_bristle(1, 1): "leaf", apex(1, 1): "apex",
            VertexLabel("apex_bristle", (1, 1)): "apex leaf"}
    assert len(keys) == 3
    assert keys[apex(1, 1)] == "apex"
    assert path_bristle(1, 1) != apex(1, 1)
    assert path_vertex(1) == VertexLabel("path", (1,))


def test_labels_sort_by_role_rank_then_indices():
    labels = every_kind_labels()
    assert len(labels) > 200
    assert {lab.role for lab in labels} == set(ROLE_RANK)
    want = sorted(labels, key=lambda lab: (ROLE_RANK[lab.role], lab.indices))
    assert sorted(labels) == want
    rng = random.Random(17)
    shuffled = labels[:]
    rng.shuffle(shuffled)
    assert sorted(shuffled) == want


def test_neighbors_and_is_edge():
    # neighbours and edges are read off the adjacency masks
    g = k_cycle(5)
    assert g.adjacency[0] >> 4 & 1
    assert not g.adjacency[0] >> 2 & 1
    assert vars_of(g.adjacency[0]) == [1, 4]


def test_disjoint_union_counts():
    u = disjoint_union(k_path(3), k_cycle(4))
    assert u.n_vertices == 7
    assert u.n_edges == 6
    assert component_masks(u.adjacency, 0b1111111) == [0b111, 0b1111000]


def test_corona_counts():
    # the oracle below: |V| = |V(g)|(1+q), |E| = |E(g)| + q|V(g)|
    c = corona_with_leaves(k_cycle(4), 3)
    assert c.n_vertices == 4 * 4
    assert c.n_edges == 4 + 4 * 3
    assert sorted(m.bit_count() for m in c.adjacency) == [1] * 12 + [5] * 4


def test_bristle_equals_corona_with_null():
    for text in EVERY_KIND:
        inner = build_extended(parse_family(text))
        for q in (1, 2, 3):
            g = build_extended(parse_family(f"brs(q={q},{text})"))
            assert iso(g, corona_with_leaves(inner, q)), (q, text)


def test_bristle_pendant_degrees():
    g = build_extended(bristled(2, path(3)))
    ones = sum(1 for m in g.adjacency if m.bit_count() == 1)
    assert ones == 6
    assert g.n_vertices == 9


def test_bristle_twice_keeps_indices_distinct():
    g = build_extended(bristled(1, bristled(1, path(2))))
    assert g.n_vertices == 8
    assert len({lab.name for lab in g.labels}) == 8


def test_fuse_path_ends_makes_cycle():
    # the cycle family is the path family with its two ends identified
    nx = pytest.importorskip("networkx")
    for n in (4, 5, 6):
        fused = nx.contracted_nodes(nx_graph(nx, build_extended(path(n))),
                                    0, n - 1, self_loops=False)
        assert nx.is_isomorphic(fused, nx_graph(nx, build_extended(cycle(n - 1))))


def test_strip_isolated():
    # isolated vertices are free variables of the edge ideal, and the
    # replay's components leave them out
    g = LabeledGraph.from_edge_list(5, [(0, 1)])
    assert graph_parts(edge_ideal(g))[2] == 0b11100
    assert decompositions._quotient(g.adjacency, 0, "add")[0] == [(0b10, 0b01)]


def test_components_split_and_cover():
    g = LabeledGraph.from_edge_list(6, [(0, 1), (1, 2), (4, 5)])
    parts = component_masks(g.adjacency, 0b111111)
    assert sorted(c.bit_count() for c in parts) == [1, 2, 3]
    assert sum(parts) == 0b111111


def reference_components(g):
    """Vertex sets of the components by a search over the edge list,
    ordered by their lowest vertex."""
    nbrs = {v: set() for v in range(g.n_vertices)}
    for a, b in g.edges:
        nbrs[a].add(b)
        nbrs[b].add(a)
    left, comps = set(range(g.n_vertices)), []
    while left:
        stack, comp = [min(left)], set()
        while stack:
            v = stack.pop()
            if v not in comp:
                comp.add(v)
                stack.extend(nbrs[v])
        left -= comp
        comps.append(comp)
    return comps


def test_components_match_a_label_level_search():
    rng = random.Random(29)
    graphs = [random_graph(rng, max_v=12) for _ in range(300)]
    graphs += [build_extended(parse_family(t)) for t in
               ("brs(q=2,ouroboros(n=4,p=2))", "tsnake_star(n=3,p=2)")]
    graphs.append(disjoint_union(build_extended(bristled(1, cycle(5))),
                                 LabeledGraph.from_edge_list(2, [])))
    for g in graphs:
        assert component_masks(g.adjacency, (1 << g.n_vertices) - 1) == \
            [mask_of(c) for c in reference_components(g)]


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


def reference_induced_adjacency(adjacency, comp):
    """The induced adjacency renumbered through a dict of local bits."""
    verts = vars_of(comp)
    local = {v: 1 << i for i, v in enumerate(verts)}
    out = []
    for v in verts:
        m = 0
        for w in vars_of(adjacency[v] & comp):
            m |= local[w]
        out.append(m)
    return tuple(out)


def reference_graph_parts(ideal):
    """(killed, adjacency, free) with each generator's ends from vars_of."""
    killed = 0
    adj = [0] * ideal.n_vars
    for g in ideal.gens:
        d = g.bit_count()
        if d == 0:
            raise ValueError("unit ideal has no graph form")
        if d == 1:
            killed |= g
        elif d == 2:
            a, b = vars_of(g)
            adj[a] |= 1 << b
            adj[b] |= 1 << a
        else:
            raise ValueError(f"generator of degree {d} has no graph form")
    free = ((1 << ideal.n_vars) - 1) & ~ideal.support
    return killed, tuple(adj), free


def test_induced_adjacency_matches_the_dict_renumbering():
    rng = random.Random(43)
    seen_gap = False
    for _ in range(400):
        g = random_graph(rng, max_v=14)
        n, adj = g.n_vertices, g.adjacency
        full = (1 << n) - 1
        masks = [0, full, rng.getrandbits(n), full & ~(1 << rng.randrange(n))]
        masks += component_masks(adj, full) + component_masks(adj, masks[2])
        for comp in masks:
            got = induced_adjacency(adj, comp)
            assert got == reference_induced_adjacency(adj, comp), (g.edges, comp)
            assert len(got) == comp.bit_count()
            seen_gap |= comp.bit_length() > comp.bit_count() > 1
    assert seen_gap
    assert induced_adjacency((), 0) == ()


def test_live_vertices_match_the_neighbour_filter():
    # the reference is the filter each engine used to spell out for itself
    rng = random.Random(53)
    dropped = 0
    for _ in range(400):
        g = random_graph(rng, max_v=14)
        n, adj = g.n_vertices, g.adjacency
        full = (1 << n) - 1
        for m in (0, full, rng.getrandbits(n), rng.getrandbits(n)):
            got = live_vertices(adj, m)
            assert got == mask_of(v for v in vars_of(m) if adj[v] & m), (g.edges, m)
            dropped += got != m
    assert dropped > 100
    assert live_vertices((), 0) == 0


def test_graph_parts_matches_the_vars_of_split():
    rng = random.Random(47)
    refused = 0
    for _ in range(600):
        n = rng.randint(0, 14)
        gens = []
        for _ in range(rng.randint(0, 2 * n)):
            d = rng.choice([1, 2, 2, 2, 2, 3]) if rng.random() > 0.01 else 0
            gens.append(mask_of(rng.sample(range(n), min(d, n))))
        ideal = MonomialIdeal.make(n, gens)
        try:
            want = reference_graph_parts(ideal)
        except ValueError as exc:
            refused += 1
            with pytest.raises(ValueError) as info:
                graph_parts(ideal)
            assert str(info.value) == str(exc)
            continue
        assert graph_parts(ideal) == want
    assert 50 < refused < 550
    for text in EVERY_KIND:
        ideal = edge_ideal(build_extended(parse_family(text)))
        assert graph_parts(ideal) == reference_graph_parts(ideal)


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


def test_to_dot_mentions_counts_and_labels():
    g = build_extended(bristled(1, path(2)))
    dot = to_dot(g)
    assert "// vertices: 4" in dot
    assert "// edges: 3" in dot
    assert dot.startswith("graph ")
    assert dot.rstrip().endswith("}")


def test_path_bristle_label_names():
    assert path_bristle(2, 1).name == "x21"
    assert apex(3, 2).name == "y32"
    assert anonymous(7).name == "v7"


# ---------------------------------------------------------------------------
# networkx as an independent isomorphism oracle


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
