"""Independent references that the engines are tested against, and the
small graphs and ideals the tests share."""

from edgeideals import (InvalidParameterError, LabeledGraph, MonomialIdeal,
                        bristled, edge_ideal, is_isomorphic, mask_of,
                        ouroboros, replay_family, tsnake, tsnake_star,
                        tsnake_starstar, vars_of)


def zero_ideal(n_vars):
    return MonomialIdeal.make(n_vars, [])


def unit_ideal(n_vars):
    return MonomialIdeal.make(n_vars, [0])


def is_zero(ideal):
    return not ideal.gens


def contains(ideal, monomial):
    """Membership test: some generator divides the monomial."""
    return any(g & monomial == g for g in ideal.gens)


def cycle_ideal(n):
    return edge_ideal(LabeledGraph.from_edge_list(n, [(i, (i + 1) % n) for i in range(n)]))


def path_ideal(n):
    return edge_ideal(LabeledGraph.from_edge_list(n, [(i, i + 1) for i in range(n - 1)]))


def disjoint_union(g, h):
    """g beside h, h's vertices numbered after g's."""
    k = g.n_vertices
    return LabeledGraph.from_edge_list(
        k + h.n_vertices, list(g.edges) + [(a + k, b + k) for a, b in h.edges])


def iso(g, h):
    return is_isomorphic(g.adjacency, h.adjacency)


def nx_graph(nx, g):
    """g as a networkx graph on the vertices 0..n-1."""
    out = nx.Graph()
    out.add_nodes_from(range(g.n_vertices))
    out.add_edges_from(g.edges)
    return out


def colon_by(ideal, monomial):
    """Colon ideal (I : m) for a squarefree monomial m not in I.

    Generators are g with g's intersection with m removed, reminimized.
    Colon by 1 returns the ideal unchanged.  The ideal-level route that
    the replay's mask rule, decompositions._quotient, stands for.
    """
    if contains(ideal, monomial):
        raise InvalidParameterError("colon pivot lies in the ideal; quotient is the unit ideal")
    return MonomialIdeal.make(ideal.n_vars, (g & ~monomial for g in ideal.gens))


def add_variable(ideal, v):
    """The ideal (I, x_v); generators containing v become redundant."""
    if not 0 <= v < ideal.n_vars:
        raise ValueError(f"variable {v} outside the ring")
    return MonomialIdeal.make(ideal.n_vars, ideal.gens + (1 << v,))


def replay_catalogue(max_n=4, max_p=2, max_q=2):
    """replay_family over every catalogued family in the parameter box
    n <= max_n, p <= max_p, q <= max_q, bare and bristled."""
    reports = []
    for n in range(1, max_n + 1):
        for p in range(1, max_p + 1):
            for base in (tsnake(n, p), tsnake_star(n, p), tsnake_starstar(n, p)):
                reports.extend(replay_family(base))
                for q in range(1, max_q + 1):
                    reports.extend(replay_family(bristled(q, base)))
    for n in range(3, max_n + 1):
        for p in range(1, max_p + 1):
            reports.extend(replay_family(ouroboros(n, p)))
            for q in range(1, max_q + 1):
                reports.extend(replay_family(bristled(q, ouroboros(n, p))))
    return reports


def compact(ideal, variables):
    """Restrict to the given variables and renumber them 0..k-1.

    The route the engines took before they stayed on vertex masks: the
    generators inside the variables, renumbered and reminimized.
    """
    varlist = sorted(variables)
    pos = {v: i for i, v in enumerate(varlist)}
    keep = mask_of(varlist)
    gens = [mask_of(pos[v] for v in vars_of(g))
            for g in ideal.gens if g & keep == g]
    return MonomialIdeal.make(len(varlist), gens)


def reduce_by_compact(ideal):
    """(compacted ideal, live variables, free count), in two steps.

    The reduction the Stanley depth search took before it stayed on
    adjacency masks: find the killed variables, then compact to the rest
    of the support.
    """
    killed = mask_of(g.bit_length() - 1 for g in ideal.gens
                     if g.bit_count() == 1)
    live = vars_of(ideal.support & ~killed)
    return (compact(ideal, live), live,
            ideal.n_vars - ideal.support.bit_count())


def least_maximal_independent_set(adjacency):
    """The least size of a maximal independent set of a graph given by
    adjacency masks: an independent set that dominates every vertex.

    Branch and bound: the undominated vertex with the fewest choices
    left is dominated by itself or by one of its neighbours.
    """
    best = len(adjacency)

    def grow(free, undominated, size):
        nonlocal best
        if not undominated:
            best = min(best, size)
            return
        if size + 1 >= best:
            return
        choices = [(adjacency[v] | 1 << v) & free for v in vars_of(undominated)]
        for u in vars_of(min(choices, key=int.bit_count)):
            closed = adjacency[u] | 1 << u
            grow(free & ~closed, undominated & ~closed, size + 1)

    everything = (1 << len(adjacency)) - 1
    grow(everything, everything, 0)
    return best


def independence_number(adjacency):
    """The largest size of an independent set of a graph given by
    adjacency masks.

    The lowest vertex left is either out of the set, or in it with its
    neighbours out.
    """
    def best(left):
        if not left:
            return 0
        low = left & -left
        rest, near = left ^ low, adjacency[low.bit_length() - 1]
        taken = 1 + best(rest & ~near)
        return max(taken, best(rest)) if near & rest else taken

    return best((1 << len(adjacency)) - 1)
