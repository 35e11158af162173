"""Labeled simple graphs, adjacency-mask helpers, isomorphism and DOT export.

Vertices carry structured labels that record their role (spine vertex,
triangle apex, bristle of either, or anonymous).  A label is a tuple
(role rank, indices), so it hashes and compares as a tuple, and its
natural order is the canonical one: by role, then by indices.  Vertex
ids are always dense 0-based integers assigned in that order, so two
builds of the same family are identical object-for-object.  There are
no graph surgeries here: families.py assembles each family graph,
bristles included, as label lists and wraps it in one LabeledGraph.
Its adjacency masks are the only form it stores: the engines work on
them, and its edge list is read off them.
"""

from __future__ import annotations

from functools import partial
from operator import itemgetter
from typing import Iterable, Sequence

from .errors import InvalidParameterError

# Canonical role order: spine, apexes, spine bristles, apex bristles, anonymous.
_ROLES = ("path", "apex", "path_bristle", "apex_bristle", "anon")
_ROLE_RANK = {role: rank for rank, role in enumerate(_ROLES)}
_PREFIX = ("x", "y", "x", "y", "v")


def mask_of(variables: Iterable[int]) -> int:
    """Bitmask of a set of vertex (or variable) indices; vars_of inverts it."""
    m = 0
    for v in variables:
        m |= 1 << v
    return m


def vars_of(mask: int) -> list[int]:
    out = []
    while mask:
        low = mask & -mask
        out.append(low.bit_length() - 1)
        mask ^= low
    return out


class VertexLabel(tuple):
    """Structured vertex name, e.g. apex(2, 1) prints as y21.

    The tuple (role rank, indices): hashing, equality and the canonical
    order are tuple operations on ints.
    """

    __slots__ = ()

    def __new__(cls, role: str, indices: tuple[int, ...]):
        rank = _ROLE_RANK.get(role)
        if rank is None:
            raise InvalidParameterError(f"unknown vertex role {role!r}")
        return tuple.__new__(cls, (rank, indices))

    def __getnewargs__(self):
        return self.role, self.indices

    @property
    def role(self) -> str:
        return _ROLES[self[0]]

    # a C getter: family builds read this once per label
    indices = property(itemgetter(1), doc="The label's index tuple.")

    @property
    def name(self) -> str:
        """Compact display name; underscores appear only for indices >= 10."""
        rank, indices = self
        sep = "" if all(i <= 9 for i in indices) else "_"
        return _PREFIX[rank] + sep.join(str(i) for i in indices)

    def __repr__(self):
        return f"VertexLabel({self.role!r}, {self.indices!r})"


# The factories below name valid roles, so they skip VertexLabel's check.
_labeled = partial(tuple.__new__, VertexLabel)


def path_vertex(i: int) -> VertexLabel:
    return _labeled((_ROLE_RANK["path"], (i,)))


def apex(j: int, k: int) -> VertexLabel:
    return _labeled((_ROLE_RANK["apex"], (j, k)))


def path_bristle(i: int, t: int) -> VertexLabel:
    return _labeled((_ROLE_RANK["path_bristle"], (i, t)))


def anonymous(i: int) -> VertexLabel:
    return _labeled((_ROLE_RANK["anon"], (i,)))


class LabeledGraph:
    """Immutable simple graph with unique vertex labels.

    Construction sorts labels into canonical order and renumbers the
    edges accordingly.  The graph is stored only as adjacency masks, one
    per vertex; edges and n_edges are read off them.
    """

    __slots__ = ("labels", "adjacency", "_index")

    def __init__(self, labels: Iterable[VertexLabel],
                 edges: Iterable[tuple[VertexLabel, VertexLabel]]):
        ordered = sorted(labels)
        index = dict(zip(ordered, range(len(ordered))))
        if len(index) != len(ordered):
            raise InvalidParameterError("duplicate vertex labels")
        adj = [0] * len(ordered)
        for a, b in edges:
            if a == b:
                raise InvalidParameterError(f"loop at {a.name}")
            try:
                ia, ib = index[a], index[b]
            except KeyError as exc:
                raise InvalidParameterError(
                    f"edge endpoint {exc.args[0]!r} not a vertex") from None
            adj[ia] |= 1 << ib
            adj[ib] |= 1 << ia
        self.labels: tuple[VertexLabel, ...] = tuple(ordered)
        self.adjacency: tuple[int, ...] = tuple(adj)
        self._index = index

    @classmethod
    def from_edge_list(cls, n_vertices: int,
                       pairs: Iterable[tuple[int, int]]) -> "LabeledGraph":
        """Anonymous graph on vertices 0..n-1 given as index pairs."""
        labels = [anonymous(i) for i in range(n_vertices)]
        edges = []
        for a, b in pairs:
            if not (0 <= a < n_vertices and 0 <= b < n_vertices):
                raise InvalidParameterError(
                    f"edge ({a}, {b}) has an endpoint outside range({n_vertices})")
            edges.append((labels[a], labels[b]))
        return cls(labels, edges)

    @property
    def n_vertices(self) -> int:
        return len(self.labels)

    @property
    def edges(self) -> tuple[tuple[int, int], ...]:
        """Index pairs (a, b) with a < b, in sorted order."""
        return tuple((a, b) for a, m in enumerate(self.adjacency)
                     for b in vars_of(m) if b > a)

    @property
    def n_edges(self) -> int:
        return sum(m.bit_count() for m in self.adjacency) // 2

    def index_of(self, label: VertexLabel) -> int:
        """Index of a structured label, raising KeyError with a readable name."""
        try:
            return self._index[label]
        except KeyError:
            raise KeyError(f"graph has no vertex {label.name}") from None

    def __repr__(self):
        return f"<LabeledGraph {self.n_vertices} vertices, {self.n_edges} edges>"


def live_vertices(adjacency: Sequence[int], vertices: int) -> int:
    """The vertices of the mask that have a neighbour inside it.

    The others are isolated in the induced subgraph: free variables of
    its edge ideal, which every engine drops before it does any work.
    """
    live = 0
    rem = vertices
    while rem:
        low = rem & -rem
        rem ^= low
        if adjacency[low.bit_length() - 1] & vertices:
            live |= low
    return live


def component_masks(adjacency: Sequence[int], vertices: int) -> list[int]:
    """Vertex masks of the connected components, lowest vertex first.

    The components are those of the subgraph induced on `vertices`; the
    search never leaves that set.
    """
    comps = []
    while vertices:
        comp = frontier = vertices & -vertices
        while frontier:
            reach = 0
            for v in vars_of(frontier):
                reach |= adjacency[v]
            frontier = reach & vertices & ~comp
            comp |= frontier
        comps.append(comp)
        vertices &= ~comp
    return comps


def induced_adjacency(adjacency: Sequence[int], comp: int) -> tuple[int, ...]:
    """Adjacency masks of the subgraph on `comp`, renumbered 0..k-1 in order.

    A neighbour w lands at bit i, where i counts the members of comp
    below w.
    """
    out = []
    for v in vars_of(comp):
        m = 0
        nbrs = adjacency[v] & comp
        while nbrs:
            low = nbrs & -nbrs
            m |= 1 << (comp & (low - 1)).bit_count()
            nbrs ^= low
        out.append(m)
    return tuple(out)


def is_chordal(adjacency: Sequence[int]) -> bool:
    """Whether the graph has no induced cycle of length 4 or more.

    Maximum cardinality search (Tarjan and Yannakakis 1984) visits next
    an unvisited vertex with the most visited neighbours.  The graph is
    chordal exactly when, for each vertex, its visited neighbours less
    the last visited one are all adjacent to that last one; then they
    form a clique, by induction along the visit order.
    """
    n = len(adjacency)
    weight = [0] * n
    order = [0] * n  # order[v]: v's place in the visit order
    unvisited = (1 << n) - 1
    visited = 0
    for step in range(n):
        v = max(vars_of(unvisited), key=weight.__getitem__)
        earlier = adjacency[v] & visited
        if earlier:
            last = max(vars_of(earlier), key=order.__getitem__)
            if earlier & ~adjacency[last] != 1 << last:
                return False
        order[v] = step
        visited |= 1 << v
        unvisited ^= 1 << v
        for w in vars_of(adjacency[v] & unvisited):
            weight[w] += 1
    return True


# ---------------------------------------------------------------------------
# isomorphism testing


def _refine_colors(adj: Sequence[int]) -> tuple[int, ...]:
    """Iterated degree refinement; returns a stable color per vertex."""
    n = len(adj)
    nbrs = [vars_of(m) for m in adj]
    colors = [len(ws) for ws in nbrs]
    while True:
        sigs = [(colors[v], tuple(sorted([colors[w] for w in nbrs[v]])))
                for v in range(n)]
        palette = {s: c for c, s in enumerate(sorted(set(sigs)))}
        new = [palette[s] for s in sigs]
        if new == colors:
            return tuple(new)
        colors = new


def is_isomorphic(g: Sequence[int], h: Sequence[int]) -> bool:
    """Label-blind isomorphism of two graphs given as adjacency masks, exact.

    Pass `graph.adjacency` for a LabeledGraph.  Identical mask tuples
    are accepted at once, since the identity map is an isomorphism.
    Otherwise degree sequences and colour refinement reject most
    non-isomorphic pairs outright.  A backtracking search then maps g
    onto h one vertex at a time, each to a vertex of h with the same
    refined colour.  The order grows each component of g along its
    edges: it starts from a vertex of the smallest colour class and then
    takes, smallest class first, a vertex next to one already placed,
    whose image narrows its candidates to that image's neighbours.  A
    candidate v for u is kept only if its edges to the vertices used so
    far are the images of u's edges to the vertices placed so far, one
    bitmask comparison.
    """
    g, h = tuple(g), tuple(h)
    if g == h:
        return True
    n = len(g)
    if n != len(h):
        return False
    if sorted(m.bit_count() for m in g) != sorted(m.bit_count() for m in h):
        return False
    cg, ch = _refine_colors(g), _refine_colors(h)
    if sorted(cg) != sorted(ch):
        return False
    class_mask: dict[int, int] = {}
    for v in range(n):
        class_mask[ch[v]] = class_mask.get(ch[v], 0) | 1 << v
    rank = [(class_mask[cg[u]].bit_count(), cg[u], u) for u in range(n)]
    order: list[int] = []
    placed_nbrs: list[list[int]] = []  # neighbours of order[i] in order[:i]
    placed = 0
    while len(order) < n:
        u = min(r for r in rank if not placed >> r[2] & 1)[2]
        frontier = 0
        while True:
            order.append(u)
            placed_nbrs.append(vars_of(g[u] & placed))
            placed |= 1 << u
            frontier = (frontier | g[u]) & ~placed
            if not frontier:
                break
            u = min(rank[w] for w in vars_of(frontier))[2]
    image = [0] * n  # image[u] = 1 << (vertex of h that u maps to)
    want = [0] * n   # image of order[i]'s placed neighbours, set on entry
    cands = [0] * n  # untried candidates at each level
    cands[0] = class_mask[cg[order[0]]]
    used = 0
    i = 0
    while True:
        c = cands[i]
        if not c:
            i -= 1
            if i < 0:
                return False
            used ^= image[order[i]]
            continue
        low = c & -c
        cands[i] = c ^ low
        if h[low.bit_length() - 1] & used != want[i]:
            continue
        image[order[i]] = low
        used |= low
        i += 1
        if i == n:
            return True
        nbrs = placed_nbrs[i]
        w = 0
        for x in nbrs:
            w |= image[x]
        want[i] = w
        c = class_mask[cg[order[i]]] & ~used
        if nbrs:
            c &= h[image[nbrs[0]].bit_length() - 1]
        cands[i] = c


# ---------------------------------------------------------------------------
# output


def to_dot(g: LabeledGraph) -> str:
    """DOT export, one line per edge, display names as node labels."""
    lines = ["graph family {"]
    lines.append(f"  // vertices: {g.n_vertices}")
    lines.append(f"  // edges: {g.n_edges}")
    for v in range(g.n_vertices):
        lines.append(f'  {v} [label="{g.labels[v].name}"];')
    for a, b in g.edges:
        lines.append(f"  {a} -- {b};")
    lines.append("}")
    return "\n".join(lines) + "\n"

