"""Multigraded Betti numbers of squarefree quotients.

The engine splits at simplicial vertices.  If y is simplicial in a graph
G (its neighbourhood N(y) is a clique), Engstrom's lemma gives
Ind(G) ~ wedge over u in N(y) of the suspension of Ind(G - N[u]), and
summing this through Hochster's formula over the vertex subsets that
contain y gives the exact recursion

  beta_{i,j}(G) = beta_{i,j}(G - y)
      + sum_{u in N(y)} sum_a C(deg u - 1, a) beta_{i-1-a, j-2-a}(G - N[u]),

the binomial counting the neighbours of u other than y that a subset
may add.  Isolated vertices are free variables and are dropped first,
and y is the first simplicial vertex in one breadth-first order of the
graph.  Induced subgraphs with none left go to the subset scan as their
renumbered adjacency; its private entry point _scan is also the oracle
the split engine is tested against.

The scan: for a squarefree ideal I and a vertex subset W, the induced
subcomplex of the Stanley-Reisner complex contributes its reduced
homology in degree d to beta_{|W|-d-1, |W|}(S/I).  Conventions:

  * the empty subset W contributes beta_{0,0} = 1 through the reduced
    homology of the complex {emptyset} in degree -1;
  * a one-point complex has no reduced homology at all, so singleton W
    with a surviving vertex contributes nothing;
  * a subset whose induced complex is a cone is skipped outright.

Degree-1 generators kill their variable: it belongs to no face, but the
subset W still counts it, which is what produces the linear beta_{i,i}
strands.  The split engine applies them at the end as one Koszul factor
per killed variable; ideals.graph_parts refuses degree 3 or more, which
only betti_table_taylor takes.  Homology is taken over GF(p), every p
ranking the same sparse rows of signs with gf.gfp_rank.
"""

from __future__ import annotations

from math import comb
from typing import NamedTuple

from .errors import DEFAULT_HOCHSTER_CAP, SizeLimitError
from .gf import check_prime, gfp_rank
from .graphs import induced_adjacency, live_vertices, vars_of
from .ideals import MonomialIdeal, graph_faces, graph_parts


# ---------------------------------------------------------------------------
# homology of one induced complex


def _homology_dims(faces: list[int], char: int) -> tuple[tuple[int, int], ...]:
    """Nonzero reduced homology dimensions [(degree, dim)] over GF(char).

    faces lists every face sorted by (size, mask), at least one vertex
    among them.  The augmentation then has rank 1, so reduced homology
    in degree -1 (possible only for the empty complex) never appears
    here; callers handle that case directly.
    """
    by_size: list[list[int]] = []
    for f in faces:
        if f.bit_count() == len(by_size):
            by_size.append([])
        by_size[-1].append(f)
    max_k = len(by_size) - 1
    # rank_map[k] is the rank of the boundary from size-k to size-(k-1) faces
    rank_map = [0] * (max_k + 2)
    rank_map[1] = 1
    for k in range(2, max_k + 1):
        cols = {f: i for i, f in enumerate(by_size[k - 1])}
        rows = []
        for f in by_size[k]:
            row = {}
            sign = 1
            rem = f
            while rem:
                low = rem & -rem
                rem ^= low
                row[cols[f ^ low]] = sign
                sign = -sign
            rows.append(row)
        rank_map[k] = gfp_rank(rows, char)
    dims = []
    for k in range(1, max_k + 1):
        h = len(by_size[k]) - rank_map[k] - rank_map[k + 1]
        if h:
            dims.append((k - 1, h))
    return tuple(dims)


def _fold_down(verts: int, adj: tuple[int, ...]) -> int | None:
    """Shrink an induced graph by dominated-vertex folds.

    If N(v) is contained in N(u) for distinct u, v then the independence
    complex deformation retracts onto the one without u, so u can be
    dropped without changing homotopy type.  Returns None as soon as a
    vertex becomes isolated (the complex is then a cone, hence
    contractible), otherwise the surviving vertex mask.
    """
    while True:
        vlist = vars_of(verts)
        neigh = []
        for v in vlist:
            nv = adj[v] & verts
            if nv == 0:
                return None
            neigh.append(nv)
        removed = False
        for iu, u in enumerate(vlist):
            nu = neigh[iu]
            for iv, v in enumerate(vlist):
                if iv != iu and neigh[iv] | nu == nu:
                    verts ^= 1 << u
                    removed = True
                    break
            if removed:
                break
        if not removed:
            return verts


def _graph_homology(verts: int, adj: tuple[int, ...], char: int,
                    memo: dict) -> tuple[tuple[int, int], ...]:
    # _scan passes only subsets without an isolated vertex
    core = _fold_down(verts, adj)
    if core is None:
        return ()
    key = induced_adjacency(adj, core)
    cached = memo.get(key)
    if cached is not None:
        return cached
    dims = _homology_dims(graph_faces(key), char)
    memo[key] = dims
    return dims


# ---------------------------------------------------------------------------
# the subset scan


def _scan(killed: int, adj: tuple[int, ...],
          char: int) -> dict[tuple[int, int], int]:
    """Betti numbers of S/I from the homology of every induced complex.

    I is given as graph_parts gives it: killed is the mask of its
    degree-1 generators and adj the graph of its degree-2 ones, one
    entry per variable.  Each induced graph is first shrunk by the
    dominated-vertex folds of _fold_down.
    """
    entries: dict[tuple[int, int], int] = {}
    core_memo: dict = {}
    for w in range(1 << len(adj)):
        w2 = w & ~killed
        j = w.bit_count()
        if w2 == 0:
            # all of W killed by linear generators: reduced homology of
            # {emptyset} in degree -1, landing in beta_{j,j}
            entries[(j, j)] = entries.get((j, j), 0) + 1
            continue
        rem = w2
        while rem:
            low = rem & -rem
            rem ^= low
            if adj[low.bit_length() - 1] & w2 == 0:
                break  # isolated vertex cones the complex off
        else:
            for d, dim in _graph_homology(w2, adj, char, core_memo):
                key = (j - d - 1, j)
                entries[key] = entries.get(key, 0) + dim
    return entries


# ---------------------------------------------------------------------------
# splitting at simplicial vertices


def _split(ideal: MonomialIdeal, char: int) -> dict[tuple[int, int], int]:
    """Betti numbers of S/I by the simplicial-vertex recursion.

    Each state pivots on its first simplicial vertex in one order fixed
    before the split: breadth-first from vertex 0 layer by layer, lowest
    index first, then again from the lowest unvisited vertex.  Memoised
    on the induced vertex mask, for this call only.
    """
    killed, adj, _free = graph_parts(ideal)
    order, seen = [], 0
    for s in range(len(adj)):
        layer = (1 << s) & ~seen
        while layer:
            seen |= layer
            order += vars_of(layer)
            layer = sum(1 << v for v, nv in enumerate(adj)
                        if nv & layer and not seen >> v & 1)
    memo: dict[int, dict[tuple[int, int], int]] = {}

    def table(verts: int) -> dict[tuple[int, int], int]:
        verts = live_vertices(adj, verts)
        if not verts:
            return {(0, 0): 1}
        cached = memo.get(verts)
        if cached is not None:
            return cached
        for y in order:
            ny = adj[y] & verts
            # N(y) is a clique iff each u in it sees all of N(y) but itself
            if verts >> y & 1 and all(ny & ~adj[u] == 1 << u for u in vars_of(ny)):
                out = dict(table(verts ^ (1 << y)))
                for u in vars_of(ny):
                    nu = adj[u] & verts
                    d = nu.bit_count() - 1
                    for (i, j), b in table(verts & ~(nu | 1 << u)).items():
                        for a in range(d + 1):
                            key = (i + 1 + a, j + 2 + a)
                            out[key] = out.get(key, 0) + comb(d, a) * b
                break
        else:
            # the killed variables are left to the Koszul step below
            out = _scan(0, induced_adjacency(adj, verts), char)
        memo[verts] = out
        return out

    entries = table(((1 << ideal.n_vars) - 1) & ~killed)
    for _ in range(killed.bit_count()):
        # tensor with the Koszul complex of one killed variable
        shifted = dict(entries)
        for (i, j), b in entries.items():
            shifted[(i + 1, j + 1)] = shifted.get((i + 1, j + 1), 0) + b
        entries = shifted
    return entries


# ---------------------------------------------------------------------------
# public results


class BettiTable(NamedTuple):
    """Total Betti numbers beta_{i,j}(S/I) over one field."""

    n_vars: int
    characteristic: int
    entries: tuple[tuple[tuple[int, int], int], ...]

    @classmethod
    def from_dict(cls, n_vars: int, characteristic: int,
                  data: dict[tuple[int, int], int]) -> "BettiTable":
        items = tuple(sorted((ij, b) for ij, b in data.items() if b))
        return cls(n_vars, characteristic, items)

    def as_dict(self) -> dict[tuple[int, int], int]:
        return dict(self.entries)

    @property
    def regularity(self) -> int:
        return max(j - i for (i, j), _ in self.entries)

    @property
    def projective_dimension(self) -> int:
        return max(i for (i, _), _ in self.entries)

    @property
    def depth(self) -> int:
        """n_vars - pdim, by the Auslander-Buchsbaum formula."""
        return self.n_vars - self.projective_dimension


def check_size(n_vars: int, characteristic: int, max_vars: int) -> None:
    """Refuse a non-prime characteristic, then more than max_vars variables.
    inv and verify call it on families.expected_counts before they build
    a graph, since a graph over the cap can take gigabytes to build."""
    check_prime(characteristic)
    if n_vars > max_vars:
        raise SizeLimitError(
            f"{n_vars} variables exceeds the cap of {max_vars}",
            limit="hochster_cap")


def betti_table(ideal: MonomialIdeal, characteristic: int = 2,
                max_vars: int = DEFAULT_HOCHSTER_CAP) -> BettiTable:
    """Betti table of S/I by splitting at simplicial vertices.

    Induced subgraphs without a simplicial vertex fall back to the
    subset scan.  I is read by graph_parts, so the unit ideal or a
    generator of degree 3 or more raises InvalidParameterError.
    """
    check_size(ideal.n_vars, characteristic, max_vars)
    entries = _split(ideal, characteristic)
    return BettiTable.from_dict(ideal.n_vars, characteristic, entries)


# regularity, projective dimension and depth are read off the table
invariants = betti_table
