"""Stanley depth of edge-ideal quotients via interval partitions.

For squarefree I the Stanley depth of S/I is the best possible
min |tau| over partitions of the face poset (all squarefree monomials
outside I) into boolean intervals [sigma, tau].

The search takes I in the form ideals.graph_parts reads, the edge ideal
of a graph plus some variables: a generator of degree 3 or more raises
InvalidParameterError.  Free variables and killed variables both factor
out: sdepth goes up by one per free variable and is untouched by a
variable that is itself a generator, so the search runs on the graph
induced on the live vertices, those with a neighbour outside the killed
set, renumbered in order (graphs.induced_adjacency).

The exact search rests on two known results.  Colon monotonicity
(Rauf, Comm. Algebra 38, 2010): sdepth(S/I) <= sdepth(S/(I : x_v)) for
every variable v outside I.  For I = I(G) the colon is
I(G - N[v]) + (N(v)): N(v) is killed, the live vertices of G - N(v)
stay, and the other n - |N(v)| - |live| variables, v among them, are
free.  Its value comes from the same search, recursively; the least
colon value, capped by the largest face size, is the colon bound.  The
skeleton reduction (Herzog-Vladoiu-Zheng, J. Algebra 322, 2009):
sdepth(S/I) >= d exactly when the faces of size <= d split into
intervals whose tops have exactly d elements, each larger face then
being its own interval.  The colon bound is probed first, then each
size below it in turn until a probe succeeds.  A probe covers the
skeleton smallest face first; the lowest uncovered face must start an
interval, failed cover states are memoised, and a state is dropped as
soon as an uncovered face has too few uncovered faces above it to reach
size d.  That prune is incremental: a step can only strand the faces one
below the faces it covers, so it tests those, and the faces already
stranded before anything is covered.  Only the top-level graph needs a
witness: its faces above the skeleton cover are partitioned greedily
once the value is known.  Every search stops with SizeLimitError
(limit "node_budget") after SEARCH_NODE_BUDGET nodes.

Colon values are memoised, for one call, on the colon's graph and on its
isomorphism class, since Stanley depth does not change when the
variables are renamed: a graph is compared, with graphs.is_isomorphic,
against the graphs solved with the same vertex count and sorted degree
sequence.
"""

from __future__ import annotations

from typing import Callable, Iterator, NamedTuple, Sequence

from .errors import DEFAULT_EXACT_CAP, InvalidParameterError, SizeLimitError
from .graphs import (induced_adjacency, is_isomorphic, live_vertices, mask_of,
                     vars_of)
from .ideals import MonomialIdeal, faces_of, graph_faces, graph_parts

DEFAULT_POSET_CAP = 14
SEARCH_NODE_BUDGET = 200_000


def face_poset(ideal: MonomialIdeal, cap: int = DEFAULT_POSET_CAP) -> tuple[int, ...]:
    """The faces outside I, sorted by (size, mask), the empty face first."""
    if ideal.is_unit:
        raise InvalidParameterError("the unit ideal has an empty face poset")
    if ideal.n_vars > cap:
        raise SizeLimitError(
            f"face poset capped at {cap} variables, got {ideal.n_vars}",
            limit="poset_cap")
    return tuple(faces_of(ideal.n_vars, ideal.gens))


class IntervalPartition(NamedTuple):
    """Disjoint intervals [bottom, top] covering a face poset."""

    n_vars: int
    intervals: tuple[tuple[int, int], ...]

    @property
    def value(self) -> int:
        return min(t.bit_count() for _, t in self.intervals)

    def to_json_dict(self, names: list[str]) -> list[dict[str, list[str]]]:
        return [{"lower": [names[v] for v in vars_of(s)],
                 "upper": [names[v] for v in vars_of(t)]}
                for s, t in self.intervals]


def validate_partition(faces: Sequence[int], partition: IntervalPartition) -> None:
    """Check the partition is made of disjoint face intervals covering the faces.

    Raises ValueError on any violation; meant as an independent witness
    checker, so it recomputes everything from scratch.
    """
    face_set = set(faces)
    seen: set[int] = set()
    for s, t in partition.intervals:
        if s & ~t:
            raise ValueError(f"interval bottom {s:b} not below top {t:b}")
        if t not in face_set:
            raise ValueError(f"interval top {t:b} is not a face")
        extra = t & ~s
        sub = extra
        members = []
        while True:
            members.append(s | sub)
            if sub == 0:
                break
            sub = (sub - 1) & extra
        for f in members:
            if f not in face_set:
                raise ValueError(f"interval member {f:b} is not a face")
            if f in seen:
                raise ValueError(f"face {f:b} covered twice")
            seen.add(f)
    if len(seen) != len(face_set):
        raise ValueError("partition does not cover the face poset")


def _interval_members(s: int, t: int) -> list[int]:
    extra = t & ~s
    out = []
    sub = extra
    while True:
        out.append(s | sub)
        if sub == 0:
            break
        sub = (sub - 1) & extra
    return out


class _Search:
    """Cover of the <= d skeleton by intervals whose tops have d elements.

    The lowest uncovered face (faces are sorted smallest first) must be
    the bottom of an interval; its candidate tops are tried in a fixed
    order, depth first with an explicit stack, and cover states that
    failed are memoised.  The search succeeds once every face of size
    below d is covered: the d-faces left over are their own intervals.
    """

    def __init__(self, faces: tuple[int, ...], d: int, solver: _Exact):
        self.faces = [f for f in faces if f.bit_count() <= d]
        index = self.index = {f: i for i, f in enumerate(self.faces)}
        self.d = d
        self.solver = solver
        self.failed: set[int] = set()
        covers = [0] * len(self.faces)  # bits of the faces one larger above
        under = [0] * len(self.faces)  # bits of the faces one smaller below
        for j, g in enumerate(self.faces):
            rest = g
            while rest:
                low = rest & -rest
                i = index[g ^ low]
                covers[i] |= 1 << j
                under[j] |= 1 << i
                rest ^= low
        self.under = under
        # per face below size d, in face order: its covers, and how many
        # of those it needs
        self.below = [(covers[i], d - f.bit_count())
                      for i, f in enumerate(self.faces) if f.bit_count() < d]
        self.low = (1 << len(self.below)) - 1
        # faces with too few covers even before anything is covered; the
        # root state is never tested, so each step tests these as well
        self.stranded = mask_of(i for i, (c, need) in enumerate(self.below)
                                if c.bit_count() < need)

    def _open(self, step: int, bits: int) -> bool:
        """No uncovered face below size d is stranded once bits are covered.

        An uncovered face F lies in a future interval [C, D] with
        C <= F <= D and |D| = d, so at least d - |F| of the faces one
        larger above F must still be uncovered.  The state before the
        step passed this test, or is the root, so a face stranded now is
        stranded at the root or lies one below a face of bits.
        """
        if self.stranded & ~step:
            return False
        under = self.under
        near = 0
        while bits:
            low = bits & -bits
            near |= under[low.bit_length() - 1]
            bits ^= low
        near &= ~step
        below = self.below
        while near:
            low = near & -near
            covers, need = below[low.bit_length() - 1]
            if (covers & ~step).bit_count() < need:
                return False
            near ^= low
        return True

    def run(self) -> list[tuple[int, int]] | None:
        if self.low == 0:
            return []
        frames = [(0, self._candidates(0))]
        chosen: list[tuple[int, int]] = []
        while frames:
            covered, candidates = frames[-1]
            for sigma, top, bits in candidates:
                step = covered | bits
                if step & self.low == self.low:
                    return chosen + [(sigma, top)]
                if step in self.failed or not self._open(step, bits):
                    continue
                chosen.append((sigma, top))
                frames.append((step, self._candidates(step)))
                break
            else:
                self.failed.add(covered)
                frames.pop()
                if chosen:
                    chosen.pop()
        return None

    def _candidates(self, covered: int) -> Iterator[tuple[int, int, int]]:
        """(sigma, top, member bits) for the lowest uncovered face sigma.

        Generated lazily, in lexicographic order of the variables the top
        adds to sigma.
        """
        self.solver.nodes += 1
        if self.solver.nodes > SEARCH_NODE_BUDGET:
            raise SizeLimitError(
                f"exact Stanley depth search passed its budget of "
                f"{SEARCH_NODE_BUDGET} nodes", limit="node_budget")
        index = self.index
        i = (~covered & (covered + 1)).bit_length() - 1
        sigma = self.faces[i]
        dirs = []
        up = self.below[i][0] & ~covered
        while up:
            low = up & -up
            dirs.append(self.faces[low.bit_length() - 1] ^ sigma)
            up ^= low

        def grow(top, members, bits, start, left):
            if left == 0:
                yield sigma, top, bits
                return
            for k in range(start, len(dirs) - left + 1):
                v = dirs[k]
                added = bits
                for m in members:
                    j = index.get(m | v)
                    if j is None or covered >> j & 1:
                        break
                    added |= 1 << j
                else:
                    yield from grow(top | v, members + [m | v for m in members],
                                    added, k + 1, left - 1)

        return grow(sigma, [sigma], 1 << i, 0, self.d - sigma.bit_count())


def _feasible(faces: tuple[int, ...], d: int, solver: _Exact
              ) -> list[tuple[int, int]] | None:
    """A cover of the faces below size d by intervals with d-element tops.

    None when there is none.  The faces it leaves over (d-faces and all
    larger ones) form an upper set, so any partition of them completes
    it to a partition with every top of size >= d.
    """
    return _Search(faces, d, solver).run()


def _colon_bound(adj: tuple[int, ...], upper: int,
                 value_of: Callable[[tuple[int, ...]], int]) -> int:
    """Lower an upper bound on sdepth(S/I(G)) through every colon by x_v.

    sdepth(S/I) <= sdepth(S/(I : x_v)) (Rauf), and the colon's value is
    value_of(the graph on its live vertices) plus its free count.
    """
    n = len(adj)
    full = (1 << n) - 1
    for v in range(n):
        live = live_vertices(adj, full & ~adj[v])
        free = n - adj[v].bit_count() - live.bit_count()
        upper = min(upper, value_of(induced_adjacency(adj, live)) + free)
    return upper


class _Exact:
    """Exact Stanley depth of graphs' edge ideals, memoised for one call.

    Graphs come as adjacency masks.  memo is keyed on the adjacency;
    classes maps (vertex count, sorted degree sequence) to the adjacency
    and value of each graph solved.
    """

    def __init__(self):
        self.memo: dict[tuple[int, ...], int] = {}
        self.classes: dict[tuple[int, tuple[int, ...]],
                           list[tuple[tuple[int, ...], int]]] = {}
        self.nodes = 0

    def value(self, adj: tuple[int, ...]) -> int:
        hit = self.memo.get(adj)
        if hit is not None:
            return hit
        key = (len(adj), tuple(sorted(m.bit_count() for m in adj)))
        bucket = self.classes.setdefault(key, [])
        for other, known in bucket:
            if is_isomorphic(adj, other):
                hit = known
                break
        else:
            hit = self.solve(adj)[0]
            bucket.append((adj, hit))
        self.memo[adj] = hit
        return hit

    def solve(self, adj: tuple[int, ...]
              ) -> tuple[int, tuple[int, ...], list[tuple[int, int]]]:
        """(value, faces, skeleton cover at the value)."""
        faces = tuple(graph_faces(adj))
        d = _colon_bound(adj, faces[-1].bit_count(), self.value)
        # the colon bound is only an upper bound: step down from it, where
        # d = 0 always succeeds
        found = _feasible(faces, d, self)
        while found is None:
            d -= 1
            found = _feasible(faces, d, self)
        return d, faces, found


def check_live(n_live: int, exact_cap: int) -> None:
    """Refuse more than exact_cap live variables.  The sdepth command
    calls it on the family's closed-form counts before it builds a graph,
    since a graph far over the cap can take gigabytes to build."""
    if n_live > exact_cap:
        raise SizeLimitError(
            f"exact Stanley depth capped at {exact_cap} live variables, "
            f"got {n_live}", limit="sdepth_cap")


def stanley_depth(ideal: MonomialIdeal, exact_cap: int = DEFAULT_EXACT_CAP
                  ) -> tuple[int, IntervalPartition]:
    """Exact Stanley depth of S/I with an interval-partition witness.

    I is read by graph_parts, so the unit ideal or a generator of
    degree 3 or more raises InvalidParameterError.  The cap applies to
    the live vertices: the variables left after stripping free and
    killed ones.  A search that runs past SEARCH_NODE_BUDGET nodes
    raises SizeLimitError, as an instance over the cap does.
    """
    killed, adj, free = graph_parts(ideal)
    live = live_vertices(adj, ((1 << ideal.n_vars) - 1) & ~killed)
    check_live(live.bit_count(), exact_cap)
    value, faces, cover = _Exact().solve(induced_adjacency(adj, live))
    covered = {m for s, t in cover for m in _interval_members(s, t)}
    intervals = cover + _greedy_partition(tuple(f for f in faces if f not in covered))
    return value + free.bit_count(), _lift_partition(
        ideal.n_vars, free, vars_of(live), intervals)


def _lift_partition(n_vars: int, free: int, live_vars: list[int],
                    intervals: list[tuple[int, int]]) -> IntervalPartition:
    """Lift a partition of the live graph's faces to the ambient variables.

    Each interval top gains every free variable: the ambient face poset
    is the live graph's one times a full cube on the free variables.
    """
    lifted = []
    for s, t in intervals:
        ls = mask_of(live_vars[v] for v in vars_of(s))
        lt = mask_of(live_vars[v] for v in vars_of(t)) | free
        lifted.append((ls, lt))
    return IntervalPartition(n_vars, tuple(sorted(lifted)))


def _greedy_partition(faces: tuple[int, ...]) -> list[tuple[int, int]]:
    """Smallest-face-first cover, always extending to a largest valid top."""
    face_set = set(faces)
    index = {f: i for i, f in enumerate(faces)}
    support = 0
    for f in faces:
        support |= f
    variables = vars_of(support)
    covered = 0
    out = []
    for i, sigma in enumerate(faces):
        if covered >> i & 1:
            continue
        top = sigma
        grown = True
        while grown:
            grown = False
            for v in variables:
                cand = top | (1 << v)
                if cand == top or cand not in face_set:
                    continue
                ok = all(m in face_set and not covered >> index[m] & 1
                         for m in _interval_members(sigma, cand))
                if ok:
                    top = cand
                    grown = True
                    break
        for m in _interval_members(sigma, top):
            covered |= 1 << index[m]
        out.append((sigma, top))
    return out

