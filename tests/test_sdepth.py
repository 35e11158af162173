"""Exact Stanley depth via interval partitions of the face poset."""

import json
import math
import random
from collections import Counter
from hashlib import sha256
from pathlib import Path

import pytest

from edgeideals import (MonomialIdeal, build_extended, edge_ideal, face_poset,
                        invariants, parse_family, stanley_depth,
                        validate_partition)
from edgeideals import recursion as recursion_module
from edgeideals import sdepth as sdepth_module
from edgeideals.cli import main
from edgeideals.errors import InvalidParameterError, SizeLimitError
from edgeideals.graphs import induced_adjacency, live_vertices
from edgeideals.ideals import graph_faces, graph_parts
from oracles import (colon_by, contains, least_maximal_independent_set,
                     path_ideal, reduce_by_compact, unit_ideal, zero_ideal)
from edgeideals.sdepth import (IntervalPartition, _colon_bound, _Exact,
                               _Search)
from edgeideals.verify import CLAIMS, RunConfig, run_cell

# the sdepth cells of the benchmark's sdepth workload
WORKLOAD_CELLS = ["tsnake(n=4,p=1)", "path(9)", "cycle(10)", "star(u=10)",
                  "brs(q=1,tsnake(n=2,p=2))", "cycle(11)",
                  "ouroboros(n=3,p=2)", "bstar(u=4,q=1)"]


def family_ideal(text):
    return edge_ideal(build_extended(parse_family(text)))


def checked(ideal):
    value, witness = stanley_depth(ideal)
    validate_partition(face_poset(ideal), witness)
    assert witness.value == value
    return value


def test_p4_value():
    assert checked(path_ideal(4)) == 2


def test_star_values_are_one():
    for u in range(1, 7):
        assert checked(family_ideal(f"star(u={u})")) == 1


def test_bristled_star_values():
    for (u, q) in [(1, 1), (2, 1), (1, 2)]:
        assert checked(family_ideal(f"bstar(u={u},q={q})")) == u + q


def test_bristled_snake_cell():
    assert checked(family_ideal("brs(q=1,tsnake(n=1,p=1))")) == 3


def test_zero_ideal_full_depth():
    assert stanley_depth(zero_ideal(4))[0] == 4


def test_unit_ideal_rejected():
    # graph_parts refuses the degree-0 generator before any search
    with pytest.raises(InvalidParameterError, match="unit ideal"):
        stanley_depth(unit_ideal(3))


def test_killed_variable_reduces():
    # S/(x0) is a polynomial ring in the remaining variables
    ideal = MonomialIdeal.make(3, [0b001])
    assert checked(ideal) == 2


def test_free_variables_shift():
    base = path_ideal(4)
    for s in (1, 2):
        widened = MonomialIdeal.make(base.n_vars + s, base.gens)
        assert stanley_depth(widened)[0] == 2 + s


def test_exact_cap_raises():
    ideal = family_ideal("brs(q=1,ouroboros(n=3,p=1))")  # 12 live variables
    with pytest.raises(SizeLimitError):
        stanley_depth(ideal)
    value, witness = stanley_depth(ideal, exact_cap=12)
    assert value == 6
    validate_partition(face_poset(ideal), witness)


def test_validate_partition_rejects_overlap():
    ideal = MonomialIdeal.make(2, [0b11])
    poset = face_poset(ideal)
    bad = IntervalPartition(2, ((0b00, 0b01), (0b01, 0b01), (0b10, 0b10)))
    with pytest.raises(ValueError):
        validate_partition(poset, bad)


def test_validate_partition_rejects_gap():
    ideal = MonomialIdeal.make(2, [0b11])
    poset = face_poset(ideal)
    bad = IntervalPartition(2, ((0b00, 0b01),))
    with pytest.raises(ValueError):
        validate_partition(poset, bad)


def test_validate_partition_rejects_non_face_top():
    ideal = MonomialIdeal.make(2, [0b11])
    poset = face_poset(ideal)
    bad = IntervalPartition(2, ((0b00, 0b11),))
    with pytest.raises(ValueError):
        validate_partition(poset, bad)


def test_witness_serialization():
    ideal = path_ideal(3)
    _, witness = stanley_depth(ideal)
    doc = witness.to_json_dict(["a", "b", "c"])
    assert all(set(entry) == {"lower", "upper"} for entry in doc)


def _oracle_members(s, t):
    extra = t & ~s
    out = []
    sub = extra
    while True:
        out.append(s | sub)
        if sub == 0:
            break
        sub = (sub - 1) & extra
    return out


class _OracleSearch:
    """The unseeded search over the whole face poset, kept as an oracle.

    It covers the poset smallest face first, tries every top of size at
    least d above the lowest uncovered face, largest first, and memoises
    failed cover states.  It uses neither colon bounds nor the skeleton.
    """

    def __init__(self, faces, d):
        self.faces = faces
        self.index = {f: i for i, f in enumerate(faces)}
        self.face_set = set(faces)
        self.d = d
        self.full = (1 << len(faces)) - 1
        self.failed = set()

    def _tops(self, sigma, covered):
        dirs = [f & ~sigma for f in self.faces
                if f.bit_count() == sigma.bit_count() + 1 and f & sigma == sigma
                and not covered >> self.index[f] & 1]
        found = [sigma]

        def grow(top, rest):
            for i, v in enumerate(rest):
                cand = top | v
                if cand in self.face_set and all(
                        m in self.face_set and not covered >> self.index[m] & 1
                        for m in _oracle_members(sigma, cand)):
                    found.append(cand)
                    grow(cand, rest[i + 1:])

        grow(sigma, dirs)
        good = [t for t in found if t.bit_count() >= self.d]
        good.sort(key=lambda t: (-t.bit_count(), t))
        return good

    def extend(self, covered):
        if covered == self.full:
            return True
        if covered in self.failed:
            return False
        idx = (~covered & (covered + 1)).bit_length() - 1
        sigma = self.faces[idx]
        for top in self._tops(sigma, covered):
            bits = 0
            for m in _oracle_members(sigma, top):
                bits |= 1 << self.index[m]
            if self.extend(covered | bits):
                return True
        self.failed.add(covered)
        return False


def oracle_sdepth(ideal):
    """Binary search from 0 to the largest face size, on the full poset."""
    faces = [w for w in range(1 << ideal.n_vars) if not contains(ideal, w)]
    faces.sort(key=lambda f: (f.bit_count(), f))
    lo, hi = 0, max(f.bit_count() for f in faces)
    while lo < hi:
        mid = (lo + hi + 1) // 2
        if _OracleSearch(faces, mid).extend(0):
            lo = mid
        else:
            hi = mid - 1
    return lo


def random_ideals(seed, count):
    """Seeded ideals I(G) + (x_K) on 3 to 8 variables.

    Each pair is an edge with one density per ideal, and up to two
    variables are killed; a variable left in no generator is free.
    """
    rng = random.Random(seed)
    out = []
    while len(out) < count:
        nv = rng.randint(3, 8)
        density = rng.uniform(0.2, 0.7)
        gens = [1 << a | 1 << b for a in range(nv) for b in range(a + 1, nv)
                if rng.random() < density]
        gens += [1 << v for v in rng.sample(range(nv), rng.randint(0, 2))]
        out.append(MonomialIdeal.make(nv, gens))
    return out


def test_engine_matches_the_unseeded_full_poset_search():
    ideals = random_ideals(4, 300)
    parts = [graph_parts(ideal) for ideal in ideals]
    assert sum(any(adj) for _, adj, _ in parts) > 200
    assert sum(bool(killed) for killed, _, _ in parts) > 150
    assert sum(bool(free) for _, _, free in parts) > 100
    assert sum(bool(killed and free) for killed, _, free in parts) > 50
    for ideal in ideals:
        value, witness = stanley_depth(ideal)
        validate_partition(face_poset(ideal), witness)
        assert witness.value == value
        assert value == oracle_sdepth(ideal), ideal


def spy_on_runs(monkeypatch):
    """Record (search, outcome) for every _Search.run: True for a cover,
    False for none, None for a run that spent its allowance first."""
    runs = []
    run = _Search.run

    def spy(search, *allowance):
        found = run(search, *allowance)
        runs.append((search, None if found is None and search.frames
                     else found is not None))
        return found

    monkeypatch.setattr(_Search, "run", spy)
    return runs


def test_search_steps_down_from_a_seed_that_fails(monkeypatch):
    # seeded with the largest face size alone, the first probe fails on
    # many ideals and the probes below it must still land on the value
    runs = spy_on_runs(monkeypatch)
    monkeypatch.setattr(sdepth_module, "_least_maximal_independent",
                        lambda adj, faces: faces[-1].bit_count())
    monkeypatch.setattr(sdepth_module, "_colon_bound",
                        lambda reduced, upper, value_of: upper)
    for ideal in random_ideals(5, 60) + [family_ideal("path(9)")]:
        value, witness = stanley_depth(ideal)
        validate_partition(face_poset(ideal), witness)
        assert value == witness.value == oracle_sdepth(ideal), ideal
    probes = [ok for _, ok in runs if ok is not None]
    assert not all(probes)


def test_probes_step_down_one_size_at_a_time(monkeypatch):
    # C_7 has independent set bound 3, colon bound 3 and Stanley depth 2:
    # the probe at 3 spends its allowance, the colon bound comes back to
    # 3, so the same search resumes and fails, and the next size down
    # answers
    runs = spy_on_runs(monkeypatch)
    ideal = family_ideal("cycle(7)")
    assert stanley_depth(ideal)[0] == 2
    top = tuple(graph_faces(graph_parts(ideal)[1]))
    mine = [(search, ok) for search, ok in runs if search.faces == top]
    assert [(search.d, ok) for search, ok in mine if ok is not None] == [
        (3, False), (2, True)]
    assert [(search.d, ok) for search, ok in mine] == [
        (3, None), (3, False), (2, True)]
    assert mine[0][0] is mine[1][0]


@pytest.mark.parametrize("n", range(1, 15))
def test_paths_match_the_closed_form(n):
    # sdepth(S/I(P_n)) = ceil(n/3) (Cimpoeas)
    ideal = family_ideal(f"path({n})")
    value, witness = stanley_depth(ideal, exact_cap=14)
    validate_partition(face_poset(ideal), witness)
    assert value == witness.value == math.ceil(n / 3)


@pytest.mark.parametrize("n", [n for n in range(3, 15) if n % 3 != 1])
def test_cycles_match_the_closed_form(n):
    # sdepth(S/I(C_n)) = ceil((n-1)/3) for n not 1 mod 3 (Cimpoeas)
    ideal = family_ideal(f"cycle({n})")
    value, witness = stanley_depth(ideal, exact_cap=14)
    validate_partition(face_poset(ideal), witness)
    assert value == witness.value == math.ceil((n - 1) / 3)


@pytest.mark.parametrize("text", ["tsnake(n=3,p=2)", "tsnake_star(n=2,p=2)"])
def test_snake_cells_past_the_old_reach(text):
    ideal = family_ideal(text)
    assert checked(ideal) == 2 == invariants(ideal).depth


@pytest.mark.parametrize("text", WORKLOAD_CELLS)
def test_one_feasibility_probe_per_ideal(monkeypatch, text):
    runs = spy_on_runs(monkeypatch)
    ideal = family_ideal(text)
    stanley_depth(ideal, exact_cap=14)
    reduced, _, _ = reduce_by_compact(ideal)
    probes = [(search.faces, ok) for search, ok in runs if ok is not None]
    per_ideal = Counter(faces for faces, _ in probes)
    assert per_ideal[face_poset(reduced)] == 1
    assert set(per_ideal.values()) == {1}
    assert all(ok for _, ok in probes)


@pytest.mark.parametrize("text", WORKLOAD_CELLS)
def test_one_greedy_partition_per_call(monkeypatch, text):
    # colon ideals only need a value: the witness of the top-level ideal
    # is the one place the faces above the skeleton cover get partitioned
    calls = []
    greedy = sdepth_module._greedy_partition

    def counting(faces):
        calls.append(faces)
        return greedy(faces)

    monkeypatch.setattr(sdepth_module, "_greedy_partition", counting)
    ideal = family_ideal(text)
    value, witness = stanley_depth(ideal, exact_cap=14)
    assert len(calls) == 1
    validate_partition(face_poset(ideal), witness)
    assert witness.value == value


def test_node_budget_fails_loudly(monkeypatch, capsys):
    monkeypatch.setattr(sdepth_module, "SEARCH_NODE_BUDGET", 3)
    with pytest.raises(SizeLimitError):
        stanley_depth(family_ideal("path(9)"))
    assert main(["sdepth", "path(9)"]) == 2
    assert "budget" in capsys.readouterr().err
    claim = CLAIMS["bstar"]
    rows = run_cell(claim, claim.default_cells[-1], RunConfig())
    assert [r.status for r in rows if r.invariant == "sdepth"] == ["skipped"]
    assert all(r.status == "pass" for r in rows if r.invariant != "sdepth")


def test_step_budget_leaves_a_skipped_row(monkeypatch, capsys):
    # a regularity recursion past its budget skips its own row and keeps
    # every other row of the report, as the search's node budget does
    monkeypatch.setattr(recursion_module, "STEP_BUDGET", 3)
    claim = CLAIMS["bstar"]
    rows = run_cell(claim, claim.default_cells[-1], RunConfig())
    betti_reg = [r.computed for r in rows if r.invariant == "reg"]
    assert [(r.computed, r.predicted, r.status) for r in rows
            if r.invariant == "reg-recursion"] == [(None, *betti_reg, "skipped")]
    assert all(r.status == "pass" for r in rows
               if r.invariant != "reg-recursion")
    assert main(["verify", "bstar", "--format", "text"]) == 0
    out = capsys.readouterr()
    assert out.err == ""
    assert out.out.splitlines()[-1] == "pass=14 fail=0 observational=0 skipped=1"


def independent_set_bound(ideal):
    """The least size of a maximal independent set A of the live graph,
    plus the free variables.  (I : x_A) is generated by variables, and a
    colon by a monomial never lowers sdepth (Rauf, Comm. Algebra 38,
    2010; Cimpoeas, 2012), so sdepth(S/I) is at most this."""
    killed, adj, free = graph_parts(ideal)
    live = live_vertices(adj, ((1 << ideal.n_vars) - 1) & ~killed)
    return (least_maximal_independent_set(induced_adjacency(adj, live))
            + free.bit_count())


def test_search_stays_at_or_below_the_independent_set_bound():
    values = [(stanley_depth(ideal)[0], independent_set_bound(ideal))
              for ideal in random_ideals(4, 300)]
    assert all(value <= bound for value, bound in values)
    assert sum(value == bound for value, bound in values) == 295


def test_independent_set_bound_meets_the_pinned_values_but_two_cycles():
    # the known gaps: C_4 has sdepth 1 against a bound of 2, C_7 has 2
    # against 3; on every other pinned cell the bound is the value
    gaps = {}
    for record in json.loads((Path(__file__).parent / "pinned_sdepth.json")
                             .read_text())["cells"]:
        bound = independent_set_bound(family_ideal(record["cell"]))
        assert record["value"] <= bound, record["cell"]
        if record["value"] != bound:
            gaps[record["cell"]] = (record["value"], bound)
    assert gaps == {"cycle(4)": (1, 2), "cycle(7)": (2, 3)}


# connected, 16 vertices: the colon bound's schedule spent the node budget
# here, and the probe at its least maximal independent set answers
SIXTEEN = [(0, 3), (0, 10), (0, 14), (1, 2), (1, 4), (1, 15), (2, 8), (2, 15),
           (3, 5), (3, 7), (3, 8), (3, 10), (3, 11), (4, 15), (5, 7), (5, 15),
           (6, 10), (6, 15), (7, 9), (7, 14), (8, 12), (8, 14), (9, 10),
           (9, 13), (9, 14), (10, 14), (11, 14)]


def test_the_independent_set_probe_settles_a_graph_past_the_old_budget():
    # the witness proves sdepth >= 4 and a maximal independent set of
    # size 4 proves sdepth <= 4
    ideal = MonomialIdeal.make(16, [1 << a | 1 << b for a, b in SIXTEEN])
    value, witness = stanley_depth(ideal, 20)
    validate_partition(face_poset(ideal, 16), witness)
    assert value == witness.value == 4 == independent_set_bound(ideal)


def test_a_resumed_search_ends_as_an_unbroken_one():
    # stopped every k nodes and resumed, a search makes the same nodes
    # and finds the same cover, or none, as one run without a stop
    for ideal in prune_corpus()[:120]:
        faces = face_poset(reduce_by_compact(ideal)[0])
        for d in range(1, faces[-1].bit_count() + 1):
            whole = _Exact()
            want = _Search(faces, d, whole).run()
            for k in (1, 3):
                parts = _Exact()
                search = _Search(faces, d, parts)
                found = search.run(k)
                while found is None and search.frames:
                    assert parts.nodes % k == 0
                    found = search.run(k)
                assert (found, parts.nodes) == (want, whole.nodes), ideal


# the cells whose search is pinned: the benchmark's sdepth cells at its
# --sdepth-cap 14, the paths 1..16 and the cycles 3..14
PINNED_CELLS = ([(text, 14) for text in WORKLOAD_CELLS]
                + [(f"path({n})", max(14, n)) for n in range(1, 17)]
                + [(f"cycle({n})", 14) for n in range(3, 15)])


def search_record(text, exact_cap):
    """Value, search nodes, ideals solved and witness hash of one cell."""
    solvers = []

    class Counting(sdepth_module._Exact):
        def __init__(self):
            super().__init__()
            self.solved = 0
            solvers.append(self)

        def solve(self, reduced):
            self.solved += 1
            return super().solve(reduced)

    graph = build_extended(parse_family(text))
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(sdepth_module, "_Exact", Counting)
        value, witness = stanley_depth(edge_ideal(graph), exact_cap)
    (solver,) = solvers
    doc = json.dumps(witness.to_json_dict([lab.name for lab in graph.labels]),
                     sort_keys=True)
    return {"cell": text, "exact_cap": exact_cap, "value": value,
            "nodes": solver.nodes, "solved": solver.solved,
            "witness_sha256": sha256(doc.encode()).hexdigest()}


def test_search_matches_its_pinned_nodes_and_witnesses():
    # pins the point where SEARCH_NODE_BUDGET trips and every witness the
    # sdepth command prints
    pinned = json.loads((Path(__file__).parent / "pinned_sdepth.json")
                        .read_text())["cells"]
    assert [search_record(text, cap) for text, cap in PINNED_CELLS] == pinned


def prune_corpus(seed=12, count=500):
    """Seeded ideals on at most 11 variables; the odd ones edge ideals.

    The even ones have generators of degree 1 to 4: _Search takes faces
    alone, so its prune is checked on those too.  Ideals that reduce to
    no variables at all are skipped.
    """
    rng = random.Random(seed)
    out = []
    while len(out) < count:
        nv = rng.randint(2, 11)
        if len(out) % 2:
            gens = [1 << a | 1 << b for a in range(nv)
                    for b in range(a + 1, nv) if rng.random() < 2.5 / nv]
        else:
            gens = []
            for _ in range(rng.randint(1, 2 * nv)):
                deg = min(nv, rng.choice((1, 2, 2, 2, 3, 3, 4, 4)))
                gens.append(sum(1 << v for v in rng.sample(range(nv), deg)))
        ideal = MonomialIdeal.make(nv, gens)
        if reduce_by_compact(ideal)[0].n_vars:
            out.append(ideal)
    return out


def full_scan_table(search):
    """(bit, covers, need) per face below size d, from the faces alone."""
    index = {f: i for i, f in enumerate(search.faces)}
    n_vars = max(search.faces).bit_length()
    table = []
    for i, f in enumerate(search.faces):
        if f.bit_count() < search.d:
            covers = 0
            for v in range(n_vars):
                j = index.get(f | 1 << v)
                if j is not None and j != i:
                    covers |= 1 << j
            table.append((1 << i, covers, search.d - f.bit_count()))
    return table


def full_scan_open(table, step):
    """The full-scan prune the engine's incremental one replaced.

    No uncovered face below size d has fewer uncovered faces one larger
    above it than it needs to reach size d.
    """
    for bit, covers, need in table:
        if not step & bit and (covers & ~step).bit_count() < need:
            return False
    return True


def test_prune_decides_every_node_as_the_full_scan(monkeypatch):
    # every probe size from 1 to the largest face: probes above the value
    # have faces stranded at the root, the colon-seeded probes do not
    decisions = Counter()
    tables = {}
    engine_open = _Search._open

    def compared(search, step, bits):
        ok = engine_open(search, step, bits)
        if search not in tables:
            tables[search] = full_scan_table(search)
        assert ok == full_scan_open(tables[search], step)
        decisions[ok] += 1
        return ok

    monkeypatch.setattr(_Search, "_open", compared)
    # a few probes far above the value would run to the full budget
    monkeypatch.setattr(sdepth_module, "SEARCH_NODE_BUDGET", 20_000)
    rooted = 0
    for ideal in prune_corpus():
        faces = face_poset(reduce_by_compact(ideal)[0])
        for d in range(1, faces[-1].bit_count() + 1):
            search = _Search(faces, d, sdepth_module._Exact())
            rooted += search.stranded != 0
            try:
                search.run()
            except SizeLimitError:
                pass
    assert rooted and decisions[True] and decisions[False]


BIG = 10 ** 6


def colons_on_masks(adj):
    """(graph, free count) of each colon _colon_bound takes, by vertex.

    value_of answers 0 for the k-th colon and BIG for the others, so the
    bound _colon_bound returns is the k-th colon's free count.
    """
    out = []
    for k in range(len(adj)):
        graphs = []

        def value_of(graph):
            graphs.append(graph)
            return 0 if len(graphs) == k + 1 else BIG

        free = _colon_bound(adj, BIG, value_of)
        assert len(graphs) == len(adj)
        out.append((graphs[k], free))
    return out


def test_mask_colon_matches_colon_then_compact():
    corpus = prune_corpus()[1::2]
    assert len(corpus) == 250
    sizes = Counter()
    for ideal in corpus:
        reduced = reduce_by_compact(ideal)[0]
        want = []
        for v in range(reduced.n_vars):
            quotient, _, free = reduce_by_compact(colon_by(reduced, 1 << v))
            want.append((graph_parts(quotient)[1], free))
            sizes[len(want[-1][0]) > 0, free > 1] += 1
        assert colons_on_masks(graph_parts(reduced)[1]) == want, reduced
    # colons with and without live vertices, freeing v alone and more
    assert len(sizes) == 4


def test_one_solver_tells_apart_graphs_with_one_degree_sequence():
    # P3 + P3 and P4 + P2: six vertices and degrees (1,1,1,1,2,2) each,
    # so a memo keyed on less than the graph would give them one value
    p3_p3, p4_p2 = (graph_parts(MonomialIdeal.make(6, gens))[1] for gens in (
        [0b11, 0b110, 0b11000, 0b110000], [0b11, 0b110, 0b1100, 0b110000]))
    solver = _Exact()
    assert solver.value(p3_p3) == 2
    assert solver.value(p4_p2) == 3
