"""Acceptance suite: one test and one printed pass/fail line per criterion.

Every comparison is exact (tolerance 0).  The largest cells are a
14-variable bristled snake and a 16-variable ouroboros.
"""

import random

from edgeideals import (LabeledGraph, betti_table, build_extended,
                        edge_ideal, invariants, parse_family,
                        regularity_by_recursion, stanley_depth, MonomialIdeal)
from oracles import contains, disjoint_union, replay_catalogue
from test_corpus import colon_drops, taylor_mismatches


def _report(num, name, ok, detail=""):
    status = "PASS" if ok else "FAIL"
    tail = f" ({detail})" if detail else ""
    print(f"acceptance {num}: {name}: {status}{tail}")
    assert ok, f"criterion {num} failed {tail}"


def _inv(text):
    return invariants(edge_ideal(build_extended(parse_family(text))))


def snake_reg_cells():
    return [(n, p) for n in range(1, 5) for p in range(1, 4)
            if 1 + n + n * p <= 13]


def star_snake_reg_cells():
    return [(n, p) for n in range(1, 5) for p in range(1, 3)
            if 1 + n + (n + 1) * p <= 14]


BRS_SNAKE_CELLS = [(1, 1, 1), (1, 2, 1), (2, 1, 1), (1, 1, 2)]
BRS_STAR_SNAKE_CELLS = [(1, 1, 1), (2, 1, 1)]


def test_criterion_01_snake_regularity_grid():
    cells = snake_reg_cells()
    bad = [c for c in cells
           if _inv(f"tsnake(n={c[0]},p={c[1]})").regularity != (c[0] + 2) // 2]
    _report("01", "triangular snake regularity grid", not bad,
            f"{len(cells)} cells" if not bad else f"failed cells {bad}")


def test_criterion_02_star_snake_regularity_grid():
    cells = star_snake_reg_cells()
    bad = [c for c in cells
           if _inv(f"tsnake_star(n={c[0]},p={c[1]})").regularity != (c[0] + 2) // 2]
    _report("02", "end-starred snake regularity grid", not bad,
            f"{len(cells)} cells" if not bad else f"failed cells {bad}")


def _check_bristled_snake_cell(n, p, q):
    inv = _inv(f"brs(q={q},tsnake(n={n},p={p}))")
    want = ((p + q) * n + q, n * p, (1 + p * q) * n + 1)
    got = (inv.depth, inv.regularity, inv.projective_dimension)
    return want == got, want, got


def test_criterion_03_bristled_snake_invariants():
    bad = []
    for (n, p, q) in BRS_SNAKE_CELLS:
        ok, want, got = _check_bristled_snake_cell(n, p, q)
        if not ok:
            bad.append(((n, p, q), want, got))
    _report("03", "bristled snake depth/reg/pdim", not bad,
            f"{len(BRS_SNAKE_CELLS)} cells" if not bad else str(bad))


def test_criterion_03_slow_cell():
    ok, want, got = _check_bristled_snake_cell(2, 2, 1)
    _report("03-slow", "bristled snake 14-variable cell", ok,
            "cell (2,2,1)" if ok else f"want {want} got {got}")


def test_criterion_04_bristled_star_snake_invariants():
    bad = []
    for (n, p, q) in BRS_STAR_SNAKE_CELLS:
        inv = _inv(f"brs(q={q},tsnake_star(n={n},p={p}))")
        want = ((p + q) * (n + 1), (n + 1) * p, (1 + p * q) * (n + 1))
        got = (inv.depth, inv.regularity, inv.projective_dimension)
        if want != got:
            bad.append(((n, p, q), want, got))
    _report("04", "bristled end-starred snake depth/reg/pdim", not bad,
            f"{len(BRS_STAR_SNAKE_CELLS)} cells" if not bad else str(bad))


def test_criterion_05_ouroboros_regularity():
    got = _inv("ouroboros(n=3,p=3)").regularity
    _report("05", "ouroboros regularity cell (3,3)", got == 1,
            f"reg {got}, want 1" if got != 1 else "12 variables")


def test_criterion_05_slow_cell():
    got = _inv("ouroboros(n=4,p=3)").regularity
    _report("05-slow", "ouroboros 16-variable cell (4,3)", got == 2,
            f"reg {got}, want 2" if got != 2 else "16 variables")


def test_criterion_06_doubly_starred_cells():
    checks = [
        ("brs(q=1,ouroboros(n=3,p=1))", (6, 3, 6)),
        ("brs(q=1,tsnake_starstar(n=0,p=1))", (3, 2, 3)),
        ("brs(q=1,tsnake_starstar(n=1,p=1))", (5, 3, 5)),
    ]
    bad = []
    for text, want in checks:
        inv = _inv(text)
        got = (inv.depth, inv.regularity, inv.projective_dimension)
        if got != want:
            bad.append((text, want, got))
    _report("06", "bristled ouroboros and double-star cells", not bad,
            f"{len(checks)} cells" if not bad else str(bad))


def test_criterion_07_stanley_depth_suite():
    cases = [(f"star(u={u})", 1) for u in range(1, 7)]
    cases += [("bstar(u=1,q=1)", 2), ("bstar(u=2,q=1)", 3), ("bstar(u=1,q=2)", 3),
              ("brs(q=1,tsnake(n=1,p=1))", 3)]
    bad = []
    for text, want in cases:
        ideal = edge_ideal(build_extended(parse_family(text)))
        value, _ = stanley_depth(ideal)
        depth = invariants(ideal).depth
        if value != want or value != depth:
            bad.append((text, want, value, depth))
    _report("07", "exact Stanley depth equals stated value and depth",
            not bad, f"{len(cases)} cells" if not bad else str(bad))


def test_criterion_08_oracle_equivalence():
    checked, mismatches = taylor_mismatches(2)
    _report("08", "homology scan equals resolution oracle", not mismatches,
            f"{checked} graphs of the corpus, {len(mismatches)} mismatches")


def test_criterion_09_decomposition_replay():
    reports = replay_catalogue(max_n=4, max_p=2, max_q=2)
    bad = [r for r in reports if not r.ok]
    _report("09", "decomposition rule replay", not bad,
            f"{len(reports)} rule instances" if not bad
            else "; ".join(f"{r.rule_id} on {r.spec}" for r in bad))


def test_criterion_10_property_suites():
    rng = random.Random(20240820)
    violations = []

    def random_ideal(max_v, max_e):
        nv = rng.randint(2, max_v)
        possible = [(i, j) for i in range(nv) for j in range(i + 1, nv)]
        ne = rng.randint(1, min(max_e, len(possible)))
        return edge_ideal(LabeledGraph.from_edge_list(nv, rng.sample(possible, ne)))

    colons, drops = colon_drops()
    violations += drops

    for _ in range(15):
        a, b = random_ideal(5, 6), random_ideal(5, 6)
        ga = LabeledGraph.from_edge_list(a.n_vars, [(i, j) for i in range(a.n_vars)
                                                    for j in range(i + 1, a.n_vars)
                                                    if contains(a, (1 << i) | (1 << j))])
        gb = LabeledGraph.from_edge_list(b.n_vars, [(i, j) for i in range(b.n_vars)
                                                    for j in range(i + 1, b.n_vars)
                                                    if contains(b, (1 << i) | (1 << j))])
        union = edge_ideal(disjoint_union(ga, gb))
        if invariants(union).regularity != (invariants(a).regularity
                                            + invariants(b).regularity):
            violations.append(("reg additivity", a.gens, b.gens))

    for _ in range(15):
        ideal = random_ideal(5, 6)
        s = rng.randint(1, 3)
        widened = MonomialIdeal.make(ideal.n_vars + s, ideal.gens)
        a, b = invariants(ideal), invariants(widened)
        if (b.regularity, b.depth) != (a.regularity, a.depth + s):
            violations.append(("free shift", ideal.gens, s))
        if stanley_depth(widened)[0] != stanley_depth(ideal)[0] + s:
            violations.append(("free shift sdepth", ideal.gens, s))

    grid = [f"tsnake(n={n},p={p})" for (n, p) in snake_reg_cells()]
    grid += [f"tsnake_star(n={n},p={p})" for (n, p) in star_snake_reg_cells()]
    grid += [f"brs(q={q},tsnake(n={n},p={p}))" for (n, p, q) in BRS_SNAKE_CELLS]
    grid += [f"brs(q={q},tsnake_star(n={n},p={p}))" for (n, p, q) in BRS_STAR_SNAKE_CELLS]
    grid += ["ouroboros(n=3,p=3)", "brs(q=1,ouroboros(n=3,p=1))",
             "brs(q=1,tsnake_starstar(n=0,p=1))", "brs(q=1,tsnake_starstar(n=1,p=1))"]
    for text in grid:
        ideal = edge_ideal(build_extended(parse_family(text)))
        if betti_table(ideal, characteristic=2).as_dict() != \
                betti_table(ideal, characteristic=3).as_dict():
            violations.append(("field agreement", text))

    _report("10", "monotonicity/additivity/shift/field properties",
            not violations, f"{colons} colons, {len(grid)} grid cells, 0 violations"
            if not violations else str(violations[:3]))


def test_criterion_11_recursion_cross_check():
    grid = [f"tsnake(n={n},p={p})" for (n, p) in snake_reg_cells()]
    grid += [f"tsnake_star(n={n},p={p})" for (n, p) in star_snake_reg_cells()]
    grid += [f"brs(q={q},tsnake(n={n},p={p}))" for (n, p, q) in BRS_SNAKE_CELLS]
    grid += [f"brs(q={q},tsnake_star(n={n},p={p}))" for (n, p, q) in BRS_STAR_SNAKE_CELLS]
    grid += ["ouroboros(n=3,p=3)", "brs(q=1,ouroboros(n=3,p=1))",
             "brs(q=1,tsnake_starstar(n=0,p=1))", "brs(q=1,tsnake_starstar(n=1,p=1))"]
    bad = []
    for text in grid:
        ideal = edge_ideal(build_extended(parse_family(text)))
        iv = regularity_by_recursion(ideal)
        want = invariants(ideal).regularity
        if not (iv.is_point and iv.value == want):
            bad.append((text, (iv.lo, iv.hi), want))
    _report("11", "pivot recursion equals homology regularity", not bad,
            f"{len(grid)} cells" if not bad else str(bad))


def test_criterion_11_slow_cells():
    bad = []
    for text in ["brs(q=1,tsnake(n=2,p=2))", "ouroboros(n=4,p=3)"]:
        ideal = edge_ideal(build_extended(parse_family(text)))
        iv = regularity_by_recursion(ideal)
        want = invariants(ideal).regularity
        if not (iv.is_point and iv.value == want):
            bad.append((text, (iv.lo, iv.hi), want))
    _report("11-slow", "pivot recursion on the slow cells", not bad,
            "2 cells" if not bad else str(bad))
