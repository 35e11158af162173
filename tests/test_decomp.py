"""Replay of the colon/add decomposition catalogue."""

import json
import random
from collections import Counter
from pathlib import Path

import pytest

from edgeideals import (FamilySpec, LabeledGraph, build_extended, bristled,
                        edge_ideal, ouroboros, parse_family, replay_family,
                        rules_for, star, tsnake, tsnake_star, tsnake_starstar)
from edgeideals import decompositions
from edgeideals.cli import main
from edgeideals.decompositions import (RULES_BY_ID, expected_outcome,
                                       pivot_mask)
from edgeideals.errors import InvalidParameterError
from edgeideals.families import cycle, family_key, resolve
from edgeideals.graphs import vars_of
from edgeideals.ideals import graph_parts
from oracles import add_variable, colon_by, replay_catalogue

PINNED = json.loads((Path(__file__).parent / "pinned_outcomes.json").read_text())


def failure_text(r):
    bad = "; ".join(f"{f.expected}: {f.detail}" for f in r.factors if not f.matched)
    return (f"{r.rule_id} on {r.spec}: {bad or 'factors match'}; "
            f"free {r.actual_free} of {r.expected_free}, "
            f"accounting_ok={r.accounting_ok}")


def assert_all_ok(reports):
    bad = [r for r in reports if not r.ok]
    assert not bad, "\n".join(failure_text(r) for r in bad)


def replay_rule(rule_id, spec):
    """The report of one rule, picked by its id from replay_family."""
    (report,) = [r for r in replay_family(spec) if r.rule_id == rule_id]
    return report


def test_rule_registry_covers_every_family():
    keys = {r.family for r in RULES_BY_ID.values()}
    assert keys == {"tsnake", "tsnake_star", "tsnake_starstar", "ouroboros",
                    "brs-tsnake", "brs-tsnake_star", "brs-tsnake_starstar",
                    "brs-ouroboros"}
    assert len(RULES_BY_ID) == 20


def test_rules_for_respects_minimum_n():
    assert len(rules_for(ouroboros(3, 1))) == 2
    assert len(rules_for(tsnake(1, 1))) == 2  # snake rules start at n=1
    assert len(rules_for(bristled(1, ouroboros(3, 1)))) == 3


@pytest.mark.parametrize("spec", [
    FamilySpec("tsnake", p=1), bristled(1, FamilySpec("tsnake", p=1)),
], ids=str)
def test_rules_for_a_spec_without_n_is_empty(spec):
    # no n, so no rule's least n is met; the replay refuses it at the build
    assert rules_for(spec) == []
    with pytest.raises(InvalidParameterError, match=r"^tsnake needs n >= 1$"):
        replay_family(spec)


def test_family_key_distinguishes_bristled():
    assert family_key(tsnake(2, 1)) == "tsnake"
    assert family_key(bristled(2, tsnake(2, 1))) == "brs-tsnake"


def test_expected_outcome_accounting_examples():
    # colon by x_n on the plain snake drops to n-3 and frees one variable
    rule = RULES_BY_ID["tsnake:colon-xn"]
    factors, free = expected_outcome(rule, tsnake(4, 2))
    assert [str(f) for f in factors] == ["tsnake_star(n=1,p=2)"]
    assert free == 1
    # add x_n splits off a star
    rule = RULES_BY_ID["tsnake:add-xn"]
    factors, free = expected_outcome(rule, tsnake(4, 2))
    assert sorted(str(f) for f in factors) == ["star(u=2)", "tsnake_star(n=2,p=2)"]
    assert free == 0


def pinned_cell(rid, n, p, q):
    """The rule and parent spec of one row of the pinned rule table."""
    rule = RULES_BY_ID[rid]
    spec = FamilySpec(rule.family.removeprefix("brs-"), n=n, p=p)
    return rule, spec if q is None else bristled(q, spec)


def test_rule_outcomes_and_pivots_match_the_pinned_table():
    # every rule at n = min_n..min_n+3, p = 1..2 and q = 1..2 (None when
    # unbristled): factor specs, freed count and pivot vertex mask
    seen = set()
    for rid, n, p, q, factors, free, mask in PINNED["rules"]:
        rule, spec = pinned_cell(rid, n, p, q)
        got, got_free = expected_outcome(rule, spec)
        assert ([str(f) for f in got], got_free) == (factors, free), (rid, str(spec))
        assert pivot_mask(rule, spec, build_extended(spec)) == mask, (rid, str(spec))
        seen.add((rid, n, p, q))
    assert len(seen) == len(PINNED["rules"])
    assert {r[0] for r in seen} == set(RULES_BY_ID)


def test_single_rule_report_fields():
    report = replay_rule("tsnake:colon-xn", tsnake(3, 1))
    assert report.ok
    doc = report.as_dict()
    assert doc["rule"] == "tsnake:colon-xn"
    assert doc["ok"] is True
    assert doc["factors"][0]["matched"] is True
    assert doc["expected_free"] == doc["actual_free"] == 1
    assert doc["accounting_ok"] is True


def test_replay_snakes_small():
    for n in (1, 2, 3):
        for p in (1, 2):
            assert_all_ok(replay_family(tsnake(n, p)))
            assert_all_ok(replay_family(tsnake_star(n, p)))
            assert_all_ok(replay_family(tsnake_starstar(n, p)))


def test_replay_ouroboros_small():
    for n in (3, 4):
        for p in (1, 2):
            assert_all_ok(replay_family(ouroboros(n, p)))


def test_replay_bristled_small():
    for text in ["brs(q=1,tsnake(n=1,p=1))", "brs(q=2,tsnake(n=2,p=1))",
                 "brs(q=1,tsnake_star(n=1,p=2))",
                 "brs(q=2,tsnake_starstar(n=1,p=1))",
                 "brs(q=1,ouroboros(n=3,p=2))"]:
        assert_all_ok(replay_family(parse_family(text)))


def test_replay_remark_instances():
    # the worked examples: bristled snake at (3,3,3), bristled ouroboros
    # at (4,2,3); both use the end-vertex colon and add rules
    assert_all_ok(replay_family(bristled(3, tsnake(3, 3))))
    for rid in ("brs-ouroboros:colon-xn", "brs-ouroboros:add-xn",
                "brs-ouroboros:colon-brush"):
        report = replay_rule(rid, bristled(3, ouroboros(4, 2)))
        assert report.ok, failure_text(report)


def test_replay_full_catalogue():
    reports = replay_catalogue(max_n=4, max_p=2, max_q=2)
    assert len(reports) > 100
    assert_all_ok(reports)


def test_components_are_local_adjacency_of_the_graph_components():
    # networkx finds the components; each one with an edge, renumbered
    # in vertex order, must be one of the replay's adjacency tuples
    nx = pytest.importorskip("networkx")
    rng = random.Random(31)
    for _ in range(200):
        n = rng.randint(1, 14)
        pairs = [(a, b) for a in range(n) for b in range(a + 1, n)]
        edges = rng.sample(pairs, rng.randint(0, min(len(pairs), 12)))
        oracle = nx.Graph(edges)
        want = []
        for comp in sorted(map(sorted, nx.connected_components(oracle))):
            local = {v: i for i, v in enumerate(comp)}
            want.append(tuple(sum(1 << local[w] for w in oracle[v])
                              for v in comp))
        adj = LabeledGraph.from_edge_list(n, edges).adjacency
        assert decompositions._quotient(adj, 0, "add")[0] == want


# the mask rule of the replay against the ideal route it stands for

def ideal_route(graph, pivot, kind):
    """(components with an edge, killed count, free count) by colon_by or
    add_variable on the edge ideal, read back through graph_parts."""
    ideal = edge_ideal(graph)
    if kind == "colon":
        ideal = colon_by(ideal, pivot)
    else:
        for v in vars_of(pivot):
            ideal = add_variable(ideal, v)
    killed, adj, free = graph_parts(ideal)
    components, seen = [], 0
    for v in range(len(adj)):
        if seen >> v & 1 or not adj[v]:
            continue
        comp, stack = 1 << v, [v]
        while stack:
            for w in vars_of(adj[stack.pop()] & ~comp):
                comp |= 1 << w
                stack.append(w)
        seen |= comp
        order = vars_of(comp)
        components.append(tuple(sum(1 << i for i, w in enumerate(order)
                                    if adj[u] >> w & 1) for u in order))
    return components, killed.bit_count(), free.bit_count()


def assert_quotient_matches(graph, pivot, kind):
    try:
        want = ideal_route(graph, pivot, kind)
    except InvalidParameterError:
        with pytest.raises(InvalidParameterError,
                           match="colon pivot lies in the ideal"):
            decompositions._quotient(graph.adjacency, pivot, kind)
        return False
    assert decompositions._quotient(graph.adjacency, pivot, kind) == want, \
        (graph.edges, bin(pivot), kind)
    return True


def test_quotient_matches_the_ideal_route_on_random_graphs():
    rng = random.Random(22)
    outcomes = Counter()
    for _ in range(600):
        n = rng.randint(1, 12)
        pairs = [(a, b) for a in range(n) for b in range(a + 1, n)]
        edges = rng.sample(pairs, rng.randint(0, len(pairs) // 2))
        graph = LabeledGraph.from_edge_list(n, edges)
        if rng.random() < 0.3:
            kind, pivot = "add", 1 << rng.randrange(n)
        else:
            kind = "colon"
            pivot = sum(1 << v for v in rng.sample(range(n), rng.randint(1, min(n, 4))))
        outcomes[kind, assert_quotient_matches(graph, pivot, kind)] += 1
    # every route is taken often: adds, independent and refused colons
    assert min(outcomes.values()) > 50 and len(outcomes) == 3, outcomes


def test_quotient_matches_the_ideal_route_on_every_pinned_rule():
    for rid, n, p, q, _factors, _free, mask in PINNED["rules"]:
        rule, spec = pinned_cell(rid, n, p, q)
        assert assert_quotient_matches(build_extended(spec), mask, rule.kind)


# the mismatch path: expected_outcome patched to a wrong answer

ADD_XN = "tsnake:add-xn"  # tsnake(4,2) -> tsnake_star(2,2), star(2)


def patch_outcome(monkeypatch, factors, free):
    monkeypatch.setattr(decompositions, "expected_outcome",
                        lambda rule, spec: (factors, free))


def test_wrong_factor_spec_matches_no_component(monkeypatch):
    # a triangle has the star(2)'s three vertices, so the count still adds up
    patch_outcome(monkeypatch, [tsnake_star(2, 2), cycle(3)], 0)
    report = replay_rule(ADD_XN, tsnake(4, 2))
    assert not report.ok
    assert [f.detail for f in report.factors] == [
        "no unused component matches", "no component matches"]
    assert report.accounting_ok


def test_duplicated_factor_matches_no_unused_component(monkeypatch):
    patch_outcome(monkeypatch, [tsnake_star(2, 2), tsnake_star(2, 2)], 0)
    report = replay_rule(ADD_XN, tsnake(4, 2))
    assert not report.ok
    assert [f.detail for f in report.factors] == ["no unused component matches"] * 2
    assert not report.accounting_ok


def test_more_components_than_factors_match_none(monkeypatch):
    # the factor finds its component, but the star(2) is left over
    patch_outcome(monkeypatch, [tsnake_star(2, 2)], 0)
    report = replay_rule(ADD_XN, tsnake(4, 2))
    assert not report.ok
    assert [(f.matched, f.detail) for f in report.factors] == [
        (False, "no unused component matches")]
    assert not report.accounting_ok


def test_wrong_free_count_fails_the_accounting(monkeypatch):
    patch_outcome(monkeypatch, [tsnake_star(2, 2), star(2)], 1)
    report = replay_rule(ADD_XN, tsnake(4, 2))
    assert not report.ok
    assert all(f.matched for f in report.factors)
    assert (report.expected_free, report.actual_free) == (1, 0)
    assert not report.accounting_ok


def nx_graph(nx, adj):
    graph = nx.Graph()
    graph.add_nodes_from(range(len(adj)))
    graph.add_edges_from((a, b) for a, m in enumerate(adj) for b in vars_of(m))
    return graph


def perturbed(rng, factors, free):
    """The outcome with one factor dropped, added, replaced or duplicated,
    or with the free count one off."""
    factors, k = list(factors), rng.randrange(len(factors))
    op = rng.randrange(5)
    if op == 0:
        del factors[k]
    elif op == 1:
        factors.insert(k, rng.choice(FACTOR_POOL))
    elif op == 2:
        factors[k] = rng.choice(FACTOR_POOL)
    elif op == 3:
        factors.insert(k, factors[k])
    else:
        free += rng.choice((-1, 1))
    return factors, free


FACTOR_POOL = [star(1), star(2), cycle(3), tsnake_star(1, 1), tsnake_star(2, 1),
               tsnake_star(-1, 1), tsnake_starstar(-1, 1)]


def test_factors_match_exactly_when_networkx_pairs_them_off(monkeypatch):
    # ok holds exactly when the free count agrees and every graph comes
    # as often among the factors as among the components, up to
    # isomorphism; the factors match exactly when the second holds
    nx = pytest.importorskip("networkx")
    rng = random.Random(28)
    seen = Counter()
    for report in replay_catalogue(max_n=4, max_p=2, max_q=1):
        rule, spec = RULES_BY_ID[report.rule_id], report.spec
        graph = build_extended(spec)
        components, _, free = decompositions._quotient(
            graph.adjacency, pivot_mask(rule, spec, graph), rule.kind)
        found = [nx_graph(nx, c) for c in components]
        for _ in range(4):
            factors, rule_free = perturbed(rng, *expected_outcome(rule, spec))
            patch_outcome(monkeypatch, factors, rule_free)
            got = replay_rule(rule.rule_id, spec)
            parts = [resolve(f) for f in factors]
            expected = [nx_graph(nx, build_extended(s).adjacency)
                        for specs, _ in parts for s in specs]
            paired = all(
                sum(nx.is_isomorphic(g, h) for h in expected)
                == sum(nx.is_isomorphic(g, h) for h in found)
                for g in expected + found)
            free_ok = free == rule_free + sum(loose for _, loose in parts)
            assert [f.matched for f in got.factors] == [paired] * len(expected)
            assert got.ok == (paired and free_ok), failure_text(got)
            seen[paired, free_ok] += 1
    assert len(seen) == 4, seen


def test_decomp_cli_exits_one_on_a_mismatch(monkeypatch, capsys):
    patch_outcome(monkeypatch, [tsnake_star(2, 2), cycle(3)], 0)
    code = main(["decomp", "tsnake(n=4,p=2)", "--format", "text"])
    out = capsys.readouterr().out
    assert code == 1
    assert "[FAIL] tsnake:add-xn pivot x_n" in out
    assert out.endswith("some rules FAILED\n")


@pytest.mark.parametrize("text", [
    "brs(q=2,tsnake_star(n=2,p=2))",  # star(q) twice in one rule
    "brs(q=1,tsnake_starstar(n=1,p=2))",  # star(q) from two factor specs
])
def test_replay_routes_every_check_and_builds_each_spec_once(monkeypatch, text):
    spec = parse_family(text)
    rules, iso_rule, builds = [], [], []
    real_replay = decompositions._replay
    real_iso = decompositions.is_isomorphic
    real_build = decompositions.build_extended

    def replay(rule, s, *args):
        rules.append(rule.rule_id)
        return real_replay(rule, s, *args)

    def iso(g, h):
        iso_rule.append(len(rules) - 1)
        return real_iso(g, h)

    def build(s):
        builds.append(s)
        return real_build(s)

    monkeypatch.setattr(decompositions, "_replay", replay)
    monkeypatch.setattr(decompositions, "is_isomorphic", iso)
    monkeypatch.setattr(decompositions, "build_extended", build)
    reports = replay_family(spec)
    assert_all_ok(reports)
    assert rules == [r.rule_id for r in rules_for(spec)] == [r.rule_id for r in reports]
    per_rule = Counter(iso_rule)
    for i, r in enumerate(reports):
        assert per_rule[i] >= len(r.factors) > 0
    once = Counter(builds)
    assert once[spec] == 1 and star(spec.q) in once
    assert set(once.values()) == {1}
    # no cache outlives the call: a second replay builds everything again
    replay_family(spec)
    assert Counter(builds) == Counter({s: 2 for s in once})


def test_one_replay_reads_the_rule_table_once(monkeypatch):
    # the rules come from rules_for(spec) once; no per-rule recheck
    seen = []
    real = decompositions.rules_for

    def counted(s):
        seen.append(s)
        return real(s)

    monkeypatch.setattr(decompositions, "rules_for", counted)
    spec = bristled(2, ouroboros(4, 1))
    assert_all_ok(replay_family(spec))
    assert seen == [spec]
