"""Colon and add decompositions used in the family induction arguments.

Every catalogued rule says: take the edge ideal of a family member,
colon out (or add) a pivot monomial, strip killed and free variables,
and the leftover graph splits into components isomorphic to smaller
family members.  Each row of _RULES is filed under a family key of
families.family_key, the key of that family's claim row in
verify.CLAIMS; it carries its own outcome, the expected factors and the
expected number of freed variables, and names its pivot by a key of
_PIVOTS.  A rule reads the parent's (n, p, q) through
families.spec_params.  replay_family replays every rule of a spec
mechanically and reports per-factor isomorphism results: each expected
factor takes the first unused isomorphic component, which finds a
one-to-one match exactly when one exists, as isomorphism is an
equivalence relation.

The replay stays on the parent graph's adjacency masks.  For an
independent pivot set P, (I(G) : x_P) = I(G - N[P]) + (x_w : w in N(P)),
and (I(G), x_v) = I(G - v) + (x_v): a colon kills N(P), an add kills
its pivot, and the vertices left with no neighbour outside the killed
ones are free.

Factor indices can drop to 0 or below; families.resolve turns those
degenerate members into stars, bristled stars, loose variables, or
nothing at all.
"""

from __future__ import annotations

from collections.abc import Callable
from typing import NamedTuple

from .errors import InvalidParameterError
from .families import (FamilySpec, build_extended, bristled, family_key,
                       resolve, spec_params, star, tsnake_star, tsnake_starstar)
from .graphs import (LabeledGraph, apex, component_masks, induced_adjacency,
                     is_isomorphic, live_vertices, mask_of, path_bristle,
                     path_vertex, vars_of)


class DecompositionRule(NamedTuple):
    rule_id: str
    family: str  # "tsnake", "brs-tsnake-star", ...
    kind: str  # "colon" or "add"
    pivot_desc: str  # a key of _PIVOTS
    # the parent's (n, p, q), q None when unbristled -> (expected factor
    # specs, expected count of freed variables)
    outcome: Callable[[int, int, int | None], tuple[list[FamilySpec], int]]
    min_n: int = 1


_RULES = [
    DecompositionRule("tsnake:colon-xn", "tsnake", "colon", "x_n",
                      lambda n, p, q: ([tsnake_star(n - 3, p)], 1)),
    DecompositionRule("tsnake:add-xn", "tsnake", "add", "x_n",
                      lambda n, p, q: ([tsnake_star(n - 2, p), star(p)], 0)),
    DecompositionRule("tsnake-star:colon-xn", "tsnake_star", "colon", "x_n",
                      lambda n, p, q: ([tsnake_star(n - 3, p)], 1 + p)),
    DecompositionRule("tsnake-star:add-xn", "tsnake_star", "add", "x_n",
                      lambda n, p, q: ([tsnake_star(n - 2, p), star(2 * p)], 0)),
    DecompositionRule("tsnake-starstar:colon-xn", "tsnake_starstar", "colon",
                      "x_n", lambda n, p, q: ([tsnake_starstar(n - 3, p)], 1 + p)),
    DecompositionRule("tsnake-starstar:add-xn", "tsnake_starstar", "add", "x_n",
                      lambda n, p, q: ([tsnake_starstar(n - 2, p), star(2 * p)], 0)),
    DecompositionRule("ouroboros:colon-xn", "ouroboros", "colon", "x_n",
                      lambda n, p, q: ([tsnake_starstar(n - 4, p)], 1), 3),
    DecompositionRule("ouroboros:add-xn", "ouroboros", "add", "x_n",
                      lambda n, p, q: ([tsnake_starstar(n - 2, p)], 0), 3),
    DecompositionRule("brs-tsnake:colon-end", "brs-tsnake", "colon", "x_{n+1}",
                      lambda n, p, q: ([bristled(q, tsnake_star(n - 2, p))],
                                       1 + q + p * q)),
    DecompositionRule("brs-tsnake:add-end", "brs-tsnake", "add", "x_{n+1}",
                      lambda n, p, q: ([bristled(q, tsnake_star(n - 1, p))], q)),
    DecompositionRule("brs-tsnake:colon-brush", "brs-tsnake", "colon",
                      "x_{(n+1)1}..x_{(n+1)q}",
                      lambda n, p, q: ([bristled(q, tsnake_star(n - 1, p))], q)),
    DecompositionRule("brs-tsnake-star:colon-end", "brs-tsnake_star", "colon",
                      "x_{n+1}",
                      lambda n, p, q: ([bristled(q, tsnake_star(n - 2, p))],
                                       1 + q + 2 * p * q)),
    DecompositionRule("brs-tsnake-star:add-end", "brs-tsnake_star", "add",
                      "x_{n+1}",
                      lambda n, p, q: ([bristled(q, tsnake_star(n - 1, p))]
                                       + [star(q)] * p, q)),
    DecompositionRule("brs-tsnake-star:colon-row", "brs-tsnake_star", "colon",
                      "y_{(n+1)1}..y_{(n+1)p}",
                      lambda n, p, q: ([bristled(q, tsnake_star(n - 1, p))],
                                       q + p)),
    DecompositionRule("brs-tsnake-starstar:colon-end", "brs-tsnake_starstar",
                      "colon", "x_{n+1}",
                      lambda n, p, q: ([bristled(q, tsnake_starstar(n - 2, p))],
                                       1 + q + 2 * p * q)),
    DecompositionRule("brs-tsnake-starstar:add-end", "brs-tsnake_starstar",
                      "add", "x_{n+1}",
                      lambda n, p, q: ([bristled(q, tsnake_starstar(n - 1, p))]
                                       + [star(q)] * p, q)),
    DecompositionRule("brs-tsnake-starstar:colon-row", "brs-tsnake_starstar",
                      "colon", "y_{(n+1)1}..y_{(n+1)p}",
                      lambda n, p, q: ([bristled(q, tsnake_starstar(n - 1, p))],
                                       q + p)),
    DecompositionRule("brs-ouroboros:colon-xn", "brs-ouroboros", "colon", "x_n",
                      lambda n, p, q: ([bristled(q, tsnake_starstar(n - 4, p))],
                                       1 + 2 * q + 2 * p * q), 3),
    DecompositionRule("brs-ouroboros:add-xn", "brs-ouroboros", "add", "x_n",
                      lambda n, p, q: ([bristled(q, tsnake_starstar(n - 2, p))],
                                       q), 3),
    DecompositionRule("brs-ouroboros:colon-brush", "brs-ouroboros", "colon",
                      "x_{n1}..x_{nq}",
                      lambda n, p, q: ([bristled(q, tsnake_starstar(n - 2, p))],
                                       q), 3),
]

# The pivot vertices that each pivot_desc names, from the parent's (n, p, q).
_PIVOTS = {
    "x_n": lambda n, p, q: [path_vertex(n)],
    "x_{n+1}": lambda n, p, q: [path_vertex(n + 1)],
    "y_{(n+1)1}..y_{(n+1)p}": lambda n, p, q: [apex(n + 1, k)
                                               for k in range(1, p + 1)],
    # bristle brushes: the q leaves hanging off one spine vertex
    "x_{(n+1)1}..x_{(n+1)q}": lambda n, p, q: [path_bristle(n + 1, t)
                                               for t in range(1, q + 1)],
    "x_{n1}..x_{nq}": lambda n, p, q: [path_bristle(n, t)
                                       for t in range(1, q + 1)],
}

RULES_BY_ID = {r.rule_id: r for r in _RULES}


def rules_for(spec: FamilySpec) -> list[DecompositionRule]:
    """The rules filed under spec's family key whose least n spec meets;
    [] when spec lacks an n."""
    key = family_key(spec)
    rules = [r for r in _RULES if r.family == key]
    n = spec_params(spec)[0] if rules else None
    return [r for r in rules if n is not None and n >= r.min_n]


def _params(spec: FamilySpec) -> tuple[int, int, int | None]:
    """(n, p, q) of a snake-family spec; q is None when unbristled."""
    return (*spec_params(spec), None)[:3]


def pivot_mask(rule: DecompositionRule, spec: FamilySpec,
               graph: LabeledGraph) -> int:
    return mask_of(graph.index_of(label)
                   for label in _PIVOTS[rule.pivot_desc](*_params(spec)))


def expected_outcome(rule: DecompositionRule,
                     spec: FamilySpec) -> tuple[list[FamilySpec], int]:
    """(expected factor specs, expected count of freed variables).

    Factor specs may carry n <= 0; families.resolve turns those into
    concrete graphs or loose variables.
    """
    return rule.outcome(*_params(spec))


class FactorReport(NamedTuple):
    expected: str
    matched: bool
    detail: str = ""


class DecompositionReport(NamedTuple):
    rule_id: str
    spec: FamilySpec
    pivot: str
    ok: bool
    factors: tuple[FactorReport, ...]
    expected_free: int
    actual_free: int
    killed: int
    accounting_ok: bool

    def as_dict(self) -> dict:
        return {
            "rule": self.rule_id, "family": str(self.spec),
            "pivot": self.pivot, "ok": self.ok,
            "factors": [{"expected": f.expected, "matched": f.matched,
                         "detail": f.detail} for f in self.factors],
            "expected_free": self.expected_free,
            "actual_free": self.actual_free, "killed": self.killed,
            "accounting_ok": self.accounting_ok,
        }


def _quotient(adj: tuple[int, ...], pivot: int,
              kind: str) -> tuple[list[tuple[int, ...]], int, int]:
    """(components with an edge, killed count, free count) of the edge
    ideal of adj after a colon by, or an add of, the pivot mask.

    The components come as local adjacency masks, lowest vertex first.
    A colon pivot that is not independent lies in the ideal, so the
    quotient is the unit ideal: that raises InvalidParameterError.
    """
    if kind == "colon":
        killed = 0
        for v in vars_of(pivot):
            killed |= adj[v]
        if killed & pivot:
            raise InvalidParameterError(
                "colon pivot lies in the ideal; quotient is the unit ideal")
    else:
        killed = pivot
    live = live_vertices(adj, ((1 << len(adj)) - 1) & ~killed)
    components = [induced_adjacency(adj, comp)
                  for comp in component_masks(adj, live)]
    return (components, killed.bit_count(),
            len(adj) - killed.bit_count() - live.bit_count())


def _replay(rule: DecompositionRule, spec: FamilySpec, graph: LabeledGraph,
            built: dict[FamilySpec, tuple[int, ...]]) -> DecompositionReport:
    """Replay a rule of rules_for(spec) on spec's graph; built maps each
    factor spec built so far to its adjacency, and gains this rule's."""
    pivot = pivot_mask(rule, spec, graph)
    components, killed, actual_free = _quotient(graph.adjacency, pivot,
                                                rule.kind)
    factor_specs, rule_free = expected_outcome(rule, spec)
    expected_graphs: list[tuple[int, ...]] = []
    names: list[str] = []
    expected_free = rule_free
    for fs in factor_specs:
        specs, extra = resolve(fs)
        for s in specs:
            if s not in built:
                built[s] = build_extended(s).adjacency
        expected_graphs.extend(built[s] for s in specs)
        names.extend([str(fs)] * len(specs))
        expected_free += extra
    # first fit, exact since isomorphism is an equivalence relation
    unused = list(components)
    matched = False
    for g in expected_graphs:
        j = next((j for j, c in enumerate(unused) if is_isomorphic(g, c)), None)
        if j is None:
            break
        del unused[j]
    else:
        matched = not unused
    reports = []
    for name, g in zip(names, expected_graphs):
        detail = ""
        if not matched:
            hit = any(is_isomorphic(g, c) for c in components)
            detail = "no unused component matches" if hit else "no component matches"
        reports.append(FactorReport(name, matched, detail))
    accounting = (sum(len(g) for g in expected_graphs)
                  + expected_free + killed == graph.n_vertices)
    ok = matched and actual_free == expected_free and accounting
    return DecompositionReport(
        rule.rule_id, spec, rule.pivot_desc, ok, tuple(reports),
        expected_free, actual_free, killed, accounting)


def replay_family(spec: FamilySpec, graph: LabeledGraph | None = None
                  ) -> list[DecompositionReport]:
    """Replay every catalogued rule of spec; [] when it has none.

    graph is build_extended(spec), passed by a caller that already holds
    it.  Without it the parent graph is built, even when no rule
    applies, so an invalid spec raises.  Each factor spec is built once
    per call, so every call starts cold.
    """
    rules = rules_for(spec)
    if graph is None:
        graph = build_extended(spec)
    built: dict[FamilySpec, tuple[int, ...]] = {}
    return [_replay(rule, spec, graph, built) for rule in rules]

