"""Family builders, the family-string grammar and count formulas."""

import pytest

import hashlib
import json

from edgeideals import (FamilySpec, LabeledGraph, build_extended, bristled,
                        bristled_star, closed_form, expected_counts, ouroboros,
                        parse_family, replay_family, rules_for, star, tsnake,
                        tsnake_star, tsnake_starstar)
from edgeideals import graphs
from edgeideals.cli import main
from edgeideals.errors import FamilySpecParseError, InvalidParameterError
from edgeideals.families import cycle, path, resolve, validate_spec
from oracles import iso, nx_graph


def counts(g):
    return g.n_vertices, g.n_edges


def test_tsnake_counts_across_grid():
    for n in range(1, 5):
        for p in range(1, 4):
            g = build_extended(tsnake(n, p))
            assert counts(g) == (1 + n + n * p, (2 * p + 1) * n)
            assert counts(g) == expected_counts(tsnake(n, p))


def test_tsnake_star_counts():
    for n in range(1, 4):
        for p in range(1, 3):
            g = build_extended(tsnake_star(n, p))
            assert counts(g) == (1 + n + (n + 1) * p, (2 * p + 1) * n + p)


def test_tsnake_starstar_counts():
    for n in range(1, 4):
        for p in range(1, 3):
            g = build_extended(tsnake_starstar(n, p))
            assert counts(g) == (1 + n + (n + 2) * p, (2 * p + 1) * n + 2 * p)


def test_ouroboros_counts():
    for n in range(3, 6):
        for p in range(1, 4):
            g = build_extended(ouroboros(n, p))
            assert counts(g) == ((p + 1) * n, (2 * p + 1) * n)


def test_bristled_tsnake_counts():
    # formula values, e.g. (n,p,q)=(3,3,3) gives 52 vertices and 60 edges
    for (n, p, q) in [(1, 1, 1), (2, 2, 1), (3, 3, 3)]:
        g = build_extended(bristled(q, tsnake(n, p)))
        v = (1 + q) * (1 + n + n * p)
        e = (2 * p + 1) * n + (1 + n + n * p) * q
        assert counts(g) == (v, e)
    assert counts(build_extended(bristled(3, tsnake(3, 3)))) == (52, 60)


def test_bristled_ouroboros_counts():
    # formula values; (n,p,q)=(4,2,3) gives 48 vertices and 56 edges
    for (n, p, q) in [(3, 1, 1), (4, 2, 3)]:
        g = build_extended(bristled(q, ouroboros(n, p)))
        assert counts(g) == ((q + 1) * (p + 1) * n, n * (q * (p + 1) + 2 * p + 1))
    assert counts(build_extended(bristled(3, ouroboros(4, 2)))) == (48, 56)


def test_star_and_bristled_star():
    g = build_extended(star(4))
    assert counts(g) == (5, 4)
    b = build_extended(bristled_star(4, 2))
    assert counts(b) == (15, 14)
    assert iso(b, build_extended(bristled(2, star(4))))


def test_path_cycle_counts():
    assert counts(build_extended(path(4))) == (4, 3)
    assert counts(build_extended(cycle(5))) == (5, 5)


def test_ouroboros_is_fused_tsnake():
    nx = pytest.importorskip("networkx")
    from edgeideals.graphs import path_vertex
    for n in range(3, 6):
        for p in range(1, 4):
            t = build_extended(tsnake(n, p))
            a = t.index_of(path_vertex(1))
            b = t.index_of(path_vertex(n + 1))
            fused = nx.contracted_nodes(nx_graph(nx, t), a, b, self_loops=False)
            assert nx.is_isomorphic(
                fused, nx_graph(nx, build_extended(ouroboros(n, p))))


def test_tsnake_star_pendants_sit_at_far_end():
    from edgeideals.graphs import path_vertex
    g = build_extended(tsnake_star(2, 2))
    end = g.index_of(path_vertex(3))
    assert g.adjacency[end].bit_count() == 1 + 2 + 2  # one spine edge + p apexes + p pendants


def test_build_extended_star_degenerations():
    assert iso(build_extended(tsnake_star(0, 3)), build_extended(star(3)))
    assert iso(build_extended(tsnake_starstar(0, 2)), build_extended(star(4)))
    assert iso(build_extended(bristled(1, tsnake_starstar(0, 1))),
               build_extended(bristled_star(2, 1)))


@pytest.mark.parametrize("family", [tsnake_star, tsnake_starstar])
def test_expected_counts_match_build_extended_at_n_zero(family):
    for p in (1, 2, 3):
        for spec in [family(0, p)] + [bristled(q, family(0, p)) for q in (1, 2)]:
            assert counts(build_extended(spec)) == expected_counts(spec), spec


def test_resolve_degenerate_indices_at_any_brs_depth():
    assert resolve(tsnake_star(2, 1)) == ([tsnake_star(2, 1)], 0)
    assert resolve(tsnake_star(0, 3)) == ([star(3)], 0)
    assert resolve(tsnake_starstar(0, 2)) == ([star(4)], 0)
    assert resolve(tsnake_star(-1, 2)) == ([], 0)
    assert resolve(tsnake_starstar(-1, 3)) == ([], 3)
    assert resolve(tsnake_starstar(-2, 3)) == ([], 0)
    assert resolve(bristled(2, tsnake_starstar(-1, 3))) == ([star(2)] * 3, 0)
    assert resolve(bristled(1, bristled(2, tsnake_star(0, 1)))) == \
        ([bristled(1, bristled(2, star(1)))], 0)
    assert resolve(bristled(1, bristled(2, tsnake_starstar(-1, 2)))) == \
        ([bristled(1, star(2))] * 2, 0)
    for spec in [tsnake_star(0, 0), tsnake_starstar(-1, 0),
                 bristled(0, tsnake_star(0, 1)),
                 bristled(1, bristled(0, tsnake_starstar(-1, 1)))]:
        with pytest.raises(InvalidParameterError):
            resolve(spec)


def test_build_extended_refuses_negative_indices():
    # no negative index builds, not even a bristled loose variable, which
    # resolve gives as one star
    for spec in [tsnake_star(-1, 1), tsnake_starstar(-1, 1),
                 bristled(1, tsnake_starstar(-1, 1))]:
        with pytest.raises(InvalidParameterError, match="needs n >= 1"):
            build_extended(spec)


def _degenerate_grid():
    """Snake specs over n = -3..1 and p = 0..2, bare and under one or two
    brs with q = 0..2."""
    bare = [family(n, p) for family in (tsnake, tsnake_star, tsnake_starstar,
                                        ouroboros)
            for n in range(-3, 2) for p in range(3)]
    once = [bristled(q, s) for q in range(3) for s in bare]
    return bare + once + [bristled(q, s) for q in range(3) for s in once]


def test_expected_counts_refuses_exactly_what_build_extended_refuses():
    built = 0
    for spec in _degenerate_grid():
        try:
            g = build_extended(spec)
        except InvalidParameterError as exc:
            with pytest.raises(InvalidParameterError) as refused:
                expected_counts(spec)
            assert str(refused.value) == str(exc), spec
        else:
            built += 1
            assert expected_counts(spec) == counts(g), spec
    assert built > 0  # the grid reaches buildable specs, n = 0 and 1 ones


def test_build_family_rejects_degenerations():
    with pytest.raises(InvalidParameterError):
        build_extended(tsnake(0, 1))
    with pytest.raises(InvalidParameterError):
        build_extended(ouroboros(2, 1))
    with pytest.raises(InvalidParameterError):
        build_extended(bristled(0, tsnake(1, 1)))


# Every refusal of a library-built spec, with its message: each kind at
# one below the least value of each parameter and at None, the order of
# the checks when two parameters are bad, an unknown kind, and brs.
REFUSALS = [
    (FamilySpec("path", n=0), "path needs n >= 1"),
    (FamilySpec("path"), "path needs n >= 1"),
    (FamilySpec("cycle", n=2), "cycle needs n >= 3"),
    (FamilySpec("cycle"), "cycle needs n >= 3"),
    (FamilySpec("star", u=0), "star needs u >= 1"),
    (FamilySpec("star"), "star needs u >= 1"),
    (FamilySpec("tsnake", n=0, p=1), "tsnake needs n >= 1"),
    (FamilySpec("tsnake", p=1), "tsnake needs n >= 1"),
    (FamilySpec("tsnake", n=1, p=0), "tsnake needs p >= 1"),
    (FamilySpec("tsnake", n=1), "tsnake needs p >= 1"),
    (FamilySpec("tsnake", n=0, p=0), "tsnake needs n >= 1"),
    (FamilySpec("tsnake_star", n=0, p=1), "tsnake_star needs n >= 1"),
    (FamilySpec("tsnake_star", p=1), "tsnake_star needs n >= 1"),
    (FamilySpec("tsnake_star", n=1, p=0), "tsnake_star needs p >= 1"),
    (FamilySpec("tsnake_star", n=1), "tsnake_star needs p >= 1"),
    (FamilySpec("tsnake_starstar", n=0, p=1), "tsnake_starstar needs n >= 1"),
    (FamilySpec("tsnake_starstar", p=1), "tsnake_starstar needs n >= 1"),
    (FamilySpec("tsnake_starstar", n=1, p=0), "tsnake_starstar needs p >= 1"),
    (FamilySpec("tsnake_starstar", n=1), "tsnake_starstar needs p >= 1"),
    (FamilySpec("ouroboros", n=2, p=1), "ouroboros needs n >= 3"),
    (FamilySpec("ouroboros", p=1), "ouroboros needs n >= 3"),
    (FamilySpec("ouroboros", n=3, p=0), "ouroboros needs p >= 1"),
    (FamilySpec("ouroboros", n=3), "ouroboros needs p >= 1"),
    (FamilySpec("ouroboros", n=2, p=0), "ouroboros needs n >= 3"),
    (FamilySpec("foo"), "unknown family kind 'foo'"),
    (FamilySpec("foo", n=1, p=1), "unknown family kind 'foo'"),
    (FamilySpec("brs", q=0, inner=path(1)), "brs needs q >= 1"),
    (FamilySpec("brs", inner=path(1)), "brs needs q >= 1"),
    (FamilySpec("brs", q=0), "brs needs q >= 1"),
    (FamilySpec("brs", q=1), "brs needs an inner family"),
    (bristled(2, FamilySpec("cycle", n=2)), "cycle needs n >= 3"),
    (bristled_star(0, 1), "bstar needs u >= 1"),
    (bristled_star(1, 0), "bstar needs q >= 1"),
    (bristled_star(0, 0), "bstar needs u >= 1"),
    (bristled(1, FamilySpec("star")), "bstar needs u >= 1"),
    (bristled(1, bristled_star(1, 0)), "bstar needs q >= 1"),
    (bristled(1, bristled(1, FamilySpec("foo"))), "unknown family kind 'foo'"),
]


@pytest.mark.parametrize("spec, message", REFUSALS,
                         ids=[repr(spec) for spec, _ in REFUSALS])
def test_every_family_refusal_keeps_its_message(spec, message):
    with pytest.raises(InvalidParameterError) as refused:
        validate_spec(spec)
    assert str(refused.value) == message
    if spec.kind.startswith("tsnake_star") and spec.n == 0:
        return  # build_extended builds the star this spec stands for
    for refuse in (build_extended, expected_counts):
        with pytest.raises(InvalidParameterError) as refused:
            refuse(spec)
        assert str(refused.value) == message, refuse


@pytest.mark.parametrize("entry", [build_extended, closed_form, rules_for,
                                   replay_family])
def test_brs_without_inner_is_refused_by_every_entry_point(entry):
    with pytest.raises(InvalidParameterError) as refused:
        entry(FamilySpec("brs", q=1))
    assert str(refused.value) == "brs needs an inner family"


def test_parse_round_trip():
    for text in ["tsnake(n=3,p=2)", "brs(q=3,tsnake(n=3,p=3))",
                 "tsnake_star(n=1,p=1)", "ouroboros(n=4,p=2)", "star(u=5)",
                 "brs(q=1,brs(q=2,star(u=1)))"]:
        spec = parse_family(text)
        assert str(spec) == text
        assert parse_family(str(spec)) == spec


def test_parse_accepts_whitespace_and_positional():
    assert parse_family(" tsnake( n = 2 , p = 1 ) ") == tsnake(2, 1)
    assert parse_family("path(4)") == path(4)
    assert str(parse_family("  path ( 4 )  ")) == "path(n=4)"
    assert str(parse_family("brs(tsnake(n=1,p=1),2)")) == "brs(q=2,tsnake(n=1,p=1))"


def test_parse_error_positions():
    with pytest.raises(FamilySpecParseError) as err:
        parse_family("brs(q=3")
    assert err.value.position == 7
    assert "position 7" in str(err.value)
    with pytest.raises(FamilySpecParseError) as err:
        parse_family("tsnake(n=2,p=1) trailing")
    assert err.value.position == 16
    with pytest.raises(FamilySpecParseError) as err:
        parse_family("unknown(n=1)")
    assert err.value.position == 0


def test_parse_rejects_bad_arguments():
    with pytest.raises(FamilySpecParseError):
        parse_family("tsnake(n=2)")
    with pytest.raises(FamilySpecParseError):
        parse_family("tsnake(n=2,p=1,z=9)")
    with pytest.raises(FamilySpecParseError):
        parse_family("star(u=-1)")


def test_expected_counts_match_built_bristled_star_variants():
    for spec in [bristled(2, tsnake_star(2, 1)), bristled(1, tsnake_starstar(1, 2)),
                 bristled(2, ouroboros(3, 1))]:
        assert counts(build_extended(spec)) == expected_counts(spec)


# `gen --format json` output of nested bristlings, taken before bristling
# moved into the family builder: the vertex list, and a SHA-256 of the
# whole document, whose edges record which host each anonymous leaf
# hangs from.  Visiting hosts in insertion order instead of canonical
# order keeps the vertex lists but renumbers the leaves of the second.
PINNED_GEN_JSON = {
    "brs(q=1,brs(q=2,tsnake(n=1,p=1)))": (
        "x1 x2 y11 x11 x12 x13 x21 x22 x23 y111 y112 y113 v0 v1 v2 v3 v4 v5",
        "d935b22485bc5e279c389b86a7f33902dfe90d5ec9148ad1dae39b97b924d531"),
    "brs(q=2,brs(q=1,brs(q=2,tsnake(n=2,p=2))))": (
        "x1 x2 x3 y11 y12 y21 y22 x11 x12 x13 x14 x15 x21 x22 x23 x24 x25 "
        "x31 x32 x33 x34 x35 y111 y112 y113 y114 y115 y121 y122 y123 y124 "
        "y125 y211 y212 y213 y214 y215 y221 y222 y223 y224 y225 "
        + " ".join(f"v{i}" for i in range(84)),
        "4503205c80edd7880015c43955eeff72b4f5f1e600fc52a4b3e122a9954c4584"),
}


@pytest.mark.parametrize("spec", sorted(PINNED_GEN_JSON))
def test_nested_bristle_labels_are_pinned(capsys, spec):
    vertices, digest = PINNED_GEN_JSON[spec]
    assert main(["gen", spec, "--format", "json"]) == 0
    out = capsys.readouterr().out
    assert json.loads(out)["vertices"] == vertices.split()
    assert hashlib.sha256(out.encode()).hexdigest() == digest


@pytest.mark.parametrize("spec", [
    "tsnake(n=2,p=1)", "star(u=3)", "tsnake_star(n=0,p=2)",
    "brs(q=2,ouroboros(n=3,p=1))", "brs(q=1,tsnake_starstar(n=0,p=1))",
    "brs(q=2,brs(q=1,brs(q=2,tsnake(n=2,p=2))))"])
def test_one_labeled_graph_per_build(monkeypatch, spec):
    built = []
    init = LabeledGraph.__init__

    def counting(self, *args):
        built.append(self)
        init(self, *args)

    monkeypatch.setattr(graphs.LabeledGraph, "__init__", counting)
    g = build_extended(parse_family(spec))
    assert built == [g]
