"""Claim registry and verification reports."""

import json
from pathlib import Path

import pytest

from edgeideals import (CLAIMS, BettiTable, RegInterval, RunConfig,
                        betti_table, build_extended, edge_ideal, replay_family,
                        run_claims)
from edgeideals import decompositions, recursion, verify
from edgeideals.cli import main
from edgeideals.decompositions import RULES_BY_ID
from edgeideals.errors import (DEFAULT_HOCHSTER_CAP, InvalidParameterError,
                               SizeLimitError)
from edgeideals.families import (expected_counts, family_key, spec_of,
                                 spec_params)
from edgeideals.gf import MILLER_RABIN_LIMIT


def test_claim_registry_names():
    assert set(CLAIMS) == {"star", "bstar", "tsnake-reg", "tsnake-star-reg",
                           "tsnake-starstar-reg", "ouroboros-reg",
                           "brs-tsnake", "brs-tsnake-star",
                           "brs-tsnake-starstar", "brs-ouroboros"}


def test_star_claim_passes():
    report = run_claims(["star"], RunConfig())
    assert report.ok
    assert report.summary()["fail"] == 0
    assert all(row.claim == "star" for row in report.rows)


def test_ouroboros_observational_rows_do_not_fail():
    report = run_claims(["ouroboros-reg"], RunConfig())
    assert report.ok
    statuses = {(row.params, row.invariant): row.status for row in report.rows}
    assert statuses[((("n", 3), ("p", 3)), "reg")] == "pass"
    assert statuses[((("n", 3), ("p", 1)), "reg")] == "observational"


def test_sdepth_rows_skip_over_cap():
    report = run_claims(["brs-ouroboros"], RunConfig())
    rows = [r for r in report.rows if r.invariant == "sdepth"]
    assert rows and all(r.status == "skipped" for r in rows)
    assert report.ok
    lifted = run_claims(["brs-ouroboros"], RunConfig(sdepth_cap=12))
    rows = [r for r in lifted.rows if r.invariant == "sdepth"]
    assert rows and all(r.status == "pass" for r in rows)


def test_rows_over_the_hochster_cap_skip_as_pinned():
    # the Betti engine refuses cells over the cap and run_cell turns the
    # refusal into one skipped row per predicted invariant
    report = run_claims(["tsnake-reg", "brs-tsnake"], RunConfig(hochster_cap=8))
    pinned = (Path(__file__).parent / "pinned_skip_report.json").read_text()
    assert report.as_json() == pinned
    assert report.summary()["skipped"] == 13


def test_a_cell_over_the_cap_skips_before_its_build(monkeypatch):
    def refuse(spec):
        raise AssertionError(f"built {spec}")

    monkeypatch.setattr(verify, "build_extended", refuse)
    report = run_claims(["tsnake-reg"], RunConfig(), {"n": [100000], "p": [1]})
    assert [(r.invariant, r.computed, r.predicted, r.status)
            for r in report.rows] == [("reg", None, 50001, "skipped")]


def test_grid_override():
    report = run_claims(["tsnake-reg"], RunConfig(),
                        grid_override={"n": [1, 2], "p": [1]})
    cells = {row.params for row in report.rows}
    assert cells == {(("n", 1), ("p", 1)), (("n", 2), ("p", 1))}
    assert report.ok


@pytest.mark.parametrize("claim_ids, override, message", [
    (["nope"], None, "unknown claim 'nope'; known: brs-ouroboros, "),
    (["star", "nope"], {"u": [1]}, "unknown claim 'nope'; known: "),
    (["tsnake-reg"], {"u": [9]},
     "claim 'tsnake-reg' has no parameter u; its parameters are n, p"),
    (["bstar"], {"n": [1], "u": [1]},
     "claim 'bstar' has no parameter n; its parameters are u, q"),
    (["tsnake-reg", "ouroboros-reg"], {"q": [1]},
     "claims 'tsnake-reg', 'ouroboros-reg' have no parameter q; "
     "their parameters are n, p"),
], ids=["unknown", "unknown-second", "lacking-u", "lacking-n", "lacking-q-in-all"])
def test_run_claims_refuses_an_unknown_claim_or_axis(claim_ids, override, message):
    with pytest.raises(InvalidParameterError) as exc:
        run_claims(claim_ids, RunConfig(), override)
    assert str(exc.value).startswith(message)


def test_cross_field_rows():
    report = run_claims(["star"], RunConfig(cross_field=True),
                        grid_override={"u": [2]})
    kinds = {row.invariant for row in report.rows}
    assert "field-agree" in kinds
    assert report.ok


def test_every_default_cell_has_one_betti_table_over_three_fields():
    # the split engine makes no rank call on these cells, so the field
    # cannot enter: the full table agrees at GF(2), GF(3) and a prime
    # above 2^40 on every default cell under the Betti cap
    cells = 0
    for claim in CLAIMS.values():
        for cell in claim.default_cells:
            spec = spec_of(claim.family, dict(zip(claim.param_names, cell)))
            if expected_counts(spec)[0] > DEFAULT_HOCHSTER_CAP:
                continue
            ideal = edge_ideal(build_extended(spec))
            tables = [betti_table(ideal, p).as_dict()
                      for p in (2, 3, 1099511627791)]
            assert tables[1] == tables[0] == tables[2], spec
            cells += 1
    assert cells == 46


def test_json_report_shape_and_determinism():
    config = RunConfig()
    a = run_claims(["bstar"], config).as_json()
    b = run_claims(["bstar"], config).as_json()
    assert a == b
    doc = json.loads(a)
    assert doc["schema_version"] == 2
    assert set(doc["config"]) == {"characteristic", "cross_field",
                                  "hochster_cap", "sdepth_cap"}
    assert list(RunConfig.__slots__) == [
        "characteristic", "cross_field", "hochster_cap", "sdepth_cap",
        "include_durations"]
    assert "durations" not in doc
    assert {"cells", "config", "ok", "schema_version", "summary"} <= set(doc)


def test_durations_opt_in():
    doc = json.loads(run_claims(["bstar"], RunConfig(include_durations=True)).as_json())
    assert "durations" in doc
    assert set(doc["durations"]) == {"bstar"}


def test_csv_and_text_renderings():
    report = run_claims(["star"], RunConfig(), grid_override={"u": [1]})
    csv_text = report.as_csv()
    assert csv_text.splitlines()[0] == "claim,family,params,invariant,computed,predicted,status"
    assert "star(u=1)" in csv_text
    text = report.as_text()
    assert "pass=" in text.splitlines()[-1]


def test_rows_sorted_for_stable_output():
    report = run_claims(["tsnake-reg", "star"], RunConfig(),
                        grid_override=None)
    keys = [(r.claim, r.params, r.invariant) for r in report.rows]
    assert keys == sorted(keys)


def test_run_cell_builds_its_graph_once(monkeypatch):
    # the replay reuses the graph run_cell built; only factors are new
    built = []

    def counting(spec):
        built.append(spec)
        return build_extended(spec)

    for claim in CLAIMS.values():
        for cell in claim.default_cells:
            spec = spec_of(claim.family, dict(zip(claim.param_names, cell)))
            want = [(f"decomp:{r.rule_id}", "ok" if r.ok else "mismatch")
                    for r in replay_family(spec)]
            with monkeypatch.context() as m:
                m.setattr(verify, "build_extended", counting)
                m.setattr(decompositions, "build_extended", counting)
                built.clear()
                rows = verify.run_cell(claim, cell, RunConfig())
            assert built.count(spec) == 1, spec
            got = [(r.invariant, r.computed) for r in rows
                   if r.invariant.startswith("decomp:")]
            assert got == want, spec


def test_run_cell_takes_one_edge_ideal(monkeypatch):
    # the engines share the one ideal run_cell takes; the replay needs none
    taken = []

    def counting(graph):
        taken.append(graph)
        return edge_ideal(graph)

    monkeypatch.setattr(verify, "edge_ideal", counting)
    replayed = 0
    for claim in CLAIMS.values():
        for cell in claim.default_cells:
            taken.clear()
            rows = verify.run_cell(claim, cell, RunConfig())
            replayed += any(r.invariant.startswith("decomp:") for r in rows)
            assert len(taken) == 1, (claim.claim_id, cell)
    assert replayed > 20


def test_replay_family_takes_the_parent_graph():
    spec = spec_of("tsnake", {"n": 2, "p": 1})
    assert replay_family(spec, build_extended(spec)) == replay_family(spec)


def test_run_claims_runs_each_claim_once():
    config = RunConfig(include_durations=True)
    once = run_claims(["star"], config, {"u": [1]})
    twice = run_claims(["star", "star"], config, {"u": [1]})
    assert len(once.rows) == 5
    assert twice.rows == once.rows
    assert list(twice.durations) == ["star"]
    both = run_claims(["bstar", "star", "bstar"], config, {"u": [1]})
    assert list(both.durations) == ["bstar", "star"]


def test_every_rule_family_has_a_claim_row():
    claimed = {claim.family for claim in CLAIMS.values()}
    assert sorted({r.family for r in RULES_BY_ID.values()} - claimed) == []


def test_claim_rows_build_their_own_family_and_round_trip():
    for claim in CLAIMS.values():
        for cell in claim.default_cells:
            spec = spec_of(claim.family, dict(zip(claim.param_names, cell)))
            assert family_key(spec) == claim.family, (claim.claim_id, cell)
            assert spec_params(spec) == cell, (claim.claim_id, cell)


@pytest.mark.parametrize("cap", ["hochster_cap", "sdepth_cap"])
def test_run_config_refuses_a_negative_cap(cap):
    # a negative cap would skip every row it guards and still report ok
    with pytest.raises(ValueError, match=cap):
        RunConfig(**{cap: -1})
    assert getattr(RunConfig(**{cap: 0}), cap) == 0


def test_run_config_refuses_a_bad_field(capsys):
    # checked once per run: tsnake(n=0,p=1) is a refused build, so no
    # cell of this grid reaches the Betti engine
    with pytest.raises(InvalidParameterError,
                       match="characteristic 4 is not prime"):
        RunConfig(characteristic=4)
    with pytest.raises(SizeLimitError) as info:
        RunConfig(characteristic=MILLER_RABIN_LIMIT)
    assert info.value.limit == "primality_bound"
    for claim in ["tsnake-reg", "no-such-claim"]:
        argv = ["verify", claim, "--n", "0", "--p", "1", "--field", "4"]
        assert main(argv) == 2
        assert capsys.readouterr() == ("", "error: characteristic 4 is not prime\n")


# verify can fail: a broken closed form or a disagreeing route.  The
# stated cell is tsnake(n=2,p=1); ouroboros(n=3,p=1) is outside the
# cycle-snake formula's stated range, so its reg row is observational.
STATED = ("tsnake-reg", {"n": [2], "p": [1]})
OBSERVATIONAL = ("ouroboros-reg", {"n": [3], "p": [1]})
# ouroboros(n=4,p=1) is observational too; its spine C4 makes it the
# smallest cell whose graph is not chordal
NOT_CHORDAL = ("ouroboros-reg", {"n": [4], "p": [1]})


def statuses(claim_id, override, config=RunConfig(cross_field=True)):
    """{invariant: status} of the one cell of override, and report.ok."""
    report = run_claims([claim_id], config, override)
    return {r.invariant: r.status for r in report.rows}, report.ok


def verify_exit(claim_id, override, capsys):
    argv = ["verify", claim_id, "--cross-field"]
    for name, (value,) in override.items():
        argv += [f"--{name}", str(value)]
    code = main(argv)
    capsys.readouterr()
    return code


def break_reg_form(monkeypatch):
    real = verify.closed_form

    def broken(spec, allow_observational=False):
        cf = real(spec, allow_observational)
        return cf._replace(values={**cf.values, "reg": cf.values["reg"] + 1})

    monkeypatch.setattr(verify, "closed_form", broken)


def test_a_broken_closed_form_fails_a_stated_cell(monkeypatch, capsys):
    break_reg_form(monkeypatch)
    got, ok = statuses(*STATED)
    assert got["reg"] == "fail" and not ok
    assert {s for inv, s in got.items() if inv != "reg"} == {"pass"}
    assert verify_exit(*STATED, capsys) == 1


def test_a_broken_closed_form_stays_observational_outside_its_range(
        monkeypatch, capsys):
    break_reg_form(monkeypatch)
    got, ok = statuses(*OBSERVATIONAL)
    assert got["reg"] == "observational" and ok
    assert verify_exit(*OBSERVATIONAL, capsys) == 0


def off_by_one_recursion(monkeypatch):
    real = verify.regularity_by_recursion

    def shifted(ideal):
        rec = real(ideal)
        return RegInterval(rec.lo + 1, rec.hi + 1)

    monkeypatch.setattr(verify, "regularity_by_recursion", shifted)


def other_field_shifted(monkeypatch):
    real = verify.betti_table

    def shifted(ideal, characteristic=2, max_vars=16):
        table = real(ideal, characteristic, max_vars)
        if characteristic == 2:
            return table
        # one more in every degree j: the regularity rises by one
        return BettiTable.from_dict(
            table.n_vars, characteristic,
            {(i, j + 1): b for (i, j), b in table.entries})

    monkeypatch.setattr(verify, "betti_table", shifted)


def other_field_shifted_off_chordal(monkeypatch):
    # STATED and OBSERVATIONAL are chordal, and run_cell reuses the first
    # table there; taken for non-chordal, they run the shifted twin
    other_field_shifted(monkeypatch)
    monkeypatch.setattr(verify, "is_chordal", lambda adjacency: False)


def wrong_outcome(monkeypatch):
    monkeypatch.setattr(decompositions, "expected_outcome",
                        lambda rule, spec: ([], 0))


@pytest.mark.parametrize("route, patch", [
    ("reg-recursion", off_by_one_recursion),
    ("field-agree", other_field_shifted_off_chordal),
    ("decomp:", wrong_outcome),
], ids=["reg-recursion", "field-agree", "decomp"])
@pytest.mark.parametrize("cell", [STATED, OBSERVATIONAL],
                         ids=["stated", "observational"])
def test_a_disagreeing_route_fails_on_any_cell(monkeypatch, capsys, route,
                                               patch, cell):
    # two routes that disagree involve no closed form, so the row fails
    # even where the closed form is only observational
    patch(monkeypatch)
    got, ok = statuses(*cell)
    failing = {inv for inv, s in got.items() if s == "fail"}
    assert failing and all(inv.startswith(route) for inv in failing)
    assert not ok
    assert verify_exit(*cell, capsys) == 1


def test_a_disagreeing_twin_fails_a_cell_that_is_not_chordal(monkeypatch,
                                                            capsys):
    other_field_shifted(monkeypatch)
    got, ok = statuses(*NOT_CHORDAL)
    assert {inv for inv, s in got.items() if s == "fail"} == {"field-agree"}
    assert not ok
    assert verify_exit(*NOT_CHORDAL, capsys) == 1
    # on a chordal cell the twin is the first table, so no shift shows
    got, ok = statuses(*STATED)
    assert got["field-agree"] == "pass" and ok


def test_cross_field_recomputes_the_twin_only_off_chordal_cells(monkeypatch,
                                                               capsys):
    calls = []
    real = verify.betti_table

    def counted(ideal, characteristic=2, max_vars=DEFAULT_HOCHSTER_CAP):
        calls.append((ideal, characteristic))
        return real(ideal, characteristic, max_vars)

    monkeypatch.setattr(verify, "betti_table", counted)
    assert main(["verify", "all", "--cross-field"]) == 0
    capsys.readouterr()
    twins = [ideal for ideal, characteristic in calls if characteristic == 3]
    # 46 first tables, and twins for the two cells whose spine is C4
    assert (len(calls), len(twins)) == (48, 2)
    assert twins == [edge_ideal(build_extended(spec_of("ouroboros",
                                                       {"n": 4, "p": p})))
                     for p in (1, 2)]


def test_a_refused_build_leaves_a_skipped_row(capsys):
    report = run_claims(["tsnake-reg"], RunConfig(), {"n": [0, 1], "p": [1]})
    built = [(r.invariant, r.computed, r.predicted, r.status)
             for r in report.rows if r.params == (("n", 0), ("p", 1))]
    assert built == [("build", "tsnake needs n >= 1", None, "skipped")]
    assert report.ok
    assert main(["verify", "tsnake-reg", "--n", "0..1", "--p", "1",
                 "--format", "text"]) == 0
    assert capsys.readouterr().out.splitlines()[0] == (
        "[skipped      ] tsnake-reg(n=0,p=1) build: "
        "computed=tsnake needs n >= 1 predicted=None")


def test_a_refused_bstar_cell_names_bstar(capsys):
    # the claim's cells are built as brs(q,star(u)), and refused as bstar
    assert main(["verify", "bstar", "--u", "0", "--q", "1",
                 "--format", "text"]) == 0
    assert capsys.readouterr().out.splitlines()[0] == (
        "[skipped      ] bstar(q=1,u=0) build: "
        "computed=bstar needs u >= 1 predicted=None")
    report = run_claims(["bstar"], RunConfig(), {"u": [1], "q": [0]})
    assert [(r.invariant, r.computed) for r in report.rows] == [
        ("build", "bstar needs q >= 1")]


def test_a_cell_past_the_build_limit_leaves_a_skipped_row(monkeypatch, capsys):
    # a cap raised past the build limit: the other cells carry on, and
    # the cell past it is refused before anything is built
    from edgeideals import families

    config = RunConfig(hochster_cap=30000)
    small = run_claims(["tsnake-reg"], config, {"n": [1], "p": [1]})
    real = families._build

    def build(spec):
        assert spec.n != 10000, "built a cell past the build limit"
        return real(spec)

    monkeypatch.setattr(families, "_build", build)
    report = run_claims(["tsnake-reg"], config, {"n": [1, 10000], "p": [1]})
    big = [r for r in report.rows if r.params == (("n", 10000), ("p", 1))]
    assert [r for r in report.rows if r not in big] == small.rows
    assert [(r.invariant, r.computed, r.predicted, r.status) for r in big] == [
        ("build", "20001 vertices exceeds the build limit of 20000", None,
         "skipped")]
    argv = ["verify", "tsnake-reg", "--n", "10000", "--p", "1",
            "--hochster-cap", "30000", "--format", "text"]
    assert main(argv) == 0
    assert capsys.readouterr().out == (
        "[skipped      ] tsnake-reg(n=10000,p=1) build: computed=20001 "
        "vertices exceeds the build limit of 20000 predicted=None\n"
        "pass=0 fail=0 observational=0 skipped=1\n")
    # a bad field is still refused before the build, for the whole run
    for field, err in [
            ("4", "error: characteristic 4 is not prime\n"),
            ("3317044064679887385961981",
             "error: characteristic 3317044064679887385961981 is not below "
             "3317044064679887385961981, where primality is decided exactly\n")]:
        assert main(argv + ["--field", field]) == 2
        out = capsys.readouterr()
        assert (out.out, out.err.startswith(err)) == ("", True), out.err


def test_a_grid_past_the_limit_is_refused_before_its_first_cell(monkeypatch):
    # cells are counted over every claim of the run: star and bstar each
    # fit alone (3999 and 2 * 3999 cells), but not together
    ran = []
    monkeypatch.setattr(verify, "run_cell",
                        lambda claim, cell, config: ran.append(cell) or [])
    limit = verify.GRID_LIMIT
    run_claims(["star"], RunConfig(), {"u": range(1, limit + 1)})
    assert len(ran) == limit
    run_claims(["bstar"], RunConfig(), {"u": range(1, 4000)})
    assert len(ran) == limit + 2 * 3999
    ran.clear()
    for claims, u in [(["star"], range(1, limit + 2)),
                      (["star", "bstar"], range(1, 4000)),
                      (["star"], range(1, 10 ** 30))]:
        with pytest.raises(SizeLimitError, match="past the grid limit") as info:
            run_claims(claims, RunConfig(), {"u": u})
        assert info.value.limit == "grid_limit"
    assert ran == []
