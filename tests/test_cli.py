"""Command-line interface: subcommands, formats and exit codes."""

import argparse
import ast
import csv
import io
import json
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

import edgeideals
from edgeideals import betti, closed_form, parse_family, sdepth
from edgeideals.cli import build_parser, main
from test_graphs import EVERY_KIND

SRC = str(Path(edgeideals.__file__).resolve().parent.parent)


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def test_gen_dot_output(capsys):
    code, out, _ = run(capsys, "gen", "tsnake(n=2,p=1)")
    assert code == 0
    assert "// vertices: 5" in out
    assert "// edges: 6" in out


def test_gen_json_output(capsys):
    code, out, _ = run(capsys, "gen", "star(u=2)", "--format", "json")
    assert code == 0
    doc = json.loads(out)
    assert doc["n_vertices"] == 3
    assert len(doc["edges"]) == 2


def test_gen_bristled_counts_follow_formulas(capsys):
    _, out, _ = run(capsys, "gen", "brs(q=3,tsnake(n=3,p=3))")
    assert "// vertices: 52" in out
    assert "// edges: 60" in out
    _, out, _ = run(capsys, "gen", "brs(q=3,ouroboros(n=4,p=2))")
    assert "// vertices: 48" in out
    assert "// edges: 56" in out


def test_inv_json(capsys):
    code, out, _ = run(capsys, "inv", "ouroboros(n=3,p=1)")
    assert code == 0
    doc = json.loads(out)
    assert doc["depth"] == 2 and doc["reg"] == 1 and doc["pdim"] == 4
    assert doc["sdepth"] == 2
    assert doc["field"] == "GF(2)"


def test_inv_over_a_prime_above_two_to_the_31(capsys):
    # used to overflow int64 in the rank routine: pdim 5, depth 1
    code, out, _ = run(capsys, "inv", "cycle(6)", "--field", "1099511627791")
    assert code == 0
    doc = json.loads(out)
    assert (doc["reg"], doc["pdim"], doc["depth"]) == (2, 4, 2)


def test_inv_refuses_a_field_past_the_primality_bound(capsys):
    code, _, err = run(capsys, "inv", "cycle(6)", "--field", str(2**127 - 1))
    assert code == 2
    assert "primality" in err
    assert "hint: no cap flag lifts the primality bound" in err
    assert "--hochster-cap" not in err and "--sdepth-cap" not in err


def test_inv_text_format(capsys):
    code, out, _ = run(capsys, "inv", "star(u=3)", "--format", "text")
    assert code == 0
    assert "depth: 1" in out
    assert "reg: 1" in out


def test_inv_respects_hochster_cap(capsys):
    code, _, err = run(capsys, "inv", "tsnake(n=4,p=3)")  # 17 variables
    assert code == 2
    assert "cap" in err.lower()
    assert "hint: raise --hochster-cap" in err
    assert "--sdepth-cap" not in err
    code, out, _ = run(capsys, "inv", "tsnake(n=4,p=3)", "--hochster-cap", "17")
    assert code == 0
    assert json.loads(out)["reg"] == 3


def test_inv_refuses_an_over_cap_graph_before_building_it(capsys, monkeypatch):
    # the graph alone of path(400000) took 7.6 GB before the refusal;
    # spec errors still come first, then a non-prime field, then the cap
    from edgeideals import families

    def refuse(spec):
        raise AssertionError(f"built {spec}")

    monkeypatch.setattr(families, "build_extended", refuse)
    for argv, err in [
        (["path(400000)"], "error: 400000 variables exceeds the cap of 16\n"
                           "hint: raise --hochster-cap, or pick smaller parameters\n"),
        (["path(400000)", "--field", "4"], "error: characteristic 4 is not prime\n"),
        (["path(0)", "--field", "4"], "error: path needs n >= 1\n"),
    ]:
        assert run(capsys, "inv", *argv) == (2, "", err)


def test_sdepth_refuses_an_over_cap_graph_before_building_it(capsys, monkeypatch):
    # the graph alone of path(60000) peaked at 731 MB before the refusal;
    # spec errors still come first
    from edgeideals import families

    def refuse(spec):
        raise AssertionError(f"built {spec}")

    monkeypatch.setattr(families, "build_extended", refuse)
    hint = "hint: raise --sdepth-cap, or pick smaller parameters\n"
    for argv, err in [
        (["path(60000)"], "error: exact Stanley depth capped at 10 live "
                          "variables, got 60000\n" + hint),
        (["brs(q=1,cycle(6))", "--sdepth-cap", "11"],
         "error: exact Stanley depth capped at 11 live variables, got 12\n"
         + hint),
        (["path(0)"], "error: path needs n >= 1\n"),
        (["path(60000"], "error: expected ')' (at position 10)\n"),
    ]:
        assert run(capsys, "sdepth", *argv) == (2, "", err)


@pytest.mark.parametrize("command", ["gen", "decomp"])
def test_gen_and_decomp_refuse_past_the_build_limit_before_building(
        capsys, monkeypatch, command):
    # gen "path(100000)" peaked at 718 MB before the limit; spec errors
    # still come first
    from edgeideals import families

    def refuse(parts):
        raise AssertionError(f"built {parts}")

    monkeypatch.setattr(families, "_build", refuse)
    hint = "hint: no cap flag lifts this limit; pick smaller parameters\n"
    for spec, err in [
        ("path(100000)",
         "error: 100000 vertices exceeds the build limit of 20000\n" + hint),
        ("tsnake(n=10000,p=1)",
         "error: 20001 vertices exceeds the build limit of 20000\n" + hint),
        ("brs(q=1,tsnake_star(n=0,p=10000))",
         "error: 20002 vertices exceeds the build limit of 20000\n" + hint),
        ("path(0)", "error: path needs n >= 1\n"),
    ]:
        assert run(capsys, command, spec) == (2, "", err)


@pytest.mark.parametrize("text", EVERY_KIND + [
    "path(n=1)", "brs(q=1,brs(q=2,tsnake_star(n=0,p=1)))",
    "brs(q=2,brs(q=1,path(n=1)))", "brs(q=1,tsnake_starstar(n=0,p=2))"])
def test_sdepth_refusal_counts_every_vertex_of_a_graph_with_an_edge(text):
    # the sdepth command refuses on this count before it builds the
    # graph, since every family graph is connected
    from edgeideals import families
    from edgeideals.graphs import live_vertices

    spec = parse_family(text)
    n_vertices, n_edges = families.expected_counts(spec)
    adj = families.build_extended(spec).adjacency
    live = live_vertices(adj, (1 << len(adj)) - 1).bit_count()
    assert (n_vertices if n_edges else 0) == live


def test_sdepth_reports_witness(capsys):
    code, out, _ = run(capsys, "sdepth", "star(u=3)")
    assert code == 0
    doc = json.loads(out)
    assert doc["sdepth"] == 1
    assert doc["intervals"]
    assert all(set(iv) == {"lower", "upper"} for iv in doc["intervals"])


def test_sdepth_text_lists_the_witness_intervals(capsys):
    assert run(capsys, "sdepth", "path(4)", "--format", "text") == (
        0, "path(n=4): sdepth = 2\n  [1, x1*x3]\n  [x2, x2*x4]\n"
           "  [x4, x1*x4]\n", "")


def test_decomp_ok(capsys):
    code, out, _ = run(capsys, "decomp", "tsnake(n=3,p=2)", "--format", "text")
    assert code == 0
    assert "all rules pass" in out


@pytest.mark.parametrize("spec", ["path(3)", "cycle(5)"])
def test_decomp_without_rules_says_so(capsys, spec):
    code, out, _ = run(capsys, "decomp", spec, "--format", "text")
    assert code == 0
    assert out == f"no catalogued decomposition rules for {spec.replace('(', '(n=')}\n"
    code, out, _ = run(capsys, "decomp", spec)
    assert code == 0
    doc = json.loads(out)
    assert (doc["ok"], doc["rules"]) == (True, [])


def test_verify_star_exits_zero(capsys):
    code, out, _ = run(capsys, "verify", "star")
    assert code == 0
    assert json.loads(out)["ok"] is True


def test_verify_unknown_claim_exits_two(capsys):
    code, _, err = run(capsys, "verify", "nonsense")
    assert code == 2
    assert "unknown claim" in err


def test_verify_grid_flags(capsys):
    code, out, _ = run(capsys, "verify", "tsnake-reg", "--n", "1..2", "--p", "1")
    assert code == 0
    doc = json.loads(out)
    assert {tuple(c["params"].items()) for c in doc["cells"]} == \
        {(("n", 1), ("p", 1)), (("n", 2), ("p", 1))}


def test_verify_refuses_a_grid_flag_its_claim_lacks(capsys):
    code, out, err = run(capsys, "verify", "tsnake-reg", "--u", "9")
    assert code == 2
    assert out == ""
    assert "no parameter u" in err and "its parameters are n, p" in err


@pytest.mark.parametrize("argv, message", [
    (["nonsense"],
     "unknown claim 'nonsense'; known: brs-ouroboros, brs-tsnake, "
     "brs-tsnake-star, brs-tsnake-starstar, bstar, ouroboros-reg, star, "
     "tsnake-reg, tsnake-star-reg, tsnake-starstar-reg"),
    (["tsnake-reg", "--u", "9"],
     "claim 'tsnake-reg' has no parameter u; its parameters are n, p"),
    (["star", "--n", "2", "--q", "1"],
     "claim 'star' has no parameter n, q; its parameters are u"),
    (["bstar", "--n", "1"],
     "claim 'bstar' has no parameter n; its parameters are u, q"),
], ids=["unknown-claim", "lacking-u", "lacking-n-q", "lacking-n"])
def test_verify_refusals_print_their_exact_message(capsys, argv, message):
    assert run(capsys, "verify", *argv) == (2, "", f"error: {message}\n")


def test_verify_all_applies_an_axis_only_to_the_claims_that_have_it(capsys):
    def cells(*flags):
        code, out, _ = run(capsys, "verify", "all", *flags)
        assert code == 0
        return json.loads(out)["cells"]

    with_u = {cid for cid, c in edgeideals.CLAIMS.items() if "u" in c.param_names}
    assert with_u == {"star", "bstar"}
    plain, narrowed = cells(), cells("--u", "2")
    assert ([c for c in narrowed if c["claim"] not in with_u]
            == [c for c in plain if c["claim"] not in with_u])
    assert {c["params"]["u"] for c in narrowed if c["claim"] in with_u} == {2}


@pytest.mark.parametrize("value, why", [
    ("abc", "expected an integer or a range like 1..4"),
    ("1..", "expected an integer or a range like 1..4"),
    ("4..1", "empty range"),
], ids=["not-a-number", "open-ended", "empty"])
def test_verify_rejects_a_malformed_or_empty_range(capsys, value, why):
    with pytest.raises(SystemExit) as exc:
        main(["verify", "tsnake-reg", "--n", value])
    assert exc.value.code == 2
    out = capsys.readouterr()
    assert out.out == ""
    assert f"argument --n: {why}" in out.err and repr(value) in out.err
    assert "Traceback" not in out.err


def test_parse_error_exit_code_and_position(capsys):
    code, _, err = run(capsys, "gen", "brs(q=3")
    assert code == 2
    assert "position 7" in err


def test_invalid_parameters_exit_two(capsys):
    code, _, err = run(capsys, "gen", "ouroboros(n=2,p=1)")
    assert code == 2
    assert err.strip()


def test_gen_builds_a_starred_snake_at_n_zero_under_nested_bristles(capsys):
    code, out, _ = run(capsys, "gen", "--format", "json",
                       "brs(q=1,brs(q=2,tsnake_star(n=0,p=1)))")
    assert code == 0
    doc = json.loads(out)
    code, out, _ = run(capsys, "gen", "--format", "json",
                       "brs(q=1,brs(q=2,star(u=1)))")
    assert code == 0
    want = json.loads(out)
    assert (doc["vertices"], doc["edges"]) == (want["vertices"], want["edges"])


def nested(depth, base):
    return "brs(q=1," * depth + base + ")" * depth


# each brs or bstar level at least doubles a base of at least one vertex,
# and 2^15 > 20000, so the parser stops at the 15th level, well before a
# spec 1200 levels deep would pass Python's recursion limit
NESTED_REFUSAL = ("error: family spec nested 15 deep exceeds the build limit "
                  "of 20000 vertices\n"
                  "hint: no cap flag lifts this limit; pick smaller parameters\n")
BUILD_32768 = ("error: 32768 vertices exceeds the build limit of 20000\n"
               "hint: no cap flag lifts this limit; pick smaller parameters\n")


# Every refusal of a spec the CLI reads, parse errors at their position
SPEC_REFUSALS = [
    ("tsnake_star(n=0,p=0)", "error: tsnake_star needs p >= 1\n"),
    ("brs(q=0,tsnake_star(n=0,p=1))", "error: brs needs q >= 1\n"),
    ("brs(q=0,tsnake_starstar(n=0,p=0))", "error: tsnake_starstar needs p >= 1\n"),
    ("brs(q=1,brs(q=0,tsnake(n=1,p=1)))", "error: brs needs q >= 1\n"),
    # bstar(u,q) is read as brs(q,star(u)) and refused under its own name
    ("bstar(u=0,q=1)", "error: bstar needs u >= 1\n"),
    ("bstar(u=1,q=0)", "error: bstar needs q >= 1\n"),
    ("tsnake_star(n=-1,p=1)", "error: expected an integer (at position 14)\n"),
    pytest.param("path(" + "9" * 5000 + ")",
                 "error: integer of 5000 digits is too long (at position 5)\n",
                 id="path-of-5000-digits"),
    ("path(\u00b2)", "error: expected an integer (at position 5)\n"),
    ("path(3,4)",
     "error: too many positional values for 'path' (at position 7)\n"),
    ("tsnake(n=1,n=2)", "error: duplicate parameter 'n' (at position 11)\n"),
    ("path(path(3))",
     "error: 'path' takes no nested family (at position 5)\n"),
    ("brs(q=1,path(2),path(3))",
     "error: duplicate inner family (at position 16)\n"),
    ("brs(q=1)", "error: brs needs an inner family (at position 8)\n"),
    ("(3)", "error: expected a family or parameter name (at position 0)\n"),
    ("path 3", "error: expected '(' (at position 5)\n"),
    (" foo(1)", "error: unknown family 'foo' (at position 0)\n"),
    ("brs(q=1, foo(1))", "error: unknown family 'foo' (at position 9)\n"),
    ("2path(3)", "error: unknown family '2path' (at position 0)\n"),
    ("tsnake(n=2,p=1,z=9)",
     "error: 'tsnake' takes no parameter 'z' (at position 15)\n"),
    ("tsnake(n=2)",
     "error: 'tsnake' is missing parameter 'p' (at position 11)\n"),
    ("brs(tsnake(n=1,p=1))",
     "error: 'brs' is missing parameter 'q' (at position 20)\n"),
    ("path(12ab)", "error: expected ')' (at position 7)\n"),
    ("path(n=)", "error: expected an integer (at position 7)\n"),
    ("path(\u0663)", "error: expected an integer (at position 5)\n"),
    ("bstar(1,2,3)",
     "error: too many positional values for 'bstar' (at position 10)\n"),
    ("brs(q=1,tsnake(n=1,p=1),)",
     "error: expected a family or parameter name (at position 24)\n"),
    ("path(3) x", "error: trailing input after family spec (at position 8)\n"),
    pytest.param(nested(1200, "path(1)"), NESTED_REFUSAL, id="brs-1200-deep"),
    pytest.param(nested(15, "path(1)"), NESTED_REFUSAL, id="brs-15-deep"),
    pytest.param(nested(14, "bstar(u=1,q=1)"), NESTED_REFUSAL,
                 id="bstar-as-15th-level"),
]


@pytest.mark.parametrize("spec, err", SPEC_REFUSALS)
def test_degenerate_refusals_keep_their_message(capsys, spec, err):
    for command in ("gen", "inv", "sdepth", "decomp"):
        assert run(capsys, command, spec) == (2, "", err)


def test_a_spec_nested_14_deep_is_read_and_refused_by_size(capsys):
    for spec in (nested(14, "path(2)"), nested(13, "bstar(u=1,q=1)")):
        assert run(capsys, "gen", spec) == (2, "", BUILD_32768)
        assert run(capsys, "decomp", spec) == (2, "", BUILD_32768)
        code, _, err = run(capsys, "inv", spec)
        assert code == 2 and err.startswith("error: 32768 variables exceeds")
        code, _, err = run(capsys, "sdepth", spec)
        assert code == 2 and "got 32768" in err


def test_every_parse_message_has_a_pinned_refusal():
    # each message families.py hands to FamilySpecParseError, directly
    # or through parse_family's fail, matches a row of SPEC_REFUSALS
    from edgeideals import families

    tree = ast.parse(Path(families.__file__).read_text())
    templates = []
    for node in ast.walk(tree):
        if (isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
                and node.func.id in ("fail", "FamilySpecParseError")):
            message = node.args[0]
            if isinstance(message, ast.Constant):
                templates.append(re.escape(message.value))
            elif isinstance(message, ast.JoinedStr):
                templates.append("".join(
                    re.escape(part.value) if isinstance(part, ast.Constant)
                    else ".+" for part in message.values))
    pinned = [getattr(row, "values", row)[1] for row in SPEC_REFUSALS]
    pinned = [err for err in pinned if "(at position" in err]
    matches = {(t, err) for t in templates for err in pinned
               if re.fullmatch(f"error: {t} \\(at position \\d+\\)\n", err)}
    assert set(templates) - {t for t, _ in matches} == set()  # unpinned
    assert set(pinned) - {err for _, err in matches} == set()  # walk missed


@pytest.mark.parametrize("argv", [
    ["inv", "cycle(3)", "--sdepth-cap", "-1"],
    ["inv", "cycle(3)", "--hochster-cap", "-1"],
    ["sdepth", "cycle(3)", "--sdepth-cap", "-1"],
    ["verify", "all", "--hochster-cap", "-1"],
    ["verify", "star", "--sdepth-cap", "-2"],
])
def test_a_negative_cap_exits_two_naming_its_flag(capsys, argv):
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 2
    out = capsys.readouterr()
    assert out.out == ""
    assert (f"argument {argv[-2]}: expected a non-negative integer, "
            f"got {argv[-1]}") in out.err


def test_a_cap_that_is_no_integer_exits_two(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["inv", "path(3)", "--sdepth-cap", "x"])
    assert exc.value.code == 2
    out = capsys.readouterr()
    assert out.out == ""
    assert "argument --sdepth-cap: invalid int value: 'x'" in out.err


def test_a_zero_cap_stays_valid(capsys):
    # the scan ops pass --sdepth-cap 0 to leave the search out
    code, out, _ = run(capsys, "inv", "cycle(3)", "--sdepth-cap", "0")
    assert code == 0 and json.loads(out)["sdepth"] is None
    # a Hochster cap of 0 parses, and the engine then refuses cycle(3)
    code, _, err = run(capsys, "inv", "cycle(3)", "--hochster-cap", "0")
    assert code == 2 and "hint: raise --hochster-cap" in err


def test_out_writes_file(tmp_path, capsys):
    target = tmp_path / "report.json"
    code, out, _ = run(capsys, "verify", "star", "--out", str(target))
    assert code == 0
    assert json.loads(target.read_text())["ok"] is True


@pytest.mark.parametrize("argv", [
    ["gen", "tsnake(n=2,p=1)", "--field", "3"],
    ["gen", "tsnake(n=2,p=1)", "--hochster-cap", "20"],
    ["gen", "tsnake(n=2,p=1)", "--sdepth-cap", "5"],
    ["sdepth", "path(4)", "--field", "3"],
    ["sdepth", "path(4)", "--hochster-cap", "20"],
    ["decomp", "tsnake(n=2,p=1)", "--field", "3"],
    ["decomp", "tsnake(n=2,p=1)", "--hochster-cap", "20"],
    ["decomp", "tsnake(n=2,p=1)", "--sdepth-cap", "5"],
    ["verify", "star", "--no-decomp"],  # every verify run replays
])
def test_a_flag_the_subcommand_does_not_read_exits_two(capsys, argv):
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 2
    assert "unrecognized arguments: " + " ".join(argv[2:]) in capsys.readouterr().err


@pytest.mark.parametrize("argv", [
    ["gen", "path(3)", "--format", "csv"],
    ["inv", "path(3)", "--format", "dot"],
    ["sdepth", "path(3)", "--format", "csv"],
    ["decomp", "path(3)", "--format", "dot"],
    ["verify", "star", "--format", "dot"],
])
def test_a_format_the_subcommand_cannot_write_exits_two(capsys, argv):
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 2
    assert "invalid choice" in capsys.readouterr().err


def subcommand_formats():
    """(subcommand, format) for every --format choice of the parser."""
    sub = next(a for a in build_parser()._actions
               if isinstance(a, argparse._SubParsersAction))
    return [(name, fmt) for name, parser in sub.choices.items()
            for action in parser._actions if action.dest == "format"
            for fmt in action.choices]


def small_target(command):
    return ["star", "--u", "2"] if command == "verify" else ["tsnake(n=2,p=1)"]


def test_every_subcommand_writes_every_format(capsys):
    # read off the parser, so a new renderer cannot go untested
    pairs = subcommand_formats()
    assert len(pairs) == 12
    for command, fmt in pairs:
        code, out, err = run(capsys, command, *small_target(command),
                             "--format", fmt)
        assert (code, err) == (0, ""), (command, fmt)
        assert out.strip(), (command, fmt)


def test_every_json_report_is_laid_out_as_json_dumps_lays_it_out(capsys):
    # the byte pins cannot cover --durations, whose floats are wall-clock
    # times, so each JSON report is checked against json's own layout
    argvs = [[command, *small_target(command), "--format", "json"]
             for command, fmt in subcommand_formats() if fmt == "json"]
    argvs.append(["verify", "bstar", "--durations", "--format", "json"])
    assert len(argvs) == 6
    for argv in argvs:
        code, out, err = run(capsys, *argv)
        assert (code, err) == (0, ""), argv
        assert out == json.dumps(json.loads(out), indent=2,
                                 sort_keys=True) + "\n", argv
    assert isinstance(json.loads(out)["durations"]["bstar"], float)


def test_verify_runs_are_byte_identical(capsys):
    _, first, _ = run(capsys, "verify", "bstar")
    _, second, _ = run(capsys, "verify", "bstar")
    assert first == second


@pytest.mark.parametrize("argv", [
    ["verify", "all", "--cross-field", "--format", "csv"],
    ["inv", "tsnake(n=2,p=1)", "--format", "csv"],
])
def test_csv_rows_are_as_wide_as_the_header(capsys, argv):
    # family specs and field-agree values hold commas; fields carry them
    # as ';'
    code, out, _ = run(capsys, *argv)
    assert code == 0
    rows = list(csv.reader(io.StringIO(out)))
    assert len(rows) > 1
    assert all(len(row) == len(rows[0]) for row in rows), out
    assert "tsnake(n=2;p=1)" in out


def test_field_flag_accepts_three(capsys):
    code, out, _ = run(capsys, "inv", "star(u=2)", "--field", "3")
    assert code == 0
    assert json.loads(out)["field"] == "GF(3)"


def test_field_flag_rejects_composite(capsys):
    code, _, err = run(capsys, "inv", "star(u=2)", "--field", "4")
    assert code == 2
    assert err.strip()


def test_sdepth_cap_hint_names_its_flag(capsys):
    code, _, err = run(capsys, "sdepth", "tsnake(n=4,p=3)")  # 17 live variables
    assert code == 2
    assert "hint: raise --sdepth-cap" in err
    assert "--hochster-cap" not in err


def test_decomp_answers_past_64_variables(capsys):
    spec = "brs(q=1,ouroboros(n=9,p=3))"
    _, out, _ = run(capsys, "gen", spec, "--format", "json")
    assert json.loads(out)["n_vertices"] == 72
    code, out, err = run(capsys, "decomp", spec, "--format", "json")
    assert code == 0 and not err
    doc = json.loads(out)
    assert doc["ok"] and doc["rules"]
    assert all(rule["ok"] for rule in doc["rules"])


INV_67 = ["inv", "tsnake(n=22,p=2)", "--sdepth-cap", "0"]  # 67 variables


def test_hochster_cap_alone_bounds_the_ambient_count(capsys):
    code, out, err = run(capsys, *INV_67, "--hochster-cap", "64")
    assert code == 2 and not out
    assert "67 variables exceeds the cap of 64" in err
    assert "hint: raise --hochster-cap" in err


def test_inv_answers_past_64_variables_when_the_cap_allows(capsys):
    code, out, _ = run(capsys, *INV_67, "--hochster-cap", "67")
    assert code == 0
    doc = json.loads(out)
    assert doc["n_vars"] == 67
    assert (doc["reg"], doc["pdim"], doc["depth"]) == (12, 56, 11)
    assert doc["reg"] == closed_form(parse_family(INV_67[1])).values["reg"]


def test_inv_answers_a_bristled_snake_of_74_variables(capsys):
    spec = "brs(q=1,tsnake(n=12,p=2))"
    code, out, _ = run(capsys, "inv", spec, "--hochster-cap", "80",
                       "--sdepth-cap", "0")
    assert code == 0
    doc = json.loads(out)
    assert (doc["depth"], doc["reg"], doc["pdim"]) == (37, 24, 37)
    values = closed_form(parse_family(spec)).values
    assert (values["depth"], values["reg"], values["pdim"]) == (37, 24, 37)


def test_sdepth_past_64_variables_names_its_flag(capsys):
    code, _, err = run(capsys, "sdepth", "tsnake(n=22,p=2)")
    assert code == 2
    assert "got 67" in err
    assert "hint: raise --sdepth-cap" in err


@pytest.mark.parametrize("argv", [
    ["gen", "tsnake(n=2,p=1)"],
    ["inv", "tsnake(n=2,p=1)"],
    ["sdepth", "tsnake(n=2,p=1)"],
    ["decomp", "tsnake(n=2,p=1)"],
    ["verify", "star", "--u", "1"],
])
def test_unwritable_out_path_exits_2_naming_it(capsys, tmp_path, argv):
    target = tmp_path / "missing" / "out"
    code, out, err = run(capsys, *argv, "--out", str(target))
    assert code == 2 and not out
    assert err.startswith(f"error: cannot write {target}: ")
    assert "No such file or directory" in err
    assert not target.parent.exists()


def test_node_budget_refusal_says_no_flag_lifts_it(monkeypatch, capsys):
    monkeypatch.setattr(sdepth, "SEARCH_NODE_BUDGET", 3)
    code, _, err = run(capsys, "sdepth", "path(9)")
    assert code == 2
    assert "budget" in err
    assert "hint: no cap flag lifts the search node budget" in err
    assert "--hochster-cap" not in err and "--sdepth-cap" not in err


def test_a_grid_past_the_limit_exits_two_at_once():
    # a child process with 1 GB of address space: were the cells made
    # before they are counted, the 10^9 values would fail it at once
    import resource
    import time

    def small():
        resource.setrlimit(resource.RLIMIT_AS, (1 << 30, 1 << 30))

    started = time.monotonic()
    done = subprocess.run(
        [sys.executable, "-m", "edgeideals.cli", "verify", "star", "--u",
         "1..1000000000"], capture_output=True, text=True, timeout=60,
        env=dict(os.environ, PYTHONPATH=SRC), preexec_fn=small)
    assert time.monotonic() - started < 10
    assert (done.returncode, done.stdout) == (2, "")
    assert done.stderr == (
        "error: the grid has 1000000000 cells, past the grid limit of 10000\n"
        "hint: no cap flag lifts the grid limit; pick shorter ranges\n")


def fresh_process(*argv):
    env = dict(os.environ, PYTHONPATH=SRC)
    done = subprocess.run([sys.executable, "-m", "edgeideals.cli", *argv],
                          capture_output=True, text=True, env=env, check=False)
    return done.returncode, done.stdout, done.stderr


def test_parser_is_built_once_and_not_at_import():
    env = dict(os.environ, PYTHONPATH=SRC)
    probe = ("import edgeideals.cli as c; print(c.build_parser.cache_info().currsize)")
    done = subprocess.run([sys.executable, "-c", probe], capture_output=True,
                          text=True, env=env, check=True)
    assert done.stdout.strip() == "0"
    assert build_parser() is build_parser()


def test_shared_parser_answers_like_a_fresh_process(capsys):
    run(capsys, "verify", "star", "--u", "1..2")
    second = ("inv", "ouroboros(n=3,p=1)", "--format", "text")
    assert run(capsys, *second) == fresh_process(*second)
    with pytest.raises(SystemExit) as exc:
        main(["inv", "--field", "3"])  # the spec is missing
    assert exc.value.code == 2
    assert "required" in capsys.readouterr().err
    valid = ("gen", "star(u=2)", "--format", "json")
    assert run(capsys, *valid) == fresh_process(*valid)


def test_cap_flag_defaults_are_the_engines_defaults():
    for argv in (["inv", "path(2)"], ["verify", "all"]):
        args = build_parser().parse_args(argv)
        assert args.hochster_cap == betti.DEFAULT_HOCHSTER_CAP
        assert args.sdepth_cap == sdepth.DEFAULT_EXACT_CAP
    # the caps are set in errors alone: moved there before anything reads
    # them, they must move everywhere, so a literal copied into cli, betti
    # or sdepth fails
    probe = ("import edgeideals.errors as e; "
             "e.DEFAULT_HOCHSTER_CAP, e.DEFAULT_EXACT_CAP = 97, 98; "
             "from edgeideals import betti, sdepth; "
             "from edgeideals.cli import build_parser; "
             "args = build_parser().parse_args(['inv', 'path(2)']); "
             "print(args.hochster_cap, args.sdepth_cap, "
             "betti.DEFAULT_HOCHSTER_CAP, sdepth.DEFAULT_EXACT_CAP)")
    env = dict(os.environ, PYTHONPATH=SRC)
    done = subprocess.run([sys.executable, "-c", probe], capture_output=True,
                          text=True, env=env, check=True)
    assert done.stdout.split() == ["97", "98", "97", "98"]


def test_runs_without_numpy():
    # a None entry in sys.modules makes any import of numpy fail
    env = dict(os.environ, PYTHONPATH=SRC)
    probe = ("import sys; sys.modules['numpy'] = None; "
             "import edgeideals.cli as c; "
             "sys.exit(c.main(['inv', 'cycle(6)', '--field', '3']))")
    done = subprocess.run([sys.executable, "-c", probe], capture_output=True,
                          text=True, env=env, check=False)
    assert done.returncode == 0, done.stderr
    doc = json.loads(done.stdout)
    assert (doc["reg"], doc["pdim"], doc["depth"]) == (2, 4, 2)
