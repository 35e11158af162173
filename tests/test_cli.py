"""Command-line interface: subcommands, formats and exit codes."""

import json

import pytest

from edgeideals.cli import main


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


def test_inv_text_format(capsys):
    code, out, _ = run(capsys, "inv", "star(u=3)", "--format", "text")
    assert code == 0
    assert "depth: 1" in out
    assert "reg: 1" in out


def test_inv_respects_hochster_cap(capsys):
    code, _, err = run(capsys, "inv", "tsnake(n=4,p=3)")  # 17 variables
    assert code == 2
    assert "cap" in err.lower()
    code, out, _ = run(capsys, "inv", "tsnake(n=4,p=3)", "--hochster-cap", "17")
    assert code == 0
    assert json.loads(out)["reg"] == 3


def test_sdepth_reports_witness(capsys):
    code, out, _ = run(capsys, "sdepth", "star(u=3)")
    assert code == 0
    doc = json.loads(out)
    assert doc["sdepth"] == 1
    assert doc["intervals"]
    assert all(set(iv) == {"lower", "upper"} for iv in doc["intervals"])


def test_decomp_ok(capsys):
    code, out, _ = run(capsys, "decomp", "tsnake(n=3,p=2)", "--format", "text")
    assert code == 0
    assert "all rules pass" in out


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


def test_parse_error_exit_code_and_position(capsys):
    code, _, err = run(capsys, "gen", "brs(q=3")
    assert code == 2
    assert "position 7" in err


def test_invalid_parameters_exit_two(capsys):
    code, _, err = run(capsys, "gen", "ouroboros(n=2,p=1)")
    assert code == 2
    assert err.strip()


def test_out_writes_file(tmp_path, capsys):
    target = tmp_path / "report.json"
    code, out, _ = run(capsys, "verify", "star", "--out", str(target))
    assert code == 0
    assert json.loads(target.read_text())["ok"] is True


def test_verify_runs_are_byte_identical(capsys):
    _, first, _ = run(capsys, "verify", "bstar")
    _, second, _ = run(capsys, "verify", "bstar")
    assert first == second


def test_field_flag_accepts_three(capsys):
    code, out, _ = run(capsys, "inv", "star(u=2)", "--field", "3")
    assert code == 0
    assert json.loads(out)["field"] == "GF(3)"


def test_field_flag_rejects_composite(capsys):
    code, _, err = run(capsys, "inv", "star(u=2)", "--field", "4")
    assert code == 2
    assert err.strip()
