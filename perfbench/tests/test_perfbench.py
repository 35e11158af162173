"""Tests of the benchmark itself.

    python3 -m pytest perfbench/tests      # from the root of a checkout
"""

from __future__ import annotations

import copy
import json
import re
import shutil
import subprocess
import sys
from collections import Counter
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1]
ROOT = BENCH.parent
sys.path.insert(0, str(BENCH))

import checks  # noqa: E402
import client  # noqa: E402
import ladder  # noqa: E402
import run  # noqa: E402
import spans  # noqa: E402

NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
WORKLOADS = run.load_json("workloads.json")["workloads"]
EXPECTED = run.load_json("expected.json")


@pytest.fixture(scope="module")
def cli():
    return client.load_cli(ROOT)


def bench_run(*args: str, cwd: Path = ROOT) -> subprocess.CompletedProcess:
    return subprocess.run([sys.executable, str(cwd / "perfbench" / "run.py"), *args],
                          cwd=cwd, capture_output=True, text=True, timeout=180)


def test_corrupted_expected_value_is_a_failed_op(cli):
    argv = ["sdepth", "path(9)", "--sdepth-cap", "14"]
    expected = copy.deepcopy(EXPECTED)
    checker = run.Checker(cli, expected)
    results = Counter({(0, client.run_op(cli, argv)): 3})
    checker.ops([argv], results)
    assert (checker.attempted, checker.failed) == (3, 0)

    expected["ops"][checks.op_key(argv)]["fields"]["sdepth"] += 1
    corrupted = run.Checker(cli, expected)
    corrupted.ops([argv], results)
    assert (corrupted.attempted, corrupted.failed, corrupted.unexpected) == (3, 3, 3)
    assert "sdepth = 3, expected 4" in corrupted.report[0]


def test_corrupted_witness_is_a_failed_op(cli):
    argv = ["sdepth", "cycle(10)", "--sdepth-cap", "14"]
    res = client.run_op(cli, argv)
    doc = json.loads(res.out)
    doc["intervals"].pop()
    broken = client.Result(0, json.dumps(doc), "")
    graph = lambda: json.loads(client.run_op(cli, ["gen", argv[1], "--format", "json"]).out)
    want = EXPECTED["ops"][checks.op_key(argv)]
    assert checks.check(want, res, graph) is None
    assert "not covered" in checks.check(want, broken, graph)


def test_known_defect_counts_as_failed_but_not_unexpected(cli):
    ops = [op for op in WORKLOADS["grid"]["ops"] if op[0] == "inv"]
    wrong = client.Result(0, json.dumps({"reg": 2, "pdim": 5, "depth": 1, "sdepth": 2}), "")
    checker = run.Checker(cli, EXPECTED)
    checker.ops(ops, Counter({(0, wrong): 2}))
    assert (checker.failed, checker.unexpected) == (2, 0)
    assert (checker.distinct_attempted, checker.distinct_failed) == (1, 1)


def test_relative_cpu_ignores_a_pass_slowed_with_its_reference_chunks():
    passes = client.Passes(cpu=[[0.2, 0.6], [0.3, 0.9], [0.4, 1.0]],
                           ref=[[0.001, 0.001], [0.0015, 0.0015], [0.001, 0.001]])
    assert passes.relative_cpu() == pytest.approx(800)
    assert client.fastest_pass(passes.cpu) == pytest.approx(0.8)


def fake_rungs(outcomes):
    """A ladder whose rung k yields outcomes[k]: "ok", "miss", "cap" or "wrong"."""
    steps = [([f"rung{k}"], 10 * (k + 1)) for k in range(len(outcomes))]
    ran = []

    def run_rung(argv):
        kind = outcomes[int(argv[0][4:])]
        ran.append(argv[0])
        if kind == "miss":
            return None
        if kind == "cap":
            return client.Result(2, "", "error: n_vars must be between 0 and 64\n"
                                        "hint: raise --hochster-cap or --sdepth-cap")
        return client.Result(0, kind, "")

    def check(argv, res):
        return None if res.out == "ok" else "wrong answer"

    return steps, run_rung, check, ran


def test_ladder_stops_at_first_miss():
    steps, run_rung, check, ran = fake_rungs(["ok", "ok", "miss", "ok"])
    out = ladder.climb(steps, run_rung, check)
    assert (out.reach_vars, out.end, out.attempted, out.failed) == (20, "miss", 2, 0)
    assert ran == ["rung0", "rung1", "rung2"]


def test_ladder_treats_ceiling_error_as_its_end():
    steps, run_rung, check, ran = fake_rungs(["ok", "cap", "ok"])
    out = ladder.climb(steps, run_rung, check)
    assert (out.reach_vars, out.end, out.attempted, out.failed) == (10, "cap", 1, 0)


def test_ladder_wrong_answer_is_a_failed_op():
    steps, run_rung, check, _ = fake_rungs(["ok", "wrong", "ok"])
    out = ladder.climb(steps, run_rung, check)
    assert (out.reach_vars, out.end, out.attempted, out.failed) == (10, "wrong", 2, 1)


def test_worker_kills_a_rung_over_budget_and_reports_the_ceiling():
    with ladder.Worker(ROOT, budget_s=0.5) as worker:
        ceiling = worker(["decomp", "brs(q=1,ouroboros(n=9,p=3))"])
        assert ladder.is_cap_refusal(ceiling)
        assert worker(["sdepth", "path(11)", "--sdepth-cap", "14"]) is None
        assert worker.proc is None


def test_metric_names_and_units_are_well_formed():
    with open(ROOT / "BENCHMARK.json") as fh:
        bench = json.load(fh)
    names = [m["name"] for m in bench["end_to_end"] + bench["per_layer"]]
    names += [w["name"] for w in bench["workloads"]]
    assert len(names) == len(set(names))
    assert all(NAME.match(n) for n in names), names
    units = [m["unit"] for m in bench["end_to_end"] + bench["per_layer"]]
    assert all(re.match(r"^[A-Za-z0-9_/%.-]{1,16}$", u) for u in units), units
    per_layer = {m["name"] for m in bench["per_layer"]}
    assert set(spans.METRICS) | {"setup.numpy_import_s", "setup.package_import_s",
                                 "trace.wall_s", "trace.overhead_s"} == per_layer
    assert {w["name"] for w in bench["workloads"]} <= set(WORKLOADS)


@pytest.mark.parametrize("workload", sorted(WORKLOADS))
def test_smoke_run_passes_its_answer_checks(workload):
    with open(ROOT / "BENCHMARK.json") as fh:
        bench = json.load(fh)
    proc = bench_run("--workload", workload, "--seed", "7", "--seconds", "0")
    assert proc.returncode == 0, proc.stderr
    last = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(last) == {"correct", "attempted", "failed", "metrics"}
    assert last["correct"], proc.stdout
    assert set(last["metrics"]) == {m["name"] for m in bench["end_to_end"]}
    known = sum(checks.op_key(op) in EXPECTED["known_defects"]
                for op in WORKLOADS[workload]["ops"])
    assert last["failed"] == known


def test_traced_smoke_run_reports_every_per_layer_metric():
    with open(ROOT / "BENCHMARK.json") as fh:
        bench = json.load(fh)
    proc = bench_run("--workload", "grid", "--seed", "7", "--seconds", "0", "--trace", "1")
    assert proc.returncode == 0, proc.stderr
    last = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(last["metrics"]) == {m["name"] for m in bench["per_layer"]}
    assert last["metrics"]["betti.calls"]["value"] > 0


def test_fails_without_the_package(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__", "out"))
    proc = bench_run("--workload", "grid", "--seed", "1", "--seconds", "1", cwd=tmp_path)
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""
