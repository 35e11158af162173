"""Benchmark of the `edgeideals` CLI: one workload per run.

    python3 perfbench/run.py --workload grid --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 20

Run it from the root of a checkout; it measures the package in that
checkout's `src`.  One closed-loop client (this process, sequential
calls, no threads or pools) runs shuffled passes over the workload's
fixed op list for `--seconds`; `--seed` only shuffles the op order
within each pass.  Every answer is checked after the timed region.

`--trace 0` reports the end-to-end metrics: setup_s, cpu_ref,
reach_vars, peak_rss_mb and ok_ratio, and prints the pass wall and CPU
times and fail_ratio beside them.  `--trace 1` alternates
untraced and traced passes, and reports the per-layer metrics of
`spans.py`.  The last line of stdout is one JSON object with keys
correct, attempted, failed and metrics; attempted and failed count
distinct ops and ladder rungs, so they do not grow with the number of
passes.  Ops, ladders, budgets and the
layer map are in `workloads.json`; pinned answers in `expected.json`.
"""

from __future__ import annotations

import argparse
import importlib.metadata
import json
import os
import random
import resource
import statistics
import subprocess
import sys
from collections import Counter
from pathlib import Path

import checks
import client
import ladder
import spans

HERE = Path(__file__).resolve().parent
SETUP_REPEATS = 7
IMPORT_PROFILE_REPEATS = 3


def load_json(name: str) -> dict:
    with open(HERE / name) as fh:
        return json.load(fh)


def tail_percentile(samples: list[float]) -> tuple[int, float] | None:
    """The highest percentile with at least ten samples beyond it."""
    ordered = sorted(samples)
    below = len(ordered) - 10
    if below < 1:
        return None
    return 100 * below // len(ordered), ordered[below - 1]


def env_line() -> str:
    try:
        numpy_version = importlib.metadata.version("numpy")
    except importlib.metadata.PackageNotFoundError:
        numpy_version = "absent"
    python = ".".join(map(str, sys.version_info[:3]))
    return f"env: nproc={os.cpu_count()} python={python} numpy={numpy_version}"


class Checker:
    """Checks ops against the pinned answers.

    `attempted` and `failed` count executions; `distinct_attempted` and
    `distinct_failed` count each op or rung once, failed if any of its
    executions failed.
    """

    def __init__(self, cli, expected: dict):
        self.cli = cli
        self.expected = expected
        self.attempted = 0
        self.failed = 0
        self.unexpected = 0
        self.distinct_attempted = 0
        self.failed_ops: set[int] = set()
        self.ladder_failed = 0
        self.report: list[str] = []
        self._graphs: dict[str, dict] = {}

    def graph(self, spec: str) -> dict:
        if spec not in self._graphs:
            res = client.run_op(self.cli, ["gen", spec, "--format", "json"])
            self._graphs[spec] = json.loads(res.out)
        return self._graphs[spec]

    def reason(self, table: str, argv: list[str], res: client.Result) -> str | None:
        want = self.expected[table].get(checks.op_key(argv))
        if want is None:
            return "no pinned answer"
        return checks.check(want, res, lambda: self.graph(argv[1]))

    @property
    def distinct_failed(self) -> int:
        return len(self.failed_ops) + self.ladder_failed

    def ops(self, ops: list[list[str]], results: Counter) -> None:
        self.distinct_attempted += len({i for i, _ in results})
        for (i, res), times in sorted(results.items(), key=lambda kv: kv[0][0]):
            self.attempted += times
            why = self.reason("ops", ops[i], res)
            if why is None:
                continue
            self.failed += times
            self.failed_ops.add(i)
            key = checks.op_key(ops[i])
            known = self.expected["known_defects"].get(key)
            if known is None:
                self.unexpected += times
            note = f" [known defect: {known}]" if known else ""
            self.report.append(f"FAILED x{times}: {key}: {why}{note}")

    def ladder(self, outcome: ladder.Climb) -> None:
        self.attempted += outcome.attempted
        self.failed += outcome.failed
        self.unexpected += outcome.failed
        self.distinct_attempted += outcome.attempted
        self.ladder_failed += outcome.failed


def main(argv: list[str] | None = None) -> int:
    workloads = load_json("workloads.json")["workloads"]
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads) + ["all"],
                        help='"all" runs every workload, each in its own process')
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.workload == "all":
        for name in workloads:
            rc = subprocess.run([sys.executable, __file__, "--workload", name,
                                 "--seed", str(args.seed), "--seconds", str(args.seconds),
                                 "--trace", str(args.trace)]).returncode
            if rc:
                return rc
        return 0
    root = Path.cwd()
    work = workloads[args.workload]
    ops = work["ops"]
    try:
        cli = client.load_cli(root)
    except client.PackageMissing as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    checker = Checker(cli, load_json("expected.json"))
    rng = random.Random(args.seed)
    print(env_line())
    print(f"workload {args.workload}: {len(ops)} ops per pass, seed {args.seed}, "
          f"{args.seconds:g} s, trace {args.trace}")
    results: Counter = Counter()
    lines = []
    if args.trace:
        numpy_s, package_s = client.import_profile(root, IMPORT_PROFILE_REPEATS)
        tracer = spans.Tracer()
        passes = client.run_passes(cli, ops, rng, args.seconds, results, tracer)
        plain, traced = passes.wall[0::2], passes.wall[1::2]
        tracer.write(root / "perfbench" / "out" /
                     f"spans-{args.workload}-seed{args.seed}.jsonl.gz")
        checker.ops(ops, results)
        metrics = {name: (value, spans.METRICS[name][2])
                   for name, value in tracer.metrics(len(traced)).items()}
        traced_wall = statistics.fmean(map(sum, traced))
        overhead = client.fastest_pass(traced) - client.fastest_pass(plain)
        metrics["setup.numpy_import_s"] = (numpy_s, "s")
        metrics["setup.package_import_s"] = (package_s, "s")
        metrics["trace.wall_s"] = (traced_wall, "s")
        metrics["trace.overhead_s"] = (overhead, "s")
        self_sum = tracer.self_time_total() / len(traced)
        lines.append(f"passes: {len(plain)} untraced, {len(traced)} traced, "
                     f"{len(tracer.spans)} spans")
        lines.append(f"self times sum to {self_sum:.4f} s of a {traced_wall:.4f} s "
                     f"traced pass; {traced_wall - self_sum:.4f} s is harness time, "
                     f"tracing overhead {overhead:.4f} s")
    else:
        setup = client.measure_setup(root, SETUP_REPEATS)
        passes = client.run_passes(cli, ops, rng, args.seconds, results)
        peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        checker.ops(ops, results)
        steps = ladder.rungs(work["ladder"])
        with ladder.Worker(root, work["ladder"]["budget_s"]) as worker:
            outcome = ladder.climb(
                steps, worker, lambda a, r: checker.reason("rungs", a, r))
        checker.ladder(outcome)
        lines += [f"ladder ({work['ladder']['budget_s']:g} s per rung, "
                  f"ends on {outcome.end}):"] + [f"  {s}" for s in outcome.log]
        walls = [sum(times) for times in passes.wall]
        median = statistics.median(walls)
        tail = tail_percentile(walls)
        tail_text = f"p{tail[0]} {tail[1]:.4f} s" if tail else "no percentile"
        ok = checker.attempted - checker.failed
        metrics = {
            "setup_s": (statistics.median(cpu for cpu, _ in setup), "s"),
            "cpu_ref": (passes.relative_cpu(), "ref_chunks"),
            "reach_vars": (outcome.reach_vars, "variables"),
            "peak_rss_mb": (peak_rss_mb, "MB"),
            "ok_ratio": (ok / checker.attempted, "ok/attempted"),
        }
        lines.append(f"pass wall: median {median:.4f} s, {tail_text}, n={len(walls)} passes")
        chunk_ms = 1000 * statistics.fmean(t for row in passes.ref for t in row)
        lines.append(f"wall_s {client.fastest_pass(passes.wall):.4f} s, "
                     f"cpu_s {client.fastest_pass(passes.cpu):.4f} s "
                     f"(least time of each op, summed); "
                     f"reference chunk {chunk_ms:.4f} ms CPU on average")
        lines.append(f"setup_s: median CPU time of {len(setup)} fresh imports; "
                     f"their wall times {min(w for _, w in setup):.4f}.."
                     f"{max(w for _, w in setup):.4f} s, median "
                     f"{statistics.median(w for _, w in setup):.4f} s")
        lines.append(f"fail_ratio: {checker.failed}/{checker.attempted} failed/attempted "
                     f"executions = {checker.failed / checker.attempted:.4f}; "
                     f"{checker.distinct_failed} of {checker.distinct_attempted} "
                     f"distinct ops and rungs failed")
    for line in lines + checker.report:
        print(line)
    for name, (value, unit) in metrics.items():
        print(f"{name:<28} {value:>14.6g} {unit}")
    print(json.dumps({
        "correct": checker.unexpected == 0,
        "attempted": checker.distinct_attempted,
        "failed": checker.distinct_failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
