"""Reach ladders: rungs of growing size, each stopped from outside at a budget.

Rungs run one at a time in a worker process that imports the package
once.  A rung that does not answer within the budget is a miss: the
worker is killed and the ladder ends.  A rung refused by a cap or the
variable ceiling (exit 2 with a cap message) also ends the ladder, and
is not a failed op.  A rung that answers wrongly is a failed op and ends
the ladder too.  `reach_vars` is the variable count of the last rung
that answered correctly.

Run as a script, this file is the worker: `python3 ladder.py ROOT`
reads one JSON argv per line on stdin and writes one JSON result per
line on stdout.
"""

from __future__ import annotations

import json
import select
import subprocess
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path

from client import Result, load_cli, run_op

READY = b"ready\n"


def rungs(ladder: dict) -> list[tuple[list[str], int]]:
    """(argv, variable count) for each rung, smallest first."""
    base, per_k = ladder["vars"]
    return [([a.replace("{k}", str(k)) for a in ladder["argv"]], base + per_k * k)
            for k in range(ladder["k_first"], ladder["k_last"] + 1)]


def is_cap_refusal(res: Result) -> bool:
    return res.rc == 2 and "cap" in res.err.lower()


@dataclass
class Climb:
    reach_vars: int = 0
    attempted: int = 0
    failed: int = 0
    end: str = "top"  # "miss", "cap", "wrong" or "top" (every rung answered)
    log: list[str] = field(default_factory=list)


def climb(steps: list[tuple[list[str], int]], run_rung, check) -> Climb:
    """Walk the rungs until the first one that does not answer correctly.

    `run_rung(argv)` returns a Result, or None when the budget ran out;
    `check(argv, res)` returns why an answer is wrong, or None.
    """
    out = Climb()
    for argv, n_vars in steps:
        started = time.perf_counter()
        res = run_rung(argv)
        took = time.perf_counter() - started
        name = " ".join(argv)
        if res is None:
            out.end = "miss"
            out.log.append(f"{name}: miss after {took:.2f} s")
            return out
        if is_cap_refusal(res):
            out.end = "cap"
            out.log.append(f"{name}: refused by a cap: {res.err.strip().splitlines()[0]}")
            return out
        out.attempted += 1
        reason = check(argv, res)
        if reason is not None:
            out.failed += 1
            out.end = "wrong"
            out.log.append(f"{name}: FAILED: {reason}")
            return out
        out.reach_vars = n_vars
        out.log.append(f"{name}: {n_vars} vars in {took:.3f} s")
    return out


class Worker:
    """A worker process that runs one rung at a time, killed on a miss."""

    def __init__(self, root: Path, budget_s: float):
        self.root = root
        self.budget_s = budget_s
        self.proc = None

    def _start(self) -> None:
        self.proc = subprocess.Popen(
            [sys.executable, str(Path(__file__).resolve()), str(self.root)],
            cwd=self.root, stdin=subprocess.PIPE, stdout=subprocess.PIPE)
        if self._read_line(120.0) != READY:
            self.close()
            raise RuntimeError("ladder worker did not start")

    def _read_line(self, timeout: float) -> bytes | None:
        ready, _, _ = select.select([self.proc.stdout], [], [], timeout)
        return self.proc.stdout.readline() if ready else None

    def __call__(self, argv: list[str]) -> Result | None:
        self.proc.stdin.write((json.dumps(argv) + "\n").encode())
        self.proc.stdin.flush()
        line = self._read_line(self.budget_s)
        if line is None:
            self.close()
            return None
        if not line:
            self.close()
            return Result(None, "", "ladder worker died")
        return Result(*json.loads(line))

    def close(self) -> None:
        if self.proc is None:
            return
        self.proc.kill()
        self.proc.wait()
        self.proc.stdin.close()
        self.proc.stdout.close()
        self.proc = None

    def __enter__(self):
        self._start()
        return self

    def __exit__(self, *exc):
        self.close()


def _serve(root: Path) -> None:
    cli = load_cli(root)
    reply = sys.stdout.buffer
    reply.write(READY)
    reply.flush()
    for line in sys.stdin:
        res = run_op(cli, json.loads(line))
        reply.write((json.dumps([res.rc, res.out, res.err]) + "\n").encode())
        reply.flush()


if __name__ == "__main__":
    _serve(Path(sys.argv[1]))
