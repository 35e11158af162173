"""The closed-loop client: one process calling `edgeideals.cli.main` in turn.

Every op is the argv of one CLI call.  Its stdout and stderr are
captured, so the benchmark sees exactly what a user of the command would
see, and the answer checks read that text after the timed region.
"""

from __future__ import annotations

import contextlib
import gc
import io
import os
import resource
import statistics
import subprocess
import sys
import time
from collections import Counter
from dataclasses import dataclass, field
from pathlib import Path

IMPORT_SNIPPET = ("import time; t, c = time.perf_counter(), time.thread_time(); "
                  "import edgeideals.cli; "
                  "print(time.thread_time() - c, time.perf_counter() - t)")


class PackageMissing(Exception):
    """The checkout holds no `src/edgeideals` package to measure."""


def load_cli(root: Path):
    """Import `edgeideals.cli` from the checkout's own `src`, never elsewhere."""
    src = (root / "src").resolve()
    if not (src / "edgeideals" / "cli.py").is_file():
        raise PackageMissing(f"no src/edgeideals/cli.py under {root}")
    sys.path.insert(0, str(src))
    import edgeideals.cli as cli
    if Path(cli.__file__).resolve().parent != src / "edgeideals":
        raise PackageMissing(f"edgeideals was imported from {cli.__file__}")
    return cli


@dataclass(frozen=True)
class Result:
    """What one CLI call left behind; rc is None when it raised."""

    rc: int | None
    out: str
    err: str


def run_op(cli, argv: list[str]) -> Result:
    out, err = io.StringIO(), io.StringIO()
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            rc = cli.main(list(argv))
    except SystemExit as exc:  # argparse rejects a command line this way
        rc = exc.code if isinstance(exc.code, int) else 2
    except Exception as exc:  # a crash is a failed op, not a benchmark error
        return Result(None, out.getvalue(), f"{type(exc).__name__}: {exc}")
    return Result(rc, out.getvalue(), err.getvalue())


def cpu_clock() -> float:
    """CPU seconds of this process and of the child processes it has reaped.

    Time the process spends waiting for a core is not counted.  Children
    count so that an op which hands work to a process pool is charged
    for it.
    """
    kids = resource.getrusage(resource.RUSAGE_CHILDREN)
    return time.process_time() + kids.ru_utime + kids.ru_stime


def reference_chunk() -> int:
    """A fixed piece of interpreter work that the package does not touch.

    It runs before every op, so its CPU time samples how fast the machine
    runs Python at that moment.  It makes only two container objects, so
    the collector and the package's heap do not change its cost.
    """
    counts: dict[int, int] = {}
    residues = []
    total = 0
    for i in range(1500):
        counts[i % 97] = counts.get(i % 97, 0) + i
        residues.append(i * 3 % 11)
        total += i * i % 7
    residues.sort()
    return total


@dataclass
class Passes:
    """One row per pass in each field, indexed by op: the wall time and
    CPU time of each op, and the CPU time of the reference chunk run just
    before it."""

    wall: list[list[float]] = field(default_factory=list)
    cpu: list[list[float]] = field(default_factory=list)
    ref: list[list[float]] = field(default_factory=list)

    def relative_cpu(self) -> float:
        """Median over passes of the pass's CPU time in reference chunks.

        Other load on a shared host slows this process for minutes at a
        time, by a third or more, and slows the op and the chunk before
        it alike.  Their ratio stays put where either time alone does not.
        """
        return statistics.median(sum(cpu) / statistics.fmean(ref)
                                 for cpu, ref in zip(self.cpu, self.ref))


def run_passes(cli, ops: list[list[str]], rng, seconds: float, results: Counter,
               tracer=None) -> Passes:
    """Run shuffled passes over `ops` while another pass fits in `seconds`.

    The heap is collected between ops, outside their timing, so each op
    starts as it would in a fresh CLI process whatever ran before it.
    `results` counts each distinct (op index, Result) pair, so the
    checks see every answer once.  With a tracer, every second pass
    (odd index) is traced, so traced and untraced passes see the same
    load on the machine.
    """
    passes = Passes()
    started = time.perf_counter()
    while True:
        traced = tracer is not None and len(passes.wall) % 2 == 1
        order = list(range(len(ops)))
        rng.shuffle(order)
        wall, cpu, ref = ([0.0] * len(ops) for _ in range(3))
        done = []
        if traced:
            tracer.install()
        try:
            for i in order:
                if traced:
                    tracer.op_id = (len(passes.wall), i)
                gc.collect()
                c0 = cpu_clock()
                reference_chunk()
                c1 = cpu_clock()
                t0 = time.perf_counter()
                res = run_op(cli, ops[i])
                wall[i] = time.perf_counter() - t0
                cpu[i] = cpu_clock() - c1
                ref[i] = c1 - c0
                done.append((i, res))
        finally:
            if traced:
                tracer.uninstall()
        passes.wall.append(wall)
        passes.cpu.append(cpu)
        passes.ref.append(ref)
        results.update(done)
        n = len(passes.wall)
        elapsed = time.perf_counter() - started
        if elapsed * (n + 1) / n > seconds and traced == (tracer is not None):
            return passes


def fastest_pass(rows: list[list[float]]) -> float:
    """Sum over ops of each op's least time: a pass without interference.

    Other load on the machine slows whole stretches of passes by a third
    or more, so the least time of each op repeats from run to run better
    than a median over passes does.
    """
    return sum(min(column) for column in zip(*rows))


def _python(root: Path, args: list[str]) -> subprocess.CompletedProcess:
    env = {**os.environ, "PYTHONPATH": str(root / "src")}
    return subprocess.run([sys.executable, *args], cwd=root, env=env,
                          capture_output=True, text=True, check=True,
                          timeout=120)


def measure_setup(root: Path, repeats: int) -> list[tuple[float, float]]:
    """(CPU, wall) seconds to import `edgeideals.cli` in fresh interpreters.

    The CPU time is the importing thread's own.  numpy's BLAS starts a
    helper thread during the import that competes with it for a core, so
    the wall time and the process's CPU time move by a third from one
    import to the next, and the importing thread's CPU time does not.
    """
    _python(root, ["-c", "import edgeideals.cli"])  # writes the bytecode cache
    return [tuple(map(float, _python(root, ["-c", IMPORT_SNIPPET]).stdout.split()))
            for _ in range(repeats)]


def import_profile(root: Path, repeats: int) -> tuple[float, float]:
    """(numpy cumulative, package self) import seconds from -X importtime.

    Each is the median over fresh interpreters; numpy reads 0 once the
    package stops importing it.
    """
    numpy_s, package_s = [], []
    for _ in range(repeats):
        err = _python(root, ["-X", "importtime", "-c", "import edgeideals.cli"]).stderr
        numpy_us = package_us = 0
        for line in err.splitlines():
            if not line.startswith("import time:") or "[us]" in line:
                continue
            self_us, cumulative_us, name = line[len("import time:"):].split("|")
            name = name.strip()
            if name == "numpy":
                numpy_us = int(cumulative_us)
            elif name == "edgeideals" or name.startswith("edgeideals."):
                package_us += int(self_us)
        numpy_s.append(numpy_us / 1e6)
        package_s.append(package_us / 1e6)
    return statistics.median(numpy_s), statistics.median(package_s)
