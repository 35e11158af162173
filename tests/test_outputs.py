"""Golden CLI outputs: every pinned command line prints the same bytes.

tests/pinned_cli_outputs.json holds, for each argv, the exit code and
the SHA-256 of stdout and of stderr.  The argvs are the benchmark's ops
(copied in, so a later benchmark edit does not move this test), `verify
all` in every format with and without --cross-field, and gen, inv and
decomp on one spec of every family kind.

A change that is meant to alter output rewrites the pins with

    PYTHONPATH=src python tests/test_outputs.py --write

and says in its change notes which outputs moved and why.
"""

import contextlib
import hashlib
import io
import json
import sys
from pathlib import Path

from edgeideals.cli import main

HERE = Path(__file__).resolve().parent
PINS = HERE / "pinned_cli_outputs.json"


def run(argv: list[str]) -> dict:
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = main(list(argv))
        except SystemExit as exc:  # argparse refusals
            code = exc.code
    return {"argv": argv, "exit": code,
            "stdout_sha256": hashlib.sha256(out.getvalue().encode()).hexdigest(),
            "stderr_sha256": hashlib.sha256(err.getvalue().encode()).hexdigest()}


def pinned_argvs() -> list[list[str]]:
    """The argvs to pin, gathered from the benchmark ops and the family kinds."""
    from test_graphs import EVERY_KIND

    workloads = json.loads((HERE.parent / "perfbench" / "workloads.json")
                           .read_text())["workloads"]
    argvs = [op for w in workloads.values() for op in w["ops"]]
    for fmt in ("json", "text", "csv"):
        argvs.append(["verify", "all", "--format", fmt])
        argvs.append(["verify", "all", "--format", fmt, "--cross-field"])
    for spec in EVERY_KIND:
        argvs += [["gen", spec], ["gen", spec, "--format", "json"],
                  ["inv", spec], ["decomp", spec, "--format", "text"]]
    return argvs


def test_cli_outputs_match_the_pins():
    pins = json.loads(PINS.read_text())
    assert len(pins) == 219
    moved = [pin["argv"] for pin in pins if run(pin["argv"]) != pin]
    assert not moved, f"{len(moved)} outputs moved, first {moved[0]}"


if __name__ == "__main__":
    if sys.argv[1:] != ["--write"]:
        sys.exit("usage: python tests/test_outputs.py --write")
    PINS.write_text(json.dumps([run(a) for a in pinned_argvs()], indent=1) + "\n")
