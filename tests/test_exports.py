"""The package exports, the names the README offers, and the names and
command lines the benchmark uses."""

import importlib
import json
import pkgutil
import re
from collections import Counter
from pathlib import Path

import edgeideals
from edgeideals.cli import build_parser

ROOT = Path(__file__).resolve().parent.parent
BENCH = ROOT / "perfbench"
PIN = BENCH / "pin.py"


def test_every_exported_name_resolves_once():
    assert [n for n, c in Counter(edgeideals.__all__).items() if c > 1] == []
    assert [n for n in edgeideals.__all__ if not hasattr(edgeideals, n)] == []


def test_readme_entry_points_resolve():
    # every plain name in backticks in the "Key entry points" paragraph
    # must still exist in the package or one of its modules
    text = (ROOT / "README.md").read_text()
    start = text.index("Key entry points")
    paragraph = text[start:text.index("\n\n", start)]
    names = {name for name in re.findall(r"`([^`]+)`", paragraph)
             if name.isidentifier()}
    modules = [edgeideals] + [importlib.import_module(f"edgeideals.{m.name}")
                              for m in pkgutil.iter_modules(edgeideals.__path__)]
    assert len(names) > 5
    assert sorted(name for name in names
                  if not any(hasattr(m, name) for m in modules)) == []


def test_only_families_reads_the_shape_of_a_spec():
    # a FamilySpec's kind and inner spec are read in families.py alone;
    # the rest of the package goes through family_key and spec_params
    reads = []
    paths = sorted((ROOT / "src" / "edgeideals").glob("*.py"))
    assert len(paths) > 10
    for path in paths:
        if path.name == "families.py":
            continue
        for lineno, line in enumerate(path.read_text().splitlines(), 1):
            reads += [f"{path.name}:{lineno}: {m.group()}"
                      for m in re.finditer(r"[\w)\]]+\.(kind|inner)\b", line)
                      if m.group() != "rule.kind"]
    assert reads == []


def test_pinning_script_uses_only_exported_names():
    # perfbench/pin.py reaches the package as `ei.<name>`, so deleting one
    # of those names would break the benchmark's answer checks
    used = set(re.findall(r"\bei\.(\w+)", PIN.read_text()))
    assert len(used) > 10
    assert sorted(used - set(edgeideals.__all__)) == []


def test_every_benchmark_command_line_parses():
    # a flag or format the parser drops would otherwise surface only as
    # failed ops when the benchmark runs
    workloads = json.loads((BENCH / "workloads.json").read_text())["workloads"]
    argvs = []
    for work in workloads.values():
        ladder = work["ladder"]
        first = str(ladder["k_first"])
        argvs += work["ops"] + [[a.replace("{k}", first) for a in ladder["argv"]]]
    assert len(argvs) > 100
    for argv in argvs:
        build_parser().parse_args(argv)
