"""The package exports, the modules each entry point loads, the names the
README offers, and the names and command lines the benchmark uses."""

import ast
import functools
import importlib
import json
import os
import pkgutil
import re
import subprocess
import sys
from collections import Counter
from pathlib import Path

import pytest

import edgeideals
from edgeideals.cli import build_parser

ROOT = Path(__file__).resolve().parent.parent
SRC = str(Path(edgeideals.__file__).resolve().parent.parent)  # under test
BENCH = ROOT / "perfbench"
PIN = BENCH / "pin.py"


def test_every_exported_name_resolves_once():
    assert [n for n, c in Counter(edgeideals.__all__).items() if c > 1] == []
    assert [n for n in edgeideals.__all__ if not hasattr(edgeideals, n)] == []


def test_lazy_namespace_matches_the_home_modules():
    namespace = {}
    exec("from edgeideals import *", namespace)
    for name in edgeideals.__all__:
        home = importlib.import_module(f"edgeideals.{edgeideals._HOME[name]}")
        assert namespace[name] is getattr(home, name), name
    assert set(edgeideals.__all__) <= set(dir(edgeideals))
    with pytest.raises(AttributeError, match="edgeideals"):
        edgeideals.no_such_name


def _loaded_after(code, package="edgeideals"):
    """The submodules of package a fresh interpreter holds after code."""
    probe = ("import sys, io, contextlib\n" + code + "\n"
             "print(' '.join(sorted(m.partition('.')[2] for m in sys.modules\n"
             f"                      if m.startswith({package + '.'!r}))))")
    return set(_fresh(probe).split())


def _fresh(probe):
    """The stdout of probe, run in a fresh interpreter on the package."""
    done = subprocess.run([sys.executable, "-c", probe], capture_output=True,
                          text=True, env=dict(os.environ, PYTHONPATH=SRC),
                          check=True)
    return done.stdout


def test_importing_the_package_or_the_cli_loads_no_engine():
    assert _loaded_after("import edgeideals") == set()
    assert _loaded_after("import edgeideals.cli") == {"cli", "errors"}
    # nor json, whose import would land in the start-up time; only the
    # reports need it (importing json loads json.decoder and json.scanner)
    assert _loaded_after("import edgeideals", "json") == set()
    assert _loaded_after("import edgeideals.cli", "json") == set()
    assert _loaded_after("import json", "json") >= {"decoder", "scanner"}


@pytest.mark.parametrize("argv, absent", [
    (["inv", "tsnake(n=2,p=1)"], {"verify", "decompositions", "recursion",
                                  "taylor"}),
    (["sdepth", "path(4)"], {"verify", "decompositions", "recursion",
                             "taylor"}),
    (["decomp", "brs(q=1,tsnake(n=2,p=1))"], {"betti", "sdepth", "gf", "ideals",
                                              "recursion", "taylor",
                                              "verify"}),
])
def test_each_subcommand_loads_only_its_engines(argv, absent):
    loaded = _loaded_after(
        "import edgeideals.cli\n"
        "with contextlib.redirect_stdout(io.StringIO()):\n"
        f"    assert edgeideals.cli.main({argv!r}) == 0")
    assert "families" in loaded  # the op ran
    assert loaded & absent == set()


def test_no_cli_call_imports_dataclasses_or_inspect():
    # every record is a NamedTuple or a slotted class: importing
    # dataclasses, with the inspect module it loads, took about 6 ms of
    # each CLI call's start-up
    watched = ("dataclasses", "inspect")
    calls = [["gen", "tsnake(n=2,p=1)"], ["inv", "tsnake(n=3,p=2)"],
             ["sdepth", "path(4)"], ["decomp", "brs(q=1,tsnake(n=2,p=1))"],
             ["verify", "all"]]
    loaded = f"[m for m in {watched!r} if m in sys.modules]"
    floor = set(_fresh(f"import sys; print(*{loaded})").split())
    probe = ("import sys, io, contextlib\n"
             "import edgeideals.cli\n"
             f"for argv in {calls!r}:\n"
             "    with contextlib.redirect_stdout(io.StringIO()):\n"
             "        code = edgeideals.cli.main(argv)\n"
             f"    print(code, *{loaded})")
    lines = [line.split() for line in _fresh(probe).splitlines()]
    assert [line[0] for line in lines] == ["0"] * len(calls)  # each call ran
    added = [(argv[0], set(line[1:]) - floor) for argv, line in zip(calls, lines)]
    assert added == [(argv[0], set()) for argv in calls]


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


# span targets of perfbench/spans.py whose function the package no longer
# has; the tracer skips them, and their metrics read 0
RETIRED_SPAN_TARGETS = [("edgeideals.ideals", "colon_by"),
                        ("edgeideals.ideals", "add_variable"),
                        ("edgeideals.gf", "gf2_rank"),
                        ("edgeideals.decompositions", "verify_decomposition")]


def test_every_span_target_resolves_in_the_package():
    # the tracer skips a target it cannot find, so a rename would zero a
    # per-layer metric with no test failing
    tree = ast.parse((BENCH / "spans.py").read_text())
    (targets,) = [node.value.elts for node in tree.body
                  if isinstance(node, ast.Assign)
                  and [t.id for t in node.targets] == ["TARGETS"]]
    assert len(targets) > 10
    missing = []
    for entry in targets:
        module, attr = (ast.literal_eval(e) for e in entry.elts[:2])
        try:
            functools.reduce(getattr, attr.split("."),
                             importlib.import_module(module))
        except AttributeError:
            missing.append((module, attr))
    assert missing == RETIRED_SPAN_TARGETS


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
