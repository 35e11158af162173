"""The package exports, and the names the benchmark's pinning script uses."""

import re
from collections import Counter
from pathlib import Path

import edgeideals

PIN = Path(__file__).resolve().parent.parent / "perfbench" / "pin.py"


def test_every_exported_name_resolves_once():
    assert [n for n, c in Counter(edgeideals.__all__).items() if c > 1] == []
    assert [n for n in edgeideals.__all__ if not hasattr(edgeideals, n)] == []


def test_pinning_script_uses_only_exported_names():
    # perfbench/pin.py reaches the package as `ei.<name>`, so deleting one
    # of those names would break the benchmark's answer checks
    used = set(re.findall(r"\bei\.(\w+)", PIN.read_text()))
    assert len(used) > 10
    assert sorted(used - set(edgeideals.__all__)) == []
