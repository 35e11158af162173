"""Answer checks for CLI ops, run after the timed region.

Expected answers are pinned in `expected.json` (see `pin.py`).  Outputs
are read by field only: `cells[].computed/status` for `verify`,
`reg/pdim/depth/sdepth` for `inv` and `sdepth`, and `ok` with
`rules[].rule/ok` for `decomp`.  The schema version and the echoed
configuration are ignored, so removing a knob does not break a check.
"""

from __future__ import annotations

import json

from client import Result


def op_key(argv: list[str]) -> str:
    return " ".join(argv)


def independent_sets(n: int, edges: list[tuple[int, int]]) -> set[int]:
    adj = [0] * n
    for a, b in edges:
        adj[a] |= 1 << b
        adj[b] |= 1 << a
    out = set()
    stack = [(0, (1 << n) - 1)]
    while stack:
        cur, cand = stack.pop()
        out.add(cur)
        while cand:
            low = cand & -cand
            cand ^= low
            v = low.bit_length() - 1
            stack.append((cur | low, cand & ~adj[v]))
    return out


def witness_error(graph: dict, doc: dict) -> str | None:
    """Why the `sdepth` witness is not an interval partition, or None.

    The faces of an edge ideal's quotient are the independent sets of
    the graph, so the intervals [lower, upper] must cover each of them
    exactly once, and the smallest top must have `sdepth` elements.
    """
    index = {name: i for i, name in enumerate(graph["vertices"])}
    edges = [(index[a], index[b]) for a, b in graph["edges"]]
    faces = independent_sets(len(index), edges)
    covered: set[int] = set()
    tops = []
    for pair in doc["intervals"]:
        lower = sum(1 << index[v] for v in pair["lower"])
        upper = sum(1 << index[v] for v in pair["upper"])
        if lower & ~upper or upper not in faces:
            return f"interval {pair} is not a face interval"
        free = upper & ~lower
        sub = free
        while True:
            face = lower | sub
            if face in covered:
                return f"face {face:#x} is covered twice"
            covered.add(face)
            if sub == 0:
                break
            sub = (sub - 1) & free
        tops.append(upper.bit_count())
    if covered != faces:
        return f"{len(faces - covered)} faces are not covered"
    if min(tops) != doc["sdepth"]:
        return f"smallest top has {min(tops)} elements, sdepth says {doc['sdepth']}"
    return None


def check(want: dict, res: Result, graph_of) -> str | None:
    """Why `res` does not match the pinned answer `want`, or None.

    `graph_of()` returns the `gen --format json` document of the op's
    spec; it is only called for ops whose witness is checked.
    """
    if res.rc is None:
        return res.err
    if res.rc != 0:
        return f"exit {res.rc}: {res.err.strip()[:200]}"
    try:
        doc = json.loads(res.out)
    except ValueError:
        return "output is not JSON"
    for name, value in want.get("fields", {}).items():
        if doc.get(name) != value:
            return f"{name} = {doc.get(name)!r}, expected {value!r}"
    if "rows" in want:
        cells = {c.get("invariant"): c for c in doc.get("cells", [])}
        for invariant, row in want["rows"].items():
            got = cells.get(invariant)
            if got is None:
                return f"no {invariant} row"
            if (got.get("computed"), got.get("status")) != (row["computed"], row["status"]):
                return (f"{invariant}: {got.get('computed')!r}/{got.get('status')}, "
                        f"expected {row['computed']!r}/{row['status']}")
        failing = sorted(i for i, c in cells.items() if c.get("status") == "fail")
        if failing:
            return f"failing rows: {', '.join(map(str, failing))}"
    if "rules" in want:
        got = {r.get("rule"): r.get("ok") for r in doc.get("rules", [])}
        if got != want["rules"]:
            return f"rules {got}, expected {want['rules']}"
    if want.get("witness"):
        return witness_error(graph_of(), doc)
    return None
