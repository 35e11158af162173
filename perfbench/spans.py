"""Per-layer spans, recorded by wrappers around the package's public functions.

In a traced run each target below is rebound, in every `edgeideals`
module that holds it, to a wrapper that records a span: its name,
start, end, parent span and op id, plus one number noted from the call
(variables, matrix entries, faces or an isomorphism result).  Spans are
kept in memory and written out when the run ends.  Untraced runs use
the package untouched.

A layer's self time is its spans' time minus the time of their child
spans; the self times of all layers add up to the time spent inside
`cli.main`.  Targets a later version of the package no longer has are
skipped, and their metrics read 0.
"""

from __future__ import annotations

import gzip
import json
import sys
import time
from pathlib import Path


def _n_vars(args, result):
    return args[0].n_vars


def _entries(args, result):
    matrix = args[0]
    size = getattr(matrix, "size", None)
    return size if size is not None else sum(len(row) for row in matrix)


def _faces(args, result):
    return len(result.faces)


def _matched(args, result):
    return int(bool(result))


# (module, attribute, span name, what to note from a call)
TARGETS = [
    ("edgeideals.cli", "main", "cli", None),
    ("edgeideals.verify", "run_claims", "verify.run_claims", None),
    ("edgeideals.verify", "VerificationReport.as_json", "verify.render", None),
    ("edgeideals.families", "parse_family", "families.parse", None),
    ("edgeideals.families", "build_extended", "families.build", None),
    ("edgeideals.ideals", "edge_ideal", "ideals.edge_ideal", None),
    ("edgeideals.ideals", "colon_by", "ideals.colon_add", None),
    ("edgeideals.ideals", "add_variable", "ideals.colon_add", None),
    ("edgeideals.betti", "betti_table", "betti.betti_table", _n_vars),
    ("edgeideals.gf", "gf2_rank", "gf.gf2_rank", None),
    ("edgeideals.gf", "gfp_rank", "gf.gfp_rank", _entries),
    ("edgeideals.sdepth", "stanley_depth", "sdepth.stanley_depth", None),
    ("edgeideals.sdepth", "face_poset", "sdepth.face_poset", _faces),
    ("edgeideals.sdepth", "validate_partition", "sdepth.validate", None),
    ("edgeideals.recursion", "regularity_by_recursion", "recursion.regularity", None),
    ("edgeideals.decompositions", "verify_decomposition", "decompositions.verify", None),
    ("edgeideals.graphs", "is_isomorphic", "graphs.is_isomorphic", _matched),
]

# metric name -> (span name, statistic, unit); the statistics are per
# pass except "max", and "ratio" divides the noted sum by the call count
METRICS = {
    "cli.self_s": ("cli", "self", "s"),
    "verify.render_s": ("verify.render", "self", "s"),
    "verify.run_claims_self_s": ("verify.run_claims", "self", "s"),
    "families.parse_s": ("families.parse", "self", "s"),
    "families.build_s": ("families.build", "self", "s"),
    "families.build_calls": ("families.build", "calls", "count"),
    "ideals.edge_ideal_s": ("ideals.edge_ideal", "self", "s"),
    "ideals.colon_add_s": ("ideals.colon_add", "self", "s"),
    "ideals.colon_add_calls": ("ideals.colon_add", "calls", "count"),
    "betti.betti_table_s": ("betti.betti_table", "self", "s"),
    "betti.calls": ("betti.betti_table", "calls", "count"),
    "betti.max_vars": ("betti.betti_table", "max", "variables"),
    "gf.gf2_rank_s": ("gf.gf2_rank", "self", "s"),
    "gf.gf2_rank_calls": ("gf.gf2_rank", "calls", "count"),
    "gf.gfp_rank_s": ("gf.gfp_rank", "self", "s"),
    "gf.gfp_rank_calls": ("gf.gfp_rank", "calls", "count"),
    "gf.gfp_rank_entries": ("gf.gfp_rank", "sum", "entries"),
    "sdepth.stanley_depth_s": ("sdepth.stanley_depth", "self", "s"),
    "sdepth.calls": ("sdepth.stanley_depth", "calls", "count"),
    "sdepth.face_poset_s": ("sdepth.face_poset", "self", "s"),
    "sdepth.faces": ("sdepth.face_poset", "sum", "faces"),
    "sdepth.validate_s": ("sdepth.validate", "self", "s"),
    "recursion.regularity_s": ("recursion.regularity", "self", "s"),
    "recursion.calls": ("recursion.regularity", "calls", "count"),
    "decompositions.verify_s": ("decompositions.verify", "self", "s"),
    "decompositions.rule_calls": ("decompositions.verify", "calls", "count"),
    "graphs.is_isomorphic_s": ("graphs.is_isomorphic", "self", "s"),
    "graphs.is_isomorphic_calls": ("graphs.is_isomorphic", "calls", "count"),
    "graphs.iso_match_ratio": ("graphs.is_isomorphic", "ratio", "true/calls"),
}


class Tracer:
    """Span recorder; `op_id` is set by the client before each op."""

    def __init__(self):
        self.spans: list = []  # [name, start, end, parent index, op id, note]
        self.stack: list[int] = []
        self.op_id = None
        self._undo: list = []

    def _wrap(self, fn, name, note):
        spans, stack = self.spans, self.stack
        clock = time.perf_counter

        def traced(*args, **kwargs):
            span = [name, 0.0, 0.0, stack[-1] if stack else -1, self.op_id, None]
            stack.append(len(spans))
            spans.append(span)
            span[1] = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = clock()
                stack.pop()
            if note is not None:
                span[5] = note(args, result)
            return result

        return traced

    def install(self) -> None:
        """Rebind every target in each `edgeideals` module that holds it."""
        modules = [m for n, m in list(sys.modules.items())
                   if m is not None and (n == "edgeideals" or n.startswith("edgeideals."))]
        for mod_name, attr, name, note in TARGETS:
            owner = sys.modules.get(mod_name)
            if owner is None:
                continue
            if "." in attr:  # a method: rebind it on its class
                cls_name, meth = attr.split(".")
                cls = getattr(owner, cls_name, None)
                if cls is None or meth not in vars(cls):
                    continue
                orig = vars(cls)[meth]
                self._undo.append((cls, meth, orig))
                setattr(cls, meth, self._wrap(orig, name, note))
                continue
            orig = getattr(owner, attr, None)
            if orig is None:
                continue
            wrapper = self._wrap(orig, name, note)
            for mod in modules:
                for key, value in list(vars(mod).items()):
                    if value is orig:
                        self._undo.append((mod, key, orig))
                        setattr(mod, key, wrapper)

    def uninstall(self) -> None:
        for holder, key, orig in reversed(self._undo):
            setattr(holder, key, orig)
        self._undo.clear()

    def metrics(self, passes: int) -> dict[str, float]:
        """Per-layer metrics, each per pass (means over `passes`)."""
        child = [0.0] * len(self.spans)
        for name, start, end, parent, _, _ in self.spans:
            if parent >= 0:
                child[parent] += end - start
        stats: dict[str, dict] = {}
        for i, (name, start, end, _, _, note) in enumerate(self.spans):
            s = stats.setdefault(name, {"self": 0.0, "calls": 0, "sum": 0, "max": 0})
            s["self"] += end - start - child[i]
            s["calls"] += 1
            if note is not None:
                s["sum"] += note
                s["max"] = max(s["max"], note)
        out = {}
        for metric, (span, stat, _) in METRICS.items():
            s = stats.get(span, {"self": 0.0, "calls": 0, "sum": 0, "max": 0})
            if stat == "max":
                out[metric] = s["max"]
            elif stat == "ratio":
                out[metric] = s["sum"] / s["calls"] if s["calls"] else 0.0
            else:
                out[metric] = s[stat] / passes
        return out

    def self_time_total(self) -> float:
        """Time spent inside root spans, i.e. the sum of every self time."""
        return sum(end - start for _, start, end, parent, _, _ in self.spans
                   if parent < 0)

    def write(self, path: Path) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        with gzip.open(path, "wt") as fh:
            for name, start, end, parent, op_id, note in self.spans:
                fh.write(json.dumps({"name": name, "start": start, "end": end,
                                     "parent": parent, "op": op_id,
                                     "note": note}) + "\n")
