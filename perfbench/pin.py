"""Regenerate `expected.json`: every op's answer, cross-checked by other routes.

    python3 perfbench/pin.py        # from the root of a checkout

Each answer is taken from the CLI and must agree with every independent
route that applies to its cell, or nothing is written:

  closed_form   the catalogued formula, where the cell is in its stated range
  recursion     `regularity_by_recursion` for reg
  other_field   the same invariants over GF(3) (or GF(2) for a GF(3) op)
  taylor        `betti_table_taylor`, for ideals with at most 12 generators
  path_formula  sdepth(S/I(P_n)) = ceil(n/3)
  cycle_formula Cimpoeas: sdepth(S/I(C_n)) = ceil((n-1)/3) for n = 0, 2 mod 3,
                and lies between ceil((n-1)/3) and ceil(n/3) for n = 1 mod 3
  validate      `validate_partition` on the Stanley depth witness
  verify_rows   for `verify` ops: no fail row, and the closed-form,
                recursion and field-agree rows all pass

The big-prime `inv` op is pinned from GF(2) and GF(3), which agree; at
seed the CLI reports another pdim and depth for it (ROADMAP item 4), so
it is listed under known_defects and still counts as a failed op.
Ladder rungs too large to run here are pinned from the formulas alone.
"""

from __future__ import annotations

import json
import math
import sys
from pathlib import Path

import checks
import client
import ladder

HERE = Path(__file__).resolve().parent
BIG_PRIME = "1099511627791"
LADDER_RUN_UP_TO = {"scan": 19, "sdepth": 10, "replay": 48}  # variables
ABOUT = ("Pinned answers of every op and ladder rung, written by perfbench/pin.py; "
         "each entry lists the independent routes that agreed with it.")
KNOWN_DEFECTS = {
    f"inv cycle(6) --field {BIG_PRIME}":
        "ROADMAP item 4: gfp_rank overflows int64 for primes >= 2^32",
}


class Pinner:
    def __init__(self, root: Path):
        self.cli = client.load_cli(root)
        import edgeideals as ei
        self.ei = ei

    def ideal(self, spec: str):
        ei = self.ei
        return ei.edge_ideal(ei.build_extended(ei.parse_family(spec)))

    def closed_form(self, spec: str):
        """The catalogue entry of `spec`, or None for a family it lacks."""
        try:
            return self.ei.closed_form(self.ei.parse_family(spec), allow_observational=True)
        except self.ei.EdgeIdealsError:
            return None

    def run(self, argv: list[str]) -> dict:
        res = client.run_op(self.cli, argv)
        if res.rc != 0:
            raise SystemExit(f"{' '.join(argv)} exited {res.rc}: {res.err}")
        return json.loads(res.out)

    def invariant_routes(self, spec: str, field: int, got: dict) -> list[str]:
        """Cross-check reg/pdim/depth of `spec` over `field`; return routes used."""
        ei = self.ei
        ideal = self.ideal(spec)
        routes = []
        form = self.closed_form(spec)
        if form is not None and form.stated:
            for name in ("reg", "pdim", "depth"):
                if name in form.values:
                    agree(form.values[name], got[name], spec, f"closed_form {name}")
            routes.append("closed_form")
        rec = ei.regularity_by_recursion(ideal)
        agree(rec.lo if rec.is_point else None, got["reg"], spec, "recursion")
        routes.append("recursion")
        other = ei.invariants(ideal, 3 if field == 2 else 2, max_vars=64)
        agree((other.regularity, other.projective_dimension, other.depth),
              (got["reg"], got["pdim"], got["depth"]), spec, "other_field")
        routes.append("other_field")
        if len(ideal.gens) <= 12:
            table = ei.betti_table_taylor(ideal, field)
            agree((table.regularity, table.projective_dimension),
                  (got["reg"], got["pdim"]), spec, "taylor")
            routes.append("taylor")
        return routes

    def sdepth_routes(self, spec: str, doc: dict) -> list[str]:
        ei = self.ei
        ideal = self.ideal(spec)
        names = self.run(["gen", spec, "--format", "json"])["vertices"]
        index = {name: i for i, name in enumerate(names)}
        intervals = tuple(sorted(
            (sum(1 << index[v] for v in p["lower"]), sum(1 << index[v] for v in p["upper"]))
            for p in doc["intervals"]))
        poset = ei.face_poset(ideal, cap=max(14, ideal.n_vars))
        ei.validate_partition(poset, ei.IntervalPartition(ideal.n_vars, intervals))
        routes = ["validate"]
        value = doc["sdepth"]
        fam = ei.parse_family(spec)
        if fam.kind == "path":
            agree(math.ceil(fam.n / 3), value, spec, "path_formula")
            routes.append("path_formula")
        if fam.kind == "cycle":
            lo, hi = math.ceil((fam.n - 1) / 3), math.ceil(fam.n / 3)
            if fam.n % 3 != 1:
                hi = lo
            if not lo <= value <= hi:
                raise SystemExit(f"{spec}: sdepth {value} outside [{lo}, {hi}]")
            routes.append("cycle_formula")
        form = self.closed_form(spec)
        if form is not None and form.stated and "sdepth" in form.values:
            agree(form.values["sdepth"], value, spec, "closed_form")
            routes.append("closed_form")
        return routes

    def pin(self, argv: list[str]) -> dict:
        kind, spec = argv[0], argv[1]
        if kind == "verify":
            doc = self.run(argv)
            rows = {c["invariant"]: {"computed": c["computed"], "status": c["status"]}
                    for c in doc["cells"]}
            if any(r["status"] == "fail" for r in rows.values()):
                raise SystemExit(f"{' '.join(argv)}: a row fails")
            for name in ("reg-recursion", "field-agree"):
                if rows[name]["status"] != "pass":
                    raise SystemExit(f"{' '.join(argv)}: {name} does not pass")
            cell_spec = doc["cells"][0]["family"]
            routes = ["verify_rows"]
            ideal = self.ideal(cell_spec)
            if len(ideal.gens) <= 12:
                ei = self.ei
                agree(ei.betti_table_taylor(ideal, 2), ei.betti_table(ideal, 2),
                      cell_spec, "taylor")
                routes.append("taylor")
            return {"n_vars": ideal.n_vars, "rows": rows, "routes": routes}
        field = int(argv[argv.index("--field") + 1]) if "--field" in argv else 2
        if kind == "inv":
            doc = self.run(argv)
            names = ["reg", "pdim", "depth"] + (["sdepth"] if doc["sdepth"] is not None else [])
            if argv[-1] == BIG_PRIME:
                inv = self.ei.invariants(self.ideal(spec), 2)
                doc.update(reg=inv.regularity, pdim=inv.projective_dimension,
                           depth=inv.depth)
                field = 2
            fields = {name: doc[name] for name in names}
            routes = self.invariant_routes(spec, field, fields)
            return {"n_vars": doc["n_vars"], "fields": fields, "routes": routes}
        if kind == "sdepth":
            doc = self.run(argv)
            return {"n_vars": self.ideal(spec).n_vars, "fields": {"sdepth": doc["sdepth"]},
                    "witness": True, "routes": self.sdepth_routes(spec, doc)}
        if kind == "decomp":
            doc = self.run(argv)
            rules = {r["rule"]: r["ok"] for r in doc["rules"]}
            if not doc["ok"] or not all(rules.values()):
                raise SystemExit(f"{' '.join(argv)}: a rule fails")
            return {"n_vars": self.ideal(spec).n_vars, "fields": {"ok": True},
                    "rules": rules, "routes": ["replay"]}
        raise SystemExit(f"cannot pin {argv}")

    def pin_rung(self, workload: str, argv: list[str], n_vars: int) -> dict:
        """Formula answer of a ladder rung, checked against a run if small."""
        ei = self.ei
        fam = ei.parse_family(argv[1])
        if workload == "scan":
            want = {"n_vars": n_vars, "fields": {"reg": math.ceil((fam.n + 1) / 2)},
                    "routes": ["closed_form"]}
        elif workload == "sdepth":
            want = {"n_vars": n_vars, "fields": {"sdepth": math.ceil(fam.n / 3)},
                    "witness": True, "routes": ["path_formula"]}
        else:
            want = {"n_vars": n_vars, "fields": {"ok": True},
                    "rules": {r.rule_id: True for r in ei.rules_for(fam)},
                    "routes": ["catalogue"]}
        if n_vars <= LADDER_RUN_UP_TO[workload]:
            got = self.pin(argv)
            agree({k: got["fields"][k] for k in want["fields"]}, want["fields"],
                  argv[1], "formula")
            want = {**got, "routes": sorted(set(got["routes"]) | set(want["routes"]))}
        return want


def agree(a, b, spec: str, route: str) -> None:
    if a != b:
        raise SystemExit(f"{spec}: {route} gives {a!r}, the CLI {b!r}")


def main() -> None:
    pinner = Pinner(Path.cwd())
    with open(HERE / "workloads.json") as fh:
        doc = json.load(fh)
    out = {"about": ABOUT, "known_defects": KNOWN_DEFECTS,
           "ops": {}, "rungs": {}}
    for name, work in doc["workloads"].items():
        for argv in work["ops"]:
            out["ops"][checks.op_key(argv)] = pinner.pin(argv)
            print(name, checks.op_key(argv), file=sys.stderr)
        if work["ladder"]:
            for argv, n_vars in ladder.rungs(work["ladder"]):
                out["rungs"][checks.op_key(argv)] = pinner.pin_rung(name, argv, n_vars)
    write_expected(out)


def write_expected(out: dict) -> None:
    """One line per op, so a re-pin diffs op by op."""
    parts = [f" {json.dumps(key)}: {json.dumps(out[key])}" for key in ("about", "known_defects")]
    for table in ("ops", "rungs"):
        rows = [f"  {json.dumps(k)}: {json.dumps(v, sort_keys=True)}"
                for k, v in out[table].items()]
        parts.append(f" {json.dumps(table)}: {{\n" + ",\n".join(rows) + "\n }")
    with open(HERE / "expected.json", "w") as fh:
        fh.write("{\n" + ",\n".join(parts) + "\n}\n")


if __name__ == "__main__":
    main()
