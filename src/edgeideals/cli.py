"""Command-line front end.

Subcommands: gen (emit a family graph as DOT), inv (invariants of its
edge-ideal quotient), sdepth (exact Stanley depth with a witness),
decomp (replay the induction decompositions of a family), and verify
(run formula claims over parameter grids and report pass/fail).

Output is deterministic for a fixed command line; verify exits nonzero
exactly when a stated claim fails.

Importing this module loads only argparse and the package's errors
module, which holds the default caps.  Each handler imports the engines
it runs, so gen, inv, sdepth and decomp never load verify.  It imports
them as modules in one `from . import` statement, which runs on every
call: once the modules are loaded that costs about 1-2 us in all, where
each `from .x import name` statement costs about 3 us.
"""

from __future__ import annotations

import argparse
import functools
import sys

from .errors import (DEFAULT_EXACT_CAP, DEFAULT_HOCHSTER_CAP, EdgeIdealsError,
                     SizeLimitError)

# What helps past each size limit; every hint says "cap", which scripts
# reading stderr key on.
_LIMIT_HINTS = {
    "hochster_cap": "raise --hochster-cap, or pick smaller parameters",
    "sdepth_cap": "raise --sdepth-cap, or pick smaller parameters",
    "node_budget": "no cap flag lifts the search node budget; "
                   "pick smaller parameters",
    "step_budget": "no cap flag lifts the recursion step budget; "
                   "pick smaller parameters",
    "primality_bound": "no cap flag lifts the primality bound; "
                       "pick a smaller prime",
    "taylor_cap": "no cap flag lifts the Taylor cap; pick fewer generators",
    "poset_cap": "no cap flag lifts the poset cap; pick smaller parameters",
    "build_limit": "no cap flag lifts this limit; pick smaller parameters",
    "grid_limit": "no cap flag lifts the grid limit; pick shorter ranges",
}


def _emit(text: str, out_path: str | None) -> None:
    if out_path:
        with open(out_path, "w") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _parse_range(text: str) -> range:
    """'2' -> range(2, 3); '1..4' -> range(1, 5), kept lazy so that
    verify counts its cells before it makes any.

    A malformed or empty range raises ArgumentTypeError, which argparse
    reports with the flag's name before exiting with status 2.
    """
    lo, dots, hi = text.partition("..")
    try:
        values = range(int(lo), int(hi if dots else lo) + 1)
    except ValueError:
        raise argparse.ArgumentTypeError(
            f"expected an integer or a range like 1..4, got {text!r}") from None
    if not values:
        raise argparse.ArgumentTypeError(
            f"empty range {text!r}: its low end is above its high end")
    return values


def _cap(text: str) -> int:
    """A cap flag's value: 0 or more, refused with the flag's name."""
    try:
        value = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"invalid int value: {text!r}") from None
    if value < 0:
        raise argparse.ArgumentTypeError(
            f"expected a non-negative integer, got {value}")
    return value


def cmd_gen(args) -> int:
    from . import families, graphs, render

    spec = families.parse_family(args.spec)
    graph = families.build_extended(spec)
    if args.format == "json":
        doc = {
            "spec": str(spec),
            "vertices": [lab.name for lab in graph.labels],
            "edges": [[graph.labels[a].name, graph.labels[b].name]
                      for a, b in graph.edges],
            "n_vertices": graph.n_vertices,
            "n_edges": graph.n_edges,
        }
        _emit(render.json_text(doc), args.out)
    else:
        _emit(graphs.to_dot(graph), args.out)
    return 0


def cmd_inv(args) -> int:
    from . import betti, families, ideals, render, sdepth

    spec = families.parse_family(args.spec)
    betti.check_size(families.expected_counts(spec)[0], args.field,
                     args.hochster_cap)
    ideal = ideals.edge_ideal(families.build_extended(spec))
    inv = betti.invariants(ideal, args.field, max_vars=args.hochster_cap)
    doc = {
        "spec": str(spec),
        "n_vars": ideal.n_vars,
        "field": f"GF({args.field})",
        "reg": inv.regularity,
        "pdim": inv.projective_dimension,
        "depth": inv.depth,
        "hochster_cap": args.hochster_cap,
        "sdepth_cap": args.sdepth_cap,
    }
    try:
        value, _ = sdepth.stanley_depth(ideal, args.sdepth_cap)
        doc["sdepth"] = value
    except SizeLimitError:
        doc["sdepth"] = None
    if args.format == "text":
        keys = ["n_vars", "depth", "sdepth", "reg", "pdim"]
        body = "\n".join(f"{k}: {doc[k]}" for k in keys if doc[k] is not None)
        _emit(f"{doc['spec']} over {doc['field']}\n{body}\n", args.out)
    elif args.format == "csv":
        keys = sorted(doc)
        _emit(render.csv_line(keys) + "\n"
              + render.csv_line([doc[k] for k in keys]) + "\n", args.out)
    else:
        _emit(render.json_text(doc), args.out)
    return 0


def cmd_sdepth(args) -> int:
    from . import families, ideals, render, sdepth

    spec = families.parse_family(args.spec)
    n_vertices, n_edges = families.expected_counts(spec)
    # family graphs are connected: every vertex is live once there is an edge
    sdepth.check_live(n_vertices if n_edges else 0, args.sdepth_cap)
    graph = families.build_extended(spec)
    ideal = ideals.edge_ideal(graph)
    value, witness = sdepth.stanley_depth(ideal, args.sdepth_cap)
    sdepth.validate_partition(ideals.faces_of(ideal.n_vars, ideal.gens), witness)
    names = [lab.name for lab in graph.labels]
    doc = {
        "spec": str(spec),
        "sdepth": value,
        "intervals": witness.to_json_dict(names),
    }
    if args.format == "text":
        lines = [f"{doc['spec']}: sdepth = {value}"]
        for pair in doc["intervals"]:
            lines.append(f"  [{'*'.join(pair['lower']) or '1'}, "
                         f"{'*'.join(pair['upper']) or '1'}]")
        _emit("\n".join(lines) + "\n", args.out)
    else:
        _emit(render.json_text(doc), args.out)
    return 0


def cmd_decomp(args) -> int:
    from . import decompositions, families, render

    spec = families.parse_family(args.spec)
    reports = decompositions.replay_family(spec)
    ok = all(r.ok for r in reports)
    if args.format == "text":
        lines = []
        for r in reports:
            mark = "ok " if r.ok else "FAIL"
            facs = ", ".join(f.expected for f in r.factors) or "nothing"
            lines.append(f"[{mark}] {r.rule_id} pivot {r.pivot}: "
                         f"{facs} + {r.expected_free} free")
        if not reports:
            lines.append(f"no catalogued decomposition rules for {spec}")
        else:
            lines.append("all rules pass" if ok else "some rules FAILED")
        _emit("\n".join(lines) + "\n", args.out)
    else:
        doc = {"spec": str(spec), "ok": ok,
               "rules": [r.as_dict() for r in reports]}
        _emit(render.json_text(doc), args.out)
    return 0 if ok else 1


def cmd_verify(args) -> int:
    from . import verify

    override = {name: getattr(args, name) for name in ("n", "p", "q", "u")
                if getattr(args, name) is not None}
    claim_ids = sorted(verify.CLAIMS) if args.claim == "all" else [args.claim]
    config = verify.RunConfig(
        characteristic=args.field, cross_field=args.cross_field,
        hochster_cap=args.hochster_cap, sdepth_cap=args.sdepth_cap,
        include_durations=args.durations)
    report = verify.run_claims(claim_ids, config, override or None)
    as_format = {"json": report.as_json, "text": report.as_text,
                 "csv": report.as_csv}[args.format]
    _emit(as_format(), args.out)
    return 0 if report.ok else 1


_FLAGS = {
    "--field": dict(type=int, default=2,
                    help="prime field characteristic (default 2)"),
    "--hochster-cap": dict(type=_cap, default=DEFAULT_HOCHSTER_CAP,
                           help="max ambient variables for exact homology"),
    "--sdepth-cap": dict(type=_cap, default=DEFAULT_EXACT_CAP,
                         help="max live variables for exact Stanley depth"),
}


def _add_common(parser: argparse.ArgumentParser, formats: list[str],
                flags=()) -> None:
    """--format (its first choice is the default), --out and the given flags."""
    parser.add_argument("--format", choices=formats, default=formats[0])
    parser.add_argument("--out", help="write output to this file")
    for flag in flags:
        parser.add_argument(flag, **_FLAGS[flag])


@functools.lru_cache(maxsize=None)
def build_parser() -> argparse.ArgumentParser:
    """The argument parser, built on first use and shared after that.
    Each subcommand accepts only the flags it reads."""
    parser = argparse.ArgumentParser(
        prog="edgeideals",
        description="edge-ideal invariants of snake-family graphs")
    sub = parser.add_subparsers(dest="command", required=True)

    p_gen = sub.add_parser("gen", help="emit a family graph")
    p_gen.add_argument("spec", help='e.g. "brs(q=3,tsnake(n=3,p=3))"')
    _add_common(p_gen, ["dot", "json"])
    p_gen.set_defaults(func=cmd_gen)

    p_inv = sub.add_parser("inv", help="invariants of the edge-ideal quotient")
    p_inv.add_argument("spec")
    _add_common(p_inv, ["json", "text", "csv"], _FLAGS)
    p_inv.set_defaults(func=cmd_inv)

    p_sd = sub.add_parser("sdepth", help="exact Stanley depth with witness")
    p_sd.add_argument("spec")
    _add_common(p_sd, ["json", "text"], ["--sdepth-cap"])
    p_sd.set_defaults(func=cmd_sdepth)

    p_dec = sub.add_parser("decomp", help="replay induction decompositions")
    p_dec.add_argument("spec")
    _add_common(p_dec, ["json", "text"])
    p_dec.set_defaults(func=cmd_decomp)

    p_ver = sub.add_parser("verify", help="verify formula claims on a grid")
    p_ver.add_argument("claim", help='claim id or "all"')
    p_ver.add_argument("--n", type=_parse_range, help="range like 1..4")
    p_ver.add_argument("--p", type=_parse_range, help="range like 1..2")
    p_ver.add_argument("--q", type=_parse_range, help="range like 1..2")
    p_ver.add_argument("--u", type=_parse_range, help="range like 1..6")
    p_ver.add_argument("--cross-field", action="store_true",
                       help="also compute the Betti table over GF(3), or over "
                       "GF(2) when --field is not 2, and compare")
    p_ver.add_argument("--durations", action="store_true",
                       help="include wall-clock durations in the report")
    _add_common(p_ver, ["json", "text", "csv"], _FLAGS)
    p_ver.set_defaults(func=cmd_verify)
    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except SizeLimitError as exc:
        print(f"error: {exc}\nhint: {_LIMIT_HINTS[exc.limit]}", file=sys.stderr)
        return 2
    except EdgeIdealsError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except OSError as exc:
        if not args.out:  # only --out is opened for writing
            raise
        print(f"error: cannot write {args.out}: {exc.strerror or exc}",
              file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
