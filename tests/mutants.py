"""Mutation checks of the test suite.

MUTANTS registers small deliberate faults in src/edgeideals.  Each entry
gives the file, the exact text to replace and its replacement, the tests
expected to catch the fault, and the change the fault would undo.  Run

    python tests/mutants.py

It copies src/ to a temporary directory, applies one mutant at a time
there and runs that mutant's tests against the copy: a mutant is killed
when one of them fails, and has survived when they all pass.  A no-op
mutant (old text = new text) runs first over every registered test and
must survive; that shows the tests pass on the unchanged copy, so each
kill is the mutant's doing.  The exit status is 0 when the no-op
survives and every registered mutant is killed.

The run is opt-in, since it reruns tests once per mutant; tier-1 runs
only tests/test_mutants.py, which checks that each old text still
occurs exactly once in its file.
"""

from __future__ import annotations

import os
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path
from typing import NamedTuple

ROOT = Path(__file__).resolve().parent.parent


class Mutant(NamedTuple):
    file: str  # under src/edgeideals
    old: str
    new: str
    tests: tuple[str, ...]  # pytest node ids, from the repository root
    source: str  # the change whose guard the mutant tests


MUTANTS = {
    "step-budget-reached": Mutant(
        "recursion.py",
        "if self.steps > STEP_BUDGET:",
        "if self.steps >= STEP_BUDGET:",
        ("tests/test_recursion.py::"
         "test_step_cap_falls_where_the_ideal_recursion_stops",),
        "recursion.STEP_BUDGET bounds each call in place of max_steps"),
    "fallback-unrenumbered": Mutant(
        "betti.py",
        "_scan(0, induced_adjacency(adj, verts), char)",
        "_scan(0, adj, char)",
        ("tests/test_betti.py::"
         "test_the_fallback_gets_the_renumbered_core_and_no_killed_variable",),
        "the Betti split hands its scan the core's adjacency"),
    "split-binomial-widened": Mutant(
        "betti.py",
        "comb(d, a)",
        "comb(d + 1, a)",
        ("tests/test_betti.py::test_split_equals_scan_and_taylor_on_random_corpus",),
        "the Betti split at simplicial vertices"),
    "pivot-by-least-degree": Mutant(
        "betti.py",
        "for y in order:",
        "for y in sorted(order, key=lambda v: (adj[v] & verts).bit_count()):",
        ("tests/test_betti.py::"
         "test_split_states_grow_linearly_along_a_bristled_snake",),
        "the Betti split pivots in one breadth-first order fixed before it"),
    "pivot-not-simplicial": Mutant(
        "betti.py",
        "all(ny & ~adj[u] == 1 << u",
        "any(ny & ~adj[u] == 1 << u",
        ("tests/test_corpus.py::test_split_table_is_the_pin_and_the_subset_scan",),
        "the Betti split pivots only on simplicial vertices"),
    "koszul-factor-dropped": Mutant(
        "betti.py",
        "range(killed.bit_count())",
        "range(killed.bit_count() - 1)",
        ("tests/test_betti.py::test_killed_variables_tensor_with_koszul_factors",),
        "the Betti split applies one Koszul factor per killed variable"),
    "fold-on-any-overlap": Mutant(
        "betti.py",
        "neigh[iv] | nu == nu",
        "neigh[iv] & nu",
        ("tests/test_corpus.py::test_split_table_is_the_pin_and_the_subset_scan",),
        "the scan's dominated-vertex folds, checked against the plain scan"),
    "lacking-axis-accepted": Mutant(
        "verify.py",
        "lacking = [name for name in override if name not in params]",
        "lacking = []",
        ("tests/test_verify.py::test_run_claims_refuses_an_unknown_claim_or_axis",
         "tests/test_cli.py::test_verify_refusals_print_their_exact_message"),
        "run_claims checks the claims and axes it is asked for"),
    "live-vertices-unmasked": Mutant(
        "graphs.py",
        "if adjacency[low.bit_length() - 1] & vertices:",
        "if adjacency[low.bit_length() - 1]:",
        ("tests/test_graphs.py::test_live_vertices_match_the_neighbour_filter",),
        "one live-vertex rule for the Betti split, recursion and replay"),
    "induced-adjacency-shifted": Mutant(
        "graphs.py",
        "m |= 1 << (comp & (low - 1)).bit_count()",
        "m |= 1 << (comp & (low - 1)).bit_count() + 1",
        ("tests/test_ideals.py::"
         "test_induced_adjacency_is_the_graph_of_the_compacted_ideal",),
        "graph_parts and induced_adjacency in the Betti engine"),
    "cycle-from-two": Mutant(
        "families.py",
        '"cycle": _Kind({"n": 3},',
        '"cycle": _Kind({"n": 2},',
        ("tests/test_families.py::test_every_family_refusal_keeps_its_message",),
        "one table row per family kind"),
    "colon-first-pivot-only": Mutant(
        "decompositions.py",
        "for v in vars_of(pivot):",
        "for v in vars_of(pivot)[:1]:",
        ("tests/test_decomp.py::test_replay_bristled_small",
         "tests/test_decomp.py::test_replay_full_catalogue"),
        "the replay reads each quotient off the parent's adjacency masks"),
    "free-count-keeps-killed": Mutant(
        "decompositions.py",
        "len(adj) - killed.bit_count() - live.bit_count()",
        "len(adj) - live.bit_count()",
        ("tests/test_decomp.py::test_replay_snakes_small",
         "tests/test_decomp.py::test_wrong_free_count_fails_the_accounting"),
        "the replay reads each quotient off the parent's adjacency masks"),
    "colon-pivot-unchecked": Mutant(
        "decompositions.py",
        "if killed & pivot:",
        "if False:",
        ("tests/test_decomp.py::"
         "test_quotient_matches_the_ideal_route_on_random_graphs",),
        "the replay refuses a colon pivot that is not independent"),
    "cap-below-minus-five": Mutant(
        "cli.py",
        "if value < 0:",
        "if value < -5:",
        ("tests/test_cli.py::test_a_negative_cap_exits_two_naming_its_flag",),
        "the cap flags refuse a negative value"),
    "memo-keyed-on-degrees": Mutant(
        "sdepth.py",
        "        hit = self.memo.get(adj)\n"
        "        if hit is None:\n"
        "            hit = self.memo[adj] = self.solve(adj)[0]",
        "        key = (len(adj), tuple(sorted(m.bit_count() for m in adj)))\n"
        "        hit = self.memo.get(key)\n"
        "        if hit is None:\n"
        "            hit = self.memo[key] = self.solve(adj)[0]",
        ("tests/test_sdepth.py::"
         "test_one_solver_tells_apart_graphs_with_one_degree_sequence",
         "tests/test_sdepth.py::test_search_matches_its_pinned_nodes_and_witnesses"),
        "the search memoises colon values on the colon graph alone"),
    "greedy-overlaps-covered": Mutant(
        "sdepth.py",
        "m in face_set and not covered >> index[m] & 1",
        "m in face_set",
        ("tests/test_outputs.py::test_cli_outputs_match_the_pins",
         "tests/test_sdepth.py::test_search_matches_its_pinned_nodes_and_witnesses"),
        "the greedy witness grows each top in one pass over the variables"),
    "greedy-stops-at-one-variable": Mutant(
        "sdepth.py",
        "                top = cand\n",
        "                top = cand\n"
        "                break\n",
        ("tests/test_outputs.py::test_cli_outputs_match_the_pins",
         "tests/test_sdepth.py::test_search_matches_its_pinned_nodes_and_witnesses"),
        "the greedy witness grows each top in one pass over the variables"),
    "node-budget-dropped": Mutant(
        "sdepth.py",
        "if self.solver.nodes > SEARCH_NODE_BUDGET:",
        "if False:",
        ("tests/test_sdepth.py::test_node_budget_fails_loudly",),
        "the exact search fails loudly past SEARCH_NODE_BUDGET nodes"),
    "prune-too-strong": Mutant(
        "sdepth.py",
        "if (covers & ~step).bit_count() < need:",
        "if (covers & ~step).bit_count() <= need:",
        ("tests/test_sdepth.py::test_prune_decides_every_node_as_the_full_scan",),
        "the incremental prune of the skeleton search"),
    "mask-colon-free-keeps-neighbours": Mutant(
        "sdepth.py",
        "free = n - adj[v].bit_count() - live.bit_count()",
        "free = n - live.bit_count()",
        ("tests/test_sdepth.py::test_search_matches_its_pinned_nodes_and_witnesses",
         "tests/test_sdepth.py::test_paths_match_the_closed_form",
         "tests/test_sdepth.py::test_mask_colon_matches_colon_then_compact"),
        "the search takes each colon on the graph's adjacency masks"),
    "homology-signs-dropped": Mutant(
        "betti.py",
        "sign = -sign",
        "sign = sign",
        ("tests/test_betti.py::test_split_equals_scan_and_taylor_on_random_corpus",),
        "every field ranks the scan's sparse rows of signs with gfp_rank"),
    "probe-skips-a-size": Mutant(
        "sdepth.py",
        "d -= 1",
        "d -= 2",
        ("tests/test_sdepth.py::test_probes_step_down_one_size_at_a_time",),
        "the exact search steps down from its bound one size at a time"),
    "spent-probe-as-infeasible": Mutant(
        "sdepth.py",
        "probe.d if probe.frames else probe.d - 1",
        "probe.d - 1",
        ("tests/test_sdepth.py::test_search_matches_its_pinned_nodes_and_witnesses",),
        "a probe that spends its allowance decides nothing"),
    "spent-probe-restarted": Mutant(
        "sdepth.py",
        "search = probe if d == probe.d else _Search(faces, d, self)",
        "search = _Search(faces, d, self)",
        ("tests/test_sdepth.py::test_search_matches_its_pinned_nodes_and_witnesses",
         "tests/test_sdepth.py::test_probes_step_down_one_size_at_a_time"),
        "a probe that spends its allowance is resumed, not restarted"),
    "probe-at-largest-face": Mutant(
        "sdepth.py",
        "if closed == full:",
        "if face == faces[-1]:",
        ("tests/test_sdepth.py::test_search_matches_its_pinned_nodes_and_witnesses",
         "tests/test_corpus.py::"
         "test_the_probe_size_is_the_least_maximal_independent_set"),
        "the first probe is at the least maximal independent set"),
    "edge-pairs-reversed": Mutant(
        "graphs.py",
        "for b in vars_of(m) if b > a)",
        "for b in vars_of(m) if b < a)",
        ("tests/test_graphs.py::test_duplicate_edges_collapse",
         "tests/test_graphs.py::test_edges_are_the_sorted_index_pairs_on_every_kind"),
        "a graph stores only its adjacency masks and reads its edges off them"),
    "graph-parts-takes-cubics": Mutant(
        "ideals.py",
        "elif high & (high - 1):",
        "elif False:",
        ("tests/test_ideals.py::test_graph_parts_classifies_generators",),
        "graph_parts is the one graph-form check of every engine"),
    "verify-rows-always-pass": Mutant(
        "verify.py",
        'status = "pass" if same else "fail"',
        'status = "pass"',
        ("tests/test_verify.py::test_a_broken_closed_form_fails_a_stated_cell",
         "tests/test_verify.py::test_a_disagreeing_route_fails_on_any_cell"),
        "one status rule decides every verify row"),
    "verify-exit-always-zero": Mutant(
        "cli.py",
        "return 0 if report.ok else 1",
        "return 0",
        ("tests/test_verify.py::test_a_broken_closed_form_fails_a_stated_cell",),
        "verify exits 1 when a stated check fails"),
    "observational-compared": Mutant(
        "verify.py",
        "elif not stated:",
        "elif False:",
        ("tests/test_verify.py::"
         "test_a_broken_closed_form_stays_observational_outside_its_range",),
        "a closed form outside its stated range never fails a row"),
    "first-fit-keeps-its-pick": Mutant(
        "decompositions.py",
        "del unused[j]",
        "pass",
        ("tests/test_decomp.py::test_replay_full_catalogue",),
        "the replay matches factors to components by first fit"),
    "leftover-components-ignored": Mutant(
        "decompositions.py",
        "matched = not unused",
        "matched = True",
        ("tests/test_decomp.py::test_more_components_than_factors_match_none",),
        "the replay matches factors to components by first fit"),
    "spec-digits-any-script": Mutant(
        "families.py",
        '_DIGITS = re.compile(r"[0-9]*")',
        '_DIGITS = re.compile(r"\\d*")',
        ("tests/test_cli.py::test_degenerate_refusals_keep_their_message",),
        "parse_family splits the spec into one token list"),
    "top-level-name-at-its-token": Mutant(
        "families.py",
        "if not i:",
        "if False:",
        ("tests/test_cli.py::test_degenerate_refusals_keep_their_message",),
        "parse_family splits the spec into one token list"),
    "render-keys-unsorted": Mutant(
        "render.py",
        "for k, v in sorted(o.items())]",
        "for k, v in o.items()]",
        ("tests/test_outputs.py::test_cli_outputs_match_the_pins",
         "tests/test_render.py::test_json_text_is_json_dumps_byte_for_byte"),
        "json_text writes reports without json's pure-Python encoder"),
    "render-empty-padded": Mutant(
        "render.py",
        'return "[]"',
        "pass",
        ("tests/test_render.py::test_named_documents_render_as_json_does",),
        "json_text writes reports without json's pure-Python encoder"),
    "render-fallback-unshifted": Mutant(
        "render.py",
        '.replace("\\n", pad)',
        "",
        ("tests/test_render.py::test_named_documents_render_as_json_does",),
        "json_text writes reports without json's pure-Python encoder"),
    "render-non-ascii-raw": Mutant(
        "render.py",
        "import encode_basestring_ascii as _quote",
        "import encode_basestring as _quote",
        ("tests/test_render.py::test_json_text_is_json_dumps_byte_for_byte",),
        "json_text writes reports without json's pure-Python encoder"),
    "runconfig-field-unchecked": Mutant(
        "verify.py",
        "        check_prime(characteristic)\n",
        "",
        ("tests/test_verify.py::test_run_config_refuses_a_bad_field",),
        "RunConfig checks the field once per verify run"),
    "limit-name-drift": Mutant(
        "sdepth.py",
        'limit="node_budget"',
        'limit="node-budget"',
        ("tests/test_limits.py::test_every_raised_limit_has_exactly_one_hint",
         "tests/test_cli.py::test_node_budget_refusal_says_no_flag_lifts_it"),
        "every size limit raises SizeLimitError with a hinted limit name"),
    "grid-limit-unchecked": Mutant(
        "verify.py",
        "if size > GRID_LIMIT:",
        "if False:",
        ("tests/test_verify.py::"
         "test_a_grid_past_the_limit_is_refused_before_its_first_cell",
         "tests/test_cli.py::test_a_grid_past_the_limit_exits_two_at_once"),
        "verify counts a run's cells and refuses past GRID_LIMIT"),
    "record-on-dataclasses": Mutant(
        "recursion.py",
        "class RegInterval(NamedTuple):",
        "from dataclasses import dataclass\n\n\n"
        "@dataclass(frozen=True)\nclass RegInterval:",
        ("tests/test_exports.py::"
         "test_no_cli_call_imports_dataclasses_or_inspect",),
        "every record is a NamedTuple or a slotted class"),
    "twin-reused-off-chordal": Mutant(
        "verify.py",
        "if is_chordal(graph.adjacency):",
        "if True:",
        ("tests/test_verify.py::"
         "test_cross_field_recomputes_the_twin_only_off_chordal_cells",),
        "--cross-field reuses the first table on chordal graphs alone"),
    "chordal-skips-clique-check": Mutant(
        "graphs.py",
        "if earlier & ~adjacency[last] != 1 << last:",
        "if False:",
        ("tests/test_corpus.py::test_is_chordal_is_networkx_on_every_graph",),
        "is_chordal checks each vertex's visited neighbours for a clique"),
    "refusal-as-plain-valueerror": Mutant(
        "gf.py",
        'raise InvalidParameterError(f"characteristic {p} is not prime")',
        'raise ValueError(f"characteristic {p} is not prime")',
        ("tests/test_cli.py::test_field_flag_rejects_composite",),
        "every refused argument raises InvalidParameterError or SizeLimitError"),
    "parse-error-outside-invalid": Mutant(
        "errors.py",
        "class FamilySpecParseError(InvalidParameterError):",
        "class FamilySpecParseError(EdgeIdealsError, ValueError):",
        ("tests/test_limits.py::"
         "test_errors_define_the_two_refusal_types_under_one_base",),
        "every refused argument raises InvalidParameterError or SizeLimitError"),
    "verdict-as-refusal": Mutant(
        "sdepth.py",
        'raise ValueError("partition does not cover the face poset")',
        'raise InvalidParameterError("partition does not cover the face poset")',
        ("tests/test_limits.py::test_every_raise_is_a_refusal_or_a_listed_fault",),
        "the witness checker's verdicts stay faults, not refusals"),
}


def run_tests(src: Path, tests) -> int:
    """pytest's exit status for the given tests, run against src."""
    paths = [str(src), *filter(None, [os.environ.get("PYTHONPATH")])]
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(paths),
               PYTHONDONTWRITEBYTECODE="1")
    return subprocess.run(
        [sys.executable, "-m", "pytest", "-q", "-x", "-p", "no:cacheprovider",
         *tests], cwd=ROOT, env=env, stdout=subprocess.DEVNULL,
        stderr=subprocess.DEVNULL).returncode


def check(mutant: Mutant, src: Path) -> str:
    """Apply the mutant to the copy at src, run its tests and undo it."""
    path = src / "edgeideals" / mutant.file
    text = path.read_text()
    if text.count(mutant.old) != 1:
        return f"error: the old text occurs {text.count(mutant.old)} times"
    path.write_text(text.replace(mutant.old, mutant.new))
    try:
        code = run_tests(src, mutant.tests)
    finally:
        path.write_text(text)
    return {0: "survived", 1: "killed"}.get(code, f"error: pytest exit {code}")


def main() -> int:
    first = next(iter(MUTANTS.values()))
    every_test = tuple(dict.fromkeys(t for m in MUTANTS.values() for t in m.tests))
    noop = first._replace(new=first.old, tests=every_test)
    with tempfile.TemporaryDirectory() as tmp:
        src = Path(tmp) / "src"
        shutil.copytree(ROOT / "src", src,
                        ignore=shutil.ignore_patterns("__pycache__"))
        control = check(noop, src)
        print(f"{control:<9} no-op (control)")
        results = {}
        for name, mutant in MUTANTS.items():
            results[name] = check(mutant, src)
            print(f"{results[name]:<9} {name}: {mutant.source}")
    survivors = [name for name, status in results.items() if status != "killed"]
    print(f"{len(results) - len(survivors)} of {len(results)} mutants killed"
          + (f"; not killed: {', '.join(survivors)}" if survivors else ""))
    return 0 if control == "survived" and not survivors else 1


if __name__ == "__main__":
    sys.exit(main())
