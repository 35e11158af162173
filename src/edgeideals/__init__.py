"""Edge ideals of snake-family graphs: invariants and formula checks.

Build the graph families (snakes, cycle snakes, stars, bristlings),
take edge ideals, and compute regularity, projective dimension, depth,
and Stanley depth of the quotients from first principles.  The paper's
closed forms are the rows of verify.CLAIMS, one per claim; they and the
induction decompositions behind them are machine-verified on parameter
grids.

Importing the package loads none of its modules: each exported name is
looked up in its home module on first use (PEP 562), so a CLI call
loads only the engines its subcommand runs.
"""

import importlib

__version__ = "0.1.0"

# each exported name and the module that defines it, in __all__ order
_HOME = {
    "BettiTable": "betti", "CLAIMS": "verify", "ClosedForm": "verify",
    "DecompositionReport": "decompositions",
    "DecompositionRule": "decompositions", "EdgeIdealsError": "errors",
    "FamilySpec": "families",
    "FamilySpecParseError": "errors", "IntervalPartition": "sdepth",
    "InvalidParameterError": "errors", "LabeledGraph": "graphs",
    "MonomialIdeal": "ideals", "RegInterval": "recursion",
    "RunConfig": "verify",
    "SizeLimitError": "errors", "VerificationReport": "verify",
    "VertexLabel": "graphs", "betti_table": "betti",
    "betti_table_taylor": "taylor", "bristled": "families",
    "bristled_star": "families", "build_extended": "families",
    "closed_form": "verify", "cycle": "families", "edge_ideal": "ideals",
    "expected_counts": "families", "face_poset": "sdepth",
    "invariants": "betti", "is_isomorphic": "graphs", "mask_of": "graphs",
    "ouroboros": "families", "parse_family": "families", "path": "families",
    "regularity_by_recursion": "recursion", "replay_family": "decompositions",
    "rules_for": "decompositions", "run_claims": "verify", "star": "families",
    "stanley_depth": "sdepth", "to_dot": "graphs", "tsnake": "families",
    "tsnake_star": "families", "tsnake_starstar": "families",
    "validate_partition": "sdepth", "vars_of": "graphs",
}

__all__ = list(_HOME)


def __getattr__(name: str):
    if name not in _HOME:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    return getattr(importlib.import_module(f"{__name__}.{_HOME[name]}"), name)


def __dir__() -> list[str]:
    return sorted({*globals(), *__all__})
