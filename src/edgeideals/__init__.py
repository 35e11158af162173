"""Edge ideals of snake-family graphs: invariants and formula checks.

Build the graph families (snakes, cycle snakes, stars, bristlings),
take edge ideals, and compute regularity, projective dimension, depth,
and Stanley depth of the quotients from first principles.  The paper's
closed forms are the rows of verify.CLAIMS, one per claim; they and the
induction decompositions behind them are machine-verified on parameter
grids.
"""

from .betti import BettiTable, InvariantBundle, betti_table, invariants
from .decompositions import (DecompositionReport, DecompositionRule,
                             replay_catalogue, replay_family, rules_for,
                             verify_decomposition)
from .errors import (CapExceededError, EdgeIdealsError, FamilySpecParseError,
                     InvalidParameterError, MembershipError,
                     NonPrimeCharacteristicError, OutOfStatedRangeError,
                     RecursionCapError, RuleInapplicableError,
                     TooManyGeneratorsError, TooManyVariablesError)
from .families import (FamilySpec, build_extended, bristled, bristled_star,
                       cycle, expected_counts, ouroboros, parse_family, path,
                       star, tsnake, tsnake_star, tsnake_starstar)
from .graphs import LabeledGraph, VertexLabel, is_isomorphic, to_dot
from .ideals import (MonomialIdeal, add_variable, colon_by, edge_ideal,
                     mask_of, vars_of)
from .recursion import RegInterval, regularity_by_recursion
from .sdepth import (FacePoset, IntervalPartition, face_poset, stanley_depth,
                     validate_partition)
from .taylor import betti_table_taylor
from .verify import (CLAIMS, ClosedForm, RunConfig, VerificationReport,
                     closed_form, run_claims)

__version__ = "0.1.0"

__all__ = [
    "BettiTable", "CLAIMS", "CapExceededError", "ClosedForm",
    "DecompositionReport", "DecompositionRule", "EdgeIdealsError",
    "FacePoset", "FamilySpec", "FamilySpecParseError", "IntervalPartition",
    "InvalidParameterError", "InvariantBundle", "LabeledGraph",
    "MembershipError", "MonomialIdeal", "NonPrimeCharacteristicError",
    "OutOfStatedRangeError", "RegInterval", "RecursionCapError",
    "RuleInapplicableError", "RunConfig", "TooManyGeneratorsError",
    "TooManyVariablesError", "VerificationReport", "VertexLabel",
    "add_variable", "betti_table", "betti_table_taylor", "bristled",
    "bristled_star", "build_extended", "closed_form",
    "colon_by", "cycle", "edge_ideal", "expected_counts", "face_poset",
    "invariants", "is_isomorphic", "mask_of", "ouroboros", "parse_family",
    "path", "regularity_by_recursion", "replay_catalogue", "replay_family",
    "rules_for", "run_claims", "star", "stanley_depth",
    "to_dot", "tsnake", "tsnake_star", "tsnake_starstar",
    "validate_partition", "vars_of", "verify_decomposition",
]
