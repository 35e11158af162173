"""Exception types shared across the package, and the default caps.

A refused argument raises one of two types under EdgeIdealsError:
InvalidParameterError for a value the call cannot take, and
SizeLimitError for an input past a named limit.  Both are ValueErrors,
and the CLI answers either with exit status 2 and the message.  A fault
of the package itself, such as a search that contradicts itself, stays
a plain exception, so the CLI never reports a bug as a refusal.

The caps are the defaults of the two limits the CLI flags set; betti
and sdepth export them under the same names.  They live here so the
argument parser can read them without loading either engine.
"""

from __future__ import annotations

# max ambient variables for exact homology (limit "hochster_cap")
DEFAULT_HOCHSTER_CAP = 16
# max live variables for the exact Stanley depth search (limit "sdepth_cap")
DEFAULT_EXACT_CAP = 10


class EdgeIdealsError(Exception):
    """Base class of the two refusal types."""


class InvalidParameterError(EdgeIdealsError, ValueError):
    """An argument holds a value the call cannot take."""


class FamilySpecParseError(InvalidParameterError):
    """A compact family-spec string failed to parse.

    Carries the character offset where parsing stopped.
    """

    def __init__(self, message: str, position: int):
        super().__init__(f"{message} (at position {position})")
        self.position = position


class SizeLimitError(EdgeIdealsError, ValueError):
    """An input is past a size limit, so an exact answer is refused.

    `limit` names the limit: "hochster_cap" or "sdepth_cap" (the caps the
    CLI flags set), "node_budget" (the Stanley depth search),
    "step_budget" (the regularity recursion), "primality_bound" (the
    exact primality test), "taylor_cap" (the Taylor complex),
    "poset_cap" (sdepth.face_poset), "build_limit" (the graph build) or
    "grid_limit" (the cell count of a verify run).
    """

    def __init__(self, message: str, limit: str):
        super().__init__(message)
        self.limit = limit
