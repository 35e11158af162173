"""Exception types shared across the package, and the default caps.

Every size limit raises SizeLimitError, naming the limit.  The caps are
the defaults of the two limits the CLI flags set; betti and sdepth
export them under the same names.  They live here so the argument
parser can read them without loading either engine.
"""

from __future__ import annotations

# max ambient variables for exact homology (limit "hochster_cap")
DEFAULT_HOCHSTER_CAP = 16
# max live variables for the exact Stanley depth search (limit "sdepth_cap")
DEFAULT_EXACT_CAP = 10


class EdgeIdealsError(Exception):
    """Base class for all package errors."""


class InvalidParameterError(EdgeIdealsError, ValueError):
    """A family parameter is outside its structurally valid range."""


class FamilySpecParseError(EdgeIdealsError, ValueError):
    """A compact family-spec string failed to parse.

    Carries the character offset where parsing stopped.
    """

    def __init__(self, message: str, position: int):
        super().__init__(f"{message} (at position {position})")
        self.position = position


class MembershipError(EdgeIdealsError, ValueError):
    """A monomial was required to lie outside the ideal but does not."""


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


class NonPrimeCharacteristicError(EdgeIdealsError, ValueError):
    """Field characteristic must be a prime number."""


class OutOfStatedRangeError(EdgeIdealsError, ValueError):
    """Closed-form values were requested outside the stated parameter range."""
