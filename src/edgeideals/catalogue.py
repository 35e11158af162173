"""Predicted invariant values for the catalogued graph families.

Each entry evaluates the closed formulas for depth, Stanley depth,
regularity, and projective dimension where such formulas exist.  Star
and bristled-star families carry all four; the plain snake and cycle
families carry regularity only.  A prediction is "stated" when the
parameters sit inside the range the formula is claimed for; outside
that range the same expression can still be evaluated on request and
is then flagged observational.

A starred snake at a degenerate index n <= 0 stands for stars, bristled
stars, loose polynomial variables or nothing at all (families.resolve);
its predictions are the sums of those parts' predictions.
"""

from __future__ import annotations

from dataclasses import dataclass

from .errors import InvalidParameterError, OutOfStatedRangeError
from .families import FamilySpec, resolve, validate_spec


@dataclass(frozen=True)
class ClosedForm:
    spec: FamilySpec
    stated: bool
    values: dict[str, int]  # keys among depth, sdepth, reg, pdim


def closed_form(spec: FamilySpec, allow_observational: bool = False) -> ClosedForm:
    """Catalogued invariant predictions for a family instance.

    Raises OutOfStatedRangeError when the parameters fall outside the
    range the formulas are claimed for, unless allow_observational is
    set, in which case the formulas are evaluated anyway and the result
    is marked stated=False.
    """
    parts, loose = resolve(spec)
    if parts != [spec]:
        # the quotient is the tensor product of the parts' quotients and
        # a polynomial ring in the loose variables; every invariant adds
        # up across the factors, and "nothing" leaves the field: all 0
        values = {"depth": loose, "sdepth": loose, "reg": 0, "pdim": 0}
        for part in parts:
            for key, value in closed_form(part).values.items():
                values[key] += value
        return ClosedForm(spec, True, values)
    validate_spec(spec)
    kind = spec.kind
    if kind == "star":
        return ClosedForm(spec, True, {
            "depth": 1, "sdepth": 1, "reg": 1, "pdim": spec.u})
    if kind == "brs" and spec.inner.kind == "star":
        u, q = spec.inner.u, spec.q
        return ClosedForm(spec, True, {
            "depth": u + q, "sdepth": u + q, "reg": u, "pdim": u * q + 1})
    if kind in ("tsnake", "tsnake_star", "tsnake_starstar"):
        n = spec.n
        return ClosedForm(spec, True, {"reg": (n + 2) // 2})
    if kind == "ouroboros":
        stated = spec.n >= 3 and spec.p >= 3
        if not stated and not allow_observational:
            raise OutOfStatedRangeError(
                f"cycle-snake regularity formula is only claimed for "
                f"n >= 3 and p >= 3, got n={spec.n}, p={spec.p}")
        return ClosedForm(spec, stated, {"reg": spec.n // 2})
    if kind == "brs":
        inner = spec.inner
        q = spec.q
        if inner.kind == "tsnake":
            n, p = inner.n, inner.p
            return ClosedForm(spec, True, {
                "depth": (p + q) * n + q, "sdepth": (p + q) * n + q,
                "reg": n * p, "pdim": (1 + p * q) * n + 1})
        if inner.kind == "tsnake_star":
            n, p = inner.n, inner.p
            return ClosedForm(spec, True, {
                "depth": (p + q) * (n + 1), "sdepth": (p + q) * (n + 1),
                "reg": (n + 1) * p, "pdim": (1 + p * q) * (n + 1)})
        if inner.kind == "tsnake_starstar":
            n, p = inner.n, inner.p
            return ClosedForm(spec, True, {
                "depth": (p + q) * (n + 1) + p, "sdepth": (p + q) * (n + 1) + p,
                "reg": (n + 2) * p, "pdim": (1 + p * q) * (n + 1) + p * q})
        if inner.kind == "ouroboros":
            n, p = inner.n, inner.p
            return ClosedForm(spec, True, {
                "depth": n * (p + q), "sdepth": n * (p + q),
                "reg": n * p, "pdim": (1 + p * q) * n})
    raise InvalidParameterError(f"no catalogued formulas for {spec}")
