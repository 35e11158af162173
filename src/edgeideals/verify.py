"""The paper's claims, and their verification on parameter grids.

Each row of CLAIMS is the one record of a claim: its family key, its
closed forms for depth, Stanley depth, regularity and projective
dimension as functions of the family's parameters, the range they are
stated for and the default grid.  closed_form evaluates them for one
spec.  A prediction is "stated" when the parameters sit inside the
stated range; outside it the same forms can still be evaluated on
request and are then flagged observational.

For every grid cell the runner builds the edge ideal and runs each
route once: the Betti table, the exact Stanley depth search when the
instance is small enough, the colon/add regularity recursion, the other
field's Betti table and the decomposition replay.  The other field's
table is computed afresh only on a graph that is not chordal: on a
chordal graph every induced subgraph has a simplicial vertex (Dirac
1961), so the Betti split never reaches its subset scan, no field enters
and the table is the same over every field.  Each comparison, of
a route with the Betti table or of a value with its closed form, is one
report row, and one rule decides its status:

  pass / fail      the two sides agree, or disagree
  observational    a closed form outside its stated range; never fails
  skipped          a side is missing: a cap, a budget or a refused build

Reports are deterministic byte-for-byte for a fixed configuration; wall
clock durations are only included on request for that reason.
"""

from __future__ import annotations

import itertools
import math
import time
from collections.abc import Callable, Sequence
from typing import NamedTuple

from .betti import betti_table, check_size
from .decompositions import replay_family
from .errors import (DEFAULT_EXACT_CAP, DEFAULT_HOCHSTER_CAP, EdgeIdealsError,
                     InvalidParameterError, SizeLimitError)
from .families import (FamilySpec, build_extended, expected_counts, family_key,
                       family_params, resolve, spec_of, spec_params,
                       validate_spec)
from .gf import check_prime
from .graphs import is_chordal
from .ideals import edge_ideal
from .recursion import regularity_by_recursion
from .render import csv_line, json_text
from .sdepth import stanley_depth

SCHEMA_VERSION = 2
# the most cells one run_claims call runs, summed over its claims
GRID_LIMIT = 10000


class RunConfig:
    """How a verify run computes its routes; checked when it is made."""

    __slots__ = ("characteristic", "cross_field", "hochster_cap",
                 "sdepth_cap", "include_durations")

    def __init__(self, characteristic: int = 2, cross_field: bool = False,
                 hochster_cap: int = DEFAULT_HOCHSTER_CAP,
                 sdepth_cap: int = DEFAULT_EXACT_CAP,
                 include_durations: bool = False):
        for name, cap in (("hochster_cap", hochster_cap),
                          ("sdepth_cap", sdepth_cap)):
            if cap < 0:
                raise InvalidParameterError(f"{name} must be 0 or more, got {cap}")
        check_prime(characteristic)
        self.characteristic = characteristic
        self.cross_field = cross_field
        self.hochster_cap = hochster_cap
        self.sdepth_cap = sdepth_cap
        self.include_durations = include_durations

    def as_dict(self) -> dict:
        return {
            "characteristic": self.characteristic,
            "cross_field": self.cross_field,
            "hochster_cap": self.hochster_cap,
            "sdepth_cap": self.sdepth_cap,
        }


class Claim(NamedTuple):
    """Closed forms for one family.  forms takes the family's parameters
    in the order of param_names.  The forms are stated for every spec
    the family builds, unless least names a higher least value for some
    parameters; formula then names the forms in a refusal."""

    claim_id: str
    family: str  # a family key: "star", "brs-tsnake", ...
    forms: Callable[..., dict[str, int]]
    default_cells: tuple[tuple[int, ...], ...]
    least: tuple[tuple[str, int], ...] = ()
    formula: str = ""

    @property
    def param_names(self) -> tuple[str, ...]:
        return family_params(self.family)


def _snake_cells(family, ns, ps, var_cap):
    """The (n, p) cells whose graph has at most var_cap vertices."""
    return tuple((n, p) for n in ns for p in ps
                 if expected_counts(spec_of(family, {"n": n, "p": p}))[0]
                 <= var_cap)


def _bundle(depth: int, reg: int, pdim: int) -> dict[str, int]:
    """The four forms of a family whose Stanley depth equals its depth."""
    return {"depth": depth, "sdepth": depth, "reg": reg, "pdim": pdim}


def _snake_reg(n, p):
    return {"reg": (n + 2) // 2}


CLAIMS: dict[str, Claim] = {c.claim_id: c for c in [
    Claim("star", "star", lambda u: _bundle(1, 1, u),
          tuple((u,) for u in range(1, 7))),
    Claim("bstar", "brs-star", lambda u, q: _bundle(u + q, u, u * q + 1),
          ((1, 1), (2, 1), (1, 2))),
    Claim("tsnake-reg", "tsnake", _snake_reg,
          _snake_cells("tsnake", range(1, 5), range(1, 4), 13)),
    Claim("tsnake-star-reg", "tsnake_star", _snake_reg,
          _snake_cells("tsnake_star", range(1, 5), range(1, 3), 14)),
    Claim("tsnake-starstar-reg", "tsnake_starstar", _snake_reg,
          _snake_cells("tsnake_starstar", range(1, 4), range(1, 3), 12)),
    Claim("ouroboros-reg", "ouroboros", lambda n, p: {"reg": n // 2},
          ((3, 1), (3, 2), (3, 3), (4, 1), (4, 2)),
          least=(("n", 3), ("p", 3)),
          formula="cycle-snake regularity formula"),
    Claim("brs-tsnake", "brs-tsnake",
          lambda n, p, q: _bundle((p + q) * n + q, n * p, (1 + p * q) * n + 1),
          ((1, 1, 1), (1, 2, 1), (2, 1, 1), (1, 1, 2))),
    Claim("brs-tsnake-star", "brs-tsnake_star",
          lambda n, p, q: _bundle((p + q) * (n + 1), (n + 1) * p,
                                  (1 + p * q) * (n + 1)),
          ((1, 1, 1), (2, 1, 1))),
    Claim("brs-tsnake-starstar", "brs-tsnake_starstar",
          lambda n, p, q: _bundle((p + q) * (n + 1) + p, (n + 2) * p,
                                  (1 + p * q) * (n + 1) + p * q),
          ((0, 1, 1), (1, 1, 1))),
    Claim("brs-ouroboros", "brs-ouroboros",
          lambda n, p, q: _bundle(n * (p + q), n * p, (1 + p * q) * n),
          ((3, 1, 1),)),
]}

_CLAIM_OF_FAMILY = {c.family: c for c in CLAIMS.values()}


class ClosedForm(NamedTuple):
    stated: bool
    values: dict[str, int]  # keys among depth, sdepth, reg, pdim


def closed_form(spec: FamilySpec, allow_observational: bool = False) -> ClosedForm:
    """The claimed invariant values of a family instance.

    A starred snake at a degenerate index n <= 0 stands for stars,
    bristled stars, loose polynomial variables or nothing at all
    (families.resolve); its values are the sums of those parts' values.
    Raises InvalidParameterError when the parameters fall outside the
    range the forms are stated for, unless allow_observational is set,
    in which case the forms are evaluated anyway and the result is
    marked stated=False.
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
        return ClosedForm(True, values)
    validate_spec(spec)
    claim = _CLAIM_OF_FAMILY.get(family_key(spec))
    if claim is None:
        raise InvalidParameterError(f"no catalogued formulas for {spec}")
    params = spec_params(spec)
    got = dict(zip(claim.param_names, params))
    stated = all(got[name] >= least for name, least in claim.least)
    if not stated and not allow_observational:
        raise InvalidParameterError(
            f"{claim.formula} is only claimed for "
            + " and ".join(f"{name} >= {least}" for name, least in claim.least)
            + ", got " + ", ".join(f"{name}={got[name]}"
                                   for name, _ in claim.least))
    return ClosedForm(stated, claim.forms(*params))


class CheckRow(NamedTuple):
    claim: str
    family: str
    params: tuple[tuple[str, int], ...]
    invariant: str
    computed: object
    predicted: object
    status: str

    def as_dict(self) -> dict:
        return {
            "claim": self.claim, "family": self.family,
            "params": dict(self.params), "invariant": self.invariant,
            "computed": self.computed, "predicted": self.predicted,
            "status": self.status,
        }


class VerificationReport:
    """The rows of a run and each claim's wall time; run_claims fills
    them in."""

    __slots__ = ("config", "rows", "durations")

    def __init__(self, config: RunConfig):
        self.config = config
        self.rows: list[CheckRow] = []
        self.durations: dict[str, float] = {}

    @property
    def ok(self) -> bool:
        return all(r.status != "fail" for r in self.rows)

    def summary(self) -> dict[str, int]:
        out = {"pass": 0, "fail": 0, "observational": 0, "skipped": 0}
        for r in self.rows:
            out[r.status] += 1
        return out

    def as_dict(self) -> dict:
        doc = {
            "schema_version": SCHEMA_VERSION,
            "config": self.config.as_dict(),
            "summary": self.summary(),
            "ok": self.ok,
            "cells": [r.as_dict() for r in self.rows],
        }
        if self.config.include_durations:
            doc["durations"] = {k: round(v, 3)
                                for k, v in sorted(self.durations.items())}
        return doc

    def as_json(self) -> str:
        return json_text(self.as_dict())

    def as_csv(self) -> str:
        lines = ["claim,family,params,invariant,computed,predicted,status"]
        for r in self.rows:
            params = ";".join(f"{k}={v}" for k, v in r.params)
            lines.append(csv_line([r.claim, r.family, params, r.invariant,
                                   r.computed, r.predicted, r.status]))
        return "\n".join(lines) + "\n"

    def as_text(self) -> str:
        lines = []
        for r in self.rows:
            params = ",".join(f"{k}={v}" for k, v in r.params)
            lines.append(f"[{r.status:<13}] {r.claim}({params}) "
                         f"{r.invariant}: computed={r.computed} "
                         f"predicted={r.predicted}")
        s = self.summary()
        lines.append(f"pass={s['pass']} fail={s['fail']} "
                     f"observational={s['observational']} "
                     f"skipped={s['skipped']}")
        return "\n".join(lines) + "\n"


def run_cell(claim: Claim, cell: tuple[int, ...],
             config: RunConfig) -> list[CheckRow]:
    """Run each route on one cell once, then compare each closed form."""
    params = dict(zip(claim.param_names, cell))
    key = tuple(sorted(params.items()))
    spec = spec_of(claim.family, params)
    rows = []

    def row(invariant, computed, predicted, stated=True, agree=None):
        """Append one row and decide its status: skipped when a side is
        missing, observational for a closed form outside its stated
        range, else pass exactly when the sides agree (are equal, unless
        agree says otherwise)."""
        if computed is None or predicted is None:
            status = "skipped"
        elif not stated:
            status = "observational"
        else:
            same = computed == predicted if agree is None else agree
            status = "pass" if same else "fail"
        rows.append(CheckRow(claim.claim_id, str(spec), key, invariant,
                             computed, predicted, status))

    try:
        n_vars = expected_counts(spec)[0]
    except EdgeIdealsError as exc:
        row("build", str(exc), None)
        return rows
    prediction = closed_form(spec, allow_observational=True)
    computed = {}
    try:
        check_size(n_vars, config.characteristic, config.hochster_cap)
    except SizeLimitError:
        pass  # nothing is built, so every closed-form row is skipped
    else:
        try:
            graph = build_extended(spec)
        except SizeLimitError as exc:  # past the build limit: nothing is built
            row("build", str(exc), None)
            return rows
        ideal = edge_ideal(graph)
        table = betti_table(ideal, config.characteristic,
                            max_vars=config.hochster_cap)
        computed = {"reg": table.regularity, "depth": table.depth,
                    "pdim": table.projective_dimension}
        if "sdepth" in prediction.values:
            try:
                computed["sdepth"] = stanley_depth(ideal, config.sdepth_cap)[0]
            except SizeLimitError:
                pass
        try:
            rec = regularity_by_recursion(ideal)
            shown = rec.lo if rec.is_point else f"[{rec.lo},{rec.hi}]"
        except SizeLimitError:
            shown = None
        row("reg-recursion", shown, table.regularity)
        if config.cross_field:
            other = 3 if config.characteristic == 2 else 2
            if is_chordal(graph.adjacency):
                # each induced subgraph has a simplicial vertex (Dirac), so
                # the split makes no scan and no rank call: no field enters
                twin = table._replace(characteristic=other)
            else:
                twin = betti_table(ideal, other, max_vars=config.hochster_cap)
            row("field-agree",
                f"GF({other}):reg={twin.regularity},"
                f"pdim={twin.projective_dimension}",
                f"GF({config.characteristic}):reg={table.regularity},"
                f"pdim={table.projective_dimension}",
                agree=(twin.regularity, twin.projective_dimension)
                == (table.regularity, table.projective_dimension))
        for report in replay_family(spec, graph):
            row(f"decomp:{report.rule_id}",
                "ok" if report.ok else "mismatch", "ok")
    for name, want in sorted(prediction.values.items()):
        row(name, computed.get(name), want, prediction.stated)
    return rows


def _length(axis: Sequence[int]) -> int:
    """len(axis), which len() refuses for a range past sys.maxsize values."""
    if isinstance(axis, range) and axis:
        return (axis[-1] - axis[0]) // axis.step + 1
    return len(axis)


def run_claims(claim_ids: list[str], config: RunConfig,
               grid_override: dict[str, Sequence[int]] | None = None
               ) -> VerificationReport:
    """Run each claim over its grid, once per claim id, in first-seen order.

    grid_override maps an axis name to its values, such as a range.  A
    claim with one of those axes runs over the product of its axes, each
    overridden one replaced and the others taking the values of its
    default cells; a claim with none of them keeps its default cells.
    An unknown claim id, or an axis that none of the claims has, raises
    InvalidParameterError.  A run of more than GRID_LIMIT cells in all
    raises SizeLimitError before its first cell runs.
    """
    override = grid_override or {}
    claim_ids = list(dict.fromkeys(claim_ids))  # each claim runs once
    unknown = [cid for cid in claim_ids if cid not in CLAIMS]
    if unknown:
        raise InvalidParameterError(f"unknown claim {unknown[0]!r}; "
                                    f"known: {', '.join(sorted(CLAIMS))}")
    params = list(dict.fromkeys(name for cid in claim_ids
                                for name in CLAIMS[cid].param_names))
    lacking = [name for name in override if name not in params]
    if lacking:
        one = len(claim_ids) == 1
        raise InvalidParameterError(
            f"claim{'' if one else 's'} {', '.join(map(repr, claim_ids))} "
            f"{'has' if one else 'have'} no parameter {', '.join(lacking)}; "
            f"{'its' if one else 'their'} parameters are {', '.join(params)}")
    grids = []  # (claim, its overridden axes or None)
    for cid in claim_ids:
        claim = CLAIMS[cid]
        axes = None
        if any(name in override for name in claim.param_names):
            axes = [override[name] if name in override
                    else sorted({c[i] for c in claim.default_cells})
                    for i, name in enumerate(claim.param_names)]
        grids.append((claim, axes))
    size = sum(len(claim.default_cells) if axes is None
               else math.prod(map(_length, axes)) for claim, axes in grids)
    if size > GRID_LIMIT:
        raise SizeLimitError(f"the grid has {size} cells, past the grid "
                             f"limit of {GRID_LIMIT}", limit="grid_limit")
    report = VerificationReport(config)
    for claim, axes in grids:
        cells = (claim.default_cells if axes is None
                 else itertools.product(*axes))
        started = time.monotonic()
        for cell in cells:
            report.rows.extend(run_cell(claim, cell, config))
        report.durations[claim.claim_id] = time.monotonic() - started
    report.rows.sort(key=lambda r: (r.claim, r.params, r.invariant))
    return report
