"""The claim rows of verify.CLAIMS and their closed forms."""

import json
import re
from pathlib import Path

import pytest
import sympy

from edgeideals import (bristled, bristled_star, closed_form, edge_ideal,
                        build_extended, expected_counts, invariants,
                        ouroboros, parse_family, star, tsnake, tsnake_star,
                        tsnake_starstar)
from edgeideals.errors import InvalidParameterError


def test_star_values():
    cf = closed_form(star(4))
    assert cf.stated
    assert cf.values == {"depth": 1, "sdepth": 1, "reg": 1, "pdim": 4}


def test_bristled_star_values():
    cf = closed_form(bristled_star(3, 2))
    assert cf.values == {"depth": 5, "sdepth": 5, "reg": 3, "pdim": 7}


def test_snake_regularities():
    for n in range(1, 6):
        for p in range(1, 4):
            want = (n + 2) // 2
            assert closed_form(tsnake(n, p)).values["reg"] == want
            assert closed_form(tsnake_star(n, p)).values["reg"] == want
            assert closed_form(tsnake_starstar(n, p)).values["reg"] == want


def test_ouroboros_stated_range():
    cf = closed_form(ouroboros(4, 3))
    assert cf.stated and cf.values["reg"] == 2
    with pytest.raises(InvalidParameterError,
                       match=r"only claimed for n >= 3 and p >= 3, got n=3, p=2$"):
        closed_form(ouroboros(3, 2))
    obs = closed_form(ouroboros(3, 2), allow_observational=True)
    assert not obs.stated and obs.values["reg"] == 1


def test_bristled_snake_full_bundle():
    cf = closed_form(bristled(1, tsnake(2, 2)))
    assert cf.values == {"depth": 7, "sdepth": 7, "reg": 4, "pdim": 7}


def test_bristled_star_snake_bundle():
    cf = closed_form(bristled(1, tsnake_star(2, 1)))
    assert cf.values == {"depth": 6, "sdepth": 6, "reg": 3, "pdim": 6}


def test_bristled_starstar_snake_bundle():
    cf = closed_form(bristled(1, tsnake_starstar(1, 1)))
    assert cf.values == {"depth": 5, "sdepth": 5, "reg": 3, "pdim": 5}


def test_bristled_ouroboros_bundle():
    cf = closed_form(bristled(1, ouroboros(3, 1)), allow_observational=True)
    assert cf.values == {"depth": 6, "sdepth": 6, "reg": 3, "pdim": 6}


def test_base_cases_star_degenerations():
    assert closed_form(tsnake_star(0, 3)).values == closed_form(star(3)).values
    assert closed_form(tsnake_starstar(0, 2)).values == closed_form(star(4)).values
    assert closed_form(bristled(2, tsnake_starstar(0, 1))).values == \
        closed_form(bristled_star(2, 2)).values


def test_base_case_negative_indices():
    # one step below the star degeneration the quotient is the field
    cf = closed_form(tsnake_star(-1, 2))
    assert cf.values == {"depth": 0, "sdepth": 0, "reg": 0, "pdim": 0}
    # starstar at n=-1 leaves p free variables
    cf = closed_form(tsnake_starstar(-1, 3))
    assert cf.values == {"depth": 3, "sdepth": 3, "reg": 0, "pdim": 0}
    # bristling those free variables gives p disjoint star quotients
    cf = closed_form(bristled(2, tsnake_starstar(-1, 3)))
    assert cf.values == {"depth": 3, "sdepth": 3, "reg": 3, "pdim": 6}


def test_degenerate_closed_forms_match_the_pinned_table():
    # every degenerate index n = 0..-3, p = 1..3, bare and under brs(q=1..3)
    pinned = json.loads((Path(__file__).parent / "pinned_outcomes.json")
                        .read_text())["closed_forms"]
    want = {row[0]: row[1:] for row in pinned}
    got = {}
    for family in (tsnake_star, tsnake_starstar):
        for n in range(0, -4, -1):
            for p in (1, 2, 3):
                for spec in [family(n, p)] + [bristled(q, family(n, p))
                                              for q in (1, 2, 3)]:
                    cf = closed_form(spec)
                    assert cf.stated
                    got[str(spec)] = [cf.values[k] for k in
                                      ("depth", "sdepth", "reg", "pdim")]
    assert got == want


@pytest.mark.parametrize("spec", [
    tsnake_star(0, 0), tsnake_starstar(-1, 0), tsnake_star(-2, 0),
    bristled(0, tsnake_star(0, 1)), bristled(0, tsnake_starstar(-1, 2)),
    bristled(1, tsnake_starstar(0, 0)), bristled(1, bristled(0, tsnake_star(0, 1))),
], ids=str)
def test_closed_form_refuses_what_the_builder_refuses(spec):
    # p < 1 or q < 1 has no graph at any index, so no predicted values
    with pytest.raises(InvalidParameterError):
        closed_form(spec)


@pytest.mark.parametrize("text", [
    "path(n=4)", "brs(q=1,brs(q=1,tsnake(n=1,p=1)))", "brs(q=1,path(n=3))",
    "cycle(n=5)",
])
def test_unknown_family_rejected(text):
    # a family with no claim row has no closed forms, observational or not
    spec = parse_family(text)
    for observational in (False, True):
        with pytest.raises(InvalidParameterError,
                           match=re.escape(f"no catalogued formulas for {spec}")):
            closed_form(spec, allow_observational=observational)


def test_depth_pdim_sum_to_vertex_count_symbolically():
    # depth + pdim must equal the ambient variable count for every
    # bristled family (Auslander-Buchsbaum bookkeeping), as polynomials
    n, p, q = sympy.symbols("n p q", positive=True)
    cases = [
        # (depth, pdim, vertex count)
        ((p + q) * n + q, (1 + p * q) * n + 1, (1 + q) * (1 + n + n * p)),
        ((p + q) * (n + 1), (1 + p * q) * (n + 1),
         (1 + q) * (1 + n + (n + 1) * p)),
        ((p + q) * (n + 1) + p, (1 + p * q) * (n + 1) + p * q,
         (1 + q) * (1 + n + (n + 2) * p)),
        (n * (p + q), (1 + p * q) * n, (q + 1) * (p + 1) * n),
    ]
    for depth, pdim, nv in cases:
        assert sympy.simplify(depth + pdim - nv) == 0


def test_closed_forms_match_computed_invariants_on_small_cells():
    for text in ["tsnake(n=2,p=1)", "tsnake_star(n=1,p=2)",
                 "brs(q=1,tsnake(n=1,p=1))", "brs(q=2,star(u=2))"]:
        spec = parse_family(text)
        cf = closed_form(spec, allow_observational=True)
        inv = invariants(edge_ideal(build_extended(spec)))
        for key, want in cf.values.items():
            if key == "sdepth":
                continue
            assert getattr(inv, {"depth": "depth", "reg": "regularity",
                                 "pdim": "projective_dimension"}[key]) == want


@pytest.mark.parametrize("text,n_vars", [
    ("tsnake(n=21,p=2)", 64),
    ("brs(q=2,ouroboros(n=6,p=2))", 54),
    ("brs(q=3,tsnake(n=3,p=3))", 52),
])
def test_closed_forms_match_computed_invariants_past_the_scan_reach(text, n_vars):
    spec = parse_family(text)
    ideal = edge_ideal(build_extended(spec))
    assert ideal.n_vars == n_vars
    table = invariants(ideal, max_vars=64)
    inv = {"reg": table.regularity, "pdim": table.projective_dimension,
           "depth": table.depth}
    want = closed_form(spec).values
    assert {k: v for k, v in want.items() if k != "sdepth"} == \
        {k: inv[k] for k in want if k != "sdepth"}


def test_expected_counts_agree_with_closed_form_bookkeeping():
    for spec in [bristled(2, tsnake(3, 1)), bristled(1, ouroboros(4, 2))]:
        v, _ = expected_counts(spec)
        cf = closed_form(spec, allow_observational=True)
        assert cf.values["depth"] + cf.values["pdim"] == v
