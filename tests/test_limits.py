"""Every size limit refuses with SizeLimitError, naming a limit that the
CLI has a hint for."""

import ast
from pathlib import Path

import pytest

import edgeideals
from edgeideals import (RunConfig, betti_table, betti_table_taylor,
                        build_extended, cycle, edge_ideal, face_poset, path,
                        regularity_by_recursion, run_claims, stanley_depth)
from edgeideals import cli, recursion, sdepth, verify
from edgeideals.errors import SizeLimitError
from edgeideals.gf import MILLER_RABIN_LIMIT, check_prime

SRC = Path(edgeideals.__file__).parent  # the package under test


def raised_limits():
    """The limit= literal of every SizeLimitError call in the package."""
    names = set()
    for module in sorted(SRC.glob("*.py")):
        for node in ast.walk(ast.parse(module.read_text())):
            if (isinstance(node, ast.Call)
                    and getattr(node.func, "id", None) == "SizeLimitError"):
                given = {k.arg: k.value for k in node.keywords}
                where = f"{module.name}:{node.lineno}"
                assert len(node.args) == 1 and set(given) == {"limit"}, where
                assert isinstance(given["limit"], ast.Constant), where
                names.add(given["limit"].value)
    return names


def test_every_raised_limit_has_exactly_one_hint():
    # a limit without a hint would make cli.main fail with a KeyError on
    # the refusal; a hint without a limit is dead
    assert raised_limits() == set(cli._LIMIT_HINTS) == set(REFUSALS)


def test_the_one_refusal_type_is_exported_and_needs_its_limit():
    assert edgeideals.SizeLimitError is SizeLimitError
    assert issubclass(SizeLimitError, ValueError)
    with pytest.raises(TypeError):
        SizeLimitError("x")


def cycle_ideal(n):
    return edge_ideal(build_extended(cycle(n)))


def over_the_step_budget(monkeypatch):
    monkeypatch.setattr(recursion, "STEP_BUDGET", 2)
    regularity_by_recursion(cycle_ideal(7))


def over_the_node_budget(monkeypatch):
    monkeypatch.setattr(sdepth, "SEARCH_NODE_BUDGET", 3)
    stanley_depth(edge_ideal(build_extended(path(9))))


def over_the_grid_limit(monkeypatch):
    def no_cell(claim, cell, config):
        raise AssertionError("a cell ran before the grid was counted")

    monkeypatch.setattr(verify, "run_cell", no_cell)
    run_claims(["star"], RunConfig(), {"u": range(1, verify.GRID_LIMIT + 2)})


# one call past each limit, by its name
REFUSALS = {
    "hochster_cap": lambda mp: betti_table(cycle_ideal(17)),
    "sdepth_cap": lambda mp: stanley_depth(cycle_ideal(11)),
    "node_budget": over_the_node_budget,
    "step_budget": over_the_step_budget,
    "primality_bound": lambda mp: check_prime(MILLER_RABIN_LIMIT),
    "taylor_cap": lambda mp: betti_table_taylor(cycle_ideal(13)),
    "poset_cap": lambda mp: face_poset(cycle_ideal(15)),  # the cap is 14
    "build_limit": lambda mp: build_extended(path(100000)),
    "grid_limit": over_the_grid_limit,
}


@pytest.mark.parametrize("limit", list(REFUSALS))
def test_each_limit_refuses_with_its_name(monkeypatch, limit):
    with pytest.raises(SizeLimitError) as info:
        REFUSALS[limit](monkeypatch)
    assert info.value.limit == limit
