"""Every refusal raises InvalidParameterError or SizeLimitError, and every
size limit names a limit that the CLI has a hint for."""

import ast
from pathlib import Path

import pytest

import edgeideals
from edgeideals import (RunConfig, betti_table, betti_table_taylor,
                        build_extended, cycle, edge_ideal, face_poset, path,
                        regularity_by_recursion, run_claims, stanley_depth)
from edgeideals import cli, recursion, sdepth, verify
from edgeideals import errors
from edgeideals.errors import (FamilySpecParseError, InvalidParameterError,
                               SizeLimitError)
from edgeideals.gf import MILLER_RABIN_LIMIT, check_prime

SRC = Path(edgeideals.__file__).parent  # the package under test


def parsed_modules():
    """(file name, syntax tree) of each module of the package."""
    for module in sorted(SRC.glob("*.py")):
        yield module.name, ast.parse(module.read_text())


def raised_limits():
    """The limit= literal of every SizeLimitError call in the package."""
    names = set()
    for module, tree in parsed_modules():
        for node in ast.walk(tree):
            if (isinstance(node, ast.Call)
                    and getattr(node.func, "id", None) == "SizeLimitError"):
                given = {k.arg: k.value for k in node.keywords}
                where = f"{module}:{node.lineno}"
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


REFUSAL_TYPES = {"InvalidParameterError", "FamilySpecParseError",
                 "SizeLimitError"}

# (module, function, type) of every raise that is not a refusal: faults
# of the package, which cli.main lets through, and Python's own protocols
FAULT_SITES = {
    ("recursion.py", "_intersect", "ValueError"),  # contradictory pivots
    ("sdepth.py", "validate_partition", "ValueError"),  # the witness verdicts
    ("graphs.py", "index_of", "KeyError"),  # a lookup, as dict's
    ("cli.py", "_parse_range", "ArgumentTypeError"),  # argparse exits 2
    ("cli.py", "_cap", "ArgumentTypeError"),
    ("cli.py", "main", None),  # the bare re-raise of an OSError
    ("__init__.py", "__getattr__", "AttributeError"),  # PEP 562
}


def raise_sites():
    """(module, innermost function, raised type) of every raise in the
    package; the type is None for a bare re-raise."""
    sites = set()

    def visit(node, module, function):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, ast.FunctionDef):
                visit(child, module, child.name)
                continue
            if isinstance(child, ast.Raise):
                raised = child.exc
                if isinstance(raised, ast.Call):
                    raised = raised.func
                name = getattr(raised, "attr", getattr(raised, "id", None))
                sites.add((module, function, name))
            visit(child, module, function)

    for module, tree in parsed_modules():
        visit(tree, module, None)
    return sites


def test_every_raise_is_a_refusal_or_a_listed_fault():
    # a refusal of another type would escape cli.main as a traceback; a
    # fault raised as a refusal would read as exit 2 in place of a bug
    sites = raise_sites()
    assert {s for s in sites if s[2] not in REFUSAL_TYPES} == FAULT_SITES
    at_fault_sites = {(module, function) for module, function, _ in FAULT_SITES}
    assert {s for s in sites if s[:2] in at_fault_sites} == FAULT_SITES


def test_errors_define_the_two_refusal_types_under_one_base():
    defined = {name for name, value in vars(errors).items()
               if isinstance(value, type) and issubclass(value, Exception)}
    assert defined == {"EdgeIdealsError", *REFUSAL_TYPES}
    assert issubclass(FamilySpecParseError, InvalidParameterError)
    for refusal in (InvalidParameterError, SizeLimitError):
        assert issubclass(refusal, errors.EdgeIdealsError)
        assert issubclass(refusal, ValueError)
        assert getattr(edgeideals, refusal.__name__) is refusal
    assert FamilySpecParseError("bad", 3).position == 3


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
