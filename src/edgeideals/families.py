"""Parameterized graph families and their compact spec strings.

The snake families: tsnake(n,p) is a path on n+1 spine vertices with p
triangle apexes over every spine edge.  tsnake_star adds p pendants at
the far end of the spine, tsnake_starstar adds p more at the near end,
and ouroboros(n,p) closes the spine into a cycle.  brs(q, g) attaches q
pendant bristles to every vertex of g.

This module is the one place that assembles a family graph, bristling
included: one snake builder grows plain label and edge lists for every
kind, and build_extended wraps the result in a single LabeledGraph.
Each kind but brs is one row of _KINDS: the least value of each
parameter, its builder and its closed-form counts.  It is also the one
reader of a spec's shape: family_key, spec_params and spec_of map a
spec to its family key and parameter values and back, and parse_family
reads a spec string in one pass over its tokens.
"""

from __future__ import annotations

import re
from functools import partial
from typing import Callable, NamedTuple

from .errors import FamilySpecParseError, InvalidParameterError, SizeLimitError
from .graphs import LabeledGraph, VertexLabel, anonymous, apex, path_vertex

# The most vertices of any graph build_extended assembles: its masks take
# O(n^2) bits, and at this count gen peaked at 53 MB and decomp, which
# also builds the factors, at 133 MB (325 MB at 30000 vertices).
MAX_BUILD_VERTICES = 20_000


class FamilySpec(NamedTuple):
    """Immutable family description; brs wraps an inner spec."""

    kind: str
    n: int | None = None
    p: int | None = None
    q: int | None = None
    u: int | None = None
    inner: "FamilySpec | None" = None

    def __str__(self) -> str:
        if self.kind == "brs":
            return f"brs(q={self.q},{self.inner})"
        args = [f"{name}={getattr(self, name)}"
                for name in ("n", "p", "q", "u") if getattr(self, name) is not None]
        return f"{self.kind}({','.join(args)})"


def path(n: int) -> FamilySpec:
    return FamilySpec("path", n=n)


def cycle(n: int) -> FamilySpec:
    return FamilySpec("cycle", n=n)


def star(u: int) -> FamilySpec:
    return FamilySpec("star", u=u)


def tsnake(n: int, p: int) -> FamilySpec:
    return FamilySpec("tsnake", n=n, p=p)


def tsnake_star(n: int, p: int) -> FamilySpec:
    return FamilySpec("tsnake_star", n=n, p=p)


def tsnake_starstar(n: int, p: int) -> FamilySpec:
    return FamilySpec("tsnake_starstar", n=n, p=p)


def ouroboros(n: int, p: int) -> FamilySpec:
    return FamilySpec("ouroboros", n=n, p=p)


def bristled(q: int, inner: FamilySpec) -> FamilySpec:
    return FamilySpec("brs", q=q, inner=inner)


def bristled_star(u: int, q: int) -> FamilySpec:
    return bristled(q, star(u))


# A family graph is assembled as (labels, edges) lists, label pairs as
# edges, and wrapped in one LabeledGraph at the end.
Parts = tuple[list[VertexLabel], list[tuple[VertexLabel, VertexLabel]]]


def _tsnake_graph(n: int, p: int, close: bool = False, stars: int = 0
                  ) -> Parts:
    """The one builder of every kind: a spine x_1..x_{n+1} with p
    triangle apexes y_j1..y_jp over each spine edge x_j x_{j+1}.

    close=True identifies the spine ends into a cycle of length n with
    apexes over every cycle edge (the ouroboros).  stars=1 adds p
    pendant apexes at x_{n+1}, and stars=2 adds p more at x_1.  With
    p = 0 the spine alone is a path or, closed, a cycle; the star on u
    leaves is the spine x_1 with stars=1.
    """
    spine = [path_vertex(i) for i in range(1, n + (not close) + 1)]
    labels = list(spine)
    edges = []
    for j in range(1, n + 1):
        a, b = spine[j - 1], spine[j % len(spine)]
        edges.append((a, b))
        for k in range(1, p + 1):
            y = apex(j, k)
            labels.append(y)
            edges.append((a, y))
            edges.append((b, y))
    for j, hub in [(n + 1, spine[-1]), (n + 2, spine[0])][:stars]:
        for k in range(1, p + 1):
            y = apex(j, k)
            labels.append(y)
            edges.append((hub, y))
    return labels, edges


# Each kind but brs: the least value of each parameter, in positional
# order, its builder, which takes the parameters in that order, and its
# closed-form (vertices, edges).  An ouroboros needs n >= 3: a shorter
# spine would close up into multi-edges or loops.
class _Kind(NamedTuple):
    least: dict[str, int]
    build: Callable[..., Parts]
    counts: Callable[..., tuple[int, int]]


_KINDS = {
    "path": _Kind({"n": 1}, lambda n: _tsnake_graph(n - 1, 0),
                  lambda n: (n, n - 1)),
    "cycle": _Kind({"n": 3}, lambda n: _tsnake_graph(n, 0, close=True),
                   lambda n: (n, n)),
    "star": _Kind({"u": 1}, lambda u: _tsnake_graph(0, u, stars=1),
                  lambda u: (u + 1, u)),
    "tsnake": _Kind({"n": 1, "p": 1}, _tsnake_graph,
                    lambda n, p: (1 + n + n * p, (2 * p + 1) * n)),
    "tsnake_star": _Kind(
        {"n": 1, "p": 1}, partial(_tsnake_graph, stars=1),
        lambda n, p: (1 + n + (n + 1) * p, (2 * p + 1) * n + p)),
    "tsnake_starstar": _Kind(
        {"n": 1, "p": 1}, partial(_tsnake_graph, stars=2),
        lambda n, p: (1 + n + (n + 2) * p, (2 * p + 1) * n + 2 * p)),
    "ouroboros": _Kind({"n": 3, "p": 1}, partial(_tsnake_graph, close=True),
                       lambda n, p: ((p + 1) * n, (2 * p + 1) * n)),
}

# scalar parameters accepted by each name of the grammar, in positional
# order; bstar(u,q) is read as brs(q,star(u))
_PARAMS = {kind: tuple(row.least) for kind, row in _KINDS.items()}
_PARAMS.update(bstar=("u", "q"), brs=("q",))


def _inner(spec: FamilySpec) -> FamilySpec:
    """The inner spec of a brs spec; InvalidParameterError if it has none."""
    if spec.inner is None:
        raise InvalidParameterError("brs needs an inner family")
    return spec.inner


def family_key(spec: FamilySpec) -> str:
    """The kind of spec, or "brs-" and the inner kind when it is bristled:
    the key that claim rows and decomposition rules are filed under."""
    if spec.kind == "brs":
        return f"brs-{_inner(spec).kind}"
    return spec.kind


def family_params(key: str) -> tuple[str, ...]:
    """The parameter names of a family key: the kind's in positional
    order, then q when the key is bristled."""
    kind = key.removeprefix("brs-")
    return tuple(_KINDS[kind].least) + (("q",) if kind != key else ())


def spec_params(spec: FamilySpec) -> tuple[int | None, ...]:
    """The values of family_params(family_key(spec)) in spec, None
    where spec lacks one."""
    if spec.kind == "brs":
        return spec_params(_inner(spec)) + (spec.q,)
    return tuple(getattr(spec, name) for name in _KINDS[spec.kind].least)


def spec_of(key: str, params: dict[str, int]) -> FamilySpec:
    """The spec of a family key with the given parameter values; the
    inverse of spec_params."""
    kind = key.removeprefix("brs-")
    spec = FamilySpec(kind, **{name: params[name] for name in _KINDS[kind].least})
    return bristled(params["q"], spec) if kind != key else spec


def _check_q(spec: FamilySpec) -> None:
    """Refuse a brs spec whose q is missing or below 1.

    brs(q,star(u)) is the family bstar(u,q), and is refused under that
    name, as validate_spec refuses its u.
    """
    if spec.q is None or spec.q < 1:
        name = "bstar" if _is_bstar(spec) else "brs"
        raise InvalidParameterError(f"{name} needs q >= 1")


def _is_bstar(spec: FamilySpec) -> bool:
    return spec.inner is not None and spec.inner.kind == "star"


def validate_spec(spec: FamilySpec) -> None:
    """Raise InvalidParameterError unless spec is buildable."""
    kind = spec.kind
    if kind == "brs":
        # bstar(u,q) checks its parameters in their own order, u first
        if _is_bstar(spec) and (spec.inner.u is None or spec.inner.u < 1):
            raise InvalidParameterError("bstar needs u >= 1")
        _check_q(spec)
        validate_spec(_inner(spec))
    elif kind not in _KINDS:
        raise InvalidParameterError(f"unknown family kind {kind!r}")
    else:
        for name, least in _KINDS[kind].least.items():
            value = getattr(spec, name)
            if value is None or value < least:
                raise InvalidParameterError(f"{kind} needs {name} >= {least}")


_LEAF_ROLE = {"path": "path_bristle", "apex": "apex_bristle"}
_HOST_ROLE = {leaf: host for host, leaf in _LEAF_ROLE.items()}


def _bristle(parts: Parts, q: int) -> Parts:
    """Attach q pendant leaves to every vertex, extending both lists.

    A spine vertex x_i gets leaves x_it and an apex y_jk leaves y_jkt,
    numbered after the leaves it already has; every other vertex gets
    fresh anonymous leaves.  Hosts are visited in canonical label order,
    so the anonymous numbering does not depend on how the lists grew.
    """
    labels, edges = parts
    taken: dict[VertexLabel, int] = {}
    fresh = 0
    for lab in labels:
        role, indices = lab.role, lab.indices
        if role in _HOST_ROLE:
            host = VertexLabel(_HOST_ROLE[role], indices[:-1])
            taken[host] = max(taken.get(host, 0), indices[-1])
        elif role == "anon":
            fresh = max(fresh, indices[0] + 1)
    for host in sorted(labels):
        leaf_role = _LEAF_ROLE.get(host.role)
        indices, base = host.indices, taken.get(host, 0)
        for t in range(1, q + 1):
            if leaf_role is None:
                leaf = anonymous(fresh)
                fresh += 1
            else:
                leaf = VertexLabel(leaf_role, indices + (base + t,))
            labels.append(leaf)
            edges.append((host, leaf))
    return parts


def _build(spec: FamilySpec) -> Parts:
    """Labels and edges of a spec whose indices need no resolving."""
    if spec.kind == "brs":
        return _bristle(_build(spec.inner), spec.q)
    return _KINDS[spec.kind].build(*spec_params(spec))


def resolve(spec: FamilySpec) -> tuple[list[FamilySpec], int]:
    """(concrete specs, loose variables) that a spec with degenerate
    indices stands for, at any nesting of brs.

    A starred snake at n = 0 is a star: tsnake_star(0,p) is star(p) and
    tsnake_starstar(0,p) is star(2p).  Below that, tsnake_starstar(-1,p)
    leaves p loose variables and every lower index leaves nothing.  A
    bristled loose variable is star(q).  Any other spec stands for
    itself.  Raises InvalidParameterError for p < 1 or q < 1 at any index.
    """
    if spec.kind == "brs":
        parts, loose = resolve(_inner(spec))
        _check_q(spec)
        return [bristled(spec.q, s) for s in parts] + [star(spec.q)] * loose, 0
    kind, n, p = spec.kind, spec.n, spec.p
    if kind not in ("tsnake_star", "tsnake_starstar") or n is None or n >= 1:
        return [spec], 0
    if p is None or p < 1:
        raise InvalidParameterError(f"{kind} needs p >= 1")
    double = kind == "tsnake_starstar"
    if n == 0:
        return [star(2 * p if double else p)], 0
    return [], p if double and n == -1 else 0


def _resolved(spec: FamilySpec) -> FamilySpec:
    """The validated spec that build_extended builds for spec."""
    base = spec
    while base.kind == "brs" and base.inner is not None:
        base = base.inner
    if base.n == 0:
        (spec,), _ = resolve(spec)
    validate_spec(spec)
    return spec


def build_extended(spec: FamilySpec) -> LabeledGraph:
    """Build the graph for a family spec, refusing invalid parameters.

    A starred snake may also sit at n = 0 under any nesting of brs: it
    builds as the star, bristled or not, that resolve makes of it.
    Lower indices are refused as validate_spec refuses them, and more
    than MAX_BUILD_VERTICES vertices with SizeLimitError before the build.
    """
    spec = _resolved(spec)
    n_vertices = _counts(spec)[0]
    if n_vertices > MAX_BUILD_VERTICES:
        raise SizeLimitError(f"{n_vertices} vertices exceeds the build "
                             f"limit of {MAX_BUILD_VERTICES}",
                             limit="build_limit")
    return LabeledGraph(*_build(spec))


def _counts(spec: FamilySpec) -> tuple[int, int]:
    """(vertices, edges) of a spec that _resolved returned."""
    if spec.kind == "brs":
        v, e = _counts(spec.inner)
        return v * (1 + spec.q), e + v * spec.q
    return _KINDS[spec.kind].counts(*spec_params(spec))


def expected_counts(spec: FamilySpec) -> tuple[int, int]:
    """Closed-form (vertices, edges) of build_extended(spec); refuses
    with InvalidParameterError, and the same message, where it does."""
    return _counts(_resolved(spec))


# ---------------------------------------------------------------------------
# compact spec strings, e.g. brs(q=3,tsnake(n=3,p=3)) or path(4), split
# into tokens: runs of word characters (str.isalnum or "_") and single
# other characters, with whitespace free between them
_TOKENS = re.compile(r"\s*(?:(\w+)|(\S))")
_DIGITS = re.compile(r"[0-9]*")


def parse_family(text: str) -> FamilySpec:
    """Parse a compact family spec; errors carry the offending position.

    Positional values fill a name's parameters in order, name=value
    sets one, and brs also takes one nested family.  A value is a run of
    ASCII digits.  Each brs or bstar level at least doubles a base of at
    least one vertex, so a spec nested MAX_BUILD_VERTICES.bit_length()
    levels deep is refused with SizeLimitError before it is read further.
    """
    tokens = _TOKENS.findall(text) + [("", "")]  # (word, mark); end last
    i = 0

    def fail(message, at, shift=0):
        """Raise at the offset of token at, plus shift; past the last
        token, the offset is len(text)."""
        starts = [m.start(m.lastindex) for m in _TOKENS.finditer(text)]
        raise FamilySpecParseError(message, (starts + [len(text)])[at] + shift)

    def expect(mark):
        nonlocal i
        if tokens[i][1] != mark:
            fail(f"expected {mark!r}", i)
        i += 1

    def integer():
        nonlocal i
        word = tokens[i][0]
        digits = _DIGITS.match(word)[0]
        if not digits:
            fail("expected an integer", i)
        try:
            value = int(digits)
        except ValueError:  # more digits than int() converts
            fail(f"integer of {len(digits)} digits is too long", i)
        if digits != word:  # as in 12ab: the call wants its ')' at the a
            fail("expected ')'", i, len(digits))
        i += 1
        return value

    def call(levels=0):
        """One family, inside `levels` brs or bstar levels."""
        nonlocal i
        name = tokens[i][0]
        if not name:
            fail("expected a family or parameter name", i)
        if name not in _PARAMS:
            if not i:  # a top-level name is refused at 0, spaces and all
                raise FamilySpecParseError(f"unknown family {name!r}", 0)
            fail(f"unknown family {name!r}", i)
        levels += name in ("brs", "bstar")
        if levels >= MAX_BUILD_VERTICES.bit_length():
            raise SizeLimitError(
                f"family spec nested {levels} deep exceeds the build limit "
                f"of {MAX_BUILD_VERTICES} vertices", limit="build_limit")
        i += 1
        expect("(")
        scalars, positional, inner = {}, list(_PARAMS[name]), None
        more = tokens[i][1] != ")"
        while more:
            word = tokens[i][0]
            if not word:
                fail("expected a family or parameter name", i)
            if word[0].isdigit():
                if not positional:
                    fail(f"too many positional values for {name!r}", i)
                scalars[positional.pop(0)] = integer()
            elif tokens[i + 1][1] == "=":
                if word not in _PARAMS[name]:
                    fail(f"{name!r} takes no parameter {word!r}", i)
                if word in scalars:
                    fail(f"duplicate parameter {word!r}", i)
                i += 2
                scalars[word] = integer()
                positional.remove(word)
            elif name != "brs":
                fail(f"{name!r} takes no nested family", i)
            elif inner is not None:
                fail("duplicate inner family", i)
            else:
                inner = call(levels)
            more = tokens[i][1] == ","
            i += more
        expect(")")
        for param in _PARAMS[name]:  # refused just past the ')'
            if param not in scalars:
                fail(f"{name!r} is missing parameter {param!r}", i - 1, 1)
        if name == "brs":
            if inner is None:
                fail("brs needs an inner family", i - 1, 1)
            return bristled(scalars["q"], inner)
        if name == "bstar":
            return bristled_star(scalars["u"], scalars["q"])
        # range checks are the builders' business, not the grammar's
        return FamilySpec(name, **scalars)

    spec = call()
    if i < len(tokens) - 1:
        fail("trailing input after family spec", i)
    return spec
