"""render.json_text writes exactly the bytes of
json.dumps(doc, indent=2, sort_keys=True) plus a newline, on every document
json can write, and raises what json raises on the rest.

Circular documents are out of scope: no report builds one, and the writer
does not look for cycles.
"""

import json
from collections import OrderedDict
from enum import IntEnum

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from edgeideals.render import json_text

# characters the escaper treats specially: quotes, backslashes, control
# characters, non-ASCII text, a character outside the BMP, lone surrogates
AWKWARD = '"\\/\x00\x1f\x7f\n\t\b\xe9\u2028\uffff\U0001f600\ud800\udfff'

text = st.text(st.sampled_from(AWKWARD) | st.characters(exclude_categories=()),
               max_size=8)
scalars = (st.none() | st.booleans()
           | st.integers(-10**30, 10**30) | st.integers(-2**200, 2**200)
           | st.floats(allow_nan=True, allow_infinity=True)
           | st.sampled_from([float("nan"), float("inf"), float("-inf"), -0.0])
           | text)
documents = st.recursive(
    scalars,
    lambda inner: (st.lists(inner, max_size=3)
                   | st.lists(inner, max_size=3).map(tuple)
                   | st.dictionaries(text, inner, max_size=3)
                   | st.dictionaries(st.integers(-5, 5), inner, max_size=3)),
    max_leaves=12)


def json_dumps(doc):
    return json.dumps(doc, indent=2, sort_keys=True) + "\n"


@given(documents)
@settings(max_examples=100, deadline=None)
def test_json_text_is_json_dumps_byte_for_byte(doc):
    assert json_text(doc) == json_dumps(doc)


class Colour(IntEnum):
    RED = 1


class Name(str):
    pass


@pytest.mark.parametrize("doc", [
    OrderedDict([("b", 1), ("a", [OrderedDict()])]),
    {"colour": Colour.RED, "list": [Colour.RED, 2]},
    Colour.RED,
    {Name("key"): Name("value"), "list": [Name("xé")]},
    Name("top"),
    {"empty": [{}, [], ()], "nested": [[[]], {"a": {}}]},
    {"f": [0.1, -0.0, 1e300], "keys": {3: None, 1: "one", -2: [1.5]}},
], ids=["ordered-dict", "int-enum-inside", "int-enum", "str-subclass",
        "str-subclass-top", "empties", "floats-and-int-keys"])
def test_named_documents_render_as_json_does(doc):
    assert json_text(doc) == json_dumps(doc)


@pytest.mark.parametrize("doc", [
    {"a": [1, {2, 3}]},
    {"a": 1, 2: "b"},
], ids=["set", "str-and-int-keys"])
def test_what_json_refuses_is_refused_with_its_error(doc):
    with pytest.raises(TypeError) as expected:
        json_dumps(doc)
    with pytest.raises(TypeError) as got:
        json_text(doc)
    assert str(got.value) == str(expected.value)
