"""Text renderers shared by the CLI and the verification report.

`json.dumps` runs its C encoder only when `indent` is None, so indented
reports went through its pure-Python encoder; `json_text` writes them.
"""

from __future__ import annotations

import json
from json.encoder import encode_basestring_ascii as _quote


def csv_line(fields: list) -> str:
    """One CSV row with every comma inside a field written as ';'.

    Family specs and field-agree values contain commas, so this keeps
    every row as wide as its header without quoting.
    """
    return ",".join(str(f).replace(",", ";") for f in fields)


def json_text(doc) -> str:
    """doc as JSON with sorted keys, indented by two, ending in a newline.

    Byte for byte `json.dumps(doc, indent=2, sort_keys=True) + "\\n"`. A
    float, non-str key, subclass or other type goes to `json.dumps` (and
    raises as it does), shifted to its indent: no JSON string holds "\\n".
    """
    return _dump(doc, "\n") + "\n"


def _dump(o, pad: str) -> str:
    # pad is the newline and indent that end each line at o's depth
    t = type(o)
    if t is str:
        return _quote(o)
    if t is int:
        return int.__repr__(o)
    if t is bool or o is None:
        return "null" if o is None else "true" if o else "false"
    inner = pad + "  "
    if t is dict and o:
        try:
            items = [_quote(k) + ": " + _dump(v, inner)
                     for k, v in sorted(o.items())]
            return "{" + inner + ("," + inner).join(items) + pad + "}"
        except TypeError:  # a key that is not a str: json converts it
            pass
    elif t is list or t is tuple:
        if not o:
            return "[]"
        items = [_dump(v, inner) for v in o]
        return "[" + inner + ("," + inner).join(items) + pad + "]"
    return json.dumps(o, indent=2, sort_keys=True).replace("\n", pad)
