"""Text renderers shared by the CLI and the verification report."""

from __future__ import annotations

import json


def csv_line(fields: list) -> str:
    """One CSV row with every comma inside a field written as ';'.

    Family specs and field-agree values contain commas, so this keeps
    every row as wide as its header without quoting.
    """
    return ",".join(str(f).replace(",", ";") for f in fields)


def json_text(doc) -> str:
    """doc as JSON with sorted keys, indented by two, ending in a newline."""
    return json.dumps(doc, indent=2, sort_keys=True) + "\n"
