"""JSON input and output for hypergraphs and ideals.

Two shapes are accepted and told apart by their top-level key: an object
with "edges" is a hypergraph, one with "gens" is a bare ideal.  Vertex
labels are 1-based, generator rows are exponent vectors of length n.
The parser checks only the JSON shape; ``build_hypergraph`` and
``MonomialIdeal`` check the values, and every error names its source.
"""

from __future__ import annotations

import json
from typing import Union

from .hypergraphs import IncreasingHypergraph, build_hypergraph
from .ideals import MonomialIdeal


class InputError(ValueError):
    """Malformed or invalid input file content."""


InputObject = Union[IncreasingHypergraph, MonomialIdeal]

_ROWS = {"edges": "vertex lists", "gens": "exponent vectors"}


def parse_input(text: str, source: str = "<input>") -> InputObject:
    """Parse a JSON document and detect its kind by top-level key."""
    try:
        data = json.loads(text)
    except json.JSONDecodeError as exc:
        raise InputError(f"{source}: not valid JSON ({exc})") from exc
    except RecursionError:
        raise InputError(f"{source}: not valid JSON (nested too deeply)") from None
    if not isinstance(data, dict):
        raise InputError(f"{source}: expected a JSON object at top level")
    key = next((k for k in _ROWS if k in data), None)
    if key is None:
        raise InputError(f'{source}: need either an "edges" or a "gens" key')
    rows = data[key]
    if not isinstance(rows, list) or not all(isinstance(r, list) for r in rows):
        raise InputError(f'{source}: "{key}" must be a list of {_ROWS[key]}')
    try:
        if key == "edges":
            return build_hypergraph(data.get("n"), data.get("d"), rows)
        return MonomialIdeal(data.get("n"), rows)
    except ValueError as exc:
        raise InputError(f"{source}: {exc}") from exc


def load_path(path: str) -> InputObject:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            text = fh.read()
    except (OSError, UnicodeDecodeError) as exc:
        raise InputError(f"{path}: cannot read ({exc})") from exc
    return parse_input(text, source=path)


def dump_input(obj: InputObject) -> str:
    if isinstance(obj, IncreasingHypergraph):
        data = {"n": obj.n, "d": obj.d, "edges": [sorted(e) for e in obj.edges]}
    else:
        data = {"n": obj.n, "gens": [list(g) for g in obj._exps]}
    return json.dumps(data, indent=2) + "\n"
