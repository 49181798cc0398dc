"""JSON input and output for hypergraphs and ideals.

Two shapes are accepted and told apart by their top-level key: an object
with "edges" is a hypergraph, one with "gens" is a bare ideal.  Vertex
labels are 1-based, generator rows are exponent vectors of length n.
"""

from __future__ import annotations

import json
from typing import Union

from .hypergraphs import IncreasingHypergraph, build_hypergraph
from .ideals import MonomialIdeal


class InputError(ValueError):
    """Malformed or invalid input file content."""


InputObject = Union[IncreasingHypergraph, MonomialIdeal]


def _require_int(value, what: str, source: str) -> int:
    if not isinstance(value, int) or isinstance(value, bool):
        raise InputError(f"{source}: {what} must be an integer, got {value!r}")
    return value


def parse_hypergraph(data: dict, source: str = "<input>") -> IncreasingHypergraph:
    edges = data.get("edges")
    if not isinstance(edges, list) or not all(isinstance(e, list) for e in edges):
        raise InputError(f'{source}: "edges" must be a list of vertex lists')
    for edge in edges:
        for v in edge:
            _require_int(v, "vertex label", source)
    try:
        return build_hypergraph(data.get("n"), data.get("d"), [frozenset(e) for e in edges])
    except ValueError as exc:
        raise InputError(f"{source}: {exc}") from exc


def parse_ideal(data: dict, source: str = "<input>") -> MonomialIdeal:
    n = _require_int(data.get("n"), '"n"', source)
    gens = data.get("gens")
    if not isinstance(gens, list) or not all(isinstance(g, list) for g in gens):
        raise InputError(f'{source}: "gens" must be a list of exponent vectors')
    try:
        return MonomialIdeal(n, gens)
    except ValueError as exc:
        raise InputError(f"{source}: {exc}") from exc


def parse_input(text: str, source: str = "<input>") -> InputObject:
    """Parse a JSON document and detect its kind by top-level key."""
    try:
        data = json.loads(text)
    except json.JSONDecodeError as exc:
        raise InputError(f"{source}: not valid JSON ({exc})") from exc
    if not isinstance(data, dict):
        raise InputError(f"{source}: expected a JSON object at top level")
    if "edges" in data:
        return parse_hypergraph(data, source)
    if "gens" in data:
        return parse_ideal(data, source)
    raise InputError(f'{source}: need either an "edges" or a "gens" key')


def load_path(path: str) -> InputObject:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            text = fh.read()
    except OSError as exc:
        raise InputError(f"cannot read {path}: {exc}") from exc
    return parse_input(text, source=path)


def dump_input(obj: InputObject) -> str:
    if isinstance(obj, IncreasingHypergraph):
        data = {"n": obj.n, "d": obj.d, "edges": [sorted(e) for e in obj.edges]}
    else:
        data = {"n": obj.n, "gens": [list(g) for g in obj._exps]}
    return json.dumps(data, indent=2) + "\n"
