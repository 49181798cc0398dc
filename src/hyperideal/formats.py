"""JSON input and output for hypergraphs and ideals.

Two shapes are accepted and told apart by their top-level key: an object
with "edges" is a hypergraph, one with "gens" is a bare ideal, and one
with both is refused.  Vertex labels are 1-based, generator rows are
exponent vectors of length n.
The parser checks the JSON shape and that an ideal's exponents leave
room to print what derives from them; ``build_hypergraph`` and
``MonomialIdeal`` check the values, and the parser names the source.
Every indented document the package writes goes through ``dump_json``.
"""

from __future__ import annotations

import json
import sys
from json.encoder import encode_basestring_ascii as _string
from typing import Union

from .homology import GuardError
from .hypergraphs import IncreasingHypergraph, build_hypergraph
from .ideals import MAX_VERTICES, MonomialIdeal

# Most bytes an input file may hold, read before any other check.  The
# largest file `gen` writes inside its guards, n = 10^5, s = 1412, d = 1,
# holds 12.9 MB.  Reading a file at the limit under a 1 GB address-space
# limit on a 2-vCPU x86-64 VM (Python 3.11) peaked at 138 MB for that
# chain padded with blanks and 130 MB for one edge of 8.0 M labels; at
# 194 MB for one generator of 8.0 M entries and 290 MB for 610,000
# generators in 10 variables.  Reading all of /dev/zero ran out of memory
# after 1.3 s.
MAX_INPUT_BYTES = 16 * 10**6
_FIRST_READ = 1 << 16

# Digits an exponent must leave free under the interpreter's limit for
# turning an int into text (sys.get_int_max_str_digits(), 4,300 by
# default).  Every integer the package prints from an ideal whose largest
# exponent is e lies below MAX_VERTICES**2 * (e + 1) = 10**10 * (e + 1):
# a degree or a Betti degree is at most n*e, q = m*(deg - 1) + 1 is below
# n*n*e, and a stability shift raises one exponent to e + 1.  JSON holds
# integers up to the limit itself, so without this margin a file could
# pass the parser and fail only when its result is printed.
EXPONENT_DIGIT_MARGIN = len(str(MAX_VERTICES**2 - 1))
# Releases before 3.10.7 have no such limit.
_int_text_limit = getattr(sys, "get_int_max_str_digits", lambda: 0)


class InputError(ValueError):
    """Malformed or invalid input file content."""


InputObject = Union[IncreasingHypergraph, MonomialIdeal]

_ROWS = {"edges": "vertex lists", "gens": "exponent vectors"}


def parse_input(text: str, source: str = "<input>") -> InputObject:
    """Parse a JSON document by its top-level key; every refusal names ``source``."""
    try:
        try:
            data = json.loads(text)
        except json.JSONDecodeError as exc:
            raise InputError(f"not valid JSON ({exc})") from exc
        except RecursionError:
            raise InputError("not valid JSON (nested too deeply)") from None
        if not isinstance(data, dict):
            raise InputError("expected a JSON object at top level")
        keys = [k for k in _ROWS if k in data]
        if not keys:
            raise InputError('need either an "edges" or a "gens" key')
        if len(keys) > 1:
            raise InputError('holds both an "edges" and a "gens" key; give one')
        key = keys[0]
        rows = data[key]
        if not isinstance(rows, list) or not all(isinstance(r, list) for r in rows):
            raise InputError(f'"{key}" must be a list of {_ROWS[key]}')
        if key == "edges":
            return build_hypergraph(data.get("n"), data.get("d"), rows)
        ideal = MonomialIdeal(data.get("n"), rows)
        _require_printable(ideal)
        return ideal
    except ValueError as exc:  # a GuardError is no ValueError and passes as raised
        raise InputError(f"{source}: {exc}") from exc


def _require_printable(ideal: MonomialIdeal) -> None:
    """Refuse an ideal with an exponent of more digits than the
    int-to-text limit less ``EXPONENT_DIGIT_MARGIN``; a limit of 0 (none)
    refuses nothing."""
    limit = _int_text_limit()
    digits = limit - EXPONENT_DIGIT_MARGIN
    top = max(map(max, ideal._exps))
    # 2**(3k) < 10**k: only an exponent past 3k bits needs the power of ten.
    if limit and top.bit_length() > 3 * digits and top >= 10**digits:
        raise InputError(
            f"an exponent has more than {digits} digits; values derived from it "
            f"would pass the {limit}-digit limit for printing integers"
        )


def load_path(path: str) -> InputObject:
    """Parse the file at ``path``, reading at most ``MAX_INPUT_BYTES`` + 1
    bytes: a larger file, device or FIFO is refused (``GuardError``)
    before it is decoded."""
    try:
        with open(path, "rb") as fh:
            # A read of k bytes allocates k bytes first, which takes 37 us
            # at the limit against 8 us for a small file read whole; so
            # the limit is asked for only past one short read.
            raw = fh.read(_FIRST_READ)
            if len(raw) == _FIRST_READ:
                raw += fh.read(MAX_INPUT_BYTES + 1 - _FIRST_READ)
        if len(raw) > MAX_INPUT_BYTES:
            raise GuardError(f"{path}: input exceeds the desk-scale limit {MAX_INPUT_BYTES} bytes")
        text = raw.decode("utf-8")
    except (OSError, UnicodeDecodeError) as exc:
        raise InputError(f"{path}: cannot read ({exc})") from exc
    return parse_input(text, source=path)


def dump_input(obj: InputObject) -> str:
    if isinstance(obj, IncreasingHypergraph):
        data = {"n": obj.n, "d": obj.d, "edges": [sorted(e) for e in obj.edges]}
    else:
        data = {"n": obj.n, "gens": [list(g) for g in obj._exps]}
    return dump_json(data) + "\n"


def dump_json(obj) -> str:
    """``json.dumps(obj, indent=2)``, byte for byte, for dicts with str
    keys, lists, str, int, bool and None; anything else raises TypeError.

    With an indent json.dumps leaves its C encoder for a pure-Python one;
    here every string goes through the C string encoder, and a list of
    ints is joined in one step.
    """
    return _dump(obj, "\n")


def _dump(obj, newline: str) -> str:
    """``obj`` as json.dumps writes it at the indent that ``newline``, a
    line break and its indent, ends with."""
    if isinstance(obj, dict):
        if not obj:
            return "{}"
        inner = newline + "  "
        # Most values are strings.  The string encoder raises TypeError on
        # a key that is no str.
        items = [
            _string(k) + ": " + (_string(v) if type(v) is str else _dump(v, inner))
            for k, v in obj.items()
        ]
        return "{" + inner + ("," + inner).join(items) + newline + "}"
    if isinstance(obj, list):
        if not obj:
            return "[]"
        inner = newline + "  "
        if all(type(v) is int for v in obj):
            items = map(int.__repr__, obj)
        else:
            items = [_dump(v, inner) for v in obj]
        return "[" + inner + ("," + inner).join(items) + newline + "]"
    if isinstance(obj, str):
        return _string(obj)
    if obj is None:
        return "null"
    if obj is True:
        return "true"
    if obj is False:
        return "false"
    if isinstance(obj, int):
        return int.__repr__(obj)
    raise TypeError(f"Object of type {type(obj).__name__} is not JSON serializable")
