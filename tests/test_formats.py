import json
import re

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from hyperideal import formats
from hyperideal.formats import (
    MAX_INPUT_BYTES,
    InputError,
    dump_input,
    dump_json,
    load_path,
    parse_input,
)
from hyperideal.homology import GuardError
from hyperideal.hypergraphs import IncreasingHypergraph, build_hypergraph
from hyperideal.ideals import MonomialIdeal


def test_parse_hypergraph():
    obj = parse_input('{"n": 3, "d": 1, "edges": [[1, 2], [1, 2, 3]]}')
    assert isinstance(obj, IncreasingHypergraph)
    assert obj.s == 2


def test_parse_ideal():
    obj = parse_input('{"n": 2, "gens": [[1, 0], [0, 2]]}')
    assert isinstance(obj, MonomialIdeal)
    assert len(obj.gens) == 2


def test_parse_errors_carry_source(tmp_path):
    with pytest.raises(InputError, match="stuff.json"):
        parse_input("not json", source="stuff.json")
    with pytest.raises(InputError, match="edges.*gens|gens.*edges"):
        parse_input('{"n": 2}')
    # A document with both keys is refused, not read as a hypergraph.
    with pytest.raises(
        InputError, match='^stuff.json: holds both an "edges" and a "gens" key; give one$'
    ):
        parse_input('{"n": 3, "gens": [[1, 1, 0]], "edges": [[1, 2]]}', source="stuff.json")
    with pytest.raises(InputError, match="top level"):
        parse_input("[1, 2]")
    with pytest.raises(InputError, match="integer"):
        parse_input('{"n": "3", "d": 1, "edges": [[1, 2]]}')
    with pytest.raises(InputError, match="length"):
        parse_input('{"n": 2, "gens": [[1, 0, 0]]}')
    # Exponent rows are checked by the ideal's constructor; the parser
    # puts the source in front of its message.
    rows = [("[1, 0, 0]", "length n=2"), ("[1.5, 0]", "integers"), ("[true, 0]", "integers")]
    for row, words in rows:
        with pytest.raises(InputError, match=f"^stuff.json: .*{words}"):
            parse_input(f'{{"n": 2, "gens": [[0, 1], {row}]}}', source="stuff.json")
    with pytest.raises(InputError, match="list of exponent vectors"):
        parse_input('{"n": 2, "gens": [3]}')
    with pytest.raises(InputError, match="nested"):
        parse_input('{"n": 4, "d": 1, "edges": [[1, 2], [1, 3, 4]]}')
    # "n" and the vertex labels are checked once, by MonomialIdeal and
    # build_hypergraph; the parser only prefixes the source.
    with pytest.raises(
        InputError, match="^stuff.json: ambient dimension must be a positive integer, got '3'$"
    ):
        parse_input('{"n": "3", "gens": [[1, 0, 0]]}', source="stuff.json")
    with pytest.raises(
        InputError, match="^stuff.json: edge 2: vertex labels must be integers, got list$"
    ):
        parse_input('{"n": 3, "d": 1, "edges": [[1, 2], [1, 2, [3]]]}', source="stuff.json")
    deep = "[" * 1200 + "]" * 1200
    with pytest.raises(InputError, match=r"^stuff.json: not valid JSON \(nested too deeply\)$"):
        parse_input(deep, source="stuff.json")
    latin = tmp_path / "latin.json"
    latin.write_bytes(b'{"n": 1, "gens": [[1]]} \xe9')
    with pytest.raises(InputError, match=f"^{re.escape(str(latin))}: cannot read \\('utf-8' codec"):
        load_path(str(latin))


@pytest.mark.parametrize("limit", [640, 4300])
def test_exponents_whose_values_would_not_print_are_refused(int_text_limit, limit):
    # Values printed from an exponent e stay below 10**10 * (e + 1), so e
    # may have at most limit - 10 digits.
    int_text_limit(limit)
    digits = limit - formats.EXPONENT_DIGIT_MARGIN
    top = 10**digits - 1
    assert parse_input(f'{{"n": 3, "gens": [[{top}, 1, 0], [0, 1, 1]]}}').deg() == top + 1
    with pytest.raises(
        InputError,
        match=f"^f.json: an exponent has more than {digits} digits; values derived "
        f"from it would pass the {limit}-digit limit for printing integers$",
    ):
        parse_input(f'{{"n": 3, "gens": [[{top + 1}, 1, 0], [0, 1, 1]]}}', source="f.json")
    # Only the minimal generators count: x2 absorbs the large one.
    assert parse_input(f'{{"n": 2, "gens": [[{top + 1}, 1], [0, 1]]}}').deg() == 1
    # With no limit, nothing is refused.
    int_text_limit(0)
    assert parse_input(f'{{"n": 2, "gens": [[{10**limit}, 0], [0, 1]]}}').n == 2


def test_load_path_missing_file():
    with pytest.raises(InputError, match="^/nonexistent/thing.json: cannot read "):
        load_path("/nonexistent/thing.json")


def test_load_path_reads_at_most_the_byte_limit(tmp_path, monkeypatch):
    # A file at the limit parses; one byte more is refused before anything
    # is decoded, so a byte that is not UTF-8 past the limit meets the guard.
    text = '{"n": 1, "gens": [[1]]}'
    monkeypatch.setattr(formats, "MAX_INPUT_BYTES", len(text))
    at = tmp_path / "at.json"
    at.write_text(text)
    assert load_path(str(at)) == MonomialIdeal(1, [[1]])
    over = tmp_path / "over.json"
    over.write_bytes(text.encode() + b"\xe9")
    with pytest.raises(
        GuardError,
        match=f"^{re.escape(str(over))}: input exceeds the desk-scale limit {len(text)} bytes$",
    ):
        load_path(str(over))


def test_load_path_reads_a_file_of_exactly_the_limit(tmp_path):
    # Past its first short read, load_path reads on to the limit and no more.
    text = '{"n": 1, "gens": [[1]]}'
    at = tmp_path / "at.json"
    at.write_text(text + " " * (MAX_INPUT_BYTES - len(text)))
    assert load_path(str(at)) == MonomialIdeal(1, [[1]])


def test_fixture_round_trip(repo_root):
    h = load_path(str(repo_root / "fixtures" / "chain_n4_s3.json"))
    text = dump_input(h)
    again = parse_input(text)
    assert again == h


def test_ideal_round_trip():
    ideal = MonomialIdeal(3, [(2, 0, 0), (0, 1, 1)])
    assert parse_input(dump_input(ideal)) == ideal


def test_dump_hypergraph_sorted_edges():
    h = build_hypergraph(3, 1, [frozenset({2, 1}), frozenset({3, 1, 2})])
    text = dump_input(h)
    assert "[\n      1,\n      2\n    ]" in text


# Quotes, backslashes, control characters, non-ASCII and lone surrogates,
# besides whatever text hypothesis draws from every category.
json_strings = st.text(
    st.characters(exclude_categories=())
    | st.sampled_from('"\\/\n\t\x00\x1f\x7f\u2028\xe9\ud800\udfff')
)
json_ints = st.integers() | st.sampled_from([-1, 0, 2**63, 2**64, 2**64 + 1, -(2**70)])
json_values = st.recursive(
    st.none() | st.booleans() | json_ints | json_strings | st.lists(json_ints),
    lambda inner: st.lists(inner, max_size=5) | st.dictionaries(json_strings, inner, max_size=5),
    max_leaves=20,
)


@given(json_values)
@example({"a": [], "b": {}, "c": [[]], "d": [{}], "e": [True, 1, None]})
@example([2**64 + 1, -(2**64), 0])
@settings(max_examples=150)
def test_dump_json_matches_indented_json_dumps(value):
    assert dump_json(value) == json.dumps(value, indent=2)


@pytest.mark.parametrize(
    "value", [1.5, (1, 2), {"a": [0.0]}, [{"b": (1,)}], {1: "x"}, {None: 1}, {"a": {2}}]
)
def test_dump_json_refuses_other_types(value):
    with pytest.raises(TypeError):
        dump_json(value)
