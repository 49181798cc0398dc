import re

import pytest

from hyperideal.formats import (
    InputError,
    dump_input,
    load_path,
    parse_input,
)
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


def test_load_path_missing_file():
    with pytest.raises(InputError, match="^/nonexistent/thing.json: cannot read "):
        load_path("/nonexistent/thing.json")


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
