import itertools
import math

import pytest
from hypothesis import given
from hypothesis import strategies as st

from hyperideal.betti import koszul_complex
from hyperideal.ideals import MonomialIdeal
from hyperideal.monomials import (
    Monomial,
    canonical_sorted,
    compositions,
    divides_any,
)

exponent_vectors = st.lists(st.integers(min_value=0, max_value=6), min_size=1, max_size=5)


def pairs_same_ambient():
    return exponent_vectors.flatmap(
        lambda e: st.tuples(
            st.just(tuple(e)),
            st.lists(
                st.integers(min_value=0, max_value=6),
                min_size=len(e),
                max_size=len(e),
            ).map(tuple),
        )
    )


def test_rejects_bad_exponents():
    with pytest.raises(ValueError):
        Monomial((1, -1))
    with pytest.raises(ValueError):
        Monomial(())
    with pytest.raises(ValueError):
        Monomial((True, 0))


def test_constructors():
    assert Monomial.of(2, 0, 1) == Monomial((2, 0, 1))
    assert Monomial.of(0, 0, 0).is_unit()


def test_degree_max_index():
    u = Monomial.of(3, 0, 2)
    assert u.degree() == 5
    assert u.max_index() == 3
    with pytest.raises(ValueError):
        Monomial.of(0, 0).max_index()


def test_ambient_mismatch():
    # The public entries that take a raw exponent tuple check its length.
    ideal = MonomialIdeal.from_exponents(3, [(1, 1, 0), (0, 0, 2)])
    for u in [(1, 1), (1, 1, 0, 0)]:
        with pytest.raises(ValueError, match="ambient dimension mismatch"):
            ideal.contains(u)
        with pytest.raises(ValueError, match="ambient dimension mismatch"):
            koszul_complex(ideal, u)


@given(pairs_same_ambient())
def test_divides_iff_componentwise(pair):
    u, v = pair
    expected = all(a <= b for a, b in zip(u, v))
    assert divides_any((u,), v) == expected


def test_str_forms():
    assert str(Monomial.of(0, 0, 0)) == "1"
    assert str(Monomial.of(3, 3, 0, 0)) == "x1^3*x2^3"
    assert str(Monomial.of(1, 0, 1, 1)) == "x1*x3*x4"


def test_compositions_count_and_order():
    rows = list(compositions(3, (3, 3)))
    assert rows == [(3, 0), (2, 1), (1, 2), (0, 3)]
    assert list(compositions(3, (1, 2))) == [(1, 2)]
    assert list(compositions(4, (1, 2))) == []


@given(st.integers(min_value=0, max_value=7), st.integers(min_value=1, max_value=4))
def test_compositions_complete(total, parts):
    rows = list(compositions(total, (total,) * parts))
    assert len(rows) == math.comb(total + parts - 1, parts - 1)
    assert all(len(r) == parts and sum(r) == total for r in rows)


@given(
    st.integers(min_value=0, max_value=9),
    st.lists(st.integers(min_value=0, max_value=4), min_size=1, max_size=4),
)
def test_compositions_match_filtered_product(total, caps):
    # Lexicographically descending and complete: the brute-force filter of
    # the whole box, reversed.
    box = itertools.product(*(range(c + 1) for c in caps))
    expected = [v for v in box if sum(v) == total][::-1]
    assert list(compositions(total, caps)) == expected


@given(pairs_same_ambient())
def test_trusted_values_equal_validated(pair):
    u, v = pair
    for exps in (u, tuple(map(max, u, v))):
        derived, validated = Monomial._trusted(exps), Monomial(exps)
        assert derived == validated
        assert hash(derived) == hash(validated)
        assert repr(derived) == repr(validated)


def test_divides_any():
    gens = [(2, 0, 0), (0, 1, 1)]
    assert divides_any(gens, (2, 1, 0))
    assert divides_any(gens, (0, 3, 1))
    assert not divides_any(gens, (1, 1, 0))
    assert not divides_any([], (5, 5, 5))


@given(st.lists(st.lists(st.integers(min_value=0, max_value=4), min_size=3, max_size=3), max_size=12))
def test_canonical_sorted_matches_sort_key(vectors):
    exps = [tuple(v) for v in vectors]
    # Degree ascending, then lexicographically descending.
    expected = sorted(set(exps), key=lambda e: (sum(e), tuple(-x for x in e)))
    assert canonical_sorted(exps) == expected
