import itertools
import math
from dataclasses import dataclass

import pytest
from hypothesis import given
from hypothesis import strategies as st

from hyperideal.betti import koszul_complex
from hyperideal.ideals import MonomialIdeal
from hyperideal.stability import is_stable
from hyperideal.monomials import (
    Monomial,
    canonical_sorted,
    compositions,
    divides_any,
    exponent_vector,
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
    for bad in [(1, -1), (), (True, 0), (1.5, 0), ("1", 0), (None,)]:
        with pytest.raises(ValueError):
            exponent_vector(bad)
    with pytest.raises(ValueError, match="length n=3"):
        exponent_vector((1, 1), 3)
    # The length is checked before the entries.
    with pytest.raises(ValueError, match="length n=3"):
        exponent_vector((1, -1), 3)
    with pytest.raises(ValueError, match=r"nonnegative integers, got \(1, -1\)"):
        exponent_vector([1, -1], 2)


def test_constructors():
    assert exponent_vector([2, 0, 1]) == (2, 0, 1)
    assert exponent_vector(iter((2, 0, 1)), 3) == (2, 0, 1)
    rows = [[2, 0, 1], (0, 1, 0)]
    assert MonomialIdeal(3, rows) == MonomialIdeal(3, map(tuple, rows))
    assert MonomialIdeal(3, rows).gens == (Monomial((0, 1, 0)), Monomial((2, 0, 1)))


entries = st.one_of(
    st.integers(min_value=-3, max_value=6),
    st.booleans(),
    st.floats(allow_nan=False, min_value=-2, max_value=4),
    st.sampled_from(["1", "x", None]),
)


def ambient_and_rows():
    # Rows are exponent vectors of length n or arbitrary lists, mixed.
    def rows(n):
        vectors = st.lists(st.integers(min_value=0, max_value=6), min_size=n, max_size=n)
        return st.lists(st.one_of(vectors, st.lists(entries, max_size=5)), max_size=4)

    return st.integers(min_value=1, max_value=4).flatmap(lambda n: st.tuples(st.just(n), rows(n)))


@given(ambient_and_rows())
def test_ideal_accepts_exactly_the_exponent_vectors(case):
    # Refused as well: no rows (the zero ideal) and a row of zeros (1,
    # which minimizes the list to the unit ideal).
    n, rows = case
    valid = all(
        len(row) == n and all(type(e) is int and e >= 0 for e in row) for row in rows
    )
    if valid and rows and all(any(row) for row in rows):
        ideal = MonomialIdeal(n, rows)
        assert all(ideal.contains(tuple(row)) for row in rows)
    else:
        with pytest.raises(ValueError):
            MonomialIdeal(n, rows)


@pytest.mark.parametrize("n", [0, -1, 2.0, True, "2", None])
def test_ideal_rejects_a_bad_ambient_dimension(n):
    with pytest.raises(ValueError, match="ambient dimension must be a positive integer"):
        MonomialIdeal(n, [(1, 0)])


def test_degree_max_index():
    u = Monomial((3, 0, 2))
    assert u.degree() == 5
    assert u.max_index() == 3
    with pytest.raises(ValueError):
        Monomial((0, 0)).max_index()


def test_ambient_mismatch():
    # The public entries that take a raw exponent tuple check its length.
    ideal = MonomialIdeal(3, [(1, 1, 0), (0, 0, 2)])
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
    assert str(Monomial((0, 0, 0))) == "1"
    assert str(Monomial((3, 3, 0, 0))) == "x1^3*x2^3"
    assert str(Monomial((1, 0, 1, 1))) == "x1*x3*x4"
    assert str(Monomial((0, 5, 1))) == "x2^5*x3"
    assert f"{Monomial((2, 0, 1))}" == "x1^2*x3"


# The frozen dataclass a Monomial used to be, kept as the reference for its repr.
DataclassMonomial = dataclass(frozen=True)(
    type("Monomial", (), {"__annotations__": {"exponents": tuple}})
)


@given(st.lists(st.integers(min_value=0, max_value=10**12), max_size=6).map(tuple))
def test_monomial_repr_is_the_dataclass_form(exps):
    assert repr(Monomial(exps)) == repr(DataclassMonomial(exps))


def test_monomial_is_its_exponent_tuple():
    u = Monomial((3, 0, 2))
    assert repr(u) == "Monomial(exponents=(3, 0, 2))"
    assert repr(Monomial((4,))) == "Monomial(exponents=(4,))"
    # exponents is the plain tuple, which prints as a tuple, not as u.
    assert type(u.exponents) is tuple
    assert u.exponents == (3, 0, 2)
    assert repr([u.exponents]) == "[(3, 0, 2)]"
    # Equal exponents make equal monomials with equal hashes.
    assert u == Monomial([3, 0, 2]) and hash(u) == hash(Monomial([3, 0, 2]))
    assert u != Monomial((2, 0, 3))
    assert len({u, Monomial((3, 0, 2)), Monomial((0, 3, 2))}) == 2


def test_monomial_sets_no_attribute():
    u = Monomial((1, 2))
    for name in ("exponents", "n", "anything"):
        with pytest.raises(AttributeError):
            setattr(u, name, (5, 5))
        with pytest.raises(AttributeError):
            object.__setattr__(u, name, (5, 5))
    assert u.exponents == (1, 2)


def test_monomial_keeps_the_tuple_constructor_and_operators():
    # A Monomial is a tuple: its repr form does not construct one, and the
    # tuple operators repeat and concatenate exponents; neither multiplies.
    u, v = Monomial((3, 0, 2)), Monomial((1, 1, 0))
    with pytest.raises(TypeError):
        Monomial(exponents=(3, 0, 2))
    assert eval(repr(u).replace("exponents=", ""), {"Monomial": Monomial}) == u
    assert u * 2 == (3, 0, 2, 3, 0, 2) and type(u * 2) is tuple
    assert u + v == (3, 0, 2, 1, 1, 0) and type(u + v) is tuple
    assert len(u * 2) == 2 * len(u)


def test_ideal_and_witness_forms_unchanged():
    ideal = MonomialIdeal(3, [(1, 1, 0), (0, 0, 2), (2, 0, 1)])
    assert repr(ideal) == (
        "MonomialIdeal(3, [Monomial(exponents=(1, 1, 0)), Monomial(exponents=(0, 0, 2)), "
        "Monomial(exponents=(2, 0, 1))])"
    )
    assert str(ideal) == "x1*x2, x3^2, x1^2*x3"
    witness = is_stable(ideal).witness
    assert repr(witness) == (
        "StabilityWitness(generator=Monomial(exponents=(0, 0, 2)), shift_index=1, "
        "shifted=Monomial(exponents=(1, 0, 1)))"
    )
    assert witness.render() == "witness: u=x3^2 j=1 shifted=x1*x3 (not in ideal)"


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
