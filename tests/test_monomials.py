import math

import pytest
from hypothesis import given
from hypothesis import strategies as st

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
            st.just(Monomial(tuple(e))),
            st.lists(
                st.integers(min_value=0, max_value=6),
                min_size=len(e),
                max_size=len(e),
            ).map(lambda f: Monomial(tuple(f))),
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
    assert Monomial.unit(3).is_unit()
    assert Monomial.variable(2, 3) == Monomial((0, 1, 0))
    assert Monomial.variable(1, 2, power=4) == Monomial((4, 0))
    with pytest.raises(ValueError):
        Monomial.variable(4, 3)


def test_degree_support_max_index():
    u = Monomial.of(3, 0, 2)
    assert u.degree() == 5
    assert u.support() == frozenset({1, 3})
    assert u.max_index() == 3
    with pytest.raises(ValueError):
        Monomial.unit(2).max_index()


def test_ambient_mismatch():
    with pytest.raises(ValueError):
        Monomial.of(1, 0).divides(Monomial.of(1, 0, 0))
    with pytest.raises(ValueError):
        Monomial.of(1, 0).lcm(Monomial.of(1))


@given(pairs_same_ambient())
def test_divides_iff_componentwise(pair):
    u, v = pair
    expected = all(a <= b for a, b in zip(u.exponents, v.exponents))
    assert u.divides(v) == expected


@given(pairs_same_ambient())
def test_lcm_laws(pair):
    u, v = pair
    w = u.lcm(v)
    assert u.divides(w) and v.divides(w)
    assert w == v.lcm(u)
    assert u.lcm(u) == u
    # least: the lcm divides the plain product
    assert w.divides(u.times(v)) or any(
        min(a, b) > 0 for a, b in zip(u.exponents, v.exponents)
    )


@given(pairs_same_ambient())
def test_times_adds_degrees(pair):
    u, v = pair
    assert u.times(v).degree() == u.degree() + v.degree()


def test_stability_shift():
    u = Monomial.of(0, 2, 1)
    assert u.stability_shift(1) == Monomial.of(1, 2, 0)
    assert u.stability_shift(2) == Monomial.of(0, 3, 0)
    with pytest.raises(ValueError):
        u.stability_shift(3)
    with pytest.raises(ValueError):
        u.stability_shift(0)


def test_sort_key_orders_by_degree_then_lex():
    a = Monomial.of(1, 1, 1, 1)
    b = Monomial.of(3, 3, 0, 0)
    c = Monomial.of(2, 2, 2, 0)
    assert sorted([c, b, a], key=Monomial.sort_key) == [a, b, c]


def test_str_forms():
    assert str(Monomial.unit(3)) == "1"
    assert str(Monomial.of(3, 3, 0, 0)) == "x1^3*x2^3"
    assert str(Monomial.of(1, 0, 1, 1)) == "x1*x3*x4"


def test_compositions_count_and_order():
    rows = list(compositions(3, 2))
    assert rows[0][0] == 3 and rows[-1][0] == 0
    assert len(rows) == math.comb(3 + 1, 1)
    assert all(sum(r) == 3 for r in rows)
    assert len(set(rows)) == len(rows)


@given(st.integers(min_value=0, max_value=7), st.integers(min_value=1, max_value=4))
def test_compositions_complete(total, parts):
    rows = list(compositions(total, parts))
    assert len(rows) == math.comb(total + parts - 1, parts - 1)
    assert all(len(r) == parts and sum(r) == total for r in rows)


@given(pairs_same_ambient())
def test_trusted_values_equal_validated(pair):
    u, v = pair
    for derived, exps in (
        (u.lcm(v), tuple(max(a, b) for a, b in zip(u.exponents, v.exponents))),
        (u.times(v), tuple(a + b for a, b in zip(u.exponents, v.exponents))),
        (Monomial._trusted(u.exponents), u.exponents),
    ):
        validated = Monomial(exps)
        assert derived == validated
        assert hash(derived) == hash(validated)
        assert repr(derived) == repr(validated)
    if not u.is_unit() and u.max_index() > 1:
        shifted = u.stability_shift(1)
        assert shifted == Monomial(shifted.exponents)
        assert hash(shifted) == hash(Monomial(shifted.exponents))


def test_divides_any():
    gens = [(2, 0, 0), (0, 1, 1)]
    assert divides_any(gens, (2, 1, 0))
    assert divides_any(gens, (0, 3, 1))
    assert not divides_any(gens, (1, 1, 0))
    assert not divides_any([], (5, 5, 5))


@given(st.lists(st.lists(st.integers(min_value=0, max_value=4), min_size=3, max_size=3), max_size=12))
def test_canonical_sorted_matches_sort_key(vectors):
    exps = [tuple(v) for v in vectors]
    expected = sorted(set(exps), key=lambda e: Monomial(e).sort_key())
    assert canonical_sorted(exps) == expected
