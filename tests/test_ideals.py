from functools import reduce

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hyperideal.ideals import (
    IrreducibleComponent,
    MonomialIdeal,
    alexander_dual,
    dual_components,
    intersect_components,
    irredundant_filter,
    minimal_generators,
    vector_complement,
)
from hyperideal.monomials import Monomial


def ideal_of(n, *vectors):
    return MonomialIdeal.from_exponents(n, vectors)


def gen_lists(n):
    return st.lists(
        st.lists(st.integers(min_value=0, max_value=3), min_size=n, max_size=n).filter(
            lambda v: any(v)
        ),
        min_size=1,
        max_size=5,
    )


def small_ideals(n_max=4):
    """Nonzero proper ideals with a handful of small generators."""
    return st.integers(min_value=2, max_value=n_max).flatmap(
        lambda n: gen_lists(n).map(lambda vs: MonomialIdeal.from_exponents(n, vs))
    )


def ideal_pairs(n_max=4):
    return st.integers(min_value=2, max_value=n_max).flatmap(
        lambda n: st.tuples(gen_lists(n), gen_lists(n)).map(
            lambda pair: (
                MonomialIdeal.from_exponents(n, pair[0]),
                MonomialIdeal.from_exponents(n, pair[1]),
            )
        )
    )


def test_minimal_generators_drops_multiples():
    gens = [Monomial.of(1, 0), Monomial.of(1, 1), Monomial.of(0, 2)]
    assert minimal_generators(gens) == (Monomial.of(1, 0), Monomial.of(0, 2))


def test_minimal_generators_dedups():
    gens = [Monomial.of(1, 1), Monomial.of(1, 1)]
    assert minimal_generators(gens) == (Monomial.of(1, 1),)


@given(small_ideals())
def test_minimal_generators_pairwise_incomparable(ideal):
    for u in ideal.gens:
        for v in ideal.gens:
            if u is not v:
                assert not u.divides(v)


def test_zero_and_unit():
    z = MonomialIdeal.zero(3)
    assert z.is_zero and not z.gens
    one = MonomialIdeal.unit_ideal(3)
    assert one.is_unit
    assert str(z) == "0"
    assert str(one) == "1"
    assert one.contains(Monomial.of(0, 0, 0))
    assert not z.contains(Monomial.of(1, 0, 0))


def test_contains():
    ideal = ideal_of(3, (2, 0, 0), (0, 2, 0), (0, 0, 1))
    assert ideal.contains(Monomial.of(2, 1, 0))
    assert not ideal.contains(Monomial.of(1, 1, 0))


@given(ideal_pairs())
@settings(max_examples=50)
def test_intersection_membership(pair):
    a, b = pair
    both = a.intersect(b)
    for g in both.gens:
        assert a.contains(g) and b.contains(g)
    for g in a.gens:
        assert both.contains(g) == b.contains(g)


def test_truncate_below_threshold():
    comp = ideal_of(3, (2, 0, 0), (0, 2, 0), (0, 0, 1))
    cut = comp.truncate(2)
    expected = ideal_of(3, (2, 0, 0), (0, 2, 0), (1, 0, 1), (0, 1, 1), (0, 0, 2))
    assert cut == expected


def test_truncate_to_full_degree_level():
    comp = ideal_of(3, (2, 0, 0), (0, 2, 0), (0, 0, 1))
    cut = comp.truncate(3)
    assert len(cut.gens) == 10
    assert all(g.degree() == 3 for g in cut.gens)


def test_truncate_noop_and_errors():
    ideal = ideal_of(2, (1, 1))
    assert ideal.truncate(0) is ideal
    assert ideal.truncate(-2) is ideal
    with pytest.raises(ValueError):
        MonomialIdeal.zero(2).truncate(1)


@given(small_ideals(), st.integers(min_value=1, max_value=6))
@settings(max_examples=50)
def test_truncate_membership(ideal, t):
    cut = ideal.truncate(t)
    for g in cut.gens:
        assert g.degree() >= t
        assert ideal.contains(g)
    for g in ideal.gens:
        if g.degree() >= t:
            assert cut.contains(g)


def test_deg_max_index_support():
    ideal = ideal_of(3, (2, 0, 0), (0, 1, 1))
    assert ideal.deg() == 2
    assert ideal.max_index() == 3
    assert ideal.support() == frozenset({1, 2, 3})


def test_vector_complement():
    assert vector_complement((3, 3, 2, 1), (3, 3, 0, 0)) == (1, 1, 0, 0)
    assert vector_complement((3, 3, 2, 1), (1, 1, 1, 1)) == (3, 3, 2, 1)
    with pytest.raises(ValueError):
        vector_complement((1, 1), (2, 0))
    with pytest.raises(ValueError):
        vector_complement((1, 1), (1, 1, 1))


def test_irreducible_component_validation():
    with pytest.raises(ValueError):
        IrreducibleComponent(2, (0, 0))
    with pytest.raises(ValueError):
        IrreducibleComponent(2, (1,))
    comp = IrreducibleComponent(3, (2, 2, 1))
    assert comp.support() == frozenset({1, 2, 3})
    assert comp.contains_monomial(Monomial.of(0, 0, 1))
    assert not comp.contains_monomial(Monomial.of(1, 1, 0))


def test_dual_of_two_generator_ideal():
    ideal = ideal_of(3, (2, 2, 0), (1, 1, 1))
    dual = alexander_dual(ideal, (2, 2, 1))
    assert dual == ideal_of(3, (2, 0, 0), (0, 2, 0), (1, 0, 1), (0, 1, 1))


def test_dual_rejects_generator_outside_box():
    ideal = ideal_of(2, (3, 0))
    with pytest.raises(ValueError):
        alexander_dual(ideal, (2, 2))
    with pytest.raises(ValueError):
        dual_components(MonomialIdeal.zero(2), (1, 1))
    with pytest.raises(ValueError):
        dual_components(MonomialIdeal.unit_ideal(2), (1, 1))


@given(small_ideals())
@settings(max_examples=60)
def test_dual_involution_with_cap(ideal):
    cap = tuple(max(g.exponents[i] for g in ideal.gens) for i in range(ideal.n))
    if ideal.is_unit:
        return
    dual = alexander_dual(ideal, cap)
    assert alexander_dual(dual, cap) == ideal


def test_irredundant_filter_drops_superfluous_component():
    keep = [IrreducibleComponent(3, (1, 1, 0)), IrreducibleComponent(3, (2, 2, 1))]
    padded = keep + [IrreducibleComponent(3, (1, 1, 1))]
    filtered = irredundant_filter(padded)
    assert filtered == keep
    assert intersect_components(filtered) == intersect_components(padded)


def test_ideal_equality_and_hash():
    a = ideal_of(2, (1, 0), (0, 1))
    b = ideal_of(2, (0, 1), (1, 0), (1, 1))
    assert a == b
    assert hash(a) == hash(b)
    assert str(a) == "x1, x2"


def components_lists(n_max=5):
    return st.integers(min_value=1, max_value=n_max).flatmap(
        lambda n: st.lists(
            st.lists(st.integers(min_value=0, max_value=3), min_size=n, max_size=n)
            .filter(any)
            .map(lambda v: IrreducibleComponent(n, tuple(v))),
            min_size=1,
            max_size=6,
        )
    )


@given(components_lists())
@settings(max_examples=80)
def test_intersect_components_matches_pairwise_lcm(components):
    reference = reduce(MonomialIdeal.intersect, (c.as_ideal() for c in components))
    assert intersect_components(components) == reference


def test_intersect_components_rejects_mixed_ambients():
    with pytest.raises(ValueError, match="ambient"):
        intersect_components([IrreducibleComponent(2, (1, 1)), IrreducibleComponent(3, (1, 0, 2))])


@given(small_ideals())
@settings(max_examples=50)
def test_trusted_ideal_equals_validated(ideal):
    vectors = [g.exponents for g in ideal.gens] * 2
    trusted = MonomialIdeal._trusted(ideal.n, vectors)
    validated = MonomialIdeal.from_exponents(ideal.n, vectors)
    assert trusted == validated == ideal
    assert hash(trusted) == hash(validated)
    assert trusted.gens == validated.gens
