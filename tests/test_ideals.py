from functools import reduce

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hyperideal.homology import GuardError
from hyperideal.ideals import (
    MAX_TRUNCATION,
    IrreducibleComponent,
    MonomialIdeal,
    alexander_dual,
    dual_components,
    intersect_components,
    irredundant_filter,
    minimal_generators,
)
from hyperideal.monomials import Monomial, compositions


def ideal_of(n, *vectors):
    return MonomialIdeal.from_exponents(n, vectors)


def component_ideal(comp):
    """The validated pure-power ideal of an irreducible component."""
    return MonomialIdeal(
        comp.n,
        (Monomial.variable(i, comp.n, p) for i, p in enumerate(comp.powers, start=1) if p),
    )


def intersect(a, b):
    """Intersection via pairwise lcms of generators, then minimization."""
    return MonomialIdeal.from_exponents(
        a.n, (tuple(map(max, g.exponents, h.exponents)) for g in a.gens for h in b.gens)
    )


def reference_irredundant_filter(components):
    """Drop the first component that contains the intersection of the
    others, tested generator by generator on raw tuples, and restart."""
    comps = list(components)
    changed = True
    while changed and len(comps) > 1:
        changed = False
        for i in range(len(comps)):
            rest = intersect_components(comps[:i] + comps[i + 1 :])
            b = comps[i].powers
            if all(any(p >= 1 and e >= p for e, p in zip(g.exponents, b)) for g in rest.gens):
                del comps[i]
                changed = True
                break
    return comps


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
    both = intersect(a, b)
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


def reference_truncate(ideal, t):
    """The padding loop ``truncate`` used to run: each generator below
    degree t times every monomial of the missing degree, then minimized."""
    if t <= 0:
        return ideal
    cands = []
    for g in ideal.gens:
        gap = t - g.degree()
        if gap <= 0:
            cands.append(g)
        else:
            cands.extend(g.times(Monomial(w)) for w in compositions(gap, ideal.n))
    return MonomialIdeal(ideal.n, cands)


# Zero vectors allowed, so the unit ideal and generators of every degree
# from 0 up appear.
any_ideals = st.integers(min_value=1, max_value=6).flatmap(
    lambda n: st.lists(
        st.lists(st.integers(min_value=0, max_value=3), min_size=n, max_size=n),
        min_size=1,
        max_size=5,
    ).map(lambda vs: MonomialIdeal.from_exponents(n, vs))
)


@given(any_ideals, st.data())
@settings(max_examples=150, deadline=None)
def test_truncate_matches_padding_reference(ideal, data):
    t = data.draw(st.integers(min_value=0, max_value=ideal.deg() + 3))
    cut = ideal.truncate(t)
    expected = reference_truncate(ideal, t)
    # Equal ideals have equal generator tuples in canonical order.
    assert cut == expected
    assert cut.gens == expected.gens
    if all(g.degree() >= t for g in ideal.gens):
        assert cut is ideal


def test_truncate_generators_at_above_and_below_t():
    ideal = ideal_of(3, (1, 0, 0), (0, 2, 0), (0, 0, 3))
    cut = ideal.truncate(2)
    assert [g.exponents for g in cut.gens] == [
        (2, 0, 0), (1, 1, 0), (1, 0, 1), (0, 2, 0), (0, 0, 3)
    ]
    assert cut == reference_truncate(ideal, 2)
    unit = MonomialIdeal.unit_ideal(3)
    assert unit.truncate(2).gens == tuple(map(Monomial, compositions(2, 3)))


def test_truncate_guard():
    # C(49+13, 13) is about 8.3e12 degree-49 monomials in 14 variables.
    with pytest.raises(GuardError) as exc:
        MonomialIdeal.unit_ideal(14).truncate(49)
    message = str(exc.value)
    assert "\n" not in message
    assert "t=49" in message and "n=14" in message
    assert "8.3e+12" in message and str(MAX_TRUNCATION) in message
    # Nothing is enumerated when no generator lies below t.
    high = ideal_of(14, (49,) + (0,) * 13, (0,) * 13 + (50,))
    assert high.truncate(49) is high


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


def test_dual_components_complement_generators():
    ideal = ideal_of(4, (3, 3, 0, 0), (1, 1, 1, 1))
    comps = dual_components(ideal, (3, 3, 2, 1))
    assert [c.powers for c in comps] == [(3, 3, 2, 1), (1, 1, 0, 0)]
    with pytest.raises(ValueError, match="length"):
        dual_components(ideal_of(2, (1, 1)), (1, 1, 1))


def test_irreducible_component_validation():
    with pytest.raises(ValueError):
        IrreducibleComponent(2, (0, 0))
    with pytest.raises(ValueError):
        IrreducibleComponent(2, (1,))
    comp = IrreducibleComponent(3, (2, 2, 1))
    assert comp.support() == frozenset({1, 2, 3})


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
    doubled = [keep[0], keep[1], keep[0]]
    assert irredundant_filter(doubled) == [keep[1], keep[0]]


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


@given(
    components_lists().flatmap(
        lambda pool: st.lists(st.sampled_from(pool), min_size=1, max_size=7)
    )
)
@settings(max_examples=200)
def test_irredundant_filter_matches_restart_scan(components):
    assert irredundant_filter(components) == reference_irredundant_filter(components)


@given(components_lists())
@settings(max_examples=80)
def test_intersect_components_matches_pairwise_lcm(components):
    reference = reduce(intersect, map(component_ideal, components))
    assert intersect_components(components) == reference


@given(components_lists())
@settings(max_examples=80)
def test_component_str_matches_pure_power_ideal(components):
    for comp in components:
        assert str(comp) == str(component_ideal(comp))


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
