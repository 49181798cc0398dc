from functools import reduce
from math import comb
from operator import add, le

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from hyperideal import ideals
from hyperideal.formats import parse_input
from hyperideal.homology import GuardError
from hyperideal.hypergraphs import build_hypergraph, special_dual
from hyperideal.ideals import (
    MAX_TRUNCATION,
    MonomialIdeal,
    _dual_powers,
    _intersect,
    _minimize,
    alexander_dual,
    component_str,
    irredundant_filter,
)
from hyperideal.monomials import Monomial, canonical_sorted, compositions, divides_any
from hyperideal.stability import t_bound


def ideal_of(n, *vectors):
    return MonomialIdeal(n, vectors)


def maximal_ideal(n):
    """(x_1, ..., x_n)."""
    return MonomialIdeal(n, (tuple(int(i == j) for j in range(n)) for i in range(n)))


def component_ideal(powers):
    """The validated pure-power ideal of the irreducible component with
    exponent vector ``powers``."""
    n = len(powers)
    return MonomialIdeal(
        n, (tuple(p if k == i else 0 for k in range(n)) for i, p in enumerate(powers) if p)
    )


def fold(components):
    """The ideal the package's fold builds from component vectors."""
    n = len(components[0])
    return MonomialIdeal._of_minimal(n, _intersect(n, components))


def intersect(a, b):
    """Intersection via pairwise lcms of generators, then minimization."""
    return MonomialIdeal(
        a.n, (tuple(map(max, g.exponents, h.exponents)) for g in a.gens for h in b.gens)
    )


def reference_intersect(components):
    """The fold the package used to run: a generator g of the running
    intersection that lies in the next component m^v is kept, any other
    is replaced by g with x_i raised to v_i for each i in supp(v), and the
    candidates are minimized before every step."""
    n = len(components[0])
    cands = [(0,) * n]
    for v in components:
        supp = [i for i, p in enumerate(v) if p >= 1]
        gens, cands = _minimize(cands, n), []
        for g in gens:
            if any(g[i] >= v[i] for i in supp):
                cands.append(g)
            else:
                cands.extend(g[:i] + (v[i],) + g[i + 1 :] for i in supp)
    return MonomialIdeal(n, cands)


def reference_irredundant_filter(components):
    """Drop the first component that contains the intersection of the
    others, tested generator by generator on raw tuples, and restart."""
    comps = list(components)
    changed = True
    while changed and len(comps) > 1:
        changed = False
        for i in range(len(comps)):
            rest = reference_intersect(comps[:i] + comps[i + 1 :])
            b = comps[i]
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
        lambda n: gen_lists(n).map(lambda vs: MonomialIdeal(n, vs))
    )


def ideal_pairs(n_max=4):
    return st.integers(min_value=2, max_value=n_max).flatmap(
        lambda n: st.tuples(gen_lists(n), gen_lists(n)).map(
            lambda pair: (
                MonomialIdeal(n, pair[0]),
                MonomialIdeal(n, pair[1]),
            )
        )
    )


def test_minimal_generators_drops_multiples():
    gens = [(1, 0), (1, 1), (0, 2)]
    assert MonomialIdeal(2, gens).gens == (Monomial((1, 0)), Monomial((0, 2)))


def test_minimal_generators_dedups():
    gens = [(1, 1), [1, 1]]
    assert MonomialIdeal(2, gens).gens == (Monomial((1, 1)),)


@given(small_ideals())
def test_minimal_generators_pairwise_incomparable(ideal):
    exps = [g.exponents for g in ideal.gens]
    for i, u in enumerate(exps):
        assert not divides_any(exps[:i] + exps[i + 1 :], u)


def test_zero_and_unit():
    # The constructor refuses both, so every ideal is proper and nonzero;
    # there is no default for the generators.
    zero = "^the zero ideal is refused: an ideal must be proper and nonzero$"
    unit = "^the unit ideal is refused: an ideal must be proper and nonzero$"
    with pytest.raises(TypeError):
        MonomialIdeal(3)
    for gens in ([], iter(())):
        with pytest.raises(ValueError, match=zero):
            MonomialIdeal(3, gens)
    # 1 absorbs every other generator when the list is minimized.
    for gens in ([(0, 0, 0)], [(1, 0, 0), (0, 0, 0), (0, 2, 1)]):
        with pytest.raises(ValueError, match=unit):
            MonomialIdeal(3, gens)


def test_contains():
    ideal = ideal_of(3, (2, 0, 0), (0, 2, 0), (0, 0, 1))
    assert ideal.contains((2, 1, 0))
    assert not ideal.contains((1, 1, 0))


@given(ideal_pairs())
@settings(max_examples=50)
def test_intersection_membership(pair):
    a, b = pair
    both = intersect(a, b)
    for g in both.gens:
        assert a.contains(g.exponents) and b.contains(g.exponents)
    for g in a.gens:
        assert both.contains(g.exponents) == b.contains(g.exponents)


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
    # The zero ideal, whose truncation is undefined, cannot be built.
    with pytest.raises(ValueError, match="zero ideal"):
        MonomialIdeal(2, []).truncate(1)


def reference_truncate(ideal, t):
    """The padding loop ``truncate`` used to run: each generator below
    degree t times every monomial of the missing degree, then minimized."""
    if t <= 0:
        return ideal
    cands = []
    for g in ideal.gens:
        gap = t - g.degree()
        if gap <= 0:
            cands.append(g.exponents)
        else:
            cands.extend(tuple(map(add, g.exponents, w)) for w in compositions(gap, (gap,) * ideal.n))
    return MonomialIdeal(ideal.n, cands)


# From one variable up, with generators of every degree from 1 up.
any_ideals = st.integers(min_value=1, max_value=6).flatmap(
    lambda n: st.lists(
        st.lists(st.integers(min_value=0, max_value=3), min_size=n, max_size=n).filter(any),
        min_size=1,
        max_size=5,
    ).map(lambda vs: MonomialIdeal(n, vs))
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


@given(any_ideals, st.data())
@settings(max_examples=150, deadline=None)
def test_truncate_keeps_only_its_last_listing(ideal, data):
    # Repeated and interleaved t: each answer equals a fresh ideal's
    # truncation and the padding reference, and a call returns the stored
    # object exactly when the last truncation listed was at the same t.
    drawn = data.draw(st.lists(st.integers(min_value=0, max_value=ideal.deg() + 2), min_size=2, max_size=5))
    stored = None
    for t in drawn + drawn[::-1]:
        cut = ideal.truncate(t)
        fresh = MonomialIdeal._of_minimal(ideal.n, list(ideal._exps)).truncate(t)
        assert cut == fresh == reference_truncate(ideal, t)
        assert cut.gens == fresh.gens
        if min(map(sum, ideal._exps)) >= t:
            assert cut is ideal  # nothing listed, nothing stored
        elif stored is not None and stored[0] == t:
            assert cut is stored[1]
        else:
            stored = (t, cut)


def test_truncate_returns_the_stored_listing_past_a_guard():
    ideal = maximal_ideal(14)
    cut = ideal.truncate(3)
    assert ideal.truncate(3) is cut
    with pytest.raises(GuardError):
        ideal.truncate(49)
    assert ideal.truncate(1) is ideal
    assert ideal.truncate(3) is cut
    other = ideal.truncate(2)
    assert other == maximal_ideal(14).truncate(2) and other is not cut
    assert ideal.truncate(2) is other


def reference_degree_members(gens, n, t):
    """The recursive listing ``_degree_members`` used to run: one call per
    coordinate of every member, and the completions of a branch whose kept
    generator has nothing left to place through ``compositions``."""
    fits = [(g, [sum(g[i:]) for i in range(n + 1)]) for g in gens]
    members = []

    def fill(head, left, active):
        i = len(head)
        if i == n - 1:
            members.append(head + (left,))
            return
        if any(not tail[i] for _, tail in active):
            members.extend(head + c for c in compositions(left, (left,) * (n - i)))
            return
        for v in range(left, -1, -1):
            rest = left - v
            keep = [gt for gt in active if gt[0][i] <= v and gt[1][i + 1] <= rest]
            if keep:
                fill(head + (v,), rest, keep)

    fill((), t, fits)
    return members


# Most degree-t monomials a drawn listing may hold, so the reference stays quick.
DEGREE_MEMBERS_CAP = 3000


@st.composite
def degree_member_cases(draw):
    """Generators in n = 1..7 variables and a t up to their top degree + 4,
    cut where C(t+n-1, n-1) would pass DEGREE_MEMBERS_CAP; the generators
    of degree <= t, at least one, as ``truncate`` passes them."""
    n = draw(st.integers(min_value=1, max_value=7))
    gens = draw(
        st.lists(
            st.tuples(*[st.integers(min_value=0, max_value=3)] * n).filter(any),
            min_size=1,
            max_size=5,
        )
    )
    top = max(map(sum, gens)) + 4
    while comb(top + n - 1, n - 1) > DEGREE_MEMBERS_CAP:
        top -= 1
    low = min(map(sum, gens))
    assume(low <= top)
    t = draw(st.integers(min_value=low, max_value=top))
    return [g for g in gens if sum(g) <= t], n, t


# Pinned shapes: one coordinate; two, where only the last two are settled;
# a generator placed early, so completions of several part counts share a
# degree; and pure powers, whose last two coordinates fit at several v.
DEGREE_MEMBER_EXAMPLES = [
    ([(2,)], 1, 5),
    ([(1, 2), (3, 0)], 2, 6),
    ([(1, 0, 0, 0, 0), (0, 0, 1, 1, 0)], 5, 3),
    ([(3, 0, 0, 0), (0, 2, 0, 0), (0, 0, 2, 0), (0, 0, 0, 1)], 4, 5),
    ([(0, 0, 0, 0, 0, 0, 2), (0, 0, 0, 0, 0, 2, 0), (1, 1, 0, 0, 0, 0, 0)], 7, 4),
]


@pytest.mark.parametrize("gens, n, t", DEGREE_MEMBER_EXAMPLES)
def test_degree_members_matches_recursive_reference_pinned(gens, n, t):
    assert ideals._degree_members(gens, n, t) == reference_degree_members(gens, n, t)


@given(degree_member_cases())
@settings(max_examples=200, deadline=None)
def test_degree_members_matches_recursive_reference(case):
    gens, n, t = case
    members = ideals._degree_members(gens, n, t)
    assert members == reference_degree_members(gens, n, t)
    # Each once, of degree t, in canonical order.
    assert members == canonical_sorted(members)
    assert all(sum(u) == t for u in members)


def assert_proper_nonzero(ideal):
    """Some generator, and none of them 1: the canonical order would put
    the all-zero tuple first."""
    assert ideal._exps and any(ideal._exps[0])


def derived_ideals(ideal):
    """The ideals the pipeline derives from one ideal: its truncations at
    t = 0..deg+3 and its dual with respect to the exponent cap."""
    cap = tuple(map(max, zip(*ideal._exps)))
    return [ideal.truncate(t) for t in range(ideal.deg() + 4)] + [alexander_dual(ideal, cap)]


@given(any_ideals)
@settings(max_examples=150)
def test_pipeline_derives_only_proper_nonzero_ideals(ideal):
    # Nothing downstream of the constructor checks for the zero or unit
    # ideal, because truncation and duality never derive one.
    for derived in derived_ideals(ideal):
        assert_proper_nonzero(derived)


def test_truncate_generators_at_above_and_below_t():
    ideal = ideal_of(3, (1, 0, 0), (0, 2, 0), (0, 0, 3))
    cut = ideal.truncate(2)
    assert [g.exponents for g in cut.gens] == [
        (2, 0, 0), (1, 1, 0), (1, 0, 1), (0, 2, 0), (0, 0, 3)
    ]
    assert cut == reference_truncate(ideal, 2)
    assert maximal_ideal(3).truncate(2).gens == tuple(map(Monomial, compositions(2, (2, 2, 2))))


@given(
    st.integers(min_value=2, max_value=6).flatmap(
        lambda n: st.lists(st.integers(min_value=1, max_value=n - 1), min_size=n, max_size=n)
    )
)
@settings(max_examples=60)
def test_criterion_5_truncation_is_a_power_of_the_maximal_ideal(a):
    # With n - 1 >= a_1 >= ... >= a_n >= 1, t = sum(a) - max(a) exceeds
    # sum(a_i - 1), the top degree of the standard monomials, so every
    # degree-t monomial is a member: the truncation is m^t.
    a = sorted(a, reverse=True)
    n, t = len(a), t_bound(a)
    assert t > sum(e - 1 for e in a)
    powers = MonomialIdeal(n, [tuple(e if j == i else 0 for j in range(n)) for i, e in enumerate(a)])
    cut = powers.truncate(t)
    assert cut == maximal_ideal(n).truncate(t)
    assert len(cut.gens) == comb(t + n - 1, n - 1)


def test_truncate_guard():
    # C(49+13, 13) is about 8.3e12 degree-49 monomials in 14 variables.
    with pytest.raises(GuardError) as exc:
        maximal_ideal(14).truncate(49)
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
        assert ideal.contains(g.exponents)
    for g in ideal.gens:
        if g.degree() >= t:
            assert cut.contains(g.exponents)


def test_deg_max_index_support():
    ideal = ideal_of(3, (2, 0, 0), (0, 1, 1))
    assert ideal.deg() == 2
    assert ideal.max_index() == 3


def test_dual_components_complement_generators():
    ideal = ideal_of(4, (3, 3, 0, 0), (1, 1, 1, 1))
    assert _dual_powers(ideal, (3, 3, 2, 1)) == [(3, 3, 2, 1), (1, 1, 0, 0)]
    with pytest.raises(ValueError, match="length"):
        _dual_powers(ideal_of(2, (1, 1)), (1, 1, 1))


def test_dual_of_two_generator_ideal():
    ideal = ideal_of(3, (2, 2, 0), (1, 1, 1))
    dual = alexander_dual(ideal, (2, 2, 1))
    assert dual == ideal_of(3, (2, 0, 0), (0, 2, 0), (1, 0, 1), (0, 1, 1))


def test_dual_rejects_generator_outside_box():
    ideal = ideal_of(2, (3, 0))
    with pytest.raises(ValueError):
        alexander_dual(ideal, (2, 2))


@given(small_ideals())
@settings(max_examples=60)
def test_dual_involution_with_cap(ideal):
    cap = tuple(max(g.exponents[i] for g in ideal.gens) for i in range(ideal.n))
    dual = alexander_dual(ideal, cap)
    assert alexander_dual(dual, cap) == ideal


def test_irredundant_filter_drops_superfluous_component():
    keep = [(1, 1, 0), (2, 2, 1)]
    padded = keep + [(1, 1, 1)]
    filtered = irredundant_filter(padded)
    assert filtered == keep
    assert fold(filtered) == fold(padded)
    doubled = [keep[0], keep[1], keep[0]]
    assert irredundant_filter(doubled) == [keep[1], keep[0]]


def test_ideal_equality_and_hash():
    a = ideal_of(2, (1, 0), (0, 1))
    b = ideal_of(2, (0, 1), (1, 0), (1, 1))
    assert a == b
    assert hash(a) == hash(b)
    assert str(a) == "x1, x2"


def test_gens_wrapped_once_on_first_read():
    ideal = ideal_of(3, (2, 0, 0), (0, 1, 1))
    cut = ideal.truncate(3)
    assert cut._gens is None  # truncate, ==, hash and deg read exponent tuples
    assert cut == ideal.truncate(3) and hash(cut) == hash(ideal.truncate(3))
    assert (cut.deg(), cut.max_index()) == (3, 3)
    assert cut._gens is None
    assert cut.gens is cut.gens
    assert [g.exponents for g in cut.gens] == list(cut._exps)
    with pytest.raises(AttributeError):
        cut.gens = ()


def components_lists(n_max=5):
    return st.integers(min_value=1, max_value=n_max).flatmap(
        lambda n: st.lists(
            st.lists(st.integers(min_value=0, max_value=3), min_size=n, max_size=n)
            .filter(any)
            .map(tuple),
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
    assert fold(components) == reference


@given(components_lists())
@settings(max_examples=80)
def test_component_str_matches_pure_power_ideal(components):
    for v in components:
        assert component_str(v) == str(component_ideal(v))


def fold_lists(n_max=7, max_size=10):
    """Component lists drawn with repetition from a pool of up to
    ``max_size`` vectors whose entries are mostly 0."""
    entries = st.sampled_from((0, 0, 0, 1, 2, 3))
    return st.integers(min_value=1, max_value=n_max).flatmap(
        lambda n: st.lists(
            st.lists(entries, min_size=n, max_size=n)
            .filter(any)
            .map(tuple),
            min_size=1,
            max_size=max_size,
        ).flatmap(lambda pool: st.lists(st.sampled_from(pool), min_size=1, max_size=max_size))
    )


@given(fold_lists())
@settings(max_examples=300)
def test_intersect_components_matches_reference_fold(components):
    # Equal ideals have equal generator tuples in canonical order.
    assert fold(components) == reference_intersect(components)


def disjoint_quadrics(k):
    """x1*x2, x3*x4, ..., x_{2k-1}*x_{2k}: its dual has 2^k generators."""
    return ideal_of(2 * k, *(tuple(int(i // 2 == j) for i in range(2 * k)) for j in range(k)))


def test_disjoint_quadrics_dual_and_double_dual():
    for k in range(1, 9):
        ideal, c = disjoint_quadrics(k), (1,) * (2 * k)
        dual = alexander_dual(ideal, c)
        assert len(dual.gens) == 2**k
        assert dual == reference_intersect(_dual_powers(ideal, c))
        double = alexander_dual(dual, c)
        assert double == reference_intersect(_dual_powers(dual, c)) == ideal


@given(small_ideals(n_max=6), st.data())
@settings(max_examples=150)
def test_alexander_dual_matches_components_and_reference_fold(ideal, data):
    cap = [max(g.exponents[i] for g in ideal.gens) for i in range(ideal.n)]
    c = tuple(m + data.draw(st.integers(min_value=0, max_value=1)) for m in cap)
    assert alexander_dual(ideal, c) == reference_intersect(_dual_powers(ideal, c))


@pytest.mark.parametrize(
    "gens, c, message",
    [
        ([], (True, 0, 0), "the zero ideal is refused: an ideal must be proper and nonzero"),
        ([(0, 0)], (-1,), "the unit ideal is refused: an ideal must be proper and nonzero"),
        ([(3, 1)], (True, -1, 0), "degree vector length 3 != ambient 2"),
        ([(3, 1)], (-1, 0), "exponents must be nonnegative integers, got (-1, 0)"),
        ([(3, 1)], (True, 0), "exponents must be nonnegative integers, got (True, 0)"),
        ([(3, 0), (0, 2)], (2, 1), "generator x2^2 does not divide x^c with c=[2, 1]"),
    ],
    ids=["zero", "unit", "length", "negative", "bool", "outside_box"],
)
def test_dual_errors_identical_and_in_order(gens, c, message):
    # Each input also breaks every later rule, so the first rule broken
    # is the one reported; the constructor refuses the zero and unit
    # ideals before the dual sees them.
    with pytest.raises(ValueError) as exc:
        alexander_dual(MonomialIdeal(2, gens), c)
    assert str(exc.value) == message


def test_intersection_guard(monkeypatch):
    # The dual of four disjoint quadrics holds 2, 4, 8, 16 generators of 8
    # entries: 128 entries at the last component.
    ideal, c = disjoint_quadrics(4), (1,) * 8
    monkeypatch.setattr(ideals, "MAX_INTERSECTION_ENTRIES", 128)
    assert len(alexander_dual(ideal, c).gens) == 16
    monkeypatch.setattr(ideals, "MAX_INTERSECTION_ENTRIES", 127)
    with pytest.raises(GuardError) as exc:
        alexander_dual(ideal, c)
    assert str(exc.value) == (
        "intersection of 4 irreducible components: 16 generators of 8 entries at "
        "component 4 exceed the desk-scale limit 127 entries"
    )
    with pytest.raises(GuardError):
        fold(_dual_powers(ideal, c))


def test_fold_scan_guard(monkeypatch):
    # The dual of the 4-vertex chain folds (1,1,0,0), (2,2,1,0), (3,3,2,1).
    # Before the last step it holds 4 generators, 6 carrier entries on
    # the component's support: 24 estimated scans of 4 coordinates, 96
    # comparisons.  The disjoint quadrics have no carriers, so only the
    # size guard can stop them.
    comps = [(1, 1, 0, 0), (2, 2, 1, 0), (3, 3, 2, 1)]
    expected = reference_intersect(comps)  # its _minimize meets the same limit
    monkeypatch.setattr(ideals, "MAX_FOLD_COMPARISONS", 96)
    assert fold(comps) == expected
    assert len(fold(_dual_powers(disjoint_quadrics(8), (1,) * 16)).gens) == 2**8
    monkeypatch.setattr(ideals, "MAX_FOLD_COMPARISONS", 95)
    with pytest.raises(GuardError) as exc:
        fold(comps)
    assert str(exc.value) == (
        "intersection of 3 irreducible components: 24 carrier scans of 4 coordinates "
        "at component 3 exceed the desk-scale limit 95 comparisons"
    )


@given(fold_lists(), st.data())
@settings(max_examples=200)
def test_fold_refuses_where_its_exact_estimate_passes_the_limit(components, data):
    # A fold refuses at the first step whose exact estimate, the running
    # generators times the carriers of supp(v), times n passes the limit,
    # with that estimate in the message; below every estimate it answers.
    n = len(components[0])
    scans = []
    for k, v in enumerate(components):
        gens = reference_intersect(components[:k])._exps if k else [(0,) * n]
        scans.append(len(gens) * sum(bool(h[i]) for h in gens for i, p in enumerate(v) if p))
    expected = reference_intersect(components)  # before its _minimize meets the limit
    limit = data.draw(st.sampled_from(sorted({s * n for s in scans} | {s * n - 1 for s in scans if s})))
    over = [k for k, s in enumerate(scans, start=1) if s * n > limit]
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(ideals, "MAX_FOLD_COMPARISONS", limit)
        if not over:
            assert fold(components) == expected
            return
        with pytest.raises(GuardError) as exc:
            fold(components)
    assert str(exc.value) == (
        f"intersection of {len(components)} irreducible components: {scans[over[0] - 1]:.2g} "
        f"carrier scans of {n} coordinates at component {over[0]} exceed the desk-scale "
        f"limit {limit} comparisons"
    )


def test_vertex_guard_refuses_before_any_row(monkeypatch):
    # At the limit an ideal is built; one variable above it is refused
    # before the first row is read.
    assert MonomialIdeal(10**5, [(1,) + (0,) * (10**5 - 1)]).n == 10**5
    with pytest.raises(GuardError, match="^n=100001 variables exceed the desk-scale limit 100000$"):
        MonomialIdeal(10**5 + 1, [])
    monkeypatch.setattr(ideals, "MAX_VERTICES", 3)
    assert MonomialIdeal(3, [(1, 0, 1)]).n == 3
    monkeypatch.setattr(ideals, "MAX_VERTICES", 2)

    def rows():
        raise AssertionError("read a row before the vertex guard")
        yield

    with pytest.raises(GuardError, match="^n=3 variables exceed the desk-scale limit 2$"):
        MonomialIdeal(3, rows())


def test_minimize_guard(monkeypatch):
    # Five distinct rows of degrees 1, 1, 2, 2, 3 (the repeated row counts
    # once) test 0 + 0 + 2 + 2 + 4 = 8 candidates of lower degree, each a
    # scan of 3 coordinates: 24 comparisons.  At 23 the rows are refused
    # before the first divisibility test.
    rows = [(1, 0, 0), (0, 1, 0), (0, 1, 1), (1, 0, 1), (1, 0, 1), (1, 1, 1)]
    monkeypatch.setattr(ideals, "MAX_FOLD_COMPARISONS", 24)
    assert MonomialIdeal(3, rows) == MonomialIdeal(3, rows[:2])
    monkeypatch.setattr(ideals, "MAX_FOLD_COMPARISONS", 23)

    def refuse(*args):
        raise AssertionError("tested divisibility before the estimate")

    monkeypatch.setattr(ideals, "divides_any", refuse)
    with pytest.raises(GuardError) as exc:
        MonomialIdeal(3, rows)
    assert str(exc.value) == (
        "minimizing 5 distinct rows: 8 divisibility tests of 3 coordinates "
        "exceed the desk-scale limit 23 comparisons"
    )


@given(st.lists(st.tuples(*[st.integers(min_value=0, max_value=2)] * 3), min_size=1, max_size=12))
def test_minimize_estimate_bounds_its_tests(rows):
    tests = []

    def counted(gens, u):
        gens = tuple(gens)
        tests.append(len(gens))
        return divides_any(gens, u)

    ordered = canonical_sorted(rows)
    degrees = [sum(r) for r in ordered]
    estimate = sum(sum(e < d for e in degrees) for d in degrees)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(ideals, "divides_any", counted)
        kept = _minimize(rows, 3)
    assert sum(tests) <= estimate
    distinct = set(rows)
    assert kept == canonical_sorted(
        r for r in distinct if not any(o != r and all(map(le, o, r)) for o in distinct)
    )


@given(small_ideals())
@settings(max_examples=50)
def test_trusted_ideal_equals_validated(ideal):
    vectors = [g.exponents for g in ideal.gens] * 2
    trusted = MonomialIdeal._of_minimal(ideal.n, canonical_sorted(vectors))
    validated = MonomialIdeal(ideal.n, vectors)
    assert trusted == validated == ideal
    assert hash(trusted) == hash(validated)
    assert trusted.gens == validated.gens


def test_every_derived_ideal_is_proper_and_nonzero():
    # The constructor refuses the zero and unit ideals, so the two flags
    # are constants; perfbench's trace hook still reads them.
    parsed = parse_input('{"n": 3, "gens": [[2, 0, 0], [0, 1, 1]]}')
    sd = special_dual(build_hypergraph(4, 1, [[1, 2], [1, 2, 3], [1, 2, 3, 4]]))
    derived = [
        parsed,
        parsed.truncate(3),
        alexander_dual(parsed, (2, 1, 1)),
        sd.ideal,
        sd.dual,
        sd.dual_r,
    ]
    for ideal in derived:
        assert ideal.is_zero is False and ideal.is_unit is False
