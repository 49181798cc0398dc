import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hyperideal.betti import (
    _is_cone,
    _koszul_facets,
    _signed_subset_counts,
    betti_table,
    euler_consistency_check,
    koszul_complex,
    lcm_lattice,
    regularity,
)
from hyperideal.homology import GuardError, SimplicialComplex
from hyperideal.ideals import MonomialIdeal
from hyperideal.monomials import Monomial

MIXED = MonomialIdeal.from_exponents(3, [(2, 0, 0), (0, 2, 0), (1, 0, 1), (0, 1, 1)])


def small_ideals(n_max=3, e_max=2, max_gens=4):
    return st.integers(min_value=2, max_value=n_max).flatmap(
        lambda n: st.lists(
            st.lists(st.integers(min_value=0, max_value=e_max), min_size=n, max_size=n).filter(
                lambda v: any(v)
            ),
            min_size=1,
            max_size=max_gens,
        ).map(lambda vs: MonomialIdeal.from_exponents(n, vs))
    )


def wider_ideals():
    return small_ideals(n_max=4, e_max=3, max_gens=5)


def koszul_by_frontier(ideal, b):
    """Reference Koszul complex: grow faces one vertex at a time and keep a
    candidate F when x^(b - F) is in the ideal."""
    support = sorted(b.support())
    if not ideal.contains(b):
        return SimplicialComplex.void(support)
    faces = [frozenset()]
    frontier = [()]
    while frontier:
        nxt = []
        for face in frontier:
            start = face[-1] if face else 0
            for v in support:
                if v <= start:
                    continue
                candidate = face + (v,)
                exps = list(b.exponents)
                for w in candidate:
                    exps[w - 1] -= 1
                if ideal.contains(Monomial(tuple(exps))):
                    faces.append(frozenset(candidate))
                    nxt.append(candidate)
        frontier = nxt
    return SimplicialComplex(support, faces)


def betti_entries_at_every_point(ideal, char):
    """Reference table: reduced homology of the reference Koszul complex at
    every lattice point, cones included."""
    entries = {}
    for b in lcm_lattice(ideal):
        dims = koszul_by_frontier(ideal, b).reduced_homology_dims(char)
        for offset, dim in enumerate(dims):
            if dim:
                entries[(offset, b.exponents)] = dim
    return entries


@given(wider_ideals(), st.lists(st.integers(min_value=0, max_value=3), min_size=4, max_size=4))
@settings(max_examples=60)
def test_koszul_complex_matches_frontier_builder(ideal, extra):
    points = lcm_lattice(ideal) + [Monomial(tuple(extra[: ideal.n])), Monomial.unit(ideal.n)]
    for b in points:
        built = koszul_complex(ideal, b)
        reference = koszul_by_frontier(ideal, b)
        assert built.vertices == reference.vertices
        assert built.faces == reference.faces
        if not ideal.contains(b):
            assert built.is_void


@given(wider_ideals())
@settings(max_examples=60)
def test_koszul_facets_are_maximal_and_detect_cones(ideal):
    gens = [g.exponents for g in ideal.gens]
    for b in lcm_lattice(ideal):
        facets = _koszul_facets(gens, b.exponents)
        assert all(not set(f) <= set(h) for f in facets for h in facets if f is not h)
        faces = koszul_by_frontier(ideal, b).faces
        # v is an apex exactly when F | {v} is a face for every face F.
        apex = any(all(f | {v} in faces for f in faces) for v in b.support())
        assert _is_cone(facets) == apex


@given(wider_ideals())
@settings(max_examples=40)
def test_cone_skipping_matches_every_point(ideal):
    for char in (0, 2):
        assert betti_table(ideal, char).entries == betti_entries_at_every_point(ideal, char)


def test_lcm_lattice_of_mixed_ideal():
    lattice = lcm_lattice(MIXED)
    assert len(lattice) == 11
    points = {m.exponents for m in lattice}
    for u in lattice:
        for v in lattice:
            assert u.lcm(v).exponents in points


def test_lcm_lattice_guard():
    big = MonomialIdeal.from_exponents(
        25, [tuple(3 if j == i else 0 for j in range(25)) for i in range(25)]
    )
    with pytest.raises(GuardError):
        lcm_lattice(big)
    with pytest.raises(ValueError):
        lcm_lattice(MonomialIdeal.zero(2))


def test_koszul_complex_void_outside_ideal():
    k = koszul_complex(MIXED, Monomial.of(1, 1, 0))
    assert k.is_void


def test_koszul_complex_two_isolated_vertices():
    k = koszul_complex(MIXED, Monomial.of(1, 1, 1))
    assert k.faces == {frozenset(), frozenset({1}), frozenset({2})}


def test_koszul_complex_hollow_triangle():
    k = koszul_complex(MIXED, Monomial.of(2, 2, 1))
    assert frozenset({1, 2, 3}) not in k.faces
    assert frozenset({1, 2}) in k.faces
    assert frozenset({1, 3}) in k.faces
    assert frozenset({2, 3}) in k.faces
    assert k.reduced_homology_dims() == (0, 0, 1)


def test_betti_table_of_mixed_ideal():
    table = betti_table(MIXED, 0)
    assert table.totals() == (4, 4, 1)
    assert table.regularity() == 3
    expected_first = {(1, 1, 1), (2, 0, 1), (0, 2, 1), (2, 2, 0)}
    assert {b for i, b in table.entries if i == 1} == expected_first
    assert {b for i, b in table.entries if i == 2} == {(2, 2, 1)}
    assert all(v == 1 for v in table.entries.values())


def test_betti_char_two_agrees_on_mixed_ideal():
    assert betti_table(MIXED, 2).entries == betti_table(MIXED, 0).entries


def test_principal_ideal():
    p = MonomialIdeal.from_exponents(2, [(2, 3)])
    table = betti_table(p, 0)
    assert table.entries == {(0, (2, 3)): 1}
    assert table.regularity() == 5


def test_maximal_ideal_koszul_counts():
    m4 = MonomialIdeal.from_exponents(
        4, [tuple(1 if j == i else 0 for j in range(4)) for i in range(4)]
    )
    table = betti_table(m4, 0)
    assert table.totals() == (4, 6, 4, 1)
    assert table.regularity() == 1


def test_stable_truncation_regularity_equals_top_degree():
    comp = MonomialIdeal.from_exponents(3, [(2, 0, 0), (0, 2, 0), (0, 0, 1)])
    cut = comp.truncate(3)
    assert regularity(cut, 0) == 3 == cut.deg()


def test_render_shapes():
    text = betti_table(MIXED, 0).render()
    assert "i=2 b=[2,2,1] |b|=5 beta=1" in text
    assert text.endswith("reg=3 (char 0)")
    assert "totals=(4,4,1)" in text


def test_euler_consistency_on_mixed_ideal():
    table = betti_table(MIXED, 0)
    ok, mismatches = euler_consistency_check(MIXED, table)
    assert ok and not mismatches


def _signed_counts_by_enumeration(ideal):
    """All 2^g generator subsets, tallied by lcm with sign (-1)^(|S|-1)."""
    from itertools import combinations

    counts = {}
    gens = ideal.gens
    for size in range(1, len(gens) + 1):
        sign = 1 if size % 2 == 1 else -1
        for subset in combinations(gens, size):
            point = subset[0]
            for g in subset[1:]:
                point = point.lcm(g)
            counts[point.exponents] = counts.get(point.exponents, 0) + sign
    return {b: v for b, v in counts.items() if v != 0}


@given(small_ideals())
@settings(max_examples=40)
def test_signed_subset_counts_match_enumeration(ideal):
    assert _signed_subset_counts(ideal) == _signed_counts_by_enumeration(ideal)


def test_euler_consistency_detects_corruption():
    table = betti_table(MIXED, 0)
    corrupted = dict(table.entries)
    corrupted[(1, (2, 2, 0))] += 1
    bad = type(table)(table.n, table.char, corrupted)
    ok, mismatches = euler_consistency_check(MIXED, bad)
    assert not ok
    assert (2, 2, 0) in mismatches


@given(small_ideals())
@settings(max_examples=40)
def test_zeroth_betti_numbers_sit_at_minimal_generators(ideal):
    table = betti_table(ideal, 0)
    degree_zero = {b for i, b in table.entries if i == 0}
    assert degree_zero == {g.exponents for g in ideal.gens}
    assert all(table.entries[(0, b)] == 1 for b in degree_zero)


@given(small_ideals())
@settings(max_examples=40)
def test_euler_identity_everywhere(ideal):
    table = betti_table(ideal, 0)
    ok, _ = euler_consistency_check(ideal, table)
    assert ok


@given(small_ideals())
@settings(max_examples=30)
def test_regularity_at_least_generator_degree(ideal):
    assert regularity(ideal, 0) >= ideal.deg()
