from itertools import combinations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hyperideal import betti, homology
from hyperideal.betti import (
    MAX_GENERATORS,
    _signed_subset_counts,
    betti_table,
    euler_consistency_check,
    koszul_complex,
    lcm_lattice,
    regularity,
)
from hyperideal.homology import GuardError, SimplicialComplex
from hyperideal.hypergraphs import (
    build_hypergraph,
    containment_vector,
    random_instance,
    restricted_dual,
    special_dual,
)
from hyperideal.ideals import MonomialIdeal
from hyperideal.stability import t_bound
from test_homology import reference_reduced_homology

MIXED = MonomialIdeal(3, [(2, 0, 0), (0, 2, 0), (1, 0, 1), (0, 1, 1)])


def small_ideals(n_max=3, e_max=2, max_gens=4):
    return st.integers(min_value=2, max_value=n_max).flatmap(
        lambda n: st.lists(
            st.lists(st.integers(min_value=0, max_value=e_max), min_size=n, max_size=n).filter(
                lambda v: any(v)
            ),
            min_size=1,
            max_size=max_gens,
        ).map(lambda vs: MonomialIdeal(n, vs))
    )


def wider_ideals():
    return small_ideals(n_max=4, e_max=3, max_gens=5)


def support_of(b):
    """1-based indices of the nonzero entries of the exponent tuple b."""
    return [i for i, e in enumerate(b, start=1) if e]


def has_nerve_side_point(ideal):
    """True when some lattice point is no cone and its Koszul complex has
    at least 2 facets whose distinct vertex stars bound fewer faces than
    the facets themselves (sum of 2^|star| below sum of 2^|facet|): its
    homology is then taken on the nerve."""
    for b in lcm_lattice(ideal):
        facets = koszul_complex(ideal, b).facets
        if len(facets) < 2 or set(facets[0]).intersection(*facets[1:]):
            continue
        stars = {tuple(j for j, f in enumerate(facets) if v in f) for v in support_of(b)}
        if sum(2 ** len(s) for s in stars if s) < sum(2 ** len(f) for f in facets):
            return True
    return False


def nerve_side_ideals():
    return st.integers(min_value=3, max_value=6).flatmap(
        lambda n: st.lists(
            st.lists(st.integers(min_value=0, max_value=2), min_size=n, max_size=n).filter(any),
            min_size=2,
            max_size=6,
        ).map(lambda vs: MonomialIdeal(n, vs))
    ).filter(has_nerve_side_point)


def chain_dual(d, s, extra, seed):
    """The restricted dual of a random chain with s edges, as check ranks it."""
    h = random_instance(2 + (s - 1) * d + extra, d, s, seed)
    return restricted_dual(h, *special_dual(h))[1]


def pure_power_truncation(a):
    """(x_1^a_1, ..., x_n^a_n) truncated at t = sum(a) - max(a)."""
    n = len(a)
    powers = [tuple(a[i] if j == i else 0 for j in range(n)) for i in range(n)]
    return MonomialIdeal(n, powers).truncate(t_bound(a))


def repeated_nerve_ideals():
    """Ideals many of whose lattice points share a Koszul nerve: restricted
    chain duals with s <= 4, and pure-power truncations, each with at most
    MAX_GENERATORS generators."""
    chain_duals = st.builds(
        chain_dual,
        st.integers(min_value=1, max_value=2),
        st.integers(min_value=2, max_value=4),
        st.integers(min_value=0, max_value=2),
        st.integers(min_value=0, max_value=10**6),
    )
    truncations = (
        st.integers(min_value=2, max_value=5)
        .flatmap(
            lambda n: st.lists(st.integers(min_value=1, max_value=n - 1), min_size=n, max_size=n)
        )
        .filter(lambda a: t_bound(a) <= 6)
        .map(pure_power_truncation)
    )
    return st.one_of(chain_duals, truncations).filter(
        lambda ideal: len(ideal.gens) <= MAX_GENERATORS
    )


def koszul_by_frontier(ideal, b):
    """Reference Koszul complex: grow faces one vertex at a time and keep a
    candidate F when x^(b - F) is in the ideal."""
    support = support_of(b)
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
                exps = list(b)
                for w in candidate:
                    exps[w - 1] -= 1
                if ideal.contains(tuple(exps)):
                    faces.append(frozenset(candidate))
                    nxt.append(candidate)
        frontier = nxt
    return SimplicialComplex(support, faces)


def betti_entries_at_every_point(ideal, char):
    """Reference table: reduced homology of the reference Koszul complex at
    every lattice point, cones included, computed from its listed faces."""
    entries = {}
    for b in lcm_lattice(ideal):
        dims = reference_reduced_homology(koszul_by_frontier(ideal, b).faces, char)
        for offset, dim in enumerate(dims):
            if dim:
                entries[(offset, b)] = dim
    return entries


@given(wider_ideals(), st.lists(st.integers(min_value=0, max_value=3), min_size=4, max_size=4))
@settings(max_examples=60)
def test_koszul_complex_matches_frontier_builder(ideal, extra):
    points = lcm_lattice(ideal) + [tuple(extra[: ideal.n]), (0,) * ideal.n]
    for b in points:
        built = koszul_complex(ideal, b)
        reference = koszul_by_frontier(ideal, b)
        assert built.vertices == reference.vertices
        assert built.faces == reference.faces
        if not ideal.contains(b):
            assert built.facets == ()


def test_koszul_facets_are_maximal_and_detect_cones(closures):
    # The homology of K^b answers a cone with zeros and lists no face for it.
    @given(wider_ideals())
    @settings(max_examples=60)
    def check(ideal):
        for b in lcm_lattice(ideal):
            complex_at_b = koszul_complex(ideal, b)
            facets = complex_at_b.facets
            assert all(not set(f) <= set(h) for f in facets for h in facets if f is not h)
            faces = koszul_by_frontier(ideal, b).faces
            # v is an apex exactly when F | {v} is a face for every face F.
            apex = any(all(f | {v} in faces for f in faces) for v in support_of(b))
            closures.clear()
            dims = complex_at_b.reduced_homology_dims()
            assert (closures == []) == apex
            if apex:
                assert dims == (0,) * (max(map(len, facets)) + 1)

    check()


@given(wider_ideals())
@settings(max_examples=40)
def test_cone_skipping_matches_every_point(ideal):
    for char in (0, 2):
        assert betti_table(ideal, char).entries == betti_entries_at_every_point(ideal, char)


@given(nerve_side_ideals())
@settings(max_examples=60)
def test_nerve_side_tables_match_reference(ideal):
    for char in (0, 2, 3):
        assert betti_table(ideal, char).entries == betti_entries_at_every_point(ideal, char)


def test_each_table_ranks_each_nerve_once(monkeypatch):
    ranks = []
    original = homology.matrix_rank

    def spy(rows, char=0):
        ranks.append(char)
        return original(rows, char)

    monkeypatch.setattr(homology, "matrix_rank", spy)

    @given(repeated_nerve_ideals())
    @settings(max_examples=40)
    def check(ideal):
        non_cones = 0
        for b in lcm_lattice(ideal):
            facets = koszul_complex(ideal, b).facets
            non_cones += not set(facets[0]).intersection(*facets[1:])
        for char in (0, 2, 3):
            ranks.clear()
            assert betti_table(ideal, char).entries == betti_entries_at_every_point(ideal, char)
            first = len(ranks)
            assert first < non_cones
            # A second table pays for its own ranks: nothing is kept
            # from the first.
            ranks.clear()
            betti_table(ideal, char)
            assert len(ranks) == first

    check()


def test_lcm_lattice_of_mixed_ideal():
    lattice = lcm_lattice(MIXED)
    assert len(lattice) == 11
    points = set(lattice)
    for u in lattice:
        for v in lattice:
            assert tuple(map(max, u, v)) in points


def test_lcm_lattice_guard():
    big = MonomialIdeal(
        25, [tuple(3 if j == i else 0 for j in range(25)) for i in range(25)]
    )
    with pytest.raises(GuardError):
        lcm_lattice(big)
    with pytest.raises(ValueError, match="zero ideal is refused"):
        lcm_lattice(MonomialIdeal(2, []))


def test_lcm_lattice_point_guard(monkeypatch):
    # (x1, ..., x4) has 15 lattice points: at a cap of 15 it answers, at 14
    # the fold refuses after its last generator.
    ideal = MonomialIdeal(4, [tuple(int(i == j) for j in range(4)) for i in range(4)])
    monkeypatch.setattr(betti, "MAX_LATTICE_POINTS", 15)
    assert len(lcm_lattice(ideal)) == 15
    monkeypatch.setattr(betti, "MAX_LATTICE_POINTS", 14)
    with pytest.raises(
        GuardError,
        match="^15 lcm lattice points after 4 of 4 generators exceed the desk-scale limit 14$",
    ):
        lcm_lattice(ideal)


@given(small_ideals(n_max=4, e_max=3, max_gens=7))
@settings(max_examples=60)
def test_lcm_lattice_is_every_subset_lcm_in_canonical_order(ideal):
    gens = [g.exponents for g in ideal.gens]
    lcms = {
        tuple(map(max, zip(*subset)))
        for size in range(1, len(gens) + 1)
        for subset in combinations(gens, size)
    }
    # Degree ascending, lexicographically descending within a degree.
    expected = sorted(lcms, key=lambda e: (sum(e), [-x for x in e]))
    assert lcm_lattice(ideal) == expected


def test_koszul_complex_void_outside_ideal():
    k = koszul_complex(MIXED, (1, 1, 0))
    assert k.facets == ()


def test_koszul_complex_refuses_wide_support():
    # x1*...*x12 + x13*...*x24: K^b at the top point would list 2^13 faces.
    wide = MonomialIdeal(24, [(1,) * 12 + (0,) * 12, (0,) * 12 + (1,) * 12])
    top = lcm_lattice(wide)[-1]
    assert top == (1,) * 24
    complex_at_top = koszul_complex(wide, top)
    assert complex_at_top.facets == (tuple(range(1, 13)), tuple(range(13, 25)))
    with pytest.raises(GuardError, match="^ground set of size 24 exceeds the desk-scale limit 20$"):
        complex_at_top.reduced_homology_dims()
    # Outside the ideal the complex is void, however wide its support.
    outside = koszul_complex(wide, (1,) * 11 + (0,) + (1,) * 11 + (0,))
    assert (outside.facets, outside.reduced_homology_dims()) == ((), ())


def test_koszul_complex_two_isolated_vertices():
    k = koszul_complex(MIXED, (1, 1, 1))
    assert k.faces == {frozenset(), frozenset({1}), frozenset({2})}


def test_koszul_complex_hollow_triangle():
    k = koszul_complex(MIXED, (2, 2, 1))
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
    p = MonomialIdeal(2, [(2, 3)])
    table = betti_table(p, 0)
    assert table.entries == {(0, (2, 3)): 1}
    assert table.regularity() == 5


def test_maximal_ideal_koszul_counts():
    m4 = MonomialIdeal(
        4, [tuple(1 if j == i else 0 for j in range(4)) for i in range(4)]
    )
    table = betti_table(m4, 0)
    assert table.totals() == (4, 6, 4, 1)
    assert table.regularity() == 1


@pytest.mark.parametrize("n", range(3, 11))
def test_cycle_regularity_matches_jacques(n):
    # Jacques (PhD thesis, Sheffield, 2004): reg I(C_n) is nu + 1 for
    # n = 0, 1 (mod 3) and nu + 2 for n = 2 (mod 3), where nu = n // 3.
    edges = [tuple(int(v in (i, (i + 1) % n)) for v in range(n)) for i in range(n)]
    cycle = MonomialIdeal(n, edges)
    expected = n // 3 + (2 if n % 3 == 2 else 1)
    assert regularity(cycle, 0) == regularity(cycle, 2) == expected


def test_stable_truncation_regularity_equals_top_degree():
    comp = MonomialIdeal(3, [(2, 0, 0), (0, 2, 0), (0, 0, 1)])
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
    counts = {}
    gens = [g.exponents for g in ideal.gens]
    for size in range(1, len(gens) + 1):
        sign = 1 if size % 2 == 1 else -1
        for subset in combinations(gens, size):
            point = tuple(map(max, zip(*subset)))
            counts[point] = counts.get(point, 0) + sign
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


# Every (|E_1|, d, s) with |E_1| in {2,3,4}, d in {1,2,3}, s >= 2 and
# |E_1| * (d+1)^(s-1) <= 20: the special duals the Koszul oracle reaches.
REGULARITY_GRID = [
    (e1, d, s)
    for e1 in (2, 3, 4)
    for d in (1, 2, 3)
    for s in range(2, 6)
    if e1 * (d + 1) ** (s - 1) <= 20
]


@pytest.mark.parametrize("e1, d, s", REGULARITY_GRID)
def test_special_dual_regularity_on_the_grid(e1, d, s):
    # An observation on this grid, not a theorem: the restricted dual has
    # |E_1| (d+1)^(s-1) generators, reg = t - (|E_1| - 2) - (d - 1)(s - 1),
    # and every nonzero multigraded Betti number is 1.
    n = e1 + (s - 1) * d
    h = build_hypergraph(n, d, [range(1, e1 + i * d + 1) for i in range(s)])
    _, dual_r, _ = restricted_dual(h, *special_dual(h))
    assert len(dual_r.gens) == e1 * (d + 1) ** (s - 1)
    t = t_bound(containment_vector(h))
    for char in (0, 2):
        table = betti_table(dual_r, char)
        assert table.regularity() == t - (e1 - 2) - (d - 1) * (s - 1)
        assert set(table.entries.values()) == {1}


def test_regularity_grid_has_fourteen_shapes():
    assert len(REGULARITY_GRID) == 14
