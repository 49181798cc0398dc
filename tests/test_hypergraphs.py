import random

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from hyperideal import hypergraphs, ideals
from hyperideal.homology import GuardError
from hyperideal.hypergraphs import (
    build_hypergraph,
    canonical_vertex_order,
    containment_vector,
    covered_restriction,
    inclusion_ideal,
    random_instance,
    special_dual,
)
from hyperideal.ideals import MonomialIdeal, _dual_powers, alexander_dual
from hyperideal.monomials import divides_any
from test_ideals import assert_proper_nonzero, derived_ideals

CHAIN_4 = [[1, 2], [1, 2, 3], [1, 2, 3, 4]]


def chain4():
    return build_hypergraph(4, 1, [frozenset(e) for e in CHAIN_4])


def hypergraph_params():
    return (
        st.tuples(
            st.integers(min_value=1, max_value=2),
            st.integers(min_value=1, max_value=4),
            st.integers(min_value=0, max_value=2**20),
        )
        .filter(lambda t: 2 + (t[1] - 1) * t[0] <= 7)
        .flatmap(
            lambda t: st.integers(min_value=2 + (t[1] - 1) * t[0], max_value=7).map(
                lambda n: (n, t[0], t[1], t[2])
            )
        )
    )


def test_build_validation_errors():
    with pytest.raises(ValueError, match="out of range"):
        build_hypergraph(3, 1, [frozenset({1, 4})])
    with pytest.raises(ValueError, match="at least 2"):
        build_hypergraph(3, 1, [frozenset({1})])
    with pytest.raises(ValueError, match="nested"):
        build_hypergraph(4, 1, [frozenset({1, 2}), frozenset({3, 4, 1})])
    with pytest.raises(ValueError, match="increment"):
        build_hypergraph(5, 1, [frozenset({1, 2}), frozenset({1, 2, 3, 4})])
    with pytest.raises(ValueError, match="edge"):
        build_hypergraph(3, 1, [])


def test_containment_vector_chain():
    assert containment_vector(chain4()) == (3, 3, 2, 1)


def test_inclusion_ideal_chain():
    ideal = inclusion_ideal(chain4())
    assert ideal == MonomialIdeal(
        4, [(3, 3, 0, 0), (2, 2, 2, 0), (1, 1, 1, 1)]
    )


def test_special_dual_chain():
    sd = special_dual(chain4())
    assert sd.a == (3, 3, 2, 1)
    assert sd.ideal == inclusion_ideal(chain4())
    expected = MonomialIdeal(
        4,
        [
            (3, 0, 0, 0),
            (0, 3, 0, 0),
            (1, 0, 2, 0),
            (0, 1, 2, 0),
            (2, 0, 0, 1),
            (0, 2, 0, 1),
            (1, 0, 1, 1),
            (0, 1, 1, 1),
        ],
    )
    assert sd.dual == sd.dual_r == expected
    assert list(sd.comps) == [
        (1, 1, 0, 0),
        (2, 2, 1, 0),
        (3, 3, 2, 1),
    ]


def test_dual_involution_on_chain():
    h = chain4()
    a = containment_vector(h)
    assert alexander_dual(special_dual(h).dual, a) == inclusion_ideal(h)


@st.composite
def chains_with_free_vertices(draw):
    """Chains with up to five edges and up to three edge-free vertices."""
    d = draw(st.integers(min_value=1, max_value=3))
    s = draw(st.integers(min_value=1, max_value=5 if d < 3 else 4))
    need = 2 + (s - 1) * d
    n = draw(st.integers(min_value=need, max_value=need + 3))
    return random_instance(n, d, s, seed=draw(st.integers(min_value=0, max_value=2**32 - 1)))


@given(chains_with_free_vertices())
@settings(max_examples=80)
def test_special_dual_is_the_alexander_dual_of_the_inclusion_ideal(h):
    # The same components folded in edge order and in generator order.
    assert special_dual(h).dual == alexander_dual(inclusion_ideal(h), containment_vector(h))


@given(chains_with_free_vertices())
@settings(max_examples=80)
def test_restricted_components_follow_the_block_formula(h):
    # With blocks B_1 = E_1 and B_k = E_k \ E_(k-1), component i carries
    # the power i-k+1 on B_k for every k <= i and 0 on the later blocks
    # and the edge-free vertices, on the input labels.
    comps = special_dual(h).comps
    block_of = {}
    for k, edge in enumerate(h.edges, start=1):
        for v in edge:
            block_of.setdefault(v, k)
    assert len(comps) == h.s
    for i, comp in enumerate(comps, start=1):
        expected = tuple(
            i - block_of[v] + 1 if block_of.get(v, i + 1) <= i else 0 for v in range(1, h.n + 1)
        )
        assert comp == expected


@given(hypergraph_params())
@settings(max_examples=60)
def test_chain_pipeline_derives_only_proper_nonzero_ideals(params):
    # The chains keep up to five edge-free vertices, which the restricted
    # dual drops.
    h = random_instance(*params)
    sd = special_dual(h)
    for ideal in (sd.ideal, sd.dual, sd.dual_r):
        for derived in [ideal, *derived_ideals(ideal)]:
            assert_proper_nonzero(derived)


def test_canonical_order_sorts_blocks():
    h = build_hypergraph(4, 1, [frozenset({3, 4}), frozenset({2, 3, 4}), frozenset({1, 2, 3, 4})])
    canonical, perm = canonical_vertex_order(h)
    assert canonical.edges == chain4().edges
    assert perm == (4, 3, 1, 2)
    assert canonical_vertex_order(canonical) == (canonical, (1, 2, 3, 4))


def test_canonical_order_preserves_containment_multiset():
    h = build_hypergraph(5, 2, [frozenset({2, 5}), frozenset({1, 3, 2, 5})])
    canonical, _ = canonical_vertex_order(h)
    assert sorted(containment_vector(h)) == sorted(containment_vector(canonical))
    a = containment_vector(canonical)
    covered = len(canonical.edges[-1])
    assert all(a[i] >= a[i + 1] for i in range(covered - 1))


def test_covered_restriction():
    h = build_hypergraph(5, 1, [frozenset({1, 2}), frozenset({1, 2, 3})])
    r = covered_restriction(h)
    assert r.n == 3
    assert r.edges == h.edges
    with pytest.raises(ValueError, match="canonically"):
        covered_restriction(
            build_hypergraph(5, 1, [frozenset({4, 5}), frozenset({3, 4, 5})])
        )


def test_covered_restriction_identity_when_full():
    h = chain4()
    assert covered_restriction(h) is h


def test_random_instance_deterministic():
    a = random_instance(6, 1, 3, seed=11)
    b = random_instance(6, 1, 3, seed=11)
    c = random_instance(6, 1, 3, seed=12)
    assert a == b
    assert a != c


def resorting_random_instance(n, d, s, seed):
    """random_instance as first written: the unused vertices re-sorted from
    a set after every edge.  Same draws, in time n per edge."""
    rng = random.Random(seed)
    edges = [set(sorted(rng.sample(range(1, n + 1), 2)))]
    free = sorted(set(range(1, n + 1)) - edges[0])
    for _ in range(s - 1):
        added = rng.sample(free, d)
        edges.append(edges[-1] | set(added))
        free = sorted(set(free) - set(added))
    return build_hypergraph(n, d, edges)


@pytest.mark.parametrize("n, d, s", [(2, 1, 1), (7, 1, 6), (12, 2, 6), (40, 3, 9), (300, 5, 40)])
def test_random_instance_matches_the_resorting_reference(n, d, s):
    for seed in range(100):
        assert random_instance(n, d, s, seed) == resorting_random_instance(n, d, s, seed)


@given(
    st.integers(min_value=1, max_value=3),
    st.integers(min_value=1, max_value=8),
    st.integers(min_value=0, max_value=5),
    st.integers(min_value=0, max_value=2**32 - 1),
)
@settings(max_examples=100)
def test_random_instance_passes_the_outside_validator(d, s, free, seed):
    # random_instance builds its chain unchecked; the validator agrees.
    n = 2 + (s - 1) * d + free
    h = random_instance(n, d, s, seed)
    assert h == build_hypergraph(n, d, [sorted(e) for e in h.edges])


def test_random_instance_infeasible():
    with pytest.raises(ValueError, match="infeasible"):
        random_instance(4, 2, 3, seed=0)
    with pytest.raises(ValueError, match="positive"):
        random_instance(4, 1, 0, seed=0)


@pytest.mark.parametrize(
    "build, args, name",
    [
        (build_hypergraph, (3.5, 1, CHAIN_4[:2]), "vertex count n"),
        (build_hypergraph, (3, 1.0, CHAIN_4[:2]), "increment d"),
        (build_hypergraph, (True, 1, CHAIN_4[:2]), "vertex count n"),
        (build_hypergraph, (0, 1, CHAIN_4[:2]), "vertex count n"),
        (random_instance, (6.0, 1, 2, 0), "vertex count n"),
        (random_instance, (6, True, 2, 0), "increment d"),
        (random_instance, (6, 1, 2.0, 0), "edge count s"),
        (random_instance, (6, 1, 0, 0), "edge count s"),
    ],
)
def test_sizes_must_be_positive_ints(build, args, name):
    with pytest.raises(ValueError, match=f"^{name} must be a positive integer$"):
        build(*args)


def test_vertex_guard(monkeypatch):
    # At the limit both builders answer, one vertex above it both refuse;
    # the guard changes no draw below it.
    drawn = random_instance(6, 1, 3, seed=11)
    monkeypatch.setattr(ideals, "MAX_VERTICES", 6)
    assert random_instance(6, 1, 3, seed=11) == drawn
    assert build_hypergraph(6, 1, drawn.edges) == drawn
    monkeypatch.setattr(ideals, "MAX_VERTICES", 5)
    message = "^n=6 vertices exceed the desk-scale limit 5$"
    with pytest.raises(GuardError, match=message):
        random_instance(6, 1, 3, seed=11)
    with pytest.raises(GuardError, match=message):
        build_hypergraph(6, 1, drawn.edges)


def test_incidence_guard(monkeypatch):
    # (6, 1, 3) draws 2 + 3 + 4 = 9 incidences: at a limit of 9 both builders
    # answer with the same draw, at 8 both refuse, before any draw or set.
    drawn = random_instance(6, 1, 3, seed=11)
    monkeypatch.setattr(hypergraphs, "MAX_INCIDENCES", 9)
    assert random_instance(6, 1, 3, seed=11) == drawn
    assert build_hypergraph(6, 1, drawn.edges) == drawn
    monkeypatch.setattr(hypergraphs, "MAX_INCIDENCES", 8)

    def refuse(*args):
        raise AssertionError("drew before the incidence guard")

    monkeypatch.setattr(hypergraphs.random, "Random", refuse)
    with pytest.raises(
        GuardError,
        match=r"^n=6, s=3, d=1: 2s \+ d\*s\*\(s-1\)/2 = 9 vertex incidences exceed "
        r"the desk-scale limit 8$",
    ):
        random_instance(6, 1, 3, seed=11)
    message = "^9 vertex incidences exceed the desk-scale limit 8$"
    with pytest.raises(GuardError, match=message):
        build_hypergraph(6, 1, drawn.edges)
    # Counted before any vertex is looked at: a bad label is not reached.
    with pytest.raises(GuardError, match=message):
        build_hypergraph(6, 1, [[1, 2], [1, 2, 3], [1, 2, 3, 99]])


@st.composite
def relabelled_chains(draw):
    """Chains with |E_1| = 2..4, d = 1..3 and s = 1..5 whose dual has at
    most 600 generators, on shuffled labels with up to two free vertices."""
    e1 = draw(st.integers(min_value=2, max_value=4))
    d = draw(st.integers(min_value=1, max_value=3))
    s = draw(st.integers(min_value=1, max_value=5))
    assume(e1 * (d + 1) ** (s - 1) <= 600)
    n = e1 + (s - 1) * d + draw(st.integers(min_value=0, max_value=2))
    labels = draw(st.permutations(range(1, n + 1)))
    return build_hypergraph(n, d, [labels[: e1 + k * d] for k in range(s)])


@given(relabelled_chains())
@settings(max_examples=60, deadline=None)
def test_special_dual_has_the_counted_generators(h):
    assert len(special_dual(h).dual.gens) == len(h.edges[0]) * (h.d + 1) ** (h.s - 1)


@given(st.one_of(chains_with_free_vertices(), relabelled_chains()))
@settings(max_examples=80, deadline=None)
def test_components_from_edges_match_the_generator_route(h):
    # The components as first computed: one per generator of the inclusion
    # ideal, complemented inside a, then sorted by support size.
    sd = special_dual(h)
    by_generator = _dual_powers(inclusion_ideal(h), containment_vector(h))
    assert list(sd.comps) == sorted(by_generator, key=lambda v: len(v) - v.count(0))


@given(relabelled_chains())
@settings(max_examples=60, deadline=None)
def test_covered_restriction_matches_the_validated_rebuild(h):
    canonical, _ = canonical_vertex_order(h)
    r = len(canonical.edges[-1])
    assert covered_restriction(canonical) == build_hypergraph(r, canonical.d, canonical.edges)


def test_special_dual_guard_counts_before_the_fold(monkeypatch):
    # The chain with |E_1| = 3, d = 2, s = 3 has a dual of 3 * 3^2 = 27
    # generators of 7 entries: at a limit of 189 entries it folds, at 188 it
    # is refused before the inclusion ideal is built.
    h = build_hypergraph(7, 2, [[1, 2, 3], [1, 2, 3, 4, 5], range(1, 8)])
    monkeypatch.setattr(ideals, "MAX_INTERSECTION_ENTRIES", 189)
    assert len(special_dual(h).dual.gens) == 27
    monkeypatch.setattr(ideals, "MAX_INTERSECTION_ENTRIES", 188)

    def refuse(*args):
        raise AssertionError("built the inclusion ideal before the count")

    monkeypatch.setattr(hypergraphs, "inclusion_ideal", refuse)
    with pytest.raises(
        GuardError,
        match=r"^special dual of a chain with \|E_1\|=3, d=2, s=3: "
        r"\|E_1\|\*\(d\+1\)\^\(s-1\) = 3\*3\^2 generators of n=7 entries "
        r"exceed the desk-scale limit 188 entries$",
    ):
        special_dual(h)


@given(hypergraph_params())
@settings(max_examples=60)
def test_random_instances_satisfy_pipeline_basics(params):
    n, d, s, seed = params
    h = random_instance(n, d, s, seed)
    assert h.s == s and h.d == d and h.n == n
    assert len(h.edges[0]) == 2
    assert len(h.edges[-1]) == 2 + (s - 1) * d
    a = containment_vector(h)
    ideal = inclusion_ideal(h)
    assert len(ideal.gens) == s
    assert all(divides_any((g.exponents,), a) for g in ideal.gens)


def test_restricted_dual_matches_stepwise_analysis():
    restricted_seen = 0
    for n, d, s in [(4, 1, 2), (6, 2, 2), (7, 1, 3), (7, 2, 3), (5, 1, 4)]:
        for seed in range(5):
            h = random_instance(n, d, s, seed=seed)
            canonical, _ = canonical_vertex_order(h)
            restricted = covered_restriction(canonical)
            assert special_dual(h).dual_r == special_dual(restricted).dual
            restricted_seen += restricted.n < h.n
    assert restricted_seen == 20


def test_restricted_dual_drops_edge_free_vertices():
    h = build_hypergraph(5, 1, [frozenset({2, 4}), frozenset({2, 3, 4})])
    sd = special_dual(h)
    assert sd.dual.n == 5 and sd.dual_r.n == 3
    assert sd.dual_r == special_dual(build_hypergraph(3, 1, [{1, 2}, {1, 2, 3}])).dual
    assert sd.comps == ((0, 1, 0, 1, 0), (0, 2, 1, 2, 0))


def test_restricted_dual_orders_vertices_once(monkeypatch):
    h = build_hypergraph(5, 1, [frozenset({2, 4}), frozenset({2, 3, 4})])
    calls = []
    order = hypergraphs._canonical_order

    def counted(g):
        calls.append(g)
        return order(g)

    monkeypatch.setattr(hypergraphs, "_canonical_order", counted)
    assert special_dual(h).dual_r.n == 3
    assert calls == [h]


def test_restricted_dual_does_not_revalidate(monkeypatch):
    h = build_hypergraph(5, 1, [frozenset({2, 4}), frozenset({2, 3, 4})])
    expected = special_dual(h)
    calls = []

    def counted(*args):
        calls.append(args)
        return build_hypergraph(*args)

    monkeypatch.setattr(hypergraphs, "build_hypergraph", counted)
    assert special_dual(h) == expected
    assert calls == []
