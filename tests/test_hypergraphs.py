import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hyperideal import hypergraphs
from hyperideal.hypergraphs import (
    build_hypergraph,
    canonical_vertex_order,
    containment_vector,
    covered_restriction,
    inclusion_ideal,
    is_canonical,
    random_instance,
    restricted_dual,
    special_dual,
)
from hyperideal.ideals import MonomialIdeal, alexander_dual
from hyperideal.monomials import Monomial

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
    assert ideal == MonomialIdeal.from_exponents(
        4, [(3, 3, 0, 0), (2, 2, 2, 0), (1, 1, 1, 1)]
    )


def test_special_dual_chain():
    dual, comps = special_dual(chain4())
    expected = MonomialIdeal.from_exponents(
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
    assert dual == expected
    assert [c.powers for c in comps] == [
        (1, 1, 0, 0),
        (2, 2, 1, 0),
        (3, 3, 2, 1),
    ]


def test_dual_involution_on_chain():
    h = chain4()
    a = containment_vector(h)
    dual, _ = special_dual(h)
    assert alexander_dual(dual, a) == inclusion_ideal(h)


def test_canonical_order_sorts_blocks():
    h = build_hypergraph(4, 1, [frozenset({3, 4}), frozenset({2, 3, 4}), frozenset({1, 2, 3, 4})])
    canonical, perm = canonical_vertex_order(h)
    assert canonical.edges == chain4().edges
    assert perm == (4, 3, 1, 2)
    assert is_canonical(canonical)
    assert not is_canonical(h)


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


def test_random_instance_infeasible():
    with pytest.raises(ValueError, match="infeasible"):
        random_instance(4, 2, 3, seed=0)
    with pytest.raises(ValueError, match="positive"):
        random_instance(4, 1, 0, seed=0)


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
    bound = Monomial(a)
    assert len(ideal.gens) == s
    assert all(g.divides(bound) for g in ideal.gens)


def test_restricted_dual_matches_stepwise_analysis():
    restricted_seen = 0
    for n, d, s in [(4, 1, 2), (6, 2, 2), (7, 1, 3), (7, 2, 3), (5, 1, 4)]:
        for seed in range(5):
            h = random_instance(n, d, s, seed=seed)
            canonical, _ = canonical_vertex_order(h)
            restricted = covered_restriction(canonical)
            dual, comps = special_dual(restricted)
            assert restricted_dual(h, *special_dual(h)) == (restricted, dual, comps)
            restricted_seen += restricted.n < h.n
    assert restricted_seen == 20


def test_restricted_dual_drops_edge_free_vertices():
    h = build_hypergraph(5, 1, [frozenset({2, 4}), frozenset({2, 3, 4})])
    restricted, dual, comps = restricted_dual(h, *special_dual(h))
    assert restricted.n == dual.n == 3
    assert restricted.edges == (frozenset({1, 2}), frozenset({1, 2, 3}))
    assert [c.n for c in comps] == [3, 3]


def test_restricted_dual_orders_vertices_once(monkeypatch):
    h = build_hypergraph(5, 1, [frozenset({2, 4}), frozenset({2, 3, 4})])
    dual, comps = special_dual(h)
    calls = []

    def counted(g):
        calls.append(g)
        return canonical_vertex_order(g)

    monkeypatch.setattr(hypergraphs, "canonical_vertex_order", counted)
    restricted, _, _ = restricted_dual(h, dual, comps)
    assert calls == [h]
    assert restricted.n == 3
