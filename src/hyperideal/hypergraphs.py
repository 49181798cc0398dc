"""Nested hypergraphs with a fixed edge-size increment, and the monomial
ideals attached to them.

The central object is a chain of edges E_1 < E_2 < ... < E_s on vertices
1..n, each edge exactly d vertices larger than the previous and the first
of size at least two.  Each edge contributes one generator to the
inclusion ideal; the dual of that ideal with respect to the containment
vector is the object whose stability and regularity this package checks.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

from .ideals import (
    IrreducibleComponent,
    MonomialIdeal,
    dual_components,
    intersect_components,
)


@dataclass(frozen=True)
class IncreasingHypergraph:
    """A validated chain of strictly nested edges with fixed increment d.

    ``edges`` keeps the chain order as given; vertex indices are 1-based.
    Vertices outside every edge are permitted (their containment count is
    zero and they never enter the dual).
    """

    n: int
    d: int
    edges: tuple[frozenset[int], ...]

    @property
    def s(self) -> int:
        return len(self.edges)


def build_hypergraph(n: int, d: int, edges) -> IncreasingHypergraph:
    """Validate and build a nested hypergraph.

    Each violated requirement gets its own error: vertex range, first-edge
    size, nesting, and the size increment.
    """
    if n < 1:
        raise ValueError("vertex count must be positive")
    if d < 1:
        raise ValueError("increment d must be a positive integer")
    edge_sets = tuple(frozenset(e) for e in edges)
    if not edge_sets:
        raise ValueError("at least one edge is required")
    for k, e in enumerate(edge_sets, start=1):
        for v in e:
            if not isinstance(v, int) or isinstance(v, bool) or not 1 <= v <= n:
                raise ValueError(f"edge {k}: vertex index {v!r} out of range 1..{n}")
    if len(edge_sets[0]) < 2:
        raise ValueError(f"first edge must have at least 2 vertices, has {len(edge_sets[0])}")
    for k in range(len(edge_sets) - 1):
        lo, hi = edge_sets[k], edge_sets[k + 1]
        if not lo <= hi:
            raise ValueError(f"edges must be nested: edge {k + 1} is not contained in edge {k + 2}")
        if len(hi) - len(lo) != d:
            raise ValueError(
                f"increment mismatch: edge {k + 2} has {len(hi)} vertices, "
                f"expected {len(lo)} + {d}"
            )
    return IncreasingHypergraph(n=n, d=d, edges=edge_sets)


def containment_vector(h: IncreasingHypergraph) -> tuple[int, ...]:
    """Per-vertex count of edges containing the vertex."""
    return tuple(sum(1 for e in h.edges if v in e) for v in range(1, h.n + 1))


def inclusion_ideal(h: IncreasingHypergraph) -> MonomialIdeal:
    """One generator per edge: every vertex of edge i raised to s - i + 1.

    The edges are strictly nested, so no generator divides another; the
    ``inclusion_ideal_minimal`` claim checks that the s generators stay.
    """
    s = h.s
    return MonomialIdeal._trusted(
        h.n,
        (
            tuple(s - i + 1 if v in edge else 0 for v in range(1, h.n + 1))
            for i, edge in enumerate(h.edges, start=1)
        ),
    )


def special_dual(
    h: IncreasingHypergraph,
) -> tuple[MonomialIdeal, tuple[IrreducibleComponent, ...]]:
    """Dual of the inclusion ideal with respect to the containment vector.

    Returns the minimized dual together with its irreducible components in
    edge order.  :func:`dual_components` checks every generator against
    the containment bound; for a valid hypergraph this can never fail.
    """
    a = containment_vector(h)
    ideal = inclusion_ideal(h)
    comps = tuple(
        sorted(dual_components(ideal, a), key=lambda c: len(c.support()))
    )
    return intersect_components(comps), comps


def canonical_vertex_order(
    h: IncreasingHypergraph,
) -> tuple[IncreasingHypergraph, tuple[int, ...]]:
    """Relabel vertices so E_1 comes first, then each E_{i+1} \\ E_i block,
    then edge-free vertices; within a block the original order is kept.

    Returns the relabeled hypergraph and the permutation applied, as a
    tuple p with p[old - 1] = new.  The containment vector of the result
    is nonincreasing on edge-covered vertices.
    """
    blocks: list[list[int]] = []
    seen: set[int] = set()
    for edge in h.edges:
        blocks.append(sorted(edge - seen))
        seen |= edge
    blocks.append(sorted(set(range(1, h.n + 1)) - seen))
    new_of_old = [0] * h.n
    nxt = 1
    for block in blocks:
        for old in block:
            new_of_old[old - 1] = nxt
            nxt += 1
    perm = tuple(new_of_old)
    new_edges = [frozenset(perm[v - 1] for v in edge) for edge in h.edges]
    return build_hypergraph(h.n, h.d, new_edges), perm


def is_canonical(h: IncreasingHypergraph) -> bool:
    _, perm = canonical_vertex_order(h)
    return perm == tuple(range(1, h.n + 1))


def covered_restriction(h: IncreasingHypergraph) -> IncreasingHypergraph:
    """Drop edge-free vertices from a canonically ordered hypergraph.

    After canonical reordering the covered vertices are exactly 1..r with
    r the size of the last edge, so restriction just shrinks the ambient.
    """
    if not is_canonical(h):
        raise ValueError("restriction requires a canonically ordered hypergraph")
    r = len(h.edges[-1])
    if r == h.n:
        return h
    return build_hypergraph(r, h.d, h.edges)


def restricted_dual(
    h: IncreasingHypergraph, dual: MonomialIdeal, comps: tuple[IrreducibleComponent, ...]
) -> tuple[IncreasingHypergraph, MonomialIdeal, tuple[IrreducibleComponent, ...]]:
    """The form in which every order-sensitive quantity is computed.

    Stability, q and the regularity oracle depend on the variable order,
    so the hypergraph is brought to canonical vertex order and its
    edge-free vertices, which carry exponent 0 throughout the dual, are
    dropped: ``dual, comps = special_dual(h)`` is relabeled, not recomputed.
    The canonical form is restricted in place; :func:`covered_restriction`
    is the checked stepwise equivalent.  Returns the restricted
    hypergraph, its dual and the dual's components.
    """
    canonical, perm = canonical_vertex_order(h)
    r = len(canonical.edges[-1])  # the covered vertices are 1..r
    restricted = IncreasingHypergraph(r, h.d, canonical.edges)
    covered = sorted(range(h.n), key=perm.__getitem__)[:r]  # old index by new label

    def relabel(e: tuple[int, ...]) -> tuple[int, ...]:
        return tuple(e[v] for v in covered)

    dual_r = MonomialIdeal._trusted(restricted.n, (relabel(g.exponents) for g in dual.gens))
    comps_r = tuple(IrreducibleComponent(restricted.n, relabel(c.powers)) for c in comps)
    return restricted, dual_r, comps_r


def random_instance(n: int, d: int, s: int, seed: int) -> IncreasingHypergraph:
    """Deterministic random nested hypergraph.

    Scheme: Mersenne-Twister ``random.Random(seed)``; the first edge is a
    uniform 2-subset of 1..n and each later edge adds d vertices sampled
    without replacement from the unused ones.  Requires 2 + (s-1)*d <= n.
    """
    if s < 1:
        raise ValueError("edge count s must be positive")
    need = 2 + (s - 1) * d
    if need > n:
        raise ValueError(f"infeasible: 2 + (s-1)*d = {need} exceeds n = {n}")
    rng = random.Random(seed)
    current = sorted(rng.sample(range(1, n + 1), 2))
    edges = [set(current)]
    free = sorted(set(range(1, n + 1)) - edges[0])
    for _ in range(s - 1):
        added = rng.sample(free, d)
        nxt = edges[-1] | set(added)
        free = sorted(set(free) - set(added))
        edges.append(nxt)
    return build_hypergraph(n, d, edges)
