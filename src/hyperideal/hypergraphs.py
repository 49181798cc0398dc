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

from .homology import GuardError
from .ideals import MonomialIdeal, _dual_powers, _intersect
from .monomials import canonical_sorted

# Most vertices a hypergraph may have: every later step builds n-length
# tuples, and `check` on a two-edge chain takes 0.7 s and 37 MB at
# n = 10^5, 4.8 s and 217 MB at n = 10^6.
MAX_VERTICES = 10**5


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


def _check_sizes(n: int, d: int, s: int = 1) -> None:
    """Refuse an n, d or s that is not a positive ``int`` (``ValueError``)
    and n above ``MAX_VERTICES`` (``GuardError``) before any n-sized work."""
    for name, value in (("vertex count n", n), ("increment d", d), ("edge count s", s)):
        if type(value) is not int or value < 1:
            raise ValueError(f"{name} must be a positive integer")
    if n > MAX_VERTICES:
        raise GuardError(f"n={n} vertices exceed the desk-scale limit {MAX_VERTICES}")


def build_hypergraph(n: int, d: int, edges) -> IncreasingHypergraph:
    """Validate and build a nested hypergraph.

    This is the one check of a hypergraph from outside.  Each violated
    requirement gets its own error: the sizes n and d, each vertex's type
    and range, first-edge size, nesting, and the size increment.
    """
    _check_sizes(n, d)
    edge_sets = []
    for k, e in enumerate(edges, start=1):
        for v in e:  # raw labels, before hashing: [2] gets this message too
            if type(v) is not int:
                raise ValueError(f"edge {k}: vertex labels must be integers, got {type(v).__name__}")
            if not 1 <= v <= n:
                raise ValueError(f"edge {k}: vertex index {v} out of range 1..{n}")
        edge_sets.append(frozenset(e))
    if not edge_sets:
        raise ValueError("at least one edge is required")
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
    return IncreasingHypergraph(n=n, d=d, edges=tuple(edge_sets))


def containment_vector(h: IncreasingHypergraph) -> tuple[int, ...]:
    """Per-vertex count of edges containing the vertex."""
    return tuple(sum(1 for e in h.edges if v in e) for v in range(1, h.n + 1))


def inclusion_ideal(h: IncreasingHypergraph) -> MonomialIdeal:
    """One generator per edge: every vertex of edge i raised to s - i + 1.

    The edges are strictly nested, so no generator divides another; the
    ``inclusion_ideal_minimal`` claim checks that the s generators stay.
    """
    s = h.s
    return MonomialIdeal._of_minimal(
        h.n,
        canonical_sorted(
            tuple(s - i + 1 if v in edge else 0 for v in range(1, h.n + 1))
            for i, edge in enumerate(h.edges, start=1)
        ),
    )


def special_dual(
    h: IncreasingHypergraph,
) -> tuple[MonomialIdeal, tuple[tuple[int, ...], ...]]:
    """Dual of the inclusion ideal with respect to the containment vector.

    Returns the minimized dual together with its irreducible components,
    as exponent vectors in edge order (support size ascending), the order
    in which they are folded.
    """
    comps = tuple(
        sorted(
            _dual_powers(inclusion_ideal(h), containment_vector(h)),
            key=lambda v: len(v) - v.count(0),
        )
    )
    return MonomialIdeal._of_minimal(h.n, _intersect(h.n, comps)), comps


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
    # A relabeling of a validated chain is a valid chain.
    new_edges = tuple(frozenset(perm[v - 1] for v in edge) for edge in h.edges)
    return IncreasingHypergraph(h.n, h.d, new_edges), perm


def covered_restriction(h: IncreasingHypergraph) -> IncreasingHypergraph:
    """Drop edge-free vertices from a canonically ordered hypergraph.

    After canonical reordering the covered vertices are exactly 1..r with
    r the size of the last edge, so restriction just shrinks the ambient.
    """
    if canonical_vertex_order(h)[1] != tuple(range(1, h.n + 1)):
        raise ValueError("restriction requires a canonically ordered hypergraph")
    r = len(h.edges[-1])
    if r == h.n:
        return h
    return build_hypergraph(r, h.d, h.edges)


def restricted_dual(
    h: IncreasingHypergraph, dual: MonomialIdeal, comps: tuple[tuple[int, ...], ...]
) -> tuple[IncreasingHypergraph, MonomialIdeal, tuple[tuple[int, ...], ...]]:
    """The form in which every order-sensitive quantity is computed.

    Stability, q and the regularity oracle depend on the variable order,
    so the hypergraph is brought to canonical vertex order and its
    edge-free vertices, which carry exponent 0 throughout the dual, are
    dropped: ``dual, comps = special_dual(h)`` is relabeled, not recomputed.
    The canonical form is restricted in place; :func:`covered_restriction`
    is the checked stepwise equivalent.  Returns the restricted
    hypergraph, its dual and the dual's components; nothing derived here
    is validated again.
    """
    canonical, perm = canonical_vertex_order(h)
    r = len(canonical.edges[-1])  # the covered vertices are 1..r
    restricted = IncreasingHypergraph(r, h.d, canonical.edges)
    covered = sorted(range(h.n), key=perm.__getitem__)[:r]  # old index by new label

    def relabel(e: tuple[int, ...]) -> tuple[int, ...]:
        return tuple(e[v] for v in covered)

    dual_r = MonomialIdeal._of_minimal(
        restricted.n, canonical_sorted(map(relabel, dual._exps))
    )
    return restricted, dual_r, tuple(map(relabel, comps))


def random_instance(n: int, d: int, s: int, seed: int) -> IncreasingHypergraph:
    """Deterministic random nested hypergraph.

    Scheme: Mersenne-Twister ``random.Random(seed)``; the first edge is a
    uniform 2-subset of 1..n and each later edge adds d vertices sampled
    without replacement from the unused ones.  Requires 2 + (s-1)*d <= n.
    """
    _check_sizes(n, d, s)
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
