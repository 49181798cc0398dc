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
from bisect import bisect_left
from dataclasses import dataclass

from . import ideals
from .homology import GuardError
from .ideals import MonomialIdeal, _intersect
from .monomials import canonical_sorted

# Most vertex incidences, the sum of the edge sizes, a hypergraph may hold:
# each becomes a set entry, a JSON number and a containment count.  Under a
# 1 GB address-space limit, `gen` on the d = 1 chains (n = s + 1) wrote
# 1.0 M incidences (s = 1413) in 1.4 s and 169 MB, 2.0 M (s = 1999) in 2.5 s
# and 304 MB, 4.0 M (s = 2827) in 4.8 s and 628 MB, and ran out of memory
# at 12.5 M (s = 4999); reading the 1.0 M file back took 0.4 s and 113 MB.
# The largest d = 1 chain within the limit has s = 1412.
MAX_INCIDENCES = 10**6


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
    if n > ideals.MAX_VERTICES:
        raise GuardError(f"n={n} vertices exceed the desk-scale limit {ideals.MAX_VERTICES}")


def build_hypergraph(n: int, d: int, edges) -> IncreasingHypergraph:
    """Validate and build a nested hypergraph.

    This is the one check of a hypergraph from outside.  Each violated
    requirement gets its own error: the sizes n and d, each vertex's type
    and range, first-edge size, nesting, and the size increment.  The
    incidences, the sum of the edge sizes, are counted before any set is
    built, and refused above ``MAX_INCIDENCES`` (``GuardError``).
    """
    _check_sizes(n, d)
    edges = list(edges)
    incidences = sum(map(len, edges))
    if incidences > MAX_INCIDENCES:
        raise GuardError(
            f"{incidences} vertex incidences exceed the desk-scale limit {MAX_INCIDENCES}"
        )
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


@dataclass(frozen=True)
class SpecialDual:
    """The analysis of one hypergraph, computed once by :func:`special_dual`.

    ``a`` is the containment vector, ``ideal`` the inclusion ideal, and
    ``dual`` its dual with respect to ``a``, with irreducible components
    ``comps``, exponent vectors in edge order; all keep the input labels.
    ``dual_r`` is ``dual`` in canonical vertex order with the edge-free
    vertices, exponent 0 throughout, dropped: stability, q and the
    regularity oracle depend on the variable order and are computed on it.
    It is relabelled, not folded again; the dual of
    :func:`covered_restriction` of the canonical form is its checked
    stepwise equivalent.
    """

    a: tuple[int, ...]
    ideal: MonomialIdeal
    dual: MonomialIdeal
    comps: tuple[tuple[int, ...], ...]
    dual_r: MonomialIdeal


def special_dual(h: IncreasingHypergraph) -> SpecialDual:
    """Dual of the inclusion ideal with respect to the containment vector,
    with everything the checks read of it.

    Component i is the complement inside a of the generator of edge i:
    v_x = a_x - s + i on E_i and 0 elsewhere.  Its support E_i grows with
    i, so the components are folded in edge order.

    The dual has |E_1|(d+1)^(s-1) minimal generators.  With B_1 = E_1 and
    B_j = E_j minus E_(j-1), the k-th component asks some vertex of a
    block j <= k for exponent k - j + 1, so x^u is in the dual exactly
    when the intervals [j, j + u_x - 1], one per vertex x of block j, cover
    1..s.  A minimal cover cuts 1..s into consecutive intervals and starts
    each at a vertex of the block of its first index: |E_1| choices for
    the first, and at each of 2..s either no cut or one of d vertices.
    Each generator holds n entries; above ``MAX_INTERSECTION_ENTRIES`` of
    them the fold's last step would refuse, so the count refuses first
    (``GuardError``), before anything of size n.
    """
    e1, d, s, n = len(h.edges[0]), h.d, h.s, h.n
    if e1 * (d + 1) ** (s - 1) * n > ideals.MAX_INTERSECTION_ENTRIES:
        raise GuardError(
            f"special dual of a chain with |E_1|={e1}, d={d}, s={s}: "
            f"|E_1|*(d+1)^(s-1) = {e1}*{d + 1}^{s - 1} generators of n={n} entries "
            f"exceed the desk-scale limit {ideals.MAX_INTERSECTION_ENTRIES} entries"
        )
    a = containment_vector(h)
    comps = tuple(
        tuple(c - s + i if v in edge else 0 for v, c in enumerate(a, start=1))
        for i, edge in enumerate(h.edges, start=1)
    )
    dual = MonomialIdeal._of_minimal(n, _intersect(n, comps))
    covered = _canonical_order(h)[: len(h.edges[-1])]
    dual_r = MonomialIdeal._of_minimal(
        len(covered), canonical_sorted(tuple(e[v - 1] for v in covered) for e in dual._exps)
    )
    return SpecialDual(a, inclusion_ideal(h), dual, comps, dual_r)


def _canonical_order(h: IncreasingHypergraph) -> list[int]:
    """The vertices by canonical label: E_1, then each E_(i+1) \\ E_i,
    then the edge-free vertices, each block ascending."""
    chain = (frozenset(), *h.edges, frozenset(range(1, h.n + 1)))
    return [v for lo, hi in zip(chain, chain[1:]) for v in sorted(hi - lo)]


def canonical_vertex_order(
    h: IncreasingHypergraph,
) -> tuple[IncreasingHypergraph, tuple[int, ...]]:
    """Relabel vertices so E_1 comes first, then each E_{i+1} \\ E_i block,
    then edge-free vertices; within a block the original order is kept.

    Returns the relabeled hypergraph and the permutation applied, as a
    tuple p with p[old - 1] = new.  The containment vector of the result
    is nonincreasing on edge-covered vertices.
    """
    perm = tuple(new for _, new in sorted(zip(_canonical_order(h), range(1, h.n + 1))))
    # A relabeling of a validated chain is a valid chain.
    new_edges = tuple(frozenset(perm[v - 1] for v in edge) for edge in h.edges)
    return IncreasingHypergraph(h.n, h.d, new_edges), perm


def covered_restriction(h: IncreasingHypergraph) -> IncreasingHypergraph:
    """Drop edge-free vertices from a canonically ordered hypergraph.

    After canonical reordering the covered vertices are exactly 1..r with
    r the size of the last edge, so restriction just shrinks the ambient.
    """
    if _canonical_order(h) != list(range(1, h.n + 1)):
        raise ValueError("restriction requires a canonically ordered hypergraph")
    r = len(h.edges[-1])
    if r == h.n:
        return h
    return IncreasingHypergraph(r, h.d, h.edges)


def random_instance(n: int, d: int, s: int, seed: int) -> IncreasingHypergraph:
    """Deterministic random nested hypergraph.

    Scheme: Mersenne-Twister ``random.Random(seed)``; the first edge is a
    uniform 2-subset of 1..n and each later edge adds d unused vertices,
    sampled without replacement, so the chain is valid as drawn.  Requires
    2 + (s-1)*d <= n.  The edges hold 2s + d*s*(s-1)/2 incidences, refused
    before the first draw above ``MAX_INCIDENCES`` (``GuardError``).
    """
    _check_sizes(n, d, s)
    need = 2 + (s - 1) * d
    if need > n:
        raise ValueError(f"infeasible: 2 + (s-1)*d = {need} exceeds n = {n}")
    incidences = 2 * s + d * s * (s - 1) // 2
    if incidences > MAX_INCIDENCES:
        raise GuardError(
            f"n={n}, s={s}, d={d}: 2s + d*s*(s-1)/2 = {incidences} vertex incidences "
            f"exceed the desk-scale limit {MAX_INCIDENCES}"
        )
    rng = random.Random(seed)
    current = sorted(rng.sample(range(1, n + 1), 2))
    edges = [set(current)]
    free = sorted(set(range(1, n + 1)) - edges[0])
    for _ in range(s - 1):
        added = rng.sample(free, d)
        edges.append(edges[-1] | set(added))
        for v in added:
            del free[bisect_left(free, v)]
    return IncreasingHypergraph(n, d, tuple(map(frozenset, edges)))
