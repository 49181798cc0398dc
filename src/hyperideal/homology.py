"""Reduced simplicial homology over Q or GF(p) with exact arithmetic.

Each boundary map is given as one sparse row per face, the signed faces
of its boundary, and ranked by one sparse row reduction: over a prime
field every entry is reduced mod p, over Q each row is kept integral and
divided by the gcd of its entries; there is no floating point anywhere.

A complex is built from generating sets and kept as the maximal ones, its
facets.  It is ranked on the smaller side of its vertex-facet incidence:
on its own faces, or on the nerve of its facets.  Each side is the closure
of its generators (the facets, or the distinct vertex stars), so it lists
at most the sum of 2^|g| over them; the side with the smaller sum is
ranked.  Dowker's theorem (Dowker 1952; Bjorner, Topological methods,
1995) gives both the same reduced homology over every field.  So the
distinct stars fix the homology, and a caller that ranks many complexes
at one characteristic (a Betti table) can pass a dict that remembers the
answer for each set of stars and rank each distinct nerve once.
"""

from __future__ import annotations

from functools import lru_cache
from itertools import combinations
from math import gcd
from typing import Iterable, Mapping, Sequence

MAX_GROUND_VERTICES = 20


class GuardError(RuntimeError):
    """Raised when an input exceeds the desk-scale guards."""


# Miller-Rabin with the first 13 primes as bases decides primality exactly
# below this bound (Sorenson and Webster 2015).
_MR_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)
MAX_CHARACTERISTIC = 3317044064679887385961981


# Cached: every rank call re-validates its characteristic, and one run
# uses one or two characteristics.
@lru_cache(maxsize=8)
def _is_prime(p: int) -> bool:
    """Deterministic Miller-Rabin, exact for 2 <= p < MAX_CHARACTERISTIC."""
    for a in _MR_BASES:
        if p % a == 0:
            return p == a
    d, r = p - 1, 0
    while d % 2 == 0:
        d //= 2
        r += 1
    for a in _MR_BASES:
        x = pow(a, d, p)
        if x == 1 or x == p - 1:
            continue
        for _ in range(r - 1):
            x = x * x % p
            if x == p - 1:
                break
        else:
            return False
    return True


def validate_characteristic(char: int) -> None:
    if char == 0:
        return
    if char >= MAX_CHARACTERISTIC:
        raise ValueError(
            f"characteristic must be 0 or a prime below {MAX_CHARACTERISTIC}, "
            f"got a {len(str(char))}-digit integer"
        )
    if char < 2 or not _is_prime(char):
        raise ValueError(f"characteristic must be 0 or a prime, got {char}")


def _rank(rows: Iterable[Mapping[int, int]], p: int) -> int:
    """Rank over GF(p), or over Q when p is 0, by sparse row reduction.

    Each row, a ``{column: value}`` mapping, is copied without its zero
    entries and reduced against the pivot rows kept so far, one per
    leading column, by r <- a*r - b*top with a the pivot's leading entry;
    the step is invertible because a != 0.  Over GF(p) entries are reduced
    mod p; over Q each row is divided by the gcd of its entries, so rows
    stay integral and small.
    """
    pivots: dict[int, tuple[int, dict[int, int]]] = {}
    for entries in rows:
        row = {c: v for c, v in entries.items() if v}
        while row:
            if p:
                row = {c: r for c, v in row.items() if (r := v % p)}
                if not row:
                    break
            else:
                g = gcd(*row.values())
                if g > 1:
                    row = {c: v // g for c, v in row.items()}
            lead = min(row)
            b = row.pop(lead)
            if lead not in pivots:
                pivots[lead] = (b, row)
                break
            # The leading entries cancel, so the pivot rows are kept
            # without them.  An entry the step cancels is dropped there,
            # so a row holds no zero.
            a, top = pivots[lead]
            if a != 1:
                row = {c: a * v for c, v in row.items()}
            for c, v in top.items():
                if (w := row.get(c, 0) - b * v):
                    row[c] = w
                else:
                    del row[c]
    return len(pivots)


def matrix_rank(rows: Iterable[Mapping[int, int]], char: int = 0) -> int:
    """Exact rank over Q (char 0) or GF(char) of an integer matrix given
    as rows of ``{column: value}``; a zero entry is allowed and dropped."""
    validate_characteristic(char)
    return _rank(rows, char)


class SimplicialComplex:
    """Finite abstract simplicial complex on integer vertex labels.

    Built from any generating vertex sets (faces, facets or a redundant
    mix), it keeps their distinct maximal ones, its facets, as sorted
    tuples and lists its faces only when asked.  The void complex (no
    faces at all) and the irrelevant complex (only the empty face) are
    distinct states: the first has no facet and no homology in any degree,
    the second has the empty facet and one dimension in degree -1.
    """

    __slots__ = ("vertices", "facets", "_faces")

    def __init__(self, vertices: Iterable[int], generators: Iterable[Iterable[int]]):
        vertices = tuple(sorted(set(vertices)))
        within = set(vertices).issuperset
        sets = [tuple(sorted(set(g))) for g in generators]
        for s in sets:
            if not within(s):
                raise ValueError(f"face {list(s)} not contained in the ground set")
        self._set(vertices, _maximal(sets))

    def _set(self, vertices, facets) -> None:
        object.__setattr__(self, "vertices", vertices)
        object.__setattr__(self, "facets", facets)
        object.__setattr__(self, "_faces", None)

    @classmethod
    def _from_facets(
        cls, vertices: tuple[int, ...], facets: tuple[tuple[int, ...], ...]
    ) -> SimplicialComplex:
        """A complex the package knows by its maximal faces, given as sorted
        tuples of the sorted distinct vertices (a Koszul complex), trusted
        without checks."""
        complex_ = object.__new__(cls)
        complex_._set(vertices, facets)
        return complex_

    def __setattr__(self, name, value):
        raise AttributeError("SimplicialComplex is immutable")

    @classmethod
    def void(cls, vertices: Iterable[int] = ()) -> SimplicialComplex:
        return cls(vertices, ())

    @property
    def faces(self) -> frozenset[frozenset[int]]:
        if self._faces is None:
            object.__setattr__(self, "_faces", frozenset(map(frozenset, _closure(self.facets))))
        return self._faces

    def reduced_homology_dims(
        self, char: int = 0, memo: dict | None = None
    ) -> tuple[int, ...]:
        """Dimensions of reduced homology, indexed from degree -1 upward,
        one entry per degree up to the top facet's dimension.

        Entry 0 of the result is the degree -1 homology; a void complex
        returns an empty tuple, a cone (facets sharing a vertex) zeros, on
        any ground set and before any face is listed.  Other complexes on
        more than MAX_GROUND_VERTICES vertices are refused, except the
        irrelevant complex, whose one face is listed.  The ranks are
        taken on the complex's own faces, or on the nerve of its facets
        (the complex on facet labels 1..k generated by the vertex stars
        {j : v in F_j}) when the distinct stars bound fewer faces than the
        facets do: the sum of 2^|star| against the sum of 2^|facet|.  By
        Dowker's theorem both have the same reduced homology over every
        field.

        ``memo``, when given, maps (top facet size + 1, distinct stars) to
        the answer and is read and filled after the guard; it serves one
        characteristic only.
        """
        validate_characteristic(char)
        facets = self.facets
        if not facets:
            return ()
        width = max(map(len, facets)) + 1
        if set(facets[0]).intersection(*facets[1:]):
            return (0,) * width
        size = len(self.vertices)
        if size > MAX_GROUND_VERTICES and facets != ((),):
            raise GuardError(
                f"ground set of size {size} exceeds the desk-scale limit {MAX_GROUND_VERTICES}"
            )
        stars: dict[int, list[int]] = {}
        for j, facet in enumerate(facets, 1):
            for v in facet:
                stars.setdefault(v, []).append(j)
        # Vertices with equal stars give the nerve one generator.
        nerve = frozenset(map(tuple, stars.values()))
        memo = {} if memo is None else memo
        key = (width, nerve)
        if key in memo:
            return memo[key]
        generators = facets
        if sum(1 << len(s) for s in nerve) < sum(1 << len(f) for f in facets):
            generators = nerve
        # The empty face is listed apart: no star holds it when no vertex
        # lies in a facet (the irrelevant complex).
        by_dim = _by_dim(_closure([(), *generators]))
        # The degrees returned need the boundaries out of degrees 0 to
        # width - 1 that have faces.  That of degree 0 sends every vertex to
        # the empty face: its rank is 1 over every field once a vertex is
        # listed, and 0 for the irrelevant complex, so it needs no rows.
        ranks = {
            k: matrix_rank(_boundary_rows(by_dim, k), char) for k in range(1, width) if k in by_dim
        }
        ranks[0] = int(0 in by_dim)
        memo[key] = result = tuple(
            len(by_dim.get(k, ())) - ranks.get(k, 0) - ranks.get(k + 1, 0)
            for k in range(-1, width - 1)
        )
        return result


def _maximal(sets: Iterable[tuple[int, ...]]) -> tuple[tuple[int, ...], ...]:
    """The distinct inclusion-maximal sets among sorted vertex tuples, in
    sorted order."""
    kept: list[tuple[int, ...]] = []
    kept_sets: list[frozenset[int]] = []
    for s in sorted(sets, key=len, reverse=True):
        inside = frozenset(s)
        if not any(map(inside.issubset, kept_sets)):
            kept.append(s)
            kept_sets.append(inside)
    return tuple(sorted(kept))


def _closure(generators: Iterable[Sequence[int]]) -> set[tuple[int, ...]]:
    """Every subset of every generator, as tuples in the generators' order."""
    return {c for g in generators for size in range(len(g) + 1) for c in combinations(g, size)}


def _by_dim(faces: Iterable[tuple[int, ...]]) -> dict[int, list[tuple[int, ...]]]:
    by_dim: dict[int, list[tuple[int, ...]]] = {}
    for f in faces:
        by_dim.setdefault(len(f) - 1, []).append(f)
    for lst in by_dim.values():
        lst.sort()
    return by_dim


def _boundary_rows(by_dim: dict[int, list[tuple[int, ...]]], k: int) -> list[dict[int, int]]:
    """The boundary from degree k to k - 1 as one row per k-face, mapping
    the index of each of its (k - 1)-faces to the sign: the transpose of
    the boundary matrix, which has the same rank."""
    index = {f: i for i, f in enumerate(by_dim[k - 1])}
    # combinations() drops the positions k, k - 1, ..., 0 of a k-face in
    # turn, and dropping position pos carries the sign (-1)^pos.
    signs = [(-1) ** pos for pos in range(k, -1, -1)]
    return [dict(zip(map(index.__getitem__, combinations(face, k)), signs)) for face in by_dim[k]]


def simplex_faces(vertices: Iterable[int]) -> list[frozenset[int]]:
    """All faces of the full simplex on the given vertices, the empty one too."""
    return list(map(frozenset, _closure([set(vertices)])))
