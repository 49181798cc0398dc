"""Reduced simplicial homology over Q or GF(p) with exact arithmetic.

Boundary-matrix ranks come from one sparse row reduction: over a prime
field every entry is reduced mod p, over Q each row is kept integral and
divided by the gcd of its entries; there is no floating point anywhere.
"""

from __future__ import annotations

from functools import lru_cache
from itertools import combinations
from math import gcd
from typing import Iterable, Sequence

MAX_GROUND_VERTICES = 20


class GuardError(RuntimeError):
    """Raised when an input exceeds the desk-scale guards."""


def guard_ground_set(size: int) -> None:
    """Refuse homology over a ground set larger than MAX_GROUND_VERTICES;
    callers building a complex ask before listing its faces."""
    if size > MAX_GROUND_VERTICES:
        raise GuardError(
            f"ground set of size {size} exceeds the desk-scale limit {MAX_GROUND_VERTICES}"
        )


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


def _rank(rows: Sequence[Sequence[int]], p: int) -> int:
    """Rank over GF(p), or over Q when p is 0, by sparse row reduction.

    Each row becomes ``{column: value}`` and is reduced against the pivot
    rows kept so far, one per leading column, by r <- a*r - b*top with a
    the pivot's leading entry; the step is invertible because a != 0.
    Over GF(p) entries are reduced mod p; over Q each row is divided by
    the gcd of its entries, so rows stay integral and small.
    """
    pivots: dict[int, tuple[int, dict[int, int]]] = {}
    for dense in rows:
        row = {c: v for c, v in enumerate(dense) if v}
        while True:
            if p:
                row = {c: r for c, v in row.items() if (r := v % p)}
            else:
                row = {c: v for c, v in row.items() if v}
                g = gcd(*row.values())
                if g > 1:
                    row = {c: v // g for c, v in row.items()}
            if not row:
                break
            lead = min(row)
            b = row.pop(lead)
            if lead not in pivots:
                pivots[lead] = (b, row)
                break
            # The leading entries cancel, so the pivot rows are kept
            # without them.
            a, top = pivots[lead]
            row = {c: a * v for c, v in row.items()}
            for c, v in top.items():
                row[c] = row.get(c, 0) - b * v
    return len(pivots)


def matrix_rank(rows: Sequence[Sequence[int]], char: int = 0) -> int:
    """Exact rank of an integer matrix over Q (char 0) or GF(char)."""
    validate_characteristic(char)
    return _rank(rows, char)


class SimplicialComplex:
    """Finite abstract simplicial complex on integer vertex labels.

    The void complex (no faces at all) and the irrelevant complex (only
    the empty face) are distinct states: the first has no homology in any
    degree, the second has one dimension in degree -1.
    """

    __slots__ = ("vertices", "faces")

    def __init__(self, vertices: Iterable[int], faces: Iterable[frozenset[int]]):
        vertices = tuple(sorted(set(vertices)))
        faces = frozenset(frozenset(f) for f in faces)
        ground = set(vertices)
        for f in faces:
            if not f <= ground:
                raise ValueError(f"face {sorted(f)} not contained in the ground set")
            for v in f:
                if not (f - {v}) in faces:
                    raise ValueError(
                        f"not downward closed: {sorted(f - {v})} missing below {sorted(f)}"
                    )
        object.__setattr__(self, "vertices", vertices)
        object.__setattr__(self, "faces", faces)

    @classmethod
    def _trusted(
        cls, vertices: tuple[int, ...], faces: frozenset[frozenset[int]]
    ) -> SimplicialComplex:
        """A complex the package built downward closed on sorted distinct
        vertices (a Koszul complex); the closure and ground-set checks are
        skipped."""
        complex_ = object.__new__(cls)
        object.__setattr__(complex_, "vertices", vertices)
        object.__setattr__(complex_, "faces", faces)
        return complex_

    def __setattr__(self, name, value):
        raise AttributeError("SimplicialComplex is immutable")

    @classmethod
    def void(cls, vertices: Iterable[int] = ()) -> SimplicialComplex:
        return cls(vertices, ())

    @property
    def is_void(self) -> bool:
        return not self.faces

    def _faces_by_dim(self) -> dict[int, list[tuple[int, ...]]]:
        by_dim: dict[int, list[tuple[int, ...]]] = {}
        for f in self.faces:
            by_dim.setdefault(len(f) - 1, []).append(tuple(sorted(f)))
        for lst in by_dim.values():
            lst.sort()
        return by_dim

    def reduced_homology_dims(self, char: int = 0) -> tuple[int, ...]:
        """Dimensions of reduced homology, indexed from degree -1 upward.

        Entry 0 of the result is the degree -1 homology; a void complex
        returns an empty tuple.
        """
        validate_characteristic(char)
        if self.is_void:
            return ()
        guard_ground_set(len(self.vertices))
        by_dim = self._faces_by_dim()
        top = max(by_dim)
        counts = {k: len(by_dim.get(k, [])) for k in range(-1, top + 1)}
        ranks = {k: matrix_rank(_boundary_matrix(by_dim, k), char) for k in range(0, top + 1)}
        ranks[-1] = 0
        ranks[top + 1] = 0
        return tuple(
            counts[k] - ranks[k] - ranks[k + 1] for k in range(-1, top + 1)
        )


def _boundary_matrix(by_dim: dict[int, list[tuple[int, ...]]], k: int) -> list[list[int]]:
    rows_faces = by_dim.get(k - 1, [])
    cols_faces = by_dim.get(k, [])
    index = {f: i for i, f in enumerate(rows_faces)}
    matrix = [[0] * len(cols_faces) for _ in rows_faces]
    for j, face in enumerate(cols_faces):
        for pos in range(len(face)):
            sub = face[:pos] + face[pos + 1 :]
            matrix[index[sub]][j] = (-1) ** pos
    return matrix


def simplex_faces(vertices: Iterable[int]) -> list[frozenset[int]]:
    """All faces of the full simplex on the given vertices, empty face
    included."""
    vs = sorted(set(vertices))
    out = [frozenset()]
    for size in range(1, len(vs) + 1):
        out.extend(frozenset(c) for c in combinations(vs, size))
    return out
