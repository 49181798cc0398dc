"""Reduced simplicial homology over Q or GF(p) with exact arithmetic.

Boundary-matrix ranks are computed by fraction-free (Bareiss) elimination
over the integers for characteristic zero and by Gaussian elimination for
a prime field; there is no floating point anywhere.
"""

from __future__ import annotations

from itertools import combinations
from typing import Iterable, Sequence

MAX_GROUND_VERTICES = 20


class GuardError(RuntimeError):
    """Raised when an input exceeds the desk-scale guards."""


# Miller-Rabin with the first 13 primes as bases decides primality exactly
# below this bound (Sorenson and Webster 2015).
_MR_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)
MAX_CHARACTERISTIC = 3317044064679887385961981


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


def _rank_bareiss(m: list[list[int]]) -> int:
    """Rank over Q via one-step fraction-free elimination; all divisions
    are exact by the Bareiss identity."""
    if not m or not m[0]:
        return 0
    n_rows, n_cols = len(m), len(m[0])
    rank = 0
    prev = 1
    for col in range(n_cols):
        pivot_row = next((r for r in range(rank, n_rows) if m[r][col] != 0), None)
        if pivot_row is None:
            continue
        m[rank], m[pivot_row] = m[pivot_row], m[rank]
        pivot = m[rank][col]
        for r in range(rank + 1, n_rows):
            factor = m[r][col]
            row = m[r]
            top = m[rank]
            for c in range(col + 1, n_cols):
                row[c] = (pivot * row[c] - factor * top[c]) // prev
            row[col] = 0
        prev = pivot
        rank += 1
        if rank == n_rows:
            break
    return rank


def _rank_mod_p(m: list[list[int]], p: int) -> int:
    if not m or not m[0]:
        return 0
    n_rows, n_cols = len(m), len(m[0])
    m = [[e % p for e in row] for row in m]
    rank = 0
    for col in range(n_cols):
        pivot_row = next((r for r in range(rank, n_rows) if m[r][col]), None)
        if pivot_row is None:
            continue
        m[rank], m[pivot_row] = m[pivot_row], m[rank]
        inv = pow(m[rank][col], -1, p)
        m[rank] = [(e * inv) % p for e in m[rank]]
        for r in range(rank + 1, n_rows):
            f = m[r][col]
            if f:
                m[r] = [(a - f * b) % p for a, b in zip(m[r], m[rank])]
        rank += 1
        if rank == n_rows:
            break
    return rank


def matrix_rank(rows: Sequence[Sequence[int]], char: int = 0) -> int:
    """Exact rank of an integer matrix over Q (char 0) or GF(char)."""
    validate_characteristic(char)
    m = [list(r) for r in rows]
    if char == 0:
        return _rank_bareiss(m)
    return _rank_mod_p(m, char)


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

    @property
    def is_irrelevant(self) -> bool:
        return self.faces == frozenset({frozenset()})

    def dimension(self) -> int:
        """Largest face size minus one; -1 for {∅}, undefined (raises) when void."""
        if self.is_void:
            raise ValueError("the void complex has no dimension")
        return max(len(f) for f in self.faces) - 1

    def _faces_by_dim(self) -> dict[int, list[tuple[int, ...]]]:
        by_dim: dict[int, list[tuple[int, ...]]] = {}
        for f in self.faces:
            by_dim.setdefault(len(f) - 1, []).append(tuple(sorted(f)))
        for lst in by_dim.values():
            lst.sort()
        return by_dim

    def boundary_matrix(self, k: int) -> list[list[int]]:
        """Matrix of the boundary map from k-faces to (k-1)-faces, with the
        usual alternating signs; the empty face sits in degree -1."""
        return _boundary_matrix(self._faces_by_dim(), k)

    def reduced_homology_dims(self, char: int = 0) -> tuple[int, ...]:
        """Dimensions of reduced homology, indexed from degree -1 upward.

        Entry 0 of the result is the degree -1 homology; a void complex
        returns an empty tuple.
        """
        validate_characteristic(char)
        if self.is_void:
            return ()
        if len(self.vertices) > MAX_GROUND_VERTICES:
            raise GuardError(
                f"ground set of size {len(self.vertices)} exceeds the "
                f"desk-scale limit {MAX_GROUND_VERTICES}"
            )
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
