from fractions import Fraction
from itertools import combinations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hyperideal.homology import (
    MAX_CHARACTERISTIC,
    GuardError,
    SimplicialComplex,
    _boundary_matrix,
    _is_prime,
    matrix_rank,
    simplex_faces,
    validate_characteristic,
)


def boundary_matrix(complex_, k):
    """Matrix of the boundary map from k-faces to (k-1)-faces, with the
    usual alternating signs; the empty face sits in degree -1."""
    return _boundary_matrix(complex_._faces_by_dim(), k)


def rank_over_rationals(rows):
    """Plain Gauss-Jordan elimination over Fraction, as an independent
    check against the integral row reduction."""
    m = [[Fraction(e) for e in row] for row in rows]
    if not m or not m[0]:
        return 0
    rank = 0
    cols = len(m[0])
    for col in range(cols):
        pivot = next((r for r in range(rank, len(m)) if m[r][col]), None)
        if pivot is None:
            continue
        m[rank], m[pivot] = m[pivot], m[rank]
        inv = 1 / m[rank][col]
        m[rank] = [e * inv for e in m[rank]]
        for r in range(len(m)):
            if r != rank and m[r][col]:
                f = m[r][col]
                m[r] = [a - f * b for a, b in zip(m[r], m[rank])]
        rank += 1
    return rank


def rank_mod_p(rows, p):
    """Dense Gaussian elimination over GF(p) with the pivot row scaled to
    a leading 1, as an independent check of the prime-field path."""
    m = [[e % p for e in row] for row in rows]
    if not m or not m[0]:
        return 0
    rank = 0
    for col in range(len(m[0])):
        pivot = next((r for r in range(rank, len(m)) if m[r][col]), None)
        if pivot is None:
            continue
        m[rank], m[pivot] = m[pivot], m[rank]
        inv = pow(m[rank][col], -1, p)
        m[rank] = [(e * inv) % p for e in m[rank]]
        for r in range(rank + 1, len(m)):
            f = m[r][col]
            if f:
                m[r] = [(a - f * b) % p for a, b in zip(m[r], m[rank])]
        rank += 1
    return rank


def complex_of(vertices, maximal_faces):
    faces = set()
    for mf in maximal_faces:
        for size in range(len(mf) + 1):
            faces.update(frozenset(c) for c in combinations(mf, size))
    return SimplicialComplex(vertices, faces)


matrices = st.integers(min_value=1, max_value=5).flatmap(
    lambda rows: st.integers(min_value=1, max_value=5).flatmap(
        lambda cols: st.lists(
            st.lists(st.integers(min_value=-9, max_value=9), min_size=cols, max_size=cols),
            min_size=rows,
            max_size=rows,
        )
    )
)

# Entries up to 10**6 make a*r - b*top grow fast, so the gcd division over
# Q is exercised; the extra 0 and +-1 draws keep some rows sparse.
wide_matrices = st.integers(min_value=1, max_value=8).flatmap(
    lambda rows: st.integers(min_value=1, max_value=8).flatmap(
        lambda cols: st.lists(
            st.lists(
                st.integers(min_value=-(10**6), max_value=10**6)
                | st.sampled_from([0, 0, 1, -1]),
                min_size=cols,
                max_size=cols,
            ),
            min_size=rows,
            max_size=rows,
        )
    )
)


@st.composite
def random_complexes(draw):
    n = draw(st.integers(min_value=1, max_value=7))
    maximal = draw(
        st.lists(
            st.lists(st.integers(min_value=1, max_value=n), min_size=1, max_size=n, unique=True),
            min_size=1,
            max_size=6,
        )
    )
    return complex_of(range(1, n + 1), maximal)


PRIMES = (2, 3, 5, 2**61 - 1)


def test_characteristic_validation():
    for ok in (0, 2, 3, 5, 13, 2**61 - 1, 1000000000000000003):
        validate_characteristic(ok)
    # 3215031751 and 3825123056546413051 are strong pseudoprimes to the
    # bases 2..7 and 2..23; MAX_CHARACTERISTIC is one to all 13 bases.
    for bad in (1, 4, 6, 9, -2, 3215031751, 3825123056546413051, 10**400):
        with pytest.raises(ValueError):
            validate_characteristic(bad)
    with pytest.raises(ValueError, match=str(MAX_CHARACTERISTIC)):
        validate_characteristic(MAX_CHARACTERISTIC)


def test_characteristic_validation_matches_sieve():
    limit = 5000
    composite = bytearray(limit)
    for p in range(2, limit):
        if not composite[p]:
            composite[p * p :: p] = b"\x01" * len(range(p * p, limit, p))
    for k in range(2, limit):
        try:
            validate_characteristic(k)
            accepted = True
        except ValueError:
            accepted = False
        assert accepted == (not composite[k]), k


def test_characteristic_checked_once_per_homology_call():
    # reduced_homology_dims and each of its rank calls validate the
    # characteristic; Miller-Rabin runs once.
    p = 1000000000000000003
    complex_ = complex_of(range(1, 5), [(1, 2, 3), (3, 4), (2, 4)])
    _is_prime.cache_clear()
    assert complex_.reduced_homology_dims(p) == complex_.reduced_homology_dims(0)
    info = _is_prime.cache_info()
    assert info.misses <= 1 and info.hits >= 3


@given(st.one_of(matrices, wide_matrices))
@settings(max_examples=250)
def test_rank_matches_fraction_elimination(rows):
    assert matrix_rank(rows, 0) == rank_over_rationals(rows)


@given(st.one_of(matrices, wide_matrices))
@settings(max_examples=120)
def test_mod_p_rank_matches_dense_elimination(rows):
    for p in PRIMES:
        assert matrix_rank(rows, p) == rank_mod_p(rows, p), p


@given(random_complexes())
@settings(max_examples=60)
def test_boundary_ranks_match_references(complex_):
    top = max(len(f) for f in complex_.faces) - 1
    for k in range(top + 1):
        d = boundary_matrix(complex_, k)
        assert matrix_rank(d, 0) == rank_over_rationals(d), k
        assert matrix_rank(d, 2) == rank_mod_p(d, 2), k


def test_rank_drops_in_characteristic_two():
    m = [[1, 1], [1, -1]]
    assert matrix_rank(m, 0) == 2
    assert matrix_rank(m, 2) == 1


def test_rank_empty():
    assert matrix_rank([], 0) == 0
    assert matrix_rank([[]], 0) == 0


def test_complex_validation():
    with pytest.raises(ValueError, match="downward"):
        SimplicialComplex([1, 2], [frozenset({1, 2})])
    with pytest.raises(ValueError, match="ground"):
        SimplicialComplex([1], [frozenset(), frozenset({2})])


def test_trusted_complex_equals_validated():
    faces = frozenset(frozenset(f) for f in [(), (1,), (2,), (3,), (1, 2), (2, 3)])
    trusted = SimplicialComplex._trusted((1, 2, 3), faces)
    validated = SimplicialComplex([3, 1, 2], faces)
    assert trusted.vertices == validated.vertices
    assert trusted.faces == validated.faces
    assert trusted.reduced_homology_dims() == validated.reduced_homology_dims() == (0, 0, 0)
    for k in range(0, 2):
        assert boundary_matrix(trusted, k) == boundary_matrix(validated, k)


def test_void_versus_irrelevant():
    void = SimplicialComplex.void([1, 2])
    assert void.is_void
    assert void.reduced_homology_dims() == ()
    irrelevant = SimplicialComplex([1, 2], [frozenset()])
    assert not irrelevant.is_void
    assert irrelevant.reduced_homology_dims() == (1,)


def test_point_has_no_reduced_homology():
    point = complex_of([1], [(1,)])
    assert point.reduced_homology_dims() == (0, 0)


def test_two_points():
    two = complex_of([1, 2], [(1,), (2,)])
    assert two.reduced_homology_dims() == (0, 1)


def test_hollow_triangle_is_a_circle():
    hollow = complex_of([1, 2, 3], [(1, 2), (1, 3), (2, 3)])
    assert hollow.reduced_homology_dims() == (0, 0, 1)


def test_filled_triangle_is_contractible():
    filled = complex_of([1, 2, 3], [(1, 2, 3)])
    assert filled.reduced_homology_dims() == (0, 0, 0, 0)


def test_sphere():
    sphere = complex_of([1, 2, 3, 4], [(1, 2, 3), (1, 2, 4), (1, 3, 4), (2, 3, 4)])
    assert sphere.reduced_homology_dims(0) == (0, 0, 0, 1)
    assert sphere.reduced_homology_dims(2) == (0, 0, 0, 1)


def test_projective_plane_depends_on_characteristic():
    triangles = [
        (1, 2, 3),
        (1, 3, 4),
        (1, 4, 5),
        (1, 5, 6),
        (1, 2, 6),
        (2, 3, 5),
        (3, 4, 6),
        (2, 4, 5),
        (3, 5, 6),
        (2, 4, 6),
    ]
    rp2 = complex_of([1, 2, 3, 4, 5, 6], triangles)
    assert rp2.reduced_homology_dims(0) == (0, 0, 0, 0)
    assert rp2.reduced_homology_dims(2) == (0, 0, 1, 1)


def test_boundary_squares_to_zero():
    sphere = complex_of([1, 2, 3, 4], [(1, 2, 3), (1, 2, 4), (1, 3, 4), (2, 3, 4)])
    d2 = boundary_matrix(sphere, 2)
    d1 = boundary_matrix(sphere, 1)
    product = [
        [sum(d1[i][k] * d2[k][j] for k in range(len(d2))) for j in range(len(d2[0]))]
        for i in range(len(d1))
    ]
    assert all(all(e == 0 for e in row) for row in product)


def test_ground_set_guard():
    many = list(range(1, 22))
    complex_big = SimplicialComplex(many, [frozenset(), frozenset({1})])
    with pytest.raises(GuardError):
        complex_big.reduced_homology_dims()


def test_simplex_faces_count():
    faces = simplex_faces([1, 2, 3])
    assert len(faces) == 8
