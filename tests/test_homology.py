from fractions import Fraction
from itertools import combinations

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from hyperideal import homology
from hyperideal.homology import (
    MAX_CHARACTERISTIC,
    GuardError,
    SimplicialComplex,
    _boundary_rows,
    _by_dim,
    _closure,
    _is_prime,
    matrix_rank,
    simplex_faces,
    validate_characteristic,
)


def boundary_rows(complex_, k):
    """The boundary map from k-faces to (k-1)-faces, one row per k-face,
    with the usual alternating signs; the empty face sits in degree -1."""
    return _boundary_rows(_by_dim(_closure(complex_.facets)), k)


def sparse(rows):
    """A dense matrix as the rows ``matrix_rank`` takes, zero entries kept."""
    return [dict(enumerate(row)) for row in rows]


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


def reference_reduced_homology(faces, char):
    """Reduced homology dimensions from the listed faces, one entry per
    degree from -1 to the top face's dimension, () for no faces at all.
    Dense boundary matrices built here are ranked by the two reference
    eliminations above, so nothing of the package's homology is used."""
    by_size = {}
    for f in sorted({tuple(sorted(f)) for f in faces}):
        by_size.setdefault(len(f), []).append(f)
    if not by_size:
        return ()
    top = max(by_size)
    ranks = [0] * (top + 2)
    for size in range(1, top + 1):
        index = {f: i for i, f in enumerate(by_size.get(size - 1, []))}
        rows = [[0] * len(by_size.get(size, [])) for _ in index]
        for j, f in enumerate(by_size.get(size, [])):
            for pos in range(size):
                rows[index[f[:pos] + f[pos + 1 :]]][j] = (-1) ** pos
        ranks[size] = rank_mod_p(rows, char) if char else rank_over_rationals(rows)
    return tuple(
        len(by_size.get(size, [])) - ranks[size] - ranks[size + 1] for size in range(top + 1)
    )


def closure(sets):
    """Every subset of every set, as frozensets."""
    return {frozenset(c) for s in sets for k in range(len(s) + 1) for c in combinations(s, k)}


def complex_of(vertices, maximal_faces):
    """The complex built from its full face list."""
    return SimplicialComplex(vertices, closure(maximal_faces))


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

# Up to 8 ground vertices, some of them in no facet, and up to 9 facets;
# the empty list is the void complex and [set()] the irrelevant one.
facet_lists = st.integers(min_value=0, max_value=8).flatmap(
    lambda n: st.tuples(
        st.just(n),
        st.lists(st.sets(st.integers(min_value=1, max_value=max(n, 1)), max_size=n), max_size=9)
        | st.sampled_from([[], [set()]]),
    )
)


def maximal_sets(sets):
    kept = []
    for s in sorted(map(frozenset, sets), key=len, reverse=True):
        if not any(s <= k for k in kept):
            kept.append(s)
    return kept


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


def test_characteristic_checked_once_per_homology_call(monkeypatch):
    # reduced_homology_dims and each of its rank calls validate the
    # characteristic; Miller-Rabin runs once.
    p = 1000000000000000003
    complex_ = complex_of(range(1, 5), [(1, 2, 3), (3, 4), (2, 4)])
    chars = []
    original = homology.matrix_rank

    def counting_rank(rows, char=0):
        chars.append(char)
        return original(rows, char)

    monkeypatch.setattr(homology, "matrix_rank", counting_rank)
    _is_prime.cache_clear()
    assert complex_.reduced_homology_dims(p) == complex_.reduced_homology_dims(0)
    info = _is_prime.cache_info()
    assert info.misses <= 1 and info.hits == chars.count(p)


def own_side(complex_):
    """The generator list whose closure lists the complex's own faces."""
    return [(), *complex_.facets]


def test_reduced_homology_matches_reference_on_both_sides(closures):
    sides = set()

    # Non-cones on each side: the hollow triangle's own faces (equal
    # bounds), and the 2-vertex nerve of two disjoint edges.
    @given(facet_lists)
    @example((3, [{1, 2}, {1, 3}, {2, 3}]))
    @example((4, [{1, 2}, {3, 4}]))
    @settings(max_examples=150)
    def check(drawn):
        n, sets = drawn
        facets = maximal_sets(sets)
        vertices = tuple(range(1, n + 1))
        validated = complex_of(vertices, facets)
        built = SimplicialComplex._from_facets(vertices, tuple(tuple(sorted(f)) for f in facets))
        assert built.faces == validated.faces
        assert sorted(built.facets) == sorted(validated.facets)
        for char in (0, 2, 3):
            expected = reference_reduced_homology(validated.faces, char)
            closures.clear()
            assert built.reduced_homology_dims(char) == expected, char
            assert validated.reduced_homology_dims(char) == expected, char
            # A cone lists no face on either side.
            if facets and not frozenset.intersection(*facets):
                sides.add(own_side(built) not in closures)

    check()
    assert sides == {True, False}


@st.composite
def vertex_only_complexes(draw):
    n = draw(st.integers(min_value=1, max_value=8))
    points = draw(st.sets(st.integers(min_value=1, max_value=n), min_size=1))
    return SimplicialComplex(range(1, n + 1), [[v] for v in points])


@st.composite
def graphs(draw):
    n = draw(st.integers(min_value=2, max_value=8))
    pairs = list(combinations(range(1, n + 1), 2))
    edges = draw(st.lists(st.sampled_from(pairs), min_size=1, max_size=12))
    points = draw(st.lists(st.integers(min_value=1, max_value=n), max_size=3))
    return SimplicialComplex(range(1, n + 1), [*edges, *([v] for v in points)])


def test_augmentation_rank_takes_no_matrix(monkeypatch):
    # The boundary from degree 0 to degree -1 has rank 1 when a vertex is
    # listed and 0 otherwise; it is the only boundary whose rows have one
    # entry (the empty face), since a k-face has k + 1 faces of dimension
    # k - 1.
    row_sizes = []
    original = homology.matrix_rank

    def spy(rows, char=0):
        row_sizes.extend(map(len, rows))
        return original(rows, char)

    monkeypatch.setattr(homology, "matrix_rank", spy)
    irrelevant = SimplicialComplex([1, 2], [[]])

    @given(st.one_of(vertex_only_complexes(), graphs(), random_complexes()))
    @example(irrelevant)
    @example(SimplicialComplex([1, 2, 3], [[1], [2], [3]]))
    @example(SimplicialComplex([1, 2, 3, 4], [[1, 2], [3, 4]]))
    @settings(max_examples=150)
    def check(complex_):
        for char in (0, 2, 3):
            expected = reference_reduced_homology(complex_.faces, char)
            assert complex_.reduced_homology_dims(char) == expected, char

    row_sizes.clear()
    check()
    assert row_sizes and 1 not in row_sizes
    row_sizes.clear()
    assert irrelevant.reduced_homology_dims() == (1,)
    assert row_sizes == []


def test_star_plus_edge_ranks_its_own_faces(closures):
    # Six edges on eight vertices: five meet at vertex 1, plus {7, 8}.
    # Fewer facets than vertices, but the star of vertex 1 holds five
    # facet labels, so the nerve would list 2^5 faces for it alone against
    # the graph's 15.
    facets = ((1, 2), (1, 3), (1, 4), (1, 5), (1, 6), (7, 8))
    graph = SimplicialComplex._from_facets(tuple(range(1, 9)), facets)
    assert graph.reduced_homology_dims() == (0, 1, 0)
    assert closures == [own_side(graph)]


def test_nerve_above_the_top_degree_is_not_ranked(closures, monkeypatch):
    # Seven tetrahedra on eight vertices, width 5: vertices 2 and 6 lie in
    # six facets, so the nerve (104 faces against 112) has dimension 5, and
    # its boundaries out of degrees 1 to 4 give the five degrees returned.
    facets = (
        (1, 2, 3, 6),
        (1, 2, 6, 8),
        (1, 3, 5, 7),
        (2, 3, 4, 6),
        (2, 4, 5, 6),
        (2, 4, 6, 8),
        (2, 5, 6, 7),
    )
    complex_ = SimplicialComplex._from_facets(tuple(range(1, 9)), facets)
    expected = {char: reference_reduced_homology(complex_.faces, char) for char in (0, 2, 3)}
    assert set(expected.values()) == {(0, 0, 1, 0, 0)}
    calls = []
    original = homology.matrix_rank

    def spy(rows, char=0):
        calls.append(char)
        return original(rows, char)

    monkeypatch.setattr(homology, "matrix_rank", spy)
    for char, dims in expected.items():
        closures.clear()
        calls.clear()
        assert complex_.reduced_homology_dims(char) == dims
        (nerve,) = closures
        assert nerve != own_side(complex_) and max(map(len, nerve)) == 6
        assert calls == [char] * 4


@given(st.one_of(matrices, wide_matrices))
@settings(max_examples=250)
def test_rank_matches_fraction_elimination(rows):
    assert matrix_rank(sparse(rows), 0) == rank_over_rationals(rows)


@given(st.one_of(matrices, wide_matrices))
@settings(max_examples=120)
def test_mod_p_rank_matches_dense_elimination(rows):
    for p in PRIMES:
        assert matrix_rank(sparse(rows), p) == rank_mod_p(rows, p), p


@given(random_complexes())
@settings(max_examples=60)
def test_boundary_ranks_match_references(complex_):
    top = max(len(f) for f in complex_.faces) - 1
    by_size = {}
    for f in sorted(tuple(sorted(f)) for f in complex_.faces):
        by_size.setdefault(len(f), []).append(f)
    for k in range(top + 1):
        rows = boundary_rows(complex_, k)
        # The face f without position pos has the entry (-1)^pos.
        signs = [
            {f[:pos] + f[pos + 1 :]: (-1) ** pos for pos in range(len(f))}
            for f in by_size.get(k + 1, [])
        ]
        assert [{by_size[k][c]: v for c, v in row.items()} for row in rows] == signs, k
        dense = [[col.get(r, 0) for col in signs] for r in by_size.get(k, [])]
        assert matrix_rank(rows, 0) == rank_over_rationals(dense), k
        assert matrix_rank(rows, 2) == rank_mod_p(dense, 2), k


def test_rank_drops_in_characteristic_two():
    m = sparse([[1, 1], [1, -1]])
    assert matrix_rank(m, 0) == 2
    assert matrix_rank(m, 2) == 1


def test_rank_empty():
    assert matrix_rank([], 0) == 0
    assert matrix_rank(sparse([[]]), 0) == 0


def test_complex_validation():
    # A generating set need not list its subsets: {1, 2} is the full edge.
    edge = SimplicialComplex([1, 2], [{1, 2}])
    assert edge.facets == ((1, 2),)
    assert len(edge.faces) == 4
    assert edge.reduced_homology_dims() == (0, 0, 0)
    with pytest.raises(ValueError, match="ground"):
        SimplicialComplex([1], [frozenset(), frozenset({2})])


@given(facet_lists)
@settings(max_examples=100)
def test_generator_lists_give_one_complex(drawn):
    # A face list, a facet list and a redundant list (duplicates, sub-faces,
    # reversed order) generate the same complex.
    n, sets = drawn
    facets = maximal_sets(sets)
    faces = closure(facets)
    subfaces = [set(s) - {max(s)} for s in sets if s] + [set() for _ in sets[:1]]
    redundant = [*sets, *sets, *subfaces]
    vertices = tuple(range(1, n + 1))
    expected = reference_reduced_homology(faces, 0), reference_reduced_homology(faces, 2)
    for generators in (faces, facets, redundant[::-1]):
        built = SimplicialComplex(reversed(vertices), generators)
        assert built.vertices == vertices
        assert built.facets == tuple(sorted(tuple(sorted(f)) for f in facets))
        assert built.faces == faces
        assert (built.reduced_homology_dims(0), built.reduced_homology_dims(2)) == expected


def test_trusted_complex_equals_validated():
    faces = frozenset(frozenset(f) for f in [(), (1,), (2,), (3,), (1, 2), (2, 3)])
    trusted = SimplicialComplex._from_facets((1, 2, 3), ((1, 2), (2, 3)))
    validated = SimplicialComplex([3, 1, 2], faces)
    assert trusted.vertices == validated.vertices
    assert trusted.facets == validated.facets
    assert trusted.faces == validated.faces
    assert trusted.reduced_homology_dims() == validated.reduced_homology_dims() == (0, 0, 0)
    for k in range(0, 2):
        assert boundary_rows(trusted, k) == boundary_rows(validated, k)


def test_void_versus_irrelevant():
    void = SimplicialComplex.void([1, 2])
    assert void.facets == ()
    assert void.reduced_homology_dims() == ()
    irrelevant = SimplicialComplex([1, 2], [frozenset()])
    assert irrelevant.facets == ((),)
    assert irrelevant.reduced_homology_dims() == (1,)
    # Its one face is listed on any ground set: the guard exempts it.
    wide = SimplicialComplex(range(1, 22), [frozenset()])
    assert wide.reduced_homology_dims() == (1,)


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


# The 6-vertex real projective plane.
RP2_TRIANGLES = (
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
)


def test_projective_plane_depends_on_characteristic():
    rp2 = complex_of([1, 2, 3, 4, 5, 6], RP2_TRIANGLES)
    assert rp2.reduced_homology_dims(0) == (0, 0, 0, 0)
    assert rp2.reduced_homology_dims(2) == (0, 0, 1, 1)


def test_boundary_squares_to_zero():
    sphere = complex_of([1, 2, 3, 4], [(1, 2, 3), (1, 2, 4), (1, 3, 4), (2, 3, 4)])
    d1 = boundary_rows(sphere, 1)
    # Row t of d2 lists the edges of triangle t; row e of d1 the vertices
    # of edge e, so the composite sends t to the sum over its edges.
    for triangle in boundary_rows(sphere, 2):
        image = {}
        for edge, sign in triangle.items():
            for vertex, inner in d1[edge].items():
                image[vertex] = image.get(vertex, 0) + sign * inner
        assert set(image.values()) == {0}


def test_ground_set_guard(closures):
    many = list(range(1, 22))
    # Two points on 21 vertices: no cone, refused before any face is listed.
    complex_big = SimplicialComplex(many, [frozenset({1}), frozenset({2})])
    with pytest.raises(GuardError, match="^ground set of size 21 exceeds the desk-scale limit 20$"):
        complex_big.reduced_homology_dims()
    # A cone over vertex 1 answers zeros on any ground set, without listing
    # the 2^20 faces of its larger facet.
    wide_cone = SimplicialComplex(many, [many[:-1], [1, 21]])
    assert wide_cone.reduced_homology_dims() == (0,) * 21
    assert closures == []


def test_memo_key_pins_the_width():
    # Two points and two disjoint edges share the nerve {(1,), (2,)}; the
    # top facet size tells their answers apart.
    points = SimplicialComplex([1, 2], [[1], [2]])
    edges = SimplicialComplex([1, 2, 3, 4], [[1, 2], [3, 4]])
    for first, second in ((points, edges), (edges, points)):
        memo = {}
        first.reduced_homology_dims(0, memo)
        assert points.reduced_homology_dims(0, memo) == (0, 1)
        assert edges.reduced_homology_dims(0, memo) == (0, 1, 0)
        assert len(memo) == 2


def test_guard_runs_before_the_memo():
    memo = {}
    assert SimplicialComplex([1, 2], [[1], [2]]).reduced_homology_dims(0, memo) == (0, 1)
    # Same stars and width, so the same key, but on 21 vertices.
    wide = SimplicialComplex(range(1, 22), [[1], [2]])
    with pytest.raises(GuardError) as refused:
        wide.reduced_homology_dims(0, memo)
    assert str(refused.value) == "ground set of size 21 exceeds the desk-scale limit 20"


def test_simplex_faces_count():
    faces = simplex_faces([1, 2, 3])
    assert len(faces) == 8
