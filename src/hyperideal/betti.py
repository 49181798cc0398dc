"""Multigraded Betti numbers of monomial ideals, computed exactly.

The Betti number in homological index i and multidegree b equals the
dimension of reduced homology in degree i-1 of the Koszul complex at b,
so every value here comes from exact rank computations rather than from
any resolution heuristic.  Nonzero values only occur at points of the
lcm lattice of the generators, which keeps the search finite.  Each
Koszul complex is built from its facets, at most one per generator
dividing x^b, and handed to the homology module as such: a cone answers
zeros there before any face is listed, and any other complex is ranked
on itself or on the nerve of its facets, whichever side bounds fewer
faces.  The nerve fixes the homology, so one table ranks each distinct
nerve once: a dict kept for the length of one ``betti_table`` call
answers every later point with the same nerve and top facet size.

The ideals of the paper are symmetric: the special dual of a uniformly
increasing hypergraph is unchanged by permuting the vertices inside E_1 or
inside any E_k minus E_{k-1}, and a stable truncation of pure powers is a
power of the maximal ideal, which no permutation changes.  Variables i and
j are interchangeable when swapping coordinates i and j maps the minimal
generators onto themselves; such swaps compose, so they fall into classes
whose every permutation fixes the ideal.  A permutation that fixes the
ideal maps the lcm lattice onto itself and K^b onto a relabelled K^(sigma b),
so both have the same reduced homology over every field (Miller and
Sturmfels, Combinatorial Commutative Algebra, ch. 1 and 5).  A table
therefore keys each orbit by b's values outside the classes and its sorted
values inside each class, builds K^b only at the first point of the orbit
that canonical order meets, the orbit's lexicographically largest point,
and copies its dimensions to the rest of the orbit from a dict kept for
the length of one call.  Twin variables, on which every generator agrees,
never split a lattice point and form no class.  The lattice guards fire
before any class is sought, and an orbit shares its support size and its
cone test, so the guards answer as they would at every point.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from bisect import bisect_left
from itertools import combinations, compress, repeat
from operator import getitem, gt, itemgetter, lt, ne

from .homology import GuardError, SimplicialComplex, _maximal, validate_characteristic
from .ideals import MonomialIdeal
from .monomials import canonical_sorted

MAX_GENERATORS = 20

# Most points the lcm lattice may hold as its fold grows: the largest any
# test, golden or benchmark seed builds has 685 (the dual of the chain with
# |E_1| = 4, d = 1, s = 3).  The 11-cycle (485) answers, the 12-cycle (852)
# is refused, and (x_1, ..., x_20) would list 2^20 - 1 points in 12.7 s.
MAX_LATTICE_POINTS = 700


def lcm_lattice(ideal: MonomialIdeal) -> list[tuple[int, ...]]:
    """All least common multiples of nonempty generator subsets, as
    distinct exponent tuples in canonical order: one fold that adds each
    generator and its join with every lcm found before it, refused as soon
    as it holds more than ``MAX_LATTICE_POINTS``.

    Every coordinate of an lcm is a value some generator takes there, and
    the join commutes with any order-preserving relabelling of one
    column's values.  So the fold holds coordinate i as the rank of its
    value among the distinct values of column i, at most
    ``MAX_GENERATORS`` of them, in the i-th byte from the low end, below
    the guard bit 7.  With G the guard bits of every byte, (g | G) - b
    borrows inside each byte alone and leaves its guard bit set exactly
    where g_i >= b_i; ge - (ge >> 7) spreads that bit over the byte's
    rank bits, so the join takes g there and b elsewhere, with no branch.
    Points go in and out through bytes, in time linear in n, and come out
    once, at the end.
    """
    exps = ideal._exps
    if len(exps) > MAX_GENERATORS:
        raise GuardError(
            f"{len(exps)} generators exceed the desk-scale limit "
            f"{MAX_GENERATORS}"
        )
    n = ideal.n
    columns = [sorted(set(column)) for column in zip(*exps)]
    G = int.from_bytes(b"\x80" * n, "little")
    packed = (int.from_bytes(bytes(map(bisect_left, columns, g)), "little") for g in exps)
    seen: set[int] = set()
    for k, g in enumerate(packed, start=1):
        gG = g | G
        seen |= {b ^ ((g ^ b) & ((ge := (gG - b) & G) - (ge >> 7))) for b in seen}
        seen.add(g)
        if len(seen) > MAX_LATTICE_POINTS:
            raise GuardError(
                f"{len(seen)} lcm lattice points after {k} of {len(exps)} "
                f"generators exceed the desk-scale limit {MAX_LATTICE_POINTS}"
            )
    return canonical_sorted(tuple(map(getitem, columns, b.to_bytes(n, "little"))) for b in seen)


def koszul_complex(ideal: MonomialIdeal, b: tuple[int, ...]) -> SimplicialComplex:
    """K^b for the exponent tuple b: the complex on the support of b of the
    sets F with x^(b - F) in the ideal, that is F inside S_g = {w : g_w < b_w}
    for a generator g dividing x^b.  It is kept as the maximal S_g and lists
    no face until asked; void when no generator divides x^b."""
    if len(b) != ideal.n:
        raise ValueError(f"ambient dimension mismatch: {len(b)} vs {ideal.n}")
    labels = range(1, len(b) + 1)
    # divides_any inline: one call per generator and point costs 3-6% end to end.
    facets = _maximal(
        {tuple(compress(labels, map(lt, g, b))) for g in ideal._exps if not any(map(gt, g, b))}
    )
    return SimplicialComplex._from_facets(tuple(compress(labels, b)), facets)


@dataclass(frozen=True)
class BettiTable:
    """Sparse table of nonzero multigraded Betti numbers of an ideal."""

    char: int
    entries: dict[tuple[int, tuple[int, ...]], int] = field(default_factory=dict)

    def totals(self) -> tuple[int, ...]:
        if not self.entries:
            return ()
        sums = [0] * (max(i for i, _ in self.entries) + 1)
        for (i, _), v in self.entries.items():
            sums[i] += v
        return tuple(sums)

    def regularity(self) -> int:
        if not self.entries:
            raise ValueError("empty betti table has no regularity")
        return max(sum(b) - i for i, b in self.entries)

    def rows(self) -> list[tuple[int, tuple[int, ...], int]]:
        ordered = sorted(self.entries.items(), key=lambda kv: (sum(kv[0][1]), kv[0][0], kv[0][1]))
        return [(i, b, v) for (i, b), v in ordered]

    def render(self) -> str:
        lines = []
        for i, b, v in self.rows():
            vec = ",".join(str(e) for e in b)
            lines.append(f"i={i} b=[{vec}] |b|={sum(b)} beta={v}")
        totals = ",".join(str(v) for v in self.totals())
        lines.append(f"totals=({totals})")
        lines.append(f"reg={self.regularity()} (char {self.char})")
        return "\n".join(lines)


def _interchangeable_classes(exps: list[tuple[int, ...]]) -> list[tuple[int, ...]]:
    """The classes, as sorted 0-based coordinate tuples, of variables any
    permutation of which maps the generators ``exps`` onto themselves,
    keeping only classes on which some generator takes two values.

    The swap of i and j fixes the generators exactly when every generator
    g with g_i != g_j has a partner that differs from it in coordinates i
    and j alone, with the two values swapped.  Partners have one degree, so
    pairing the generators of each degree finds every partner in at most
    O(s^2 n), and no pair of columns is compared.
    """
    n = len(exps[0])
    by_degree: dict[int, list[int]] = {}
    for k, g in enumerate(exps):
        by_degree.setdefault(sum(g), []).append(k)
    paired: dict[tuple[int, int], set[int]] = {}
    for same in by_degree.values():
        for k, m in combinations(same, 2):
            g, h = exps[k], exps[m]
            differ = list(compress(range(n), map(ne, g, h)))
            if len(differ) == 2:
                i, j = differ
                if g[i] == h[j] and g[j] == h[i]:
                    paired.setdefault((i, j), set()).update((k, m))
    classes: dict[int, frozenset[int]] = {}
    for (i, j), partners in paired.items():
        if len(partners) == sum(g[i] != g[j] for g in exps):
            merged = classes.get(i, frozenset((i,))) | classes.get(j, frozenset((j,)))
            classes.update(dict.fromkeys(merged, merged))
    return sorted({tuple(sorted(c)) for c in classes.values()})


def betti_table(ideal: MonomialIdeal, char: int = 0) -> BettiTable:
    """Exact multigraded Betti numbers of the ideal over a field of the
    given characteristic."""
    validate_characteristic(char)
    lattice = lcm_lattice(ideal)
    classes = _interchangeable_classes(ideal._exps)
    entries: dict[tuple[int, tuple[int, ...]], int] = {}
    # Most lattice points repeat a nerve ranked before, or an orbit met
    # before; both dicts live for this call only.
    memo: dict = {}
    orbit_dims: dict[tuple, tuple[int, ...]] = {}
    keys = lattice
    if classes:
        # An orbit's key: b outside the classes, then b's sorted values in each class.
        outside = [all(k not in c for c in classes) for k in range(ideal.n)]
        keys = zip(
            map(tuple, map(compress, lattice, repeat(outside))),
            *[map(tuple, map(sorted, map(itemgetter(*c), lattice))) for c in classes],
        )
    for b, key in zip(lattice, keys):
        dims = orbit_dims.get(key)
        if dims is None:
            dims = orbit_dims[key] = koszul_complex(ideal, b).reduced_homology_dims(char, memo)
        for offset, dim in enumerate(dims):
            if dim:
                entries[(offset, b)] = dim
    return BettiTable(char, entries)


def regularity(ideal: MonomialIdeal, char: int = 0) -> int:
    """Largest degree minus homological index over the nonzero Betti
    numbers; this is the Castelnuovo-Mumford regularity of the ideal."""
    return betti_table(ideal, char).regularity()


def _signed_subset_counts(ideal: MonomialIdeal) -> dict[tuple[int, ...], int]:
    """For each lattice point b, the sum of (-1)^(|S|-1) over nonempty
    generator subsets S with lcm equal to b.

    Folds one generator at a time: subsets through generator k either
    avoid it (counts unchanged) or are an old subset joined with it (sign
    flipped, lcm joined) or the singleton; a count that cancels is dropped.
    The same sums as all 2^g subsets, in generators times lattice size.
    """
    counts: dict[tuple[int, ...], int] = {}
    for g in ideal._exps:
        updated = dict(counts)
        if value := updated.pop(g, 0) + 1:
            updated[g] = value
        for b, old in counts.items():
            joined = tuple(map(max, b, g))
            if value := updated.pop(joined, 0) - old:
                updated[joined] = value
        counts = updated
    return counts


def euler_consistency_check(
    ideal: MonomialIdeal, table: BettiTable
) -> tuple[bool, list[tuple[int, ...]]]:
    """Compare the alternating sum of Betti numbers at every multidegree
    with the signed subset count from the generators.  The two must agree
    pointwise for any correct table; mismatching multidegrees are
    returned for diagnostics."""
    expected = _signed_subset_counts(ideal)
    actual: dict[tuple[int, ...], int] = {}
    for (i, b), v in table.entries.items():
        sign = 1 if i % 2 == 0 else -1
        actual[b] = actual.get(b, 0) + sign * v
    actual = {b: v for b, v in actual.items() if v != 0}
    mismatches = sorted(
        set(expected) ^ set(actual)
        | {b for b in set(expected) & set(actual) if expected[b] != actual[b]}
    )
    return (not mismatches, mismatches)
