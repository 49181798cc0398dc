"""Multigraded Betti numbers of monomial ideals, computed exactly.

The Betti number in homological index i and multidegree b equals the
dimension of reduced homology in degree i-1 of the Koszul complex at b,
so every value here comes from exact rank computations rather than from
any resolution heuristic.  Nonzero values only occur at points of the
lcm lattice of the generators, which keeps the search finite.  Each
Koszul complex is built from its facets, at most one per generator
dividing x^b, and handed to the homology module as such: its reduced
homology is then ranked on the complex or on the nerve of its facets,
whichever side bounds fewer faces.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from itertools import compress
from operator import lt

from .homology import GuardError, SimplicialComplex, _maximal, guard_ground_set
from .homology import validate_characteristic
from .ideals import MonomialIdeal
from .monomials import Monomial, canonical_sorted, divides_any

MAX_GENERATORS = 20


def lcm_lattice(ideal: MonomialIdeal) -> list[Monomial]:
    """All least common multiples of nonempty generator subsets, without
    duplicates, in canonical order: one fold that adds each generator and
    its join with every lcm found before it."""
    if ideal.is_zero:
        raise ValueError("the zero ideal has no lcm lattice")
    if len(ideal.gens) > MAX_GENERATORS:
        raise GuardError(
            f"{len(ideal.gens)} generators exceed the desk-scale limit "
            f"{MAX_GENERATORS}"
        )
    seen: set[tuple[int, ...]] = set()
    for g in [m.exponents for m in ideal.gens]:
        seen |= {tuple(map(max, b, g)) for b in seen}
        seen.add(g)
    return [Monomial._trusted(e) for e in canonical_sorted(seen)]


def _koszul_facets(
    gens: list[tuple[int, ...]], b: tuple[int, ...]
) -> tuple[tuple[int, ...], ...]:
    """Maximal facets of the Koszul complex K^b, as sorted vertex tuples.

    A face F lies in K^b exactly when x^(b - F) is in the ideal, that is
    when F is inside S_g = {w : g_w < b_w} for some generator g dividing
    x^b.  So K^b is generated by the maximal S_g; there is none (K^b is
    void) when no generator divides x^b.
    """
    labels = range(1, len(b) + 1)
    return _maximal({tuple(compress(labels, map(lt, g, b))) for g in gens if divides_any((g,), b)})


def _is_cone(facets: tuple[tuple[int, ...], ...]) -> bool:
    """True when every maximal facet contains one common vertex: the
    complex is then a cone over it, with zero reduced homology."""
    return bool(facets) and bool(set(facets[0]).intersection(*facets[1:]))


def koszul_complex(
    ideal: MonomialIdeal, b: Monomial, *, facets: tuple[tuple[int, ...], ...]
) -> SimplicialComplex:
    """Simplicial complex on the support of b whose faces are the subsets
    one can subtract from b (one unit per chosen variable) while staying
    inside the ideal.  It is built from ``facets``, the tuple
    ``_koszul_facets`` gives for the ideal's generators at b, and lists no
    face until asked.  Void when b itself lies outside the ideal; a
    non-void one on too wide a support is refused."""
    if b.n != ideal.n:
        raise ValueError("ambient dimension mismatch")
    support = tuple(sorted(b.support()))
    if facets:
        guard_ground_set(len(support))
    return SimplicialComplex._from_facets(support, facets)


@dataclass(frozen=True)
class BettiTable:
    """Sparse table of nonzero multigraded Betti numbers of an ideal."""

    n: int
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


def betti_table(ideal: MonomialIdeal, char: int = 0) -> BettiTable:
    """Exact multigraded Betti numbers of the ideal over a field of the
    given characteristic."""
    validate_characteristic(char)
    if ideal.is_zero:
        raise ValueError("the zero ideal has no betti table")
    entries: dict[tuple[int, tuple[int, ...]], int] = {}
    gens = [g.exponents for g in ideal.gens]
    for b in lcm_lattice(ideal):
        facets = _koszul_facets(gens, b.exponents)
        # A cone has no reduced homology, so it contributes no entry.
        if _is_cone(facets):
            continue
        complex_at_b = koszul_complex(ideal, b, facets=facets)
        dims = complex_at_b.reduced_homology_dims(char)
        for offset, dim in enumerate(dims):
            if dim:
                entries[(offset, b.exponents)] = dim
    return BettiTable(ideal.n, char, entries)


def regularity(ideal: MonomialIdeal, char: int = 0) -> int:
    """Largest degree minus homological index over the nonzero Betti
    numbers; this is the Castelnuovo-Mumford regularity of the ideal."""
    return betti_table(ideal, char).regularity()


def _signed_subset_counts(ideal: MonomialIdeal) -> dict[tuple[int, ...], int]:
    """For each lattice point b, the sum of (-1)^(|S|-1) over nonempty
    generator subsets S with lcm equal to b.

    Folds one generator at a time: subsets through generator k either
    avoid it (counts unchanged) or are an old subset joined with it (sign
    flipped, lcm joined) or the singleton.  Equivalent to enumerating all
    2^g subsets but linear in generators times lattice size.
    """
    counts: dict[tuple[int, ...], int] = {}
    for g in [m.exponents for m in ideal.gens]:
        updated = dict(counts)
        updated[g] = updated.get(g, 0) + 1
        for b, value in counts.items():
            joined = tuple(map(max, b, g))
            updated[joined] = updated.get(joined, 0) - value
        counts = updated
    return {b: v for b, v in counts.items() if v != 0}


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
