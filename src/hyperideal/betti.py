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
"""

from __future__ import annotations

from dataclasses import dataclass, field
from itertools import compress
from operator import gt, lt

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
    as it holds more than ``MAX_LATTICE_POINTS``."""
    if len(ideal._exps) > MAX_GENERATORS:
        raise GuardError(
            f"{len(ideal._exps)} generators exceed the desk-scale limit "
            f"{MAX_GENERATORS}"
        )
    seen: set[tuple[int, ...]] = set()
    for k, g in enumerate(ideal._exps, start=1):
        seen |= {tuple(map(max, b, g)) for b in seen}
        seen.add(g)
        if len(seen) > MAX_LATTICE_POINTS:
            raise GuardError(
                f"{len(seen)} lcm lattice points after {k} of {len(ideal._exps)} "
                f"generators exceed the desk-scale limit {MAX_LATTICE_POINTS}"
            )
    return canonical_sorted(seen)


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
    entries: dict[tuple[int, tuple[int, ...]], int] = {}
    # Most lattice points repeat a nerve ranked before; the memo lives for
    # this call only.
    memo: dict = {}
    for b in lcm_lattice(ideal):
        for offset, dim in enumerate(koszul_complex(ideal, b).reduced_homology_dims(char, memo)):
            if dim:
                entries[(offset, b)] = dim
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
    for g in ideal._exps:
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
