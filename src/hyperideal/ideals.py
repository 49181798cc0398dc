"""Monomial ideals held by minimal generating sets, and duality with
respect to a degree vector.

All operations are exact and deterministic: generators are kept minimized
and sorted in the canonical order, so equal ideals have identical
representations.  An irreducible component m^v, the ideal generated by
x_i^{v_i} for each v_i >= 1, is held as its exponent vector v.  Duals and
intersections of components go through one fold over exponent tuples,
:func:`_intersect`, which keeps its running generators minimal at every
step instead of minimizing them.
"""

from __future__ import annotations

from bisect import bisect_left
from math import comb
from operator import gt
from typing import Iterable, Sequence

from .homology import GuardError
from .monomials import Monomial, canonical_sorted, divides_any, exponent_vector

# Most variables an ideal, and vertices a hypergraph, may have: every
# later step builds n-length tuples, and `check` on a two-edge chain takes
# 0.7 s and 37 MB at n = 10^5, 4.8 s and 217 MB at n = 10^6.  `check` on
# (x1) takes 0.6 s at n = 10^5, and took 4.9 s and 396 MB at n = 8.0e6.
MAX_VERTICES = 10**5

# Most degree-t monomials a truncation may list: C(t+n-1, n-1) bounds
# their number, and truncate refuses before enumerating above it.
MAX_TRUNCATION = 10**6

# Most entries, generators times n, the running intersection of a fold
# may hold: _intersect refuses as soon as it holds more.  An up-front
# estimate (the product of the support sizes) would refuse ideals whose
# fold stays small.  Under a 1 GB address-space limit on a 2-vCPU x86-64
# VM (Python 3.11), the dual of 16 disjoint quadrics padded to n = 61,
# 65,536 generators and 3,997,696 entries, took 0.48 s and 67 MB; 18
# quadrics (n = 36) are refused at component 17 after 0.38 s and 75 MB.
# A cap of 10^5 generators let three 0/1 generators in 2,000 variables
# run out of memory after 10.9 s.
MAX_INTERSECTION_ENTRIES = 4 * 10**6

# Most coordinate comparisons one step of that fold may make: _intersect
# estimates them as |running generators| times the carriers of the
# component's support, scans of n coordinates each, and refuses before a
# step above it.  A step at its estimate took 2 to 6 ns per comparison on
# a 2-vCPU x86-64 VM (Python 3.11): 1.03 s at 1.7e8 (the d = 2 chain,
# n = 16, s = 8), 2.1 s at 1.3e9 and 7.9 s at 3.9e9 (the d = 1 chain,
# s = 10, n = 1000 and 3000), 11.3 s at 2.2e9 (d = 2, n = 20, s = 10).
# _minimize refuses above it before its first test.  There random 0/1
# rows in 1,000 variables took 0.22 s at 4.0e8 and 0.80 s at 2.0e9; rows
# whose every test scans all n coordinates, 7.3 s at 2.5e8.  7,990 random
# rows, a 16 MB file, took 38 s; `check` now refuses them in 2.0 s.
MAX_FOLD_COMPARISONS = 4 * 10**8


def _minimize(exps: Iterable[tuple[int, ...]], n: int) -> list[tuple[int, ...]]:
    """Minimal exponent tuples, of length n, among ``exps``, in canonical
    order.

    Monomials of equal degree only divide each other when equal, so after
    deduplication a candidate needs checking only against kept tuples of
    strictly smaller degree.  The unit tuple, if present, absorbs
    everything else.  Raises ``GuardError`` before the first test when
    those candidates, counted per candidate, times n exceed
    ``MAX_FOLD_COMPARISONS``.
    """
    ordered = canonical_sorted(exps)
    degrees = list(map(sum, ordered))
    tests = sum(bisect_left(degrees, d) for d in degrees)
    if tests * n > MAX_FOLD_COMPARISONS:
        raise GuardError(
            f"minimizing {len(ordered)} distinct rows: {tests:.2g} divisibility tests "
            f"of {n} coordinates exceed the desk-scale limit {MAX_FOLD_COMPARISONS} comparisons"
        )
    kept: list[tuple[int, ...]] = []
    smaller: tuple[tuple[int, ...], ...] = ()  # kept tuples of degree < current
    current_degree = None
    for e, d in zip(ordered, degrees):
        if d != current_degree:
            smaller = tuple(kept)
            current_degree = d
        if not divides_any(smaller, e):
            kept.append(e)
    return kept


def _degree_members(
    gens: Sequence[tuple[int, ...]], n: int, t: int
) -> list[tuple[int, ...]]:
    """Every degree-t member of the ideal generated by ``gens`` (exponent
    tuples of degree <= t, at least one), each once, in canonical order.

    Coordinates are filled left to right, largest value first.  A partial
    vector keeps only the generators that still fit: g_i <= e_i on the
    coordinates filled so far, and the rest of g no larger than the
    degree left.  A branch that keeps none is dropped.  Once a kept
    generator has nothing left to place, every completion of the degree
    left is a member; they come from a table built once per (parts,
    degree) for the length of this call.  The last two coordinates are
    settled in one loop: (v, left - v) completes a member exactly when
    some kept g has g_i <= v <= left - g_last.
    """
    if n == 1:  # every generator divides x_1^t
        return [(t,)]
    # Each generator travels with its tail sums, tail[i] = sum(g[i:]).
    fits = []
    for g in gens:
        tail = [0] * (n + 1)
        for i in range(n - 1, -1, -1):
            tail[i] = tail[i + 1] + g[i]
        fits.append((g, tail))
    # Soonest placed first: a branch's first kept generator is its first
    # to have nothing left to place.
    fits.sort(key=lambda gt: gt[1].index(0))
    members: list[tuple[int, ...]] = []
    last = n - 1
    table: dict[tuple[int, int], list[tuple[int, ...]]] = {}

    def completions(parts: int, degree: int) -> list[tuple[int, ...]]:
        """Every tuple of ``parts`` entries >= 0 summing to ``degree``,
        lexicographically descending."""
        key = (parts, degree)
        if key not in table:
            if parts == 1:
                table[key] = [(degree,)]
            else:
                table[key] = [
                    (v,) + c for v in range(degree, -1, -1) for c in completions(parts - 1, degree - v)
                ]
        return table[key]

    def fill(head: tuple[int, ...], left: int, active: list) -> None:
        i = len(head)
        if not active[0][1][i]:
            members.extend([head + c for c in completions(n - i, left)])
        elif i == last - 1:
            spans = [(g[i], left - g[last]) for g, _ in active]
            for v in range(left, -1, -1):
                for lo, hi in spans:
                    if lo <= v <= hi:
                        members.append(head + (v, left - v))
                        break
        else:
            for v in range(left, -1, -1):
                rest = left - v
                keep = [gt for gt in active if gt[0][i] <= v and gt[1][i + 1] <= rest]
                if keep:
                    fill(head + (v,), rest, keep)

    fill((), t, fits)
    return members


class MonomialIdeal:
    """A proper nonzero monomial ideal in n variables, built from exponent
    vectors of length n and stored minimized and sorted.

    The constructor refuses n above ``MAX_VERTICES`` (``GuardError``)
    before reading a row.  It refuses the zero ideal (no generators) and
    the unit ideal (a generator 1, also when it absorbs others), so every
    ideal has a generator and none of them is 1.  Truncation, duality and
    relabelling build only such ideals from such ideals, and nothing
    downstream checks for the two cases again.
    """

    __slots__ = ("n", "_exps", "_gens", "_cut")

    def __init__(self, n: int, gens: Iterable[Sequence[int]]):
        if type(n) is not int or n < 1:
            raise ValueError(f"ambient dimension must be a positive integer, got {n!r}")
        if n > MAX_VERTICES:
            raise GuardError(f"n={n} variables exceed the desk-scale limit {MAX_VERTICES}")
        minimal = _minimize((exponent_vector(g, n) for g in gens), n)
        if not minimal or not any(minimal[0]):
            kind = "unit" if minimal else "zero"
            raise ValueError(f"the {kind} ideal is refused: an ideal must be proper and nonzero")
        self._fill(n, minimal)

    @classmethod
    def _of_minimal(cls, n: int, minimal: list[tuple[int, ...]]) -> MonomialIdeal:
        """The ideal whose minimal generators, already distinct, pairwise
        incomparable and in canonical order, are ``minimal``; taken as
        they are, not re-checked or minimized."""
        ideal = object.__new__(cls)
        ideal._fill(n, minimal)
        return ideal

    def _fill(self, n: int, minimal: list[tuple[int, ...]]) -> None:
        object.__setattr__(self, "n", n)
        object.__setattr__(self, "_exps", tuple(minimal))
        object.__setattr__(self, "_gens", None)
        object.__setattr__(self, "_cut", None)  # (t, truncate(t)), last listed

    @property
    def gens(self) -> tuple[Monomial, ...]:
        """The minimal generators as monomials, wrapped on first read."""
        if self._gens is None:
            object.__setattr__(self, "_gens", tuple(map(Monomial, self._exps)))
        return self._gens

    def __setattr__(self, name, value):
        raise AttributeError("MonomialIdeal is immutable")

    # False since the constructor refuses both cases; kept only because
    # perfbench's trace hook for stability shift tests reads them, and
    # removed with the next benchmark change (ROADMAP item 2 step B).
    is_zero = is_unit = False

    def __eq__(self, other) -> bool:
        if not isinstance(other, MonomialIdeal):
            return NotImplemented
        return self.n == other.n and self._exps == other._exps

    def __hash__(self) -> int:
        return hash((self.n, self._exps))

    def __repr__(self) -> str:
        return f"MonomialIdeal({self.n}, {list(self.gens)!r})"

    def __str__(self) -> str:
        return ", ".join(str(g) for g in self.gens)

    def contains(self, u: tuple[int, ...]) -> bool:
        """Membership of the exponent tuple u: true iff some minimal
        generator divides x^u."""
        if len(u) != self.n:
            raise ValueError(f"ambient dimension mismatch: {len(u)} vs {self.n}")
        return divides_any(self._exps, u)

    def truncate(self, t: int) -> MonomialIdeal:
        """The ideal generated by the members of degree >= t.

        Its minimal generators are the degree-t members, listed once each
        by :func:`_degree_members`, followed by the generators above
        degree t; no minimization is needed, since a degree-t member
        never strictly divides a minimal generator.  Returns ``self``
        when no generator lies below degree t.  Raises ``GuardError``
        before enumerating when C(t+n-1, n-1), the number of degree-t
        monomials, exceeds ``MAX_TRUNCATION``.

        The last truncation listed is kept: a second call with the same t
        returns the same object without listing the members again.
        """
        if self._cut is not None and self._cut[0] == t:
            return self._cut[1]
        degrees = [sum(g) for g in self._exps]
        if min(degrees) >= t:
            return self
        estimate = comb(t + self.n - 1, self.n - 1)
        if estimate > MAX_TRUNCATION:
            raise GuardError(
                f"truncation at t={t} in n={self.n} variables: C(t+n-1, n-1) = "
                f"{estimate:.2g} degree-t monomials exceed the desk-scale "
                f"limit {MAX_TRUNCATION}"
            )
        fit = [g for g, d in zip(self._exps, degrees) if d <= t]
        above = [g for g, d in zip(self._exps, degrees) if d > t]
        cut = MonomialIdeal._of_minimal(self.n, _degree_members(fit, self.n, t) + above)
        object.__setattr__(self, "_cut", (t, cut))
        return cut

    def deg(self) -> int:
        """Highest degree among the minimal generators."""
        return max(map(sum, self._exps))

    def max_index(self) -> int:
        """Largest variable index occurring in any minimal generator."""
        return next(i for i in range(self.n, 0, -1) if any(g[i - 1] for g in self._exps))


def component_str(powers: Sequence[int]) -> str:
    """The irreducible component m^v of the exponent vector ``powers``
    (x_i^{v_i} for each v_i >= 1), as its pure powers in canonical order:
    power ascending, then index."""
    order = sorted((p, i) for i, p in enumerate(powers, start=1) if p)
    return ", ".join(f"x{i}^{p}" if p > 1 else f"x{i}" for p, i in order)


def _intersect(n: int, powers: Sequence[tuple[int, ...]]) -> list[tuple[int, ...]]:
    """Minimal generators, in canonical order, of the intersection of the
    irreducible components m^v, v in ``powers`` (exponent tuples of
    ambient n with a positive entry each).

    Folds the components in one at a time; the running generators stay
    minimal, so no step minimizes.  A generator g that lies in m^v is
    kept: no new candidate divides it.  Otherwise, for each i in supp(v),
    the candidate c = g with x_i raised to v_i is a minimal generator of
    the next step exactly when no other generator h of this step divides
    it.  Such an h has h_i > g_i, so only the generators carrying x_i are
    scanned, indexed once per step and coordinate.  Raises ``GuardError``
    before a step whose coordinate comparisons, estimated as the
    generators times the carriers of supp(v) times n, exceed
    ``MAX_FOLD_COMPARISONS``, and as soon as a step holds more than
    ``MAX_INTERSECTION_ENTRIES`` entries, n per generator.
    """
    max_gens = MAX_INTERSECTION_ENTRIES // n
    gens = [(0,) * n]
    for k, v in enumerate(powers, start=1):
        supp = [(i, p) for i, p in enumerate(v) if p]
        carriers = {i: [h for h in gens if h[i]] for i, _ in supp}
        scans = len(gens) * sum(map(len, carriers.values()))
        if scans * n > MAX_FOLD_COMPARISONS:
            raise GuardError(
                f"intersection of {len(powers)} irreducible components: {scans:.2g} "
                f"carrier scans of {n} coordinates at component {k} exceed the "
                f"desk-scale limit {MAX_FOLD_COMPARISONS} comparisons"
            )
        step = []
        for g in gens:
            for i, p in supp:
                if g[i] >= p:
                    step.append(g)
                    break
            else:
                for i, p in supp:
                    c = g[:i] + (p,) + g[i + 1 :]
                    gi = g[i]
                    for h in carriers[i]:
                        if h[i] > gi and not any(map(gt, h, c)):
                            break
                    else:
                        step.append(c)
                if len(step) > max_gens:
                    raise GuardError(
                        f"intersection of {len(powers)} irreducible components: {len(step)} "
                        f"generators of {n} entries at component {k} exceed the "
                        f"desk-scale limit {MAX_INTERSECTION_ENTRIES} entries"
                    )
        gens = step
    return canonical_sorted(gens)


def _dual_powers(ideal: MonomialIdeal, c: Sequence[int]) -> list[tuple[int, ...]]:
    """The exponent vectors of the dual's components, one per minimal
    generator x^g, in generator order: v_i = c_i + 1 - g_i where g_i >= 1
    and v_i = 0 where g_i = 0.

    The one validation of a dual's input, in this order: a c of the
    wrong length, an entry of c that is not a nonnegative integer, a
    generator that does not divide x^c.  The ideal is proper and nonzero
    by construction, so every vector has a positive entry.
    """
    c = tuple(c)
    if len(c) != ideal.n:
        raise ValueError(f"degree vector length {len(c)} != ambient {ideal.n}")
    exponent_vector(c)
    for e in ideal._exps:
        if any(map(gt, e, c)):
            raise ValueError(
                f"generator {Monomial(e)} does not divide x^c with c={list(c)}"
            )
    return [tuple([ci + 1 - gi if gi else 0 for ci, gi in zip(c, e)]) for e in ideal._exps]


def alexander_dual(ideal: MonomialIdeal, c: Sequence[int]) -> MonomialIdeal:
    """Dual of a monomial ideal with respect to the degree vector c.

    Intersects, over the minimal generators x^b, the pure-power ideals
    whose exponents are the complement of b inside c, folding their
    exponent tuples straight through :func:`_intersect`.  Every generator
    must divide x^c.
    """
    return MonomialIdeal._of_minimal(ideal.n, _intersect(ideal.n, _dual_powers(ideal, c)))


def irredundant_filter(components: Sequence[tuple[int, ...]]) -> list[tuple[int, ...]]:
    """Remove components, given as exponent vectors, containing the
    intersection of the others.

    The intersection of the surviving components equals the original
    intersection.  That intersection lies in the irreducible m^b exactly
    when some other component m^c does: b_v >= 1 and c_v >= b_v wherever
    c_v >= 1.  A drop never makes a kept component redundant, so one
    in-order scan drops what dropping the first redundant one and
    restarting would.
    """
    comps = list(components)
    i = 0
    while i < len(comps):
        b = comps[i]
        others = (zip(c, b, strict=True) for c in comps[:i] + comps[i + 1 :])
        if any(all(1 <= bv <= cv for cv, bv in pairs if cv) for pairs in others):
            del comps[i]
        else:
            i += 1
    return comps
