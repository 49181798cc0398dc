"""Monomials as exponent vectors, with exact integer arithmetic throughout.

Exponents are plain Python integers, so there is no overflow to guard
against; every derived quantity (degree, bound, Betti number) is an exact
combinatorial integer.

Kernel contract: the public constructors (``Monomial(...)``, ``of``)
validate their input, and :meth:`Monomial.divides` checks that the
ambient dimensions match.  Values the package derives from already
validated values (stability shifts, truncation candidates, intersections,
lattice joins) are built through :meth:`Monomial._trusted` without
re-checks, and membership is decided on raw exponent tuples by
:func:`divides_any`.
"""

from __future__ import annotations

from dataclasses import dataclass
from operator import gt
from typing import Iterable


@dataclass(frozen=True)
class Monomial:
    """A monomial x1^e1 * ... * xn^en stored as its exponent vector.

    The ambient dimension is ``len(exponents)``.  The unit monomial (all
    zeros) is a valid value: it divides everything.  Operations that are
    undefined on the unit monomial, such as :meth:`max_index`, raise
    ``ValueError``.
    """

    exponents: tuple[int, ...]

    def __post_init__(self) -> None:
        exps = tuple(self.exponents)
        if not exps:
            raise ValueError("ambient dimension must be positive")
        for e in exps:
            if not isinstance(e, int) or isinstance(e, bool) or e < 0:
                raise ValueError(f"exponents must be nonnegative integers, got {exps!r}")
        object.__setattr__(self, "exponents", exps)

    @classmethod
    def _trusted(cls, exponents: tuple[int, ...]) -> Monomial:
        """Wrap an exponent tuple derived from validated monomials, without
        re-checking it.  Not for outside input."""
        m = object.__new__(cls)
        object.__setattr__(m, "exponents", exponents)
        return m

    @classmethod
    def of(cls, *exponents: int) -> Monomial:
        return cls(tuple(exponents))

    @property
    def n(self) -> int:
        return len(self.exponents)

    def is_unit(self) -> bool:
        return all(e == 0 for e in self.exponents)

    def degree(self) -> int:
        """Total degree: the sum of the exponents."""
        return sum(self.exponents)

    def divides(self, other: Monomial) -> bool:
        """Componentwise order: true iff self_i <= other_i for every i."""
        if self.n != other.n:
            raise ValueError(f"ambient dimension mismatch: {self.n} vs {other.n}")
        return divides_any((self.exponents,), other.exponents)

    def support(self) -> frozenset[int]:
        """1-based indices of the variables that occur."""
        return frozenset(i + 1 for i, e in enumerate(self.exponents) if e >= 1)

    def max_index(self) -> int:
        """Largest 1-based variable index dividing the monomial.

        Undefined (raises) on the unit monomial.
        """
        exps = self.exponents
        for i in range(len(exps) - 1, -1, -1):
            if exps[i] >= 1:
                return i + 1
        raise ValueError("max index of the unit monomial is undefined")

    def stability_shift(self, j: int) -> Monomial:
        """Move one power from the largest occurring variable onto x_j.

        Returns x_j * self / x_m where m = max_index(self).  Requires
        1 <= j < m; degree is preserved.
        """
        m = self.max_index()
        if not 1 <= j < m:
            raise ValueError(f"shift index {j} must satisfy 1 <= j < max index {m}")
        exps = list(self.exponents)
        exps[j - 1] += 1
        exps[m - 1] -= 1
        return Monomial._trusted(tuple(exps))

    def __str__(self) -> str:
        if self.is_unit():
            return "1"
        parts = []
        for i, e in enumerate(self.exponents):
            if e == 1:
                parts.append(f"x{i + 1}")
            elif e >= 2:
                parts.append(f"x{i + 1}^{e}")
        return "*".join(parts)


def divides_any(gens: Iterable[tuple[int, ...]], u: tuple[int, ...]) -> bool:
    """Membership primitive: true iff some exponent tuple in ``gens`` is
    componentwise at most ``u``.

    Works on raw tuples of one ambient dimension and checks nothing;
    callers pass exponents of validated monomials.
    """
    for g in gens:
        if not any(map(gt, g, u)):
            return True
    return False


def canonical_sorted(exps: Iterable[tuple[int, ...]]) -> list[tuple[int, ...]]:
    """Distinct exponent tuples in the canonical order: degree ascending,
    lexicographically descending within a degree (so x1^2 sorts before
    x2^2)."""
    ordered = sorted(set(exps), reverse=True)
    ordered.sort(key=sum)
    return ordered


def compositions(total: int, parts: int):
    """Yield all tuples of ``parts`` nonnegative integers summing to ``total``.

    Deterministic: lexicographically descending, so the first coordinate
    runs from ``total`` down to 0.
    """
    if parts == 1:
        yield (total,)
        return
    for head in range(total, -1, -1):
        for tail in compositions(total - head, parts - 1):
            yield (head,) + tail
