"""Monomials as exponent vectors, with exact integer arithmetic throughout.

Exponents are plain Python integers, so there is no overflow to guard
against; every derived quantity (degree, bound, Betti number) is an exact
combinatorial integer.

Kernel contract: the exponent tuple is the value that moves inside the
pipeline.  A :class:`Monomial` appears only where a value enters from
outside (``Monomial(...)``, ``of``, ``MonomialIdeal(n, gens)``, the input
formats), which validate it, and where one is shown (``MonomialIdeal.gens``,
a stability witness, ``str``).  Inside, ``MonomialIdeal.contains`` and
``koszul_complex`` take a raw tuple and check only its length,
``lcm_lattice`` returns tuples, and :func:`divides_any` decides membership.
"""

from __future__ import annotations

from dataclasses import dataclass
from operator import gt
from typing import Iterable, Sequence


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

    def max_index(self) -> int:
        """Largest 1-based variable index dividing the monomial.

        Undefined (raises) on the unit monomial.
        """
        exps = self.exponents
        for i in range(len(exps) - 1, -1, -1):
            if exps[i] >= 1:
                return i + 1
        raise ValueError("max index of the unit monomial is undefined")

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


def compositions(total: int, caps: Sequence[int]):
    """Yield every tuple v with 0 <= v_i <= caps[i] summing to ``total``,
    lexicographically descending, so the first coordinate runs from its
    largest feasible value down.

    The first coordinate takes only the values that leave a total the
    later coordinates can still hold, so no branch is abandoned, and the
    last coordinate takes what is left without a call of its own.
    """
    if len(caps) == 1:
        if total <= caps[0]:
            yield (total,)
        return
    rest = caps[1:]
    heads = range(min(caps[0], total), max(0, total - sum(rest)) - 1, -1)
    if len(rest) == 1:
        for head in heads:
            yield (head, total - head)
        return
    for head in heads:
        for tail in compositions(total - head, rest):
            yield (head,) + tail
