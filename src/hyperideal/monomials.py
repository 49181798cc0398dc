"""Monomials as exponent vectors, with exact integer arithmetic throughout.

Exponents are plain Python integers, so there is no overflow to guard
against; every derived quantity (degree, bound, Betti number) is an exact
combinatorial integer.

Kernel contract: an ideal is built from exponent vectors, and
:func:`exponent_vector` is the one check of a vector from outside.  Inside,
exponent tuples move unchecked but for the length checks of
``MonomialIdeal.contains`` and ``koszul_complex``; ``lcm_lattice`` returns
tuples and :func:`divides_any` decides membership.  A :class:`Monomial`,
an exponent tuple that prints as a monomial, is only what the package
shows: ``MonomialIdeal.gens``, a stability witness, ``str``.
"""

from __future__ import annotations

from operator import gt
from typing import Iterable, Sequence


def exponent_vector(v: Iterable[int], n: int | None = None) -> tuple[int, ...]:
    """The exponent vector ``v`` as a tuple, checked in this order: of
    length ``n`` when n is given, nonempty, and every entry a nonnegative
    ``int`` (``bool`` refused)."""
    exps = tuple(v)
    if n is not None and len(exps) != n:
        raise ValueError(f"exponent vector {list(exps)} does not have length n={n}")
    if not exps:
        raise ValueError("an exponent vector needs at least one entry")
    for e in exps:
        if type(e) is not int or e < 0:
            raise ValueError(f"exponents must be nonnegative integers, got {exps!r}")
    return exps


class Monomial(tuple):
    """A monomial x1^e1 * ... * xn^en: its exponent tuple, shown as a monomial.

    Built only for display, from exponent tuples already checked, so it
    checks nothing; no attribute can be set.  The unit monomial (all
    zeros) prints as ``1``; :meth:`max_index` raises ``ValueError`` on it.
    """

    __slots__ = ()
    exponents = property(tuple, doc="The exponent vector as a plain ``tuple``.")

    def degree(self) -> int:
        """Total degree: the sum of the exponents."""
        return sum(self)

    def max_index(self) -> int:
        """Largest 1-based variable index dividing the monomial."""
        for i in range(len(self), 0, -1):
            if self[i - 1]:
                return i
        raise ValueError("max index of the unit monomial is undefined")

    def __repr__(self) -> str:
        return f"Monomial(exponents={tuple(self)!r})"

    def __str__(self) -> str:
        parts = [f"x{i}" if e == 1 else f"x{i}^{e}" for i, e in enumerate(self, 1) if e]
        return "*".join(parts) or "1"


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
