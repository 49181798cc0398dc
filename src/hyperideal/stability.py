"""Stable-ideal testing and the two truncation-degree bounds t and q.

An ideal is stable when for every member u and every index j below the
largest variable in u, shifting one power of that largest variable onto
x_j stays inside the ideal.  Checking the minimal generators suffices;
:func:`is_stable_exhaustive` exists to validate that reduction degree by
degree.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Sequence

from .ideals import MonomialIdeal
from .monomials import Monomial, compositions


@dataclass(frozen=True)
class StabilityWitness:
    generator: Monomial
    shift_index: int
    shifted: Monomial

    def render(self) -> str:
        return (
            f"witness: u={self.generator} j={self.shift_index} "
            f"shifted={self.shifted} (not in ideal)"
        )


@dataclass(frozen=True)
class StabilityReport:
    ideal: MonomialIdeal
    is_stable: bool
    witness: Optional[StabilityWitness]

    def render(self) -> str:
        lines = [f"stable: {'yes' if self.is_stable else 'no'}"]
        if self.witness is not None:
            lines.append(self.witness.render())
        return "\n".join(lines)


def _witness(
    candidates: MonomialIdeal, members: MonomialIdeal
) -> Optional[StabilityWitness]:
    """The failing shift of a generator of ``candidates``, tested for
    membership in ``members``, or None when every shift stays inside.

    Among all failing (generator, shift index) pairs the witness is the
    one with the largest index gap m(u) - j (ties: smaller j, then
    generator order), i.e. the shift reaching furthest left of the
    generator's top variable.  For one generator the first failing j has
    the largest gap, so its scan stops there.  The shifts x_j * u / x_m
    are built in place from one copy of u with x_m removed.  When u / x_m
    itself is a member, every shift is its multiple, so one membership
    test settles u and the scan is skipped.
    """
    best: Optional[StabilityWitness] = None
    best_key = None
    for pos, u in enumerate(candidates.gens):
        m = u.max_index()
        exps = list(u.exponents)
        exps[m - 1] -= 1
        if members.contains(Monomial._trusted(tuple(exps))):
            continue
        for j in range(1, m):
            exps[j - 1] += 1
            shifted = Monomial._trusted(tuple(exps))
            exps[j - 1] -= 1
            if not members.contains(shifted):
                key = (-(m - j), j, pos)
                if best_key is None or key < best_key:
                    best_key = key
                    best = StabilityWitness(u, j, shifted)
                break
    return best


def is_stable(ideal: MonomialIdeal) -> StabilityReport:
    """Generator-level stability check with the witness of :func:`_witness`."""
    if ideal.is_zero or ideal.is_unit:
        raise ValueError("stability undefined for the zero and unit ideals")
    witness = _witness(ideal, ideal)
    return StabilityReport(ideal, witness is None, witness)


def is_stable_exhaustive(ideal: MonomialIdeal, degree_bound: int) -> bool:
    """Check the stability condition on every member up to ``degree_bound``,
    not just the generators.  Agrees with :func:`is_stable` once the bound
    reaches deg(I) + n."""
    if ideal.is_zero or ideal.is_unit:
        raise ValueError("stability undefined for the zero and unit ideals")
    n = ideal.n
    for deg in range(1, degree_bound + 1):
        for exps in compositions(deg, n):
            u = Monomial(exps)
            if not ideal.contains(u):
                continue
            m = u.max_index()
            for j in range(1, m):
                if not ideal.contains(u.stability_shift(j)):
                    return False
    return True


def t_bound(a: Sequence[int]) -> int:
    """Sum of the containment entries minus the largest one.

    Equals the sum over all entries but the first when the entries are
    sorted nonincreasingly, so the value does not depend on vertex order.
    """
    entries = tuple(a)
    if not entries or all(e == 0 for e in entries):
        raise ValueError("bound undefined for an all-zero vector")
    if any(e < 0 for e in entries):
        raise ValueError("containment entries must be nonnegative")
    return sum(entries) - max(entries)


def q_bound(ideal: MonomialIdeal) -> int:
    """m(I) * (deg(I) - 1) + 1, the generic truncation bound."""
    if ideal.is_zero or ideal.is_unit:
        raise ValueError("bound undefined for the zero and unit ideals")
    return ideal.max_index() * (ideal.deg() - 1) + 1


def _check_pure_power_hypothesis(exponents: Sequence[int]) -> tuple[int, ...]:
    a = tuple(exponents)
    n = len(a)
    if n < 1:
        raise ValueError("need at least one exponent")
    if not all(isinstance(e, int) and not isinstance(e, bool) for e in a):
        raise ValueError(f"exponents must be integers, got {list(a)}")
    if any(a[i] < a[i + 1] for i in range(n - 1)):
        raise ValueError(f"exponents must be nonincreasing, got {list(a)}")
    if a[-1] < 1:
        raise ValueError("exponents must all be at least 1")
    if a[0] > n - 1:
        raise ValueError(f"hypothesis violated: leading exponent {a[0]} exceeds n - 1 = {n - 1}")
    return a


def pure_power_truncation_stable(exponents: Sequence[int]) -> bool:
    """Build (x_1^{a_1}, ..., x_n^{a_n}) with n-1 >= a_1 >= ... >= a_n >= 1,
    truncate at t = sum - max, and test stability.

    Membership of a shifted degree-t monomial in the truncation reduces to
    membership in the pure-power ideal itself, which keeps the check fast
    even when the truncation has many generators.
    """
    a = _check_pure_power_hypothesis(exponents)
    n = len(a)
    ideal = MonomialIdeal._trusted(
        n, ((0,) * i + (a[i],) + (0,) * (n - i - 1) for i in range(n))
    )
    return _witness(ideal.truncate(sum(a) - a[0]), ideal) is None


def truncation_stability(ideal: MonomialIdeal, t: int) -> StabilityReport:
    """Stability report for ideal.truncate(t), with the same verdict and
    witness as is_stable on the truncation.

    Shifting a generator preserves its degree, so membership of the
    shifted monomial in the truncation is just membership in the original
    ideal; testing against the few original generators stays cheap even
    when the truncation has thousands.
    """
    truncated = ideal.truncate(t)
    if truncated.is_zero or truncated.is_unit:
        return StabilityReport(truncated, True, None)
    witness = _witness(truncated, ideal)
    return StabilityReport(truncated, witness is None, witness)
