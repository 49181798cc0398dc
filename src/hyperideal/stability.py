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
from .monomials import Monomial, compositions, exponent_vector


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
    witness: Optional[StabilityWitness]

    @property
    def is_stable(self) -> bool:
        return self.witness is None

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
    test settles u and the scan is skipped.  Everything is tested as an
    exponent tuple; only the returned witness is wrapped in Monomials.
    """
    best = None
    for pos, u in enumerate(candidates._exps):
        m = len(u)
        while not u[m - 1]:
            m -= 1
        exps = list(u)
        exps[m - 1] -= 1
        if members.contains(tuple(exps)):
            continue
        for j in range(1, m):
            exps[j - 1] += 1
            shifted = tuple(exps)
            exps[j - 1] -= 1
            if not members.contains(shifted):
                key = (-(m - j), j, pos)
                if best is None or key < best[0]:
                    best = (key, u, j, shifted)
                break
    if best is None:
        return None
    _, u, j, shifted = best
    return StabilityWitness(Monomial(u), j, Monomial(shifted))


def is_stable(ideal: MonomialIdeal) -> StabilityReport:
    """Generator-level stability check with the witness of :func:`_witness`."""
    return StabilityReport(ideal, _witness(ideal, ideal))


def is_stable_exhaustive(ideal: MonomialIdeal, degree_bound: int) -> bool:
    """Check the stability condition on every member up to ``degree_bound``,
    not just the generators.  Agrees with :func:`is_stable` once the bound
    reaches deg(I) + n."""
    n = ideal.n
    for deg in range(1, degree_bound + 1):
        for u in compositions(deg, (deg,) * n):
            if not ideal.contains(u):
                continue
            m = max(i for i, e in enumerate(u) if e)  # m(u) - 1
            for j in range(m):  # x_{j+1} * u / x_{m+1}
                shifted = list(u)
                shifted[j] += 1
                shifted[m] -= 1
                if not ideal.contains(tuple(shifted)):
                    return False
    return True


def t_bound(a: Sequence[int]) -> int:
    """Sum of the containment entries minus the largest one.

    Equals the sum over all entries but the first when the entries are
    sorted nonincreasingly, so the value does not depend on vertex order.
    """
    entries = exponent_vector(a)
    if not any(entries):
        raise ValueError("bound undefined for an all-zero vector")
    return sum(entries) - max(entries)


def q_bound(ideal: MonomialIdeal) -> int:
    """m(I) * (deg(I) - 1) + 1, the generic truncation bound."""
    return ideal.max_index() * (ideal.deg() - 1) + 1


def _check_pure_power_hypothesis(exponents: Sequence[int]) -> tuple[int, ...]:
    a = exponent_vector(exponents)
    n = len(a)
    if any(a[i] < a[i + 1] for i in range(n - 1)):
        raise ValueError(f"exponents must be nonincreasing, got {list(a)}")
    if a[-1] < 1:
        raise ValueError("exponents must all be at least 1")
    if a[0] > n - 1:
        raise ValueError(f"hypothesis violated: leading exponent {a[0]} exceeds n - 1 = {n - 1}")
    return a


def _box_stable(a: Sequence[int], t: int) -> bool:
    """Whether (x_1^{a_1}, ..., x_n^{a_n}), exponents >= 1 in any order,
    truncated at degree t >= max(a) is stable, decided without listing
    the truncation.

    Since no generator lies above t, the truncation's generators are its
    degree-t members.  :func:`_witness` skips a member u whose u / x_m is
    a member, so it scans only u = x_m * v with v a standard monomial
    (v_i < a_i for every i) of degree t - 1, m >= m(v) and x_m * v in the
    ideal; the shifts of u are x_j * v for j < m.  For v in the box, x_k * v
    is a member exactly when v_k = a_k - 1, so the walk compares each v with
    the corner a - 1 and tests no membership.
    """
    corner = tuple(e - 1 for e in a)
    for v in compositions(t - 1, corner):
        top = max((i for i, e in enumerate(v) if e), default=0)  # m(v) - 1, or 0 at v = 1
        for m in range(top, len(a)):
            if v[m] == corner[m] and v[:m] != corner[:m]:
                return False
    return True


def pure_power_truncation_stable(exponents: Sequence[int]) -> bool:
    """Test that (x_1^{a_1}, ..., x_n^{a_n}) with n-1 >= a_1 >= ... >= a_n >= 1,
    truncated at t = sum - max, is stable.

    The hypothesis gives t >= n - 1 >= a_1 = max(a), so
    :func:`_box_stable` decides it on the box of standard monomials.
    There the degree t - 1 holds at most the corner (a_i - 1), reached
    only when a_1 = n - 1, so the walk makes O(n^2) corner comparisons.
    """
    a = _check_pure_power_hypothesis(exponents)
    return _box_stable(a, sum(a) - a[0])


def truncation_stability(ideal: MonomialIdeal, t: int) -> StabilityReport:
    """Stability report for ideal.truncate(t), with the same verdict and
    witness as is_stable on the truncation.

    Shifting a generator preserves its degree, so membership of the
    shifted monomial in the truncation is just membership in the original
    ideal; testing against the few original generators stays cheap even
    when the truncation has thousands.
    """
    truncated = ideal.truncate(t)
    return StabilityReport(truncated, _witness(truncated, ideal))
