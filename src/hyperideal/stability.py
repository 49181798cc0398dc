"""Stable-ideal testing and the two truncation-degree bounds t and q.

An ideal is stable when for every member u and every index j below the
largest variable in u, shifting one power of that largest variable onto
x_j stays inside the ideal.  Checking the minimal generators suffices;
:func:`is_stable_exhaustive` exists to validate that reduction degree by
degree.
"""

from __future__ import annotations

from dataclasses import dataclass
from operator import ge
from typing import Callable, Optional, Sequence

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


def _box_walk(
    inside: Callable[[tuple[int, ...]], bool], caps: Sequence[int], t: int
) -> Optional[StabilityWitness]:
    """The witness of :func:`_witness` for the degree-t members of an ideal
    holding x_i^{caps_i + 1} for every i and no generator above degree t,
    decided on the standard monomials of degree t - 1; ``inside`` is the
    ideal's membership test on exponent tuples.

    :func:`_witness` skips a member u whose u / x_m(u) is a member, since
    then every shift of u is one too.  Every other member is u = x_m * v
    with v of degree t - 1 outside the ideal, so inside the box v_i <=
    caps_i, and m >= m(v); its shifts are x_j * v for j < m.  So for each
    such v the walk takes the largest m >= m(v) with x_m * v inside and
    the smallest j < m with x_j * v outside, the failing shift of largest
    gap m - j among the members over v.  Ties between the v break as in
    :func:`_witness`: smaller j, then generator order, which within one
    degree puts the lexicographically larger u first.
    """
    n = len(caps)
    best = None
    for v in compositions(t - 1, caps):
        if inside(v):
            continue
        low = n - 1  # m(v) - 1, or 0 at v = 1
        while low and not v[low]:
            low -= 1
        exps = list(v)
        for m in range(n - 1, low - 1, -1):
            exps[m] += 1
            hit = inside(tuple(exps))
            exps[m] -= 1
            if hit:
                break
        else:
            continue
        for j in range(m):
            exps[j] += 1
            shifted = tuple(exps)
            exps[j] -= 1
            if not inside(shifted):
                u = v[:m] + (v[m] + 1,) + v[m + 1 :]
                key = (m - j, -j, u)
                if best is None or key > best[0]:
                    best = (key, u, j, shifted)
                break
    if best is None:
        return None
    _, u, j, shifted = best
    return StabilityWitness(Monomial(u), j + 1, Monomial(shifted))


def _box_caps(ideal: MonomialIdeal, t: int) -> Optional[list[int]]:
    """The caps a_i - 1 of :func:`_box_walk` when ``ideal`` holds a pure
    power x_i^{a_i} of every variable and no generator above degree t,
    else None; one pass over the generators."""
    caps = [-1] * ideal.n
    for g in ideal._exps:
        d = sum(g)
        if d > t:
            return None
        if d in g:  # a pure power: its one nonzero entry is its degree
            caps[g.index(d)] = d - 1
    return None if -1 in caps else caps


def pure_power_truncation_stable(exponents: Sequence[int]) -> bool:
    """Test that (x_1^{a_1}, ..., x_n^{a_n}) with n-1 >= a_1 >= ... >= a_n >= 1,
    truncated at t = sum - max, is stable, without listing the truncation.

    The hypothesis gives t >= n - 1 >= a_1 = max(a), so no generator lies
    above t and :func:`_box_walk` decides it, a monomial being a member
    when some exponent reaches a_i.  Degree t - 1 holds at most one
    standard monomial, the corner (a_i - 1), reached only when a_1 = n - 1,
    so the walk makes at most 2n membership tests.
    """
    a = _check_pure_power_hypothesis(exponents)
    return _box_walk(lambda u: any(map(ge, u, a)), [e - 1 for e in a], sum(a) - a[0]) is None


def truncation_stability(ideal: MonomialIdeal, t: int) -> StabilityReport:
    """Stability report for ideal.truncate(t), with the same verdict and
    witness as is_stable on the truncation.

    The truncation is listed first, so its guard fires before any other
    work.  Shifting a generator preserves its degree, so membership of a
    shift in the truncation is membership in the original ideal, tested
    against its few generators.  When the ideal holds a pure power of
    every variable and no generator above t, :func:`_box_walk` finds the
    witness on the standard monomials of degree t - 1, fewer than the
    degree-t monomials the guard priced; otherwise :func:`_witness` scans
    the truncation's generators.  An ideal with no generator below t is
    its own truncation, listed and priced by no one, so its generators
    are scanned and the walk is never taken.
    """
    truncated = ideal.truncate(t)
    if truncated is not ideal:
        caps = _box_caps(ideal, t)
        if caps is not None:
            return StabilityReport(truncated, _box_walk(ideal.contains, caps, t))
    return StabilityReport(truncated, _witness(truncated, ideal))
