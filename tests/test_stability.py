import itertools
import random
from dataclasses import fields
from operator import ge

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from hyperideal.homology import GuardError
from hyperideal.hypergraphs import build_hypergraph, special_dual
from hyperideal.ideals import MAX_TRUNCATION, MonomialIdeal
from hyperideal.monomials import Monomial
from hyperideal.stability import (
    StabilityReport,
    StabilityWitness,
    _box_walk,
    _witness,
    is_stable,
    is_stable_exhaustive,
    pure_power_truncation_stable,
    q_bound,
    t_bound,
    truncation_stability,
)

COUNTEREXAMPLE = MonomialIdeal(3, [(2, 0, 0), (0, 2, 0), (0, 0, 1)])


def reference_witness(candidates, members):
    """Every failing (generator, shift index) pair of ``candidates``, with
    membership in ``members`` decided by comparing raw exponents, and the
    pair of largest gap m(u) - j kept (ties: smaller j, then generator
    order)."""
    failing = []
    for pos, u in enumerate(candidates.gens):
        e = u.exponents
        m = max(i + 1 for i, x in enumerate(e) if x)
        for j in range(1, m):
            se = list(e)
            se[j - 1] += 1
            se[m - 1] -= 1
            if not any(all(g <= x for g, x in zip(w.exponents, se)) for w in members.gens):
                failing.append(((j - m, j, pos), u, j, tuple(se)))
    if not failing:
        return None
    _, u, j, shifted = min(failing)
    return StabilityWitness(u, j, Monomial(shifted))


def reference_pure_power_stable(a):
    """Stability of (x_1^a_1, ..., x_n^a_n) truncated at t = sum - max,
    with each shift built as a list and tested against the exponents."""
    n = len(a)
    t = sum(a) - a[0]
    ideal = MonomialIdeal(
        n, (tuple(a[i] if k == i else 0 for k in range(n)) for i in range(n))
    )
    for g in ideal.truncate(t).gens:
        m = g.max_index()
        for j in range(1, m):
            se = list(g.exponents)
            se[j - 1] += 1
            se[m - 1] -= 1
            if not any(se[i] >= a[i] for i in range(n)):
                return False
    return True


def small_ideals():
    return st.integers(min_value=2, max_value=4).flatmap(
        lambda n: st.lists(
            st.lists(st.integers(min_value=0, max_value=3), min_size=n, max_size=n).filter(
                lambda v: any(v)
            ),
            min_size=1,
            max_size=4,
        ).map(lambda vs: MonomialIdeal(n, vs))
    )


def test_stable_examples():
    assert is_stable(MonomialIdeal(2, [(1, 0)])).is_stable
    level = MonomialIdeal(2, [(2, 0), (1, 1), (0, 2)])
    assert is_stable(level).is_stable


def test_report_verdict_is_the_missing_witness():
    # A report holds its ideal and witness; the verdict is read off the witness.
    assert [f.name for f in fields(StabilityReport)] == ["ideal", "witness"]
    ideal = MonomialIdeal(2, [(0, 1)])
    report = is_stable(ideal)
    assert report == StabilityReport(ideal, report.witness)
    assert not report.is_stable
    assert StabilityReport(ideal, None).is_stable


def test_stability_rejects_degenerate_ideals():
    # The constructor refuses both before stability is asked.
    with pytest.raises(ValueError, match="zero ideal is refused"):
        is_stable(MonomialIdeal(2, []))
    with pytest.raises(ValueError, match="unit ideal is refused"):
        is_stable(MonomialIdeal(2, [(0, 0)]))


def test_unstable_with_witness():
    ideal = MonomialIdeal(2, [(0, 1)])
    report = is_stable(ideal)
    assert not report.is_stable
    w = report.witness
    assert w.generator == Monomial((0, 1))
    assert w.shift_index == 1
    assert w.shifted == Monomial((1, 0))
    assert w.render() == "witness: u=x2 j=1 shifted=x1 (not in ideal)"


def test_truncation_counterexample_witness():
    report = truncation_stability(COUNTEREXAMPLE, 2)
    assert not report.is_stable
    assert report.witness.generator == Monomial((0, 1, 1))
    assert report.witness.shift_index == 1
    assert report.witness.shifted == Monomial((1, 1, 0))


def test_truncation_stable_at_three():
    assert truncation_stability(COUNTEREXAMPLE, 3).is_stable
    assert is_stable(COUNTEREXAMPLE.truncate(3)).is_stable


@given(small_ideals(), st.integers(min_value=1, max_value=5))
@settings(max_examples=60)
def test_truncation_stability_matches_direct_check(ideal, t):
    fast = truncation_stability(ideal, t)
    direct = is_stable(ideal.truncate(t))
    expected = reference_witness(ideal.truncate(t), ideal)
    assert fast.ideal == direct.ideal == ideal.truncate(t)
    assert fast.is_stable == direct.is_stable == (expected is None)
    assert fast.witness == direct.witness == expected


def skip_split(candidates, members):
    """How many generators u of ``candidates`` have u / x_m in ``members``
    (one test settles them), and how many do not."""
    skipped = 0
    for u in candidates.gens:
        e = list(u.exponents)
        m = max(i + 1 for i, x in enumerate(e) if x)
        e[m - 1] -= 1
        skipped += members.contains(tuple(e))
    return skipped, len(candidates.gens) - skipped


def test_truncation_witness_with_and_without_skips():
    rng = random.Random(20261018)
    mixed = verdicts = 0
    for _ in range(300):
        n = rng.randint(2, 5)
        vectors = [[rng.randint(0, 3) for _ in range(n)] for _ in range(rng.randint(1, 4))]
        if not all(any(v) for v in vectors):
            continue
        ideal = MonomialIdeal(n, vectors)
        t = rng.randint(1, ideal.deg() + 2)
        cut = ideal.truncate(t)
        expected = reference_witness(cut, ideal)
        assert truncation_stability(ideal, t).witness == expected
        assert is_stable(cut).witness == expected
        skipped, scanned = skip_split(cut, ideal)
        if skipped and scanned:
            mixed += 1
            verdicts |= 1 << (expected is None)
    # Truncations mixing both kinds of candidates, stable and unstable.
    assert mixed >= 50 and verdicts == 3


@given(small_ideals())
@settings(max_examples=60)
def test_is_stable_matches_reference(ideal):
    report = is_stable(ideal)
    expected = reference_witness(ideal, ideal)
    assert report.ideal == ideal
    assert report.is_stable == (expected is None)
    assert report.witness == expected


def test_witness_tie_breaks():
    # x2^2 fails at j=1 with gap 1; the later x3^3 fails at j=1 (gap 2)
    # and at j=2 (gap 1), so the later generator's first shift wins.
    ideal = MonomialIdeal(3, [(0, 2, 0), (0, 0, 3)])
    assert [str(g) for g in ideal.gens] == ["x2^2", "x3^3"]
    w = is_stable(ideal).witness
    assert (w.generator, w.shift_index, w.shifted) == (
        Monomial((0, 0, 3)), 1, Monomial((1, 0, 2))
    )
    assert w == reference_witness(ideal, ideal)
    # Equal gap and equal j: the earlier generator wins.
    ideal = MonomialIdeal(3, [(0, 1, 1), (1, 0, 1)])
    w = is_stable(ideal).witness
    assert (w.generator, w.shift_index) == (Monomial((1, 0, 1)), 1)
    assert w == reference_witness(ideal, ideal)
    # The shift at j=1 stays inside, the one at j=2 does not.
    ideal = MonomialIdeal(3, [(2, 0, 0), (1, 0, 1)])
    w = is_stable(ideal).witness
    assert (w.generator, w.shift_index, w.shifted) == (
        Monomial((1, 0, 1)), 2, Monomial((1, 1, 0))
    )
    assert w == reference_witness(ideal, ideal)


@given(small_ideals())
@settings(max_examples=40)
def test_generator_check_agrees_with_exhaustive(ideal):
    bound = ideal.deg() + ideal.n
    assert is_stable(ideal).is_stable == is_stable_exhaustive(ideal, bound)


def test_t_bound():
    assert t_bound((3, 3, 2, 1)) == 6
    assert t_bound((2, 2, 1)) == 3
    assert t_bound((1, 1)) == 1
    with pytest.raises(ValueError):
        t_bound((0, 0))
    with pytest.raises(ValueError):
        t_bound((2, -1))
    for bad in ((1.5, 2), (True, 2), (2, "1")):
        with pytest.raises(ValueError, match="integers"):
            t_bound(bad)


def test_q_bound():
    mixed = MonomialIdeal(3, [(2, 0, 0), (0, 2, 0), (1, 0, 1), (0, 1, 1)])
    assert q_bound(mixed) == 4
    linear = MonomialIdeal(2, [(1, 0), (0, 1)])
    assert q_bound(linear) == 1
    with pytest.raises(ValueError, match="zero ideal is refused"):
        q_bound(MonomialIdeal(2, []))


def test_pure_power_truncation_stable():
    assert pure_power_truncation_stable((2, 2, 1))
    assert pure_power_truncation_stable((1, 1))
    assert pure_power_truncation_stable((3, 3, 2, 1))


def test_pure_power_matches_reference_on_every_small_vector():
    checked = 0
    for n in range(2, 6):
        for a in itertools.combinations_with_replacement(range(n - 1, 0, -1), n):
            assert pure_power_truncation_stable(a) == reference_pure_power_stable(a)
            checked += 1
    assert checked == 1 + 4 + 15 + 56


def test_box_walk_matches_witness_on_every_small_box():
    # Any order of exponents in 1..4, n <= 4, every t from max(a) to sum(a).
    verdicts = []
    for n in range(1, 5):
        for a in itertools.product(range(1, 5), repeat=n):
            ideal = MonomialIdeal(
                n, (tuple(a[i] if k == i else 0 for k in range(n)) for i in range(n))
            )
            caps = [e - 1 for e in a]
            for t in range(max(a), sum(a) + 1):
                expected = _witness(ideal.truncate(t), ideal)
                assert _box_walk(lambda u: any(map(ge, u, a)), caps, t) == expected, (a, t)
                assert _box_walk(ideal.contains, caps, t) == expected, (a, t)
                verdicts.append(expected is None)
    assert len(verdicts) == 2264
    assert verdicts.count(False) == 1012


@st.composite
def ideals_with_every_pure_power(draw):
    """A pure power of every variable, plus up to 3 other generators."""
    n = draw(st.integers(min_value=1, max_value=4))
    powers = draw(st.lists(st.integers(min_value=1, max_value=4), min_size=n, max_size=n))
    gens = [tuple(p if k == i else 0 for k in range(n)) for i, p in enumerate(powers)]
    others = st.lists(st.integers(min_value=0, max_value=3), min_size=n, max_size=n)
    gens += draw(st.lists(others.filter(any), max_size=3))
    return MonomialIdeal(n, gens)


# At t = 4 the members (0,1,0,3) and (0,0,1,3) both fail at j = 1 with
# gap 3, and the lexicographically larger wins; at t = 3 the witness
# x4^3 = x4 * x4^2 has m = m(v); at t = 1 and 2, x4^3 lies above t.
@example(MonomialIdeal(4, [(2, 0, 0, 0), (0, 3, 0, 0), (0, 0, 2, 0), (0, 0, 0, 3)]))
# At t = 4 both x2 * v and x4 * v are members for v = (1,2,0,0), and the
# witness is x4 * v, of the larger m.
@example(MonomialIdeal(4, [(3, 0, 0, 0), (0, 3, 0, 0), (0, 0, 2, 0), (0, 0, 0, 1)]))
@given(ideals_with_every_pure_power())
@settings(max_examples=80)
def test_truncation_witness_on_the_box_matches_reference(ideal):
    for t in range(1, ideal.deg() + 3):
        cut = ideal.truncate(t)
        report = truncation_stability(ideal, t)
        assert report.ideal == cut
        assert report.witness == reference_witness(cut, ideal) == is_stable(cut).witness, t


def contains_calls(monkeypatch):
    """A list that grows by one entry per ``MonomialIdeal.contains`` call."""
    calls = []
    original = MonomialIdeal.contains

    def spy(self, u):
        calls.append(u)
        return original(self, u)

    monkeypatch.setattr(MonomialIdeal, "contains", spy)
    return calls


def test_box_walk_tests_few_memberships(monkeypatch):
    # 715 degree-9 members; the box below (3, 3, 2, 0, 0) holds one monomial
    # of degree 8, whose test, x5's shift and x1..x4's shifts settle them all.
    a = (4, 4, 3, 1, 1)
    ideal = MonomialIdeal(5, (tuple(a[i] if k == i else 0 for k in range(5)) for i in range(5)))
    cut = ideal.truncate(9)
    assert len(cut.gens) == 715
    calls = contains_calls(monkeypatch)
    assert truncation_stability(ideal, 9).is_stable
    assert len(calls) == 6


def test_chain_dual_keeps_the_member_scan(monkeypatch):
    # The running example's dual lacks a pure power of x3 and x4.
    sd = special_dual(build_hypergraph(4, 1, [[1, 2], [1, 2, 3], [1, 2, 3, 4]]))
    dual_r, t = sd.dual_r, t_bound(sd.a)
    cut = dual_r.truncate(t)
    calls = contains_calls(monkeypatch)
    report = truncation_stability(dual_r, t)
    scanned = len(calls)
    assert report.witness == _witness(cut, dual_r)
    assert scanned > 0 and len(calls) == 2 * scanned


def test_truncation_guard_fires_before_any_membership_test(monkeypatch):
    def refuse(self, u):
        raise AssertionError("contains called")

    monkeypatch.setattr(MonomialIdeal, "contains", refuse)
    ideal = MonomialIdeal(8, [tuple(int(i == k) for k in range(8)) for i in range(8)])
    with pytest.raises(GuardError, match=f"limit {MAX_TRUNCATION}"):
        truncation_stability(ideal, 30)


def test_ideal_that_is_its_own_truncation_scans_its_generators(monkeypatch):
    # Every generator has degree t, so truncate(t) returns the ideal without
    # pricing it; walking the C(36, 7) = 8,347,680 monomials of degree 29
    # would be unguarded work, while the 8 generators settle it: one test of
    # u / x_m each, and one shift for each but x1^30.  The spy refuses a
    # 16th call, so a walk fails at once instead of running for minutes.
    ideal = MonomialIdeal(8, [tuple(30 * (i == k) for k in range(8)) for i in range(8)])
    expected = is_stable(ideal).witness
    calls = []
    original = MonomialIdeal.contains

    def spy(self, u):
        calls.append(u)
        assert len(calls) <= 15, "more membership tests than the generator scan"
        return original(self, u)

    monkeypatch.setattr(MonomialIdeal, "contains", spy)
    report = truncation_stability(ideal, 30)
    assert report.ideal is ideal
    assert report.witness == expected is not None
    assert len(calls) == 15


def test_pure_power_never_lists_the_truncation(monkeypatch):
    def refuse(self, t):
        raise AssertionError("truncate called")

    monkeypatch.setattr(MonomialIdeal, "truncate", refuse)
    for n in range(2, 8):
        for a in itertools.combinations_with_replacement(range(n - 1, 0, -1), n):
            assert pure_power_truncation_stable(a)


def test_pure_power_hypothesis_errors():
    with pytest.raises(ValueError, match="nonincreasing"):
        pure_power_truncation_stable((1, 2))
    with pytest.raises(ValueError, match="at least 1"):
        pure_power_truncation_stable((1, 0))
    with pytest.raises(ValueError, match="leading exponent"):
        pure_power_truncation_stable((3, 1))
    with pytest.raises(ValueError, match="integers"):
        pure_power_truncation_stable((2.0, 1, 1))
