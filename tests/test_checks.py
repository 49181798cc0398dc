import json

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hyperideal import checks
from hyperideal.checks import (
    BENCH_COLUMNS,
    bench_row,
    run_hypergraph_checks,
    run_ideal_checks,
)
from hyperideal.hypergraphs import (
    build_hypergraph,
    canonical_vertex_order,
    covered_restriction,
    random_instance,
    special_dual,
)
from hyperideal.ideals import MonomialIdeal, irredundant_filter
from hyperideal.stability import _check_pure_power_hypothesis, pure_power_truncation_stable


def chain3():
    return build_hypergraph(3, 1, [frozenset({1, 2}), frozenset({1, 2, 3})])


def test_chain_report_all_pass():
    report = run_hypergraph_checks(chain3(), source="chain")
    assert report.kind == "hypergraph"
    assert all(c.status == "pass" for c in report.claims)
    assert report.exit_status() == 0
    v = report.values
    assert v["t"] == 3 and v["q"] == 4 and v["reg"] == 3
    assert v["t_edge_indexed"] == 2
    assert v["deg"] == 2 and v["m"] == 3
    assert not v["restricted"]


def test_report_text_is_stable():
    report = run_hypergraph_checks(chain3(), source="chain")
    text = report.to_text()
    assert "t=3 q=4" in text
    assert "reg=3 (char 0)" in text
    assert text == run_hypergraph_checks(chain3(), source="chain").to_text()


def test_report_json_round_trip():
    report = run_hypergraph_checks(chain3(), source="chain")
    data = report.to_json_dict()
    assert data["exit"] == 0
    assert json.loads(json.dumps(data)) == data
    names = [c["name"] for c in data["claims"]]
    assert names.index("dual_involution") < names.index("euler_consistency")


def test_skip_reg_reports_skipped_claims():
    report = run_hypergraph_checks(chain3(), skip_reg=True, source="chain")
    by_name = {c.name: c.status for c in report.claims}
    assert by_name["regularity_le_t"] == "skipped"
    assert by_name["regularity_lt_q"] == "skipped"
    assert by_name["euler_consistency"] == "skipped"
    assert report.exit_status() == 3
    assert report.values["reg"] is None


@pytest.mark.parametrize("skip_reg", [False, True])
@pytest.mark.parametrize(
    "run, subject, char",
    [
        (run_hypergraph_checks, chain3, -7),
        (run_ideal_checks, lambda: MonomialIdeal(2, [(1, 1), (2, 0)]), 4),
    ],
)
def test_runners_refuse_a_bad_char_before_any_work(monkeypatch, run, subject, char, skip_reg):
    # The runner checks char where it enters, so no report prints a bad
    # char and no dual is folded, with or without the regularity oracle.
    def refuse(*args):
        raise AssertionError("work began before the characteristic was checked")

    for name in ("special_dual", "alexander_dual"):
        monkeypatch.setattr(checks, name, refuse)
    with pytest.raises(ValueError, match=f"^characteristic must be 0 or a prime, got {char}$"):
        run(subject(), char=char, skip_reg=skip_reg)


def test_single_edge_degenerate_bound():
    h = build_hypergraph(2, 1, [frozenset({1, 2})])
    report = run_hypergraph_checks(h, source="edge")
    by_name = {c.name: c.status for c in report.claims}
    assert by_name["regularity_le_t"] == "pass"
    assert by_name["regularity_lt_q"] == "n/a"
    assert report.values["reg"] == 1
    assert report.values["t"] == 1
    assert report.exit_status() == 0


def test_restricted_flag_for_uncovered_vertices():
    h = build_hypergraph(5, 1, [frozenset({2, 4}), frozenset({2, 3, 4})])
    report = run_hypergraph_checks(h, source="padded")
    assert report.values["restricted"]
    assert all(c.status in ("pass", "n/a") for c in report.claims)


def test_ideal_checks_mark_hypergraph_claims_na():
    mixed = MonomialIdeal(
        3, [(2, 0, 0), (0, 2, 0), (1, 0, 1), (0, 1, 1)]
    )
    report = run_ideal_checks(mixed, source="mixed")
    assert report.kind == "ideal"
    by_name = {c.name: c.status for c in report.claims}
    assert by_name["dual_involution"] == "pass"
    assert by_name["euler_consistency"] == "pass"
    assert by_name["regularity_le_t"] == "n/a"
    assert by_name["t_le_q"] == "n/a"
    assert report.values["reg"] == 3
    assert report.values["q"] == 4
    assert not report.values["stable"]
    assert "x1*x2" in report.values["witness"]
    assert report.exit_status() == 0


def test_ideal_checks_reject_trivial_ideals():
    # The constructor refuses both before the checks run.
    with pytest.raises(ValueError, match="zero ideal is refused"):
        run_ideal_checks(MonomialIdeal(2, []))
    with pytest.raises(ValueError, match="unit ideal is refused"):
        run_ideal_checks(MonomialIdeal(2, [(0, 0)]))


def test_bench_row_shape():
    row = bench_row(7, run_hypergraph_checks(chain3()))
    assert tuple(row) == BENCH_COLUMNS
    assert row["instance_id"] == 7
    assert row["reg"] == 3
    assert row["reg_le_t"] == "true"
    assert row["t_le_q"] == "true"
    assert row["stable_at_t"] == "true"
    assert row["ass_chain"] == "true"


def test_bench_row_blank_reg_when_skipped():
    row = bench_row(0, run_hypergraph_checks(chain3(), skip_reg=True))
    assert row["reg"] == ""
    assert row["reg_le_t"] == ""
    assert row["stable_at_t"] == "true"


@st.composite
def random_chains(draw):
    d = draw(st.integers(min_value=1, max_value=4))
    s = draw(st.integers(min_value=1, max_value=min(8, 1 + 14 // d)))
    n = draw(st.integers(min_value=2 + (s - 1) * d, max_value=16))
    return random_instance(n, d, s, seed=draw(st.integers(min_value=0, max_value=2**32 - 1)))


@given(random_chains())
@settings(max_examples=100)
def test_restricted_dual_components_meet_the_pure_power_hypothesis(h):
    # run_hypergraph_checks hands every component's powers, descending, to
    # pure_power_truncation_stable without catching its hypothesis check:
    # component i carries the powers i, i-1, ..., 1 on |E_i| >= i+1 vertices.
    for i, comp in enumerate(special_dual(h).comps, start=1):
        exps = tuple(sorted(filter(None, comp), reverse=True))
        assert _check_pure_power_hypothesis(exps) == exps
        assert exps[0] == i and exps[-1] == 1 and len(exps) >= i + 1


@st.composite
def shuffled_chains(draw):
    """Chains with |E_1| = 2..3, d = 1..2 and s = 1..3 on shuffled labels,
    with up to two edge-free vertices."""
    e1 = draw(st.integers(min_value=2, max_value=3))
    d = draw(st.integers(min_value=1, max_value=2))
    s = draw(st.integers(min_value=1, max_value=3))
    n = e1 + (s - 1) * d + draw(st.integers(min_value=0, max_value=2))
    labels = draw(st.permutations(range(1, n + 1)))
    return build_hypergraph(n, d, [labels[: e1 + k * d] for k in range(s)])


def supports(comps, label=lambda i: i):
    return {frozenset(label(i) for i, p in enumerate(v, 1) if p) for v in irredundant_filter(comps)}


@given(shuffled_chains())
@settings(max_examples=40)
def test_input_label_claims_match_the_relabelled_reference(h):
    # The reference relabels the chain to canonical order and restricts it
    # to its covered vertices; there a component's nonzero entries, in
    # order, are the powers the component claim tests, and the primes are
    # the supports of the irredundant components.
    canonical, perm = canonical_vertex_order(h)
    restricted = covered_restriction(canonical)
    reference = special_dual(restricted).comps
    tested = []

    def spy(exps):
        tested.append(exps)
        return pure_power_truncation_stable(exps)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(checks, "pure_power_truncation_stable", spy)
        report = run_hypergraph_checks(h, skip_reg=True)
    assert tested == [tuple(p for p in v if p) for v in reference]
    assert report.claim("component_truncations_stable").status == "pass"
    assert supports(special_dual(h).comps, lambda i: perm[i - 1]) == supports(reference)
    assert supports(reference) == set(restricted.edges)
    assert report.claim("associated_primes_chain").status == "pass"
    assert report.values["restricted"] == (restricted.n < h.n)
