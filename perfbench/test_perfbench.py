"""Tests of the benchmark itself: the output gate, the trace wiring and the
determinism of the per-layer counts.

    python3 -m pytest perfbench
"""

from __future__ import annotations

import json
import sys
from collections import Counter

import pytest

import run

sys.path.insert(0, str(run.SRC))

import bench_trace  # noqa: E402
import bench_workloads  # noqa: E402
import hyperideal.betti  # noqa: E402
import hyperideal.checks  # noqa: E402
import hyperideal.cli  # noqa: E402
import hyperideal.ideals  # noqa: E402

COUNT_METRICS = [name for name, unit in bench_trace.LAYER_METRICS if unit == "count"]


@pytest.fixture(autouse=True)
def at_repo_root(monkeypatch):
    monkeypatch.chdir(run.ROOT)


@pytest.fixture
def small_paths(tmp_path):
    return lambda workload: _small_paths(workload, tmp_path / workload)


def _small_paths(workload: str, folder, seed: int = 3) -> list[str]:
    """A few cheap instances of the workload that still reach every layer
    its full family reaches."""
    _, _, paths = run.setup(workload, seed, folder)
    docs = {p: json.loads((run.ROOT / p).read_text()) for p in paths}
    if workload == "chains":
        keep = [p for p in paths if len(docs[p]["edges"]) == 2][:2]
        keep += [p for p in paths if len(docs[p]["edges"]) == 3][:1]
    elif workload == "pure_powers":
        keep = [p for p in paths if docs[p]["n"] == 2][:1]
        keep += [p for p in paths if docs[p]["n"] == 4][:2]
    else:
        keep = [p for p in paths if len(docs[p]["gens"]) == 4][:2]
    return keep


def test_families_are_seeded_and_stratified():
    for workload, family in bench_workloads.FAMILIES.items():
        assert family(5) == family(5)
        assert family(5) != family(6)
    chains = [json.loads(doc) for doc in bench_workloads.chains_family(5)]
    assert len(chains) == bench_workloads.CHAINS
    cells = Counter((h["n"], len(h["edges"]), h["d"]) for h in chains)
    # Every feasible (n, s, d) of criterion 4 in CHAIN_CELLS, each about
    # equally often (8.5 times on average; the pool's draw moves it by a few).
    assert {(s, d) for _, s, d in cells} == bench_workloads.CHAIN_CELLS
    assert len(cells) == 12 and max(cells.values()) - min(cells.values()) <= 5
    powers = [json.loads(doc) for doc in bench_workloads.pure_powers_family(5)]
    assert len(powers) == bench_workloads.PURE_POWERS
    sizes = [p["n"] for p in powers]
    assert sizes == sorted(sizes) and set(sizes) == {2, 3, 4, 5}
    exponents = [sorted(max(g) for g in p["gens"]) for p in powers]
    assert max(sum(a) - a[-1] for a in exponents) <= bench_workloads.PURE_POWER_MAX_T
    pool = json.loads(bench_workloads.WIDE_POOL.read_text())
    index = {json.dumps(doc): i for i, doc in enumerate(pool)}
    picks = [index[doc.strip()] for doc in bench_workloads.wide_ideals_family(5)]
    assert [i * bench_workloads.WIDE_IDEALS // bench_workloads.WIDE_POOL_USED
            for i in picks] == list(range(bench_workloads.WIDE_IDEALS))


def test_scaling_uses_the_best_nearby_reference():
    result = object.__new__(run.Pass)
    result.seconds = [0.010] * 10
    result.reference = [0.001] + [0.002] * 10
    # Instances 0-3 have the fast first reference run among their neighbours.
    assert result.scaled() == [0.010 * run.REFERENCE_S / 0.001] * 4 + [
        0.010 * run.REFERENCE_S / 0.002
    ] * 6


def test_calibrated_pass_times_the_reference_around_every_instance(small_paths):
    paths = small_paths("chains")
    result = run.Pass(bench_workloads, "chains", paths, None, calibrate=True)
    assert len(result.reference) == len(paths) + 1
    assert all(x > 0 for x in result.scaled())


def test_gate_trips_on_corrupted_output(small_paths):
    path = small_paths("chains")[0]
    outcome = bench_workloads.run_chain(path)
    good = outcome.digest()
    assert bench_workloads.gate(outcome, good) is None

    corrupted = bench_workloads.Outcome(0.0, 0, outcome.text.replace('"t": ', '"t": 1'))
    assert "digest" in bench_workloads.gate(corrupted, good)
    crashed = bench_workloads.Outcome(0.0, 1, outcome.text)
    assert "exit code" in bench_workloads.gate(crashed, good)
    refuted = bench_workloads.Outcome(0.0, 0, outcome.text, ["regularity_le_t"])
    assert "claim fail" in bench_workloads.gate(refuted, good)


@pytest.mark.parametrize("workload", sorted(bench_workloads.FAMILIES))
def test_gate_catches_a_corrupted_program_in_a_pass(workload, small_paths, monkeypatch):
    paths = small_paths(workload)
    clean = run.Pass(bench_workloads, workload, paths, None)
    assert clean.failures == []
    assert run.Pass(bench_workloads, workload, paths, clean.digests).failures == []

    if workload == "pure_powers":
        original = hyperideal.ideals.MonomialIdeal.truncate
        monkeypatch.setattr(
            hyperideal.ideals.MonomialIdeal, "truncate", lambda self, t: original(self, t + 1)
        )
    else:
        original = hyperideal.checks.CheckReport.to_json_dict
        text = hyperideal.checks.CheckReport.to_text
        monkeypatch.setattr(
            hyperideal.checks.CheckReport, "to_json_dict",
            lambda self: {**original(self), "source": "elsewhere"},
        )
        monkeypatch.setattr(
            hyperideal.checks.CheckReport, "to_text", lambda self: text(self) + " "
        )
    broken = run.Pass(bench_workloads, workload, paths, clean.digests)
    assert len(broken.failures) == len(paths), broken.failures


@pytest.mark.parametrize("workload", sorted(bench_workloads.FAMILIES))
def test_trace_counts_repeat_exactly(workload, small_paths):
    paths = small_paths(workload)
    counts = []
    for _ in range(2):
        tracer = bench_trace.Tracer()
        with bench_trace.traced(tracer):
            result = run.Pass(bench_workloads, workload, paths, None)
        assert result.failures == []
        assert tracer.missing_spans(workload) == []
        values = tracer.metrics(overhead_ratio=1.0)
        assert [name for name, _ in bench_trace.LAYER_METRICS] == list(values)
        counts.append({name: values[name] for name in COUNT_METRICS})
    assert counts[0] == counts[1]
    assert counts[0]["betti.lattice_points"] > 0
    assert counts[0]["homology.rank_calls"] > 0
    assert counts[0]["ideals.contains_calls"] > 0


def test_tracing_restores_every_binding():
    originals = (
        hyperideal.checks.special_dual,
        hyperideal.cli.betti_table,
        hyperideal.betti.koszul_complex,
        hyperideal.ideals.MonomialIdeal.contains,
    )
    with bench_trace.traced(bench_trace.Tracer()):
        assert hyperideal.checks.special_dual is not originals[0]
        assert hyperideal.cli.betti_table is not originals[1]
    assert (
        hyperideal.checks.special_dual,
        hyperideal.cli.betti_table,
        hyperideal.betti.koszul_complex,
        hyperideal.ideals.MonomialIdeal.contains,
    ) == originals


def test_wiring_fails_loudly_on_a_missing_name(monkeypatch):
    monkeypatch.delattr(hyperideal.betti, "koszul_complex")
    with pytest.raises(bench_trace.WiringError, match="koszul_complex"):
        with bench_trace.traced(bench_trace.Tracer()):
            pass


def test_wiring_fails_loudly_on_an_unpatched_site(monkeypatch):
    monkeypatch.delattr(hyperideal.cli, "betti_table")
    original = hyperideal.checks.special_dual
    with pytest.raises(bench_trace.WiringError, match="cli.betti_table"):
        with bench_trace.traced(bench_trace.Tracer()):
            pass
    assert hyperideal.checks.special_dual is original


def test_cone_detection_matches_definition():
    from itertools import combinations

    from hyperideal.homology import SimplicialComplex, simplex_faces

    def brute(c):
        return bool(c.faces) and any(
            all(f | {v} in c.faces for f in c.faces) for v in c.vertices
        )

    triangle_boundary = [f for f in simplex_faces([1, 2, 3]) if len(f) < 3]
    two_edges = [frozenset(), *(frozenset({v}) for v in (1, 2, 3)),
                 frozenset({1, 2}), frozenset({2, 3})]
    cases = [
        SimplicialComplex.void([1, 2]),
        SimplicialComplex([1, 2], [frozenset()]),
        SimplicialComplex([1, 2, 3], simplex_faces([1, 2, 3])),
        SimplicialComplex([1, 2, 3], triangle_boundary),
        SimplicialComplex([1, 2, 3], two_edges),
        SimplicialComplex([1, 2, 3, 4], [frozenset(c) for k in range(3)
                                          for c in combinations([1, 2, 3, 4], k)]),
    ]
    assert [bench_trace._is_cone(c.faces) for c in cases] == [brute(c) for c in cases]
    assert [brute(c) for c in cases] == [False, False, True, False, True, False]


def test_recorded_digests_cover_default_and_held_out_seeds():
    with open(run.DIGESTS, encoding="utf-8") as fh:
        table = json.load(fh)
    for workload, family in bench_workloads.FAMILIES.items():
        for seed in (bench_workloads.DEFAULT_SEEDS[workload],
                     bench_workloads.HELD_OUT_SEEDS[workload]):
            assert len(table[workload][str(seed)]) == len(family(seed))
