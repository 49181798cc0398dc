"""End-to-end acceptance runs, one test per criterion.

Each test prints a single ``criterion N (label): PASS`` or ``FAIL`` line;
run ``pytest tests/test_acceptance.py -v -s`` to see all of them.  Random
families are seed-fixed so every run exercises the same instances.
"""

import io
import time
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path
from random import Random

from hyperideal.betti import betti_table, euler_consistency_check, regularity
from hyperideal.checks import FAIL, PASS, run_hypergraph_checks
from hyperideal.cli import main
from hyperideal.hypergraphs import (
    build_hypergraph,
    canonical_vertex_order,
    containment_vector,
    covered_restriction,
    inclusion_ideal,
    random_instance,
    special_dual,
)
from hyperideal.ideals import MonomialIdeal, alexander_dual
from hyperideal.stability import (
    is_stable,
    is_stable_exhaustive,
    pure_power_truncation_stable,
    q_bound,
    t_bound,
    truncation_stability,
)

ROOT = Path(__file__).resolve().parent.parent


def _criterion(number, label, body):
    try:
        body()
    except BaseException:
        print(f"criterion {number} ({label}): FAIL")
        raise
    print(f"criterion {number} ({label}): PASS")


def _chain_family(count, seed):
    """Seed-fixed nested hypergraphs with n in 4..7, s in 2..4, d in 1..2."""
    rng = Random(seed)
    out = []
    while len(out) < count:
        n = rng.randint(4, 7)
        s = rng.randint(2, 4)
        d = rng.choice((1, 2))
        if 2 + (s - 1) * d > n:
            continue
        out.append(random_instance(n, d, s, rng.randrange(2**32)))
    return out


def test_criterion_1_running_example_exact():
    def body():
        start = time.perf_counter()
        h = build_hypergraph(4, 1, [[1, 2], [1, 2, 3], [1, 2, 3, 4]])
        a = containment_vector(h)
        assert a == (3, 3, 2, 1)

        ideal = inclusion_ideal(h)
        assert {g.exponents for g in ideal.gens} == {
            (3, 3, 0, 0),
            (2, 2, 2, 0),
            (1, 1, 1, 1),
        }

        sd = special_dual(h)
        dual = sd.dual
        assert list(sd.comps) == [
            (1, 1, 0, 0),
            (2, 2, 1, 0),
            (3, 3, 2, 1),
        ]
        assert {g.exponents for g in dual.gens} == {
            (3, 0, 0, 0),
            (2, 0, 0, 1),
            (1, 0, 2, 0),
            (1, 0, 1, 1),
            (0, 3, 0, 0),
            (0, 2, 0, 1),
            (0, 1, 2, 0),
            (0, 1, 1, 1),
        }
        assert alexander_dual(dual, a) == ideal
        assert time.perf_counter() - start < 1.0

    _criterion(1, "running example exactness", body)


def test_criterion_2_truncation_counterexample():
    def body():
        ideal = MonomialIdeal(3, [(2, 0, 0), (0, 2, 0), (0, 0, 1)])

        cut = ideal.truncate(2)
        assert {g.exponents for g in cut.gens} == {
            (2, 0, 0),
            (0, 2, 0),
            (1, 0, 1),
            (0, 1, 1),
            (0, 0, 2),
        }

        report = truncation_stability(ideal, 2)
        assert not report.is_stable
        witness = report.witness
        assert witness.generator.exponents == (0, 1, 1)
        assert witness.shift_index == 1
        assert witness.shifted.exponents == (1, 1, 0)
        assert not ideal.contains(witness.shifted.exponents)

        direct = is_stable(cut)
        assert not direct.is_stable
        assert direct.witness == witness

        assert truncation_stability(ideal, 3).is_stable

    _criterion(2, "degree-two truncation counterexample", body)


def test_criterion_3_mixed_ideal_bounds_and_betti():
    def body():
        mixed = MonomialIdeal(
            3, [(2, 0, 0), (0, 2, 0), (1, 0, 1), (0, 1, 1)]
        )
        t = t_bound((2, 2, 1))
        q = q_bound(mixed)
        assert t == 3
        assert q == 4

        table = betti_table(mixed, 0)
        assert table.entries == {
            (0, (2, 0, 0)): 1,
            (0, (0, 2, 0)): 1,
            (0, (1, 0, 1)): 1,
            (0, (0, 1, 1)): 1,
            (1, (2, 2, 0)): 1,
            (1, (1, 1, 1)): 1,
            (1, (2, 0, 1)): 1,
            (1, (0, 2, 1)): 1,
            (2, (2, 2, 1)): 1,
        }
        assert table.totals() == (4, 4, 1)
        ok, mismatches = euler_consistency_check(mixed, table)
        assert ok and not mismatches

        reg = table.regularity()
        assert reg == 3
        assert reg == t
        assert reg < q

    _criterion(3, "mixed ideal bounds and Betti table", body)


def test_criterion_4_random_chain_suite():
    def body():
        start = time.perf_counter()
        required = (
            "generators_bounded_by_containment",
            "associated_primes_chain",
            "dual_truncation_stable",
            "regularity_le_t",
            "t_le_q",
            "regularity_lt_q",
        )
        for index, h in enumerate(_chain_family(200, 20260824)):
            report = run_hypergraph_checks(h, source=f"instance-{index}")
            assert report.counts()[FAIL] == 0, report.to_text()
            for name in required:
                assert report.claim(name).status == PASS, report.to_text()
        assert time.perf_counter() - start < 300.0

    _criterion(4, "200 random chains, all claims", body)


def test_criterion_5_pure_power_truncations():
    def body():
        rng = Random(8127555)
        oracle_checked = direct_checked = 0
        for _ in range(100):
            n = rng.randint(2, 6)
            a = sorted((rng.randint(1, n - 1) for _ in range(n)), reverse=True)
            assert pure_power_truncation_stable(a)

            t = t_bound(a)
            gens = [
                tuple(a[i] if j == i else 0 for j in range(n)) for i in range(n)
            ]
            ideal = MonomialIdeal(n, gens)
            report = truncation_stability(ideal, t)
            assert report.is_stable

            cut = ideal.truncate(t)
            assert report.ideal is cut  # listed once, by the report
            if len(cut.gens) <= 500:  # is_stable tests each member against every one
                assert report.witness == is_stable(cut).witness
                direct_checked += 1
            assert all(g.degree() == t for g in cut.gens)
            assert cut.deg() == t
            if len(cut.gens) <= 20:
                assert regularity(cut, 0) == t
                oracle_checked += 1
        assert oracle_checked >= 15 and direct_checked >= 70

    _criterion(5, "100 pure-power truncations at t", body)


def test_criterion_6_cross_validation():
    def body():
        for h in _chain_family(50, 714025):
            a = containment_vector(h)
            assert alexander_dual(special_dual(h).dual, a) == inclusion_ideal(h)

            canonical, _ = canonical_vertex_order(h)
            restricted = covered_restriction(canonical)
            dual_r = special_dual(restricted).dual
            rational = betti_table(dual_r, 0)
            mod_two = betti_table(dual_r, 2)
            assert rational.entries == mod_two.entries
            ok_rational, _ = euler_consistency_check(dual_r, rational)
            ok_mod_two, _ = euler_consistency_check(dual_r, mod_two)
            assert ok_rational and ok_mod_two

        rng = Random(424242)
        verdicts = {True: 0, False: 0}
        pool = []
        for _ in range(40):
            n = rng.randint(2, 4)
            wanted = rng.randint(1, 4)
            gens = set()
            while len(gens) < wanted:
                exps = tuple(rng.randint(0, 3) for _ in range(n))
                if any(exps):
                    gens.add(exps)
            pool.append(MonomialIdeal(n, sorted(gens)))
        for k in range(1, 6):
            pool.append(MonomialIdeal(2, [(k, 0)]))
            full = MonomialIdeal(2, [(1, 0), (0, 1)])
            pool.append(full.truncate(k))
        assert len(pool) == 50

        for ideal in pool:
            report = is_stable(ideal)
            bound = ideal.deg() + ideal.n
            assert report.is_stable == is_stable_exhaustive(ideal, bound)
            verdicts[report.is_stable] += 1
        assert verdicts[True] and verdicts[False]

    _criterion(6, "oracle cross-validation", body)


def _run_cli(argv):
    out = io.StringIO()
    err = io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        code = main(argv)
    return code, out.getvalue(), err.getvalue()


def test_criterion_7_cli_determinism(in_repo_root):
    def body():
        jobs = (
            ("check_chain_n4_s3.txt", ["check", "fixtures/chain_n4_s3.json"]),
            ("check_chain_n3_s2.txt", ["check", "fixtures/chain_n3_s2.json"]),
            (
                "bench_n4to7_count30_seed7.csv",
                [
                    "bench",
                    "--n-range",
                    "4:7",
                    "--s-range",
                    "2:4",
                    "--d-set",
                    "1,2",
                    "--count",
                    "30",
                    "--seed",
                    "7",
                ],
            ),
        )
        for golden_name, argv in jobs:
            golden = (ROOT / "fixtures" / "golden" / golden_name).read_text()
            first = _run_cli(argv)
            second = _run_cli(argv)
            assert first == second
            code, text, err = first
            assert code == 0
            assert err == ""
            assert text == golden

    _criterion(7, "command line determinism", body)
