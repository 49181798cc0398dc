import functools
import json
import random
import tracemalloc

import pytest

from hyperideal import checks, cli, formats, hypergraphs, ideals
from hyperideal.betti import betti_table
from hyperideal.cli import main
from hyperideal.formats import load_path
from hyperideal.hypergraphs import canonical_vertex_order, covered_restriction, special_dual
from hyperideal.ideals import MonomialIdeal

H0 = "fixtures/chain_n4_s3.json"
H1 = "fixtures/chain_n3_s2.json"
MIXED = "fixtures/mixed_ideal_n3.json"

DUAL_GENS_H0 = [
    "x1^3",
    "x2^3",
    "x1*x3^2",
    "x2*x3^2",
    "x1^2*x4",
    "x2^2*x4",
    "x1*x3*x4",
    "x2*x3*x4",
]


def run(capsys, argv):
    code = main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_dual_chain4_values(in_repo_root, capsys):
    code, out, _ = run(capsys, ["dual", H0])
    assert code == 0
    assert "a=[3,3,2,1]" in out
    for gen in DUAL_GENS_H0:
        assert gen in out


def test_dual_chain3_bounds(in_repo_root, capsys):
    code, out, _ = run(capsys, ["dual", H1])
    assert code == 0
    assert "t=3 q=4" in out


def test_dual_rejects_ideal_input(in_repo_root, capsys):
    code, _, err = run(capsys, ["dual", MIXED])
    assert code == 2
    assert "hypergraph" in err


def test_dual_rejects_malformed_edges(in_repo_root, tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text('{"n": 2, "d": 1, "edges": [[1]]}')
    code, _, err = run(capsys, ["dual", str(bad)])
    assert code == 2
    assert "at least 2" in err


def test_check_matches_goldens(in_repo_root, capsys):
    for fixture, golden in [
        (H0, "fixtures/golden/check_chain_n4_s3.txt"),
        (H1, "fixtures/golden/check_chain_n3_s2.txt"),
    ]:
        code, out, _ = run(capsys, ["check", fixture])
        assert code == 0
        assert out == (in_repo_root / golden).read_text()


def test_check_json_golden(in_repo_root, capsys):
    code, out, _ = run(capsys, ["check", H1, "--format", "json"])
    assert code == 0
    assert out == (in_repo_root / "fixtures/golden/check_chain_n3_s2.json").read_text()
    data = json.loads(out)
    assert data["exit"] == 0
    assert data["values"]["reg"] == 3


@pytest.mark.parametrize(
    "argv, golden",
    [
        (["check", MIXED, "--format", "json"], "check_mixed_ideal_n3.json"),
        (["check", H0, "--format", "json"], "check_chain_n4_s3.json"),
        (["gen", "--n", "7", "--s", "3", "--d", "2", "--seed", "1"], "gen_n7_s3_d2_seed1.json"),
    ],
)
def test_json_goldens(in_repo_root, capsys, argv, golden):
    # Bare-ideal reports (stable, witness, gens), chain reports with a list
    # of ints, and generated inputs: no digest covers the bytes of the last.
    code, out, err = run(capsys, argv)
    assert (code, err) == (0, "")
    assert out == (in_repo_root / "fixtures/golden" / golden).read_text()
    assert out == json.dumps(json.loads(out), indent=2) + "\n"


def test_skipped_regularity_is_a_json_null(in_repo_root, capsys):
    code, out, _ = run(capsys, ["check", H1, "--skip-reg", "--format", "json"])
    assert code == 3
    assert out == (in_repo_root / "fixtures/golden/check_chain_n3_s2_skip_reg.json").read_text()
    assert json.loads(out)["values"]["reg"] is None


def test_check_ideal_input_has_na_claims(in_repo_root, capsys):
    code, out, _ = run(capsys, ["check", MIXED])
    assert code == 0
    assert "kind: ideal" in out
    assert "n/a (requires a hypergraph instance)" in out


def test_check_skip_reg_exits_three(in_repo_root, capsys):
    code, out, _ = run(capsys, ["check", H1, "--skip-reg"])
    assert code == 3
    assert "reg=skipped" in out


def test_check_bad_char(in_repo_root, capsys):
    code, _, err = run(capsys, ["check", H1, "--char", "4"])
    assert code == 2
    assert "prime" in err


def test_char_beyond_primality_limit_refused(in_repo_root, capsys):
    code, out, err = run(capsys, ["betti", MIXED, "--char", str(10**400)])
    assert code == 2
    assert out == ""
    assert err.startswith("error: ") and err.count("\n") == 1
    assert "3317044064679887385961981" in err


def test_large_prime_char_accepted(in_repo_root, capsys):
    code, out, _ = run(capsys, ["betti", MIXED, "--char", "1000000000000000003"])
    assert code == 0
    assert out.endswith("reg=3 (char 1000000000000000003)\n")
    _, char_zero, _ = run(capsys, ["betti", MIXED])
    assert out.splitlines()[:-1] == char_zero.splitlines()[:-1]


def test_betti_golden(in_repo_root, capsys):
    code, out, _ = run(capsys, ["betti", MIXED])
    assert code == 0
    assert out == (in_repo_root / "fixtures/golden/betti_mixed_ideal_n3.txt").read_text()
    assert "totals=(4,4,1)" in out
    assert "reg=3 (char 0)" in out


def test_betti_on_hypergraph_uses_dual(in_repo_root, capsys):
    code_h, out_h, _ = run(capsys, ["betti", H1])
    code_i, out_i, _ = run(capsys, ["betti", MIXED])
    assert code_h == code_i == 0
    assert out_h == out_i


def test_betti_and_reg_on_hypergraph_use_restricted_dual(tmp_path, capsys):
    padded = tmp_path / "padded.json"
    padded.write_text('{"n": 5, "d": 1, "edges": [[2, 4], [2, 3, 4]]}')
    h = load_path(str(padded))
    canonical, _ = canonical_vertex_order(h)
    table = betti_table(special_dual(covered_restriction(canonical)).dual)
    assert table.render() != betti_table(special_dual(h).dual).render()
    code, out, _ = run(capsys, ["betti", str(padded)])
    assert code == 0
    assert out == table.render() + "\n"
    code, out, _ = run(capsys, ["reg", str(padded)])
    assert code == 0
    assert out == f"reg={table.regularity()} (char 0)\n"


@pytest.mark.parametrize("command", ["check", "dual", "betti"])
def test_special_dual_computed_once_per_hypergraph(tmp_path, capsys, monkeypatch, command):
    padded = tmp_path / "padded.json"
    padded.write_text('{"n": 5, "d": 1, "edges": [[2, 4], [2, 3, 4]]}')
    calls = []

    def counted(h):
        calls.append(h)
        return special_dual(h)

    for module in (hypergraphs, checks, cli):
        monkeypatch.setattr(module, "special_dual", counted)
    code, _, _ = run(capsys, [command, str(padded)])
    assert code == 0
    assert len(calls) == 1


@pytest.mark.parametrize("command", ["check", "dual", "betti", "reg"])
def test_containment_vector_and_inclusion_ideal_built_once(tmp_path, capsys, monkeypatch, command):
    # special_dual builds both and every command reads them off its record.
    padded = tmp_path / "padded.json"
    padded.write_text('{"n": 5, "d": 1, "edges": [[2, 4], [2, 3, 4]]}')
    calls = []
    for name in ("containment_vector", "inclusion_ideal"):
        original = getattr(hypergraphs, name)

        def counted(h, name=name, original=original):
            calls.append(name)
            return original(h)

        for module in (hypergraphs, checks, cli):
            if getattr(module, name, None) is original:
                monkeypatch.setattr(module, name, counted)
    code, _, _ = run(capsys, [command, str(padded)])
    assert code == 0
    assert sorted(calls) == ["containment_vector", "inclusion_ideal"]


def test_reg_command(in_repo_root, capsys):
    code, out, _ = run(capsys, ["reg", H1])
    assert code == 0
    assert out == "reg=3 (char 0)\n"


def test_reg_on_four_disjoint_quintics(tmp_path, capsys):
    # x1*...*x5 + ... + x16*...*x20: K^b at the top point has 4 facets of
    # 15 vertices each, so its homology is taken on the 4-vertex nerve.
    # A complete intersection: reg = 4*5 - (4 - 1).
    instance = tmp_path / "quintics.json"
    gens = [[int(5 * k <= i < 5 * k + 5) for i in range(20)] for k in range(4)]
    instance.write_text(json.dumps({"n": 20, "gens": gens}))
    code, out, err = run(capsys, ["reg", str(instance)])
    assert (code, out, err) == (0, "reg=17 (char 0)\n", "")


def test_reg_on_star_plus_edge(tmp_path, capsys):
    # 17 generators x1*...*x20 / (x1*x_i), i = 2..18, plus x1*...*x18. K^b
    # at the top point is 17 edges at vertex 1 plus the edge {19, 20}: 18
    # facets on 20 vertices, but the star of vertex 1 holds 17 facet labels,
    # so its homology is taken on the 39 faces of the graph, not on the
    # 2^17 faces of the nerve.
    gens = [[int(v not in (1, i)) for v in range(1, 21)] for i in range(2, 19)]
    gens.append([int(v not in (19, 20)) for v in range(1, 21)])
    instance = tmp_path / "star_plus_edge.json"
    instance.write_text(json.dumps({"n": 20, "gens": gens}))
    code, out, err = run(capsys, ["reg", str(instance)])
    assert (code, out, err) == (0, "reg=19 (char 0)\n", "")


def test_reg_on_wide_principal_ideal(tmp_path, capsys):
    # x1*...*x21: its one lattice point has the irrelevant complex {∅} on
    # 21 vertices, which lists its single face instead of being refused.
    instance = tmp_path / "principal.json"
    instance.write_text(json.dumps({"n": 21, "gens": [[1] * 21]}))
    code, out, err = run(capsys, ["reg", str(instance)])
    assert (code, out, err) == (0, "reg=21 (char 0)\n", "")
    code, out, _ = run(capsys, ["check", str(instance)])
    assert code == 0
    assert "euler_consistency: pass" in out


def test_dual_golden(in_repo_root, capsys):
    code, out, _ = run(capsys, ["dual", H0])
    assert code == 0
    assert out == (in_repo_root / "fixtures/golden/dual_chain_n4_s3.txt").read_text()


def test_bench_golden_and_determinism(in_repo_root, capsys):
    argv = [
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
    ]
    code1, out1, err1 = run(capsys, argv)
    code2, out2, _ = run(capsys, argv)
    assert code1 == code2 == 0
    assert err1 == ""
    assert out1 == out2
    golden = (in_repo_root / "fixtures/golden/bench_n4to7_count30_seed7.csv").read_text()
    assert out1 == golden


def wrong_double_dual(monkeypatch):
    # The double dual comes back as the principal ideal of the cap.
    monkeypatch.setattr(checks, "alexander_dual", lambda ideal, c: MonomialIdeal(len(c), [c]))


def test_bench_counts_every_failed_claim(in_repo_root, capsys, monkeypatch):
    # A wrong double dual fails dual_involution, which no CSV column shows.
    argv = ["bench", "--count", "3", "--seed", "7"]
    code, expected_csv, err = run(capsys, argv)
    assert (code, err) == (0, "")
    wrong_double_dual(monkeypatch)
    code, out, err = run(capsys, argv)
    assert code == 1
    assert out == expected_csv
    failures = [json.loads(line) for line in err.splitlines()]
    assert [f["instance_id"] for f in failures] == [0, 1, 2]
    for failure in failures:
        assert list(failure) == ["instance_id", "n", "s", "d", "seed", "failed"]
        assert failure["failed"] == ["dual_involution"]


def test_check_exits_one_on_a_failed_claim(in_repo_root, capsys, monkeypatch):
    golden = (in_repo_root / "fixtures/golden/check_chain_n3_s2.txt").read_text()
    wrong_double_dual(monkeypatch)
    code, out, err = run(capsys, ["check", H1])
    assert (code, err) == (1, "")
    assert out == golden.replace(
        "dual_involution: pass (double dual returns the inclusion ideal)",
        "dual_involution: fail (double dual differs from the inclusion ideal)",
    ).replace("result: 11 pass, 0 fail,", "result: 10 pass, 1 fail,")


def test_check_json_exits_one_on_a_failed_claim(in_repo_root, capsys, monkeypatch):
    expected = json.loads((in_repo_root / "fixtures/golden/check_chain_n3_s2.json").read_text())
    (claim,) = [c for c in expected["claims"] if c["name"] == "dual_involution"]
    claim.update(status="fail", detail="double dual differs from the inclusion ideal")
    expected["exit"] = 1
    wrong_double_dual(monkeypatch)
    code, out, err = run(capsys, ["check", H1, "--format", "json"])
    assert (code, err) == (1, "")
    assert json.loads(out) == expected
    assert '\n  "exit": 1\n' in out


def test_bench_writes_false_for_a_failed_column_claim(in_repo_root, capsys, monkeypatch):
    # No associated prime survives the filter, so associated_primes_chain
    # fails and its ass_chain cell reads false.
    argv = ["bench", "--count", "3", "--seed", "7"]
    _, expected_csv, _ = run(capsys, argv)
    monkeypatch.setattr(checks, "irredundant_filter", lambda comps: [])
    code, out, err = run(capsys, argv)
    assert code == 1
    lines = expected_csv.splitlines()
    assert len(lines) == 5 and all(row.endswith(",true") for row in lines[2:])
    assert out.splitlines() == lines[:2] + [row[: -len("true")] + "false" for row in lines[2:]]
    failures = [json.loads(line) for line in err.splitlines()]
    assert [f["failed"] for f in failures] == [["associated_primes_chain"]] * 3


def test_bench_writes_a_blank_row_for_a_guarded_instance(in_repo_root, capsys, monkeypatch):
    # Instances 1 and 2 meet the truncation guard (t=36 in 12 variables).
    argv = ["bench", "--n-range", "14:14", "--s-range", "2:7", "--d-set", "2"]
    code, out, err = run(capsys, [*argv, "--count", "3", "--seed", "3"])
    assert code == 3
    lines = out.splitlines()
    assert len(lines) == 5
    assert lines[2:] == [
        "0,14,3,2,9,13,3,6,7,true,true,true,true",
        "1,14,6,2,,,,,,,,,",
        "2,14,6,2,,,,,,,,,",
    ]
    records = [json.loads(line) for line in err.splitlines()]
    assert [r["instance_id"] for r in records] == [1, 2]
    for record in records:
        assert list(record) == ["instance_id", "n", "s", "d", "seed", "guard"]
        assert record["guard"].startswith("truncation at t=36 in n=12 variables:")
    # A claim failure outranks a guard.
    wrong_double_dual(monkeypatch)
    code, failing_out, err = run(capsys, [*argv, "--count", "3", "--seed", "3"])
    assert code == 1
    assert failing_out == out
    records = [json.loads(line) for line in err.splitlines()]
    assert [(r["instance_id"], "failed" in r, "guard" in r) for r in records] == [
        (0, True, False),
        (1, False, True),
        (2, False, True),
    ]


def test_bench_header_only(in_repo_root, capsys):
    code, out, _ = run(capsys, ["bench", "--count", "0"])
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "# hyperideal bench schema v1"
    assert lines[1].startswith("instance_id,n,s,d,t,q,deg,m,reg,")
    assert len(lines) == 2


def test_bench_infeasible_ranges(in_repo_root, capsys):
    code, _, err = run(
        capsys, ["bench", "--n-range", "3:3", "--s-range", "4:4", "--d-set", "2"]
    )
    assert code == 2
    assert "feasible" in err


def test_bench_bad_range_spec(in_repo_root, capsys):
    assert run(capsys, ["bench", "--n-range", "7:4"]) == (2, "", "error: --n-range is empty: 7:4\n")


@pytest.mark.parametrize(
    "flags, message",
    [
        (["--n-range", "a:b"], "--n-range must look like A:B or a single integer, got 'a:b'"),
        (["--d-set", "x"], "--d-set must be comma-separated integers, got 'x'"),
        (["--d-set", ","], "--d-set is empty"),
        (["--count", "-1"], "--count must be nonnegative"),
    ],
)
def test_bench_argument_errors(in_repo_root, capsys, flags, message):
    assert run(capsys, ["bench", *flags]) == (2, "", f"error: {message}\n")


def test_bench_single_integer_ranges(in_repo_root, capsys):
    argv = ["bench", "--n-range", "5", "--s-range", "2", "--d-set", "1", "--count", "1"]
    code, out, err = run(capsys, argv)
    assert (code, err) == (0, "")
    assert out.splitlines()[2:] == ["0,5,2,1,3,4,2,3,3,true,true,true,true"]


def test_gen_deterministic_and_loadable(in_repo_root, tmp_path, capsys):
    out_file = tmp_path / "h.json"
    code, _, _ = run(
        capsys, ["gen", "--n", "6", "--s", "3", "--d", "1", "--seed", "5", "--out", str(out_file)]
    )
    assert code == 0
    first = out_file.read_text()
    code, stdout, _ = run(capsys, ["gen", "--n", "6", "--s", "3", "--d", "1", "--seed", "5"])
    assert code == 0
    assert stdout == first
    code, check_out, _ = run(capsys, ["check", str(out_file)])
    assert code == 0
    assert "kind: hypergraph" in check_out


@pytest.mark.parametrize(
    "shape, flags",
    [
        # The dual's truncation at t=49 would list C(62, 13) ~ 8.3e12
        # monomials, the one at t=36 in 9 variables C(44, 8) ~ 1.8e8; the
        # guard stops the first truncation above the limit.
        (["--n", "14", "--s", "7", "--d", "2"], ["--skip-reg"]),
        (["--n", "9", "--s", "8", "--d", "1"], []),
    ],
)
def test_check_refuses_large_truncations(in_repo_root, tmp_path, capsys, shape, flags):
    instance = tmp_path / "h.json"
    assert run(capsys, ["gen", *shape, "--seed", "1", "--out", str(instance)])[0] == 0
    code, out, err = run(capsys, ["check", str(instance), *flags])
    assert code == 3
    assert out == ""
    # The guard meets the dual's truncation, the largest, before any other.
    dual_truncation = {"14": "t=49 in n=14", "9": "t=36 in n=9"}[shape[1]]
    assert err.startswith(f"guard: truncation at {dual_truncation} variables:")
    assert err.count("\n") == 1
    assert "desk-scale limit 1000000" in err


def test_check_refuses_disjoint_quadrics(tmp_path, capsys):
    # x1*x2, x3*x4, ..., x35*x36: the dual has 2^18 generators, and the
    # fold's running intersection passes the limit at the 17th component.
    k = 18
    instance = tmp_path / "quadrics.json"
    gens = [[int(i // 2 == j) for i in range(2 * k)] for j in range(k)]
    instance.write_text(json.dumps({"n": 2 * k, "gens": gens}))
    code, out, err = run(capsys, ["check", "--skip-reg", str(instance)])
    assert code == 3
    assert out == ""
    assert err == (
        "guard: intersection of 18 irreducible components: 111112 generators of 36 "
        "entries at component 17 exceed the desk-scale limit 4000000 entries\n"
    )


def test_dual_refuses_a_crawling_fold(tmp_path, capsys):
    # The d=2 chain with s=10 has 2*3^9 = 39,366 dual generators of 20
    # entries, under the size limit; its ninth fold step would scan about
    # 1.1e8 carriers of 20 coordinates, 2.2e9 comparisons.
    instance = tmp_path / "h.json"
    argv = ["gen", "--n", "20", "--s", "10", "--d", "2", "--seed", "1", "--out", str(instance)]
    assert run(capsys, argv)[0] == 0
    code, out, err = run(capsys, ["dual", str(instance)])
    assert code == 3
    assert out == ""
    assert err == (
        "guard: intersection of 10 irreducible components: 1.1e+08 carrier scans of "
        "20 coordinates at component 9 exceed the desk-scale limit 400000000 comparisons\n"
    )


@pytest.mark.parametrize("command", [["dual"], ["check", "--skip-reg"], ["reg"]])
def test_fold_scan_guard_refuses_every_command(tmp_path, capsys, monkeypatch, command):
    # The d=2 chain with s=7 estimates 96,228 scans of 14 coordinates
    # (1,347,192 comparisons) before its sixth step and 1,023,516
    # (14,329,224) before its seventh.
    instance = tmp_path / "h.json"
    argv = ["gen", "--n", "14", "--s", "7", "--d", "2", "--seed", "1", "--out", str(instance)]
    assert run(capsys, argv)[0] == 0
    monkeypatch.setattr(ideals, "MAX_FOLD_COMPARISONS", 1_400_000)
    code, out, err = run(capsys, [*command, str(instance)])
    assert code == 3
    assert out == ""
    assert err == (
        "guard: intersection of 7 irreducible components: 1e+06 carrier scans of "
        "14 coordinates at component 7 exceed the desk-scale limit 1400000 comparisons\n"
    )


@pytest.mark.parametrize(
    "gens, detail",
    [
        # 21 variables: the Koszul complex at the lcm exceeds the ground-set limit.
        (
            [[1] * 11 + [0] * 10, [0] * 11 + [1] * 10],
            "ground set of size 21 exceeds the desk-scale limit 20",
        ),
        # Every quadric in 6 variables: 21 generators exceed the lattice guard.
        (
            [[int(i == k) + int(j == k) for k in range(6)] for i in range(6) for j in range(i, 6)],
            "21 generators exceed the desk-scale limit 20",
        ),
        # (x_1, ..., x_20): the fold passes 700 points at its tenth generator.
        (
            [[int(i == k) for k in range(20)] for i in range(20)],
            "1023 lcm lattice points after 10 of 20 generators exceed the desk-scale limit 700",
        ),
    ],
    ids=["ground_set", "generators", "lattice_points"],
)
def test_check_reports_oracle_guards_as_skipped(tmp_path, capsys, gens, detail):
    instance = tmp_path / "ideal.json"
    instance.write_text(json.dumps({"n": len(gens[0]), "gens": gens}))
    code, out, err = run(capsys, ["check", str(instance)])
    assert code == 3
    assert err == ""
    assert out.startswith(f"check: {instance}\nkind: ideal\n")
    assert "reg=skipped (char 0)" in out
    assert f"euler_consistency: skipped ({detail})" in out
    assert out.endswith("result: 1 pass, 0 fail, 9 n/a, 1 skipped\n")
    code, _, err = run(capsys, ["reg", str(instance)])
    assert code == 3
    assert err == f"guard: {detail}\n"


def test_parser_built_once_across_calls(in_repo_root, capsys, monkeypatch):
    build = cli.build_parser.__wrapped__
    builds = []

    @functools.cache
    def counted():
        builds.append(1)
        return build()

    monkeypatch.setattr(cli, "build_parser", counted)
    for argv, golden in [
        (["check", H0], "check_chain_n4_s3.txt"),
        (["check", H1], "check_chain_n3_s2.txt"),
        (["betti", MIXED], "betti_mixed_ideal_n3.txt"),
    ]:
        code, out, _ = run(capsys, argv)
        assert code == 0
        assert out == (in_repo_root / "fixtures/golden" / golden).read_text()
    assert builds == [1]


@pytest.mark.parametrize(
    "argv",
    [
        ["gen", "--n", "5", "--s", "2", "--d", "-1"],
        ["gen", "--n", "5", "--s", "2", "--d", "0"],
        ["bench", "--d-set", "-1"],
    ],
)
def test_nonpositive_increment_is_an_input_error(in_repo_root, capsys, argv):
    code, out, err = run(capsys, argv)
    assert code == 2
    assert out == ""
    assert err == "error: increment d must be a positive integer\n"


def run_small(capsys, argv):
    # A guard that fires before any allocation of the refused size keeps
    # the call's peak far below the 100 MB a range of 10^7 vertices takes.
    tracemalloc.start()
    try:
        result = run(capsys, argv)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2**20
    return result


def test_gen_refuses_a_huge_vertex_count(in_repo_root, capsys):
    code, out, err = run_small(capsys, ["gen", "--n", "10000000", "--s", "2", "--d", "1"])
    assert (code, out) == (3, "")
    assert err == "guard: n=10000000 vertices exceed the desk-scale limit 100000\n"


@pytest.mark.parametrize("n, s, incidences", [(5000, 4999, 12502499), (100000, 99999, 5000049999)])
def test_gen_refuses_a_chain_of_too_many_incidences(in_repo_root, capsys, n, s, incidences):
    code, out, err = run_small(capsys, ["gen", "--n", str(n), "--s", str(s), "--d", "1"])
    assert (code, out) == (3, "")
    assert err == (
        f"guard: n={n}, s={s}, d=1: 2s + d*s*(s-1)/2 = {incidences} vertex incidences "
        "exceed the desk-scale limit 1000000\n"
    )


@pytest.mark.parametrize(
    "n, command", [(100000, ["dual"]), (100000, ["check"]), (10000, ["dual"])]
)
def test_special_dual_count_prices_every_entry(tmp_path, capsys, monkeypatch, n, command):
    # The d = 1 chain with s = 10 has 2 * 2^9 = 1,024 dual generators, far
    # under any generator count, but of n entries each: 1.0e8 and 1.0e7.
    # The count refuses before the inclusion ideal is built.
    instance = tmp_path / "h.json"
    argv = ["gen", "--n", str(n), "--s", "10", "--d", "1", "--out", str(instance)]
    assert run(capsys, argv)[0] == 0

    def refuse(*args):
        raise AssertionError("built the inclusion ideal before the count")

    monkeypatch.setattr(hypergraphs, "inclusion_ideal", refuse)
    code, out, err = run(capsys, [*command, str(instance)])
    assert (code, out) == (3, "")
    assert err == (
        "guard: special dual of a chain with |E_1|=2, d=1, s=10: |E_1|*(d+1)^(s-1) = "
        f"2*2^9 generators of n={n} entries exceed the desk-scale limit 4000000 entries\n"
    )


def test_check_refuses_a_fold_over_long_generators(tmp_path, capsys):
    # Three random 0/1 generators in 2,000 variables: after one component
    # the fold holds about 1,000 generators, and its second step would make
    # 4.8e5 carrier scans of 2,000 coordinates each.  Refused before that
    # step, with no generator of it built.
    rng = random.Random(1)
    gens = [[rng.randint(0, 1) for _ in range(2000)] for _ in range(3)]
    instance = tmp_path / "random01.json"
    instance.write_text(json.dumps({"n": 2000, "gens": gens}))
    code, out, err = run(capsys, ["check", str(instance)])
    assert (code, out) == (3, "")
    assert err == (
        "guard: intersection of 3 irreducible components: 4.8e+05 carrier scans of "
        "2000 coordinates at component 2 exceed the desk-scale limit 400000000 comparisons\n"
    )


@pytest.mark.parametrize("kind", ["device", "sparse"])
def test_inputs_past_the_byte_limit_are_guarded(tmp_path, capsys, kind):
    # /dev/zero never ends, and a sparse file claims bytes it never wrote:
    # both are refused after a read of MAX_INPUT_BYTES + 1 bytes.
    path = "/dev/zero"
    if kind == "sparse":
        path = str(tmp_path / "sparse.json")
        with open(path, "wb") as fh:
            fh.truncate(formats.MAX_INPUT_BYTES + 1)
    code, out, err = run(capsys, ["check", path])
    assert (code, out) == (3, "")
    assert err == f"guard: {path}: input exceeds the desk-scale limit 16000000 bytes\n"


def test_largest_generated_chain_is_read_back(tmp_path, capsys):
    # The d = 1 chain with s = 1412 holds 998,990 incidences, the most the
    # incidence guard lets through at n = 10^5, and its file stays under the
    # byte limit: `check` reads it and meets the special dual's count.
    instance = tmp_path / "h.json"
    argv = ["gen", "--n", "100000", "--s", "1412", "--d", "1", "--out", str(instance)]
    assert run(capsys, argv)[0] == 0
    assert instance.stat().st_size < formats.MAX_INPUT_BYTES
    code, out, err = run(capsys, ["check", str(instance)])
    assert (code, out) == (3, "")
    assert err.startswith("guard: special dual of a chain with |E_1|=2, d=1, s=1412: ")


@pytest.mark.parametrize("command", [["check"], ["dual"], ["reg"]])
def test_special_dual_count_refuses_every_command(tmp_path, capsys, command):
    # s = 18: the dual would hold 2 * 2^17 = 262,144 generators of 19 entries.
    instance = tmp_path / "h.json"
    assert run(capsys, ["gen", "--n", "19", "--s", "18", "--d", "1", "--out", str(instance)])[0] == 0
    code, out, err = run(capsys, [*command, str(instance)])
    assert (code, out) == (3, "")
    assert err == (
        "guard: special dual of a chain with |E_1|=2, d=1, s=18: |E_1|*(d+1)^(s-1) = "
        "2*2^17 generators of n=19 entries exceed the desk-scale limit 4000000 entries\n"
    )


def test_vertex_guard_covers_hypergraph_files(tmp_path, capsys, monkeypatch):
    instance = tmp_path / "chain.json"
    instance.write_text('{"n": 6, "d": 1, "edges": [[1, 2], [1, 2, 3]]}')
    monkeypatch.setattr(ideals, "MAX_VERTICES", 5)
    for command in (["check"], ["dual"], ["reg"]):
        code, out, err = run(capsys, [*command, str(instance)])
        assert (code, out) == (3, "")
        assert err == "guard: n=6 vertices exceed the desk-scale limit 5\n"


@pytest.mark.parametrize("command", ["check", "betti", "reg"])
def test_vertex_guard_covers_ideal_files(tmp_path, capsys, command):
    # One generator in 100,001 variables: refused before its row is read.
    instance = tmp_path / "wide.json"
    instance.write_text(json.dumps({"n": 100001, "gens": [[1] + [0] * 100000]}))
    code, out, err = run(capsys, [command, str(instance)])
    assert (code, out) == (3, "")
    assert err == "guard: n=100001 variables exceed the desk-scale limit 100000\n"


def test_minimize_guard_covers_ideal_files(tmp_path, capsys, monkeypatch):
    # 1,000 random 0/1 rows in 1,000 variables: about 4.9e5 tests of a row
    # against rows of lower degree, 1,000 coordinates each, refused before
    # the first test.
    rng = random.Random(1)
    gens = [[rng.randint(0, 1) for _ in range(1000)] for _ in range(1000)]
    instance = tmp_path / "rows.json"
    instance.write_text(json.dumps({"n": 1000, "gens": gens}, separators=(",", ":")))

    def refuse(*args):
        raise AssertionError("tested divisibility before the estimate")

    monkeypatch.setattr(ideals, "divides_any", refuse)
    code, out, err = run(capsys, ["check", str(instance)])
    assert (code, out) == (3, "")
    assert err == (
        "guard: minimizing 1000 distinct rows: 4.9e+05 divisibility tests of 1000 "
        "coordinates exceed the desk-scale limit 400000000 comparisons\n"
    )


@pytest.mark.parametrize(
    "ranges, cells",
    [
        (["--s-range", "2:100000000"], 4 * 99999999 * 2),
        (["--n-range", "4:100000000", "--s-range", "2:3"], 99999997 * 2 * 2),
    ],
)
def test_bench_refuses_a_huge_enumeration(in_repo_root, capsys, ranges, cells):
    code, out, err = run_small(capsys, ["bench", *ranges, "--count", "1"])
    assert (code, out) == (3, "")
    assert err == (
        f"guard: {cells} (n, s, d) cells in the given ranges exceed the desk-scale "
        "limit 100000\n"
    )


def test_bench_cell_guard_at_its_limit(in_repo_root, capsys, monkeypatch):
    # The golden sweep lists 4 * 3 * 2 = 24 cells.
    argv = ["bench", "--count", "30", "--seed", "7"]
    golden = (in_repo_root / "fixtures/golden/bench_n4to7_count30_seed7.csv").read_text()
    monkeypatch.setattr(cli, "MAX_BENCH_CELLS", 24)
    assert run(capsys, argv) == (0, golden, "")
    monkeypatch.setattr(cli, "MAX_BENCH_CELLS", 23)
    assert run(capsys, argv) == (
        3,
        "",
        "guard: 24 (n, s, d) cells in the given ranges exceed the desk-scale limit 23\n",
    )


def test_bench_refuses_a_huge_count(in_repo_root, capsys):
    code, out, err = run_small(capsys, ["bench", "--count", "100000000"])
    assert (code, out) == (3, "")
    assert err == "guard: --count 100000000 exceeds the desk-scale limit 10000\n"


def test_bench_count_guard_at_its_limit(in_repo_root, capsys, monkeypatch):
    argv = ["bench", "--count", "30", "--seed", "7"]
    golden = (in_repo_root / "fixtures/golden/bench_n4to7_count30_seed7.csv").read_text()
    monkeypatch.setattr(cli, "MAX_BENCH_INSTANCES", 30)
    assert run(capsys, argv) == (0, golden, "")
    monkeypatch.setattr(cli, "MAX_BENCH_INSTANCES", 29)
    assert run(capsys, argv) == (3, "", "guard: --count 30 exceeds the desk-scale limit 29\n")


DEEP = "[" * 1200 + "]" * 1200


@pytest.mark.parametrize(
    "content",
    [
        b'{"n": 3, "d": 1, "edges": [[1, true], [1, 2, 3]]}',
        b'{"n": 3, "d": 1, "edges": [[1, 2.0], [1, 2, 3]]}',
        b'{"n": 3, "d": 1, "edges": [[1, [2]], [1, 2, 3]]}',
        b'{"n": 3, "d": 1, "edges": [[1, {}], [1, 2, 3]]}',
        b'{"n": 1e400, "gens": [[1]]}',
        b'{"n": "3", "gens": [[1, 0, 0]]}',
        b'{"n": true, "gens": [[1]]}',
        b'{"n": 1, "gens": [[1]]} \xff',
        DEEP.encode(),
        b'{"n": 1, "gens": [' + DEEP.encode() + b"]}",
        b'{"n": 3, "d": 1, "edges": [[1, ' + DEEP.encode() + b"]]}",
        b'{"n": 2, "gens": []}',
        b'{"n": 2, "gens": [[0, 0]]}',
        b'{"n": 3, "gens": [[1, 1, 0]], "edges": [[1, 2]]}',
    ],
    ids=[
        "bool_vertex",
        "float_vertex",
        "list_vertex",
        "dict_vertex",
        "n_overflow",
        "n_string",
        "n_bool",
        "not_utf8",
        "deep_top",
        "deep_row",
        "deep_edge",
        "zero_ideal",
        "unit_ideal",
        "both_keys",
    ],
)
def test_malformed_file_is_one_error_line(tmp_path, capsys, content):
    instance = tmp_path / "bad.json"
    instance.write_bytes(content)
    for command in ("check", "dual", "betti", "reg"):
        code, out, err = run(capsys, [command, str(instance)])
        assert (code, out) == (2, "")
        assert err.startswith(f"error: {instance}: ") and err.count("\n") == 1
        assert "Traceback" not in err


def test_check_rejects_a_negative_exponent(tmp_path, capsys):
    instance = tmp_path / "negative.json"
    instance.write_text('{"n": 2, "gens": [[1, -1]]}')
    code, out, err = run(capsys, ["check", str(instance)])
    assert (code, out) == (2, "")
    assert err == f"error: {instance}: exponents must be nonnegative integers, got (1, -1)\n"


def test_gen_infeasible(in_repo_root, capsys):
    code, _, err = run(capsys, ["gen", "--n", "3", "--s", "4", "--d", "2"])
    assert code == 2
    assert "infeasible" in err


def test_out_flag_writes_file(in_repo_root, tmp_path, capsys):
    target = tmp_path / "report.txt"
    code, out, _ = run(capsys, ["check", H1, "--out", str(target)])
    assert code == 0
    assert out == ""
    assert target.read_text() == (
        in_repo_root / "fixtures/golden/check_chain_n3_s2.txt"
    ).read_text()


@pytest.mark.parametrize(
    "argv",
    [
        ["dual", H0],
        ["check", H1],
        ["betti", MIXED],
        ["reg", MIXED],
        ["bench", "--count", "1"],
        ["gen", "--n", "6", "--s", "3"],
    ],
)
def test_unwritable_out_is_an_input_error(in_repo_root, tmp_path, capsys, monkeypatch, argv):
    # A missing parent folder and a directory both end in one error line,
    # before any input is read or instance generated.
    def refuse(*args, **kwargs):
        raise AssertionError("work started before --out was checked")

    monkeypatch.setattr(cli, "load_path", refuse)
    monkeypatch.setattr(cli, "random_instance", refuse)
    for target in (tmp_path / "missing" / "x.txt", tmp_path):
        code, out, err = run(capsys, [*argv, "--out", str(target)])
        assert code == 2
        assert out == ""
        assert err.startswith(f"error: cannot write {target}: ")
        assert err.count("\n") == 1
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize(
    "argv",
    [
        ["dual", H0],
        ["check", H1],
        ["betti", MIXED],
        ["reg", MIXED],
        ["bench", "--count", "1"],
        ["gen", "--n", "6", "--s", "3"],
    ],
)
def test_empty_out_is_refused_before_any_work(in_repo_root, capsys, monkeypatch, argv):
    # The empty path's folder falls back to the writable ".", so it must
    # be refused on its own, before any input is read or instance drawn.
    def refuse(*args, **kwargs):
        raise AssertionError("work started before --out was checked")

    monkeypatch.setattr(cli, "load_path", refuse)
    monkeypatch.setattr(cli, "random_instance", refuse)
    code, out, err = run(capsys, [*argv, "--out", ""])
    assert (code, out) == (2, "")
    assert err == 'error: cannot write --out "": the empty path names no file\n'


def test_reg_refuses_unwritable_out_before_the_table(tmp_path, capsys, monkeypatch):
    # The missing folder is refused before any work: no Betti table is built.
    instance = tmp_path / "cycle12.json"
    gens = [[int(v in (i, (i + 1) % 12)) for v in range(12)] for i in range(12)]
    instance.write_text(json.dumps({"n": 12, "gens": gens}))
    tables = []
    monkeypatch.setattr(cli, "betti_table", lambda *args, **kwargs: tables.append(args))
    target = tmp_path / "missing" / "x.txt"
    code, out, err = run(capsys, ["reg", str(instance), "--out", str(target)])
    assert (code, out, tables) == (2, "", [])
    assert err.startswith(f"error: cannot write {target}: ") and err.count("\n") == 1
    assert not target.parent.exists()


def test_failed_run_neither_creates_nor_truncates_out(tmp_path, capsys):
    wide = tmp_path / "wide.json"
    wide.write_text(json.dumps({"n": 21, "gens": [[1] * 11 + [0] * 10, [0] * 11 + [1] * 10]}))
    kept, fresh = tmp_path / "kept.txt", tmp_path / "fresh.txt"
    kept.write_text("earlier output\n")
    for argv, status in ((["reg", str(wide)], 3), (["reg", str(tmp_path / "none.json")], 2)):
        for target in (kept, fresh):
            code, out, _ = run(capsys, [*argv, "--out", str(target)])
            assert (code, out) == (status, "")
    assert kept.read_text() == "earlier output\n"
    assert not fresh.exists()


def test_unknown_subcommand_exits_two(in_repo_root, capsys):
    with pytest.raises(SystemExit) as exc:
        main(["frobnicate"])
    assert exc.value.code == 2


def test_missing_input_file(in_repo_root, capsys):
    code, _, err = run(capsys, ["check", "no/such/file.json"])
    assert code == 2
    assert err.startswith("error: no/such/file.json: cannot read ")


MALFORMED = {
    "invalid.json": b"not json",
    "deep.json": b'{"n": 1, "gens": [' + b"[" * 1200 + b"]" * 1200 + b"]}",
    "non_object.json": b"[1, 2]",
    "no_key.json": b'{"n": 2}',
    "both_keys.json": b'{"n": 3, "gens": [[1, 1, 0]], "edges": [[1, 2]]}',
    "gens_rows.json": b'{"n": 2, "gens": [3]}',
    "edges_rows.json": b'{"n": 3, "d": 1, "edges": [[1, 2], 3]}',
    "negative.json": b'{"n": 2, "gens": [[1, -1]]}',
    "latin1.json": b'{"n": 1, "gens": [[1]]} \xe9',
    # Past Python's 4,300-digit limit json.loads raises a plain ValueError.
    "digits5000.json": b'{"n": 2, "gens": [[' + b"9" * 5000 + b", 0], [0, 1]]}",
}


@pytest.mark.parametrize("name", MALFORMED)
def test_every_malformed_file_is_one_error_line_naming_it(tmp_path, capsys, name):
    path = tmp_path / name
    path.write_bytes(MALFORMED[name])
    code, out, err = run(capsys, ["check", str(path)])
    assert (code, out) == (2, "")
    assert err.startswith(f"error: {path}: ")
    assert err.count("\n") == 1 and err.endswith("\n")


@pytest.mark.parametrize("command", ["check", "reg", "betti", "dual"])
def test_exponent_too_large_to_print_from_is_refused_when_read(tmp_path, capsys, int_text_limit, command):
    # JSON reads an int of 4,300 digits; every command refuses it while the
    # file is parsed, before its first step, with one line naming the file.
    int_text_limit(4300)
    path = tmp_path / "digits4300.json"
    path.write_text('{"n": 3, "gens": [[' + "9" * 4300 + ", 1, 0], [0, 1, 1]]}")
    code, out, err = run(capsys, [command, str(path)])
    assert (code, out) == (2, "")
    assert err == (
        f"error: {path}: an exponent has more than 4290 digits; values derived "
        "from it would pass the 4300-digit limit for printing integers\n"
    )


def test_largest_exponent_let_through_prints(tmp_path, capsys, int_text_limit):
    int_text_limit(640)
    path = tmp_path / "digits630.json"
    path.write_text('{"n": 3, "gens": [[' + "9" * 630 + ", 1, 0], [0, 1, 1]]}")
    for command in ("check", "reg", "betti"):
        code, out, err = run(capsys, [command, str(path)])
        assert (code, err) == (0, "")
        if command == "check":
            assert f"\ndeg={10**630} m=3 q={3 * 10**630 - 2}\n" in out


def test_gen_and_bench_do_not_revalidate_their_draws(in_repo_root, tmp_path, capsys, monkeypatch):
    calls = []
    build = hypergraphs.build_hypergraph

    def counted(*args):
        calls.append(args)
        return build(*args)

    monkeypatch.setattr(hypergraphs, "build_hypergraph", counted)
    monkeypatch.setattr(formats, "build_hypergraph", counted)
    instance = tmp_path / "h.json"
    argv = ["gen", "--n", "7", "--s", "3", "--d", "2", "--seed", "1", "--out", str(instance)]
    assert run(capsys, argv)[0] == 0
    argv = ["bench", "--n-range", "4:7", "--s-range", "2:4", "--d-set", "1,2", "--count", "5"]
    assert run(capsys, argv)[0] == 0
    assert calls == []
    # The spy is live: reading the file back validates it once.
    assert run(capsys, ["check", str(instance)])[0] == 0
    assert len(calls) == 1
