import functools
import json

import pytest

from hyperideal import checks, cli, hypergraphs
from hyperideal.betti import betti_table
from hyperideal.cli import main
from hyperideal.formats import load_path
from hyperideal.hypergraphs import canonical_vertex_order, covered_restriction, special_dual

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
    table = betti_table(special_dual(covered_restriction(canonical))[0])
    assert table.render() != betti_table(special_dual(h)[0]).render()
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


def test_reg_command(in_repo_root, capsys):
    code, out, _ = run(capsys, ["reg", H1])
    assert code == 0
    assert out == "reg=3 (char 0)\n"


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
    code, _, err = run(capsys, ["bench", "--n-range", "7:4"])
    assert code == 2
    assert "empty" in err


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
    ],
    ids=["ground_set", "generators"],
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


def test_unknown_subcommand_exits_two(in_repo_root, capsys):
    with pytest.raises(SystemExit) as exc:
        main(["frobnicate"])
    assert exc.value.code == 2


def test_missing_input_file(in_repo_root, capsys):
    code, _, err = run(capsys, ["check", "no/such/file.json"])
    assert code == 2
    assert "cannot read" in err
