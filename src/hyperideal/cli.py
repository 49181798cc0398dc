"""Command-line front end.

Subcommands: dual, check, betti, reg, bench, gen.  Exit codes are a
stable contract: 0 all pass, 1 claim failure, 2 input error, 3 guard or
skip condition.  All output is byte-deterministic for fixed input,
flags and seed.
"""

from __future__ import annotations

import argparse
import csv
import functools
import io
import json
import os
import random
import sys

from .betti import betti_table
from .checks import (
    BENCH_COLUMNS,
    FAIL,
    bench_row,
    run_hypergraph_checks,
    run_ideal_checks,
)
from .formats import InputError, dump_input, load_path
from .homology import GuardError, validate_characteristic
from .hypergraphs import IncreasingHypergraph, random_instance, special_dual
from .ideals import component_str
from .stability import q_bound, t_bound

EXIT_PASS = 0
EXIT_FAIL = 1
EXIT_INPUT = 2
EXIT_GUARD = 3

BENCH_SCHEMA_COMMENT = "# hyperideal bench schema v1"

# Most (n, s, d) cells bench may list before its first draw: listing
# 10^5 cells takes 0.02 s and 7 MB, 10^6 cells 0.2 s and 76 MB.
MAX_BENCH_CELLS = 10**5

# Most instances one bench sweep may draw: 1,000 at the default ranges
# take 7.3 s, so the limit is about 75 s of work there.
MAX_BENCH_INSTANCES = 10**4


def _check_out(out: str) -> None:
    """Refuse an --out target before any work, creating or truncating
    nothing: _emit writes it only once the output is complete."""
    folder = os.path.dirname(out) or "."
    target = out if os.path.exists(out) else folder
    if os.path.isdir(out) or not os.path.isdir(folder) or not os.access(target, os.W_OK):
        raise InputError(f"cannot write {out}: not a writable file in an existing directory")


def _emit(text: str, out: str | None) -> None:
    if out is None:
        sys.stdout.write(text)
    else:
        try:
            with open(out, "w", encoding="utf-8", newline="") as fh:
                fh.write(text)
        except OSError as exc:
            raise InputError(f"cannot write {out}: {exc}") from exc


def _parse_range(spec: str, what: str) -> range:
    try:
        if ":" in spec:
            lo_text, hi_text = spec.split(":", 1)
            lo, hi = int(lo_text), int(hi_text)
        else:
            lo = hi = int(spec)
    except ValueError:
        raise InputError(f"{what} must look like A:B or a single integer, got {spec!r}")
    if lo > hi:
        raise InputError(f"{what} is empty: {spec}")
    return range(lo, hi + 1)


def _parse_set(spec: str, what: str) -> list[int]:
    try:
        values = sorted({int(part) for part in spec.split(",") if part})
    except ValueError:
        raise InputError(f"{what} must be comma-separated integers, got {spec!r}")
    if not values:
        raise InputError(f"{what} is empty")
    return values


def cmd_dual(args) -> int:
    h = load_path(args.input)
    if not isinstance(h, IncreasingHypergraph):
        raise InputError(f"{args.input}: dual needs a hypergraph input")
    sd = special_dual(h)
    lines = [
        f"n={h.n} d={h.d} s={h.s}",
        "a=[" + ",".join(str(e) for e in sd.a) + "]",
        f"ideal: {sd.ideal}",
        "components: " + " | ".join(map(component_str, sd.comps)),
        f"dual: {sd.dual}",
        f"deg={sd.dual_r.deg()} m={sd.dual_r.max_index()}",
        f"t={t_bound(sd.a)} q={q_bound(sd.dual_r)}",
    ]
    _emit("\n".join(lines) + "\n", args.out)
    return EXIT_PASS


def cmd_check(args) -> int:
    obj = load_path(args.input)
    if isinstance(obj, IncreasingHypergraph):
        report = run_hypergraph_checks(
            obj, char=args.char, skip_reg=args.skip_reg, source=args.input
        )
    else:
        report = run_ideal_checks(
            obj, char=args.char, skip_reg=args.skip_reg, source=args.input
        )
    if args.format == "json":
        _emit(json.dumps(report.to_json_dict(), indent=2) + "\n", args.out)
    else:
        _emit(report.to_text() + "\n", args.out)
    return report.exit_status()


def _input_ideal(path: str):
    """The ideal a file denotes: bare ideals as-is, hypergraphs via their
    special dual in canonical restricted form."""
    obj = load_path(path)
    if isinstance(obj, IncreasingHypergraph):
        return special_dual(obj).dual_r
    return obj


def cmd_betti(args) -> int:
    ideal = _input_ideal(args.input)
    table = betti_table(ideal, char=args.char)
    _emit(table.render() + "\n", args.out)
    return EXIT_PASS


def cmd_reg(args) -> int:
    ideal = _input_ideal(args.input)
    table = betti_table(ideal, char=args.char)
    _emit(f"reg={table.regularity()} (char {args.char})\n", args.out)
    return EXIT_PASS


def cmd_bench(args) -> int:
    n_range = _parse_range(args.n_range, "--n-range")
    s_range = _parse_range(args.s_range, "--s-range")
    d_set = _parse_set(args.d_set, "--d-set")
    if args.count < 0:
        raise InputError("--count must be nonnegative")
    if args.count > MAX_BENCH_INSTANCES:
        raise GuardError(f"--count {args.count} exceeds the desk-scale limit {MAX_BENCH_INSTANCES}")
    cells = len(n_range) * len(s_range) * len(d_set)
    if cells > MAX_BENCH_CELLS:
        raise GuardError(
            f"{cells} (n, s, d) cells in the given ranges exceed the desk-scale "
            f"limit {MAX_BENCH_CELLS}"
        )
    triples = [
        (n, s, d)
        for n in n_range
        for s in s_range
        for d in d_set
        if 2 + (s - 1) * d <= n
    ]
    if not triples:
        raise InputError("no feasible (n, s, d) combination in the given ranges")
    rng = random.Random(args.seed)
    buffer = io.StringIO()
    buffer.write(BENCH_SCHEMA_COMMENT + "\n")
    writer = csv.DictWriter(buffer, fieldnames=BENCH_COLUMNS, lineterminator="\n")
    writer.writeheader()
    records = []  # one stderr line per guarded or failing instance
    for instance_id in range(args.count):
        n, s, d = rng.choice(triples)
        instance_seed = rng.randrange(2**32)
        h = random_instance(n, d, s, seed=instance_seed)
        record = {"instance_id": instance_id, "n": n, "s": s, "d": d, "seed": instance_seed}
        try:
            report = run_hypergraph_checks(h, char=args.char, skip_reg=args.skip_reg)
        except GuardError as exc:
            writer.writerow({"instance_id": instance_id, "n": n, "s": s, "d": d})
            records.append({**record, "guard": str(exc)})
            continue
        writer.writerow(bench_row(instance_id, report))
        failed = [c.name for c in report.claims if c.status == FAIL]
        if failed:
            records.append({**record, "failed": failed})
    _emit(buffer.getvalue(), args.out)
    for record in records:
        sys.stderr.write(json.dumps(record) + "\n")
    if any("failed" in record for record in records):
        return EXIT_FAIL
    return EXIT_GUARD if records else EXIT_PASS


def cmd_gen(args) -> int:
    _emit(dump_input(random_instance(args.n, args.d, args.s, seed=args.seed)), args.out)
    return EXIT_PASS


def _add_common(parser: argparse.ArgumentParser, char: bool = True) -> None:
    if char:
        parser.add_argument(
            "--char", type=int, default=0, help="field characteristic, 0 or a prime"
        )
    parser.add_argument("--out", default=None, help="write output to this path")


@functools.cache  # built on first use, then shared by every main() call
def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="hyperideal",
        description=(
            "Monomial ideals of nested hypergraphs: duality, stability "
            "and exact regularity"
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_dual = sub.add_parser("dual", help="containment vector, components and dual")
    p_dual.add_argument("input")
    _add_common(p_dual, char=False)
    p_dual.set_defaults(func=cmd_dual)

    p_check = sub.add_parser("check", help="run the full claim suite")
    p_check.add_argument("input")
    p_check.add_argument("--skip-reg", action="store_true", help="skip the regularity oracle")
    p_check.add_argument("--format", choices=("text", "json"), default="text")
    _add_common(p_check)
    p_check.set_defaults(func=cmd_check)

    p_betti = sub.add_parser("betti", help="multigraded betti numbers")
    p_betti.add_argument("input")
    _add_common(p_betti)
    p_betti.set_defaults(func=cmd_betti)

    p_reg = sub.add_parser("reg", help="exact regularity")
    p_reg.add_argument("input")
    _add_common(p_reg)
    p_reg.set_defaults(func=cmd_reg)

    p_bench = sub.add_parser("bench", help="CSV sweep over random instances")
    p_bench.add_argument("--n-range", default="4:7")
    p_bench.add_argument("--s-range", default="2:4")
    p_bench.add_argument("--d-set", default="1,2")
    p_bench.add_argument("--count", type=int, default=50)
    p_bench.add_argument("--seed", type=int, default=0)
    p_bench.add_argument("--skip-reg", action="store_true")
    _add_common(p_bench)
    p_bench.set_defaults(func=cmd_bench)

    p_gen = sub.add_parser("gen", help="write a random hypergraph instance")
    p_gen.add_argument("--n", type=int, required=True)
    p_gen.add_argument("--s", type=int, required=True)
    p_gen.add_argument("--d", type=int, default=1)
    p_gen.add_argument("--seed", type=int, default=0)
    _add_common(p_gen, char=False)
    p_gen.set_defaults(func=cmd_gen)

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        if args.out is not None:
            _check_out(args.out)
        validate_characteristic(getattr(args, "char", 0))  # dual and gen take no --char
        return args.func(args)
    except ValueError as exc:  # InputError is a ValueError
        sys.stderr.write(f"error: {exc}\n")
        return EXIT_INPUT
    except GuardError as exc:
        sys.stderr.write(f"guard: {exc}\n")
        return EXIT_GUARD


if __name__ == "__main__":
    sys.exit(main())
