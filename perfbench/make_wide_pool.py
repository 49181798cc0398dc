"""Regenerate wide_pool.json, the pool the wide_ideals family draws from.

    python3 perfbench/make_wide_pool.py [--size 1000]

Draws random bare ideals (n 9..10 variables, 4..6 distinct generators,
exponents 0..2) from POOL_SEED, times `hyperideal check` on each (best of
four runs, in two sweeps so that a slow stretch of the machine does not
decide an ideal's place), and writes them sorted by that time.  Only the
order matters to the benchmark.  It takes about 20 minutes for 1000 ideals
on a 2-vCPU Xeon virtual machine.
"""

from __future__ import annotations

import argparse
import json
import random
import sys
import tempfile
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH_DIR.parent / "src"))

import bench_workloads  # noqa: E402

POOL_SEED = 11011781


def draw(rng: random.Random) -> dict:
    n = rng.randint(9, 10)
    count = rng.randint(4, 6)
    gens: set[tuple[int, ...]] = set()
    while len(gens) < count:
        exps = tuple(rng.randint(0, 2) for _ in range(n))
        if any(exps):
            gens.add(exps)
    return {"n": n, "gens": [list(g) for g in sorted(gens)]}


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--size", type=int, default=1000)
    args = parser.parse_args()
    rng = random.Random(POOL_SEED)
    pool = [draw(rng) for _ in range(args.size)]
    best = [float("inf")] * len(pool)
    with tempfile.TemporaryDirectory() as tmp:
        path = str(Path(tmp) / "ideal.json")
        for repeats in (3, 1):
            for index, doc in enumerate(pool):
                with open(path, "w", encoding="utf-8") as fh:
                    json.dump(doc, fh)
                for _ in range(repeats):
                    best[index] = min(best[index], bench_workloads.run_wide_ideal(path).seconds)
    order = sorted(range(len(pool)), key=best.__getitem__)
    with open(bench_workloads.WIDE_POOL, "w", encoding="utf-8") as fh:
        fh.write("[\n" + ",\n".join(json.dumps(pool[i]) for i in order) + "\n]\n")
    print(f"wrote {len(pool)} ideals, {sum(best):.1f} s in all, to {bench_workloads.WIDE_POOL}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
