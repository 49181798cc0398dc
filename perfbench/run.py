"""Stdlib benchmark of the hyperideal pipeline.

Run from the repository root:

    python3 perfbench/run.py --workload chains --seed 7 --seconds 35 --trace 0
    python3 perfbench/run.py --workload all

Each workload runs as a closed loop in this one process: one instance at a
time, no threads.  The run sets the workload up (import, generation,
serialisation), then makes whole passes over the seed's family of instances
until --seconds have gone, and checks every output.  With --trace 0 it
reports the end-to-end metrics, its times scaled by the speed of the machine
measured beside every instance; with --trace 1 it makes one untraced and one
traced pass and reports the per-layer metrics.  The last line of standard
output is one JSON object; the lines before it give each metric with its
unit and the machine the run was made on.  See METRICS.md.

Exit codes: 0 all outputs correct, 1 an output or the trace wiring failed,
2 usage error or no hyperideal sources to measure.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import platform
import random
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
WORK = BENCH_DIR / ".work"
DIGESTS = BENCH_DIR / "digests.json"

WORKLOADS = ("chains", "pure_powers", "wide_ideals")
END_TO_END = (
    ("throughput_inst_per_s", "1/s"),
    ("latency_p50_ms", "ms"),
    ("latency_p90_ms", "ms"),
    ("setup_s", "s"),
    ("peak_rss_mb", "MB"),
)
# Set-up is timed this many times, once in the run's own process and the
# rest in fresh interpreters, one after each of the first passes so that the
# samples spread over the run, and the median reported.
SETUP_SAMPLES = 11
# Each instance's time is its best over the run's passes, so that the
# stretches in which a shared machine runs slow do not move the metrics.
# A run makes at least this many passes, however long --seconds is.
MIN_PASSES = 3
# A shared machine runs the same code up to 1.7 times slower at some moments
# than at others.  So a fixed stdlib loop, reference(), runs before every
# instance, and an instance's time is scaled to a machine on which that loop
# takes REFERENCE_S: it is divided by the best reference run among the
# NEIGHBOURS on each side of the instance and multiplied by REFERENCE_S.
REFERENCE_S = 0.001
NEIGHBOURS = 4
SUBPROCESS_TIMEOUT_S = 60


class EnvironmentProblem(Exception):
    """The checkout holds nothing this benchmark can measure."""


def setup(workload: str, seed: int | None, folder: Path | None = None):
    """Import hyperideal from this checkout, generate the seed's family and
    write one JSON file per instance into ``folder`` (by default the
    workload's folder under .work).  Returns the workload module, the seed
    used and the file paths relative to the repository root, which appear
    in the reports and so in their digests."""
    if not (SRC / "hyperideal" / "__init__.py").is_file():
        raise EnvironmentProblem(f"no hyperideal sources under {SRC}")
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    import bench_workloads

    import hyperideal

    if Path(hyperideal.__file__).resolve().parent != SRC / "hyperideal":
        raise EnvironmentProblem(f"imported hyperideal from {hyperideal.__file__}, not {SRC}")
    if seed is None:
        seed = bench_workloads.DEFAULT_SEEDS[workload]
    docs = bench_workloads.FAMILIES[workload](seed)
    folder = folder or WORK / workload
    shutil.rmtree(folder, ignore_errors=True)
    folder.mkdir(parents=True)
    paths = []
    for index, doc in enumerate(docs):
        path = folder / f"{index:04d}.json"
        path.write_text(doc, encoding="utf-8")
        paths.append(os.path.relpath(path, ROOT))
    return bench_workloads, seed, paths


def setup_in_fresh_process(workload: str, seed: int) -> float:
    cmd = [sys.executable, str(Path(__file__).resolve()), "--setup-only",
           "--workload", workload, "--seed", str(seed)]
    done = subprocess.run(
        cmd, cwd=ROOT, capture_output=True, text=True, timeout=SUBPROCESS_TIMEOUT_S, check=True
    )
    return float(done.stdout.strip().splitlines()[-1])


def machine() -> dict:
    def read(path: str) -> str:
        try:
            with open(path, encoding="utf-8") as fh:
                return fh.read()
        except OSError:
            return ""

    models = [
        line.split(":", 1)[1].strip()
        for line in read("/proc/cpuinfo").splitlines()
        if line.startswith("model name")
    ]
    return {
        "python": platform.python_version(),
        "nproc": os.cpu_count(),
        "cpu": models[0] if models else platform.processor(),
        "loadavg": read("/proc/loadavg").strip(),
    }


def load_digests(workload: str, seed: int) -> list[str] | None:
    try:
        with open(DIGESTS, encoding="utf-8") as fh:
            return json.load(fh).get(workload, {}).get(str(seed))
    except FileNotFoundError:
        return None


def save_digests(workload: str, seed: int, digests: list[str]) -> None:
    try:
        with open(DIGESTS, encoding="utf-8") as fh:
            table = json.load(fh)
    except FileNotFoundError:
        table = {}
    table.setdefault(workload, {})[str(seed)] = digests
    with open(DIGESTS, "w", encoding="utf-8") as fh:
        json.dump(table, fh, indent=1, sort_keys=True)
        fh.write("\n")


class Pass:
    """One pass over the family.  Per instance: the wall time of its calls
    into hyperideal, its output digest and any failure reason.  Also the
    pass's own wall time and, when calibrating, the time of the reference
    loop before each instance and after the last."""

    def __init__(self, bw, workload: str, paths: list[str], expected: list[str] | None,
                 calibrate: bool = False):
        runner = bw.RUNNERS[workload]
        self.seconds: list[float] = []
        self.reference: list[float] = []
        self.digests: list[str] = []
        self.failures: list[str] = []
        start = time.perf_counter()
        for index, path in enumerate(paths):
            if calibrate:
                self.reference.append(reference())
            t0 = time.perf_counter()
            try:
                outcome = runner(path)
            except Exception as exc:  # a crash is a failed instance, not a failed run
                self.seconds.append(time.perf_counter() - t0)
                self.digests.append("")
                self.failures.append(f"{path}: crash {type(exc).__name__}: {exc}")
                continue
            self.seconds.append(outcome.seconds)
            self.digests.append(outcome.digest())
            reason = bw.gate(outcome, expected[index] if expected else None)
            if reason is not None:
                self.failures.append(f"{path}: {reason}")
        if calibrate:
            self.reference.append(reference())
        self.wall = time.perf_counter() - start

    def scaled(self) -> list[float]:
        """Each instance's time on a machine where reference() takes
        REFERENCE_S, judged from the reference runs around the instance."""
        ref = self.reference
        return [
            seconds * REFERENCE_S / min(ref[max(0, i - NEIGHBOURS + 1):i + NEIGHBOURS + 1])
            for i, seconds in enumerate(self.seconds)
        ]


def reference() -> float:
    """Wall time of a fixed pure-Python loop of about 1 ms (tuples, a set, a
    dict, a sort) that touches nothing of hyperideal.  The collector is held
    off, so that the loop never pays for the program's garbage."""
    gc.disable()
    try:
        start = time.perf_counter()
        rng = random.Random(1)
        seen: set[tuple[int, int, int]] = set()
        counts: dict[tuple[int, int, int], int] = {}
        for i in range(1000):
            key = (rng.randrange(9), rng.randrange(9), i % 7)
            seen.add(key)
            counts[key] = counts.get(key, 0) + 1
        sorted(seen)
        sum(1 for key in seen if key[0] < 4)
        return time.perf_counter() - start
    finally:
        gc.enable()


def print_metric(name: str, value: float, unit: str, note: str = "") -> None:
    print(f"{name} = {value:.6g} {unit}" + (f"  ({note})" if note else ""))


def run_workload(args) -> int:
    before = machine()
    start = time.perf_counter()
    bw, seed, paths = setup(args.workload, args.seed)
    samples = [time.perf_counter() - start]

    recorded = load_digests(args.workload, seed)
    if recorded is not None and len(recorded) != len(paths):
        raise EnvironmentProblem(
            f"digests.json holds {len(recorded)} digests for {args.workload} seed {seed}, "
            f"the family has {len(paths)} instances"
        )
    print(f"workload {args.workload} seed {seed}: {len(paths)} instances per pass, "
          f"digests {'recorded' if recorded else 'not recorded for this seed'}")

    gc.collect()
    loop_start = time.perf_counter()
    first = Pass(bw, args.workload, paths, recorded, calibrate=not args.trace)
    # Later passes must reproduce the recorded digests, or the first pass's.
    expected = recorded or first.digests
    passes = [first]
    tracer = None
    if args.trace:
        import bench_trace

        tracer = bench_trace.Tracer()
        try:
            with bench_trace.traced(tracer):
                passes.append(Pass(bw, args.workload, paths, expected))
        except bench_trace.WiringError as exc:
            print(f"trace wiring: {exc}", file=sys.stderr)
            return 1
    else:
        while len(passes) < MIN_PASSES or time.perf_counter() - loop_start < args.seconds:
            if len(samples) < SETUP_SAMPLES:
                samples.append(setup_in_fresh_process(args.workload, seed))
            passes.append(Pass(bw, args.workload, paths, expected, calibrate=True))
        while len(samples) < SETUP_SAMPLES:
            samples.append(setup_in_fresh_process(args.workload, seed))

    failures = [f for p in passes for f in p.failures]
    attempted = sum(len(p.seconds) for p in passes)
    for failure in failures[:20]:
        print(f"FAIL {failure}", file=sys.stderr)
    correct = not failures

    metrics: dict[str, dict] = {}
    if tracer is not None:
        import bench_trace

        missing = tracer.missing_spans(args.workload)
        if missing:
            print(f"trace wiring: no calls recorded for {', '.join(missing)}", file=sys.stderr)
            correct = False
        values = tracer.metrics(overhead_ratio=passes[1].wall / passes[0].wall)
        tracer.write(WORK / f"trace-{args.workload}-{seed}.json")
        for name, unit in bench_trace.LAYER_METRICS:
            note = ""
            if name == "betti.useful_point_ratio":
                note = f"base {values['betti.lattice_points']} lattice points"
            elif name == "trace.overhead_ratio":
                note = f"traced {passes[1].wall:.3f} s / untraced {passes[0].wall:.3f} s"
            print_metric(name, values[name], unit, note)
            metrics[name] = {"value": values[name], "unit": unit}
    else:
        latencies = [min(times) for times in zip(*(p.scaled() for p in passes))]
        deciles = statistics.quantiles(latencies, n=10)
        above = sum(1 for x in latencies if x > deciles[8])
        unscaled = [min(times) for times in zip(*(p.seconds for p in passes))]
        reference_best = min(min(p.reference) for p in passes)
        values = {
            "throughput_inst_per_s": len(latencies) / sum(latencies),
            "latency_p50_ms": statistics.median(latencies) * 1000,
            "latency_p90_ms": deciles[8] * 1000,
            "setup_s": statistics.median(samples),
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        }
        notes = {
            "throughput_inst_per_s": f"{len(latencies)} instances over the sum of their "
                                     f"best times; {attempted} runs in {len(passes)} passes, "
                                     f"{time.perf_counter() - loop_start:.1f} s; unscaled "
                                     f"{len(unscaled) / sum(unscaled):.6g}/s",
            "latency_p50_ms": f"best of {len(passes)} passes per instance; unscaled "
                              f"{statistics.median(unscaled) * 1000:.6g} ms; reference loop "
                              f"best {reference_best * 1000:.4g} ms, scaled to "
                              f"{REFERENCE_S * 1000:g} ms",
            "latency_p90_ms": f"n={len(latencies)} instances, {above} above; unscaled "
                              f"{statistics.quantiles(unscaled, n=10)[8] * 1000:.6g} ms",
            "setup_s": f"median of {len(samples)} set-ups, {len(samples) - 1} in fresh processes",
        }
        for name, unit in END_TO_END:
            print_metric(name, values[name], unit, notes.get(name, ""))
            metrics[name] = {"value": values[name], "unit": unit}
    print(f"fail_ratio = {len(failures)}/{attempted}")
    print("machine: " + json.dumps({**before, "loadavg_after": machine()["loadavg"]}))
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": len(failures),
                      "metrics": metrics}))
    return 0 if correct else 1


def record(args) -> int:
    """Run one pass and store its output digests for the seed."""
    bw, seed, paths = setup(args.workload, args.seed)
    result = Pass(bw, args.workload, paths, None)
    for failure in result.failures:
        print(f"FAIL {failure}", file=sys.stderr)
    if result.failures:
        return 1
    save_digests(args.workload, seed, result.digests)
    print(f"recorded {len(paths)} digests for {args.workload} seed {seed} "
          f"({result.wall:.1f} s)")
    return 0


def run_all(args) -> int:
    """Run every workload, each in its own fresh process."""
    worst = 0
    for workload in WORKLOADS:
        cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", workload,
               "--seconds", str(args.seconds), "--trace", str(args.trace)]
        if args.seed is not None:
            cmd += ["--seed", str(args.seed)]
        sys.stdout.flush()
        worst = max(worst, subprocess.run(cmd, cwd=ROOT).returncode)
    return worst


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, default=None,
                        help="input seed (default: the workload's own default seed)")
    parser.add_argument("--seconds", type=int, default=35, help="measured time per run")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0,
                        help="1: one traced pass reporting per-layer metrics")
    parser.add_argument("--record", action="store_true",
                        help="store this seed's output digests in digests.json")
    parser.add_argument("--setup-only", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.seconds < 1:
        parser.error("--seconds must be at least 1")
    os.chdir(ROOT)
    try:
        if args.workload == "all":
            return run_all(args)
        if args.setup_only:
            start = time.perf_counter()
            setup(args.workload, args.seed)
            print(time.perf_counter() - start)
            return 0
        if args.record:
            return record(args)
        return run_workload(args)
    except EnvironmentProblem as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
