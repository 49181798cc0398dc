"""Spans and counters around the public entry points of each hyperideal
module, installed from outside the package.

Many names are imported with ``from .x import y``, so a wrapper has to
replace every module global bound to the original object, not just the
defining one.  :func:`traced` does that by identity and then checks the
binding sites listed in ``REQUIRED_SITES``: if a function is renamed,
deleted or no longer imported where the benchmark expects it, tracing
fails loudly instead of reporting an empty layer.
"""

from __future__ import annotations

import contextlib
import functools
import itertools
import json
import time
from collections import Counter, defaultdict

import hyperideal
import hyperideal.betti
import hyperideal.checks
import hyperideal.cli
import hyperideal.formats
import hyperideal.homology
import hyperideal.hypergraphs
import hyperideal.ideals
import hyperideal.monomials
import hyperideal.stability
from hyperideal.homology import SimplicialComplex
from hyperideal.ideals import MonomialIdeal

MODULES = (
    hyperideal,
    hyperideal.betti,
    hyperideal.checks,
    hyperideal.cli,
    hyperideal.formats,
    hyperideal.homology,
    hyperideal.hypergraphs,
    hyperideal.ideals,
    hyperideal.monomials,
    hyperideal.stability,
)


class WiringError(RuntimeError):
    """A wrapped name is missing, or a binding site was not patched."""


def _shift_tests(counts, args, report):
    if not report.ideal.is_zero and not report.ideal.is_unit:
        counts["stability.shift_tests"] += sum(
            u.max_index() - 1 for u in report.ideal.gens
        )


def _truncate_gens(counts, args, ideal):
    counts["ideals.truncate_gens"] += len(ideal.gens)


def _lattice_points(counts, args, points):
    counts["betti.lattice_points"] += len(points)


def _is_cone(faces) -> bool:
    """True when some vertex v is an apex: F | {v} is a face for every face
    F.  In a downward-closed complex that holds exactly when v lies in half
    of the faces, since removing v maps the faces through v one-to-one into
    the faces avoiding it."""
    through = Counter(itertools.chain.from_iterable(faces))
    return any(2 * k == len(faces) for k in through.values())


def _koszul(counts, args, complex_at_b):
    counts["betti.koszul_faces"] += len(complex_at_b.faces)
    counts["betti.cone_points"] += _is_cone(complex_at_b.faces)


def _useful_points(counts, args, table):
    counts["betti.useful_points"] += len({b for _, b in table.entries})


def _matrix_entries(counts, args, rank):
    rows = args[0]
    counts["homology.matrix_entries"] += len(rows) * (len(rows[0]) if rows else 0)


# (span name, owner, attribute, result hook).  Functions are patched at every
# module global bound to them; methods on their class.
SPANS = (
    ("formats.parse", hyperideal.formats, "parse_input", None),
    ("hypergraphs.special_dual", hyperideal.hypergraphs, "special_dual", None),
    ("checks.run", hyperideal.checks, "run_hypergraph_checks", None),
    ("checks.run", hyperideal.checks, "run_ideal_checks", None),
    ("ideals.truncate", MonomialIdeal, "truncate", _truncate_gens),
    ("ideals.alexander_dual", hyperideal.ideals, "alexander_dual", None),
    ("ideals.irredundant_filter", hyperideal.ideals, "irredundant_filter", None),
    ("stability.truncation_stability", hyperideal.stability, "truncation_stability", _shift_tests),
    ("stability.pure_power", hyperideal.stability, "pure_power_truncation_stable", None),
    ("stability.is_stable", hyperideal.stability, "is_stable", None),
    ("betti.betti_table", hyperideal.betti, "betti_table", _useful_points),
    ("betti.lcm_lattice", hyperideal.betti, "lcm_lattice", _lattice_points),
    ("betti.koszul", hyperideal.betti, "koszul_complex", _koszul),
    ("betti.euler", hyperideal.betti, "euler_consistency_check", None),
    ("homology.reduced_homology", SimplicialComplex, "reduced_homology_dims", None),
    ("homology.rank", hyperideal.homology, "matrix_rank", _matrix_entries),
)

# Counted, not timed: W1 makes millions of membership tests.
COUNTERS = (("ideals.contains_calls", MonomialIdeal, "contains"),)

# Binding sites the call paths of the workloads go through.
REQUIRED_SITES = (
    "checks.special_dual",
    "checks.truncation_stability",
    "checks.pure_power_truncation_stable",
    "checks.is_stable",
    "checks.alexander_dual",
    "checks.irredundant_filter",
    "checks.betti_table",
    "checks.euler_consistency_check",
    "cli.run_hypergraph_checks",
    "cli.run_ideal_checks",
    "cli.betti_table",
    "formats.parse_input",
    "stability.truncation_stability",
    "stability.pure_power_truncation_stable",
    "betti.betti_table",
    "betti.lcm_lattice",
    "betti.koszul_complex",
    "homology.matrix_rank",
    "MonomialIdeal.truncate",
    "MonomialIdeal.contains",
    "SimplicialComplex.reduced_homology_dims",
)

# Spans each workload's call path must record at least once.
EXPECTED_SPANS = {
    "chains": (
        "formats.parse", "hypergraphs.special_dual", "checks.run",
        "ideals.truncate", "ideals.alexander_dual", "ideals.irredundant_filter",
        "stability.truncation_stability", "stability.pure_power",
        "betti.betti_table", "betti.lcm_lattice", "betti.koszul", "betti.euler",
        "homology.reduced_homology", "homology.rank",
    ),
    "pure_powers": (
        "formats.parse", "ideals.truncate", "stability.truncation_stability",
        "stability.pure_power", "betti.betti_table", "betti.lcm_lattice",
        "betti.koszul", "homology.reduced_homology", "homology.rank",
    ),
    "wide_ideals": (
        "formats.parse", "checks.run", "ideals.alexander_dual", "stability.is_stable",
        "betti.betti_table", "betti.lcm_lattice", "betti.koszul", "betti.euler",
        "homology.reduced_homology", "homology.rank",
    ),
}

# Per-layer metrics in report order: (name, unit).
LAYER_METRICS = (
    ("formats.parse_s", "s"),
    ("formats.docs", "count"),
    ("hypergraphs.special_dual_s", "s"),
    ("hypergraphs.special_dual_calls", "count"),
    ("checks.self_s", "s"),
    ("ideals.truncate_s", "s"),
    ("ideals.truncate_calls", "count"),
    ("ideals.truncate_gens", "count"),
    ("ideals.alexander_dual_s", "s"),
    ("ideals.irredundant_filter_s", "s"),
    ("ideals.contains_calls", "count"),
    ("stability.truncation_stability_s", "s"),
    ("stability.witness_self_s", "s"),
    ("stability.shift_tests", "count"),
    ("stability.pure_power_s", "s"),
    ("stability.is_stable_s", "s"),
    ("betti.betti_table_s", "s"),
    ("betti.lcm_lattice_s", "s"),
    ("betti.lattice_points", "count"),
    ("betti.koszul_s", "s"),
    ("betti.koszul_faces", "count"),
    ("betti.cone_points", "count"),
    ("betti.useful_point_ratio", "ratio"),
    ("betti.euler_s", "s"),
    ("homology.reduced_homology_s", "s"),
    ("homology.rank_s", "s"),
    ("homology.rank_calls", "count"),
    ("homology.matrix_entries", "count"),
    ("trace.overhead_ratio", "ratio"),
)


class Tracer:
    """In-memory spans (name, start, end, parent index) and counters."""

    def __init__(self):
        self.spans: list = []
        self.counts: Counter = Counter()
        self._stack: list[int] = []

    def span(self, name, fn, hook):
        spans, stack, counts, clock = self.spans, self._stack, self.counts, time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            index = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(index)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                spans[index] = (name, start, end, parent)
            if hook is not None:
                hook(counts, args, result)
            return result

        return wrapper

    def counter(self, name, fn):
        counts = self.counts

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            counts[name] += 1
            return fn(*args, **kwargs)

        return wrapper

    def layer_times(self) -> tuple[dict[str, float], dict[str, float], Counter]:
        """Total and self seconds per span name, and calls per span name."""
        total: dict[str, float] = defaultdict(float)
        children: dict[int, float] = defaultdict(float)
        calls: Counter = Counter()
        for name, start, end, parent in self.spans:
            total[name] += end - start
            calls[name] += 1
            if parent >= 0:
                children[parent] += end - start
        own: dict[str, float] = defaultdict(float)
        for index, (name, start, end, _) in enumerate(self.spans):
            own[name] += end - start - children[index]
        return total, own, calls

    def metrics(self, overhead_ratio: float) -> dict[str, float]:
        total, own, calls = self.layer_times()
        c = self.counts
        points = c["betti.lattice_points"]
        return {
            "formats.parse_s": total["formats.parse"],
            "formats.docs": calls["formats.parse"],
            "hypergraphs.special_dual_s": total["hypergraphs.special_dual"],
            "hypergraphs.special_dual_calls": calls["hypergraphs.special_dual"],
            "checks.self_s": own["checks.run"],
            "ideals.truncate_s": total["ideals.truncate"],
            "ideals.truncate_calls": calls["ideals.truncate"],
            "ideals.truncate_gens": c["ideals.truncate_gens"],
            "ideals.alexander_dual_s": total["ideals.alexander_dual"],
            "ideals.irredundant_filter_s": total["ideals.irredundant_filter"],
            "ideals.contains_calls": c["ideals.contains_calls"],
            "stability.truncation_stability_s": total["stability.truncation_stability"],
            "stability.witness_self_s": own["stability.truncation_stability"],
            "stability.shift_tests": c["stability.shift_tests"],
            "stability.pure_power_s": total["stability.pure_power"],
            "stability.is_stable_s": total["stability.is_stable"],
            "betti.betti_table_s": total["betti.betti_table"],
            "betti.lcm_lattice_s": total["betti.lcm_lattice"],
            "betti.lattice_points": points,
            "betti.koszul_s": total["betti.koszul"],
            "betti.koszul_faces": c["betti.koszul_faces"],
            "betti.cone_points": c["betti.cone_points"],
            "betti.useful_point_ratio": c["betti.useful_points"] / points if points else 0.0,
            "betti.euler_s": total["betti.euler"],
            "homology.reduced_homology_s": total["homology.reduced_homology"],
            "homology.rank_s": total["homology.rank"],
            "homology.rank_calls": calls["homology.rank"],
            "homology.matrix_entries": c["homology.matrix_entries"],
            "trace.overhead_ratio": overhead_ratio,
        }

    def missing_spans(self, workload: str) -> list[str]:
        seen = {span[0] for span in self.spans}
        return [name for name in EXPECTED_SPANS[workload] if name not in seen]

    def write(self, path) -> None:
        """Write the spans as JSON: a name table and [name, start, end,
        parent] rows with times in seconds from the first span."""
        names = sorted({s[0] for s in self.spans})
        index = {name: i for i, name in enumerate(names)}
        t0 = self.spans[0][1] if self.spans else 0.0
        rows = [[index[n], round(s - t0, 9), round(e - t0, 9), p] for n, s, e, p in self.spans]
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({"names": names, "spans": rows, "counts": dict(self.counts)}, fh)


@contextlib.contextmanager
def traced(tracer: Tracer):
    """Install the tracer's wrappers for the duration of the block and
    restore every patched binding afterwards."""
    patched: list[tuple[object, str, object]] = []
    sites: set[str] = set()

    def replace(owner, attr, original, wrapper):
        if isinstance(owner, type):
            patched.append((owner, attr, original))
            setattr(owner, attr, wrapper)
            sites.add(f"{owner.__name__}.{attr}")
            return
        for module in MODULES:
            for name, value in list(vars(module).items()):
                if value is original:
                    patched.append((module, name, value))
                    setattr(module, name, wrapper)
                    sites.add(f"{module.__name__.rpartition('.')[2]}.{name}")

    try:
        for name, owner, attr, hook in SPANS:
            original = _lookup(owner, attr)
            replace(owner, attr, original, tracer.span(name, original, hook))
        for name, owner, attr in COUNTERS:
            original = _lookup(owner, attr)
            replace(owner, attr, original, tracer.counter(name, original))
        missing = [site for site in REQUIRED_SITES if site not in sites]
        if missing:
            raise WiringError("binding sites not patched: " + ", ".join(missing))
        yield tracer
    finally:
        for owner, attr, original in reversed(patched):
            setattr(owner, attr, original)


def _lookup(owner, attr):
    try:
        return vars(owner)[attr]
    except KeyError:
        raise WiringError(f"{owner.__name__}.{attr} no longer exists") from None
