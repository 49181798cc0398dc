"""Seeded inputs, per-instance runners and the output gate of each workload.

Every family is a stratified sample of a pool sorted by cost.  For chains
and pure_powers the seed draws the pool with the acceptance criterion's own
scheme and the family takes evenly spaced picks from it; for wide_ideals the
pool is fixed and the seed picks one ideal from each slice.  So the seed
chooses the inputs, while the mix of cheap and expensive instances stays
almost the same from seed to seed: plain draws of the same size moved
throughput and the latency percentiles by 20-50% between seeds
(interquartile range over median), because instance costs span orders
of magnitude.  Instances run in the order of the sort, so the instance run
before each one is similar for every seed.

Each family keeps only the cells of its scheme whose instances take at most
about 0.1 s.  On a shared virtual machine the best of many runs of a 16 ms
instance stayed within 7% between 4-second windows, while that of a 300 ms
instance moved by 25% between 30-second windows; and a whole family must fit
in a few seconds so that a run can time every instance many times.

Importing this module imports ``hyperideal``; ``run.py`` counts that import
as part of set-up.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import random
import re
import time
from dataclasses import dataclass, field
from pathlib import Path

import hyperideal.betti as betti
import hyperideal.cli as cli
import hyperideal.formats as formats
import hyperideal.hypergraphs as hypergraphs
import hyperideal.stability as stability

# Used when --seed is omitted.  The chains and pure_powers defaults are the
# seeds of acceptance criteria 4 and 5; their pools are drawn as those
# criteria draw their families.
DEFAULT_SEEDS = {"chains": 20260824, "pure_powers": 8127555, "wide_ideals": 11011781}

# Seeds never used while the benchmark or any change measured with it was
# tuned.  Their digests are recorded, so a claimed gain can be re-checked on
# inputs its author did not see.
HELD_OUT_SEEDS = {"chains": 90210, "pure_powers": 60613, "wide_ideals": 27182}

# Instances per family, and draws per pool.
CHAINS, CHAIN_POOL = 102, 2040
PURE_POWERS, PURE_POWER_POOL = 107, 21400
WIDE_IDEALS = 100

# The cells of criterion 4 kept in chains: chains of two edges, and of three
# edges that each add one vertex.  Three edges adding two vertices each, and
# four edges, take 0.3-0.8 s per instance.
CHAIN_CELLS = {(2, 1), (2, 2), (3, 1)}

# Criterion 5 draws n from 2..6; pure_powers stops at n = 5 and at
# t = sum(a) - max(a) = 9, so that a truncation has at most 715 generators.
# At n = 6 an instance takes up to 8 s, and at n = 5, t = 13 0.2 s.
PURE_POWER_MAX_N = 5
PURE_POWER_MAX_T = 9

# regularity() is run where the truncation has at most this many generators,
# as in criterion 5.
PURE_POWER_ORACLE_GENS = 20

# wide_ideals draws from a fixed pool of random ideals (n 9..10, 4..6
# generators, exponents 0..2) sorted by their measured check time; see
# make_wide_pool.py.  Unlike the other two families, no cheap key predicts
# an ideal's cost: at equal lcm-lattice size costs differ tenfold.  The
# family uses the WIDE_POOL_USED cheapest ideals, which take up to about
# 0.05 s each; the dearest take over 2 s.
WIDE_POOL = Path(__file__).resolve().parent / "wide_pool.json"
WIDE_POOL_USED = 200


@dataclass
class Outcome:
    """What one instance produced: the wall time of its calls into
    hyperideal, exit code, output text, and the names of claims or
    invariants it reported as failed."""

    seconds: float
    exit_code: int
    text: str
    failed_claims: list[str] = field(default_factory=list)

    def digest(self) -> str:
        return hashlib.sha256(self.text.encode("utf-8")).hexdigest()[:16]


def gate(outcome: Outcome, expected_digest: str | None) -> str | None:
    """Why the instance failed, or None when it passed.

    Every workload's instances are expected to exit 0 and report no failed
    claim.  When a digest was recorded for the instance, the output must
    also hash to it.
    """
    if outcome.exit_code != 0:
        return f"exit code {outcome.exit_code}"
    if outcome.failed_claims:
        return "claim fail: " + ",".join(outcome.failed_claims)
    if expected_digest is not None and outcome.digest() != expected_digest:
        return f"digest {outcome.digest()} != recorded {expected_digest}"
    return None


# ---------------------------------------------------------------- generation


def evenly_spaced(pool: list, count: int) -> list:
    """``count`` picks from ``pool`` at the midpoints of equal slices."""
    return [pool[(2 * i + 1) * len(pool) // (2 * count)] for i in range(count)]


def chains_family(seed: int) -> list[str]:
    """Criterion 4's draw of (n, s, d) within CHAIN_CELLS, sorted by that
    triple."""
    rng = random.Random(seed)
    pool = []
    while len(pool) < CHAIN_POOL:
        n = rng.randint(4, 7)
        s = rng.randint(2, 4)
        d = rng.choice((1, 2))
        if 2 + (s - 1) * d > n or (s, d) not in CHAIN_CELLS:
            continue
        pool.append((n, s, d, rng.randrange(2**32)))
    pool.sort(key=lambda cell: cell[:3])
    return [
        formats.dump_input(hypergraphs.random_instance(n, d, s, label_seed))
        for n, s, d, label_seed in evenly_spaced(pool, CHAINS)
    ]


def pure_powers_family(seed: int) -> list[str]:
    """Criterion 5's draw of n (up to PURE_POWER_MAX_N) and exponents a
    (up to t = PURE_POWER_MAX_T), sorted by n, by
    t = sum(a) - max(a), which set the truncation's size, and by a, which
    changes an instance's cost up to twofold within one (n, t)."""
    rng = random.Random(seed)
    pool = []
    while len(pool) < PURE_POWER_POOL:
        n = rng.randint(2, PURE_POWER_MAX_N)
        a = sorted((rng.randint(1, n - 1) for _ in range(n)), reverse=True)
        if sum(a) - a[0] <= PURE_POWER_MAX_T:
            pool.append((n, sum(a) - a[0], a))
    pool.sort()
    docs = []
    for n, _, a in evenly_spaced(pool, PURE_POWERS):
        gens = [[a[i] if j == i else 0 for j in range(n)] for i in range(n)]
        docs.append(json.dumps({"n": n, "gens": gens}, indent=2) + "\n")
    return docs


def wide_ideals_family(seed: int) -> list[str]:
    """One ideal drawn from each of WIDE_IDEALS equal slices of the
    WIDE_POOL_USED cheapest ideals of the pool."""
    rng = random.Random(seed)
    with open(WIDE_POOL, encoding="utf-8") as fh:
        pool = json.load(fh)[:WIDE_POOL_USED]
    step = len(pool) / WIDE_IDEALS
    return [
        json.dumps(rng.choice(pool[round(i * step):round((i + 1) * step)])) + "\n"
        for i in range(WIDE_IDEALS)
    ]


FAMILIES = {
    "chains": chains_family,
    "pure_powers": pure_powers_family,
    "wide_ideals": wide_ideals_family,
}


# ---------------------------------------------------------------- execution


def _run_check(path: str, extra: list[str]) -> tuple[float, int, str]:
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        start = time.perf_counter()
        code = cli.main(["check", path, *extra])
        seconds = time.perf_counter() - start
    return seconds, code, out.getvalue() + err.getvalue()


def run_chain(path: str) -> Outcome:
    """`hyperideal check FILE --format json` at characteristic 0."""
    seconds, code, text = _run_check(path, ["--format", "json"])
    try:
        claims = json.loads(text)["claims"]
    except (ValueError, KeyError, TypeError):
        return Outcome(seconds, code, text, ["unparsable report"])
    failed = [c["name"] for c in claims if c["status"] == "fail"]
    return Outcome(seconds, code, text, failed)


_FAILED_CLAIM = re.compile(r"^(\w+): fail\b", re.MULTILINE)


def run_wide_ideal(path: str) -> Outcome:
    """`hyperideal check FILE` (text report) at characteristic 0."""
    seconds, code, text = _run_check(path, [])
    return Outcome(seconds, code, text, _FAILED_CLAIM.findall(text))


def run_pure_power(path: str) -> Outcome:
    """Criterion 5's calls on one pure-power ideal x_1^a_1, ..., x_n^a_n:
    the specialised stability test, the general truncation-stability
    report at t, the truncation itself, and the regularity oracle where
    the truncation is small enough."""
    start = time.perf_counter()
    with open(path, encoding="utf-8") as fh:
        ideal = formats.parse_input(fh.read(), source=path)
    a = [sum(col) for col in zip(*(g.exponents for g in ideal.gens))]
    pure_stable = stability.pure_power_truncation_stable(a)
    t = stability.t_bound(a)
    report = stability.truncation_stability(ideal, t)
    cut = ideal.truncate(t)
    reg = None
    if len(cut.gens) <= PURE_POWER_ORACLE_GENS:
        reg = betti.regularity(cut, 0)
    seconds = time.perf_counter() - start

    broken = []
    if not pure_stable:
        broken.append("pure_power_truncation_stable")
    if not report.is_stable:
        broken.append("truncation_stability")
    if report.ideal != cut:
        broken.append("report_truncation")
    if any(g.degree() != t for g in cut.gens) or cut.deg() != t:
        broken.append("truncation_degree")
    if reg is not None and reg != t:
        broken.append("regularity_eq_t")
    witness = report.witness.render() if report.witness else ""
    text = (
        f"a={a} t={t} pure_stable={pure_stable} stable={report.is_stable} "
        f"witness={witness} reg={reg} "
        f"gens={[g.exponents for g in cut.gens]}\n"
    )
    return Outcome(seconds, 0, text, broken)


RUNNERS = {
    "chains": run_chain,
    "pure_powers": run_pure_power,
    "wide_ideals": run_wide_ideal,
}
