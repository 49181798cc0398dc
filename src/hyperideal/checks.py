"""Claim suite for nested-hypergraph ideals.

Each structural property of the pipeline (generator bounds, chain of
associated primes, stability of truncations, the two regularity bounds)
becomes one named claim with a pass/fail status and a witness on
failure.  Reports render deterministically so they can serve as golden
files.
"""

from __future__ import annotations

from dataclasses import dataclass

from .betti import betti_table, euler_consistency_check
from .homology import GuardError, validate_characteristic
from .hypergraphs import IncreasingHypergraph, special_dual
from .ideals import MonomialIdeal, alexander_dual, component_str, irredundant_filter
from .monomials import Monomial, divides_any
from .stability import is_stable, pure_power_truncation_stable, q_bound, t_bound, truncation_stability

PASS = "pass"
FAIL = "fail"
NA = "n/a"
SKIPPED = "skipped"

HYPERGRAPH_CLAIMS = (
    "generators_bounded_by_containment",
    "inclusion_ideal_minimal",
    "associated_primes_chain",
    "component_truncations_stable",
    "dual_involution",
    "dual_truncation_stable",
    "deg_le_t",
    "t_le_q",
    "regularity_le_t",
    "regularity_lt_q",
    "euler_consistency",
)


@dataclass(frozen=True)
class ClaimResult:
    name: str
    status: str
    detail: str

    def render(self) -> str:
        return f"{self.name}: {self.status} ({self.detail})"


@dataclass
class CheckReport:
    source: str
    kind: str
    values: dict
    claims: list[ClaimResult]

    def claim(self, name: str) -> ClaimResult:
        for c in self.claims:
            if c.name == name:
                return c
        raise KeyError(name)

    def counts(self) -> dict[str, int]:
        out = {PASS: 0, FAIL: 0, NA: 0, SKIPPED: 0}
        for c in self.claims:
            out[c.status] += 1
        return out

    def exit_status(self) -> int:
        counts = self.counts()
        if counts[FAIL]:
            return 1
        if counts[SKIPPED]:
            return 3
        return 0

    def to_text(self) -> str:
        v = self.values
        lines = [f"check: {self.source}", f"kind: {self.kind}"]
        if self.kind == "hypergraph":
            lines.append(f"n={v['n']} d={v['d']} s={v['s']}")
            lines.append("a=[" + ",".join(str(e) for e in v["a"]) + "]")
            lines.append(f"ideal: {v['ideal']}")
            lines.append(f"dual: {v['dual']}")
            lines.append(f"components: {v['components']}")
            lines.append(f"deg={v['deg']} m={v['m']}")
            lines.append(f"t={v['t']} q={v['q']} t_edge_indexed={v['t_edge_indexed']}")
        else:
            lines.append(f"n={v['n']}")
            lines.append(f"gens: {v['gens']}")
            lines.append(f"deg={v['deg']} m={v['m']} q={v['q']}")
            lines.append(f"stable: {'yes' if v['stable'] else 'no'}")
            if v.get("witness"):
                lines.append(v["witness"])
        if v["reg"] is None:
            lines.append(f"reg=skipped (char {v['char']})")
        else:
            lines.append(f"reg={v['reg']} (char {v['char']})")
        if self.kind == "hypergraph":
            lines.append(f"restricted: {'yes' if v['restricted'] else 'no'}")
        lines.extend(c.render() for c in self.claims)
        counts = self.counts()
        lines.append(
            f"result: {counts[PASS]} pass, {counts[FAIL]} fail, "
            f"{counts[NA]} n/a, {counts[SKIPPED]} skipped"
        )
        return "\n".join(lines)

    def to_json_dict(self) -> dict:
        return {
            "source": self.source,
            "kind": self.kind,
            "values": dict(self.values),
            "claims": [
                {"name": c.name, "status": c.status, "detail": c.detail}
                for c in self.claims
            ],
            "exit": self.exit_status(),
        }


def _verdict(name: str, ok: bool, good: str, bad: str) -> ClaimResult:
    return ClaimResult(name, PASS if ok else FAIL, good if ok else bad)


def _regularity_oracle(
    ideal: MonomialIdeal, char: int, skip_reg: bool
) -> tuple[int | None, str, ClaimResult]:
    """Run the Betti oracle on ``ideal`` unless the flag says not to; a
    guard the Betti layer raises becomes the skip reason.  Returns the
    regularity (None when skipped), the reason it was skipped, and the
    euler_consistency claim."""
    if skip_reg:
        reason = "regularity oracle disabled by flag"
    else:
        try:
            table = betti_table(ideal, char)
        except GuardError as exc:
            reason = str(exc)
        else:
            ok, mismatches = euler_consistency_check(ideal, table)
            euler = _verdict(
                "euler_consistency",
                ok,
                "alternating sums match at every lattice point",
                f"mismatch at {len(mismatches)} multidegrees, first {list(mismatches[0]) if mismatches else ''}",
            )
            return table.regularity(), "", euler
    return None, reason, ClaimResult("euler_consistency", SKIPPED, reason)


def run_hypergraph_checks(
    h: IncreasingHypergraph,
    char: int = 0,
    skip_reg: bool = False,
    source: str = "<memory>",
) -> CheckReport:
    """Evaluate every claim the pipeline makes about one hypergraph.

    One :func:`special_dual` call gives every quantity read here.  Those
    that depend on the variable order (stability, q, the regularity
    oracle's input) are computed on its ``dual_r``; the claims on the
    inclusion ideal and the components, and the display values, keep the
    input labeling.  A bad ``char`` is refused before any of it.
    """
    validate_characteristic(char)
    sd = special_dual(h)
    a, ideal, dual_r = sd.a, sd.ideal, sd.dual_r

    t = t_bound(a)
    q = q_bound(dual_r)
    deg = dual_r.deg()
    m = dual_r.max_index()
    a_desc = sorted(a, reverse=True)
    t_edge_indexed = sum(a_desc[1 : h.s])

    claims: list[ClaimResult] = []

    exps = ideal._exps
    offenders = [g for g in exps if not divides_any((g,), a)]
    claims.append(
        _verdict(
            "generators_bounded_by_containment",
            not offenders,
            f"{len(exps)} generators divide x^a",
            f"{Monomial(offenders[0]) if offenders else ''} does not divide x^a",
        )
    )

    pairwise = not any(divides_any(exps[:i] + exps[i + 1 :], w) for i, w in enumerate(exps))
    claims.append(
        _verdict(
            "inclusion_ideal_minimal",
            pairwise and len(exps) == h.s,
            f"{h.s} pairwise incomparable generators",
            "a generator divides another or the count is off",
        )
    )

    irredundant = irredundant_filter(sd.comps)
    supports = {frozenset(i for i, p in enumerate(v, 1) if p) for v in irredundant}
    # The edges of an IncreasingHypergraph are nested, so equal sets form a chain.
    claims.append(
        _verdict(
            "associated_primes_chain",
            supports == set(h.edges),
            f"{len(irredundant)} primes match the edge chain",
            "supports differ from the edge chain or are not nested",
        )
    )

    # The dual's truncation is the only one listed, so only it can meet
    # the truncation guard; the component claim walks each box instead.
    trunc_report = truncation_stability(dual_r, t)

    # Component i carries the powers i, i-1, ..., 1 on |E_i| >= i+1
    # vertices, so it meets the pure-power hypothesis; canonical vertex
    # order lists them descending.
    component_exps = [tuple(sorted(filter(None, v), reverse=True)) for v in sd.comps]
    component_ts = ",".join(str(t_bound(exps)) for exps in component_exps)
    claims.append(
        _verdict(
            "component_truncations_stable",
            all(map(pure_power_truncation_stable, component_exps)),
            f"component t values {component_ts}",
            "a component's truncation is not stable",
        )
    )

    claims.append(
        _verdict(
            "dual_involution",
            alexander_dual(sd.dual, a) == ideal,
            "double dual returns the inclusion ideal",
            "double dual differs from the inclusion ideal",
        )
    )

    stable_at_t = trunc_report.is_stable
    claims.append(
        _verdict(
            "dual_truncation_stable",
            stable_at_t,
            f"dual truncated at t={t} is stable",
            trunc_report.witness.render() if trunc_report.witness else "unstable",
        )
    )

    claims.append(
        _verdict("deg_le_t", deg <= t, f"deg={deg} <= t={t}", f"deg={deg} > t={t}")
    )
    claims.append(
        _verdict("t_le_q", t <= q, f"t={t} <= q={q}", f"t={t} > q={q}")
    )

    reg, guard_message, euler = _regularity_oracle(dual_r, char, skip_reg)
    if reg is None:
        claims.append(ClaimResult("regularity_le_t", SKIPPED, guard_message))
        claims.append(ClaimResult("regularity_lt_q", SKIPPED, guard_message))
    else:
        claims.append(
            _verdict(
                "regularity_le_t", reg <= t, f"reg={reg} <= t={t}", f"reg={reg} > t={t}"
            )
        )
        if deg == 1:
            claims.append(
                ClaimResult(
                    "regularity_lt_q",
                    NA,
                    "strict bound degenerates for ideals generated in degree 1",
                )
            )
        else:
            claims.append(
                _verdict(
                    "regularity_lt_q",
                    reg < q,
                    f"reg={reg} < q={q}",
                    f"reg={reg} >= q={q}",
                )
            )

    claims.append(euler)

    values = {
        "n": h.n,
        "d": h.d,
        "s": h.s,
        "a": list(a),
        "ideal": str(ideal),
        "dual": str(sd.dual),
        "components": " | ".join(map(component_str, sd.comps)),
        "deg": deg,
        "m": m,
        "t": t,
        "q": q,
        "t_edge_indexed": t_edge_indexed,
        "reg": reg,
        "char": char,
        "restricted": dual_r.n < h.n,
        "stable_at_t": stable_at_t,
    }
    return CheckReport(source, "hypergraph", values, claims)


def run_ideal_checks(
    ideal: MonomialIdeal,
    char: int = 0,
    skip_reg: bool = False,
    source: str = "<memory>",
) -> CheckReport:
    """Ideal-level subset of the suite for inputs with no hypergraph
    structure.  Hypergraph-only claims are reported as not applicable.
    A bad ``char`` is refused before any work."""
    validate_characteristic(char)
    cap = tuple(map(max, zip(*ideal._exps)))
    dual = alexander_dual(ideal, cap)
    stability = is_stable(ideal)

    involution = _verdict(
        "dual_involution",
        alexander_dual(dual, cap) == ideal,
        "double dual with the exponent cap returns the ideal",
        "double dual differs from the ideal",
    )
    reg, _, euler = _regularity_oracle(ideal, char, skip_reg)

    special = {"dual_involution": involution, "euler_consistency": euler}
    claims = [
        special.get(name, ClaimResult(name, NA, "requires a hypergraph instance"))
        for name in HYPERGRAPH_CLAIMS
    ]

    values = {
        "n": ideal.n,
        "gens": str(ideal),
        "deg": ideal.deg(),
        "m": ideal.max_index(),
        "q": q_bound(ideal),
        "stable": stability.is_stable,
        "witness": stability.witness.render() if stability.witness else "",
        "reg": reg,
        "char": char,
    }
    return CheckReport(source, "ideal", values, claims)


BENCH_COLUMNS = (
    "instance_id",
    "n",
    "s",
    "d",
    "t",
    "q",
    "deg",
    "m",
    "reg",
    "reg_le_t",
    "t_le_q",
    "stable_at_t",
    "ass_chain",
)


def bench_row(instance_id: int, report: CheckReport) -> dict:
    """One flat result row per instance for the bench sweep, read from the
    instance's hypergraph report; blank cells mark quantities the oracle
    guard skipped."""
    v = report.values

    def cell(name: str) -> str:
        status = report.claim(name).status
        if status == PASS:
            return "true"
        if status == FAIL:
            return "false"
        return ""

    return {
        "instance_id": instance_id,
        "n": v["n"],
        "s": v["s"],
        "d": v["d"],
        "t": v["t"],
        "q": v["q"],
        "deg": v["deg"],
        "m": v["m"],
        "reg": "" if v["reg"] is None else v["reg"],
        "reg_le_t": cell("regularity_le_t"),
        "t_le_q": cell("t_le_q"),
        "stable_at_t": "true" if v["stable_at_t"] else "false",
        "ass_chain": cell("associated_primes_chain"),
    }
