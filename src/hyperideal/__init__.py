"""Monomial ideals of nested hypergraphs: Alexander duality, stability
of truncations, and exact multigraded Betti numbers at desk scale."""

from .betti import BettiTable, betti_table, euler_consistency_check, regularity
from .checks import CheckReport, ClaimResult, run_hypergraph_checks, run_ideal_checks
from .homology import GuardError
from .hypergraphs import (
    IncreasingHypergraph,
    build_hypergraph,
    canonical_vertex_order,
    containment_vector,
    covered_restriction,
    inclusion_ideal,
    random_instance,
    special_dual,
)
from .ideals import MonomialIdeal, alexander_dual, irredundant_filter
from .monomials import Monomial
from .stability import (
    StabilityReport,
    StabilityWitness,
    is_stable,
    is_stable_exhaustive,
    pure_power_truncation_stable,
    q_bound,
    t_bound,
    truncation_stability,
)

__all__ = [
    "BettiTable",
    "CheckReport",
    "ClaimResult",
    "GuardError",
    "IncreasingHypergraph",
    "Monomial",
    "MonomialIdeal",
    "StabilityReport",
    "StabilityWitness",
    "alexander_dual",
    "betti_table",
    "build_hypergraph",
    "canonical_vertex_order",
    "containment_vector",
    "covered_restriction",
    "euler_consistency_check",
    "inclusion_ideal",
    "irredundant_filter",
    "is_stable",
    "is_stable_exhaustive",
    "pure_power_truncation_stable",
    "q_bound",
    "random_instance",
    "regularity",
    "run_hypergraph_checks",
    "run_ideal_checks",
    "special_dual",
    "t_bound",
    "truncation_stability",
]

__version__ = "0.1.0"
