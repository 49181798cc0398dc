"""Monomial ideals of nested hypergraphs: Alexander duality, stability
of truncations, and exact multigraded Betti numbers at desk scale."""

from .betti import BettiTable, betti_table, euler_consistency_check, lcm_lattice, regularity
from .checks import CheckReport, ClaimResult, run_hypergraph_checks, run_ideal_checks
from .homology import GuardError, SimplicialComplex, matrix_rank
from .hypergraphs import (
    IncreasingHypergraph,
    build_hypergraph,
    canonical_vertex_order,
    containment_vector,
    covered_restriction,
    inclusion_ideal,
    random_instance,
    restricted_dual,
    special_dual,
)
from .ideals import (
    IrreducibleComponent,
    MonomialIdeal,
    alexander_dual,
    dual_components,
    intersect_components,
    irredundant_filter,
    minimal_generators,
)
from .monomials import Monomial, compositions
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
    "IrreducibleComponent",
    "Monomial",
    "MonomialIdeal",
    "SimplicialComplex",
    "StabilityReport",
    "StabilityWitness",
    "alexander_dual",
    "betti_table",
    "build_hypergraph",
    "canonical_vertex_order",
    "compositions",
    "containment_vector",
    "covered_restriction",
    "dual_components",
    "euler_consistency_check",
    "inclusion_ideal",
    "intersect_components",
    "irredundant_filter",
    "is_stable",
    "is_stable_exhaustive",
    "lcm_lattice",
    "matrix_rank",
    "minimal_generators",
    "pure_power_truncation_stable",
    "q_bound",
    "random_instance",
    "regularity",
    "restricted_dual",
    "run_hypergraph_checks",
    "run_ideal_checks",
    "special_dual",
    "t_bound",
    "truncation_stability",
]

__version__ = "0.1.0"
