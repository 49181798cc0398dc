import pytest

import hyperideal
from hyperideal import BettiTable, Monomial, MonomialIdeal, StabilityReport, formats, hypergraphs


def test_every_exported_name_resolves():
    assert len(set(hyperideal.__all__)) == len(hyperideal.__all__)
    missing = [name for name in hyperideal.__all__ if not hasattr(hyperideal, name)]
    assert missing == []


@pytest.mark.parametrize(
    "owner, name",
    [
        (Monomial, "unit"),
        (Monomial, "variable"),
        (Monomial, "lcm"),
        (Monomial, "times"),
        (Monomial, "sort_key"),
        (Monomial, "_require_same_ambient"),
        (MonomialIdeal, "zero"),
        (MonomialIdeal, "unit_ideal"),
        (MonomialIdeal, "support"),
        (hyperideal, "minimal_generators"),
        (hyperideal.ideals, "minimal_generators"),
        (hypergraphs, "is_canonical"),
        (formats, "hypergraph_to_dict"),
        (formats, "ideal_to_dict"),
        (BettiTable, "total"),
        (hyperideal.ideals, "IrreducibleComponent"),
        (hyperideal.ideals, "intersect_components"),
        (hyperideal.ideals, "dual_components"),
        (Monomial, "support"),
        (Monomial, "stability_shift"),
        (Monomial, "divides"),
        (hyperideal, "compositions"),
        (MonomialIdeal, "from_exponents"),
        (Monomial, "_trusted"),
        (Monomial, "of"),
        (Monomial, "is_unit"),
        (Monomial, "n"),
        (Monomial, "__post_init__"),
        (hypergraphs, "restricted_dual"),
        (hyperideal, "matrix_rank"),
        (hyperideal, "SimplicialComplex"),
        (hyperideal.homology, "_boundary_matrix"),
        (hyperideal.betti, "_representative"),
        (StabilityReport, "render"),
        (hyperideal, "lcm_lattice"),
        (hyperideal.homology, "_rank"),
    ],
)
def test_removed_names_stay_gone(owner, name):
    assert not hasattr(owner, name)
    assert not hasattr(hyperideal, name)
    assert name not in hyperideal.__all__
