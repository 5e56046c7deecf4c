"""3D regular bipartite lattices with no 6-cycles and only-central 4-cycles:
construction by signed 2-lifts over a voltage base graph, exact small-subgraph
census, order-6 monomer-dimer coefficient, and exact straight-line embedding.

derived_cover builds the explicit covers: the root unit graph
(build_root_unit_graph, its s = 0 cover), the full unit graphs and the tori.
BaseGraph holds the quotient base graph and its central K_{2,d}, which every
lift copies.
census counts the 4-cycles, 6-cycles and thetas of an explicit
graph and voltage_census those of the infinite lattice per cube.
"""

from .census import CensusReport, census, voltage_census
from .certify import (
    certify,
    constraint_count_formula,
    verify_certificate,
    wenger_voltage,
)
from .embed import Try, find_good_try, is_good_try, sample_try
from .entropy import (
    LatticeSummary,
    d6_coefficient,
    min_degree_for_kappa,
)
from .graphs import LabeledGraph, build_root_unit_graph
from .voltage import (
    BaseGraph,
    LiftCertificate,
    VoltageAssignment,
    build_base_graph,
    derived_cover,
    max_connected_stages,
    voltage_group_generated,
)

__all__ = [
    "BaseGraph",
    "CensusReport",
    "LabeledGraph",
    "LatticeSummary",
    "LiftCertificate",
    "Try",
    "VoltageAssignment",
    "build_base_graph",
    "build_root_unit_graph",
    "census",
    "certify",
    "constraint_count_formula",
    "d6_coefficient",
    "derived_cover",
    "find_good_try",
    "is_good_try",
    "max_connected_stages",
    "min_degree_for_kappa",
    "sample_try",
    "verify_certificate",
    "voltage_census",
    "voltage_group_generated",
    "wenger_voltage",
]
