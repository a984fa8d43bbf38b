"""Exact combinatorics of matching Kneser graphs.

Construct matching Kneser graphs, compute chromatic numbers and generalized
Turán numbers exactly (with machine-checkable certificates), generate the
prescribed-gap graph families, and verify every claimed identity at desk
scale.
"""

from .coloring import (
    ChiCertificate,
    chromatic_number,
    greedy_clique,
    is_k_colorable,
    lovasz_chi,
)
from .errors import (
    Deadline,
    GraphConstructionError,
    KneserSizeError,
    ParameterError,
    SearchTimeout,
    VerificationError,
)
from .families import FamilyParams, gap_graph, gap_tree, matching_graph, petersen
from .graphs import (
    Edge,
    LabeledGraph,
    Matching,
    enumerate_matchings,
    first_matching,
    has_r_matching,
    is_connected,
    is_tree,
    make_graph,
    matching_number,
    radius,
    read_edgelist,
    remove_edges,
    write_edgelist,
)
from .homcert import (
    FamilyCertification,
    HomWitness,
    backward_map,
    certify_family,
    colex_rank,
    forward_map,
)
from .kneser import MatchingKneserGraph, build_matching_kneser, kneser_graph, r_subsets
from .report import GapReport, gap_report, reports_table, sequence_report
from .turan import DeletionCertificate, generalized_turan, min_deletion_set

__version__ = "0.1.0"

__all__ = [
    "ChiCertificate",
    "Deadline",
    "DeletionCertificate",
    "Edge",
    "FamilyCertification",
    "FamilyParams",
    "GapReport",
    "GraphConstructionError",
    "HomWitness",
    "KneserSizeError",
    "LabeledGraph",
    "Matching",
    "MatchingKneserGraph",
    "ParameterError",
    "SearchTimeout",
    "VerificationError",
    "backward_map",
    "build_matching_kneser",
    "certify_family",
    "chromatic_number",
    "colex_rank",
    "enumerate_matchings",
    "first_matching",
    "forward_map",
    "gap_graph",
    "gap_report",
    "gap_tree",
    "generalized_turan",
    "greedy_clique",
    "has_r_matching",
    "is_connected",
    "is_k_colorable",
    "is_tree",
    "kneser_graph",
    "lovasz_chi",
    "make_graph",
    "matching_graph",
    "matching_number",
    "min_deletion_set",
    "petersen",
    "r_subsets",
    "radius",
    "read_edgelist",
    "remove_edges",
    "reports_table",
    "sequence_report",
    "write_edgelist",
]
