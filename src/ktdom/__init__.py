"""Exact k-tuple domination and k-tuple domatic invariants with certificates.

The package computes gamma_xk (minimum k-tuple dominating set), its total
variant, the k-tuple domatic number d_xk and its total variant, all with
machine-checkable witnesses, and verifies a catalogue of known bounds on
concrete instances.
"""

from .bounds import (
    CHECK_IDS,
    HOLDS,
    NOT_APPLICABLE,
    SHARP,
    VIOLATED,
    BoundsReport,
    CheckResult,
    verify_all,
)
from .domatic import (
    DomaticPartition,
    DomaticResult,
    SearchBounds,
    d_oracle,
    d_xk,
    is_domatic_partition,
    zelinka_partition,
)
from .domination import (
    DegreeGateError,
    GammaResult,
    OracleCapError,
    check_degree_gate,
    gamma_oracle,
    gamma_xk,
    is_ktuple_dominating,
    is_ktuple_dominating_by_cases,
    is_ktuple_total_dominating,
    kjoin_decomposition_exists,
)
from .graphs import (
    DuplicateEdgeWarning,
    Graph,
    GraphFormatError,
    PairingFailureError,
    clique_chain,
    complement,
    complete,
    complete_bipartite,
    cycle,
    disjoint_union,
    gnp,
    k_join,
    path,
    random_regular,
    read_graph,
    write_graph,
)
from .reports import InvariantReport, compute_invariants

__version__ = "0.1.0"

__all__ = [
    "CHECK_IDS",
    "HOLDS",
    "NOT_APPLICABLE",
    "SHARP",
    "VIOLATED",
    "BoundsReport",
    "CheckResult",
    "DegreeGateError",
    "DomaticPartition",
    "DomaticResult",
    "DuplicateEdgeWarning",
    "GammaResult",
    "Graph",
    "GraphFormatError",
    "InvariantReport",
    "OracleCapError",
    "PairingFailureError",
    "SearchBounds",
    "check_degree_gate",
    "clique_chain",
    "complement",
    "complete",
    "complete_bipartite",
    "compute_invariants",
    "cycle",
    "d_oracle",
    "d_xk",
    "disjoint_union",
    "gamma_oracle",
    "gamma_xk",
    "gnp",
    "is_domatic_partition",
    "is_ktuple_dominating",
    "is_ktuple_dominating_by_cases",
    "is_ktuple_total_dominating",
    "k_join",
    "kjoin_decomposition_exists",
    "path",
    "random_regular",
    "read_graph",
    "verify_all",
    "write_graph",
    "zelinka_partition",
    "__version__",
]
