"""forceps: exact leak-robust zero forcing on small graphs.

Graphs live on at most 64 vertices with bitset adjacency.  The package
computes standard and positive semidefinite forcing closures under leaks,
exact leak-robust forcing numbers with witnesses, minimal fort families
with hitting-set cross checks, family value tables, and edge-deletion
scans over graph6 streams.
"""

from ._core import BACKEND as KERNEL_BACKEND
from .errors import AuditFailure, ForcepsError, GuardError
from .families import FamilySpec, generate
from .forcing import (
    ColoringState,
    Force,
    LeakyVerdict,
    Rule,
    closure,
    distinct_forcers,
    force_candidates,
    is_ell_leaky_forcing_set,
    is_forcing_set,
    one_leaky_criterion,
    possible_forces,
)
from .forts import (
    fort_from_failure,
    hitting_number,
    is_connected_fort_standard,
    is_leaky_psd_fort,
    minimal_forts,
)
from .graph6 import Graph6Error, from_graph6, to_graph6
from .graphs import (
    MAX_VERTICES,
    Graph,
    VertexSet,
    cartesian_product,
    connected_components,
    delete_edge,
    induced_subgraph,
    relabel,
)
from .solve import (
    FamilyRow,
    ScanRecord,
    ScanSummary,
    SolveResult,
    SolveStats,
    default_suite,
    edge_deletion_scan,
    expected_value,
    family_table,
    leaky_number,
    monotonicity_audit,
)

__version__ = "0.1.0"

__all__ = [
    "AuditFailure",
    "ColoringState",
    "FamilyRow",
    "FamilySpec",
    "Force",
    "ForcepsError",
    "Graph",
    "Graph6Error",
    "GuardError",
    "KERNEL_BACKEND",
    "LeakyVerdict",
    "MAX_VERTICES",
    "Rule",
    "ScanRecord",
    "ScanSummary",
    "SolveResult",
    "SolveStats",
    "VertexSet",
    "cartesian_product",
    "closure",
    "connected_components",
    "default_suite",
    "delete_edge",
    "distinct_forcers",
    "edge_deletion_scan",
    "expected_value",
    "family_table",
    "force_candidates",
    "fort_from_failure",
    "from_graph6",
    "generate",
    "hitting_number",
    "induced_subgraph",
    "is_connected_fort_standard",
    "is_ell_leaky_forcing_set",
    "is_forcing_set",
    "is_leaky_psd_fort",
    "leaky_number",
    "minimal_forts",
    "monotonicity_audit",
    "one_leaky_criterion",
    "possible_forces",
    "relabel",
    "to_graph6",
]
