"""Workbench for spectral extremal analysis of theta-free graphs of fixed size."""

from .canon import (
    automorphism_generators,
    canonical_form,
    canonical_label,
    canonical_order,
)
from .enumeration import (
    BudgetError,
    DEFAULT_EDGE_BUDGET,
    ExtremalRecord,
    canonical_edge,
    enumerate_by_edges,
    enumerate_by_order,
    extremal_search,
)
from .graph6 import from_graph6, to_graph6
from .graphs import (
    MAX_N,
    Graph,
    book,
    complete,
    complete_bipartite,
    complete_minus_edge,
    cycle,
    family,
    path,
    star,
    star_plus_edge,
)
from .spectral import (
    ConvergenceError,
    SpectralResult,
    check_nosal,
    spectral_radius,
)
from .theta import (
    ThetaSpec,
    contains_theta,
    theta_graph,
    validate_witness,
)
from .verify import (
    bound_value,
    certificate_holds,
    check_lemma_conclusions,
    decompose,
    eigen_identity_check,
    extremal_table,
    extremal_vertex,
    inequality_one_check,
    is_book,
    verify_theorem_instance,
)

__version__ = "0.1.0"

__all__ = [
    "BudgetError",
    "ConvergenceError",
    "DEFAULT_EDGE_BUDGET",
    "ExtremalRecord",
    "Graph",
    "MAX_N",
    "SpectralResult",
    "ThetaSpec",
    "automorphism_generators",
    "book",
    "bound_value",
    "canonical_edge",
    "canonical_form",
    "canonical_label",
    "canonical_order",
    "certificate_holds",
    "check_lemma_conclusions",
    "check_nosal",
    "complete",
    "complete_bipartite",
    "complete_minus_edge",
    "contains_theta",
    "cycle",
    "decompose",
    "eigen_identity_check",
    "enumerate_by_edges",
    "enumerate_by_order",
    "extremal_search",
    "extremal_table",
    "extremal_vertex",
    "family",
    "from_graph6",
    "inequality_one_check",
    "is_book",
    "path",
    "spectral_radius",
    "star",
    "star_plus_edge",
    "theta_graph",
    "to_graph6",
    "validate_witness",
    "verify_theorem_instance",
]
