"""Zero-forcing and edge-forcing toolkit for graphs and butterfly networks."""

__version__ = "0.1.0"

from .graph import (Graph, GraphError, from_edges,  # noqa: E402
                    matching_diagnostic, matchings_of_size)
from .engine import (ClosureResult, ForcingTrace, closure,  # noqa: E402
                     is_edge_forcing_set, is_zero_forcing_set)
from .butterfly import build_butterfly, subcopy_vertex  # noqa: E402
from .solver import (InstanceTooLarge, Verdict,  # noqa: E402
                     min_edge_forcing, min_zero_forcing)
from .constructions import (BoundsReport, ConstructionError,  # noqa: E402
                            Obstruction, construct_edge_forcing,
                            find_obstructions, known_bounds,
                            structural_lower_bound)
from .reduction import (build_gbar, lift_zero_forcing,  # noqa: E402
                        normalize_and_project)
from .certificates import (Certificate, emit_certificate,  # noqa: E402
                           parse_certificate, parse_graph, verify_certificate)

__all__ = [
    "Graph", "GraphError", "from_edges", "matching_diagnostic",
    "matchings_of_size",
    "ClosureResult", "ForcingTrace", "closure", "is_edge_forcing_set",
    "is_zero_forcing_set",
    "build_butterfly", "subcopy_vertex",
    "InstanceTooLarge", "Verdict", "min_edge_forcing", "min_zero_forcing",
    "BoundsReport", "ConstructionError", "Obstruction",
    "construct_edge_forcing", "find_obstructions", "known_bounds",
    "structural_lower_bound",
    "build_gbar", "lift_zero_forcing", "normalize_and_project",
    "Certificate", "emit_certificate", "parse_certificate", "parse_graph",
    "verify_certificate",
]
