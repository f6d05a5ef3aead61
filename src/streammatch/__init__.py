"""Multi-pass streaming (1+eps)-approximate maximum matching.

The engine explores alternating trees with contracted blossoms from every
free vertex in parallel, reading the input only as whole passes over an
edge stream, and banks vertex-disjoint augmenting paths.  Independent
oracles (subset DP, randomized matrix rank, path enumeration) and an
invariant checker verify runs at desk scale.
"""

from .driver import (PassCountMismatch, RunConfig, RunReport,
                     expected_pass_count, normalize_epsilon, run,
                     scale_schedule)
from .invariants import InvariantViolationError, Violation
from .matching import (Matching, augment_along, greedy_maximal_matching,
                       validate_matching)
from .phase import PhaseConfig, PhaseEngine, PhaseResult
from .stream import (EdgeStream, GraphSpec, StreamFormatError, open_stream,
                     parse_graph_spec, read_edgelist, write_edgelist)
from .structures import (Blossom, Forest, Structure, even_path_vertices,
                         lift_contracted_path)

__all__ = [
    "Blossom", "EdgeStream", "Forest", "GraphSpec",
    "InvariantViolationError", "Matching", "PassCountMismatch", "PhaseConfig",
    "PhaseEngine", "PhaseResult", "RunConfig", "RunReport",
    "StreamFormatError", "Structure", "Violation", "augment_along", "even_path_vertices",
    "expected_pass_count", "greedy_maximal_matching",
    "lift_contracted_path", "normalize_epsilon", "open_stream",
    "parse_graph_spec", "read_edgelist", "run",
    "scale_schedule", "validate_matching", "write_edgelist",
]
