"""Minimum biconnectivity augmentation for bipartite graphs.

Given a bipartite graph, find the smallest set of side-respecting
edges whose addition makes every connected component either an
isolated vertex or biconnected, in time linear in the graph size.

``__all__`` lists the names the README documents.  The other names
imported here are shorthands the test suite uses; everything else lives
in its own module.
"""

from .augment import AugmentationResult, augment
from .blocks import decompose, pendant_records
from .bounds import census, classify_m, eta, theorem_target
from .errors import (
    IllegalEdge,
    InvariantViolation,
    NoBiconnector,
    ParseError,
    UnknownVertex,
)
from .graph import (
    BipartiteGraph,
    add_edges,
    build_graph,
    is_legal_edge,
    parse_graph,
    serialize_graph,
)
from .matching import MatchingProfile, profile
from .stats import OpCounters
from .verify import (
    brute_force_optimal,
    check_componentwise_biconnected,
    is_componentwise_biconnected,
    verify_result,
)

__version__ = "0.1.0"

__all__ = [
    "InvariantViolation",
    "NoBiconnector",
    "OpCounters",
    "add_edges",
    "augment",
    "build_graph",
    "eta",
    "parse_graph",
    "serialize_graph",
    "theorem_target",
    "verify_result",
]
