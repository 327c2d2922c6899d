"""Minimum biconnectivity augmentation for bipartite graphs.

Given a bipartite graph, find the smallest set of side-respecting
edges whose addition makes every connected component either an
isolated vertex or biconnected, in time linear in the graph size.
"""

from .augment import AugmentationResult, augment
from .blocks import BlockTree, decompose, pendant_records, tree_to_dot
from .bounds import ComponentCensus, census, classify_m, eta, theorem_target
from .errors import (
    BipartitenessViolation,
    CapExceeded,
    ClingPartitionViolation,
    GraphError,
    IllegalEdge,
    InvariantViolation,
    NoBiconnector,
    NoCrossPair,
    ParseError,
    UnknownVertex,
)
from .graph import (
    BipartiteGraph,
    add_edges,
    build_graph,
    generate_instance,
    is_legal_edge,
    parse_graph,
    serialize_graph,
)
from .matching import MatchingProfile, maximum_legal_matching, pick_cross_pair, profile
from .stats import OpCounters
from .verify import (
    VerifyReport,
    brute_force_optimal,
    check_componentwise_biconnected,
    is_componentwise_biconnected,
    verify_result,
)

__version__ = "0.1.0"

__all__ = [
    "AugmentationResult",
    "BipartiteGraph",
    "BipartitenessViolation",
    "BlockTree",
    "CapExceeded",
    "ClingPartitionViolation",
    "ComponentCensus",
    "GraphError",
    "IllegalEdge",
    "InvariantViolation",
    "MatchingProfile",
    "NoBiconnector",
    "NoCrossPair",
    "OpCounters",
    "ParseError",
    "UnknownVertex",
    "VerifyReport",
    "add_edges",
    "augment",
    "brute_force_optimal",
    "build_graph",
    "census",
    "check_componentwise_biconnected",
    "classify_m",
    "decompose",
    "eta",
    "generate_instance",
    "is_componentwise_biconnected",
    "is_legal_edge",
    "maximum_legal_matching",
    "parse_graph",
    "pendant_records",
    "pick_cross_pair",
    "profile",
    "serialize_graph",
    "theorem_target",
    "tree_to_dot",
    "verify_result",
    "__version__",
]
