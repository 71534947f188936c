"""Probabilistic semantic octrees with task-driven compression and planning."""

from .compression import (
    CompressedLeaf,
    CompressedTree,
    CompressionWeights,
    ExhaustiveResult,
    InfoReport,
    build_and_compress,
    compress_tree,
    count_candidate_trees,
    exhaustive_search,
    expansion_gain,
    full_tree,
    information_report,
    per_class_information,
    refresh_all,
    refresh_upward,
    weighted_gain,
)
from .infotheory import InfoIncrement, bernoulli_js, split_increments
from .octree import NodeKey, SemanticOctree, WorldConfig
from .planning import (
    UNKNOWN_CLASS,
    ColoredGraph,
    PlanQuery,
    PlanResult,
    class_ordered_astar,
    graph_from_tree,
    halton_graph,
)
from .semantics import (
    ClassRegistry,
    TruncatedSemanticDistribution,
    expand_truncated,
    fuse_observation,
    truncate_full,
)

__version__ = "0.1.0"

__all__ = [
    "ClassRegistry",
    "ColoredGraph",
    "CompressedLeaf",
    "CompressedTree",
    "CompressionWeights",
    "ExhaustiveResult",
    "InfoIncrement",
    "InfoReport",
    "NodeKey",
    "PlanQuery",
    "PlanResult",
    "SemanticOctree",
    "TruncatedSemanticDistribution",
    "UNKNOWN_CLASS",
    "WorldConfig",
    "bernoulli_js",
    "build_and_compress",
    "class_ordered_astar",
    "compress_tree",
    "count_candidate_trees",
    "exhaustive_search",
    "expand_truncated",
    "expansion_gain",
    "full_tree",
    "fuse_observation",
    "graph_from_tree",
    "halton_graph",
    "information_report",
    "per_class_information",
    "refresh_all",
    "refresh_upward",
    "split_increments",
    "truncate_full",
    "weighted_gain",
]
