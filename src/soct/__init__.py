"""Probabilistic semantic octrees with task-driven compression and planning.

Each public name is declared once, under its home module in ``_EXPORTS``,
and resolves on first use (PEP 562): reading it imports that module and
stores the name here. ``import soct`` loads no submodule, so a command that
never plans loads neither ``soct.planning`` nor scipy.
"""

import importlib

__version__ = "0.1.0"

_EXPORTS = {
    "compression": ("CompressedLeaf", "CompressedTree", "CompressionWeights", "ExhaustiveResult",
                    "InfoReport", "build_and_compress", "compress_tree", "count_candidate_trees",
                    "exhaustive_search", "expansion_gain", "full_tree", "information_report",
                    "per_class_information", "refresh_all", "refresh_upward", "weighted_gain"),
    "infotheory": ("InfoIncrement", "bernoulli_js", "split_increments"),
    "octree": ("NodeKey", "SemanticOctree", "WorldConfig"),
    "planning": ("ColoredGraph", "PlanQuery", "PlanResult", "class_ordered_astar",
                 "graph_from_tree", "halton_graph"),
    "semantics": ("UNKNOWN_CLASS", "ClassRegistry", "TruncatedSemanticDistribution",
                  "expand_truncated", "fuse_observation", "truncate_full"),
}
_HOME = {name: module for module, names in _EXPORTS.items() for name in names}
__all__ = sorted(_HOME)


def __getattr__(name):
    if name not in _HOME:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = globals()[name] = getattr(importlib.import_module(f"soct.{_HOME[name]}"), name)
    return value


def __dir__():
    return sorted({*globals(), *__all__})
