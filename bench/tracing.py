"""Layer tracing from outside the package.

``Tracer.installed()`` replaces public soct functions and methods, the ones
callers look up at call time, with wrappers: coarse calls become spans
(name, parent span, start, end) kept in memory; hot calls only bump a
counter, since a span per call would cost more than the call. Self time of
a span is its duration minus the durations of its direct child spans.
"""

from __future__ import annotations

import contextlib
import functools
import json
import os
import time
from collections import Counter, defaultdict

from soct import cli, compression, formats, octree, planning
from soct.octree import SemanticOctree
from soct.planning import ColoredGraph

# (owner, attribute, span name); generators are timed per next() call.
SPANS = (
    (cli, "main", "cli"),
    (formats, "ingest", "formats.ingest"),
    (formats, "serialize_tree", "formats.serialize"),
    (formats, "deserialize_tree", "formats.deserialize"),
    (SemanticOctree, "add_observation", "octree.add_observation"),
    (SemanticOctree, "expand_summaries", "octree.expand_summaries"),
    (compression, "refresh_all", "compression.refresh_all"),
    (compression, "refresh_upward", "compression.refresh_upward"),
    (compression, "compress_tree", "compression.compress_tree"),
    (compression, "information_report", "compression.information_report"),
    (compression, "per_class_information", "compression.per_class_information"),
    (compression, "full_tree", "compression.full_tree"),
    (planning, "graph_from_tree", "planning.graph_from_tree"),
    (planning, "halton_graph", "planning.halton_graph"),
    (planning, "class_ordered_astar", "planning.astar"),
)

# (owner, attribute, counter name)
COUNTERS = (
    (SemanticOctree, "conditional", "octree.conditional_calls"),
    (octree, "expand_truncated", "semantics.expand_truncated_calls"),
    (octree, "fuse_observation", "semantics.fuse_calls"),
    (compression, "split_increments", "infotheory.split_increments_calls"),
    (ColoredGraph, "neighbors", "planning.astar_expansions"),
    (planning, "class_at", "planning.color_samples"),
    (planning, "octree_class_at", "planning.halton_color_samples"),
)


class Tracer:
    def __init__(self):
        self.spans: list[tuple[str, int, float, float]] = []
        self.counts: Counter = Counter()
        self._stack: list[int] = []

    def _open(self, name: str) -> int:
        self.spans.append((name, self._stack[-1] if self._stack else -1,
                           time.perf_counter(), 0.0))
        self._stack.append(len(self.spans) - 1)
        return self._stack[-1]

    def _close(self, i: int) -> None:
        self._stack.pop()
        name, parent, start, _ = self.spans[i]
        self.spans[i] = (name, parent, start, time.perf_counter())

    def _span(self, name: str, fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            i = self._open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self._close(i)
            self._observe(name, args, result)
            return result
        return wrapper

    def _generator_span(self, name: str, fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            on_error = kwargs.get("on_error")
            if on_error is not None:
                def count_error(lineno, msg):
                    self.counts["formats.records_rejected"] += 1
                    on_error(lineno, msg)
                kwargs["on_error"] = count_error
            inner = fn(*args, **kwargs)
            while True:
                i = self._open(name)
                try:
                    record = next(inner)
                except StopIteration:
                    return
                finally:
                    self._close(i)
                self.counts["formats.records_parsed"] += 1
                yield record
        return wrapper

    def _counter(self, name: str, fn):
        counts = self.counts

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            counts[name] += 1
            return fn(*args, **kwargs)
        return wrapper

    def _observe(self, name: str, args, result) -> None:
        """Counts read off a traced call's arguments and result."""
        if name == "formats.serialize":
            self.counts["formats.tree_bytes"] += os.path.getsize(args[1])
        elif name == "compression.compress_tree":
            self.counts["compression.kept_leaves"] += result.num_leaves
            self.counts["compression.expanded_nodes"] += len(result.expanded)
        elif name == "planning.graph_from_tree":
            self.counts["planning.graph_vertices"] += result.num_vertices
            self.counts["planning.graph_edges"] += len(result.edges)
        elif name == "planning.astar":
            self.counts["planning.astar_queries"] += 1

    @contextlib.contextmanager
    def installed(self):
        saved = []
        try:
            for owner, attr, name in SPANS:
                saved.append((owner, attr, owner.__dict__[attr]))
                wrap = self._generator_span if attr == "ingest" else self._span
                setattr(owner, attr, wrap(name, getattr(owner, attr)))
            for owner, attr, name in COUNTERS:
                saved.append((owner, attr, owner.__dict__[attr]))
                setattr(owner, attr, self._counter(name, getattr(owner, attr)))
            yield self
        finally:
            for owner, attr, original in reversed(saved):
                setattr(owner, attr, original)

    def self_times(self) -> dict[str, float]:
        child = [0.0] * len(self.spans)
        for name, parent, start, end in self.spans:
            if parent >= 0:
                child[parent] += end - start
        out: dict[str, float] = defaultdict(float)
        for i, (name, _, start, end) in enumerate(self.spans):
            out[name] += (end - start) - child[i]
        return dict(out)

    def write(self, path: str) -> None:
        """All spans as JSON lines: name, parent index, start, end."""
        with open(path, "w", encoding="utf-8") as fh:
            for name, parent, start, end in self.spans:
                fh.write(json.dumps([name, parent, start, end]) + "\n")


def layer_metrics(tracer: Tracer, stored: tuple[int, int]) -> dict[str, float]:
    """Per-layer metrics of one traced phase, by the benchmark's names."""
    t = tracer.self_times()
    c = tracer.counts
    nodes, leaves = stored
    queries = c["planning.astar_queries"]
    edges = c["planning.graph_edges"]
    return {
        "formats.ingest_s": t.get("formats.ingest", 0.0),
        "formats.records_parsed": c["formats.records_parsed"],
        "formats.records_rejected": c["formats.records_rejected"],
        "formats.serialize_s": t.get("formats.serialize", 0.0),
        "formats.tree_bytes": c["formats.tree_bytes"],
        "formats.deserialize_s": t.get("formats.deserialize", 0.0),
        "octree.add_observation_s": t.get("octree.add_observation", 0.0),
        "octree.add_observation_calls": sum(
            1 for s in tracer.spans if s[0] == "octree.add_observation"),
        "semantics.fuse_calls": c["semantics.fuse_calls"],
        "octree.conditional_calls": c["octree.conditional_calls"],
        "semantics.expand_truncated_calls": c["semantics.expand_truncated_calls"],
        "semantics.expand_truncated_per_leaf":
            c["semantics.expand_truncated_calls"] / leaves if leaves else 0.0,
        "octree.expand_summaries_s": t.get("octree.expand_summaries", 0.0),
        "octree.stored_nodes": nodes,
        "octree.stored_leaves": leaves,
        "compression.refresh_all_s": t.get("compression.refresh_all", 0.0),
        "compression.refresh_upward_s": t.get("compression.refresh_upward", 0.0),
        "compression.compress_tree_s": t.get("compression.compress_tree", 0.0),
        "compression.kept_leaves": c["compression.kept_leaves"],
        "compression.expanded_nodes": c["compression.expanded_nodes"],
        "compression.information_report_s": t.get("compression.information_report", 0.0),
        "compression.per_class_information_s":
            t.get("compression.per_class_information", 0.0),
        "compression.full_tree_s": t.get("compression.full_tree", 0.0),
        "infotheory.split_increments_calls": c["infotheory.split_increments_calls"],
        "planning.graph_from_tree_s": t.get("planning.graph_from_tree", 0.0),
        "planning.color_samples": c["planning.color_samples"],
        "planning.color_samples_per_edge":
            c["planning.color_samples"] / edges if edges else 0.0,
        "planning.graph_vertices": c["planning.graph_vertices"],
        "planning.graph_edges": edges,
        "planning.halton_graph_s": t.get("planning.halton_graph", 0.0),
        "planning.halton_color_samples": c["planning.halton_color_samples"],
        "planning.astar_s": t.get("planning.astar", 0.0),
        "planning.astar_expansions": c["planning.astar_expansions"],
        "planning.astar_expansions_per_query":
            c["planning.astar_expansions"] / queries if queries else 0.0,
        "cli.self_s": t.get("cli", 0.0),
    }
