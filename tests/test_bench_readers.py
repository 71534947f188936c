"""The benchmark's untimed checks read soct trees through ``Node``,
compressed trees through their ``leaves`` and ``kept`` views and graphs
through ``ColoredGraph.edges``.

``bench/reference.check_halton_graph`` reads each node's ``dist`` fields,
and ``cache_mismatches`` deep-copies a streamed tree and compares its
caches with a batch rebuild. ``check_tree_graph`` reads a compressed
tree's ``leaves``, and the ``stream`` fingerprint hashes the repr of its
sorted ``kept`` keys. ``check_tree_graph``, ``graph_fingerprint`` and
``LexDijkstra`` read a graph's ``Edge`` list. A change that breaks any of
them fails here, not only in a benchmark run. ``bench/`` is imported
read-only.
"""

import importlib
from pathlib import Path

import numpy as np
import pytest

from soct import compression, formats, planning
from soct.octree import SemanticOctree

from helpers import ref_extraction

N, DEPTH = 8, 3  # the benchmark's tiny world: an 8-unit cube at depth 3


@pytest.fixture
def bench(monkeypatch):
    monkeypatch.syspath_prepend(str(Path(__file__).resolve().parents[1] / "bench"))
    return importlib.import_module("reference"), importlib.import_module("workloads")


def test_halton_check_reads_a_loaded_tree(bench, tmp_path):
    reference, W = bench
    path = tmp_path / "map.soct"
    records = W.make_cloud(np.random.default_rng(5), N)
    path.write_bytes(reference.encode_tree(records, N, DEPTH, W.NUM_CLASSES))
    tree = formats.deserialize_tree(path)
    tree.expand_summaries()
    registry = formats.parse_weights_config(W.WEIGHTS).registry()
    roles = planning.PlanQuery(0, 0, undesired=registry.irrelevant_ids,
                               relevant=registry.relevant_ids)
    halton = planning.halton_graph(tree.world, tree, 64, 8, roles)
    assert reference.check_halton_graph(tree, halton, 64, roles.undesired,
                                        roles.relevant) == []


def test_cache_check_reads_a_streamed_tree(bench):
    reference, W = bench
    world, num_classes = formats.parse_world_config(W.world_text(N, DEPTH))
    cw = formats.parse_weights_config(W.WEIGHTS).compression_weights()
    tree = SemanticOctree(world, num_classes)
    for x, y, z, cid, conf in W.make_cloud(np.random.default_rng(6), N):
        leaf = tree.add_observation((x, y, z), cid, conf)
        compression.refresh_upward(tree, leaf, cw)
    ctree = compression.compress_tree(tree, cw)
    assert reference.cache_mismatches(tree, cw, ctree, compression.refresh_all,
                                      compression.compress_tree) == []
    # what the stream fingerprint hashes of the kept set: NodeKey reprs
    kept, _ = ref_extraction(tree, frozenset(ctree.expanded))
    assert len(ctree.expanded) > 1
    assert repr(sorted(ctree.kept)) == repr(sorted(kept))


def test_graph_checks_read_a_tree_graph(bench, tmp_path):
    reference, W = bench
    path = tmp_path / "map.soct"
    records = W.make_cloud(np.random.default_rng(7), N)
    path.write_bytes(reference.encode_tree(records, N, DEPTH, W.NUM_CLASSES))
    tree = formats.deserialize_tree(path)
    tree.expand_summaries()
    weights = formats.parse_weights_config(W.WEIGHTS)
    cw, registry = weights.compression_weights(), weights.registry()
    roles = planning.PlanQuery(0, 0, undesired=registry.irrelevant_ids,
                               relevant=registry.relevant_ids)
    compression.refresh_all(tree, cw)
    full = compression.full_tree(tree)
    assert reference.check_tree_graph(full, planning.graph_from_tree(full, roles, 8),
                                      roles.undesired, roles.relevant) == []
    ctree = compression.compress_tree(tree, cw)
    graph = planning.graph_from_tree(ctree, roles, 8)
    assert graph.num_edges
    assert reference.check_tree_graph(ctree, graph, roles.undesired, roles.relevant) == []
    lex = reference.LexDijkstra(graph, roles.undesired)
    for start in range(0, graph.num_vertices, 3):
        query = planning.PlanQuery(start, graph.num_vertices - 1,
                                   undesired=roles.undesired, relevant=roles.relevant)
        assert reference.query_mismatch(lex, start, query.goal,
                                        planning.class_ordered_astar(graph, query)) is None
    fingerprint = reference.graph_fingerprint(graph)
    e = graph.edges[0]
    graph.edges[0] = e._replace(color=0 if e.color else 2)  # the checks read the kept list
    assert reference.check_tree_graph(ctree, graph, roles.undesired, roles.relevant)
    assert reference.graph_fingerprint(graph) != fingerprint


def test_streamed_bits_are_pinned(bench):
    """The benchmark's ``stream`` phase at the tiny size (2,334 streamed
    records; label and position streams as ``bench/run.py --seed 1`` draws
    them) keeps the cache fingerprint the benchmark checks: weights, cached
    gains and the kept set, bit for bit."""
    phases = importlib.import_module("phases")
    phase = phases.StreamPhase(N, DEPTH, np.random.default_rng([0, 1]),
                               np.random.default_rng([1, 1]))
    out = phase.run()
    assert phase.check(out) == {}
    assert phase.fingerprints(out) == {"stream_caches_sha256":
        "cd02cda1f4873141a97c272ea6029d895ba89362f54c2455086d3e43226af884"}
