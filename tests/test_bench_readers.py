"""The benchmark's untimed checks read soct trees through ``Node``.

``bench/reference.check_halton_graph`` reads each node's ``dist`` fields,
and ``cache_mismatches`` deep-copies a streamed tree and compares its
caches with a batch rebuild. A ``Node`` change that breaks either fails
here, not only in a benchmark run. ``bench/`` is imported read-only.
"""

import importlib
from pathlib import Path

import numpy as np
import pytest

from soct import compression, formats, planning
from soct.octree import SemanticOctree

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
