"""The benchmark's layer tracer patches soct names from outside the package.

``bench/tracing.Tracer.installed()`` looks up each function it wraps by
name, so deleting or renaming one of them breaks the traced benchmark run.
This test enters and leaves the tracer, so such a change fails here too.
It runs the patched tree names on a streamed tree's columns and the
patched planning names on graphs of that tree.
``bench/`` is imported read-only.
"""

import importlib
from pathlib import Path

from soct import compression, planning
from soct.octree import ROOT_KEY, SemanticOctree, WorldConfig

from helpers import ref_adjacency, reference_astar


def test_bench_tracer_installs_and_restores(monkeypatch):
    monkeypatch.syspath_prepend(str(Path(__file__).resolve().parents[1] / "bench"))
    tracing = importlib.import_module("tracing")
    patched = tracing.SPANS + tracing.COUNTERS
    originals = [owner.__dict__[attr] for owner, attr, _ in patched]
    cw = compression.CompressionWeights({1: 4.0}, {2: 0.5}, 0.02)
    with tracing.Tracer().installed() as tracer:
        assert all(owner.__dict__[attr] is not original
                   for (owner, attr, _), original in zip(patched, originals))
        tree = SemanticOctree(WorldConfig((0, 0, 0), 4.0, 2), 4)
        tree.add_observation((3.0, 3.0, 3.0), 1, 0.9)
        # one record in all eight cells of a parent: a summary to expand
        for cell in range(8):
            point = [0.5 + (cell >> axis & 1) for axis in range(3)]
            compression.refresh_upward(tree, tree.add_observation(point, 2, 0.9), cw)
        assert tree.prune_all_identical() == 1
        assert tree.expand_summaries() == 1
        compression.refresh_all(tree, cw)
        tree.conditional(ROOT_KEY)
        ctree = compression.compress_tree(tree, cw)
        query = planning.PlanQuery(0, 5, undesired={2}, relevant={1})
        graph = planning.graph_from_tree(ctree, query, 8)
        halton = planning.halton_graph(tree.world, tree, 16, 4, query)
        result = planning.class_ordered_astar(halton, query)
        neighbors = halton.neighbors(0)
        classes = (planning.class_at(ctree, (3.0, 3.0, 3.0)),
                   planning.octree_class_at(tree, (0.5, 0.5, 0.5)))
    names = [span[0] for span in tracer.spans]
    assert names == ["octree.add_observation"] + [
        "octree.add_observation", "compression.refresh_upward"] * 8 + [
        "octree.expand_summaries", "compression.refresh_all", "compression.compress_tree",
        "planning.graph_from_tree", "planning.halton_graph", "planning.astar"]
    assert tracer.counts["octree.conditional_calls"] == 1
    assert tracer.counts["compression.expanded_nodes"] == len(ctree.expanded)
    assert tracer.counts["planning.graph_vertices"] == graph.num_vertices == 1
    assert tracer.counts["planning.astar_queries"] == 1
    assert [tracer.counts[name] for name in ("planning.astar_expansions", "planning.color_samples",
                                             "planning.halton_color_samples")] == [1, 1, 1]
    assert result == reference_astar(halton, query) and result.undesired_edges == 1
    assert neighbors == ref_adjacency(halton)[0] and classes == (1, 2)
    assert all(owner.__dict__[attr] is original
               for (owner, attr, _), original in zip(patched, originals))
