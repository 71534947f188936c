"""The benchmark's layer tracer patches soct names from outside the package.

``bench/tracing.Tracer.installed()`` looks up each function it wraps by
name, so deleting or renaming one of them breaks the traced benchmark run.
This test enters and leaves the tracer, so such a change fails here too,
and runs the patched tree names on a streamed tree's columns.
``bench/`` is imported read-only.
"""

import importlib
from pathlib import Path

from soct import compression
from soct.octree import ROOT_KEY, SemanticOctree, WorldConfig


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
    names = [span[0] for span in tracer.spans]
    assert names == ["octree.add_observation"] + [
        "octree.add_observation", "compression.refresh_upward"] * 8 + [
        "octree.expand_summaries", "compression.refresh_all", "compression.compress_tree"]
    assert tracer.counts["octree.conditional_calls"] == 1
    assert tracer.counts["compression.expanded_nodes"] == len(ctree.expanded)
    assert all(owner.__dict__[attr] is original
               for (owner, attr, _), original in zip(patched, originals))
