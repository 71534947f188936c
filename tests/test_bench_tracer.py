"""The benchmark's layer tracer patches soct names from outside the package.

``bench/tracing.Tracer.installed()`` looks up each function it wraps by
name, so deleting or renaming one of them breaks the traced benchmark run.
This test enters and leaves the tracer, so such a change fails here too.
``bench/`` is imported read-only.
"""

import importlib
from pathlib import Path

from soct.octree import SemanticOctree, WorldConfig


def test_bench_tracer_installs_and_restores(monkeypatch):
    monkeypatch.syspath_prepend(str(Path(__file__).resolve().parents[1] / "bench"))
    tracing = importlib.import_module("tracing")
    patched = tracing.SPANS + tracing.COUNTERS
    originals = [owner.__dict__[attr] for owner, attr, _ in patched]
    with tracing.Tracer().installed() as tracer:
        assert all(owner.__dict__[attr] is not original
                   for (owner, attr, _), original in zip(patched, originals))
        tree = SemanticOctree(WorldConfig((0, 0, 0), 4.0, 2), 4)
        tree.add_observation((1.0, 1.0, 1.0), 1, 0.9)
    assert [span[0] for span in tracer.spans] == ["octree.add_observation"]
    assert all(owner.__dict__[attr] is original
               for (owner, attr, _), original in zip(patched, originals))
