"""A loaded tree keeps its nodes as ``Levels`` columns; any other tree is
node-backed. Batch operations give the same results on both."""

import itertools

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from soct.cli import main
from soct.compression import (
    CompressionWeights,
    compress_tree,
    compressed_from_expanded,
    full_tree,
    refresh_all,
    report,
)
from soct.formats import deserialize_tree, serialize_tree
from soct.octree import ROOT_KEY, Levels, Node, SemanticOctree, WorldConfig, uniform_row
from soct.planning import BlockIndex

from helpers import random_truncated, random_weights, write_cloud


def _random_tree(rng, branching, shape):
    """A tree of set leaves: ``empty`` (the root alone), ``plain``, or
    ``summaries``, whose leaves share a few records and are pruned."""
    depth = {2: 3, 4: 2, 8: 2}[branching]
    world = WorldConfig((0, 0, 0), 16.0, depth, branching)
    tree = SemanticOctree(world, 4)
    if shape == "empty":
        return tree
    pool = [random_truncated(rng, 4) for _ in range(int(rng.integers(1, 3)))
            if shape == "summaries"] or None
    fill = float(rng.uniform(0.3, 1.0))
    for cell in itertools.product(range(1 << depth), repeat=world.dims):
        if rng.random() < fill or not any(cell):
            dist = random_truncated(rng, 4) if pool is None else pool[rng.integers(len(pool))]
            tree.set_leaf(cell, dist, 1.0 if pool else float(rng.uniform(0.2, 3.0)))
    if shape == "summaries":
        tree.prune_all_identical()
    return tree


def _same_columns(a, b):
    assert len(a) == len(b)
    for x, y in zip(a, b):
        assert x.dtype == y.dtype and x.tobytes() == y.tobytes()


@settings(max_examples=40, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), branching=st.sampled_from([2, 4, 8]),
       shape=st.sampled_from(["empty", "plain", "summaries"]), weighted=st.booleans())
def test_column_backed_load_equals_node_backed(tmp_path_factory, seed, branching, shape,
                                               weighted):
    """A load keeps columns; the same load with ``nodes`` read first, and
    the tree it was written from, are node-backed. Refreshed, compressed
    and reported, all three give the same bits: weights, conditionals (and
    which are None), gains (and their types), kept sets, blocks, reports and
    the raw block index; each writes its source file back. Unrefreshed,
    the columns' blocks carry the per-node ``conditional``."""
    rng = np.random.default_rng(seed)
    source = _random_tree(rng, branching, shape)
    path = tmp_path_factory.mktemp("levels") / "tree.soct"
    serialize_tree(source, path)
    data = path.read_bytes()
    columns, nodes = deserialize_tree(path), deserialize_tree(path)
    assert nodes.nodes and nodes._levels is None and columns._levels is not None
    out = path.with_name("out.soct")
    for tree in (deserialize_tree(path), nodes):
        serialize_tree(tree, out)
        assert out.read_bytes() == data
    cw = (random_weights(rng) if weighted
          else CompressionWeights({}, {}, float(rng.uniform(0.0, 0.2))))
    trees, summaries = (columns, nodes, source), source.has_summaries()
    for tree in trees:
        tree.expand_summaries()
    assert (columns._levels is not None) != summaries  # expanding summaries reads nodes
    # Before a refresh, interior conditionals are uncached and computed on
    # read: the columns give the node-by-node bits.
    expanded = frozenset({ROOT_KEY} if nodes.stored_children(ROOT_KEY) else ())
    for ctree in (compress_tree(columns, cw), compressed_from_expanded(columns, expanded)):
        for key, leaf in ctree.leaves.items():
            want = nodes.conditional(key) if key in nodes.nodes else uniform_row(4)
            assert leaf.marginals.tobytes() == want.tobytes(), key
    for tree in trees:
        refresh_all(tree, cw)
    results = []
    for tree in trees:
        ctree, full = compress_tree(tree, cw), full_tree(tree)
        blocks = BlockIndex.from_octree(tree)
        results.append((ctree.kept, ctree.leaf_arrays, full.kept, full.leaf_arrays,
                        repr(report(tree, ctree, cw)), repr(report(tree, full, cw)),
                        (blocks.depth, blocks.index, blocks.starts, blocks.ends,
                         blocks.classes)))
    for got in results[1:]:
        want = results[0]
        assert got[0] == want[0] and got[2] == want[2]
        assert got[4:6] == want[4:6]
        for i in (1, 3, 6):
            _same_columns(got[i], want[i])
    assert list(columns.nodes) == list(nodes.nodes)  # file order
    for tree in (nodes, source):
        assert tree.nodes.keys() == columns.nodes.keys()
        for key, want in columns.nodes.items():
            node = tree.nodes[key]
            assert (node.kind, repr(node.weight), node.dist) == (
                want.kind, repr(want.weight), want.dist)
            assert (type(node.gain), repr(node.gain)) == (type(want.gain), repr(want.gain))
            assert (node.cond is None) == (want.cond is None), key
            if want.cond is not None:
                assert node.cond.tobytes() == want.cond.tobytes(), key


@pytest.fixture
def loaded_map(tmp_path, capsys):
    rng = np.random.default_rng(7)
    records = [(ix + float(rng.uniform(0.1, 0.9)), iy + 0.5, float(rng.uniform(0, 2)),
                1 if iy in (3, 4) else int(rng.choice([0, 2, 2, 3])),
                float(rng.uniform(0.7, 0.95))) for ix in range(8) for iy in range(8)]
    write_cloud(tmp_path / "cloud.csv", records)
    (tmp_path / "world.cfg").write_text(
        "origin 0 0 0\nedge_length 8\nmax_depth 3\nbranching 8\nnum_classes 4\n")
    (tmp_path / "weights.cfg").write_text(
        "num_classes 4\nalpha 0.02\nclass 1 relevant 4 road\nclass 2 irrelevant 0.5\n")
    assert main(["build", "--world", str(tmp_path / "world.cfg"), "--cloud",
                 str(tmp_path / "cloud.csv"), "--out", str(tmp_path / "map.soct")]) == 0
    capsys.readouterr()
    return tmp_path


@pytest.mark.parametrize("command", [
    ["compress", "--out-leaves", "leaves.csv"],
    ["report"],
    ["export", "--what", "leaves", "--out", "leaves.csv"],
    ["export", "--what", "graph", "--out", "graph.csv"],
    ["export", "--what", "graph", "--graph", "halton", "--out", "graph.csv"],
    ["plan", "--start", "0.5,3.5", "--goal", "7.5,4.5"],
    ["plan", "--graph", "halton", "--start", "0.5,3.5", "--goal", "7.5,4.5"],
])
def test_commands_on_a_loaded_map_build_no_node(loaded_map, monkeypatch, capsys, command):
    """A command that reads a map works on its columns: it never builds the
    tree's ``Node`` dict, nor any ``Node``."""
    made = []
    init = Node.__init__

    def counting_init(self, *args, **kwargs):
        made.append(args)
        init(self, *args, **kwargs)

    monkeypatch.setattr(Levels, "node_dict", lambda self: made.append("node_dict"))
    monkeypatch.setattr(Node, "__init__", counting_init)
    argv = [command[0], "--tree", "map.soct", "--weights", "weights.cfg", *command[1:]]
    monkeypatch.chdir(loaded_map)
    code = main(argv)
    out, err = capsys.readouterr()
    assert code == 0 or "error: no-path" in err, err
    assert made == []
