"""A loaded or batch-built tree keeps its nodes as ``Levels`` columns; any
other tree is node-backed. Batch operations and the writer give the same
results on both."""

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

from helpers import node_serialize, random_truncated, random_weights, write_cloud


def _random_tree(rng, branching, shape, k=4):
    """A tree of set leaves: ``empty`` (the root alone), ``plain``, or
    ``summaries``, whose leaves share a few records and are pruned."""
    depth = {2: 3, 4: 2, 8: 2}[branching]
    world = WorldConfig((0, 0, 0), 16.0, depth, branching)
    tree = SemanticOctree(world, k)
    if shape == "empty":
        return tree
    pool = [random_truncated(rng, k) for _ in range(int(rng.integers(1, 3)))
            if shape == "summaries"] or None
    fill = float(rng.uniform(0.3, 1.0))
    for cell in itertools.product(range(1 << depth), repeat=world.dims):
        if rng.random() < fill or not any(cell):
            dist = random_truncated(rng, k) if pool is None else pool[rng.integers(len(pool))]
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


def _written_tree(rng, branching, k, source):
    """A tree to write. ``batch``: a batch build, of no points for
    ``empty``, of only out-of-bounds points for ``rejected``; ``pruned``: a
    batch build of one observation per cell, one label per sibling set,
    to prune; ``streamed``: non-unit ``set_leaf`` weights and
    observations; ``summaries``: pruned ``set_leaf`` records."""
    depth = {2: 3, 4: 2, 8: 2}[branching]
    world = WorldConfig((0, 0, 0), 16.0, depth, branching)
    if source in ("batch", "empty", "rejected", "pruned"):
        n = {"empty": 0, "pruned": branching ** depth}.get(source, int(rng.integers(1, 60)))
        points = rng.uniform(0, 16, (n, 3)) + (16.0 if source == "rejected" else 0.0)
        classes, confidence = rng.integers(0, k + 1, n), rng.uniform(0.5, 0.95, n)
        if source == "pruned":
            points = world.boxes(np.full(n, depth), np.arange(n))[0]
            classes = rng.integers(1, 3, n // branching).repeat(branching)
            confidence[:] = 0.8
            kept = rng.random(n) < 0.9
            points, classes, confidence = points[kept], classes[kept], confidence[kept]
        return SemanticOctree.from_observations(world, k, points, classes, confidence)[0]
    tree = _random_tree(rng, branching, "plain" if source == "streamed" else "summaries", k)
    if source == "streamed":
        for point in rng.uniform(0, 16, (int(rng.integers(1, 8)), 3)):
            tree.add_observation(point, int(rng.integers(0, k + 1)),
                                 float(rng.uniform(0.5, 0.95)))
    return tree


@settings(max_examples=60, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), branching=st.sampled_from([2, 4, 8]),
       k=st.sampled_from([4, 6]), loaded=st.booleans(),
       source=st.sampled_from(["batch", "empty", "rejected", "pruned", "streamed",
                               "summaries"]))
def test_column_writer_equals_the_node_writer(tmp_path_factory, seed, branching, k, loaded,
                                              source):
    """``serialize_tree`` writes, from columns, the bytes of the writer over
    ``tree.nodes`` (``helpers.node_serialize``), and keeps a column-backed
    tree so: batch builds, also of an empty or an all-rejected cloud, pruned batch
    builds, streamed trees with non-unit ``set_leaf`` weights, pruned trees
    that hold summaries, and loads of each. A pruned batch build prunes
    as its node-backed twin."""
    rng = np.random.default_rng(seed)
    tree = _written_tree(rng, branching, k, source)
    path = tmp_path_factory.mktemp("writer") / "tree.soct"
    if source == "pruned":  # the sweep prunes the columns as it prunes ``Node``s
        twin = _written_tree(np.random.default_rng(seed), branching, k, source)
        twin.nodes
        assert tree.prune_all_identical() == twin.prune_all_identical()
        serialize_tree(tree, path)
        assert path.read_bytes() == node_serialize(twin)
    if loaded:
        serialize_tree(tree, path)
        tree = deserialize_tree(path)
    column_backed = tree._levels is not None
    assert column_backed or not (loaded or source in ("batch", "empty", "rejected"))
    serialize_tree(tree, path)
    assert (tree._levels is not None) == column_backed
    assert path.read_bytes() == node_serialize(tree)


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


@pytest.fixture
def made(monkeypatch):
    """Every ``Node`` built and every ``Levels.node_dict`` call from here on."""
    made = []
    init = Node.__init__

    def counting_init(self, *args, **kwargs):
        made.append(args)
        init(self, *args, **kwargs)

    monkeypatch.setattr(Levels, "node_dict", lambda self: made.append("node_dict"))
    monkeypatch.setattr(Node, "__init__", counting_init)
    return made


@pytest.mark.parametrize("command", [
    ["compress", "--out-leaves", "leaves.csv"],
    ["report"],
    ["export", "--what", "leaves", "--out", "leaves.csv"],
    ["export", "--what", "graph", "--out", "graph.csv"],
    ["export", "--what", "graph", "--graph", "halton", "--out", "graph.csv"],
    ["plan", "--start", "0.5,3.5", "--goal", "7.5,4.5"],
    ["plan", "--graph", "halton", "--start", "0.5,3.5", "--goal", "7.5,4.5"],
])
def test_commands_on_a_loaded_map_build_no_node(loaded_map, made, monkeypatch, capsys,
                                                command):
    """A command that reads a map works on its columns: it never builds the
    tree's ``Node`` dict, nor any ``Node``."""
    argv = [command[0], "--tree", "map.soct", "--weights", "weights.cfg", *command[1:]]
    monkeypatch.chdir(loaded_map)
    code = main(argv)
    out, err = capsys.readouterr()
    assert code == 0 or "error: no-path" in err, err
    assert made == []


@pytest.mark.parametrize("extra", [[], ["--adhoc-prune"]])
def test_build_makes_no_node(loaded_map, made, monkeypatch, capsys, extra):
    """``build`` fuses, counts and writes the map as columns: it builds no
    ``Node`` and never the ``Node`` dict, and writes the same file. So does
    ``--adhoc-prune`` when no sibling set holds one record."""
    monkeypatch.chdir(loaded_map)
    code = main(["build", "--world", "world.cfg", "--cloud", "cloud.csv", "--out",
                 "again.soct", *extra])
    out, err = capsys.readouterr()
    assert code == 0, err
    assert "nodes_pruned 0\n" in out and "stored_nodes 85\n" in out
    assert made == []
    assert (loaded_map / "again.soct").read_bytes() == (loaded_map / "map.soct").read_bytes()


def test_a_batch_build_is_column_backed_until_nodes_is_read(tmp_path):
    """Writing, refreshing and compressing a batch build keep it column-backed;
    the first read of ``nodes`` makes it node-backed, with the same counts."""
    rng = np.random.default_rng(3)
    world = WorldConfig((0, 0, 0), 8.0, 3)
    tree, _ = SemanticOctree.from_observations(
        world, 4, rng.uniform(0, 8, (40, 3)), rng.integers(0, 5, 40), rng.uniform(0.5, 0.9, 40))
    count, leaves = tree.node_count(), tree.leaf_count()
    assert tree._levels is not None and "nodes" not in vars(tree)
    serialize_tree(tree, tmp_path / "tree.soct")
    refresh_all(tree, CompressionWeights({}, {}, 0.01))
    compress_tree(tree, CompressionWeights({}, {}, 0.01))
    assert tree._levels is not None and "nodes" not in vars(tree)
    assert len(tree.nodes) == count and tree._levels is None
    assert (tree.node_count(), tree.leaf_count()) == (count, leaves)
