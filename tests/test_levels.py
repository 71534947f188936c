"""Every tree keeps its nodes as ``Levels`` columns: loads, batch builds and
streamed trees alike. ``tree.nodes`` is a read-only view of them. Loads,
writes, prunes and refreshes give the values of the independent oracles in
``helpers``, and the commands and streams that work on columns build no
``Node``."""

import copy
import itertools
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from soct.cli import main
from soct.compression import (
    CompressionWeights,
    compress_tree,
    compressed_from_expanded,
    expansion_gain,
    refresh_all,
    refresh_upward,
)
from soct.errors import TreeError
from soct.formats import deserialize_tree, serialize_tree
from soct.octree import (
    INTERIOR,
    LEAF,
    ROOT_KEY,
    SUMMARY,
    Levels,
    Node,
    NodeKey,
    SemanticOctree,
    WorldConfig,
    node_keys,
    uniform_row,
)

from helpers import (
    node_conditional,
    node_serialize,
    random_truncated,
    random_weights,
    ref_child_sets,
    ref_conditional,
    ref_extraction,
    ref_prune_all,
    ref_relative_gain,
    reference_deserialize,
    same_bits,
    write_cloud,
)


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


def _same_nodes(tree, want):
    """``tree.nodes`` holds ``want.nodes`` in its order: kinds, weights (by
    ``repr``), records and conditionals (which are None) by bytes."""
    assert list(tree.nodes) == list(want.nodes)
    for key, node in tree.nodes.items():
        other = want.nodes[key]
        assert (node.kind, repr(node.weight), node.dist) == (
            other.kind, repr(other.weight), other.dist), key
        assert (node.cond is None) == (other.cond is None), key
        if node.cond is not None:
            assert node.cond.tobytes() == other.cond.tobytes(), key


@settings(max_examples=40, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), branching=st.sampled_from([2, 4, 8]),
       shape=st.sampled_from(["empty", "plain", "summaries"]), weighted=st.booleans())
def test_a_load_gives_the_oracles_values(tmp_path_factory, seed, branching, shape,
                                         weighted):
    """A load holds the nodes the recursive reference reader reads, and
    writes its file back as the writer over ``tree.nodes`` does. With its
    summaries expanded and before a refresh, ``conditional`` and the blocks
    carry the bits of the per-node recursion (``node_conditional``), and the
    plain-loop ``ref_conditional`` within rounding. Refreshed, every
    interior gain is ``expansion_gain``'s, bits and type, and the plain-loop
    ``ref_relative_gain`` within rounding, and the compressed tree is
    ``ref_extraction``'s of the same expanded set."""
    rng = np.random.default_rng(seed)
    path = tmp_path_factory.mktemp("levels") / "tree.soct"
    serialize_tree(_random_tree(rng, branching, shape), path)
    data = path.read_bytes()
    tree = deserialize_tree(path)
    _same_nodes(tree, reference_deserialize(path))
    assert node_serialize(tree) == data
    serialize_tree(tree, path.with_name("out.soct"))
    assert path.with_name("out.soct").read_bytes() == data
    cw = (random_weights(rng) if weighted
          else CompressionWeights({}, {}, float(rng.uniform(0.0, 0.2))))
    tree.expand_summaries()
    for key in tree.nodes:
        assert tree.conditional(key).tobytes() == node_conditional(tree, key).tobytes(), key
    expanded = frozenset({ROOT_KEY} if tree.stored_children(ROOT_KEY) else ())
    for ctree in (compress_tree(tree, cw), compressed_from_expanded(tree, expanded)):
        for key, leaf in ctree.leaves.items():
            want = uniform_row(4) if leaf.virtual else node_conditional(tree, key)
            assert leaf.marginals.tobytes() == want.tobytes(), key
            if not leaf.virtual:
                assert np.allclose(leaf.marginals, ref_conditional(tree, key), rtol=0,
                                   atol=1e-12), key
    refresh_all(tree, cw)
    for key, node in tree.nodes.items():
        if node.kind == INTERIOR:
            gain = expansion_gain(tree, key, cw)
            assert (type(node.gain), repr(node.gain)) == (type(gain), repr(gain)), key
            assert abs(node.gain - ref_relative_gain(tree, key, cw)) < 1e-9, key
    ctree = compress_tree(tree, cw)
    kept, blocks = ref_extraction(tree, ctree.expanded)
    assert ctree.kept == kept and ctree.leaves.keys() == blocks.keys()
    for key, leaf in ctree.leaves.items():
        weight, marginals, virtual = blocks[key]
        assert (repr(leaf.weight), leaf.virtual) == (repr(weight), virtual), key
        assert leaf.marginals.tobytes() == np.asarray(marginals).tobytes(), key


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
    ``tree.nodes`` (``helpers.node_serialize``): batch builds, also of an
    empty or an all-rejected cloud, pruned batch builds, streamed trees
    with non-unit ``set_leaf`` weights, pruned trees that hold summaries,
    and loads of each. A pruned batch build prunes as the node-by-node
    ``ref_prune_all`` prunes the reference reader's tree of its file."""
    rng = np.random.default_rng(seed)
    tree = _written_tree(rng, branching, k, source)
    path = tmp_path_factory.mktemp("writer") / "tree.soct"
    if source == "pruned":
        serialize_tree(tree, path)
        twin, pruned = ref_prune_all(reference_deserialize(path))
        assert tree.prune_all_identical() == pruned
        serialize_tree(tree, path)
        assert path.read_bytes() == node_serialize(twin)
    if loaded:
        serialize_tree(tree, path)
        tree = deserialize_tree(path)
    serialize_tree(tree, path)
    assert path.read_bytes() == node_serialize(tree)


@settings(max_examples=40, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), branching=st.sampled_from([2, 4, 8]),
       fill=st.sampled_from([0.3, 0.8, 1.0]), zero=st.sampled_from([0.0, 0.3, 1.0]),
       cached=st.sampled_from(["none", "some", "all"]))
def test_child_sets_equals_its_untrimmed_oracle_bit_for_bit(seed, branching, fill, zero,
                                                            cached):
    """``Levels.child_sets`` writes completions, uncached conditionals and
    gain zeros only where some child needs them. On the columns as they
    stand after a stream of set leaves (absent children, zero-weight
    children, massless rows, no, some or all caches refreshed, and leaves
    whose gain column is not 0), every batch of rows with children, alone,
    in full and in random subsets, gets the bits of the code that writes
    them everywhere (``helpers``)."""
    rng = np.random.default_rng(seed)
    depth = {2: 4, 4: 3, 8: 2}[branching]
    world = WorldConfig((0, 0, 0), 16.0, depth, branching)
    tree = SemanticOctree(world, 4)
    cells = list(itertools.product(range(1 << depth), repeat=world.dims))
    placed = [cell for cell in cells if rng.random() < fill] or cells[:1]
    cw = random_weights(rng)
    for cell in placed:
        weight = 0.0 if rng.random() < zero else float(rng.uniform(0.2, 3.0))
        leaf = tree.set_leaf(cell, random_truncated(rng, 4), weight)
        if cached == "some" and rng.random() < 0.5:
            refresh_upward(tree, leaf, cw)
    if cached == "all":
        refresh_all(tree, cw)
    for node in tree.nodes.values():  # gains that only an interior child may pass on
        if node.kind != INTERIOR:
            node.gain = float(rng.uniform(0.1, 1.0))
    store = tree.columns()
    rows = np.flatnonzero(store.has_children[:store.size])
    batches = [rows, rng.permutation(rows), rows[rng.random(len(rows)) < 0.5]]
    for batch in [*batches, *(rows[i:i + 1] for i in range(len(rows)))]:
        if len(batch):
            for got, ref in zip(store.child_sets(batch), ref_child_sets(store, batch)):
                assert same_bits(got, ref), batch


@pytest.mark.parametrize("shape", ["empty", "plain", "summaries"])
@pytest.mark.parametrize("branching", [2, 4, 8])
def test_preorder_is_the_walk_from_the_root(branching, shape):
    """``Levels.preorder`` lists the merged rows as a walk from the root that
    visits each node's stored children in octant order, the file's order."""
    tree = _random_tree(np.random.default_rng(branching), branching, shape)

    def walk(key):
        yield key
        for child in tree.stored_children(key):
            yield from walk(child)

    levels = tree.levels()
    order = levels.preorder()
    assert list(node_keys(levels.depth[order], levels.index[order])) == list(walk(ROOT_KEY))


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
    """Every ``Node`` built, and every ``Levels.node_dict`` and
    ``Levels.gather`` call, from here on."""
    made = []
    init, gather = Node.__init__, Levels.gather.__func__

    def counting_init(self, *args, **kwargs):
        made.append(args)
        init(self, *args, **kwargs)

    def counting_gather(cls, *args):
        made.append("gather")
        return gather(cls, *args)

    monkeypatch.setattr(Levels, "node_dict", lambda self, *args: made.append("node_dict"))
    monkeypatch.setattr(Levels, "gather", classmethod(counting_gather))
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


def test_a_pruning_build_makes_no_node(tmp_path, monkeypatch, capsys):
    """``build --adhoc-prune`` on a cloud whose sibling sets each hold one
    record prunes on the columns: it builds no ``Node``, no ``Node`` dict and
    no gather, and writes what the node-by-node ``ref_prune_all`` makes of
    the unpruned map."""
    records = [(ix + 0.5, iy + 0.5, iz + 0.5, 1 + (ix // 2 + iy // 2) % 3, 0.8)
               for ix in range(8) for iy in range(8) for iz in range(2)]
    write_cloud(tmp_path / "cloud.csv", records)
    (tmp_path / "world.cfg").write_text(
        "origin 0 0 0\nedge_length 8\nmax_depth 3\nbranching 8\nnum_classes 4\n")
    monkeypatch.chdir(tmp_path)
    argv = ["build", "--world", "world.cfg", "--cloud", "cloud.csv", "--out"]
    assert main([*argv, "plain.soct"]) == 0
    want, pruned = ref_prune_all(reference_deserialize(tmp_path / "plain.soct"))
    assert pruned == 16
    capsys.readouterr()
    spy = []
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(Node, "__init__", lambda self, *a, **k: spy.append(a))
        patch.setattr(Levels, "node_dict", lambda self, *args: spy.append("node_dict"))
        patch.setattr(Levels, "gather", classmethod(lambda cls, *a: spy.append("gather")))
        assert main([*argv, "pruned.soct", "--adhoc-prune"]) == 0
    assert spy == []
    out = capsys.readouterr().out
    assert f"nodes_pruned {pruned}\n" in out and f"stored_nodes {len(want.nodes)}\n" in out
    assert (tmp_path / "pruned.soct").read_bytes() == node_serialize(want)


@pytest.mark.parametrize("source", ["loaded", "built"])
def test_streaming_makes_no_node(loaded_map, made, source):
    """Streaming into a loaded map or a batch build, with the path refreshes,
    then compressing and writing the streamed tree, builds no ``Node``, no
    ``Node`` dict and no gather."""
    rng = np.random.default_rng(11)
    if source == "loaded":
        tree = deserialize_tree(loaded_map / "map.soct")
    else:
        tree = SemanticOctree.from_observations(
            WorldConfig((0, 0, 0), 8.0, 3), 4, rng.uniform(0, 8, (60, 3)),
            rng.integers(0, 5, 60), rng.uniform(0.6, 0.9, 60))[0]
    cw = CompressionWeights({1: 4.0}, {2: 0.5}, 0.02)
    refresh_all(tree, cw)
    for point in rng.uniform(0, 8, (40, 3)):
        refresh_upward(tree, tree.add_observation(point, int(rng.integers(0, 5)), 0.85), cw)
    compress_tree(tree, cw)
    serialize_tree(tree, loaded_map / "streamed.soct")
    assert made == []


def test_per_key_reads_merge_nothing(monkeypatch):
    """After writes, a prune among them, the per-key reads (``conditional``,
    ``child_sets``, ``stored_children``, ``rows``) and the counts walk the
    columns as they stand: none merges the overlay, and each gives the bits
    that the merged twin gives. Unknown and out-of-range keys are a
    ``TreeError``, or no children."""
    rng = np.random.default_rng(5)
    world = WorldConfig((0, 0, 0), 4.0, 2, branching=4)
    tree, same = SemanticOctree(world, 4), random_truncated(rng, 4)
    for cell in itertools.product(range(4), repeat=2):
        if cell < (2, 0) or rng.random() < 0.6:
            tree.set_leaf(cell, same if cell < (2, 0) else random_truncated(rng, 4))
    for point in rng.uniform(0, 4, (6, 3)):
        tree.add_observation(point, int(rng.integers(0, 5)), 0.8)
    assert tree.prune_identical_children(NodeKey(1, 0))
    twin = copy.deepcopy(tree)
    twin.levels()
    merges = []
    merged = Levels.merged
    monkeypatch.setattr(Levels, "merged", lambda self: merges.append(1) or merged(self))
    assert (tree.node_count(), tree.leaf_count(), tree.has_summaries()) == (
        twin.node_count(), twin.leaf_count(), True)
    for key in twin.nodes:
        assert tree.conditional(key).tobytes() == twin.conditional(key).tobytes(), key
        assert tree.stored_children(key) == twin.stored_children(key), key
        if twin.stored_children(key):
            for got, want in zip(tree.child_sets([key]), twin.child_sets([key])):
                assert got.tobytes() == want.tobytes(), key
    for key in (NodeKey(2, 0), NodeKey(1, 4), NodeKey(3, 0), NodeKey(-1, 0), (2, 16)):
        with pytest.raises(TreeError):
            tree.conditional(key)
        assert tree.stored_children(key) == []
    assert merges == []
    assert tree.nodes.keys() == twin.nodes.keys() and merges == [1]


@settings(max_examples=40, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), branching=st.sampled_from([2, 4, 8]),
       shape=st.sampled_from(["plain", "summaries"]), expand=st.booleans())
def test_lookup_is_the_slot_walk_on_unmerged_columns(seed, branching, shape, expand):
    """On a tree of set leaves, pruned or not, maybe with every summary
    expanded, then streamed observations (into summaries if any are left),
    left unmerged, ``Levels.lookup`` of every key of the full tree and of
    out-of-range keys gives each key's ``path(...)[-1]``, and -1 out of
    range, before and after ``levels()`` merges; the rows found hold their
    keys, which are the keys of ``nodes``. ``rows`` gives the rows of
    stored keys and names the first unknown key of a list."""
    rng = np.random.default_rng(seed)
    tree = _random_tree(rng, branching, shape)
    world = tree.world
    if expand:
        tree.expand_summaries()
    for point in rng.uniform(0, 16, (int(rng.integers(1, 6)), 3)):
        tree.add_observation(point, int(rng.integers(0, 5)), 0.8)
    keys = [(d, i) for d in range(world.max_depth + 1) for i in range(1 << world.dims * d)]
    outside = [(-1, 0), (world.max_depth + 1, 0), (1, -1), (2, 1 << 2 * world.dims)]
    depth, index = np.array(keys + outside).T
    assert tree.columns().overlay
    for merge in (False, True):
        store = tree.levels() if merge else tree.columns()
        rows = store.lookup(depth, index)
        assert rows.tolist() == [store.path(d, i)[-1] for d, i in keys] + [-1] * len(outside)
        found = rows >= 0
        assert (store.depth[rows[found]] == depth[found]).all()
        assert (store.index[rows[found]] == index[found]).all()
        stored = [keys[i] for i in np.flatnonzero(found)]
        unknown = [keys[i] for i in np.flatnonzero(~found[:len(keys)])] + outside
        picked = [unknown[j] for j in rng.choice(len(unknown), 2, replace=False)]
        assert tree.rows(stored).tolist() == rows[found].tolist()
        with pytest.raises(TreeError, match=re.escape(f"unknown key {picked[0]}")):
            tree.rows(stored[:3] + picked + stored[3:])
    assert set(stored) == set(tree.nodes)


def test_a_stream_of_updates_keeps_the_record_table_small():
    """Each update leaves its old record in the table, and a full table that
    rows refer to at most half of is copied with only those: 2,000 updates
    of one cell beside a few other leaves keep the table within four times
    its live records (and 16), and the streamed tree writes the batch
    build's file."""
    world = WorldConfig((0, 0, 0), 8.0, 3)
    points = [(x + 0.5, 0.5, 0.5) for x in range(5)] + [(0.5, 0.5, 0.5)] * 2000
    classes = [1, 2, 3, 4, 1] + [1, 2, 1, 3] * 500
    tree = SemanticOctree(world, 4)
    for point, c in zip(points, classes):
        tree.add_observation(point, c, 0.6)
    store = tree.columns()
    assert store.records <= len(store.table.ids) <= 4 * tree.leaf_count() + 16
    batch = SemanticOctree.from_observations(world, 4, points, classes, [0.6] * len(points))
    assert batch[1] == {}
    assert node_serialize(tree) == node_serialize(batch[0])


def test_nodes_is_a_read_only_view(tmp_path):
    """``tree.nodes`` is built once per state: two reads, or a read around a
    batch read, return the same mapping, and a write replaces it. Writes
    through it never vanish: setting an item, deleting one, or setting any
    field of a node but its gain raises ``TypeError`` (clearing has no
    method), a node's gain lands in the tree's columns, with its type, and
    setting anything of a node of a replaced view raises."""
    world = WorldConfig((0, 0, 0), 4.0, 2)
    tree = SemanticOctree(world, 4)
    cw = CompressionWeights({1: 4.0}, {2: 0.5}, 0.02)
    for point in ((0.5, 0.5, 0.5), (1.5, 0.5, 0.5), (3.5, 3.5, 3.5)):
        refresh_upward(tree, tree.add_observation(point, 1, 0.9), cw)
    view = tree.nodes
    assert tree.nodes is view
    compress_tree(tree, cw)
    assert tree.nodes is view
    leaf = world.leaf_key((0.5, 0.5, 0.5))
    with pytest.raises(TypeError):
        view[leaf] = Node(LEAF)
    with pytest.raises(TypeError):
        del view[leaf]
    with pytest.raises(AttributeError):
        view.clear()
    node, root = view[leaf], view[ROOT_KEY]
    for name, value in (("kind", SUMMARY), ("weight", 2.5), ("cond", None),
                        ("dist", node.dist), ("table", None), ("row", 1), ("tree", None),
                        ("key", ROOT_KEY)):
        with pytest.raises(TypeError):
            setattr(node, name, value)
    assert (node.kind, node.weight, view[leaf]) == (LEAF, 1.0, node) and node.cond is not None
    node.gain, root.gain = np.float64(0.25), 0.5
    assert tree.nodes is view
    copy_ = copy.deepcopy(tree)  # a copy rebuilds its view from the columns
    assert (repr(copy_.nodes[leaf].gain), repr(copy_.nodes[ROOT_KEY].gain)) == (
        repr(np.float64(0.25)), "0.5")
    serialize_tree(tree, tmp_path / "tree.soct")
    assert (tmp_path / "tree.soct").read_bytes() == node_serialize(tree)
    tree.add_observation((0.5, 0.5, 0.5), 2, 0.9)
    assert tree.nodes is not view and tree.nodes[leaf].dist != node.dist
    with pytest.raises(TypeError, match="replaced"):
        root.gain = 1.0
    assert tree.nodes[ROOT_KEY].gain == 0.5
    assert all(type(n).__name__ == "ViewNode" for n in tree.nodes.values())
    assert tree.node_count() == len(tree.nodes) and NodeKey(1, 0) in tree.nodes
