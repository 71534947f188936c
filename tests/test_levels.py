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
from soct.errors import DistributionError, TreeError
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
    _DELETED,
    node_keys,
    uniform_row,
)
from soct.semantics import (
    TruncatedSemanticDistribution,
    expand_rows,
    expand_truncated,
    fuse_observation,
    truncate_full,
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
    stored_children,
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
    expanded = frozenset({ROOT_KEY} if stored_children(tree, ROOT_KEY) else ())
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
        for child in stored_children(tree, key):
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
    """Every ``Node`` built, and every ``Levels.node_dict`` call, from here
    on."""
    made = []
    init = Node.__init__

    def counting_init(self, *args, **kwargs):
        made.append(args)
        init(self, *args, **kwargs)

    monkeypatch.setattr(Levels, "node_dict", lambda self, *args: made.append("node_dict"))
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
    record prunes on the columns: it builds no ``Node`` and no ``Node`` dict,
    and writes what the node-by-node ``ref_prune_all`` makes of
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
        assert main([*argv, "pruned.soct", "--adhoc-prune"]) == 0
    assert spy == []
    out = capsys.readouterr().out
    assert f"nodes_pruned {pruned}\n" in out and f"stored_nodes {len(want.nodes)}\n" in out
    assert (tmp_path / "pruned.soct").read_bytes() == node_serialize(want)


@pytest.mark.parametrize("source", ["loaded", "built"])
def test_streaming_makes_no_node(loaded_map, made, source):
    """Streaming into a loaded map or a batch build, with the path refreshes,
    then compressing and writing the streamed tree, builds no ``Node`` and no
    ``Node`` dict."""
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
    ``rows``), the child slots and ``child_sets`` of the rows found, and the
    counts walk the columns as they stand: none merges the overlay, and
    each gives the bits that the merged twin gives. Unknown and
    out-of-range keys are a ``TreeError``."""
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
    store, twin_store = tree.columns(), twin.levels()
    for key in twin.nodes:
        assert tree.conditional(key).tobytes() == twin.conditional(key).tobytes(), key
        row, twin_row = tree.rows([key]), twin.rows([key])
        present = store.slots[row] >= 0
        assert present.tolist() == (twin_store.slots[twin_row] >= 0).tolist(), key
        if present.any():
            for got, want in zip(store.child_sets(row), twin_store.child_sets(twin_row)):
                assert got.tobytes() == want.tobytes(), key
    for key in (NodeKey(2, 0), NodeKey(1, 4), NodeKey(3, 0), NodeKey(-1, 0), (2, 16)):
        with pytest.raises(TreeError):
            tree.conditional(key)
        with pytest.raises(TreeError):
            tree.rows([key])
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
    """An update rewrites its leaf's record in its own row: 2,000 updates of
    one cell beside a few other leaves add no row to the record table,
    which keeps as many rows as the columns have room, and the streamed
    tree writes the batch build's file."""
    world = WorldConfig((0, 0, 0), 8.0, 3)
    points = [(x + 0.5, 0.5, 0.5) for x in range(5)] + [(0.5, 0.5, 0.5)] * 2000
    classes = [1, 2, 3, 4, 1] + [1, 2, 1, 3] * 500
    tree = SemanticOctree(world, 4)
    for point, c in zip(points[:5], classes[:5]):
        tree.add_observation(point, c, 0.6)
    store = tree.columns()
    room = len(store.index)
    assert len(store.table.ids) == room
    for point, c in zip(points[5:], classes[5:]):
        tree.add_observation(point, c, 0.6)
    assert tree.columns() is store
    assert len(store.index) == len(store.table.ids) == room
    batch = SemanticOctree.from_observations(world, 4, points, classes, [0.6] * len(points))
    assert batch[1] == {}
    assert node_serialize(tree) == node_serialize(batch[0])


# Records with three, one and two stored classes: a set leaf can be
# overwritten with fewer, and one shared record lets prunes happen.
_RECORDS = (
    TruncatedSemanticDistribution(((1, 0.5), (2, 0.2), (3, 0.1)), 0.1, 0.1),
    TruncatedSemanticDistribution(((2, 0.6),), 0.4, 0.0),
    TruncatedSemanticDistribution(((3, 0.5), (1, 0.25)), 0.25, 0.0),
)
_STEP = st.one_of(
    st.tuples(st.just("observe"), st.integers(0, 63), st.integers(0, 4),
              st.sampled_from([0.6, 0.9])),
    st.tuples(st.just("set"), st.integers(0, 63), st.integers(0, len(_RECORDS) - 1)),
    st.tuples(st.just("fill"), st.integers(0, 7), st.integers(0, len(_RECORDS) - 1)),
    st.tuples(st.just("prune")), st.tuples(st.just("expand")), st.tuples(st.just("reload")))


def _check_records(store, k):
    """Each leaf or summary row's ``cond`` is ``expand_rows`` of its record
    row, bit for bit; interior rows store no class; every live row's count
    is its number of nonzero ids; the table has a row per row of room."""
    assert all(len(column) == len(store.index) == len(store.slots) for column in store.table)
    kind = store.kind[:store.size]
    rec, interior = np.flatnonzero(kind > INTERIOR), np.flatnonzero(kind == INTERIOR)
    live = np.flatnonzero(kind != _DELETED)
    assert store.cached[rec].all()
    assert store.cond[rec].tobytes() == expand_rows(store.table.take(rec), k).tobytes()
    assert not store.table.counts[interior].any() and not store.table.ids[interior].any()
    assert (np.count_nonzero(store.table.ids[live], axis=1)
            == store.table.counts[live]).all()


@settings(max_examples=40, deadline=None)
@given(branching=st.sampled_from([2, 4, 8]), steps=st.lists(_STEP, max_size=14))
def test_every_record_row_expands_to_its_conditional(tmp_path_factory, branching, steps):
    """Random interleavings of streamed observations, set leaves (over
    existing ones too, and whole child sets of one record), prunes,
    summary expansions and save/load round trips keep the record table's
    invariants (``_check_records``) on the columns as they stand and
    merged."""
    world, k = WorldConfig((0, 0, 0), 8.0, 2, branching), 4
    cells, path = 1 << 2 * world.dims, tmp_path_factory.mktemp("steps") / "tree.soct"
    tree = SemanticOctree(world, k)
    for op, *args in steps:
        if op == "observe":
            point = world.center_of(NodeKey(2, args[0] % cells))
            try:
                tree.add_observation(point, args[1], args[2])
            except DistributionError:  # a zero prior rules the class out
                pass
        elif op == "set":
            tree.set_leaf(world.coords_of(NodeKey(2, args[0] % cells)), _RECORDS[args[1]])
        elif op == "fill":
            parent = args[0] % (cells // branching)
            for octant in range(branching):
                tree.set_leaf(world.coords_of(NodeKey(2, parent * branching + octant)),
                              _RECORDS[args[1]])
        elif op == "prune":
            tree.prune_all_identical()
        elif op == "expand":
            tree.expand_summaries()
        else:
            serialize_tree(tree, path)
            tree = deserialize_tree(path)
        _check_records(tree.columns(), k)
        _check_records(tree.levels(), k)


@pytest.mark.parametrize("write", ["observe", "set", "expand"])
def test_a_held_view_node_keeps_its_record(write):
    """A node of an old ``tree.nodes`` keeps its record and conditional
    after a write rewrites its leaf's row in place (a streamed update, a
    set leaf with fewer classes, or an observation that expands the
    summary held), and the next view shows the write."""
    world = WorldConfig((0, 0, 0), 8.0, 2, 2)
    tree, leaf = SemanticOctree(world, 4), NodeKey(2, 0)
    for cell in ((0,), (1,)):
        tree.set_leaf(cell, _RECORDS[0])
    if write == "expand":
        assert tree.prune_all_identical() == 1
    held = tree.nodes[NodeKey(1, 0) if write == "expand" else leaf]
    cond = held.cond.tobytes()
    if write == "set":
        tree.set_leaf((0,), _RECORDS[1])
        want = _RECORDS[1]
    else:
        tree.add_observation(world.center_of(leaf), 2, 0.9)
        want = truncate_full(fuse_observation(expand_truncated(_RECORDS[0], 4), 2, 0.9))
    assert (held.dist, held.cond.tobytes()) == (_RECORDS[0], cond)
    assert tree.nodes[leaf].dist == want != _RECORDS[0]


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
