import copy
import dataclasses
import itertools
import operator
from collections import Counter

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from soct import octree, semantics
from soct.compression import refresh_all, refresh_upward
from soct.errors import ConfigError, DistributionError, OutOfBoundsError, TreeError
from soct.formats import deserialize_tree, serialize_tree
from soct.octree import (
    INTERIOR,
    LEAF,
    ROOT_KEY,
    SUMMARY,
    NodeKey,
    SemanticOctree,
    WorldConfig,
    _interleave,
    child_keys,
    completed_weight,
    completed_weights,
    parent_key,
)
from soct.semantics import TruncatedRows, TruncatedSemanticDistribution, expand_truncated

from helpers import (
    _ref_children,
    editable_nodes,
    keys_with_children,
    ref_interleave,
    make_random_tree,
    random_truncated,
    random_weights,
    reference_deserialize,
    stored_children,
    tree_of_nodes,
)


def snapshot(tree):
    return {
        k: (n.kind, n.weight,
            n.dist,
            None if n.cond is None else n.cond.copy(),
            n.gain)
        for k, n in tree.nodes.items()
    }


def snapshots_equal(a, b):
    if a.keys() != b.keys():
        return False
    for k in a:
        ka, wa, da, ca, ga = a[k]
        kb, wb, db, cb, gb = b[k]
        if ka != kb or wa != wb or ga != gb or da != db:
            return False
        if (ca is None) != (cb is None):
            return False
        if ca is not None and not np.array_equal(ca, cb):
            return False
    return True


def ref_completed_weight(tree, key):
    """Bottom-up weight per the completion rule, computed independently."""
    node = tree.nodes[key]
    if node.kind != INTERIOR:
        return node.weight
    stored = [k for k in child_keys(key, tree.world.dims) if k in tree.nodes]
    if not stored:
        return 0.0
    total = sum(ref_completed_weight(tree, k) for k in stored)
    b = tree.world.branching
    return total + (b - len(stored)) * (total / len(stored))


def test_key_algebra_roundtrip():
    rng = np.random.default_rng(0)
    for dims in (1, 2, 3):
        for _ in range(200):
            depth = int(rng.integers(1, 7))
            index = int(rng.integers(0, 1 << (dims * depth)))
            key = NodeKey(depth, index)
            parent = parent_key(key, dims)
            assert parent.depth == key.depth - 1
            assert key in child_keys(parent, dims)


def test_world_config_validation():
    with pytest.raises(ConfigError):
        WorldConfig((0, 0, 0), 10.0, 2, branching=3)
    with pytest.raises(ConfigError):
        WorldConfig((0, 0, 0), -1.0, 2)
    with pytest.raises(ConfigError):
        WorldConfig((0, 0, 0), 1.0, 0)


def test_world_whose_finest_cell_underflows_is_rejected():
    """The finest cell size must not round to 0.0: ``morton`` would floor
    by it and ``leaf_key`` divide by it. At depth 20 the smallest edge
    keeps the least subnormal cell; half of it rounds to 0.0."""
    with pytest.raises(ConfigError, match="finest cell size is 0"):
        WorldConfig((0, 0, 0), 1e-320, 20)
    with pytest.raises(ConfigError, match="finest cell size is 0"):
        WorldConfig((0, 0, 0), 2.0 ** 19 * 5e-324, 20)
    world = WorldConfig((0, 0, 0), 2.0 ** 20 * 5e-324, 20)
    assert world.leaf_size == 5e-324
    assert world.leaf_key((0.0, 0.0, 0.0)) == NodeKey(20, 0)
    codes, inside = world.morton(np.array([[0.0, 0.0, 0.0], [world.edge_length] * 3]))
    assert codes.tolist() == [0, 0] and inside.tolist() == [True, False]


def test_world_derived_fields_stay_out_of_identity():
    """``dims`` and ``leaf_size`` are computed once, and a world's equality,
    hash and repr read only the four fields it is built from; ``replace``
    and ``deepcopy`` keep the derived values consistent."""
    a = WorldConfig((0, 0, -1.5), 8, 3, branching=4)
    b = WorldConfig((0.0, 0.0, -1.5), 8, 3, branching=4)
    assert a == b and hash(a) == hash(b)
    assert repr(a) == "WorldConfig(origin=(0.0, 0.0, -1.5), edge_length=8, max_depth=3, branching=4)"
    assert (a.dims, a.leaf_size) == (2, 1.0)
    finer = dataclasses.replace(a, max_depth=5, branching=8)
    assert (finer.dims, finer.leaf_size) == (3, 0.25)
    assert finer == WorldConfig((0, 0, -1.5), 8, 5) != a
    clone = copy.deepcopy(finer)
    assert clone == finer and hash(clone) == hash(finer)
    assert (clone.dims, clone.leaf_size) == (3, 0.25)
    with pytest.raises(ValueError):
        dataclasses.replace(a, dims=3)


@pytest.mark.parametrize("branching", [2, 4, 8])
def test_interleave_matches_the_bit_loop(branching):
    """The spread-table interleave gives the reference bit loop's codes at
    every depth, for the corner cells and random ones."""
    rng = np.random.default_rng(branching)
    dims = branching.bit_length() - 1
    for depth in range(1, 21):
        top = (1 << depth) - 1
        cells = [(top,) * dims, (0,) * dims, (top,) + (0,) * (dims - 1),
                 *(tuple(rng.integers(0, top + 1, dims).tolist()) for _ in range(50))]
        for coords in cells:
            assert _interleave(coords, dims, depth) == ref_interleave(coords, dims, depth)
        world = WorldConfig((0, 0, 0), 1.0, depth, branching)
        top_key = NodeKey(depth, (1 << dims * depth) - 1)
        assert world.key_from_coords(cells[0], depth) == top_key


def test_point_to_cell_half_open():
    world = WorldConfig((0, 0, 0), 8.0, 3, branching=8)

    def cell(point):
        return world.coords_of(world.leaf_key(point))

    assert cell((0.0, 0.0, 0.0)) == (0, 0, 0)
    assert cell((1.0, 0.0, 0.0)) == (1, 0, 0)
    assert cell((0.999999, 7.999, 3.5)) == (0, 7, 3)
    with pytest.raises(OutOfBoundsError):
        world.leaf_key((8.0, 0.0, 0.0))
    with pytest.raises(OutOfBoundsError):
        world.leaf_key((-0.001, 0.0, 0.0))


def test_centers_and_sizes():
    world = WorldConfig((0, 0, 0), 8.0, 3, branching=4)
    key = world.key_from_coords((3, 5), 3)
    center = world.center_of(key)
    assert np.allclose(center, [3.5, 5.5, 4.0])
    assert np.allclose(world.sizes_of(key), [1.0, 1.0, 8.0])


def test_first_insertion_creates_single_path():
    world = WorldConfig((0, 0, 0), 8.0, 3, branching=8)
    tree = SemanticOctree(world, 4)
    leaf = tree.add_observation((1.5, 2.5, 3.5), 2, 0.9)
    assert leaf.depth == 3
    assert len(tree.nodes) == 4  # leaf plus its 3 ancestors
    node = tree.nodes[leaf]
    assert node.kind == LEAF and node.weight == 1.0
    full = expand_truncated(node.dist, tree.num_classes)
    assert np.argmax(full) == 2


def test_repeated_observation_same_key_concentrates():
    world = WorldConfig((0, 0, 0), 8.0, 3, branching=8)
    tree = SemanticOctree(world, 4)
    k1 = tree.add_observation((1.5, 2.5, 3.5), 2, 0.8)
    p1 = expand_truncated(tree.nodes[k1].dist, tree.num_classes)[2]
    k2 = tree.add_observation((1.5, 2.5, 3.5), 2, 0.8)
    p2 = expand_truncated(tree.nodes[k2].dist, tree.num_classes)[2]
    assert k1 == k2
    assert p2 > p1
    assert tree.nodes[k1].weight == 1.0


def test_boundary_point_goes_to_upper_cell():
    world = WorldConfig((0, 0, 0), 8.0, 3, branching=8)
    tree = SemanticOctree(world, 4)
    key = tree.add_observation((1.0, 1.0, 1.0), 1, 0.9)
    assert world.coords_of(key) == (1, 1, 1)


def test_out_of_bounds_rejected():
    world = WorldConfig((0, 0, 0), 8.0, 3, branching=8)
    tree = SemanticOctree(world, 4)
    with pytest.raises(OutOfBoundsError):
        tree.add_observation((9.0, 0.0, 0.0), 1, 0.9)


def test_weights_match_bottom_up_recomputation():
    rng = np.random.default_rng(21)
    world = WorldConfig((0, 0, 0), 16.0, 3, branching=8)
    tree = SemanticOctree(world, 5)
    for _ in range(120):
        point = rng.uniform(0, 16, 3)
        tree.add_observation(point, int(rng.integers(0, 6)),
                             float(rng.uniform(0.5, 0.95)))
    for key, node in tree.nodes.items():
        if node.kind == INTERIOR:
            assert abs(node.weight - ref_completed_weight(tree, key)) < 1e-9


@pytest.mark.parametrize("branching", [2, 4, 8])
def test_completed_weights_is_completed_weight_bit_for_bit(branching):
    """The array kernel gives each row the scalar rule's bits: random
    stored weights with absent children (0.0 in the matrix), zero weights,
    no stored child, and the rows that Python 3.12's compensated ``sum``
    would round differently."""
    rng = np.random.default_rng(branching)
    n = 300
    present = rng.random((n, branching)) < rng.uniform(0.0, 1.0, (n, 1))
    weights = rng.exponential(2.0, (n, branching)) * (rng.random((n, branching)) < 0.8)
    trap = [1.0, 1e-16, 1e-16][:branching]
    present[:2], weights[:2] = False, 0.0
    present[0, :len(trap)], weights[0, :len(trap)] = True, trap
    stored = np.where(present, weights, 0.0)
    mean, completed = completed_weights(stored, present.sum(axis=1), branching)
    want = [completed_weight(row[mask].tolist(), branching)
            for row, mask in zip(stored, present)]
    assert completed.view(np.int64).tolist() == np.array(want).view(np.int64).tolist()
    assert mean[1] == completed[1] == 0.0
    assert completed[0] == 1.0 + (branching - len(trap)) * (1.0 / len(trap))


def test_completed_children_full_set():
    rng = np.random.default_rng(2)
    world = WorldConfig((0, 0, 0), 2.0, 1, branching=8)
    tree = SemanticOctree(world, 4)
    for ix in range(2):
        for iy in range(2):
            for iz in range(2):
                tree.set_leaf((ix, iy, iz), random_truncated(rng, 4), 1.0)
    weights, conds, gains, totals = tree.levels().child_sets(tree.rows([ROOT_KEY]))
    assert weights.shape == gains.shape == (1, 8)
    assert conds.shape == (1, 8, 5)
    assert weights.tolist() == [[1.0] * 8]
    assert totals.tolist() == [8.0]
    for o, key in enumerate(child_keys(ROOT_KEY, world.dims)):
        assert np.array_equal(conds[0, o], tree.nodes[key].cond)


def test_completed_children_virtual_entries():
    world = WorldConfig((0, 0, 0), 2.0, 1, branching=8)
    tree = SemanticOctree(world, 4)
    tree.set_leaf((0, 0, 0), TruncatedSemanticDistribution(((1, 1.0),), 0, 0), 2.0)
    weights, conds, gains, totals = tree.levels().child_sets(tree.rows([ROOT_KEY]))
    virtual = [o for o in range(8) if np.allclose(conds[0, o], 0.2)]
    assert virtual == list(range(1, 8))
    assert weights[0].tolist() == [2.0] * 8
    assert gains[0].tolist() == [0.0] * 8
    assert totals.tolist() == [tree.nodes[ROOT_KEY].weight] == [16.0]


def test_completed_children_does_not_mutate(tmp_path):
    from soct.formats import serialize_tree

    rng = np.random.default_rng(3)
    tree = make_random_tree(rng, branching=8, depth=1, fill=0.4)
    before = snapshot(tree)
    serialize_tree(tree, tmp_path / "before.soct")
    tree.levels().child_sets(tree.rows([ROOT_KEY]))
    tree.conditional(ROOT_KEY)
    assert snapshots_equal(before, snapshot(tree))
    serialize_tree(tree, tmp_path / "after.soct")
    assert (tmp_path / "before.soct").read_bytes() == (tmp_path / "after.soct").read_bytes()


@settings(max_examples=40, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), branching=st.sampled_from([2, 4, 8]))
def test_child_sets_match_reference_completion(seed, branching):
    """Each row of ``child_sets`` is the plain-Python completed child set of
    ``_ref_children``, over missing children, zero-weight leaves and
    interior children without a cached conditional, and a key's row in a
    batch is bit for bit its row alone."""
    rng = np.random.default_rng(seed)
    depth = {2: 4, 4: 3, 8: 2}[branching]
    tree = make_random_tree(rng, branching, depth, fill=float(rng.uniform(0.2, 0.9)))
    nodes = editable_nodes(tree)  # the view is read-only: edit a copy, build a tree of it
    for node in nodes.values():
        if node.kind == LEAF and rng.random() < 0.2:
            node.weight = 0.0
    tree = tree_of_nodes(tree.world, tree.num_classes, nodes)
    refresh_all(tree, random_weights(rng))
    nodes = editable_nodes(tree)
    for node in nodes.values():
        if node.kind == INTERIOR and rng.random() < 0.4:
            node.cond = None
    tree = tree_of_nodes(tree.world, tree.num_classes, nodes)
    keys = [k for k, n in tree.nodes.items()
            if n.kind == INTERIOR and stored_children(tree, k)]
    keys = [keys[i] for i in rng.permutation(len(keys))]
    batch = tree.levels().child_sets(tree.rows(keys))
    for i, key in enumerate(keys):
        entries = _ref_children(tree, key)
        weights, conds, gains, total = (a[i] for a in batch)
        assert total == completed_weight([tree.nodes[k].weight
                                          for _, _, k in entries if k is not None],
                                         branching)
        assert weights.tolist() == [w for w, _, _ in entries]
        assert gains.tolist() == [
            0.0 if k is None or tree.nodes[k].kind != INTERIOR else tree.nodes[k].gain
            for _, _, k in entries]
        assert np.abs(conds - np.array([d for _, d, _ in entries])).max() <= 1e-12
        alone = tree.levels().child_sets(tree.rows([key]))
        assert [a[i].tobytes() for a in batch] == [a[0].tobytes() for a in alone]


def test_prune_identical_children():
    rng = np.random.default_rng(4)
    world = WorldConfig((0, 0, 0), 4.0, 2, branching=8)
    tree = SemanticOctree(world, 4)
    shared = random_truncated(rng, 4)
    for ix in range(2):
        for iy in range(2):
            for iz in range(2):
                tree.set_leaf((ix, iy, iz), shared, 1.0)
    parent = world.key_from_coords((0, 0, 0), 1)
    n_before = len(tree.nodes)
    dists_before = sum(1 for n in tree.nodes.values() if n.dist is not None)
    assert tree.prune_identical_children(parent) is True
    assert len(tree.nodes) == n_before - 8
    dists_after = sum(1 for n in tree.nodes.values() if n.dist is not None)
    assert dists_after == dists_before - 7  # 8 leaf records replaced by 1 summary
    node = tree.nodes[parent]
    assert node.kind == SUMMARY
    assert node.dist.is_close(shared)
    assert node.weight == 8.0


def test_prune_rejects_near_identical():
    world = WorldConfig((0, 0, 0), 2.0, 1, branching=2)
    tree = SemanticOctree(world, 4)
    tree.set_leaf((0,), TruncatedSemanticDistribution(((1, 0.5),), 0.5, 0.0), 1.0)
    tree.set_leaf((1,), TruncatedSemanticDistribution(((1, 0.5 + 1e-6),), 0.5 - 1e-6, 0.0), 1.0)
    assert tree.prune_identical_children(ROOT_KEY) is False


def test_prune_compares_rows_as_is_close():
    """Prune reads the children's rows and decides as ``is_close`` does on
    their records: the same stored ids, every value within FIELD_TOL."""
    t = TruncatedSemanticDistribution
    base = t(((2, 0.5), (1, 0.3), (3, 0.1)), 0.05, 0.05)
    variants = [
        base,
        t(((2, 0.5 + 5e-13), (1, 0.3), (3, 0.1)), 0.05 - 5e-13, 0.05),
        t(((2, 0.5 + 2e-12), (1, 0.3), (3, 0.1)), 0.05 - 2e-12, 0.05),
        t(((2, 0.5), (1, 0.3), (4, 0.1)), 0.05, 0.05),
        t(((2, 0.5), (1, 0.3)), 0.2, 0.0),
        t(((2, 0.5), (1, 0.3), (3, 0.1)), 0.05 + 2e-12, 0.05),
        t(((2, 0.5), (1, 0.3), (3, 0.1)), 0.05, 0.05 + 2e-12),
        t(((2, 0.5), (1, 0.3), (3, 0.1)), 0.05 - 5e-13, 0.05 + 5e-13),
    ]
    world = WorldConfig((0, 0, 0), 2.0, 1, branching=2)
    for other in variants:
        tree = SemanticOctree(world, 4)
        tree.set_leaf((0,), base, 1.0)
        tree.set_leaf((1,), other, 1.0)
        assert tree.prune_identical_children(ROOT_KEY) is base.is_close(other), other
    assert [base.is_close(v) for v in variants] == [True, True, False, False, False,
                                                    False, False, True]
    # an assigned id 0 in a used slot is a stored class, unlike an unused slot
    tree = SemanticOctree(world, 4)
    tree.set_leaf((0,), t((), 1.0, 0.0), 1.0)
    tree.set_leaf((1,), t((), 1.0, 0.0), 1.0)
    nodes = editable_nodes(tree)
    nodes[world.key_from_coords((1,), 1)].dist = t(((0, 0.0),), 1.0, 0.0)
    tree = tree_of_nodes(world, 4, nodes)
    assert tree.prune_identical_children(ROOT_KEY) is False


def test_prune_requires_uniform_truncated_children():
    rng = np.random.default_rng(5)
    world = WorldConfig((0, 0, 0), 4.0, 2, branching=2)
    tree = SemanticOctree(world, 4)
    tree.set_leaf((0,), random_truncated(rng, 4), 1.0)   # depth-2 leaf under (1,0)
    tree.set_leaf((1,), random_truncated(rng, 4), 1.0)
    tree.set_leaf((2,), random_truncated(rng, 4), 1.0)
    with pytest.raises(TreeError):
        tree.prune_identical_children(ROOT_KEY)  # children are interior nodes
    with pytest.raises(TreeError):
        tree.prune_identical_children(world.key_from_coords((1,), 1))  # 1 of 2 stored


def test_summary_reexpands_on_observation():
    world = WorldConfig((0, 0, 0), 2.0, 1, branching=2)
    tree = SemanticOctree(world, 4)
    shared = TruncatedSemanticDistribution(((2, 0.6), (1, 0.2), (3, 0.1)), 0.05, 0.05)
    tree.set_leaf((0,), shared, 1.0)
    tree.set_leaf((1,), shared, 1.0)
    assert tree.prune_identical_children(ROOT_KEY)
    assert tree.nodes[ROOT_KEY].kind == SUMMARY
    key = tree.add_observation((0.25, 0.5, 0.5), 1, 0.9)
    assert tree.nodes[ROOT_KEY].kind == INTERIOR
    assert tree.nodes[key].kind == LEAF
    sibling = world.key_from_coords((1,), 1)
    assert tree.nodes[sibling].dist.is_close(shared)
    assert not tree.nodes[key].dist.is_close(shared)
    marg = expand_truncated(tree.nodes[key].dist, tree.num_classes)
    assert marg[1] > 0.2  # the observed class gained mass


def test_expand_summaries_restores_leaves():
    rng = np.random.default_rng(6)
    world = WorldConfig((0, 0, 0), 4.0, 2, branching=4)
    tree = SemanticOctree(world, 4)
    shared = random_truncated(rng, 4)
    for ix in range(4):
        for iy in range(4):
            tree.set_leaf((ix, iy), shared, 1.0)
    assert tree.prune_all_identical() == 5  # 4 quads, then the root
    assert tree.nodes[ROOT_KEY].kind == SUMMARY
    assert len(tree.nodes) == 1
    total_before = tree.nodes[ROOT_KEY].weight
    tree.expand_summaries()
    assert not tree.has_summaries()
    assert tree.leaf_count() == 16
    assert all(n.dist.is_close(shared) for n in tree.nodes.values() if n.kind == LEAF)
    assert abs(tree.nodes[ROOT_KEY].weight - total_before) < 1e-12


def test_expand_summaries_keeps_caches_within_rounding(tmp_path):
    """After an expansion, cached conditionals and gains agree with a fresh
    ``refresh_all`` within rounding, not bit for bit; ``refresh_all`` then
    makes them exact (they equal those of a reloaded copy, which holds no
    caches)."""
    rng = np.random.default_rng(61)
    world = WorldConfig((0, 0, 0), 4.0, 2, 8)
    inexact = 0
    for i in range(8):
        tree, cw = SemanticOctree(world, 4), random_weights(rng)
        for block in range(8):  # blocks 1..7 hold one shared record each
            shared = random_truncated(rng, 4)
            for octant in range(8):
                tree.set_leaf(world.coords_of(NodeKey(2, block << 3 | octant)),
                              shared if block else random_truncated(rng, 4),
                              float(rng.uniform(0.1, 3.0)))
        refresh_all(tree, cw)
        assert tree.prune_all_identical() == 7
        refresh_all(tree, cw)
        tree.expand_summaries()
        fresh = copy.deepcopy(tree)
        refresh_all(fresh, cw)
        for key, node in tree.nodes.items():
            ref = fresh.nodes[key]
            if node.kind == INTERIOR:
                assert np.allclose(node.cond, ref.cond, rtol=0, atol=1e-15), key
                assert abs(node.gain - ref.gain) <= 1e-15, key
                inexact += node.cond.tobytes() != ref.cond.tobytes() or node.gain != ref.gain
        refresh_all(tree, cw)
        serialize_tree(tree, tmp_path / f"{i}.soct")
        loaded = deserialize_tree(tmp_path / f"{i}.soct")
        refresh_all(loaded, cw)
        for key, node in tree.nodes.items():
            if node.kind == INTERIOR:
                assert node.cond.tobytes() == loaded.nodes[key].cond.tobytes(), key
                assert repr(node.gain) == repr(loaded.nodes[key].gain), key
    assert inexact  # the fixture reaches caches that differ in the last bits


def test_set_leaf_rejects_bad_weight(tmp_path):
    """A negative or non-finite weight is a config error and leaves the
    tree as it was: a NaN would spread to every ancestor's weight, and an
    inf would write a file that the reader rejects."""
    world = WorldConfig((0, 0, 0), 2.0, 1, branching=2)
    tree = SemanticOctree(world, 4)
    tree.set_leaf((1,), TruncatedSemanticDistribution(((2, 1.0),), 0, 0), 1.0)
    before = snapshot(tree)
    for weight in (-1.0, float("nan"), float("inf"), -float("inf")):
        with pytest.raises(ConfigError, match="non-negative and finite"):
            tree.set_leaf((0,), TruncatedSemanticDistribution(((1, 1.0),), 0, 0), weight)
        assert snapshots_equal(before, snapshot(tree))
    serialize_tree(tree, tmp_path / "tree.soct")
    assert deserialize_tree(tmp_path / "tree.soct").nodes[ROOT_KEY].weight == 2.0


def test_tree_requires_four_classes():
    with pytest.raises(ConfigError):
        SemanticOctree(WorldConfig((0, 0, 0), 2.0, 1), 3)


def test_conditional_of_unknown_key():
    world = WorldConfig((0, 0, 0), 2.0, 1, branching=2)
    tree = SemanticOctree(world, 4)
    with pytest.raises(TreeError):
        tree.conditional(NodeKey(1, 0))


def test_copy_is_independent():
    rng = np.random.default_rng(8)
    tree = make_random_tree(rng, branching=4, depth=2)
    clone = copy.deepcopy(tree)
    tree.add_observation((0.1, 0.1, 0.1), 1, 0.9)
    assert len(clone.nodes) != len(tree.nodes) or not snapshots_equal(
        snapshot(clone), snapshot(tree))


# -- records and caches under random interleavings -----------------------------

OPS = ("observe", "set_leaf", "fill_block", "prune", "observe_summary",
       "expand", "roundtrip")


def _check_records(tree):
    """Every stored record carries exactly the expansion of its distribution."""
    for key, node in tree.nodes.items():
        if node.kind != INTERIOR:
            assert np.array_equal(node.cond,
                                  expand_truncated(node.dist, tree.num_classes)), key


def _check_reads_are_pure(tree):
    before = snapshot(tree)
    for key, node in list(tree.nodes.items()):
        tree.conditional(key)
        if node.kind == INTERIOR and stored_children(tree, key):
            tree.levels().child_sets(tree.rows([key]))
    assert snapshots_equal(before, snapshot(tree))


def _check_caches_match_batch(tree, cw):
    batch = copy.deepcopy(tree)
    refresh_all(batch, cw)
    for key, node in tree.nodes.items():
        ref = batch.nodes[key]
        assert abs(node.gain - ref.gain) < 1e-9, key
        assert abs(node.weight - ref.weight) <= 1e-9 * max(1.0, ref.weight), key
        assert (node.cond is None) == (ref.cond is None), key
        if node.cond is not None:
            assert np.allclose(node.cond, ref.cond, rtol=0, atol=1e-9), key


@settings(max_examples=40, deadline=None)
@given(seed=st.integers(0, 2**32 - 1),
       branching=st.sampled_from([2, 4, 8]),
       ops=st.lists(st.sampled_from(OPS), min_size=1, max_size=14))
def test_records_and_caches_under_interleaved_updates(tmp_path_factory, seed,
                                                      branching, ops):
    """Observations, direct installs, prunes, observations into summaries,
    summary expansion and file round trips, in any order: stored records
    keep their dense vectors, reads never mutate, and the incrementally
    maintained caches equal a batch rebuild."""
    rng = np.random.default_rng(seed)
    depth = {2: 4, 4: 3, 8: 2}[branching]
    k = int(rng.integers(4, 7))
    world = WorldConfig((0, 0, 0), 8.0, depth, branching)
    tree = SemanticOctree(world, k)
    cw = random_weights(rng, num_classes=k)
    dims, n = world.dims, 1 << depth
    path = tmp_path_factory.mktemp("ops") / "tree.soct"
    for op in ops:
        if op == "observe":
            leaf = tree.add_observation(rng.uniform(0, 8, 3), int(rng.integers(0, k + 1)),
                                        float(rng.uniform(0.5, 0.95)))
            refresh_upward(tree, leaf, cw)
        elif op == "set_leaf":
            coords = tuple(int(c) for c in rng.integers(0, n, dims))
            leaf = tree.set_leaf(coords, random_truncated(rng, k),
                                 float(rng.uniform(0.2, 3.0)))
            refresh_upward(tree, leaf, cw)
        elif op == "fill_block":
            # one shared record over a whole block, so prune can collapse it
            span = 1 << int(rng.integers(1, depth + 1))
            corner = [int(c) * span for c in rng.integers(0, n // span, dims)]
            shared = random_truncated(rng, k)
            for offset in itertools.product(range(span), repeat=dims):
                leaf = tree.set_leaf(tuple(c + o for c, o in zip(corner, offset)),
                                     shared)
                refresh_upward(tree, leaf, cw)
        elif op == "prune":
            tree.prune_all_identical()
        elif op == "observe_summary":
            summaries = sorted(key for key, node in tree.nodes.items()
                               if node.kind == SUMMARY)
            if summaries:
                key = summaries[int(rng.integers(len(summaries)))]
                leaf = tree.add_observation(world.center_of(key),
                                            int(rng.integers(0, k + 1)), 0.9)
                refresh_upward(tree, leaf, cw)
        elif op == "expand":
            tree.expand_summaries()
        else:
            serialize_tree(tree, path)
            tree = deserialize_tree(path)
            _check_reads_are_pure(tree)  # no interior cache yet: reads recurse
            refresh_all(tree, cw)
        _check_records(tree)
        _check_reads_are_pure(tree)
        _check_caches_match_batch(tree, cw)


def test_rejected_observation_leaves_tree_untouched():
    """A rejected observation creates no node and changes no record, also
    in an unobserved cell, where it used to leave a childless path behind."""
    world = WorldConfig((0, 0, 0), 16.0, 4)
    tree = SemanticOctree(world, 4)
    for cls, conf in ((1, 0.2), (1, 1.5), (5, 0.9), (-1, 0.9), (1, float("nan"))):
        with pytest.raises(DistributionError):
            tree.add_observation((12.5, 12.5, 12.5), cls, conf)
    assert list(tree.nodes) == [ROOT_KEY]
    tree.add_observation((1.5, 1.5, 0.5), 1, 1.0)
    before = snapshot(tree)
    with pytest.raises(DistributionError, match="contradicts a zero-probability prior"):
        tree.add_observation((1.5, 1.5, 0.5), 2, 1.0)
    assert snapshots_equal(snapshot(tree), before)
    assert len(tree.nodes) == 5


def _observations(rng, k, cells, n):
    """Labeled points crowded into a few cells of an 8-unit world, mixed
    with out-of-bounds points, invalid classes and confidences at and just
    above the 1/(K+1) bound, or at 1.0, so later labels contradict."""
    low = 1.0 / (k + 1)
    corners = rng.integers(0, 8, (cells, 3))
    points = corners[rng.integers(0, cells, n)] + rng.uniform(0.0, 1.0, (n, 3))
    outside = np.flatnonzero(rng.random(n) < 0.08)
    points[outside, rng.integers(0, 3, len(outside))] = rng.choice(
        [-0.25, 8.0, 1e3], len(outside))
    classes = rng.integers(0, k + 1, n)
    invalid = np.flatnonzero(rng.random(n) < 0.04)
    classes[invalid] = rng.choice([-1, k + 1], len(invalid))
    confidence = rng.choice(
        [1.0, 1.0, float(np.nextafter(low, 1.0)), low + 1e-9, low, 0.1, 0.55, 0.9], n)
    plain = rng.random(n) < 0.4
    confidence[plain] = rng.uniform(low, 1.0, int(plain.sum()))
    return points, classes, confidence


@settings(max_examples=60, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), k=st.sampled_from([4, 6]),
       cells=st.integers(1, 6), n=st.integers(0, 120))
def test_batched_build_equals_record_by_record(tmp_path_factory, seed, k, cells, n):
    """``from_observations`` writes the file of a record-by-record
    ``add_observation`` build, byte for byte, and rejects the same rows
    with the same messages. With K > 4, truncation drops information, so
    the order of fusions within a leaf and the residual's summation order
    both show in the bytes. Before ``nodes`` is read, the built tree's
    columns are the merged columns of the record-by-record tree: keys,
    kinds, weights (by ``repr``), record fields, cached conditionals and
    the cached mask; the built table counts each record's nonzero ids."""
    rng = np.random.default_rng(seed)
    world = WorldConfig((0, 0, 0), 8.0, 3)
    points, classes, confidence = _observations(rng, k, cells, n)
    batch, rejected = SemanticOctree.from_observations(world, k, points, classes,
                                                       confidence)
    serial, expected = SemanticOctree(world, k), {}
    for i in range(n):
        try:
            serial.add_observation(tuple(points[i]), int(classes[i]), float(confidence[i]))
        except (OutOfBoundsError, DistributionError) as exc:
            expected[i] = str(exc)
    assert rejected == expected
    got, want = batch.levels(), serial.levels()
    assert batch._nodes is None and serial._nodes is None
    for column in ("depth", "index", "kind", "cached"):
        assert getattr(got, column).tolist() == getattr(want, column).tolist(), column
    assert list(map(repr, got.weight.tolist())) == list(map(repr, want.weight.tolist()))
    assert got.cond[got.cached].tobytes() == want.cond[want.cached].tobytes()
    records = np.flatnonzero(got.kind != INTERIOR).tolist()
    assert got.table.counts.tolist() == np.count_nonzero(got.table.ids, axis=1).tolist()
    assert [got.table.record(i) for i in records] == [want.table.record(i) for i in records]
    out = tmp_path_factory.mktemp("batch")
    serialize_tree(batch, out / "batch.soct")
    serialize_tree(serial, out / "serial.soct")
    assert (out / "batch.soct").read_bytes() == (out / "serial.soct").read_bytes()
    assert batch.nodes.keys() == serial.nodes.keys()
    for key, node in batch.nodes.items():
        if node.kind == LEAF:
            assert node.dist == serial.nodes[key].dist
            assert node.cond.tobytes() == serial.nodes[key].cond.tobytes()
            assert not node.cond.flags.writeable


def _assert_weights_are_completion_totals(tree):
    """Every key with stored children weighs, bit for bit, the total that
    ``child_sets`` reports for its row."""
    keys = sorted(k for k in tree.nodes if stored_children(tree, k))
    assert keys_with_children(tree) == set(keys)
    totals = tree.levels().child_sets(tree.rows(keys))[3].tolist() if keys else []
    for key, total in zip(keys, totals):
        assert repr(tree.nodes[key].weight) == repr(total), key


@settings(max_examples=12, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), branching=st.sampled_from([2, 4, 8]))
def test_interior_weights_equal_their_completion_totals(tmp_path_factory, seed, branching):
    """The one weight rule holds after a batch build, a stream of non-unit
    ``set_leaf`` installs and observations, each ``refresh_upward``,
    ``refresh_all``, a file round trip, and a prune and summary expansion."""
    rng = np.random.default_rng(seed)
    depth = {2: 4, 4: 3, 8: 2}[branching]
    world = WorldConfig((0, 0, 0), 16.0, depth, branching)
    points = rng.uniform(0, 16, (40, 3))
    built, _ = SemanticOctree.from_observations(
        world, 4, points, rng.integers(0, 5, 40), rng.uniform(0.5, 0.95, 40))
    _assert_weights_are_completion_totals(built)
    tree = make_random_tree(rng, branching, depth, fill=float(rng.uniform(0.1, 0.6)),
                            weight_range=(0.05, 7.0))
    _assert_weights_are_completion_totals(tree)
    cw = random_weights(rng)
    n = 1 << depth
    for _ in range(12):
        if rng.random() < 0.5:
            coords = tuple(int(c) for c in rng.integers(0, n, world.dims))
            leaf = tree.set_leaf(coords, random_truncated(rng, 4),
                                 float(rng.uniform(0.0, 7.0)))
        else:
            leaf = tree.add_observation(rng.uniform(0, 16, 3), int(rng.integers(0, 5)),
                                        float(rng.uniform(0.5, 0.95)))
        _assert_weights_are_completion_totals(tree)
        refresh_upward(tree, leaf, cw)
        _assert_weights_are_completion_totals(tree)
    refresh_all(tree, cw)
    _assert_weights_are_completion_totals(tree)
    path = tmp_path_factory.mktemp("weights") / "tree.soct"
    serialize_tree(tree, path)
    _assert_weights_are_completion_totals(deserialize_tree(path))
    # A summary of weight w expands to B shares w / B, whose total can differ
    # from w in the last bit; one distinct leaf keeps the root interior.
    tree = SemanticOctree(world, 4)
    shared, other = random_truncated(rng, 4), random_truncated(rng, 4)
    for cell in itertools.product(range(n), repeat=world.dims):
        tree.set_leaf(cell, shared if any(cell) else other, float(rng.uniform(0.1, 3.0)))
    assert tree.prune_all_identical()
    tree.expand_summaries()
    _assert_weights_are_completion_totals(tree)


def test_installs_and_writes_make_no_record_objects(tmp_path, monkeypatch):
    """A batch build, a file load, streamed observations (a new leaf, an
    update, one into a summary), summary expansion, pruning sweeps (one that
    prunes, ones that compare and keep) and the writer make no
    ``TruncatedSemanticDistribution``: records stay rows of read-only tables,
    and each ``node.dist`` is the record its row holds."""
    made = []
    init = TruncatedSemanticDistribution.__init__

    def counting_init(self, *args, **kwargs):
        made.append(args)
        init(self, *args, **kwargs)

    rng = np.random.default_rng(62)
    world = WorldConfig((0, 0, 0), 8.0, 3)
    shared = random_truncated(rng, 5)
    prunable = SemanticOctree(world, 5)
    for octant in range(8):
        prunable.set_leaf(world.coords_of(NodeKey(3, 8 + octant)), shared)
    monkeypatch.setattr(TruncatedSemanticDistribution, "__init__", counting_init)
    assert prunable.prune_all_identical() == 1
    serialize_tree(prunable, tmp_path / "summary.soct")
    points = rng.uniform(0, 4, (200, 3))
    built, _ = SemanticOctree.from_observations(world, 5, points, rng.integers(0, 6, 200),
                                                rng.uniform(0.5, 0.95, 200))
    serialize_tree(built, tmp_path / "built.soct")
    loaded = deserialize_tree(tmp_path / "built.soct")
    serialize_tree(loaded, tmp_path / "loaded.soct")
    assert (tmp_path / "loaded.soct").read_bytes() == (tmp_path / "built.soct").read_bytes()
    assert built.prune_all_identical() == loaded.prune_all_identical() == 0
    new = loaded.add_observation((7.5, 7.5, 7.5), 2, 0.9)
    loaded.add_observation((7.5, 7.5, 7.5), 3, 0.8)
    summaries = deserialize_tree(tmp_path / "summary.soct")
    into = summaries.add_observation(world.center_of(NodeKey(3, 8)), 1, 0.9)
    summaries.expand_summaries()
    assert summaries.prune_all_identical() == 0
    for tree in (built, loaded, summaries):
        serialize_tree(tree, tmp_path / "out.soct")
    assert made == []
    assert loaded.nodes[new].kind == summaries.nodes[into].kind == LEAF
    reference = reference_deserialize(tmp_path / "built.soct")
    for tree in (built, loaded, summaries):
        for key, node in tree.nodes.items():
            if node.kind == INTERIOR:
                assert node.table is None
                continue
            table = node.table
            assert not any(c.flags.writeable for c in table), key
            one = TruncatedRows.of([node.dist])
            assert all(np.array_equal(a[0], b[node.row]) for a, b in zip(one, table))
            if tree is not summaries and key in reference.nodes and key != new:
                assert node.dist == reference.nodes[key].dist, key
    assert made  # each read built a record


def _streamed(world, k, points, classes, confidence):
    """A record-by-record build and its rejections, as ``from_observations``
    reports them."""
    tree, rejected = SemanticOctree(world, k), {}
    for i, (point, cid, conf) in enumerate(zip(points, classes, confidence)):
        try:
            tree.add_observation(point, cid, conf)
        except (OutOfBoundsError, DistributionError) as exc:
            rejected[i] = str(exc)
    return tree, rejected


def _same_file(tmp_path, *trees):
    for i, tree in enumerate(trees):
        serialize_tree(tree, tmp_path / f"{i}.soct")
    return len({(tmp_path / f"{i}.soct").read_bytes() for i in range(len(trees))}) == 1


def test_streamed_insert_never_calls_the_batch_kernel(monkeypatch):
    """New leaves, updates and an observation into a summary run on the
    one-row kernel: a streamed build makes no call of ``fuse_rows``,
    ``truncate_rows`` or ``expand_rows``, which ``from_observations``
    still calls."""
    calls = Counter()

    def counted(name, fn):
        def wrapper(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)
        return wrapper

    for module in (octree, semantics):
        for name in ("fuse_rows", "truncate_rows", "expand_rows"):
            monkeypatch.setattr(module, name, counted(name, getattr(module, name)))
    rng = np.random.default_rng(63)
    world = WorldConfig((0, 0, 0), 8.0, 3)
    tree = SemanticOctree(world, 5)
    shared = random_truncated(rng, 5)
    for octant in range(8):
        tree.set_leaf(world.coords_of(NodeKey(3, 8 + octant)), shared)
    assert tree.prune_all_identical() == 1
    points = rng.uniform(0, 8, (60, 3))
    points[:, 2] += 4.0 - points[:, 2] / 2  # above the summary
    for point in np.vstack([points, points]):  # new leaves, then updates
        tree.add_observation(point, int(rng.integers(0, 6)), 0.8)
    summary = NodeKey(2, 1)
    assert tree.nodes[summary].kind == SUMMARY
    tree.add_observation(world.center_of(NodeKey(3, 8)), 1, 0.9)
    assert tree.nodes[summary].kind == INTERIOR
    assert sum(calls.values()) == 0
    SemanticOctree.from_observations(world, 5, points, rng.integers(0, 6, 60),
                                     np.full(60, 0.8))
    assert set(calls) == {"fuse_rows", "truncate_rows", "expand_rows"}


_NOT_INTEGERS = [1.5, 2.0, np.float64(2.0), "2", np.True_, None, [2]]


@pytest.mark.parametrize("obs_class", _NOT_INTEGERS)
def test_add_observation_rejects_class_ids_that_are_no_integer(obs_class):
    """A class id that ``operator.index`` refuses, 2.0 too, is a
    ``DistributionError`` that names it; the tree is left untouched, and an
    out-of-bounds point is reported first."""
    tree = SemanticOctree(WorldConfig((0, 0, 0), 8.0, 3), 4)
    with pytest.raises(DistributionError) as err:
        tree.add_observation((1.5, 1.5, 1.5), obs_class, 0.9)
    assert str(err.value) == f"non-integer class id {obs_class!r}"
    assert list(tree.nodes) == [ROOT_KEY]
    with pytest.raises(OutOfBoundsError):
        tree.add_observation((9.0, 1.5, 1.5), obs_class, 0.9)


def test_from_observations_rejects_class_ids_that_are_no_integer(tmp_path):
    """``from_observations`` rejects the rows whose class id is no
    integer, in row order, as the streamed build does, where it used to
    truncate 1.5 to class 1; a float array is refused row by row."""
    world = WorldConfig((0, 0, 0), 8.0, 3)
    points = [(1.5, 1.5, 1.5), (2.5, 1.5, 1.5), (9.0, 1.5, 1.5), (1.5, 1.5, 1.5),
              (3.5, 1.5, 1.5), (4.5, 1.5, 1.5), (5.5, 1.5, 1.5)]
    classes = [1, 1.5, 2.5, 2.0, "3", 2, 7]
    confidence = [0.9] * 7
    batch, rejected = SemanticOctree.from_observations(world, 4, points, classes,
                                                       confidence)
    assert rejected == {1: "non-integer class id 1.5",
                        2: "point [9.0, 1.5, 1.5] outside world volume",
                        3: "non-integer class id 2.0", 4: "non-integer class id '3'",
                        6: "observed class 7 outside 0..4"}
    streamed, expected = _streamed(world, 4, points, classes, confidence)
    assert rejected == expected
    assert _same_file(tmp_path, batch, streamed)
    assert batch.leaf_count() == 2
    _, rejected = SemanticOctree.from_observations(world, 4, points[:2],
                                                   np.array([1.0, 2.0]), [0.9, 0.9])
    assert rejected == {i: f"non-integer class id {np.float64(i + 1.0)!r}" for i in (0, 1)}


def test_class_ids_are_what_operator_index_accepts(tmp_path):
    """``True``, numpy integers and ints fuse as the int ``operator.index``
    gives, and numpy confidences as their float64 value, in both build
    paths."""
    world = WorldConfig((0, 0, 0), 8.0, 3)
    points = [(1.5, 1.5, 1.5), (2.5, 1.5, 1.5), (1.5, 1.5, 1.5), (3.5, 1.5, 1.5)]
    classes = [True, np.int64(2), np.uint8(3), 4]
    confidence = [np.float32(0.9), 0.8, np.float64(0.7), np.float16(0.6)]
    streamed, rejected = _streamed(world, 4, points, classes, confidence)
    plain, _ = _streamed(world, 4, points, [operator.index(c) for c in classes],
                         np.asarray(confidence, dtype=np.float64).tolist())
    batch, batch_rejected = SemanticOctree.from_observations(world, 4, points, classes,
                                                             confidence)
    assert rejected == batch_rejected == {}
    assert _same_file(tmp_path, streamed, plain, batch)
