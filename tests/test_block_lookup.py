"""Batched Morton-code block lookup against per-point reference walks.

The references in ``helpers`` derive integer cell coordinates and walk the
``NodeKey`` path from the root one point at a time; they never use
``WorldConfig.morton``.
"""

import itertools
import warnings

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from soct.compression import compress_tree, full_tree, refresh_all
from soct.errors import GraphError, OutOfBoundsError
from soct.octree import SemanticOctree, WorldConfig
from soct.planning import (
    UNKNOWN_CLASS,
    BlockIndex,
    PlanQuery,
    dominant_class,
    graph_from_tree,
    halton_graph,
)
from soct.semantics import truncate_full

from helpers import (
    make_random_tree,
    random_truncated,
    random_weights,
    ref_cell_coords,
    ref_octree_class,
    ref_segment_color,
    ref_tree_class,
)

ORIGINS = [(0.0, 0.0, 0.0), (0.1, -0.3, 0.7), (-5.25, 3.3, 1e-3)]
EDGES = [16.0, 10.0, 0.3, 0.8, 6.4]


def tied_truncated(rng, num_classes):
    """Random record whose two most likely classes (free space included)
    tie exactly, so its dominant class is the lower id of the two."""
    probs = rng.dirichlet(np.full(num_classes + 1, 0.5))
    top = int(np.argmax(probs))
    probs[rng.choice([c for c in range(num_classes + 1) if c != top])] = probs[top]
    return truncate_full(probs / probs.sum())


def random_map(rng, branching, depth, origin, edge_length, prune):
    """Random partially observed tree in which some leaves' top classes tie
    exactly; with ``prune``, some whole blocks share one record and collapse
    into summaries."""
    tree = make_random_tree(rng, branching=branching, depth=depth,
                            fill=float(rng.uniform(0.3, 1.0)),
                            origin=origin, edge_length=edge_length)
    for key in [k for k, node in tree.nodes.items() if node.dist is not None]:
        if rng.random() < 0.3:
            tree.set_leaf(tree.world.coords_of(key), tied_truncated(rng, tree.num_classes),
                          float(rng.uniform(0.2, 3.0)))
    if prune:
        block_depth = int(rng.integers(0, depth))
        shared = {}
        for coords in itertools.product(range(1 << depth), repeat=tree.world.dims):
            block = tuple(c >> (depth - block_depth) for c in coords)
            if block not in shared:
                draw = rng.random()
                shared[block] = (None if draw < 0.5
                                 else tied_truncated(rng, tree.num_classes) if draw < 0.65
                                 else random_truncated(rng, tree.num_classes))
            if shared[block] is not None:
                tree.set_leaf(coords, shared[block], float(rng.uniform(0.2, 3.0)))
        tree.prune_all_identical()
    return tree


def probe_points(rng, world, count=120):
    """Random interior points plus cell faces, points just below faces,
    one-decimal offsets (where x / size and x // size can round apart), the
    upper world corner, and points outside or non-finite."""
    o = np.array(world.origin)
    e = world.edge_length
    n = 1 << world.max_depth
    inner = o + rng.uniform(0.0, 1.0, (count, 3)) * e
    faces = o + rng.integers(0, n + 1, (count, 3)) * world.leaf_size
    below = np.nextafter(faces, -np.inf)
    mixed = np.where(rng.random((count, 3)) < 0.5, faces, inner)
    decimal = o + np.round(rng.uniform(0.0, e, (count, 3)), 1)
    special = np.array([
        o + e, o, np.nextafter(o + e, -np.inf),
        [o[0] + e, o[1], o[2]], [o[0], o[1], o[2] + e],
        o - 1e-9, o + 2 * e, o - e,
        [np.nan, o[1], o[2]], [np.inf, o[1], o[2]], [o[0], -np.inf, o[2]],
    ])
    return np.vstack([inner, faces, below, mixed, decimal, special])


@pytest.mark.parametrize("branching", [2, 4, 8])
@pytest.mark.parametrize("origin", ORIGINS)
def test_empty_octree_reads_unknown(branching, origin):
    """An octree with no stored leaf or summary gives an index of zero
    blocks, and every probe, inside the world or not, reads UNKNOWN_CLASS."""
    rng = np.random.default_rng(branching)
    tree = SemanticOctree(WorldConfig(origin, 6.4, 3, branching), 4)
    points = probe_points(rng, tree.world)
    index = BlockIndex.from_octree(tree)
    assert len(index.starts) == len(index.classes) == 0
    got = index.classify(points)
    assert got.tolist() == [ref_octree_class(tree, p) for p in points]
    assert set(got.tolist()) == {UNKNOWN_CLASS}


@settings(max_examples=60, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), branching=st.sampled_from([2, 4, 8]),
       depth=st.integers(1, 3), prune=st.booleans(),
       origin=st.sampled_from(ORIGINS), edge_length=st.sampled_from(EDGES),
       compressed=st.booleans())
# 0.5 // 0.1 is 4.0 while 0.5 / 0.1 rounds to 5.0: the floor rule must hold
@example(seed=0, branching=8, depth=3, prune=False, origin=(0.0, 0.0, 0.0),
         edge_length=0.8, compressed=False)
def test_batched_lookup_matches_reference(seed, branching, depth, prune, origin,
                                          edge_length, compressed):
    rng = np.random.default_rng(seed)
    tree = random_map(rng, branching, depth, origin, edge_length, prune)
    points = probe_points(rng, tree.world)

    got = BlockIndex.from_octree(tree).classify(points)
    assert got.tolist() == [ref_octree_class(tree, p) for p in points]

    tree.expand_summaries()
    cw = random_weights(rng)
    refresh_all(tree, cw)
    ctree = compress_tree(tree, cw) if compressed else full_tree(tree)
    got = BlockIndex.from_compressed(ctree).classify(points)
    assert got.tolist() == [ref_tree_class(ctree, p) for p in points]


@settings(max_examples=60, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), branching=st.sampled_from([2, 4, 8]),
       depth=st.integers(1, 6), origin=st.sampled_from(ORIGINS),
       edge_length=st.sampled_from(EDGES))
@example(seed=0, branching=8, depth=3, origin=(0.0, 0.0, 0.0), edge_length=0.8)
# a power-of-two leaf size (0.25): ``morton`` multiplies by its inverse there
@example(seed=1, branching=8, depth=6, origin=(-5.25, 3.3, 1e-3), edge_length=16.0)
def test_single_point_lookup_matches_reference(seed, branching, depth, origin,
                                               edge_length):
    """``contains``/``leaf_coords``/``leaf_key`` on one point agree with the
    per-point reference and with the batched ``morton`` codes, on faces,
    just below them, the upper corner and non-finite points. ``morton``
    warns of nothing and gives an outside point code 0."""
    rng = np.random.default_rng(seed)
    world = WorldConfig(origin, edge_length, depth, branching)
    points = probe_points(rng, world, count=40)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        codes, inside = world.morton(points)
    assert not codes[~inside].any()
    for point, code, ok in zip(points, codes.tolist(), inside.tolist()):
        ref = ref_cell_coords(world, point)
        assert world.contains(point) == (ref is not None) == ok
        if ref is None:
            message = f"point {[float(v) for v in point]} outside world volume"
            for lookup in (world.leaf_coords, world.leaf_key):
                with pytest.raises(OutOfBoundsError) as err:
                    lookup(point)
                assert str(err.value) == message
            continue
        assert world.leaf_coords(point) == tuple(ref)
        assert world.leaf_key(point).index == code


def random_query(rng):
    ids = [int(c) for c in rng.permutation(5)]
    split = int(rng.integers(0, 4))
    return PlanQuery(0, 0, undesired=frozenset(ids[:split]),
                     relevant=frozenset(ids[split:split + 2]) - {0})


@settings(max_examples=40, deadline=None)
@given(seed=st.integers(0, 2**32 - 1),
       shape=st.sampled_from([(2, 1), (2, 3), (4, 1), (4, 2), (4, 3), (8, 1), (8, 2)]),
       prune=st.booleans(), origin=st.sampled_from(ORIGINS),
       edge_length=st.sampled_from(EDGES), k=st.integers(1, 5))
def test_edge_colors_match_per_sample_reference(seed, shape, prune, origin,
                                                edge_length, k):
    rng = np.random.default_rng(seed)
    branching, depth = shape
    tree = random_map(rng, branching, depth, origin, edge_length, prune)
    world = tree.world
    query = random_query(rng)
    step = world.edge_length / (1 << (world.max_depth + 1))

    n = int(rng.integers(2, 40))
    g = halton_graph(world, tree, n, k, query)
    centers = np.column_stack([g.positions, np.full(n, world.origin[2]
                                                    + world.leaf_size / 2.0)])
    assert g.colors.tolist() == [ref_octree_class(tree, c) for c in centers]
    for e in g.edges:
        assert e.color == ref_segment_color(
            lambda p: ref_octree_class(tree, p), centers[e.u], centers[e.v],
            step, query.undesired, query.relevant)

    tree.expand_summaries()
    cw = random_weights(rng)
    refresh_all(tree, cw)
    ctree = compress_tree(tree, cw)
    try:
        g = graph_from_tree(ctree, query, k)
    except GraphError:
        return
    centers = np.array([world.center_of(key) for key, leaf in ctree.leaf_items()
                        if not leaf.virtual and dominant_class(leaf.marginals)
                        in query.relevant | {0}])
    assert np.array_equal(g.positions, centers[:, :2])
    for e in g.edges:
        assert e.color == ref_segment_color(
            lambda p: ref_tree_class(ctree, p), centers[e.u], centers[e.v],
            step, query.undesired, query.relevant)
