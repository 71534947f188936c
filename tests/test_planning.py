import heapq
import re
import sys
import threading

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from soct import compression, planning
from soct.compression import CompressionWeights, compress_tree, full_tree, refresh_all
from soct.errors import ConfigError, GraphError
from soct.octree import INTERIOR, SemanticOctree, WorldConfig
from soct.planning import (
    UNKNOWN_CLASS,
    ColoredGraph,
    Edge,
    PlanQuery,
    class_at,
    class_ordered_astar,
    dominant_class,
    graph_from_tree,
    halton,
    halton_graph,
    halton_points,
    octree_class_at,
    _norms,
)
from soct.semantics import TruncatedSemanticDistribution

from helpers import (
    make_random_tree,
    ref_adjacency,
    ref_all_paths_best,
    ref_dijkstra_length,
    ref_octree_class,
    ref_segment_color,
    ref_tree_class,
    reference_astar,
    zero_bad_path_exists,
)

ROAD, GRASS = 1, 2
heapq_pop = heapq.heappop


def pure(cid):
    return TruncatedSemanticDistribution(((cid, 1.0),), 0.0, 0.0)


FREE_DIST = TruncatedSemanticDistribution((), 1.0, 0.0)


def grid_map(rows):
    """Quadtree world from a row-major class grid; row 0 is the lowest y."""
    n = len(rows)
    depth = n.bit_length() - 1
    world = WorldConfig((0, 0, 0), float(n), depth, branching=4)
    tree = SemanticOctree(world, 4)
    for iy, row in enumerate(rows):
        for ix, cid in enumerate(row):
            tree.set_leaf((ix, iy), FREE_DIST if cid == 0 else pure(cid), 1.0)
    return tree


def random_colored_graph(rng, n=10, extra_edges=8):
    positions = rng.uniform(0, 10, (n, 2))
    edges = []
    seen = set()
    order = list(range(1, n))
    rng.shuffle(order)
    connected = [0]
    for v in order:  # random spanning tree keeps most instances solvable
        u = int(rng.choice(connected))
        seen.add((min(u, v), max(u, v)))
        connected.append(v)
    for _ in range(extra_edges):
        u, v = rng.integers(0, n, 2)
        if u != v:
            seen.add((min(u, v), max(u, v)))
    for u, v in sorted(seen):
        length = float(np.linalg.norm(positions[u] - positions[v]))
        length *= float(rng.uniform(1.0, 1.5))
        color = int(rng.choice([0, 1, 2]))
        edges.append(Edge(u, v, max(length, 1e-6), color))
    return ColoredGraph(positions, rng.integers(0, 3, n), edges)


def test_halton_base_two_and_three():
    assert [halton(i, 2) for i in range(1, 6)] == [1 / 2, 1 / 4, 3 / 4, 1 / 8, 5 / 8]
    assert np.allclose([halton(i, 3) for i in range(1, 6)],
                       [1 / 3, 2 / 3, 1 / 9, 4 / 9, 7 / 9], atol=1e-15)
    pts = halton_points(5)
    assert pts.shape == (5, 2)
    assert np.allclose(pts[0], [0.5, 1 / 3])


@pytest.mark.parametrize("bases", [(2, 3), (5, 7)])
@pytest.mark.parametrize("n", [1, 2, 5, 255, 256, 4097])
def test_halton_points_equal_scalar_halton_bit_for_bit(n, bases):
    ref = np.array([[halton(i, bases[0]), halton(i, bases[1])]
                    for i in range(1, n + 1)])
    got = halton_points(n, bases)
    assert got.shape == (n, 2)
    assert got.tobytes() == ref.tobytes()


@pytest.mark.parametrize("k", [1, 4, 12])
@pytest.mark.parametrize("seed", [0, 1, 2])
def test_knn_edges_keep_row_unique_pair_order(seed, k):
    """Edges come in the order ``np.unique(axis=0)`` gives the (a, b) rows,
    without the zero-length pairs that duplicate points make."""
    from scipy.spatial import cKDTree

    rng = np.random.default_rng(seed)
    base = rng.uniform(0.0, 8.0, (60, 2))
    positions = np.vstack([base, base[rng.integers(0, 60, 20)]])
    rng.shuffle(positions)
    n = len(positions)
    world = WorldConfig((0, 0, 0), 8.0, 3, branching=4)
    centers = np.column_stack([positions, np.full(n, 0.5)])
    blocks = planning.BlockIndex.from_octree(SemanticOctree(world, 4))
    edges = planning._knn_edges(positions, centers, k, blocks, 0.5, PlanQuery(0, 0))

    _, idx = cKDTree(positions).query(positions, k=k + 1)
    u, v = np.repeat(np.arange(n), k + 1), idx.ravel()
    keep = (u != v) & (v < n)
    pairs = np.unique(np.column_stack([np.minimum(u, v), np.maximum(u, v)])[keep],
                      axis=0)
    apart = np.linalg.norm(positions[pairs[:, 0]] - positions[pairs[:, 1]], axis=1) > 0
    assert not apart.all()  # some duplicate points are neighbors
    assert np.column_stack([edges.u, edges.v]).tolist() == pairs[apart].tolist()
    assert set(edges.color.tolist()) == {UNKNOWN_CLASS}


def test_query_rejects_overlapping_sets():
    with pytest.raises(ConfigError):
        PlanQuery(0, 1, undesired={1}, relevant={1})


def test_astar_trivial_query():
    g = ColoredGraph(np.zeros((2, 2)), np.zeros(2, dtype=int),
                     [Edge(0, 1, 1.0, 0)])
    result = class_ordered_astar(g, PlanQuery(0, 0))
    assert result.vertices == [0]
    assert (result.undesired_edges, result.length) == (0, 0.0)


def test_astar_prefers_clean_longer_route():
    # route A: 0-1-2 of length 10 with clean edges; route B: 0-2 length 5, dirty
    positions = np.array([[0, 0], [5, 0], [5, 5]], dtype=float)
    edges = [Edge(0, 1, 5.0, 0), Edge(1, 2, 5.0, 0), Edge(0, 2, 5.0, 9)]
    g = ColoredGraph(positions, np.zeros(3, dtype=int), edges)
    result = class_ordered_astar(g, PlanQuery(0, 2, undesired={9}))
    assert result.undesired_edges == 0
    assert abs(result.length - 10.0) < 1e-12
    assert result.vertices == [0, 1, 2]


def test_astar_unreachable_goal():
    g = ColoredGraph(np.zeros((3, 2)), np.zeros(3, dtype=int),
                     [Edge(0, 1, 1.0, 0)])
    assert class_ordered_astar(g, PlanQuery(0, 2)) is None


def test_astar_matches_exhaustive_enumeration():
    rng = np.random.default_rng(60)
    solved = 0
    for _ in range(60):
        g = random_colored_graph(rng, n=int(rng.integers(5, 11)))
        query = PlanQuery(0, g.num_vertices - 1, undesired={2})
        result = class_ordered_astar(g, query)
        ref = ref_all_paths_best(g, query)
        if ref is None:
            assert result is None
            continue
        assert result is not None
        assert result.undesired_edges == ref[0]
        assert abs(result.length - ref[1]) < 1e-9
        solved += 1
    assert solved >= 40


def test_astar_without_undesired_equals_dijkstra():
    rng = np.random.default_rng(61)
    for _ in range(40):
        g = random_colored_graph(rng, n=int(rng.integers(5, 12)))
        query = PlanQuery(0, g.num_vertices - 1)
        result = class_ordered_astar(g, query)
        ref = ref_dijkstra_length(g, 0, g.num_vertices - 1)
        assert result is not None and ref is not None
        assert abs(result.length - ref) < 1e-9


def test_graph_from_all_free_map():
    tree = grid_map([[0] * 4 for _ in range(4)])
    cw = CompressionWeights({1: 1.0}, {}, 0.0)
    refresh_all(tree, cw)
    g = graph_from_tree(full_tree(tree), PlanQuery(0, 0), 4)
    assert g.num_vertices == 16
    assert np.all(g.colors == 0)
    assert all(e.color == 0 for e in g.edges)
    assert all(e.length > 0 for e in g.edges)


def test_graph_filters_to_relevant_corridor():
    rows = [[GRASS] * 4 for _ in range(4)]
    for ix in range(4):
        rows[1][ix] = ROAD
    tree = grid_map(rows)
    cw = CompressionWeights({ROAD: 1.0}, {}, 0.0)
    refresh_all(tree, cw)
    g = graph_from_tree(full_tree(tree), PlanQuery(0, 0, relevant={ROAD}), 3)
    assert g.num_vertices == 4
    assert np.all(g.colors == ROAD)
    assert np.all(np.abs(g.positions[:, 1] - 1.5) < 1e-12)


def test_graph_requires_traversable_leaves():
    tree = grid_map([[GRASS] * 4 for _ in range(4)])
    cw = CompressionWeights({1: 1.0}, {}, 0.0)
    refresh_all(tree, cw)
    with pytest.raises(GraphError):
        graph_from_tree(full_tree(tree), PlanQuery(0, 0), 3)


def test_edge_colors_match_brute_force_sampling():
    rows = [[ROAD] * 4 for _ in range(4)]
    for ix in range(4):
        rows[2][ix] = GRASS
    tree = grid_map(rows)
    cw = CompressionWeights({ROAD: 1.0}, {GRASS: 1.0}, 0.0)
    refresh_all(tree, cw)
    ctree = full_tree(tree)
    query = PlanQuery(0, 0, undesired={GRASS}, relevant={ROAD})
    g = graph_from_tree(ctree, query, 8)

    def true_class(x, y):
        return rows[int(np.clip(y, 0, 3.999))][int(np.clip(x, 0, 3.999))]

    crossing = 0
    for e in g.edges:
        p0, p1 = g.positions[e.u], g.positions[e.v]
        sampled = set()
        for t in np.linspace(0, 1, 257):
            p = p0 + t * (p1 - p0)
            sampled.add(true_class(p[0], p[1]))
        expected = GRASS if GRASS in sampled else ROAD
        assert e.color == expected
        crossing += expected == GRASS
    assert crossing > 0

    result = class_ordered_astar(
        g, PlanQuery(0, g.num_vertices - 1, undesired={GRASS}, relevant={ROAD}))
    assert result is not None
    assert result.undesired_edges == 1  # the grass band must be crossed once


def test_vertices_lie_inside_their_leaf_footprints():
    rng = np.random.default_rng(62)
    tree = make_random_tree(rng, branching=8, depth=2, fill=0.5)
    cw = CompressionWeights({c: 3.0 for c in range(1, 5)}, {}, 0.01)
    refresh_all(tree, cw)
    ctree = compress_tree(tree, cw)
    query = PlanQuery(0, 0, relevant=frozenset(range(1, 5)))
    try:
        g = graph_from_tree(ctree, query, 4)
    except GraphError:
        return
    assert g.num_vertices <= len(ctree.leaves)
    centers = {tuple(np.round(ctree.world.center_of(k)[:2], 9)): k
               for k in ctree.leaves}
    for i in range(g.num_vertices):
        key = centers[tuple(np.round(g.positions[i], 9))]
        half = ctree.world.sizes_of(key)[:2] / 2
        center = ctree.world.center_of(key)[:2]
        assert np.all(np.abs(g.positions[i] - center) <= half)


def test_class_lookup_unknown_for_virtual_blocks():
    world = WorldConfig((0, 0, 0), 4.0, 2, branching=4)
    tree = SemanticOctree(world, 4)
    tree.set_leaf((0, 0), pure(ROAD), 1.0)
    cw = CompressionWeights({ROAD: 10.0}, {}, 0.0)
    refresh_all(tree, cw)
    ctree = full_tree(tree)
    assert class_at(ctree, (0.5, 0.5, 2.0)) == ROAD
    assert class_at(ctree, (3.5, 3.5, 2.0)) == UNKNOWN_CLASS
    assert class_at(ctree, (99.0, 0.0, 0.0)) == UNKNOWN_CLASS
    assert octree_class_at(tree, (0.5, 0.5, 2.0)) == ROAD
    assert octree_class_at(tree, (3.5, 3.5, 2.0)) == UNKNOWN_CLASS


def test_halton_graph_colors_and_unknown_sentinel():
    rows = [[ROAD] * 4 for _ in range(2)] + [[0] * 4 for _ in range(2)]
    tree = grid_map(rows)
    cw = CompressionWeights({ROAD: 1.0}, {}, 0.0)
    refresh_all(tree, cw)
    query = PlanQuery(0, 0, relevant={ROAD})
    g = halton_graph(tree.world, tree, 32, 4, query)
    assert g.num_vertices == 32
    pts = halton_points(32) * 4.0
    assert np.allclose(g.positions, pts)
    for i in range(32):
        x, y = pts[i]
        expected = rows[int(y)][int(x)]
        assert g.colors[i] == expected
    # an empty tree maps everything to the unknown sentinel
    empty = SemanticOctree(tree.world, 4)
    g2 = halton_graph(tree.world, empty, 8, 3, query)
    assert np.all(g2.colors == UNKNOWN_CLASS)
    assert all(e.color == UNKNOWN_CLASS for e in g2.edges)


def test_unknown_edges_count_as_undesired():
    positions = np.array([[0, 0], [1, 0], [0, 1]], dtype=float)
    edges = [Edge(0, 1, 1.0, UNKNOWN_CLASS), Edge(0, 2, 1.0, 0), Edge(2, 1, 1.0, 0)]
    g = ColoredGraph(positions, np.zeros(3, dtype=int), edges)
    result = class_ordered_astar(g, PlanQuery(0, 1))
    assert result.undesired_edges == 0
    assert result.vertices == [0, 2, 1]


def test_dominant_class_tie_breaks_low():
    assert dominant_class(np.array([0.3, 0.3, 0.2, 0.2])) == 0
    assert dominant_class(np.array([0.1, 0.5, 0.4])) == 1
    assert type(dominant_class(np.array([0.2, 0.4, 0.4]))) is int
    rows = np.array([[0.3, 0.3, 0.2, 0.2], [0.1, 0.2, 0.35, 0.35], [0.1, 0.6, 0.2, 0.1]])
    assert dominant_class(rows).tolist() == [0, 2, 1]
    assert dominant_class(np.empty((0, 4))).shape == (0,)


def test_graph_builds_classify_each_block_index_once(monkeypatch):
    """One ``dominant_class`` call per ``BlockIndex`` build, over all its
    blocks, on a map of the benchmark's size (16x16x8 cells at depth 4): a
    per-block or per-leaf loop would make hundreds of calls."""
    rng = np.random.default_rng(77)
    world = WorldConfig((0, 0, 0), 16.0, 4)
    cells = np.array(list(np.ndindex(16, 16, 8)), dtype=float)
    terrain = np.where((cells[:, 1] >= 6) & (cells[:, 1] < 10), ROAD, GRASS)
    truth = np.repeat(np.where(cells[:, 2] == 0, terrain, 0), 3)
    noisy = rng.random(len(truth)) < 0.15
    truth[noisy] = rng.integers(0, 5, np.count_nonzero(noisy))
    points = np.repeat(cells, 3, axis=0) + rng.uniform(0.05, 0.95, (len(truth), 3))
    tree, rejected = SemanticOctree.from_observations(
        world, 4, points, truth, rng.uniform(0.6, 0.95, len(truth)))
    assert not rejected
    weights = CompressionWeights({ROAD: 4.0}, {GRASS: 0.5, 3: 0.5}, 0.02)
    refresh_all(tree, weights)
    ctree = compress_tree(tree, weights)
    query = PlanQuery(0, 0, undesired={GRASS, 3}, relevant={ROAD})
    calls = []

    def counting(marginals):
        calls.append(len(marginals))
        return dominant_class(marginals)

    # the tree graph classifies through compression.leaf_classes, the Halton
    # graph through BlockIndex.from_octree
    monkeypatch.setattr(compression, "dominant_class", counting)
    monkeypatch.setattr(planning, "dominant_class", counting)
    graph = graph_from_tree(ctree, query, 8)
    assert calls == [len(ctree.leaves)]
    assert graph.num_vertices > 300
    calls.clear()
    halton_graph(world, tree, 128, 8, query)
    blocks = sum(node.kind != INTERIOR for node in tree.nodes.values())
    assert calls == [blocks]
    assert blocks == 16 * 16 * 8


def test_zero_bad_path_oracle_consistency():
    rng = np.random.default_rng(63)
    for _ in range(30):
        g = random_colored_graph(rng, n=8)
        query = PlanQuery(0, 7, undesired={2})
        result = class_ordered_astar(g, query)
        exists = zero_bad_path_exists(g, query)
        if result is not None:
            assert (result.undesired_edges == 0) == exists


@pytest.mark.parametrize("k", [0, -3])
def test_k_neighbors_below_one_rejected(k):
    tree = grid_map([[0] * 4 for _ in range(4)])
    refresh_all(tree, CompressionWeights({1: 1.0}, {}, 0.0))
    with pytest.raises(ConfigError):
        graph_from_tree(full_tree(tree), PlanQuery(0, 0), k)
    with pytest.raises(ConfigError):
        halton_graph(tree.world, tree, 16, k, PlanQuery(0, 0))


def test_halton_graph_rejects_a_world_other_than_the_trees():
    """The vertices would sit in one world and read their classes in
    another; the vertex count and k are still checked first."""
    tree = grid_map([[ROAD] * 4 for _ in range(4)])
    shifted = WorldConfig((100.0, 100.0, 0.0), 4.0, 2, branching=4)
    with pytest.raises(ConfigError, match=re.escape(f"{shifted}") + ".*"
                       + re.escape(f"{tree.world}")):
        halton_graph(shifted, tree, 16, 4, PlanQuery(0, 0))
    with pytest.raises(ConfigError, match="at least 2 vertices"):
        halton_graph(shifted, tree, 1, 4, PlanQuery(0, 0))
    with pytest.raises(ConfigError, match="k_neighbors"):
        halton_graph(shifted, tree, 16, 0, PlanQuery(0, 0))
    assert halton_graph(tree.world, tree, 16, 4, PlanQuery(0, 0)).num_vertices == 16


def test_halton_graph_rejects_too_many_vertices(monkeypatch):
    def fail(*args, **kwargs):
        raise AssertionError("generated points for an oversized graph")

    monkeypatch.setattr(planning, "halton_points", fail)
    monkeypatch.setattr(planning, "halton", fail)
    monkeypatch.setattr(planning.BlockIndex, "from_octree", fail)
    world = WorldConfig((0, 0, 0), 4.0, 2, branching=4)
    tree = SemanticOctree(world, 4)
    limit = planning.MAX_HALTON_VERTICES
    with pytest.raises(ConfigError, match="limit"):
        halton_graph(world, tree, limit + 1, 4, PlanQuery(0, 0))
    with pytest.raises(AssertionError):  # the limit itself gets as far as the points
        halton_graph(world, tree, limit, 4, PlanQuery(0, 0))


@pytest.mark.parametrize("dims", [2, 3])
def test_norms_equal_linalg_norm_bit_for_bit(dims):
    rng = np.random.default_rng(64 + dims)
    n = 5000
    d = np.concatenate([
        # whole rows and single components over six decades of magnitude
        rng.standard_normal((n, dims)) * 10.0 ** rng.uniform(-3, 3, (n, 1)),
        rng.standard_normal((n, dims)) * 10.0 ** rng.uniform(-3, 3, (n, dims)),
        rng.integers(-1000, 1001, (n, dims)).astype(float),
        rng.integers(-1000, 1001, (n, dims)) + 0.5,
        np.zeros((3, dims)),
    ])
    got = _norms(d)
    want = np.array([np.linalg.norm(row) for row in d])
    assert got.dtype == np.float64 and got.shape == want.shape
    assert (got == want).all()
    assert (got[-3:] == 0.0).all()


def grid_graph(rng, rows, cols):
    """Integer grid with integer-length axis edges and some diagonals: many
    equal-length routes between two vertices."""
    positions = np.array([[x, y] for y in range(rows) for x in range(cols)],
                         dtype=float)
    colors = [0, 1, 2, UNKNOWN_CLASS]
    edges = []
    for y in range(rows):
        for x in range(cols):
            u = y * cols + x
            if x + 1 < cols:
                edges.append(Edge(u, u + 1, float(rng.integers(1, 3)),
                                  int(rng.choice(colors))))
            if y + 1 < rows:
                edges.append(Edge(u, u + cols, float(rng.integers(1, 3)),
                                  int(rng.choice(colors))))
            if x + 1 < cols and y + 1 < rows and rng.random() < 0.3:
                edges.append(Edge(u, u + cols + 1, float(np.sqrt(2.0)),
                                  int(rng.choice(colors))))
    return ColoredGraph(positions, np.zeros(len(positions), dtype=int), edges)


@settings(max_examples=80, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), kind=st.sampled_from(["random", "grid"]))
def test_astar_cost_is_its_path_cost(seed, kind):
    rng = np.random.default_rng(seed)
    if kind == "random":
        g = random_colored_graph(rng, n=int(rng.integers(2, 10)))
    else:
        g = grid_graph(rng, int(rng.integers(1, 4)), int(rng.integers(2, 5)))
    start, goal = (int(v) for v in rng.integers(0, g.num_vertices, 2))
    query = PlanQuery(start, goal, undesired={2})
    result = class_ordered_astar(g, query)
    ref = ref_all_paths_best(g, query)
    if ref is None:
        assert result is None
        return
    path = result.vertices
    assert path[0] == start and path[-1] == goal
    edge_of = {(min(e.u, e.v), max(e.u, e.v)): e for e in g.edges}
    length, bad = 0.0, 0
    for a, b in zip(path, path[1:]):
        e = edge_of[(min(a, b), max(a, b))]
        length += e.length
        bad += e.color in query.undesired or e.color == UNKNOWN_CLASS
    assert result.length == length
    assert result.undesired_edges == bad
    assert result.undesired_edges == ref[0]
    assert abs(result.length - ref[1]) < 1e-9


@pytest.mark.parametrize("length", [float("nan"), float("inf"), float("-inf")])
def test_non_finite_edge_length_rejected(length):
    edges = [Edge(0, 1, 1.0, 0), Edge(1, 2, length, 0)]
    with pytest.raises(GraphError, match=r"Edge\(u=1, v=2, .*non-finite"):
        ColoredGraph(np.zeros((3, 2)), np.zeros(3, dtype=int), edges)


_EDGES = [Edge(0, 1, 1.0, 0), Edge(1, 2, 2.0, 1), Edge(2, 3, 1.5, UNKNOWN_CLASS),
          Edge(3, 4, 1.0, 2), Edge(0, 4, 3.0, 0)]


@pytest.mark.parametrize("at", [0, 2, 4])
@pytest.mark.parametrize("bad, problem", [
    (Edge(0, 5, 1.0, 0), "references a missing vertex"),
    (Edge(-1, 2, 1.0, 1), "references a missing vertex"),
    (Edge(7, 2, float("nan"), 0), "references a missing vertex"),  # vertices first
    (Edge(1, 2, float("nan"), 0), "has non-finite length"),
    (Edge(1, 2, float("-inf"), 2), "has non-finite length"),
    (Edge(1, 2, 0.0, 0), "has non-positive length"),
    (Edge(1, 2, -2.5, UNKNOWN_CLASS), "has non-positive length"),
])
def test_edge_checks_name_the_first_bad_edge(bad, problem, at):
    """Each edge's checks run in order (vertices, finite, positive) and the
    first bad edge in edge order is reported, from a list or from arrays."""
    edges = _EDGES.copy()
    edges[at] = bad
    edges += [Edge(1, 9, 1.0, 0), Edge(0, 1, float("inf"), 0), Edge(0, 1, 0.0, 0)]
    for given in (edges, planning.EdgeArrays.of(edges)):
        with pytest.raises(GraphError) as err:
            ColoredGraph(np.zeros((5, 2)), np.zeros(5, dtype=int), given)
        assert str(err.value) == f"edge {bad} {problem}"


def _reference_edges(positions, centers, k, step, class_of_point, query):
    """The edges as a per-edge build lists them: row-unique kNN pairs (a, b),
    a < b, without zero-length ones, each with its ``np.linalg.norm``
    length and its color sampled one point at a time."""
    from scipy.spatial import cKDTree

    n = len(positions)
    k = min(k, n - 1)
    _, idx = cKDTree(positions).query(positions, k=k + 1)
    u, v = np.repeat(np.arange(n), k + 1), np.atleast_2d(idx).ravel()
    keep = (u != v) & (v < n)
    pairs = np.unique(np.column_stack([np.minimum(u, v), np.maximum(u, v)])[keep],
                      axis=0)
    edges = []
    for a, b in pairs.tolist():
        length = float(np.linalg.norm(positions[a] - positions[b]))
        if length > 0:
            edges.append(Edge(a, b, length, ref_segment_color(
                class_of_point, centers[a], centers[b], step, query.undesired,
                query.relevant)))
    return edges


def test_edge_samples_reach_the_far_endpoint_exactly():
    """For every sample count, a segment's last sample is its endpoint, as
    with ``np.linspace``, although ``(count - 1) * (1 / (count - 1))`` can
    fall short of 1: an endpoint exactly on a grass block's edge colors the
    edge grass."""
    tree = grid_map([[0, 0, 0, 0, GRASS, GRASS, GRASS, GRASS]] * 8)
    blocks = planning.BlockIndex.from_octree(tree)
    query = PlanQuery(0, 0, undesired=frozenset({GRASS}))
    centers = np.array([[0.5, 0.5, 0.5], [4.0, 0.5, 0.5]])
    for samples in range(2, 120):
        step = 3.5 / (samples - 1)
        edges = planning._knn_edges(centers[:, :2], centers, 1, blocks, step, query)
        assert edges.color.tolist() == [GRASS] == [ref_segment_color(
            lambda p: ref_octree_class(tree, p), centers[0], centers[1], step,
            query.undesired, query.relevant)]


def test_graph_edges_read_as_the_per_edge_reference():
    """``graph.edges`` lists the edges of a tree and of a Halton graph in the
    reference's order, with Python int and float fields, and the graph keeps
    the list it built. The Halton graph has more edges than one coloring
    batch."""
    rng = np.random.default_rng(90)
    tree = make_random_tree(rng, branching=8, depth=2, edge_length=8.0)
    world = tree.world
    query = PlanQuery(0, 0, undesired=frozenset({2}), relevant=frozenset({1}))
    step = world.edge_length / (1 << (world.max_depth + 1))
    halton = halton_graph(world, tree, 300, 8, query)
    centers = np.column_stack([halton.positions, np.full(300, world.origin[2]
                                                         + world.leaf_size / 2.0)])
    cw = CompressionWeights({1: 4.0}, {2: 0.5}, 0.01)
    refresh_all(tree, cw)
    ctree = compress_tree(tree, cw)
    graph = graph_from_tree(ctree, query, 8)
    keys = [key for key, leaf in ctree.leaves.items() if not leaf.virtual
            and dominant_class(leaf.marginals) in query.relevant | {0}]
    for g, points, class_of in (
            (halton, centers, lambda p: ref_octree_class(tree, p)),
            (graph, np.array([world.center_of(k) for k in keys]),
             lambda p: ref_tree_class(ctree, p))):
        want = _reference_edges(g.positions, points, 8, step, class_of, query)
        assert g.edges == want
        assert {tuple(map(type, e)) for e in g.edges} == {(int, int, float, int)}
        assert g.edges is g.edges and g.num_edges == len(want)
    assert halton.num_edges > planning._SEGMENTS_PER_BATCH


def test_labels_and_neighbors_of_components():
    rng = np.random.default_rng(70)
    # 0-3-5 and 1-4 are components, 2 and 6 isolated vertices
    edges = [Edge(3, 0, 1.5, 2), Edge(1, 4, 1.0, UNKNOWN_CLASS),
             Edge(5, 3, 2.0, 0), Edge(0, 5, 3.5, 1)]
    g = ColoredGraph(rng.uniform(0, 1, (7, 2)), np.zeros(7, dtype=int), edges)
    assert g.labels == [0, 1, 2, 0, 1, 0, 6]
    assert g.labels is g.labels
    assert [g.neighbors(u) for u in range(7)] == [ref_adjacency(g)[u] for u in range(7)]
    assert all(g.neighbors(u) is g.role_split(frozenset())[0][u] for u in range(7))
    assert class_ordered_astar(g, PlanQuery(0, 4)) is None
    assert class_ordered_astar(g, PlanQuery(2, 6)) is None
    assert class_ordered_astar(g, PlanQuery(2, 2)).vertices == [2]


def _ref_labels(graph):
    """Each vertex's lowest connected vertex, by search over ``ref_adjacency``."""
    adjacency, labels = ref_adjacency(graph), [None] * graph.num_vertices
    for root in range(graph.num_vertices):
        todo = [root]
        while todo:
            u = todo.pop()
            if labels[u] is None:
                labels[u] = root
                todo += [v for v, _, _ in adjacency[u]]
    return labels


def _check_splits(graph, sets):
    """``role_split`` of each set, in the given order, is ``ref_adjacency``
    filtered by kind in edge order, kept per set; ``neighbors`` is the
    reference's whole list."""
    ref = ref_adjacency(graph)
    for bad in sets:
        clean, undesired = split = graph.role_split(bad)
        assert graph.role_split(bad) is split
        assert len(clean) == len(undesired) == graph.num_vertices
        for u in range(graph.num_vertices):
            assert clean[u] == [e for e in ref[u] if e[2] not in bad]
            assert undesired[u] == [e for e in ref[u] if e[2] in bad]
    assert [graph.neighbors(u) for u in range(graph.num_vertices)] == \
        [ref[u] for u in range(graph.num_vertices)]


def test_concurrent_first_queries_agree():
    # More threads than cores race to build each graph's labels and splits;
    # a torn or mixed one would change some answer.
    rng = np.random.default_rng(71)
    switch = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for _ in range(5):
            g = grid_graph(rng, 6, 6)
            # three undesired sets, so first builds of each set's split race too
            sets = [{2}, {1}, {1, 2}]
            queries = [PlanQuery(int(s), int(t), undesired=sets[i % 3])
                       for i, (s, t) in enumerate(rng.integers(0, g.num_vertices, (12, 2)))]
            want = [reference_astar(g, q) for q in queries]
            got = [None] * len(queries)

            def run(i):
                got[i] = class_ordered_astar(g, queries[i])

            threads = [threading.Thread(target=run, args=(i,))
                       for i in range(len(queries))]
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=30)
            assert not any(t.is_alive() for t in threads)
            assert got == want
            assert g.labels == _ref_labels(g)
            _check_splits(g, [frozenset(undesired) | {UNKNOWN_CLASS} for undesired in sets])
    finally:
        sys.setswitchinterval(switch)


def _line_graph(lengths_colors, extra=()):
    """Vertices 0..n on the x axis, each edge i joining i and i + 1 with the
    given (length, color); ``extra`` edges are appended after them."""
    n = len(lengths_colors) + 1
    positions = np.column_stack([np.arange(n, dtype=float), np.zeros(n)])
    edges = [Edge(i, i + 1, length, color)
             for i, (length, color) in enumerate(lengths_colors)]
    return ColoredGraph(positions, np.zeros(n, dtype=int), edges + list(extra))


BUCKET_CASES = {
    # only route crosses two undesired edges: counts 0, 1 and 2 are buckets
    "three_buckets": (_line_graph([(1.0, 0), (1.0, 2), (1.0, 0), (1.0, 2), (1.0, 0)],
                                  [Edge(0, 2, 3.0, UNKNOWN_CLASS)]), 0, 5, 2),
    # 2 is first reached over the undesired edge 0-2, then improved over the
    # clean 0-1-2; its entry in the next bucket is stale when that bucket is
    # current, since the goal 3 lies behind another undesired edge. The
    # start, reached again from 2 over 0-2, is pushed to no bucket.
    "stale_in_next_bucket": (_line_graph([(1.0, 0), (1.0, 0), (10.0, 2)],
                                         [Edge(0, 2, 2.5, 2)]), 0, 3, 1),
    # the whole clean component {0, 1, 2, 3} is searched before the goal 4,
    # reached only over an undesired edge, comes off the next bucket
    "goal_after_clean_bucket": (_line_graph([(1.0, 0), (1.0, 0), (1.0, 0), (1.0, 2)],
                                            [Edge(0, 2, 2.5, 1), Edge(1, 3, 2.5, 0)]),
                                0, 4, 1),
    # parallel edges of both kinds, undesired first in edge order, and a
    # self-loop of each kind
    "parallel_and_loops": (_line_graph([(1.5, 2), (1.0, 2)],
                                       [Edge(0, 1, 2.0, 0), Edge(1, 1, 1.0, 2),
                                        Edge(1, 1, 1.0, 0), Edge(1, 2, 3.0, 0)]),
                           0, 2, 0),
}


def _pops(search, graph, query):
    """``search``'s outcome and the (vertex, length) of every heap entry it
    pops, read from either entry layout: the reference's (f_bad, f_len,
    counter, v, g_bad, g_len) or the bucket queue's (f_len, counter, v,
    g_len)."""
    popped = []

    def recording_pop(heap):
        entry = heapq_pop(heap)
        popped.append(entry[3::2] if len(entry) == 6 else entry[2:])
        return entry

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(heapq, "heappop", recording_pop)
        result = search(graph, query)
    return _outcome(result), popped


@pytest.mark.parametrize("case", sorted(BUCKET_CASES))
def test_astar_bucket_edge_cases(case):
    graph, start, goal, count = BUCKET_CASES[case]
    for s, t in ((start, goal), (goal, start)):
        query = PlanQuery(s, t, undesired={2})
        assert _pops(class_ordered_astar, graph, query) == \
            _pops(reference_astar, graph, query)
        assert class_ordered_astar(graph, query).undesired_edges == count


def test_role_split_is_built_once_per_set(monkeypatch):
    built = []
    adjacency = planning._adjacency

    def counting_adjacency(n, edges, mask):
        built.append(frozenset(edges.color[mask].tolist()))
        return adjacency(n, edges, mask)

    monkeypatch.setattr(planning, "_adjacency", counting_adjacency)
    g = grid_graph(np.random.default_rng(73), 4, 5)
    pairs = [(0, 19), (3, 16), (7, 12), (19, 0)]
    for undesired in ({2}, {2}, {1}, {2}):
        for s, t in pairs:
            query = PlanQuery(s, t, undesired=undesired)
            assert _outcome(class_ordered_astar(g, query)) == \
                _outcome(reference_astar(g, query))
    # one clean and one undesired build per set: {2, UNKNOWN}, then {1, UNKNOWN}
    colors = frozenset(g.edge_arrays.color.tolist())
    assert built == [colors - {2, UNKNOWN_CLASS}, colors & {2, UNKNOWN_CLASS},
                     colors - {1, UNKNOWN_CLASS}, colors & {1, UNKNOWN_CLASS}]
    bad = frozenset({2, UNKNOWN_CLASS})
    _check_splits(g, [bad])
    clean, dirty = g.role_split(bad)
    kinds = {(bool(c), bool(d)) for c, d in zip(clean, dirty)}
    assert kinds == {(True, False), (False, True), (True, True)}


@st.composite
def multigraphs(draw):
    """A graph of 1-8 vertices whose edges may be parallel or self-loops,
    with some vertices on no edge, and 1-4 undesired color sets, the empty
    set among them, in random order."""
    n = draw(st.integers(1, 8))
    vertex = st.integers(0, draw(st.integers(0, n - 1)))  # the rest isolated
    pairs = draw(st.lists(st.tuples(vertex, vertex), max_size=12))
    pairs += draw(st.lists(st.sampled_from(pairs), max_size=6)) if pairs else []
    colors = st.sampled_from([0, 1, 2, 3, UNKNOWN_CLASS])
    edges = [Edge(u, v, draw(st.floats(0.5, 4.0)), draw(colors)) for u, v in pairs]
    sets = draw(st.lists(st.frozensets(colors, max_size=3), max_size=3))
    positions = np.array(draw(st.lists(st.tuples(st.floats(0, 4), st.floats(0, 4)),
                                       min_size=n, max_size=n)))
    return (ColoredGraph(positions, np.zeros(n, dtype=int), edges),
            draw(st.permutations([frozenset(), *sets])))


@settings(max_examples=150, deadline=None)
@given(parts=multigraphs())
def test_role_splits_and_labels_equal_the_reference(parts):
    graph, sets = parts
    _check_splits(graph, sets)
    assert graph.labels == _ref_labels(graph)


@st.composite
def island_graphs(draw):
    """Positions, colors and an edge list of 1-4 connected components.

    A component of one vertex is an isolated vertex. Component vertex ids
    are interleaved, and the edge list is shuffled with random endpoint
    order. On an integer grid, positions and lengths are whole numbers, so
    many routes tie.
    """
    sizes = draw(st.lists(st.integers(1, 7), min_size=1, max_size=4))
    n = sum(sizes)
    ids = draw(st.permutations(range(n)))
    grid = draw(st.booleans())
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    if grid:
        positions = rng.integers(0, 4, (n, 2)).astype(float)
    else:
        positions = rng.uniform(0, 10, (n, 2))
    pairs = set()
    first = 0
    for size in sizes:
        members = ids[first:first + size]
        first += size
        for i in range(1, size):  # a random spanning tree of the component
            pairs.add((members[int(rng.integers(0, i))], members[i]))
        for _ in range(int(rng.integers(0, 2 * size))):
            a, b = rng.choice(members, 2)
            if a != b and (b, a) not in pairs:
                pairs.add((int(a), int(b)))
    edges = []
    for a, b in sorted(pairs):
        dist = float(np.linalg.norm(positions[a] - positions[b]))
        if grid:
            length = float(max(np.ceil(dist), 1.0) + rng.integers(0, 2))
        else:
            length = max(dist * float(rng.uniform(1.0, 1.5)), 1e-6)
        color = int(rng.choice([0, 1, 2, UNKNOWN_CLASS]))
        edges.append(Edge(a, b, length, color) if rng.random() < 0.5
                     else Edge(b, a, length, color))
    order = rng.permutation(len(edges))
    return positions, rng.integers(0, 3, n), [edges[i] for i in order]


def _outcome(result):
    if result is None:
        return None
    return result.vertices, result.undesired_edges, repr(result.length)


@settings(max_examples=150, deadline=None)
@given(parts=island_graphs(), data=st.data())
def test_astar_equals_reference_search(parts, data):
    positions, colors, edges = parts
    n = len(positions)
    vertex = st.integers(0, n - 1)
    undesired = st.frozensets(st.integers(0, 2), max_size=2)
    # The same graph answers several queries in turn, each with its own
    # undesired set; a second graph on the same vertices keeps a random
    # subset of the edges, so its components differ.
    graph = ColoredGraph(positions, colors, edges)
    keep = data.draw(st.lists(st.booleans(), min_size=len(edges),
                              max_size=len(edges)))
    sub = ColoredGraph(positions, colors, [e for e, k in zip(edges, keep) if k])
    for g in data.draw(st.permutations([graph, graph, sub])):
        start = data.draw(vertex)
        goal = data.draw(st.one_of(st.just(start), vertex))
        query = PlanQuery(start, goal, undesired=data.draw(undesired))
        assert _outcome(class_ordered_astar(g, query)) == \
            _outcome(reference_astar(g, query))


@settings(max_examples=60, deadline=None)
@given(parts=island_graphs(), data=st.data())
def test_astar_pops_in_reference_order(parts, data):
    """Without parallel edges the bucket queue pops the reference's heap
    entries in the reference's order, stale ones included. (Between two
    components only the reference searches.)"""
    graph = ColoredGraph(*parts)
    labels = graph.labels
    start = data.draw(st.integers(0, graph.num_vertices - 1))
    goal = data.draw(st.sampled_from([v for v, c in enumerate(labels) if c == labels[start]]))
    query = PlanQuery(start, goal,
                      undesired=data.draw(st.frozensets(st.integers(0, 2), max_size=2)))
    assert _pops(class_ordered_astar, graph, query) == \
        _pops(reference_astar, graph, query)
