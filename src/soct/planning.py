"""Semantically colored planning graphs and Class-Ordered A*.

Vertices carry the dominant class of the map region they sit in; edges carry
the most-undesired class met while sampling the straight segment between
their endpoints. Unobserved space maps to the UNKNOWN_CLASS sentinel and is
always treated as undesired. The search minimizes the lexicographic pair
(number of undesired-class edges, total length); no scalarized weighting is
ever used. The class-id rules (``UNKNOWN_CLASS``, ``dominant_class``,
``leaf_classes``) live in ``semantics`` and ``compression``.

All point lookups go through one primitive. ``WorldConfig.morton`` turns a
batch of points into finest-depth Morton (Z-order) codes, and a node's
region is one contiguous code range. ``BlockIndex`` sorts the map's blocks
by range start: the leaves of a compressed tree, which tile the world with
virtual blocks as UNKNOWN_CLASS, or the stored leaves and summaries of a
raw octree, where a gap is unobserved space. The index classifies all its
blocks when it is built, with one ``dominant_class`` call over their stacked
distributions, so placing a whole batch of samples is one ``searchsorted``
and one gather. A graph build classifies the samples of its edges in
batches of up to 1,024 edges, and each edge's color is a maximum over
severity ranks; ``graph_from_tree`` also picks its vertices from the
index's classes. Edges stay columns (``EdgeArrays``) from the kNN search
to the graph. ``class_at`` and ``octree_class_at`` are one-point calls of
the same path.

Edge lengths, segment lengths and the A* heuristic all come from one
batched row-norm kernel, ``_norms``; a query computes every vertex's
straight-line distance to its goal in one call before searching.

For each undesired color set a query names, a graph keeps a role split of
its edges (``ColoredGraph.role_split``): per vertex, its clean and its
undesired edges, each list in edge order, built straight from the edge
columns on the set's first query. ``ColoredGraph.neighbors`` reads the
empty set's clean lists. The graph also keeps its connected-component labels
(``ColoredGraph.labels``), and a query between two components returns None
without a search. Class-Ordered A* keeps its open set in two buckets, one per
live undesired count (Dial's bucket queue), and relaxes each kind of edge
into its own bucket without testing colors. A graph's edges must not change
after its first query.

Graph construction and search are read-only over their inputs; multiple
queries may run concurrently on one graph. Concurrent first queries build
equal labels and splits, and a single store publishes each whole.
"""

from __future__ import annotations

import heapq
import math
from dataclasses import dataclass, field
from functools import cached_property
from typing import NamedTuple

import numpy as np

from .compression import CompressedTree, leaf_classes
from .errors import ConfigError, GraphError, TreeError
from .octree import INTERIOR, SemanticOctree, WorldConfig
from .semantics import UNKNOWN_CLASS, dominant_class

# Largest Halton graph built; a larger request is a config error, raised
# before any point is generated. At k = 8 a graph holds about 1.3 kB per
# vertex after its first query: 163 B in its edge arrays, 1,168 B in its
# labels and the query's role split (tracemalloc, 20,000 vertices on the
# demo map); each further undesired set's split adds 1,160 B. Building it
# and a first query raised peak RSS by 40 MB at 20,000 vertices and by
# 83 MB at 40,000. This cap is ~130 MB where 1,000,000 vertices would need
# ~1.3 GB.
MAX_HALTON_VERTICES = 100_000


@dataclass(frozen=True)
class PlanQuery:
    """Start/goal vertex indices plus the task's class sets.

    ``undesired`` classes are minimized lexicographically before length;
    ``relevant`` classes additionally qualify map regions as traversable
    when building graphs. The two sets must be disjoint.
    """

    start: int
    goal: int
    undesired: frozenset[int] = frozenset()
    relevant: frozenset[int] = frozenset()

    def __post_init__(self):
        object.__setattr__(self, "undesired", frozenset(self.undesired))
        object.__setattr__(self, "relevant", frozenset(self.relevant))
        overlap = self.undesired & self.relevant
        if overlap:
            raise ConfigError(f"classes {sorted(overlap)} both undesired and relevant")


class Edge(NamedTuple):
    u: int
    v: int
    length: float
    color: int


class EdgeArrays(NamedTuple):
    """A graph's edges as columns, in edge order: endpoints ``u`` and ``v``
    (int64), ``length`` (float64) and ``color`` (int64)."""

    u: np.ndarray
    v: np.ndarray
    length: np.ndarray
    color: np.ndarray

    @classmethod
    def of(cls, edges) -> "EdgeArrays":
        columns = list(zip(*edges)) or [()] * 4
        return cls(*map(np.array, columns, (np.int64, np.int64, np.float64, np.int64)))


def _adjacency(n: int, edges: EdgeArrays,
               mask: np.ndarray) -> list[list[tuple[int, float, int]]]:
    """Per vertex, ``(v, length, color)`` for every edge at it that ``mask``
    picks, in edge order."""
    # Appending entry tuples edge by edge measured faster than one stable
    # sort of the 2E directed entries sliced into per-vertex lists.
    adjacency: list[list[tuple[int, float, int]]] = [[] for _ in range(n)]
    for u, v, length, color in zip(*(column[mask].tolist() for column in edges)):
        adjacency[u].append((v, length, color))
        adjacency[v].append((u, length, color))
    return adjacency


def _component_labels(n: int, u: np.ndarray, v: np.ndarray) -> np.ndarray:
    """Each vertex's component, named by its lowest vertex.

    A forest in which every vertex points at a lower one or at itself: each
    round hooks the higher root of every edge whose ends have different
    roots under the lower one, then jumps pointers (``parent[parent]``)
    until every vertex points at its root. A tree's root is its lowest
    vertex, and once no edge joins two trees, each tree is a component.
    """
    parent = np.arange(n)
    while True:
        ru, rv = parent[u], parent[v]
        split = ru != rv
        if not split.any():
            return parent
        np.minimum.at(parent, np.maximum(ru, rv)[split], np.minimum(ru, rv)[split])
        while True:
            up = parent[parent]
            if np.array_equal(up, parent):
                break
            parent = up


@dataclass
class ColoredGraph:
    """Undirected graph with per-vertex positions/colors and colored edges,
    held as ``EdgeArrays`` (a list of ``Edge`` is converted). ``edges``
    builds the ``Edge`` list on its first read and keeps it; no graph
    build, search or CLI command reads it. Edges must not change after the
    graph's first query: its labels and role splits are built from them on
    first use.
    """

    positions: np.ndarray
    colors: np.ndarray
    edge_arrays: EdgeArrays
    _splits: dict = field(default_factory=dict, init=False, repr=False,
                          compare=False)

    def __post_init__(self):
        if not isinstance(self.edge_arrays, EdgeArrays):
            self.edge_arrays = EdgeArrays.of(self.edge_arrays)
        u, v, length, _ = self.edge_arrays
        n = len(self.positions)
        bad = np.array([(u < 0) | (u >= n) | (v < 0) | (v >= n), ~np.isfinite(length),
                        length <= 0])  # each edge's checks, in order
        first = np.flatnonzero(bad.any(axis=0))
        if len(first):
            i = first[0]
            problem = ("references a missing vertex", "has non-finite length",
                       "has non-positive length")[int(np.argmax(bad[:, i]))]
            raise GraphError(f"edge {Edge(*(c[i].item() for c in self.edge_arrays))} "
                             f"{problem}")

    @property
    def num_vertices(self) -> int:
        return len(self.positions)

    @property
    def num_edges(self) -> int:
        return len(self.edge_arrays.u)

    @cached_property
    def edges(self) -> list[Edge]:
        """The edges as an ``Edge`` list, built on the first read."""
        return list(map(Edge, *(c.tolist() for c in self.edge_arrays)))

    @cached_property
    def labels(self) -> list[int]:
        """Each vertex's connected component, named by its lowest vertex, so
        two vertices are connected exactly when their labels match; built
        on the first read."""
        return _component_labels(self.num_vertices, self.edge_arrays.u,
                                 self.edge_arrays.v).tolist()

    def neighbors(self, u: int) -> list[tuple[int, float, int]]:
        """``(v, length, color)`` for every edge at ``u``, in edge order: the
        clean list of the empty undesired set."""
        return self.role_split(frozenset())[0][u]

    def role_split(self, bad: frozenset[int]) -> tuple[list, list]:
        """``(clean, undesired)``: per vertex, ``(v, length, color)`` for every
        edge at it whose color is not in ``bad`` and for every one whose
        color is, each list in edge order. Built from the edge columns on
        the first call per set and kept.

        Concurrent first calls build equal splits; one dict store publishes
        each whole.
        """
        split = self._splits.get(bad)
        if split is None:
            n, edges = self.num_vertices, self.edge_arrays
            marked = np.zeros(self.num_edges, dtype=bool)
            for c in bad:  # one == per class: np.isin costs more on a few classes
                marked |= edges.color == c
            split = self._splits[bad] = (_adjacency(n, edges, ~marked),
                                         _adjacency(n, edges, marked))
        return split


class PlanResult(NamedTuple):
    vertices: list[int]
    undesired_edges: int
    length: float


# -- class lookups ------------------------------------------------------------


class BlockIndex:
    """Map blocks as disjoint ranges [start, end) of finest-depth Morton codes,
    each with its class id.

    A point lies in the block whose range holds its ``WorldConfig.morton``
    code; a code in no range is unobserved space. The blocks' keys
    (``depth``, ``index``), ``starts``, ``ends`` and ``classes`` are sorted
    by range start. The constructors classify every block at once, so
    ``classify`` only gathers.
    """

    def __init__(self, world: WorldConfig, depth: np.ndarray, index: np.ndarray, classes):
        shift = world.dims * (world.max_depth - depth)
        starts = index << shift
        order = np.argsort(starts, kind="stable")
        self.world = world
        self.depth, self.index = depth[order], index[order]
        self.starts = starts[order]
        self.ends = ((index + 1) << shift)[order]
        self.classes = np.asarray(classes, dtype=np.int64)[order]

    @classmethod
    def from_compressed(cls, ctree: CompressedTree) -> "BlockIndex":
        """Blocks of a compressed tree: its leaves, which tile the world.

        Virtual (unobserved) leaves classify as UNKNOWN_CLASS.
        """
        blocks = ctree.leaf_arrays
        index = cls(ctree.world, blocks.depth, blocks.index, leaf_classes(blocks))
        n_codes = 1 << (ctree.world.dims * ctree.world.max_depth)
        if not (len(index.starts) and index.starts[0] == 0
                and index.ends[-1] == n_codes
                and np.all(index.starts[1:] == index.ends[:-1])):
            raise TreeError("compressed tree leaves do not tile the world volume")
        return index

    @classmethod
    def from_octree(cls, tree: SemanticOctree) -> "BlockIndex":
        """Blocks of a raw octree: its stored leaves and summaries, classified
        by the vectors installed with their records. An empty tree has no
        blocks."""
        store = tree.levels()
        rec = store.kind != INTERIOR
        return cls(tree.world, store.depth[rec], store.index[rec],
                   dominant_class(store.cond[rec]))

    def classify(self, points) -> np.ndarray:
        """Class id of every point in an (N, 3) array; UNKNOWN_CLASS off-map."""
        codes, inside = self.world.morton(points)
        block = np.searchsorted(self.starts, codes, side="right") - 1
        hit = inside & (block >= 0)
        hit[hit] = codes[hit] < self.ends[block[hit]]
        classes = np.full(len(codes), UNKNOWN_CLASS, dtype=np.int64)
        classes[hit] = self.classes[block[hit]]
        return classes


def class_at(ctree: CompressedTree, point) -> int:
    """Class of the compressed-tree block containing a 3-d point.

    Returns UNKNOWN_CLASS for virtual (unobserved) blocks and for points
    outside the world volume.
    """
    return int(BlockIndex.from_compressed(ctree).classify(point)[0])


def octree_class_at(tree: SemanticOctree, point) -> int:
    """Class of the finest stored node containing a 3-d point.

    A stored leaf or summary gives its dominant class; space no such record
    covers is unobserved.
    """
    return int(BlockIndex.from_octree(tree).classify(point)[0])


# -- edge coloring ---------------------------------------------------------------


def _severity(cid: int, query: PlanQuery):
    if cid in query.undesired:
        tier = 4
    elif cid == UNKNOWN_CLASS:
        tier = 3
    elif cid in query.relevant:
        tier = 1
    elif cid == 0:
        tier = 0
    else:
        tier = 2
    return (tier, -cid)


def _norms(d: np.ndarray) -> np.ndarray:
    """Euclidean norm of every row of a 2-d float array.

    ``np.vecdot`` sums each row's products as ``d[i].dot(d[i])`` does, so
    each value equals ``np.linalg.norm(d[i])`` bit for bit; ``(d * d).sum``,
    ``np.einsum`` and ``np.hypot`` round differently.
    """
    return np.sqrt(np.vecdot(d, d))


_SEGMENTS_PER_BATCH = 1024  # bounds the sample arrays alive at once


def _segment_colors(p0: np.ndarray, delta: np.ndarray, counts: np.ndarray,
                    blocks: BlockIndex, rank: np.ndarray) -> np.ndarray:
    """Highest severity rank (``rank[c + 1]`` for class ``c``) among
    ``counts[i]`` evenly spaced samples of each segment
    ``p0[i] + t * delta[i]``, t in [0, 1], all classified in one batch."""
    offsets = np.cumsum(counts) - counts
    seg = np.repeat(np.arange(len(counts)), counts)
    # np.linspace(0, 1, count) per segment: sample j at j * (1 / (count - 1)),
    # the last at 1 exactly
    t = (np.arange(len(seg)) - offsets[seg]) * (1.0 / (counts - 1))[seg]
    t[offsets + counts - 1] = 1.0
    # p0 + t * (p1 - p0) per sample, in place; IEEE + and * commute exactly
    samples = delta[seg]
    samples *= t[:, None]
    samples += p0[seg]
    return np.maximum.reduceat(rank[blocks.classify(samples) + 1], offsets)


def _knn_edges(positions: np.ndarray, centers3d: np.ndarray, k: int,
               blocks: BlockIndex, step: float, query: PlanQuery) -> EdgeArrays:
    """k-nearest-neighbor edges, each colored with the most-undesired class
    sampled along its 3-d segment at ``step`` spacing, endpoints included."""
    n = len(positions)
    k = min(k, n - 1)
    if k <= 0:
        return EdgeArrays.of([])
    from scipy.spatial import cKDTree  # deferred: a slow import only graphs need

    _, idx = cKDTree(positions).query(positions, k=k + 1)
    idx = np.atleast_2d(idx)
    u = np.repeat(np.arange(n), idx.shape[1])
    v = idx.ravel()
    keep = (v != u) & (v < n)
    u, v = u[keep], v[keep]
    # each pair (a, b), a < b < n, as one code a * n + b: sorting the codes
    # sorts the pairs as rows, (a, b) lexicographically
    codes = np.sort(np.minimum(u, v) * n + np.maximum(u, v))
    a, b = np.divmod(codes[np.diff(codes, prepend=-1) != 0], n)
    lengths = _norms(positions[a] - positions[b])
    apart = lengths > 0.0
    a, b, lengths = a[apart], b[apart], lengths[apart]
    p0 = centers3d[a]
    delta = centers3d[b] - p0
    dists = _norms(delta)
    counts = np.maximum(np.ceil(dists / step).astype(int), 1) + 1
    # The classes a sample can meet (off-map ones are UNKNOWN_CLASS) by
    # severity, and a table of their ranks by class id + 1.
    present = np.flatnonzero(np.bincount(blocks.classes + 1, minlength=1)) - 1
    by_severity = np.array(sorted({UNKNOWN_CLASS, *present.tolist()},
                                  key=lambda c: _severity(c, query)))
    rank = np.zeros(by_severity.max() + 2, dtype=np.int64)
    rank[by_severity + 1] = np.arange(len(by_severity))
    cuts = range(_SEGMENTS_PER_BATCH, len(a), _SEGMENTS_PER_BATCH)
    worst = [_segment_colors(*batch, blocks, rank)
             for batch in zip(*(np.split(x, cuts) for x in (p0, delta, counts)))]
    return EdgeArrays(a, b, lengths, by_severity[np.concatenate(worst)])


# -- graph construction ------------------------------------------------------------


def _check_k_neighbors(k_neighbors: int) -> None:
    if k_neighbors < 1:
        raise ConfigError(f"k_neighbors must be at least 1, got {k_neighbors}")


def graph_from_tree(ctree: CompressedTree, query: PlanQuery,
                    k_neighbors: int) -> ColoredGraph:
    """Colored graph over the traversable blocks of a compressed tree.

    One vertex sits at the horizontal center of every observed block whose
    dominant class is free space or a relevant class, in key order (the
    order of ``leaf_arrays``). Each vertex connects to its k nearest
    neighbors; edge colors come from sampling the 3-d segment between block
    centers at half a finest-cell step. The block classes that pick the
    vertices are the ones the edges are colored with, from one
    ``BlockIndex``.
    """
    _check_k_neighbors(k_neighbors)
    world: WorldConfig = ctree.world
    blocks = BlockIndex.from_compressed(ctree)
    traversable = sorted((query.relevant | {0}) - {UNKNOWN_CLASS})
    picked = np.flatnonzero(np.isin(blocks.classes, traversable))
    if not len(picked):
        raise GraphError("no traversable blocks: compressed tree has no "
                         "free-space or relevant-class leaves")
    picked = picked[np.lexsort((blocks.index[picked], blocks.depth[picked]))]
    centers = world.boxes(blocks.depth[picked], blocks.index[picked])[0]
    positions = centers[:, :2].copy()
    step = world.edge_length / (1 << (world.max_depth + 1))
    edges = _knn_edges(positions, centers, k_neighbors, blocks, step, query)
    return ColoredGraph(positions, blocks.classes[picked], edges)


def halton(index: int, base: int) -> float:
    """Radical-inverse sequence value for a 1-based index."""
    f, r = 1.0, 0.0
    while index > 0:
        f /= base
        r += f * (index % base)
        index //= base
    return r


def halton_points(n: int, bases: tuple[int, int] = (2, 3)) -> np.ndarray:
    """First n points of the 2-d Halton sequence in the unit square.

    Each column takes ``halton``'s steps for all n indices at once, in the
    same order; an index out of digits adds exact zeros, so every value
    equals ``halton``'s bit for bit.
    """
    columns = []
    for base in bases:
        index = np.arange(1, n + 1)
        f, r = 1.0, np.zeros(n)
        while index.any():
            f /= base
            r += f * (index % base)
            index //= base
        columns.append(r)
    return np.column_stack(columns)


def halton_graph(world: WorldConfig, tree: SemanticOctree, n_vertices: int,
                 k_neighbors: int, query: PlanQuery) -> ColoredGraph:
    """Semantics-agnostic baseline graph from low-discrepancy samples.

    Vertices sit at the first ``n_vertices`` Halton points (bases 2 and 3)
    scaled to the world footprint, at ground height: the centre height of
    the lowest finest cells; ``world`` must be ``tree.world``.
    Vertex and edge colors are read from the finest stored octree node at
    each location; unobserved locations color as UNKNOWN_CLASS.
    """
    if n_vertices < 2:
        raise ConfigError("need at least 2 vertices")
    if n_vertices > MAX_HALTON_VERTICES:
        raise ConfigError(f"{n_vertices} Halton vertices exceed the "
                          f"{MAX_HALTON_VERTICES} limit")
    _check_k_neighbors(k_neighbors)
    if world != tree.world:
        raise ConfigError(f"graph world {world} is not the tree's world {tree.world}")
    z = world.origin[2] + world.leaf_size / 2.0
    pts = halton_points(n_vertices)
    positions = np.array(world.origin[:2]) + pts * world.edge_length
    centers = np.column_stack([positions, np.full(n_vertices, z)])
    blocks = BlockIndex.from_octree(tree)
    colors = blocks.classify(centers)
    step = world.edge_length / (1 << (world.max_depth + 1))
    edges = _knn_edges(positions, centers, k_neighbors, blocks, step, query)
    return ColoredGraph(positions, colors, edges)


# -- search -------------------------------------------------------------------------


def class_ordered_astar(graph: ColoredGraph,
                        query: PlanQuery) -> PlanResult | None:
    """Lexicographic shortest path: fewest undesired edges, then length.

    Edges colored with an undesired class or UNKNOWN_CLASS count against the
    first component. The heuristic is (0, straight-line distance to goal),
    admissible whenever edge lengths dominate vertex distances; nodes are
    re-expanded on improvement so admissibility alone suffices. Returns None
    when the goal is unreachable; a trivial start == goal query yields a
    single-vertex path with zero cost.

    The undesired count grows by 0 or 1 per edge, so the open set is a
    bucket queue (Dial's algorithm) of two heaps, for the current count
    ``b`` and for ``b + 1``; vertices pop as from one heap ordered by
    (count, f length, push order). ``cur[v]`` is v's best length if its
    best count is ``b``, -inf if lower and +inf if higher; ``nxt[v]`` is
    the same for ``b + 1``. A popped entry is stale when ``cur[u]`` is no
    longer its length.

    The search reads the graph's ``labels`` and its ``role_split`` for the
    query's undesired set, each built on first use and kept on the graph: a
    goal in another component returns None without a search, and an
    expansion relaxes clean edges into the current bucket, then undesired
    ones into the next, with no color test. The graph's edges must not
    change after its first query. Concurrent first queries build equal
    labels and splits, and one store publishes each whole.
    """
    n = graph.num_vertices
    start, goal = query.start, query.goal
    if not (0 <= start < n and 0 <= goal < n):
        raise GraphError("start/goal outside the vertex range")
    if start == goal:
        return PlanResult([start], 0, 0.0)
    labels = graph.labels
    if labels[start] != labels[goal]:
        return None
    clean, undesired = graph.role_split(query.undesired | {UNKNOWN_CLASS})
    positions = np.asarray(graph.positions, dtype=np.float64)
    h = _norms(positions - positions[goal]).tolist()
    inf, ninf = math.inf, -math.inf
    cur = [inf] * n
    nxt = [inf] * n
    cur[start], nxt[start] = 0.0, ninf
    parent = [-1] * n
    push, pop = heapq.heappush, heapq.heappop
    b = counter = 0
    # Entries are (f_len, counter, v, g_len): equal f pops in push order.
    heap, later = [(h[start], counter, start, 0.0)], []
    while True:
        while heap:
            _, _, u, g_len = pop(heap)
            if cur[u] != g_len:
                continue
            if u == goal:
                path = [u]
                while path[-1] != start:
                    path.append(parent[path[-1]])
                path.reverse()
                return PlanResult(path, b, g_len)
            for v, length, _ in clean[u]:
                c_len = g_len + length
                if c_len < cur[v]:
                    cur[v], nxt[v] = c_len, ninf
                    parent[v] = u
                    counter += 1
                    push(heap, (c_len + h[v], counter, v, c_len))
            for v, length, _ in undesired[u]:
                c_len = g_len + length
                if c_len < nxt[v]:
                    nxt[v] = c_len
                    parent[v] = u
                    counter += 1
                    push(later, (c_len + h[v], counter, v, c_len))
        if not later:
            return None
        # the next bucket becomes current; every vertex it reached now has
        # a lower count than the bucket after it
        b += 1
        heap, later = later, []
        cur, nxt = nxt, nxt.copy()
        for entry in heap:
            nxt[entry[2]] = ninf
