"""Spatially keyed semantic octree over a cubic world volume.

Nodes are addressed by (depth, index) keys where the index bit-interleaves
the per-axis cell coordinates at that depth. Only observed regions are
stored; missing children are completed transiently with a maximum-entropy
class distribution, zero gain and a weight equal to the mean weight of
their stored siblings. ``SemanticOctree.child_sets`` is the one place that
applies this rule: every computation on a node's full child set reads it
from there, stacked for many nodes at once. Observed finest-resolution
leaves carry unit weight, and an interior weight is the sum of its
(virtually completed) children, always evaluated by ``completed_weight``:
the insert paths and summary expansion store it and ``child_sets`` reports
it per row, so a stored weight equals its row's total bit for bit.

Three node kinds exist: depth-D leaves and their ancestors (interior nodes
with cached aggregate conditionals), plus summary nodes produced by pruning
identical children; a summary stands in for a homogeneous subtree and is
re-expanded on the next observation that touches its region.

Leaves and summaries hold a truncated record plus its dense vector over
ids 0..K. The record is validated and expanded once, when it is installed
(``make_record``: an observation, ``set_leaf``, a summary expansion or
prune; ``from_observations``; ``formats.deserialize_tree``: a file load);
reading a conditional afterwards is a plain lookup.

Concurrency: mutating operations require exclusive access to a tree;
read-only traversals may run concurrently with each other.
"""

from __future__ import annotations

import functools
import itertools
import math
from dataclasses import dataclass, field
from typing import Iterator, NamedTuple

import numpy as np

from .errors import ConfigError, DistributionError, OutOfBoundsError, TreeError
from .semantics import (
    CONTRADICTED,
    TruncatedRows,
    TruncatedSemanticDistribution,
    expand_rows,
    expand_truncated,
    fuse_observation,  # noqa: F401  the benchmark's tracer counts calls here
    fuse_rows,
    observation_errors,
    truncate_rows,
)

INTERIOR, LEAF, SUMMARY = 0, 1, 2  # the node kind bytes of the ``SOCT`` format

_MAX_DEPTH = 20


class NodeKey(NamedTuple):
    """Tree address: depth plus the bit-interleaved cell index at that depth."""

    depth: int
    index: int


def parent_key(key: NodeKey, dims: int) -> NodeKey:
    if key.depth == 0:
        raise TreeError("root has no parent")
    return NodeKey(key.depth - 1, key.index >> dims)


def child_key(key: NodeKey, octant: int, dims: int) -> NodeKey:
    return NodeKey(key.depth + 1, (key.index << dims) | octant)


def child_keys(key: NodeKey, dims: int) -> tuple[NodeKey, ...]:
    return tuple(child_key(key, o, dims) for o in range(1 << dims))


def _interleave(coords: tuple[int, ...], dims: int, depth: int) -> int:
    code = 0
    for bit in range(depth):
        for axis in range(dims):
            code |= ((coords[axis] >> bit) & 1) << (bit * dims + axis)
    return code


def _deinterleave(codes: np.ndarray, dims: int, depth: int) -> np.ndarray:
    """(N, dims) cell coordinates of N codes of at most ``depth`` levels."""
    coords = np.zeros((len(codes), dims), dtype=np.int64)
    for bit in range(depth):
        for axis in range(dims):
            coords[:, axis] |= ((codes >> (bit * dims + axis)) & 1) << bit
    return coords


def _outside(point) -> str:
    return f"point {[float(v) for v in point]} outside world volume"


@dataclass(frozen=True)
class WorldConfig:
    """Cubic world volume and tree resolution.

    ``branching`` selects how many axes subdivide: 8 is the standard octree
    (x, y, z); 2 and 4 give binary/quadtree modes used to keep exhaustive
    verification tractable. Axes that do not subdivide span the full edge.
    """

    origin: tuple[float, float, float]
    edge_length: float
    max_depth: int
    branching: int = 8

    def __post_init__(self):
        if self.branching not in (2, 4, 8):
            raise ConfigError("branching must be one of 2, 4, 8")
        if not 1 <= self.max_depth <= _MAX_DEPTH:
            raise ConfigError(f"max_depth must be in 1..{_MAX_DEPTH}")
        if not (self.edge_length > 0 and math.isfinite(self.edge_length)):
            raise ConfigError("edge_length must be positive and finite")
        if len(self.origin) != 3 or not all(math.isfinite(v) for v in self.origin):
            raise ConfigError("origin must be a finite 3-vector")
        object.__setattr__(self, "origin", tuple(float(v) for v in self.origin))

    @property
    def dims(self) -> int:
        return self.branching.bit_length() - 1

    @property
    def leaf_size(self) -> float:
        """Cell side at the finest depth, along subdivided axes."""
        return self.edge_length / (1 << self.max_depth)

    def contains(self, point) -> bool:
        """Whether a 3-d point lies in the half-open world box; NaN never does."""
        e = self.edge_length
        return all(o <= float(v) < o + e
                   for v, o in zip(point, self.origin, strict=True))

    def leaf_coords(self, point) -> tuple[int, ...]:
        """Integer cell coordinates of the finest cell containing point.

        Cells are half-open [lo, hi) per axis; points at the world's upper
        corner are rejected. Works on plain floats, one point at a time.
        """
        return self.coords_of(self.leaf_key(point))

    def morton(self, points) -> tuple[np.ndarray, np.ndarray]:
        """Finest-depth Morton codes of an (N, 3) array of points.

        Returns ``(codes, inside)``. ``codes`` bit-interleave the cell
        coordinates that ``leaf_coords`` gives (same floor and upper clamp),
        so a node's region is the code range of its index shifted left by
        ``dims`` bits per level below it. ``inside`` applies the half-open
        bounds of ``contains``; outside points get code 0.
        """
        p = np.asarray(points, dtype=np.float64).reshape(-1, 3)
        o = np.asarray(self.origin)
        inside = np.all(p >= o, axis=1) & np.all(p < o + self.edge_length, axis=1)
        n = 1 << self.max_depth
        codes = np.zeros(len(p), dtype=np.int64)
        for axis in range(self.dims):
            c = (p[inside, axis] - self.origin[axis]) // self.leaf_size
            c = np.minimum(c.astype(np.int64), n - 1)
            spread = np.zeros_like(c)
            for bit in range(self.max_depth):
                spread |= ((c >> bit) & 1) << (bit * self.dims + axis)
            codes[inside] |= spread
        return codes, inside

    def leaf_key(self, point) -> NodeKey:
        """Key of the finest cell containing point (see ``leaf_coords``).

        On plain floats and ints: the bounds check of ``contains``, then per
        axis the floor and upper clamp of ``morton``, then the interleave.
        """
        x, y, z = p = [float(v) for v in point]
        (ox, oy, oz), e = self.origin, self.edge_length
        if not (ox <= x < ox + e and oy <= y < oy + e and oz <= z < oz + e):
            raise OutOfBoundsError(_outside(p))
        depth, dims = self.max_depth, self.dims
        last, size = (1 << depth) - 1, self.leaf_size
        cells = [min(int((v - o) // size), last) for v, o in zip(p[:dims], self.origin)]
        return NodeKey(depth, _interleave(cells, dims, depth))

    def key_from_coords(self, coords: tuple[int, ...], depth: int) -> NodeKey:
        if len(coords) != self.dims:
            raise ConfigError(f"expected {self.dims} cell coordinates")
        n = 1 << depth
        if any(not 0 <= c < n for c in coords):
            raise OutOfBoundsError(f"cell {coords} outside depth-{depth} grid")
        return NodeKey(depth, _interleave(tuple(coords), self.dims, depth))

    def coords_of(self, key: NodeKey) -> tuple[int, ...]:
        return tuple(_deinterleave(np.array([key.index]), self.dims, key.depth)[0].tolist())

    def boxes(self, keys) -> tuple[np.ndarray, np.ndarray]:
        """3-d centers and sizes, (N, 3) each, of the cells of N node keys.

        Along subdivided axes a cell is centered on its coordinates; the
        other axes use the world center and span the full edge.
        """
        depth, index = np.fromiter(itertools.chain.from_iterable(keys), dtype=np.int64,
                                   count=2 * len(keys)).reshape(-1, 2).T
        side = self.edge_length / (1 << depth)
        centers = np.repeat((np.array(self.origin) + self.edge_length / 2.0)[None, :],
                            len(keys), axis=0)
        sizes = np.full((len(keys), 3), self.edge_length)
        coords = _deinterleave(index, self.dims, self.max_depth)
        for axis in range(self.dims):
            centers[:, axis] = self.origin[axis] + (coords[:, axis] + 0.5) * side
            sizes[:, axis] = side
        return centers, sizes

    def center_of(self, key: NodeKey) -> np.ndarray:
        """3-d center of a node's cell (one-row ``boxes``)."""
        return self.boxes([key])[0][0]

    def sizes_of(self, key: NodeKey) -> np.ndarray:
        return self.boxes([key])[1][0]


def _completion(stored: list[float], branching: int) -> tuple[float, float]:
    """``completed_weight`` of at least one stored child weight, and the
    mean stored weight, at which each absent child counts."""
    total = sum(stored)
    m = len(stored)
    mean = total / m
    return total + (branching - m) * mean, mean


def completed_weight(stored: list[float], branching: int) -> float:
    """Weight of an interior node from its stored children's weights.

    Absent children count at the mean stored weight; 0.0 without stored
    children.
    """
    return _completion(stored, branching)[0] if stored else 0.0


@dataclass(slots=True)
class Node:
    kind: int
    weight: float = 0.0
    dist: TruncatedSemanticDistribution | None = None
    cond: np.ndarray | None = None
    gain: float = 0.0


ROOT_KEY = NodeKey(0, 0)


@functools.lru_cache(maxsize=None)
def uniform_row(num_classes: int) -> np.ndarray:
    """Read-only maximum-entropy vector, the conditional of a missing child."""
    row = np.full(num_classes + 1, 1.0 / (num_classes + 1))
    row.flags.writeable = False
    return row


@dataclass
class SemanticOctree:
    """Probabilistic multi-class octree built from labeled point observations."""

    world: WorldConfig
    num_classes: int
    nodes: dict[NodeKey, Node] = field(default_factory=dict)

    def __post_init__(self):
        if self.num_classes < 4:
            raise ConfigError("truncated leaf storage needs at least 4 classes")
        if not self.nodes:
            self.nodes[ROOT_KEY] = Node(INTERIOR)

    @property
    def root(self) -> Node:
        return self.nodes[ROOT_KEY]

    # -- structure queries ------------------------------------------------

    def stored_children(self, key: NodeKey) -> list[NodeKey]:
        return [k for k in child_keys(key, self.world.dims) if k in self.nodes]

    def keys_with_children(self) -> set[tuple[int, int]]:
        """Keys of the stored nodes with stored children (the parents of
        every stored key but the root), as plain (depth, index) pairs, which
        compare and hash as their ``NodeKey``."""
        dims = self.world.dims
        return {(d - 1, i >> dims) for d, i in self.nodes if d}

    def has_summaries(self) -> bool:
        return any(n.kind == SUMMARY for n in self.nodes.values())

    def leaf_items(self) -> Iterator[tuple[NodeKey, Node]]:
        """Depth-D leaves, in key order."""
        for key in sorted(self.nodes):
            node = self.nodes[key]
            if node.kind == LEAF:
                yield key, node

    def leaf_count(self) -> int:
        return sum(1 for n in self.nodes.values() if n.kind == LEAF)

    def interior_keys_deepest_first(self) -> list[NodeKey]:
        keys = [k for k, n in self.nodes.items() if n.kind == INTERIOR]
        keys.sort(key=lambda k: (-k.depth, k.index))
        return keys

    def conditional(self, key: NodeKey) -> np.ndarray:
        """Aggregate class distribution of a node, over ids 0..K.

        Leaves and summaries return the dense vector stored with their
        record; interior nodes use the cached aggregate when present and
        otherwise compute it recursively without mutating the tree. A
        childless or massless node is treated as unobserved, i.e. maximum
        entropy.
        """
        node = self.nodes.get(key)
        if node is None:
            raise TreeError(f"unknown key {key}")
        if node.cond is not None:
            return node.cond
        if not self.stored_children(key):
            return uniform_row(self.num_classes)
        weights, conds, _, totals = self.child_sets([key])
        if totals[0] <= 0.0:
            return uniform_row(self.num_classes)
        return (weights[0] / totals[0]) @ conds[0]

    def child_sets(self, keys) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
        """Weights (N, B), conditionals (N, B, K+1), cached gains (N, B) and
        total weights (N,) of the full child sets of N interior keys with
        stored children.

        An absent child is completed virtually and never stored: it weighs
        the mean of its stored siblings' weights and has the uniform
        conditional and zero gain. A stored child's gain is its cached one
        if it is interior, else 0. A row's total is ``completed_weight`` of
        its stored weights, the node's weight by definition; consumers
        normalize by it instead of summing the row. A key's row does not
        depend on the keys beside it. Keys may be plain (depth, index) pairs.
        """
        get, dims, octants = self.nodes.get, self.world.dims, range(self.world.branching)
        uniform = uniform_row(self.num_classes)
        weights, conds, gains, totals = [], [], [], []
        for depth, index in keys:
            base = index << dims
            kids = [get((depth + 1, base | o)) for o in octants]
            stored = [c.weight for c in kids if c is not None]
            if not stored:
                raise TreeError(f"{(depth, index)} has no stored children to complete")
            total, mean_w = _completion(stored, len(octants))
            totals.append(total)
            for o, c in zip(octants, kids):
                if c is None:
                    weights.append(mean_w)
                    conds.append(uniform)
                    gains.append(0.0)
                else:
                    weights.append(c.weight)
                    conds.append(c.cond if c.cond is not None
                                 else self.conditional(NodeKey(depth + 1, base | o)))
                    gains.append(c.gain if c.kind == INTERIOR else 0.0)
        n, b = len(keys), len(octants)
        weights, gains = np.array(weights + gains, dtype=np.float64).reshape(2, n, b)
        conds = np.array(conds).reshape(n, b, self.num_classes + 1)
        return weights, conds, gains, np.array(totals, dtype=np.float64)

    # -- construction -----------------------------------------------------

    def make_record(self, kind: int, weight: float,
                    dist: TruncatedSemanticDistribution,
                    cond: np.ndarray | None = None) -> Node:
        """A LEAF or SUMMARY node carrying ``dist`` and its dense vector.

        The record is validated and expanded once (``DistributionError``
        if invalid), unless ``cond`` already holds its expansion. The
        vector is read-only, since conditionals are returned without
        copying and may be shared.
        """
        if cond is None:
            cond = expand_truncated(dist, self.num_classes)
            cond.flags.writeable = False
        return Node(kind, weight=weight, dist=dist, cond=cond)

    @classmethod
    def from_observations(cls, world: WorldConfig, num_classes: int, points,
                          obs_class, confidence) -> tuple["SemanticOctree", dict[int, str]]:
        """Build a tree from N labeled points at once.

        The tree equals the one ``add_observation`` builds from the same
        rows in row order, and so does every rejection: a row is rejected
        if its point is out of bounds, ``observation_errors`` names it, or
        its leaf's prior contradicts it (``CONTRADICTED``). A rejected row
        creates no node. Returns the tree and the rejected rows with their
        messages.

        Rows are grouped by Morton code with a stable sort, so each leaf
        sees its observations in row order, which matters because every
        fusion is truncated. Fusion runs in rounds: round r fuses the r-th
        observation of every leaf that has one, in one row-kernel call.
        Interior nodes are then created and weighted once, level by level.
        Caches are left for ``compression.refresh_all``. Rejected rows come
        in row order.
        """
        tree = cls(world, num_classes)
        points = np.asarray(points, dtype=np.float64).reshape(-1, 3)
        obs_class = np.asarray(obs_class, dtype=np.int64)
        confidence = np.asarray(confidence, dtype=np.float64)
        codes, inside = world.morton(points)
        rejected = observation_errors(obs_class, confidence, num_classes)
        rejected.update((i, _outside(points[i])) for i in np.flatnonzero(~inside).tolist())
        ok = inside.copy()
        ok[list(rejected)] = False
        rows = np.flatnonzero(ok)
        rows = rows[np.argsort(codes[rows], kind="stable")]
        codes = codes[rows]
        first = np.flatnonzero(np.diff(codes, prepend=-1))
        leaf_of = np.repeat(np.arange(len(first)), np.diff(np.r_[first, len(rows)]))
        rank = np.arange(len(rows)) - first[leaf_of]
        by_round = np.argsort(rank, kind="stable")
        rounds = np.split(by_round, np.cumsum(np.bincount(rank))[:-1])
        state = np.repeat(uniform_row(num_classes)[None, :], len(first), axis=0)
        kept = TruncatedRows(np.zeros((len(first), 3), dtype=np.int64),
                             np.zeros((len(first), 3)), np.zeros(len(first)),
                             np.zeros(len(first)))
        for sel in rounds:
            src = rows[sel]
            posterior, contradicted = fuse_rows(state[leaf_of[sel]], obs_class[src],
                                                confidence[src])
            rejected.update((i, CONTRADICTED) for i in src[contradicted].tolist())
            leaves = leaf_of[sel[~contradicted]]
            records = truncate_rows(posterior[~contradicted])
            state[leaves] = expand_rows(records, num_classes)
            for column, values in zip(kept, records):
                column[leaves] = values
        state.flags.writeable = False
        codes = codes[first]
        for i, (code, dist) in enumerate(zip(codes.tolist(), kept.records())):
            tree.nodes[NodeKey(world.max_depth, code)] = tree.make_record(
                LEAF, 1.0, dist, state[i])
        weights = [1.0] * len(codes)
        for depth in reversed(range(world.max_depth)):
            parents = codes >> world.dims
            starts = np.flatnonzero(np.diff(parents, prepend=-1)).tolist()
            codes = parents[starts]
            weights = [completed_weight(weights[a:b], world.branching)
                       for a, b in zip(starts, starts[1:] + [len(weights)])]
            for code, weight in zip(codes.tolist(), weights):
                tree.nodes[NodeKey(depth, code)] = Node(INTERIOR, weight=weight)
        return tree, dict(sorted(rejected.items()))

    def add_observation(self, point, obs_class: int, confidence: float) -> NodeKey:
        """Insert or update the finest leaf containing ``point``; the
        streamed path, one record at a time (``from_observations`` builds
        a whole cloud at once).

        Rejects an out-of-bounds point or an observation that
        ``observation_errors`` names before touching the tree. Then fuses
        the observation into the leaf's distribution. A new leaf first gets
        its missing ancestors (any summary node on the path is re-expanded),
        and then the weights along its path to the root are refreshed; an
        update keeps every weight. Returns the leaf key. Conditional/gain
        caches are refreshed separately (see ``compression.refresh_upward``).
        """
        leaf = self.world.leaf_key(point)
        for message in observation_errors(obs_class, confidence, self.num_classes).values():
            raise DistributionError(message)
        node = self.nodes.get(leaf)
        new_leaf = node is None
        if new_leaf:
            self._open_path(leaf)
            node = self.nodes.get(leaf)  # present if a summary held its cell
        if node is None:
            prior, weight = uniform_row(self.num_classes), 1.0
        else:
            prior, weight = node.cond, node.weight
        posterior, contradicted = fuse_rows(prior[None, :], np.array([obs_class]),
                                            np.array([confidence]))
        if contradicted[0]:
            raise DistributionError(CONTRADICTED)
        record = truncate_rows(posterior)
        cond = expand_rows(record, self.num_classes)[0].copy()  # frees the (1, K+1) base
        cond.flags.writeable = False
        self.nodes[leaf] = self.make_record(LEAF, weight, record.records()[0], cond)
        if new_leaf:  # an update keeps the leaf's weight, so no weight changes
            self._refresh_path(leaf)
        return leaf

    def set_leaf(self, coords: tuple[int, ...],
                 dist: TruncatedSemanticDistribution, weight: float = 1.0) -> NodeKey:
        """Directly install a finest-resolution leaf (fixtures, bulk loads)."""
        if not 0 <= weight < math.inf:  # NaN fails too
            raise ConfigError(f"leaf weight must be non-negative and finite, not {weight}")
        record = self.make_record(LEAF, weight, dist)
        key = self.world.key_from_coords(coords, self.world.max_depth)
        self._open_path(key)
        self.nodes[key] = record
        self._refresh_path(key)
        return key

    def _open_path(self, leaf: NodeKey) -> None:
        """Create the missing ancestors of ``leaf`` and expand any summary
        among them, top down."""
        dims = self.world.dims
        for depth in range(leaf.depth):
            key = NodeKey(depth, leaf.index >> dims * (leaf.depth - depth))
            node = self.nodes.get(key)
            if node is None:
                self.nodes[key] = Node(INTERIOR)
            elif node.kind == SUMMARY:
                self._expand_summary(key)
            elif node.kind == LEAF:
                raise TreeError(f"leaf record {key} above max depth")

    def _refresh_weight(self, key) -> None:
        """Re-derive an interior weight from its stored children; ``key``
        may be a plain (depth, index) pair."""
        depth, index = key
        base, branching = index << self.world.dims, self.world.branching
        kids = map(self.nodes.get, [(depth + 1, base | o) for o in range(branching)])
        self.nodes[key].weight = completed_weight(
            [c.weight for c in kids if c is not None], branching)

    def _refresh_path(self, leaf: NodeKey) -> None:
        """Re-derive the weight of every ancestor of ``leaf``, deepest first."""
        dims = self.world.dims
        for depth in reversed(range(leaf.depth)):
            self._refresh_weight((depth, leaf.index >> dims * (leaf.depth - depth)))

    # -- summary handling ---------------------------------------------------

    def prune_identical_children(self, key: NodeKey) -> bool:
        """Collapse a node whose children all carry one identical distribution.

        Applicable only when every child is stored and holds a truncated
        record (a finest leaf or an already-pruned summary). On success the
        children are deleted and the node becomes a summary carrying the
        shared distribution; it re-expands on the next observation in its
        region.
        """
        node = self.nodes.get(key)
        if node is None:
            raise TreeError(f"unknown key {key}")
        if node.kind != INTERIOR:
            raise TreeError(f"{key} is not an interior node")
        kids = self.stored_children(key)
        if len(kids) != self.world.branching:
            raise TreeError(f"{key} does not have a full stored child set")
        records = [self.nodes[k] for k in kids]
        if any(r.kind == INTERIOR for r in records):
            raise TreeError(f"children of {key} include interior nodes")
        first = records[0].dist
        if not all(r.dist.is_close(first) for r in records[1:]):
            return False
        for k in kids:
            del self.nodes[k]
        self.nodes[key] = self.make_record(SUMMARY, node.weight, first, records[0].cond)
        return True

    def prune_all_identical(self) -> int:
        """Bottom-up sweep of ``prune_identical_children`` wherever applicable."""
        pruned = 0
        for key in self.interior_keys_deepest_first():
            node = self.nodes.get(key)
            if node is None or node.kind != INTERIOR:
                continue
            kids = self.stored_children(key)
            if len(kids) != self.world.branching:
                continue
            if any(self.nodes[k].kind == INTERIOR for k in kids):
                continue
            if self.prune_identical_children(key):
                pruned += 1
        return pruned

    def _expand_summary(self, key: NodeKey) -> None:
        """Re-create one level of identical children under a summary node."""
        node = self.nodes[key]
        if node.kind != SUMMARY:
            raise TreeError(f"{key} is not a summary node")
        dims = self.world.dims
        child_kind = LEAF if key.depth + 1 == self.world.max_depth else SUMMARY
        share = node.weight / self.world.branching
        for k in child_keys(key, dims):
            self.nodes[k] = self.make_record(child_kind, share, node.dist, node.cond)
        self.nodes[key] = Node(INTERIOR, weight=node.weight, cond=node.cond)

    def expand_summaries(self) -> int:
        """Expand every summary down to explicit depth-D leaves.

        Returns the number of expansion steps performed. The weights of the
        expanded nodes and their ancestors are then re-derived, deepest
        first, since the children's shares need not add up to the summary's
        weight bit for bit. Conditional and gain caches stay valid: an
        expanded summary has identical children, which add no information
        at any level.
        """
        dims = self.world.dims
        expanded = []
        pending = [k for k, n in self.nodes.items() if n.kind == SUMMARY]
        while pending:
            key = pending.pop()
            self._expand_summary(key)
            expanded.append(key)
            for k in child_keys(key, dims):
                if self.nodes[k].kind == SUMMARY:
                    pending.append(k)
        stale = {(d, index >> dims * (depth - d))
                 for depth, index in expanded for d in range(depth + 1)}
        for key in sorted(stale, key=lambda k: -k[0]):
            self._refresh_weight(key)
        return len(expanded)
