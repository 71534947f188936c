"""Spatially keyed semantic octree over a cubic world volume.

Nodes are addressed by (depth, index) keys where the index bit-interleaves
the per-axis cell coordinates at that depth. Only observed regions are
stored; missing children are completed transiently with a maximum-entropy
class distribution and a weight equal to the mean weight of their stored
siblings. Observed finest-resolution leaves carry unit weight, and every
interior weight is the sum of its (virtually completed) children.

Three node kinds exist: depth-D leaves and their ancestors (interior nodes
with cached aggregate conditionals), plus summary nodes produced by pruning
identical children; a summary stands in for a homogeneous subtree and is
re-expanded on the next observation that touches its region.

Leaves and summaries hold a truncated record plus its dense vector over
ids 0..K. The record is validated and expanded once, when ``make_record``
installs it (an observation, ``set_leaf``, a summary expansion or prune,
a file load); reading a conditional afterwards is a plain lookup.

Concurrency: mutating operations require exclusive access to a tree;
read-only traversals may run concurrently with each other.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field
from typing import Iterator, NamedTuple

import numpy as np

from .errors import ConfigError, OutOfBoundsError, TreeError
from .semantics import (
    ClassRegistry,
    FullSemanticDistribution,
    TruncatedSemanticDistribution,
    expand_truncated,
    fuse_observation,
    truncate_full,
    uniform_full,
)

LEAF = 0
SUMMARY = 1
INTERIOR = 2

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


def octant_of(key: NodeKey, dims: int) -> int:
    return key.index & ((1 << dims) - 1)


def _interleave(coords: tuple[int, ...], dims: int, depth: int) -> int:
    code = 0
    for bit in range(depth):
        for axis in range(dims):
            code |= ((coords[axis] >> bit) & 1) << (bit * dims + axis)
    return code


def _deinterleave(code: int, dims: int, depth: int) -> tuple[int, ...]:
    coords = [0] * dims
    for bit in range(depth):
        for axis in range(dims):
            coords[axis] |= ((code >> (bit * dims + axis)) & 1) << bit
    return tuple(coords)


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
        p = [float(v) for v in point]
        if not self.contains(p):
            raise OutOfBoundsError(f"point {p} outside world volume")
        last = (1 << self.max_depth) - 1
        size = self.leaf_size
        return tuple(min(int((p[axis] - self.origin[axis]) // size), last)
                     for axis in range(self.dims))

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
        return self.key_from_coords(self.leaf_coords(point), self.max_depth)

    def key_from_coords(self, coords: tuple[int, ...], depth: int) -> NodeKey:
        if len(coords) != self.dims:
            raise ConfigError(f"expected {self.dims} cell coordinates")
        n = 1 << depth
        if any(not 0 <= c < n for c in coords):
            raise OutOfBoundsError(f"cell {coords} outside depth-{depth} grid")
        return NodeKey(depth, _interleave(tuple(coords), self.dims, depth))

    def coords_of(self, key: NodeKey) -> tuple[int, ...]:
        return _deinterleave(key.index, self.dims, key.depth)

    def center_of(self, key: NodeKey) -> np.ndarray:
        """3-d center of a node's cell; non-subdivided axes use the world center."""
        coords = self.coords_of(key)
        side = self.edge_length / (1 << key.depth)
        center = np.array(self.origin) + self.edge_length / 2.0
        for axis in range(self.dims):
            center[axis] = self.origin[axis] + (coords[axis] + 0.5) * side
        return center

    def sizes_of(self, key: NodeKey) -> np.ndarray:
        side = self.edge_length / (1 << key.depth)
        sizes = np.full(3, self.edge_length)
        sizes[: self.dims] = side
        return sizes


def completed_weight(stored: list[float], branching: int) -> float:
    """Weight of an interior node from its stored children's weights.

    Absent children count at the mean stored weight; 0.0 without stored
    children.
    """
    if not stored:
        return 0.0
    total = sum(stored)
    m = len(stored)
    return total + (branching - m) * (total / m)


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
    row = uniform_full(num_classes).probs
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
    def registry(self) -> ClassRegistry:
        return ClassRegistry(self.num_classes)

    @property
    def root(self) -> Node:
        return self.nodes[ROOT_KEY]

    # -- structure queries ------------------------------------------------

    def stored_children(self, key: NodeKey) -> list[NodeKey]:
        return [k for k in child_keys(key, self.world.dims) if k in self.nodes]

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
        otherwise compute it recursively without mutating the tree. An
        empty node (zero stored children) is treated as unobserved, i.e.
        maximum entropy.
        """
        node = self.nodes.get(key)
        if node is None:
            raise TreeError(f"unknown key {key}")
        if node.cond is not None:
            return node.cond
        weights, dists, _ = self.completed_child_arrays(key, allow_empty=True)
        if weights is None:
            return uniform_full(self.num_classes).probs
        total = float(weights.sum())
        if total <= 0.0:
            return uniform_full(self.num_classes).probs
        return (weights / total) @ dists

    def completed_child_arrays(self, key: NodeKey, allow_empty: bool = False):
        """Weights, conditionals and cached gains of the full child set.

        Missing children are filled in with the mean stored-sibling weight
        and the uniform distribution; they are never written to storage.
        Returns (None, None, None) for a childless node when ``allow_empty``.
        """
        node = self.nodes.get(key)
        if node is None:
            raise TreeError(f"unknown key {key}")
        if node.kind != INTERIOR:
            raise TreeError(f"{key} is not an interior node")
        kids = self._child_slots(key)
        stored = [c for c in kids if c is not None]
        if not stored:
            if allow_empty:
                return None, None, None
            raise TreeError(f"{key} has no stored children to complete")
        mean_w = sum(c.weight for c in stored) / len(stored)
        uniform = uniform_row(self.num_classes)
        base = key.index << self.world.dims
        weights = np.array([mean_w if c is None else c.weight for c in kids],
                           dtype=np.float64)
        dists = np.array([
            uniform if c is None
            else c.cond if c.cond is not None
            else self.conditional(NodeKey(key.depth + 1, base | o))
            for o, c in enumerate(kids)])
        gains = np.array([c.gain if c is not None and c.kind == INTERIOR else 0.0
                          for c in kids], dtype=np.float64)
        return weights, dists, gains

    def _child_slots(self, key: NodeKey) -> list[Node | None]:
        """Stored child per octant, None where absent.

        Looks up plain (depth, index) tuples, which hash and compare equal
        to the ``NodeKey`` stored for them.
        """
        get = self.nodes.get
        depth = key.depth + 1
        base = key.index << self.world.dims
        return [get((depth, base | o)) for o in range(self.world.branching)]

    def completed_children(self, key: NodeKey) -> list[tuple[float, np.ndarray]]:
        """Full child set of an interior node as (weight, marginals) pairs."""
        weights, dists, _ = self.completed_child_arrays(key)
        return [(float(weights[o]), dists[o].copy()) for o in range(len(weights))]

    # -- construction -----------------------------------------------------

    def make_record(self, kind: int, weight: float,
                    dist: TruncatedSemanticDistribution,
                    cond: np.ndarray | None = None) -> Node:
        """A LEAF or SUMMARY node carrying ``dist`` and its dense vector.

        Every stored record is created here. The record is validated and
        expanded once (``DistributionError`` if invalid), unless ``cond``
        already holds its expansion. The vector is read-only, since
        conditionals are returned without copying and may be shared.
        """
        if cond is None:
            cond = expand_truncated(dist, self.registry).probs
            cond.flags.writeable = False
        return Node(kind, weight=weight, dist=dist, cond=cond)

    def add_observation(self, point, obs_class: int, confidence: float) -> NodeKey:
        """Insert or update the finest leaf containing ``point``.

        Creates the leaf's ancestors as needed, re-expands any summary node
        on the path, fuses the observation into the leaf's distribution, and
        refreshes the weights along the path to the root. Returns the leaf
        key. Conditional/gain caches are refreshed separately (see
        ``compression.refresh_upward``).
        """
        leaf = self.world.leaf_key(point)
        dims = self.world.dims
        path = [NodeKey(d, leaf.index >> (dims * (leaf.depth - d)))
                for d in range(leaf.depth + 1)]
        for key in path[:-1]:
            node = self.nodes.get(key)
            if node is None:
                self.nodes[key] = Node(INTERIOR)
            elif node.kind == SUMMARY:
                self._expand_summary(key)
            elif node.kind == LEAF:
                raise TreeError(f"leaf record {key} above max depth")
        node = self.nodes.get(leaf)
        if node is None:
            prior, weight = uniform_full(self.num_classes), 1.0
        else:
            prior, weight = FullSemanticDistribution(node.cond), node.weight
        posterior = fuse_observation(prior, obs_class, confidence)
        self.nodes[leaf] = self.make_record(LEAF, weight, truncate_full(posterior))
        for key in reversed(path[:-1]):
            self._refresh_weight(key)
        return leaf

    def set_leaf(self, coords: tuple[int, ...],
                 dist: TruncatedSemanticDistribution, weight: float = 1.0) -> NodeKey:
        """Directly install a finest-resolution leaf (fixtures, bulk loads)."""
        if weight < 0:
            raise ConfigError("leaf weight must be non-negative")
        record = self.make_record(LEAF, weight, dist)
        key = self.world.key_from_coords(coords, self.world.max_depth)
        dims = self.world.dims
        for d in range(key.depth):
            k = NodeKey(d, key.index >> (dims * (key.depth - d)))
            node = self.nodes.get(k)
            if node is None:
                self.nodes[k] = Node(INTERIOR)
            elif node.kind == SUMMARY:
                self._expand_summary(k)
        self.nodes[key] = record
        for d in reversed(range(key.depth)):
            self._refresh_weight(NodeKey(d, key.index >> (dims * (key.depth - d))))
        return key

    def _refresh_weight(self, key: NodeKey) -> None:
        self.nodes[key].weight = completed_weight(
            [c.weight for c in self._child_slots(key) if c is not None],
            self.world.branching)

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

        Returns the number of expansion steps performed. Weight, conditional
        and gain caches stay valid: an expanded summary has identical
        children, which add no information at any level.
        """
        steps = 0
        pending = [k for k, n in self.nodes.items() if n.kind == SUMMARY]
        while pending:
            key = pending.pop()
            self._expand_summary(key)
            steps += 1
            for k in child_keys(key, self.world.dims):
                if self.nodes[k].kind == SUMMARY:
                    pending.append(k)
        return steps
