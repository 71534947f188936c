"""Spatially keyed semantic octree over a cubic world volume.

Nodes are addressed by (depth, index) keys where the index bit-interleaves
the per-axis cell coordinates at that depth. Only observed regions are
stored, as per-depth columns (``Levels``, see ``SemanticOctree``); missing
children are completed transiently with a maximum-entropy class
distribution, zero gain and the mean weight of their stored siblings, by
``Levels.child_sets``, which every computation on a full child set reads.
Observed finest-resolution leaves carry unit weight, and an interior weight
is the sum of its (virtually completed) children, always evaluated by
``completed_weights`` (``completed_weight`` on Python floats for the
streamed insert): the builds, inserts and summary expansion store it and
``child_sets`` reports it per row, so a stored weight equals its row's
total bit for bit. Keys find their rows by one walk down the child slots
(``Levels.lookup``, ``Levels.path``).

Three node kinds exist: depth-D leaves and their ancestors (interior nodes
with cached aggregate conditionals), plus summary nodes produced by pruning
identical children; a summary stands in for a homogeneous subtree and is
re-expanded on the next observation that touches its region.

Leaves and summaries hold a truncated record in their own row of the
tree's record table (``TruncatedRows``, one row per node, interior rows
empty; a streamed update rewrites the row in place, and a prune or an
expansion copies it), plus its dense vector over ids 0..K, validated and
expanded once, when it is installed.

Concurrency: mutating operations require exclusive access to a tree;
read-only traversals may run concurrently with each other. The first
``levels()`` or read of ``nodes`` after a write merges the overlay or
builds the view, and counts as a mutation.
"""

from __future__ import annotations

import functools
import itertools
import math
import operator
from dataclasses import dataclass, field
from types import MappingProxyType
from typing import Iterator, Mapping, NamedTuple

import numpy as np

from .errors import ConfigError, OutOfBoundsError, TreeError
from .semantics import (
    CONTRADICTED,
    TruncatedRows,
    TruncatedSemanticDistribution,
    check_observation,
    expand_rows,
    expand_truncated,
    fuse_observation,  # noqa: F401  the benchmark's tracer counts calls here
    fuse_record,
    fuse_rows,
    left_sum,
    observation_errors,
    row_totals,
    rows_close,
    truncate_rows,
)

INTERIOR, LEAF, SUMMARY = 0, 1, 2  # the node kind bytes of the ``SOCT`` format

_MAX_DEPTH = 20


class NodeKey(NamedTuple):
    """Tree address: depth plus the bit-interleaved cell index at that depth."""

    depth: int
    index: int


def key_arrays(keys) -> tuple[np.ndarray, np.ndarray]:
    """``(depth, index)`` int64 columns of a sequence of N node keys, which
    may be plain (depth, index) pairs; a key that int64 cannot hold is a
    ``TreeError`` naming it."""
    try:
        return np.fromiter(itertools.chain.from_iterable(keys), dtype=np.int64,
                           count=2 * len(keys)).reshape(-1, 2).T
    except OverflowError:
        key = next(k for k in keys if not all(-1 << 63 <= v < 1 << 63 for v in k))
        raise TreeError(f"unknown key {key}") from None


def node_keys(depth: np.ndarray, index: np.ndarray) -> Iterator[NodeKey]:
    """The ``NodeKey``s of paired depth and index columns, in order; each is
    made by ``tuple.__new__``, without ``NodeKey``'s per-call constructor."""
    return map(tuple.__new__, itertools.repeat(NodeKey),
               zip(depth.tolist(), index.tolist()))


def parent_key(key: NodeKey, dims: int) -> NodeKey:
    if key.depth == 0:
        raise TreeError("root has no parent")
    return NodeKey(key.depth - 1, key.index >> dims)


def child_key(key: NodeKey, octant: int, dims: int) -> NodeKey:
    return NodeKey(key.depth + 1, (key.index << dims) | octant)


def child_keys(key: NodeKey, dims: int) -> tuple[NodeKey, ...]:
    return tuple(child_key(key, o, dims) for o in range(1 << dims))


def _spread_table(dims: int) -> list[int]:
    """Each byte value with its bits spread ``dims`` apart."""
    table = [0]
    for bit in range(8):
        table += [t | 1 << bit * dims for t in table]
    return table


_SPREAD = {dims: _spread_table(dims) for dims in (1, 2, 3)}


def _interleave(coords: tuple[int, ...], dims: int, depth: int) -> int:
    """Bit-interleave the low ``depth`` bits of ``dims`` cell coordinates,
    one spread-table lookup per coordinate byte (``depth`` is at most 24)."""
    spread, mask, code = _SPREAD[dims], (1 << depth) - 1, 0
    for axis in range(dims):
        c = coords[axis] & mask
        code |= (spread[c & 255] | spread[c >> 8 & 255] << 8 * dims
                 | spread[c >> 16] << 16 * dims) << axis
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
    # derived once by __post_init__, and left out of __init__, __eq__,
    # __hash__ and __repr__: the subdivided axes, and the finest cell side
    # along them
    dims: int = field(init=False, repr=False, compare=False)
    leaf_size: float = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        if self.branching not in (2, 4, 8):
            raise ConfigError("branching must be one of 2, 4, 8")
        if not 1 <= self.max_depth <= _MAX_DEPTH:
            raise ConfigError(f"max_depth must be in 1..{_MAX_DEPTH}")
        if not (self.edge_length > 0 and math.isfinite(self.edge_length)):
            raise ConfigError("edge_length must be positive and finite")
        object.__setattr__(self, "dims", self.branching.bit_length() - 1)
        object.__setattr__(self, "leaf_size", self.edge_length / (1 << self.max_depth))
        if not self.leaf_size > 0:
            raise ConfigError(f"edge_length {self.edge_length!r} is too small for "
                              f"max_depth {self.max_depth}: the finest cell size is 0")
        if len(self.origin) != 3 or not all(math.isfinite(v) for v in self.origin):
            raise ConfigError("origin must be a finite 3-vector")
        object.__setattr__(self, "origin", tuple(float(v) for v in self.origin))

    def morton(self, points) -> tuple[np.ndarray, np.ndarray]:
        """Finest-depth Morton codes of an (N, 3) array of points.

        Returns ``(codes, inside)``. ``codes`` bit-interleave the finest cell
        coordinates, floored per axis and clamped below the upper face, so a
        node's region is the code range of its index shifted left by
        ``dims`` bits per level below it. ``inside`` is the half-open box
        test [origin, origin + edge) per axis (NaN is never inside); outside
        points get code 0. A power-of-two leaf size divides exactly as a
        product with its inverse, far faster.
        """
        p = np.asarray(points, dtype=np.float64).reshape(-1, 3)
        o = np.asarray(self.origin)
        ok = (p >= o) & (p < o + self.edge_length)  # NaN compares False
        inside = ok[:, 0] & ok[:, 1] & ok[:, 2]
        n = 1 << self.max_depth
        size = self.leaf_size
        exact = math.frexp(size)[0] == 0.5 and math.isfinite(1 / size)
        codes = np.zeros(len(p), dtype=np.int64)
        with np.errstate(invalid="ignore"):  # outside cells may be NaN: codes are 0 there
            for axis in range(self.dims):
                x = p[:, axis] - self.origin[axis]
                c = np.floor(x * (1 / size)) if exact else x // size
                c = np.minimum(c.astype(np.int64), n - 1)
                for bit in range(self.max_depth):
                    codes |= ((c >> bit) & 1) << (bit * self.dims + axis)
        codes[~inside] = 0
        return codes, inside

    def leaf_key(self, point) -> NodeKey:
        """Key of the finest cell containing point, one point at a time.

        On plain floats and ints, the rule of ``morton``: the half-open box
        test of its ``inside`` mask (``OutOfBoundsError`` outside, on the
        upper faces and for NaN), then per axis its floor and upper clamp,
        then the interleave. ``coords_of`` gives the cell's coordinates.
        """
        x, y, z = p = [float(v) for v in point]
        (ox, oy, oz), e = self.origin, self.edge_length
        if not (ox <= x < ox + e and oy <= y < oy + e and oz <= z < oz + e):
            raise OutOfBoundsError(_outside(p))
        depth, dims = self.max_depth, self.dims
        last, size = (1 << depth) - 1, self.leaf_size
        cells = [int((x - ox) // size), int((y - oy) // size), int((z - oz) // size)][:dims]
        if max(cells) > last:  # within rounding of the upper bound
            cells = [min(c, last) for c in cells]
        return tuple.__new__(NodeKey, (depth, _interleave(cells, dims, depth)))

    def key_from_coords(self, coords: tuple[int, ...], depth: int) -> NodeKey:
        if len(coords) != self.dims:
            raise ConfigError(f"expected {self.dims} cell coordinates")
        n = 1 << depth
        if any(not 0 <= c < n for c in coords):
            raise OutOfBoundsError(f"cell {coords} outside depth-{depth} grid")
        return NodeKey(depth, _interleave(tuple(coords), self.dims, depth))

    def coords_of(self, key: NodeKey) -> tuple[int, ...]:
        return tuple(_deinterleave(np.array([key.index]), self.dims, key.depth)[0].tolist())

    def boxes(self, depth: np.ndarray, index: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """3-d centers and sizes, (N, 3) each, of the cells of N node keys,
        given as int64 depth and index columns (``key_arrays``).

        Along subdivided axes a cell is centered on its coordinates; the
        other axes use the world center and span the full edge.
        """
        side = self.edge_length / (1 << depth)
        centers = np.repeat((np.array(self.origin) + self.edge_length / 2.0)[None, :],
                            len(depth), axis=0)
        sizes = np.full((len(depth), 3), self.edge_length)
        coords = _deinterleave(index, self.dims, self.max_depth)
        for axis in range(self.dims):
            centers[:, axis] = self.origin[axis] + (coords[:, axis] + 0.5) * side
            sizes[:, axis] = side
        return centers, sizes

    def center_of(self, key: NodeKey) -> np.ndarray:
        """3-d center of a node's cell (one-row ``boxes``)."""
        return self.boxes(*key_arrays([key]))[0][0]

    def sizes_of(self, key: NodeKey) -> np.ndarray:
        return self.boxes(*key_arrays([key]))[1][0]


def completed_weights(stored: np.ndarray, count: np.ndarray,
                      branching: int) -> tuple[np.ndarray, np.ndarray]:
    """Each row's mean stored weight and completed weight, the weight of an
    interior node, from (N, B) stored child weights (0.0 for an absent
    child, which adds exactly) and the (N,) number stored.

    The stored weights add left to right (``row_totals``) and absent
    children count at their mean; both are 0.0 without stored children.
    """
    total = row_totals(stored)
    mean = total / np.maximum(count, 1)
    return mean, total + (branching - count) * mean


def completed_weight(stored: list[float], branching: int) -> float:
    """One row of ``completed_weights`` on Python floats, for the streamed
    insert: the weights of the stored children in octant order."""
    if not stored:
        return 0.0
    total = left_sum(stored)
    return total + (branching - len(stored)) * (total / len(stored))


@dataclass(slots=True)
class Node:
    """A node of the ``nodes`` view. A leaf or summary record is row ``row``
    of ``table``."""

    kind: int
    weight: float = 0.0
    table: TruncatedRows | None = None
    row: int = 0
    cond: np.ndarray | None = None
    gain: float = 0.0

    @property
    def dist(self) -> TruncatedSemanticDistribution | None:
        return None if self.table is None else self.table.record(self.row)

    @dist.setter
    def dist(self, record: TruncatedSemanticDistribution | None) -> None:
        """A new one-row table holds ``record``, unchecked; ``cond`` stays."""
        self.table = None if record is None else TruncatedRows.of([record]).read_only()
        self.row = 0


class ViewNode(Node):
    """The node at ``key`` of ``tree.nodes``. Its gain writes to the tree's
    columns (a cached gain may be set to check a cache); any other set, or
    any set once a write replaced the view, raises ``TypeError``."""

    __slots__ = ("tree", "key")

    def __setattr__(self, name: str, value) -> None:
        tree = self.tree
        current = tree._nodes is not None and tree._nodes.get(self.key) is self
        if name != "gain" or not current:
            raise TypeError(f"cannot set {name}: tree.nodes is a read-only view"
                            + ("" if current else " that a write replaced"))
        row = tree.rows([self.key])[0]
        tree._store.gain[row], tree._store.boxed[row] = value, type(value) is np.float64
        super().__setattr__(name, value)


ROOT_KEY = NodeKey(0, 0)
_DELETED = -1  # the kind of a row that a prune removed, until the next merge
_COLUMNS = ("depth", "index", "kind", "weight", "cond", "cached", "gain", "boxed")


@functools.lru_cache(maxsize=None)
def uniform_row(num_classes: int) -> np.ndarray:
    """Read-only maximum-entropy vector, the conditional of a missing child."""
    row = np.full(num_classes + 1, 1.0 / (num_classes + 1))
    row.flags.writeable = False
    return row


class Levels:
    """A tree's nodes as columns: level d, rows ``bounds[d]:bounds[d + 1]``,
    lists depth d's nodes by Morton index, a linear octree (Gargantini
    1982). Per row: ``depth``, ``index``, ``kind``, ``weight``, a record in
    the same row of ``table`` (empty for an interior node), a conditional
    in the (n, K+1) ``cond`` matrix where ``cached`` holds, ``gain`` and
    ``boxed`` (the gain is a numpy float64, as ``compression`` types a gain
    over weighted classes). ``slots`` holds, for each row, its children's
    rows in octant order, -1 for an absent child.

    Per-node writes go to an overlay: new rows are appended to columns
    whose room doubles, a record is written in place, a prune marks rows
    deleted, and no row moves. ``merged`` puts the ``size`` rows back into
    key order.
    """

    def __init__(self, world: WorldConfig, num_classes: int, columns, table: TruncatedRows):
        for name, column in zip(_COLUMNS, columns):
            setattr(self, name, column)
        self.world, self.num_classes, self.table = world, num_classes, table
        self.size, self.overlay = len(self.index), False
        bounds = np.searchsorted(self.depth, np.arange(world.max_depth + 2)).tolist()
        self.bounds = bounds
        self.slots = np.full((len(self.index), world.branching), -1)
        for up, a, b in zip(bounds, bounds[1:], bounds[2:]):
            parents, children = self.index[up:a], self.index[a:b]
            at = np.searchsorted(parents, children >> world.dims)
            ok = np.append(parents, -1)[at] == children >> world.dims
            self.slots[up + at[ok], children[ok] & world.branching - 1] = np.arange(a, b)[ok]
        self.has_children = (self.slots >= 0).any(axis=1)

    def node_dict(self, tree: "SemanticOctree") -> dict[NodeKey, Node]:
        """A ``ViewNode`` of ``tree`` per row of merged columns, caches
        included, in pre-order (the file's order). The view reads its own
        copy of the records, row i the i-th node's, which no later write
        changes."""
        order = self.preorder()
        kind, cond = self.kind[order], self.cond[order]
        cond.flags.writeable = False
        table = self.table.take(order).read_only()
        keys, tables = list(node_keys(self.depth[order], self.index[order])), [None, table]
        nodes = {key: ViewNode.__new__(ViewNode) for key in keys}
        for name, values in zip(("tree", "key", *Node.__slots__), (
                itertools.repeat(tree), keys, kind.tolist(), self.weight[order].tolist(),
                map(tables.__getitem__, (kind != INTERIOR).tolist()), range(len(keys)),
                [c if ok else None for c, ok in zip(cond, self.cached[order].tolist())],
                [np.float64(g) if b else g
                 for g, b in zip(self.gain[order].tolist(), self.boxed[order].tolist())])):
            for node, value in zip(nodes.values(), values):
                object.__setattr__(node, name, value)  # past ViewNode's, which raises
        return nodes

    def merged(self) -> "Levels":
        """The live rows in key order, with their records."""
        live = np.flatnonzero(self.kind[:self.size] != _DELETED)
        order = live[np.lexsort((self.index[live], self.depth[live]))]
        return Levels(self.world, self.num_classes, [getattr(self, name)[order] for name in
                                                     _COLUMNS], self.table.take(order))

    def preorder(self) -> np.ndarray:
        """The merged rows in pre-order, the file's order: by the Morton code
        of their region, a parent before its children."""
        world = self.world
        return np.lexsort((self.depth, self.index << world.dims * (world.max_depth - self.depth)))

    def lookup(self, depth: np.ndarray, index: np.ndarray) -> np.ndarray:
        """The rows of the nodes at (depth, index) int64 columns in the
        columns as they stand, -1 if absent or out of range: every key walks
        down the slots at once, one level per step, as ``path`` walks one."""
        world = self.world
        dims, mask = world.dims, world.branching - 1
        level = np.clip(depth, 0, world.max_depth)
        rows = np.where((depth == level) & (index >= 0) & (index >> dims * level == 0), 0, -1)
        for step in range(1, int(level.max(initial=0)) + 1):  # where drops what row -1 reads
            rows = np.where((level >= step) & (rows >= 0),
                            self.slots[rows, index >> dims * (level - step) & mask], rows)
        return rows

    def path(self, depth: int, index: int) -> list[int]:
        """The rows of the root path of node (depth, index), root first, -1
        from the first absent node on: ``lookup``'s walk, for one key on
        Python ints (the streamed record)."""
        rows, row, dims, mask = [0], 0, self.world.dims, self.world.branching - 1
        for shift in range(dims * (depth - 1), -1, -dims):
            if row >= 0:
                row = self.slots.item(row, index >> shift & mask)
            rows.append(row)
        return rows

    # -- the overlay ---------------------------------------------------------

    def _grow(self) -> None:
        n, room = self.size, 2 * self.size + 16
        for name in (*_COLUMNS, "has_children", "slots"):
            old = getattr(self, name)
            new = np.full((room, *old.shape[1:]), -1 if name == "slots" else 0, old.dtype)
            new[:n] = old[:n]
            setattr(self, name, new)
        old, self.table = self.table, TruncatedRows.zeros(room)
        for new, column in zip(self.table, old):
            new[:n] = column[:n]

    def add_row(self, parent: int, octant: int, kind: int, weight: float = 0.0,
                cond: np.ndarray | None = None) -> int:
        """Append a child of row ``parent`` in ``octant``, with an empty
        record, gain 0.0 and cached if ``cond`` is given; returns its row."""
        if self.size >= len(self.slots):
            self._grow()
        new, dims = self.size, self.world.dims
        self.depth[new], self.index[new] = self.depth[parent] + 1, self.index[parent] << dims | octant
        self.kind[new], self.weight[new] = kind, weight
        if cond is not None:
            self.cond[new], self.cached[new] = cond, True
        self.slots[parent, octant], self.has_children[parent] = new, True
        self.size, self.overlay = new + 1, True
        return new

    def install(self, row: int, weight: float, fields: tuple, cond) -> None:
        """Give finest ``row`` ``weight``, gain 0.0, the record of ``fields``
        (``TruncatedRows.fields``), written over its row of ``table``, slots
        past its count cleared, and its dense vector ``cond``."""
        ids, probs, p_free, p_residual = fields
        table, unused = self.table, 3 - len(ids)
        table.ids[row], table.probs[row] = ids + [0] * unused, probs + [0.0] * unused
        table.p_free[row], table.p_residual[row], table.counts[row] = p_free, p_residual, len(ids)
        self.weight[row], self.cond[row], self.cached[row] = weight, cond, True
        self.gain[row], self.boxed[row], self.overlay = 0.0, False, True

    def expand(self, row: int) -> range:
        """The rows of the new children of summary ``row``, now interior with
        an empty record: they get copies of its record and conditional and
        split its weight; leaves at depth D, else summaries."""
        b, first = self.world.branching, self.size
        kind = LEAF if self.depth[row] + 1 == self.world.max_depth else SUMMARY
        share, cond = self.weight[row] / b, self.cond[row].copy()
        for octant in range(b):
            self.add_row(row, octant, kind, share, cond)
        for column in self.table:
            column[first:self.size] = column[row]
            column[row] = 0
        self.kind[row], self.gain[row], self.boxed[row] = INTERIOR, 0.0, False
        return range(first, self.size)

    def prune(self, rows: np.ndarray) -> int:
        """How many of ``rows`` (interior, with a full set of record children)
        become summaries, those whose children hold one record (``rows_close``):
        each gets a copy of its first child's record and conditional, and its
        children are deleted."""
        kids, table = self.slots[rows], self.table
        same = np.array([rows_close(table, k.tolist()) for k in kids], dtype=bool)
        rows, kids = rows[same], kids[same]
        for column in table:
            column[rows] = column[kids[:, 0]]
        self.kind[rows], self.cond[rows] = SUMMARY, self.cond[kids[:, 0]]
        self.cached[rows], self.gain[rows], self.boxed[rows] = True, 0.0, False
        self.has_children[rows], self.slots[rows], self.kind[kids] = False, -1, _DELETED
        self.overlay |= bool(len(rows))
        return len(rows)

    # -- child sets ------------------------------------------------------------

    def _stored(self, rows):
        """Per row: child slots, which are stored, their weights (0.0 for an
        absent child) and ``completed_weights``."""
        slots = self.slots.take(rows, axis=0)
        present = slots >= 0
        count = np.add.reduce(present, axis=1)
        if np.count_nonzero(count) < len(count):
            i = np.asarray(rows)[count == 0][0]
            raise TreeError(f"{(int(self.depth[i]), int(self.index[i]))} has no stored "
                            "children to complete")
        stored = np.where(present, self.weight[slots], 0.0)
        return slots, present, stored, *completed_weights(stored, count, self.world.branching)

    def child_sets(self, rows) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
        """Weights (N, B), conditionals (N, B, K+1), cached gains (N, B) and
        total weights (N,) of the full child sets of N rows with stored
        children, by gathers. An absent child is completed virtually and
        never stored: it weighs the mean of its stored siblings' weights and
        has the uniform conditional and zero gain. A stored child's gain is
        its cached one if it is interior, else 0, and its conditional its
        cached one or ``conditionals``'s. A row's total is
        ``completed_weight`` of its stored weights in octant order, the
        node's weight by definition; consumers normalize by it instead of
        summing the row. A row's results do not depend on the rows beside
        it."""
        slots, present, stored, mean, total = self._stored(rows)
        conds = self.cond.take(slots, axis=0)
        conds[~present] = uniform_row(self.num_classes)
        stale = present > self.cached[slots]  # stored and uncached
        if np.count_nonzero(stale):
            conds[stale] = self.conditionals(slots[stale])
        gains = np.where(present & (self.kind[slots] == INTERIOR), self.gain[slots], 0.0)
        return np.where(present, stored, mean[:, None]), conds, gains, total

    def conditionals(self, rows: np.ndarray) -> np.ndarray:
        """``SemanticOctree.conditional`` of each of ``rows``, without writing:
        uncached ones with stored children from one ``child_sets`` gather."""
        conds = self.cond[rows]
        todo = ~self.cached[rows]
        conds[todo] = uniform_row(self.num_classes)
        deep = np.flatnonzero(todo & self.has_children[rows])
        if len(deep):
            weights, children, _, totals = self.child_sets(rows[deep])
            for i, row in enumerate(deep.tolist()):
                if totals[i] > 0.0:
                    conds[row] = (weights[i] / totals[i]) @ children[i]
        return conds


class SemanticOctree:
    """Probabilistic multi-class octree built from labeled point observations.

    Every tree keeps its nodes as one ``Levels``, an empty tree the root
    alone. Per-node writes (``add_observation``, ``set_leaf``, summary
    expansion, both prunes) go to its overlay, which ``levels()`` merges
    into key order for a batch operation. ``nodes`` is a read-only view.
    """

    def __init__(self, world: WorldConfig, num_classes: int, *, levels: Levels | None = None):
        """A tree of ``levels``, or the root alone: interior, uncached and
        of weight and gain 0.0."""
        self.check_classes(num_classes)
        self.world, self.num_classes, self._nodes = world, num_classes, None
        self._store = levels if levels is not None else Levels(world, num_classes, (
            np.zeros(1, np.int64), np.zeros(1, np.int64), np.zeros(1, np.int64), np.zeros(1),
            np.array([uniform_row(num_classes)]), np.zeros(1, bool), np.zeros(1),
            np.zeros(1, bool)), TruncatedRows.zeros(1))

    def __getstate__(self) -> dict:
        """A copy leaves the ``nodes`` view behind and builds its own."""
        return {**self.__dict__, "_nodes": None}

    @staticmethod
    def check_classes(num_classes: int) -> None:
        if num_classes < 4:
            raise ConfigError("truncated leaf storage needs at least 4 classes")

    def levels(self) -> Levels:
        """The nodes as columns in key order, for a batch operation: the
        overlay of the writes since the last call is merged in first."""
        if self._store.overlay:
            self._store = self._store.merged()
        return self._store

    def columns(self) -> Levels:
        """The columns as they stand, to write in place; drops ``nodes``."""
        self._nodes = None
        return self._store

    @property
    def nodes(self) -> Mapping[NodeKey, Node]:
        """The nodes by key in pre-order, a read-only mapping of ``ViewNode``s
        that the first read after a write builds."""
        if self._nodes is None:
            self._nodes = MappingProxyType(self.levels().node_dict(self))
        return self._nodes

    # -- structure queries ------------------------------------------------

    def _count(self, kind: int) -> int:
        store = self._store
        return int(np.count_nonzero(store.kind[:store.size] == kind))

    def has_summaries(self) -> bool:
        return self._count(SUMMARY) > 0

    def leaf_count(self) -> int:
        return self._count(LEAF)

    def node_count(self) -> int:
        return self._store.size - self._count(_DELETED)

    def rows(self, keys) -> np.ndarray:
        """The rows of ``keys`` in the columns as they stand
        (``Levels.lookup``), or ``TreeError`` naming the first unknown key:
        per-key reads merge nothing."""
        rows = self._store.lookup(*key_arrays(keys))
        missing = np.flatnonzero(rows < 0)
        if len(missing):
            raise TreeError(f"unknown key {keys[missing[0]]}")
        return rows

    def conditional(self, key: NodeKey) -> np.ndarray:
        """Aggregate class distribution of a node, over ids 0..K.

        Leaves and summaries return the dense vector stored with their
        record; interior nodes the cached aggregate, or else one computed
        from their children (``Levels.conditionals``). A childless or
        massless node reads as unobserved, i.e. maximum entropy.
        """
        return self._store.conditionals(self.rows([key]))[0]

    # -- construction -----------------------------------------------------

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
        The columns hold the leaves' codes, record rows and dense rows, and
        interior nodes made and weighted once, level by level, uncached
        with gain 0.0 (without leaves, the root alone, of weight 0.0); no
        ``Node`` is made. Rejected rows come in row order.
        """
        points = np.asarray(points, dtype=np.float64).reshape(-1, 3)
        confidence = np.asarray(confidence, dtype=np.float64)
        rejected = observation_errors(obs_class, confidence, num_classes)
        ids = np.asarray(obs_class)
        if ids.dtype.kind not in "iu":  # rejected rows are never fused
            ids = [0 if i in rejected else operator.index(c) for i, c in enumerate(obs_class)]
        obs_class = np.asarray(ids, dtype=np.int64)
        codes, inside = world.morton(points)
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
        # Level by level upward, the parents' ``completed_weights``.
        index, weight, b = [codes[first]], [np.ones(len(first))], world.branching
        for _ in range(world.max_depth):
            parents = index[0] >> world.dims
            new = np.diff(parents, prepend=-1) != 0
            group = np.cumsum(new) - 1
            stored = np.zeros((int(new.sum()), b))
            stored[group, index[0] & b - 1] = weight[0]
            index.insert(0, parents[new])
            weight.insert(0, completed_weights(stored, np.bincount(group), b)[1])
        if not len(first):
            index[0], weight[0] = np.zeros(1, np.int64), np.zeros(1)
        depth = np.repeat(np.arange(world.max_depth + 1), list(map(len, index)))
        leaf, inner = depth == world.max_depth, len(depth) - len(first)
        state = np.repeat(uniform_row(num_classes)[None, :], len(first), axis=0)
        table = TruncatedRows.zeros(len(depth))
        for sel in rounds:
            src = rows[sel]
            posterior, contradicted = fuse_rows(state[leaf_of[sel]], obs_class[src],
                                                confidence[src])
            rejected.update((i, CONTRADICTED) for i in src[contradicted].tolist())
            leaves = leaf_of[sel[~contradicted]]
            records = truncate_rows(posterior[~contradicted])
            state[leaves] = expand_rows(records, num_classes)
            for column, values in zip(table, records):
                column[inner + leaves] = values
        return cls(world, num_classes, levels=Levels(world, num_classes, (
            depth, np.concatenate(index), np.where(leaf, LEAF, INTERIOR),
            np.concatenate(weight), np.concatenate([np.zeros((inner, num_classes + 1)), state]),
            leaf, np.zeros(len(depth)), np.zeros(len(depth), bool)), table)), dict(
                sorted(rejected.items()))

    def add_observation(self, point, obs_class: int, confidence: float) -> NodeKey:
        """Insert or update the finest leaf containing ``point``; the
        streamed path, one record at a time (``from_observations`` builds
        a whole cloud at once).

        Rejects an out-of-bounds point or an observation that
        ``check_observation`` refuses before touching the tree. Then fuses
        the observation into the leaf's distribution on Python floats
        (``fuse_record``, the batch kernel's bits). A new leaf first gets
        its missing ancestors (any summary node on the path is re-expanded),
        and then the weights along its path to the root are refreshed; an
        update keeps every weight. Returns the leaf key. Conditional/gain
        caches are refreshed separately (see ``compression.refresh_upward``).
        """
        leaf = self.world.leaf_key(point)
        obs_class, confidence = check_observation(obs_class, confidence, self.num_classes)
        store = self.columns()
        path = store.path(leaf.depth, leaf.index)
        new_leaf = path[-1] < 0
        if new_leaf:
            self._open_path(store, leaf, path)
        at = path[-1]
        store.install(at, store.weight[at], *fuse_record(store.cond[at], obs_class, confidence))
        if new_leaf:  # an update keeps the leaf's weight, so no weight changes
            self._refresh_path(store, path)
        return leaf

    def set_leaf(self, coords: tuple[int, ...],
                 dist: TruncatedSemanticDistribution, weight: float = 1.0) -> NodeKey:
        """Directly install a finest-resolution leaf (fixtures, bulk loads)."""
        if not 0 <= weight < math.inf:  # NaN fails too
            raise ConfigError(f"leaf weight must be non-negative and finite, not {weight}")
        cond = expand_truncated(dist, self.num_classes)
        key = self.world.key_from_coords(coords, self.world.max_depth)
        store = self.columns()
        path = store.path(key.depth, key.index)
        self._open_path(store, key, path)
        store.install(path[-1], weight, TruncatedRows.of([dist]).fields(0), cond)
        self._refresh_path(store, path)
        return key

    def _open_path(self, store: Levels, leaf: NodeKey, path: list[int]) -> None:
        """Complete ``path`` (``Levels.path`` of ``leaf``) top down: expand
        any summary on it, and make each missing node, an uncached interior
        one or the leaf, uniform and of weight 1.0."""
        dims, mask = self.world.dims, self.world.branching - 1
        for depth in range(leaf.depth):
            row, shift = path[depth], dims * (leaf.depth - depth - 1)
            kind, octant = store.kind[row], leaf.index >> shift & mask
            if kind == SUMMARY:
                store.expand(row)
            elif kind == LEAF:
                raise TreeError(f"leaf record {NodeKey(depth, leaf.index >> shift + dims)} "
                                "above max depth")
            child = store.slots.item(row, octant)
            if child < 0:
                child = (store.add_row(row, octant, INTERIOR) if shift else store.add_row(
                    row, octant, LEAF, 1.0, uniform_row(self.num_classes)))
            path[depth + 1] = child

    def _refresh_path(self, store: Levels, path: list[int]) -> None:
        """Re-derive the weight of every ancestor on ``path``, deepest first."""
        weight, branching = store.weight, self.world.branching
        for row in reversed(path[:-1]):
            weight[row] = completed_weight(
                [weight.item(k) for k in store.slots[row].tolist() if k >= 0], branching)

    # -- summary handling ---------------------------------------------------

    def prune_identical_children(self, key: NodeKey) -> bool:
        """Collapse a node whose children all carry one identical distribution.

        Applicable only when every child is stored and holds a truncated
        record (a finest leaf or an already-pruned summary). On success the
        children are deleted and the node becomes a summary carrying the
        shared distribution, to re-expand on the next observation in it.
        """
        row, store = self.rows([key])[0], self._store
        if store.kind[row] != INTERIOR:
            raise TreeError(f"{key} is not an interior node")
        kids = store.slots[row]
        if (kids < 0).any():
            raise TreeError(f"{key} does not have a full stored child set")
        if (store.kind[kids] == INTERIOR).any():
            raise TreeError(f"children of {key} include interior nodes")
        return bool(self.columns().prune(np.array([row])))

    def prune_all_identical(self) -> int:
        """Bottom-up sweep of ``prune_identical_children`` wherever
        applicable, one level of the columns at a time."""
        store, pruned = self.levels(), 0
        for depth in reversed(range(self.world.max_depth)):
            a, b = store.bounds[depth:depth + 2]
            kids = store.slots[a:b]
            full = (store.kind[a:b] == INTERIOR) & (kids >= 0).all(axis=1)
            full[full] = (store.kind[kids[full]] != INTERIOR).all(axis=1)
            pruned += store.prune(a + np.flatnonzero(full))
        if pruned:
            self.columns()
        return pruned

    def expand_summaries(self) -> int:
        """Expand every summary down to explicit depth-D leaves.

        Returns the number of expansion steps performed. The weights of the
        expanded nodes and their ancestors are then re-derived, deepest
        first: the children's shares need not add up to the summary's weight
        bit for bit. Caches stay valid within rounding: an expanded node keeps
        its record's vector and gain 0, which ``compression.refresh_all``
        makes exact again, here and above.
        """
        pending = np.flatnonzero(self.levels().kind == SUMMARY).tolist()
        if not pending:
            return 0
        store, done, expanded = self.columns(), [], len(pending)
        while pending:
            row = pending.pop()
            children = store.expand(row)
            done.append(row)
            if store.kind[children[0]] == SUMMARY:
                expanded += len(children)
                pending += children
        depth, index, dims = store.depth[done], store.index[done], self.world.dims
        for level in reversed(range(self.world.max_depth)):  # the expanded and their ancestors
            at = depth >= level
            keys = np.unique(index[at] >> dims * (depth[at] - level))
            rows = store.lookup(np.full(len(keys), level), keys)
            store.weight[rows] = store._stored(rows)[-1]
        return expanded
