"""Spatially keyed semantic octree over a cubic world volume.

Nodes are addressed by (depth, index) keys where the index bit-interleaves
the per-axis cell coordinates at that depth. Only observed regions are
stored; missing children are completed transiently with a maximum-entropy
class distribution, zero gain and a weight equal to the mean weight of
their stored siblings. Two gathers apply this rule, each stacked for many
nodes at once: ``SemanticOctree.child_sets`` over the node dict, for the
per-node paths, and ``Levels.child_sets`` over the per-depth columns, for
the batch operations; every computation on a node's full child set reads
one of them. A loaded or batch-built tree keeps its nodes as ``Levels``;
any other tree is a dict of ``Node`` (see ``SemanticOctree``). Observed
finest-resolution leaves carry unit weight, and an interior weight is the
sum of its (virtually completed) children, always evaluated by
``completed_weight``: the builds, inserts and summary expansion store it
and ``child_sets`` reports it per row, so a stored weight equals its row's
total bit for bit.

Three node kinds exist: depth-D leaves and their ancestors (interior nodes
with cached aggregate conditionals), plus summary nodes produced by pruning
identical children; a summary stands in for a homogeneous subtree and is
re-expanded on the next observation that touches its region.

Leaves and summaries hold a truncated record, a row of a read-only
``TruncatedRows`` table (one per batch build or file load, one row per
observation; a summary's prune or expansion shares its row), plus its dense
vector over ids 0..K; ``Node.dist`` builds the record on each read. The
record is validated and expanded once, when it is installed; reading a
conditional afterwards is a plain lookup.

Concurrency: mutating operations require exclusive access to a tree;
read-only traversals may run concurrently with each other. The first read
of a column-backed tree's ``nodes`` builds them and counts as a mutation.
"""

from __future__ import annotations

import functools
import itertools
import math
import operator
from dataclasses import dataclass
from typing import Iterator, NamedTuple

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
    may be plain (depth, index) pairs."""
    return np.fromiter(itertools.chain.from_iterable(keys), dtype=np.int64,
                       count=2 * len(keys)).reshape(-1, 2).T


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

    def __post_init__(self):
        if self.branching not in (2, 4, 8):
            raise ConfigError("branching must be one of 2, 4, 8")
        if not 1 <= self.max_depth <= _MAX_DEPTH:
            raise ConfigError(f"max_depth must be in 1..{_MAX_DEPTH}")
        if not (self.edge_length > 0 and math.isfinite(self.edge_length)):
            raise ConfigError("edge_length must be positive and finite")
        if not self.leaf_size > 0:
            raise ConfigError(f"edge_length {self.edge_length!r} is too small for "
                              f"max_depth {self.max_depth}: the finest cell size is 0")
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
        bounds of ``contains``; outside points get code 0. A power-of-two
        leaf size divides exactly as a product with its inverse, far faster.
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
    """A stored node. A leaf or summary record is row ``row`` of ``table``."""

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


ROOT_KEY = NodeKey(0, 0)


@functools.lru_cache(maxsize=None)
def uniform_row(num_classes: int) -> np.ndarray:
    """Read-only maximum-entropy vector, the conditional of a missing child."""
    row = np.full(num_classes + 1, 1.0 / (num_classes + 1))
    row.flags.writeable = False
    return row


def _caches(cond, cached, gain, boxed) -> tuple[list, list]:
    """Per node its ``Node.cond`` (a row of ``cond`` or None) and its gain
    (a Python float or a numpy float64)."""
    return ([c if ok else None for c, ok in zip(cond, cached.tolist())],
            [np.float64(g) if b else g for g, b in zip(gain.tolist(), boxed.tolist())])


class Levels:
    """A tree's stored nodes as columns in key order: level d, rows
    ``bounds[d]:bounds[d + 1]``, lists depth d's nodes by Morton index, a
    linear octree (Gargantini 1982). Per row: ``depth``, ``index``, ``kind``,
    ``weight``, ``row`` (a record's row of ``table``), a conditional in the
    (n, K+1) ``cond`` matrix where ``cached`` holds, ``gain`` and ``boxed``
    (the gain is a numpy float64, as ``compression`` types a gain over
    weighted classes). ``slots`` holds, for each row above depth D, its
    children's rows in octant order, -1 for an absent child: one
    ``searchsorted`` per level.

    A file load or batch build keeps them as its tree's store.
    ``SemanticOctree.levels`` gathers a node-backed tree into them, each
    row's ``Node`` in ``nodes``, into which ``write_back`` copies the
    interior caches; such a gather has no ``table``.
    """

    def __init__(self, world: WorldConfig, num_classes: int, columns,
                 table: TruncatedRows | None = None, nodes: list | None = None):
        (self.depth, self.index, self.kind, self.weight, self.row, self.cond, self.cached,
         self.gain, self.boxed) = columns
        self.world, self.num_classes, self.table, self.nodes = world, num_classes, table, nodes
        bounds = np.searchsorted(self.depth, np.arange(world.max_depth + 2)).tolist()
        self.bounds = bounds
        self.slots = np.full((bounds[-2], world.branching), -1)
        for up, a, b in zip(bounds, bounds[1:], bounds[2:]):
            parents, children = self.index[up:a], self.index[a:b]
            at = np.searchsorted(parents, children >> world.dims)
            ok = np.append(parents, -1)[at] == children >> world.dims
            self.slots[up + at[ok], children[ok] & world.branching - 1] = np.arange(a, b)[ok]
        self.has_children = np.zeros(len(self.index), bool)
        self.has_children[:bounds[-2]] = (self.slots >= 0).any(axis=1)

    @classmethod
    def gather(cls, world: WorldConfig, num_classes: int, nodes: dict) -> "Levels":
        depth, index = key_arrays(list(nodes))
        order = np.lexsort((index, depth))
        values = list(nodes.values())
        values = [values[i] for i in order.tolist()]
        n, uniform = len(values), uniform_row(num_classes)
        return cls(world, num_classes, (
            depth[order], index[order], np.fromiter((v.kind for v in values), np.int64, n),
            np.fromiter((v.weight for v in values), np.float64, n), np.zeros(n, np.int64),
            np.concatenate([uniform if v.cond is None else v.cond for v in values]).reshape(
                n, num_classes + 1),
            np.fromiter((v.cond is not None for v in values), bool, n),
            np.fromiter((v.gain for v in values), np.float64, n),
            np.fromiter((type(v.gain) is np.float64 for v in values), bool, n)), nodes=values)

    def node_dict(self) -> dict[NodeKey, Node]:
        """A ``Node`` per row, caches included, in pre-order (the file's
        order); records refer to rows of ``table``."""
        world = self.world
        order = np.lexsort((self.depth, self.index << world.dims * (
            world.max_depth - self.depth)))
        kind, cond = self.kind[order], self.cond[order]
        cond.flags.writeable = False
        conds, gains = _caches(cond, self.cached[order], self.gain[order], self.boxed[order])
        tables = [None, self.table]
        return dict(zip(node_keys(self.depth[order], self.index[order]), map(
            Node, kind.tolist(), self.weight[order].tolist(),
            map(tables.__getitem__, (kind != INTERIOR).tolist()), self.row[order].tolist(),
            conds, gains)))

    def write_back(self) -> None:
        """Copy each interior weight, conditional and gain into the gathered
        ``Node``s; a file load's store has none."""
        inner = np.flatnonzero(self.kind == INTERIOR) if self.nodes else []
        conds, gains = _caches(self.cond[inner], self.cached[inner], self.gain[inner],
                               self.boxed[inner])
        for i, w, c, g in zip(inner, self.weight[inner].tolist(), conds, gains):
            node = self.nodes[i]
            node.weight, node.cond, node.gain = w, c, g

    def identical_sets(self) -> bool:
        """Whether some interior row's children are all stored records that
        hold one record (``rows_close``)."""
        slots = self.slots[self.kind[:len(self.slots)] == INTERIOR]
        slots = slots[(slots >= 0).all(axis=1)]
        slots = slots[(self.kind[slots] != INTERIOR).all(axis=1)]
        return any(rows_close([(self.table, r) for r in rows])
                   for rows in self.row[slots].tolist())

    def child_sets(self, rows) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
        """``SemanticOctree.child_sets`` of ``rows``, by gathers: a row's
        stored weights are added in octant order (0.0 for an absent child,
        which is exact), and a stored child without a cached conditional
        gets ``conditionals``'s."""
        slots = self.slots[rows]
        present = slots >= 0
        count = present.sum(axis=1)
        if not count.all():
            i = np.asarray(rows)[count == 0][0]
            raise TreeError(f"{(int(self.depth[i]), int(self.index[i]))} has no stored "
                            "children to complete")
        stored = np.where(present, self.weight[slots], 0.0)
        total = row_totals(stored)
        mean = total / count
        conds = self.cond[slots]
        conds[~present] = uniform_row(self.num_classes)
        stale = present & ~self.cached[slots]
        if stale.any():
            conds[stale] = self.conditionals(slots[stale])
        gains = np.where(present & (self.kind[slots] == INTERIOR), self.gain[slots], 0.0)
        return (np.where(present, stored, mean[:, None]), conds, gains,
                total + (self.world.branching - count) * mean)

    def conditionals(self, rows: np.ndarray) -> np.ndarray:
        """``SemanticOctree.conditional`` of each of ``rows``, without
        writing: the uncached ones with stored children are computed from
        one ``child_sets`` gather, row by row as that method computes one."""
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

    How a tree was made picks how it holds its nodes: a file load or a
    batch build keeps ``Levels``, which the batch operations update in
    place; any other tree is node-backed (``nodes``), and a batch operation
    gathers it into ``Levels`` and writes back. The first read of ``nodes``
    makes a tree node-backed for good.
    """

    nodes: dict[NodeKey, Node]  # an attribute once the tree is node-backed

    def __init__(self, world: WorldConfig, num_classes: int,
                 nodes: dict[NodeKey, Node] | None = None, *, levels: Levels | None = None):
        self.check_classes(num_classes)
        self.world, self.num_classes, self._levels = world, num_classes, levels
        if levels is None:
            self.nodes = {} if nodes is None else nodes
            if not self.nodes:
                self.nodes[ROOT_KEY] = Node(INTERIOR)

    @staticmethod
    def check_classes(num_classes: int) -> None:
        if num_classes < 4:
            raise ConfigError("truncated leaf storage needs at least 4 classes")

    def __getattr__(self, name: str):
        """``nodes`` of a column-backed tree: built on this first read, in
        file order with their caches; the tree is node-backed from then on.
        A node-backed tree's ``nodes`` is a plain attribute, which the
        streamed path reads several times per record."""
        if name != "nodes" or self.__dict__.get("_levels") is None:
            raise AttributeError(name)
        self.nodes, self._levels = self._levels.node_dict(), None
        return self.nodes

    def levels(self) -> Levels:
        """The stored nodes as columns: a column-backed tree's own, or a
        gather of a node-backed tree's (see ``Levels.write_back``)."""
        if self._levels is not None:
            return self._levels
        return Levels.gather(self.world, self.num_classes, self.nodes)

    @property
    def root(self) -> Node:
        return self.nodes[ROOT_KEY]

    # -- structure queries ------------------------------------------------

    def stored_children(self, key: NodeKey) -> list[NodeKey]:
        return [k for k in child_keys(key, self.world.dims) if k in self.nodes]

    def _kind_counts(self) -> np.ndarray:
        if self._levels is not None:
            return np.bincount(self._levels.kind, minlength=3)
        nodes = self.nodes.values()
        return np.bincount(np.fromiter((n.kind for n in nodes), np.int64, len(nodes)),
                           minlength=3)

    def has_summaries(self) -> bool:
        return bool(self._kind_counts()[SUMMARY])

    def leaf_items(self) -> Iterator[tuple[NodeKey, Node]]:
        """Depth-D leaves, in key order."""
        for key in sorted(self.nodes):
            node = self.nodes[key]
            if node.kind == LEAF:
                yield key, node

    def leaf_count(self) -> int:
        return int(self._kind_counts()[LEAF])

    def node_count(self) -> int:
        return len(self.nodes) if self._levels is None else len(self._levels.index)

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
        The tree keeps the result as ``Levels`` and makes no ``Node``: the
        leaves' codes, record rows and dense rows, and interior nodes, made
        and weighted once, level by level, uncached with gain 0.0 (without
        leaves, the root alone, of weight 0.0). Caches are left for
        ``compression.refresh_all``. Rejected rows come in row order.
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
            for column, values in zip(kept[:4], records):
                column[leaves] = values
        state.flags.writeable = False
        # Level by level upward, a parent's ``completed_weight`` from its
        # stored weights in octant order (0.0 for an absent child, exact).
        index, weight, b = [codes[first]], [np.ones(len(first))], world.branching
        for _ in range(world.max_depth):
            parents = index[0] >> world.dims
            new = np.diff(parents, prepend=-1) != 0
            group = np.cumsum(new) - 1
            stored = np.zeros((int(new.sum()), b))
            stored[group, index[0] & b - 1] = weight[0]
            total, count = row_totals(stored), np.bincount(group, minlength=len(stored))
            index.insert(0, parents[new])
            weight.insert(0, total + (b - count) * (total / count))
        if not len(first):
            index[0], weight[0] = np.zeros(1, np.int64), np.zeros(1)
        depth = np.repeat(np.arange(world.max_depth + 1), list(map(len, index)))
        leaf, inner = depth == world.max_depth, len(depth) - len(first)
        return cls(world, num_classes, levels=Levels(world, num_classes, (
            depth, np.concatenate(index), np.where(leaf, LEAF, INTERIOR),
            np.concatenate(weight), np.r_[np.zeros(inner, np.int64), np.arange(len(first))],
            np.concatenate([np.zeros((inner, num_classes + 1)), state]), leaf,
            np.zeros(len(depth)), np.zeros(len(depth), bool)), kept.read_only())), dict(
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
        node = self.nodes.get(leaf)
        new_leaf = node is None
        if new_leaf:
            self._open_path(leaf)
            node = self.nodes.get(leaf)  # present if a summary held its cell
        if node is None:
            prior, weight = uniform_row(self.num_classes), 1.0
        else:
            prior, weight = node.cond, node.weight
        record, cond = fuse_record(prior, obs_class, confidence)
        self.nodes[leaf] = Node(LEAF, weight, record, 0, cond)
        if new_leaf:  # an update keeps the leaf's weight, so no weight changes
            self._refresh_path(leaf)
        return leaf

    def set_leaf(self, coords: tuple[int, ...],
                 dist: TruncatedSemanticDistribution, weight: float = 1.0) -> NodeKey:
        """Directly install a finest-resolution leaf (fixtures, bulk loads)."""
        if not 0 <= weight < math.inf:  # NaN fails too
            raise ConfigError(f"leaf weight must be non-negative and finite, not {weight}")
        cond = expand_truncated(dist, self.num_classes)
        cond.flags.writeable = False  # conditionals are returned without copying
        record = Node(LEAF, weight, cond=cond)
        record.dist = dist
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
        children = [self.nodes[k] for k in kids]
        if any(c.kind == INTERIOR for c in children):
            raise TreeError(f"children of {key} include interior nodes")
        return self._prune(key, kids, children)

    def _prune(self, key: NodeKey, kids: list, children: list[Node]) -> bool:
        """Make ``key`` a summary if its full set of record ``children`` holds
        one record (``rows_close``); compares rows and builds no records."""
        if not rows_close([(c.table, c.row) for c in children]):
            return False
        for k in kids:
            del self.nodes[k]
        first = children[0]
        self.nodes[key] = Node(SUMMARY, self.nodes[key].weight, first.table, first.row,
                               first.cond)
        return True

    def prune_all_identical(self) -> int:
        """Bottom-up sweep of ``prune_identical_children`` wherever applicable;
        child slots are plain (depth, index) pairs, each looked up once. Only
        a full set of record children that holds one record starts a prune:
        without one, a column-backed tree stays so."""
        if self._levels is not None and not self._levels.identical_sets():
            return 0
        get, dims, octants = self.nodes.get, self.world.dims, range(self.world.branching)
        pruned = 0
        keys = [k for k, n in self.nodes.items() if n.kind == INTERIOR]
        for key in sorted(keys, key=lambda k: (-k.depth, k.index)):
            base = key.index << dims
            kids = [(key.depth + 1, base | o) for o in octants]
            children = [get(k) for k in kids]
            if all(c is not None and c.kind != INTERIOR for c in children):
                pruned += self._prune(key, kids, children)
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
            self.nodes[k] = Node(child_kind, share, node.table, node.row, node.cond)
        self.nodes[key] = Node(INTERIOR, weight=node.weight, cond=node.cond)

    def expand_summaries(self) -> int:
        """Expand every summary down to explicit depth-D leaves.

        Returns the number of expansion steps performed. The weights of the
        expanded nodes and their ancestors are then re-derived, deepest
        first, since the children's shares need not add up to the summary's
        weight bit for bit. Conditional and gain caches stay valid within
        rounding: an expanded node keeps its record's vector and gain 0, where
        ``compression.refresh_all`` averages its identical children, which can
        differ in the last bits, here and above; it makes them exact again.
        """
        if not self.has_summaries():  # a column-backed tree stays so
            return 0
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
