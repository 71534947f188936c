"""Task-driven tree compression: gain values, caches, search, and reports.

A node's expansion gain scores how much weighted class information its
children add, minus the penalty for keeping them distinct, plus whatever its
descendants can still gain. The gain exists in two forms: an absolute one
built from node masses, and a relative one built only from child weight
ratios; the two satisfy absolute == mass * relative, so the relative form
can be cached and updated locally as observations stream in. Extracting the
compressed tree then keeps a node's children exactly when its cached
relative gain is positive.

Information functionals of a compressed tree are defined as sums of
per-node increments over its expanded nodes, with masses normalized by the
root mass; these sums telescope to the entropy of the leaf-weight partition
and to the mutual information between each class and the leaf index.

Everything here reads rows of the tree's per-depth columns (``Levels``);
a key is looked up once, by ``tree.rows``, and the per-node oracles then
follow the child slots. Child sets come stacked from ``Levels.child_sets``,
which alone completes absent children and reports each row's total
weight, the ``completed_weights`` that every weight normalization here
divides by.
Every JS divergence and split entropy here comes from one kernel,
``split_terms``, which takes child sets stacked into (N, B) weights and
(N, B, C) marginals and gives each row the same bits it gets alone.
``refresh_upward`` gathers a leaf's whole root path in one call, chains
the conditionals up through each row's path slot, then evaluates all the
path's child sets in one call and chains the gains; ``refresh_all``
gathers and evaluates a tree level (deepest first) in stacked batches;
``expansion_gain`` passes one row per node. The information of a
compressed tree has one route: ``_bits`` evaluates a set of expanded rows
once and sums the bits of any subsets of them, and ``_objective`` weighs
those bits. ``information_report``, ``per_class_information``, ``report``
(the full and a compressed tree together) and ``exhaustive_search`` (every
candidate) read it. ``weighted_gain`` alone stays on the separate
``infotheory.split_increments`` route, so it checks the kernel rather than
repeats it.

The extraction gathers all expanded nodes in one call and keeps the
compressed tree's blocks as columns (``LeafArrays``: depth, index, weight,
marginals, virtual mask; key order); ``leaf_classes`` gives their class ids
to the leaves CSV, the block index and the tree graph. ``CompressedLeaf``
objects and the ``kept`` key set are built only when read.

Trees containing summary nodes must be expanded (``expand_summaries``)
before the tree-level operations here; per-node gain queries and cache
refreshes treat summaries as zero-gain leaf-likes, which is exact because a
homogeneous subtree adds no information at any level.

Concurrency: cache refreshes require exclusive tree access; search, reports,
the per-node oracles and the exhaustive enumeration are read-only and may
run concurrently, once the tree's overlay is merged (``tree.levels()``,
which each of them calls first).
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field
from functools import cached_property
from typing import Iterable, Iterator, Mapping, NamedTuple

import numpy as np

from .errors import ConfigError, SizeLimitError, SummaryError, TreeError
from .infotheory import split_increments
from .octree import (
    INTERIOR,
    LEAF,
    ROOT_KEY,
    Levels,
    NodeKey,
    SemanticOctree,
    key_arrays,
    node_keys,
    uniform_row,
)
from .semantics import UNKNOWN_CLASS, dominant_class, left_sum

G_EPS = 1e-12
MAX_CANDIDATES = 1_000_000


@dataclass(frozen=True)
class CompressionWeights:
    """Per-class trade-off weights for compression.

    ``retain`` maps relevant class ids to their retention weight, ``remove``
    maps irrelevant class ids to their removal weight, and ``compress``
    prices the size of the compressed representation. The two class sets
    must be disjoint and all weights non-negative and finite.
    """

    retain: Mapping[int, float]
    remove: Mapping[int, float]
    compress: float
    # Derived: the weighted class ids in ascending order (int64), and per id
    # its weight, negated for removed classes.
    class_ids: np.ndarray = field(init=False, repr=False, compare=False)
    signed: tuple[float, ...] = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        object.__setattr__(self, "retain", dict(self.retain))
        object.__setattr__(self, "remove", dict(self.remove))
        overlap = set(self.retain) & set(self.remove)
        if overlap:
            raise ConfigError(f"classes {sorted(overlap)} both retained and removed")
        values = [*self.retain.values(), *self.remove.values(), self.compress]
        if not all(0 <= v < math.inf for v in values):
            raise ConfigError("weights must be non-negative and finite")
        class_ids = sorted(set(self.retain) | set(self.remove))
        object.__setattr__(self, "class_ids", np.array(class_ids, dtype=np.int64))
        object.__setattr__(self, "signed", tuple(
            self.retain[c] if c in self.retain else -self.remove[c]
            for c in class_ids))


@dataclass(frozen=True)
class CompressedLeaf:
    """One block of the compressed map: aggregate mass and class marginals.

    ``virtual`` marks blocks that were never observed; their marginals are
    the maximum-entropy placeholder and exports label them unknown space.
    """

    key: NodeKey
    weight: float
    marginals: np.ndarray
    virtual: bool


class LeafArrays(NamedTuple):
    """A compressed tree's blocks as columns, in key order ``(depth, index)``:
    ``depth`` and ``index`` (int64), ``weight`` (float64), a read-only
    (n, K+1) ``marginals`` matrix and the ``virtual`` mask (bool) of the
    blocks that were never observed."""

    depth: np.ndarray
    index: np.ndarray
    weight: np.ndarray
    marginals: np.ndarray
    virtual: np.ndarray


def leaf_classes(blocks: LeafArrays) -> np.ndarray:
    """Class id of every block: its dominant class, or UNKNOWN_CLASS for a
    virtual (unobserved) one; one ``dominant_class`` call over all blocks."""
    classes = dominant_class(blocks.marginals)
    classes[blocks.virtual] = UNKNOWN_CLASS
    return classes


@dataclass(eq=False)
class CompressedTree:
    """Root-containing subtree in which every expanded node keeps all children.

    Its blocks are ``leaf_arrays``. ``leaves`` (a ``CompressedLeaf`` per
    block) and ``kept`` (every key of the subtree) are built from them on
    their first read and then kept. Two trees compare by identity.
    """

    leaf_arrays: LeafArrays
    expanded: set[NodeKey]
    root_weight: float
    world: "object"
    num_classes: int

    @cached_property
    def leaves(self) -> dict[NodeKey, CompressedLeaf]:
        """The blocks by key, in key order."""
        b = self.leaf_arrays
        return {key: CompressedLeaf(key, w, m, v) for key, w, m, v in zip(
            node_keys(b.depth, b.index), b.weight.tolist(), b.marginals,
            b.virtual.tolist())}

    @cached_property
    def kept(self) -> set[NodeKey]:
        """The root, the expanded nodes and the blocks."""
        b = self.leaf_arrays
        return {ROOT_KEY, *self.expanded, *node_keys(b.depth, b.index)}

    @property
    def num_leaves(self) -> int:
        """Leaves backed by observed nodes (virtual blocks excluded)."""
        virtual = self.leaf_arrays.virtual
        return len(virtual) - int(np.count_nonzero(virtual))


@dataclass(frozen=True)
class InfoReport:
    """Information content of a compressed tree, in bits.

    ``relevant_bits``/``irrelevant_bits`` hold the retained information per
    weighted class; ``partition_bits`` is the information spent on
    distinguishing the leaves (the entropy of the normalized leaf-weight
    partition); ``objective`` combines them under the trade-off weights.
    """

    relevant_bits: dict[int, float]
    irrelevant_bits: dict[int, float]
    partition_bits: float
    objective: float


class ExhaustiveResult(NamedTuple):
    best_objective: float
    optimal_count: int
    candidate_count: int


# -- the split kernel ----------------------------------------------------------

CHUNK_ROWS = 1024


def split_terms(pi: np.ndarray, marginals: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Bernoulli JS columns and split entropy of stacked child sets.

    ``pi`` (N, B) holds each row's normalized child weights and
    ``marginals`` (N, B, C) its children's per-class probabilities.
    Returns the per-class JS divergences, shape (N, C), and H(pi) per row,
    shape (N,). A row's result does not depend on the rows beside it:
    zero-weight children are dropped row by row, constant columns read
    exactly 0.0, and at most ``CHUNK_ROWS`` rows are evaluated at once.
    """
    act = pi > 0.0
    if len(pi) <= CHUNK_ROWS and np.count_nonzero(act) == act.size:
        return _active_split_terms(pi, marginals)
    full = np.logical_and.reduce(act, axis=1)
    js = np.zeros((len(pi), marginals.shape[2]))
    h = np.zeros(len(pi))
    rows = np.flatnonzero(full)
    for start in range(0, len(rows), CHUNK_ROWS):
        r = rows[start:start + CHUNK_ROWS]
        js[r], h[r] = _active_split_terms(pi[r], marginals[r])
    for r in np.flatnonzero(~full):
        a = act[r]
        js[r:r + 1], h[r:r + 1] = _active_split_terms(pi[r:r + 1, a],
                                                      marginals[r:r + 1, a])
    return js, h


def _active_split_terms(pi: np.ndarray,
                        marginals: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """``split_terms`` of rows whose children all have positive weight."""
    # Each row's (C, B) slice is C-ordered: the matrix-vector products then
    # sum every column in one order, the order a single child set is
    # summed in.
    m = np.minimum(np.maximum(marginals.transpose(0, 2, 1), 0.0, order="C"), 1.0)
    h = -np.add.reduce(pi * np.log2(pi), axis=1)
    varying = np.logical_or.reduce(m != m[:, :, :1], axis=2)
    if np.count_nonzero(varying) == varying.size:
        return _js_columns(pi, m), h
    # The products also depend on how many columns they span, so rows are
    # grouped by their number of varying columns, which are gathered to
    # the front; constant columns stay 0.0.
    js = np.zeros(varying.shape)
    counts = np.add.reduce(varying, axis=1)
    for k in np.unique(counts[counts > 0]):
        rows = np.flatnonzero(counts == k)
        cols = np.nonzero(varying[rows])[1].reshape(len(rows), k)
        sub = np.take_along_axis(m[rows], cols[:, :, None], axis=1)
        js[rows[:, None], cols] = _js_columns(pi[rows], sub)
    return js, h


def _js_columns(pi: np.ndarray, m: np.ndarray) -> np.ndarray:
    """JS divergence per (row, column) of clipped marginals ``m`` (N, C, B)."""
    p = pi[:, :, None]
    pbar = np.matmul(m, p)
    q = 1.0 - m
    with np.errstate(divide="ignore", invalid="ignore"):
        t1, t0 = m * np.log2(m / pbar), q * np.log2(q / (1.0 - pbar))
    # A marginal of 0 or 1 has a term of 0.0. m * q > 0 exactly when
    # 0 < m < 1: a factor below 2**-54 makes the other one 1.0, so the
    # product never underflows to 0.
    if np.count_nonzero(m * q > 0.0) < m.size:
        t1, t0 = np.where(m > 0.0, t1, 0.0), np.where(q > 0.0, t0, 0.0)
    return np.matmul(t1 + t0, p)[:, :, 0]


def _gain(child_term: float, h: float, js: list[float],
          cw: CompressionWeights) -> float:
    """Clamped relative gain from the children's weighted gain, H(pi) and JS.

    Summed in class order on Python floats; with weighted classes the gain
    is a numpy scalar, the type a sum over a JS array gives it.
    """
    value = child_term - cw.compress * h
    for w, v in zip(cw.signed, js):
        value += w * v
    if value < 0.0:
        return 0.0
    return np.float64(value) if js else value


def _require_no_summaries(tree: SemanticOctree) -> None:
    if tree.has_summaries():
        raise SummaryError("tree contains summary nodes; call expand_summaries() first")


# -- gain values --------------------------------------------------------------


def expansion_gain(tree: SemanticOctree, key: NodeKey,
                   cw: CompressionWeights) -> float:
    """Relative gain of expanding a node, computed fresh from the definition.

    Zero for leaves, summaries and zero-mass nodes; otherwise the clamped
    sum of per-class JS terms, the split-entropy penalty, and the
    weight-averaged gains of the stored children (absent children gain
    nothing).
    """
    store = tree.levels()
    return _row_gain(store, tree.rows([key]).item(), cw)


def _row_gain(store: Levels, row: int, cw: CompressionWeights) -> float:
    """``expansion_gain`` of ``row``, recursing through its child slots."""
    if not (_expandable(store, row) and store.weight[row] > 0.0):
        return 0.0
    weights, dists, _, totals = store.child_sets([row])
    total = totals.item()
    if total <= 0.0:
        return 0.0
    gains = np.zeros(weights.shape[1])
    for o, child in enumerate(store.slots[row].tolist()):
        if child >= 0 and store.kind[child] == INTERIOR:
            gains[o] = _row_gain(store, child, cw)
    pi = weights / total
    js, h = split_terms(pi, dists[:, :, cw.class_ids])
    return _gain(float(pi[0] @ gains), h.item(), js.tolist()[0], cw)


def _expandable(store: Levels, row: int) -> bool:
    """Whether ``row`` is an interior node with stored children."""
    return store.kind[row] == INTERIOR and bool(store.has_children[row])


def weighted_gain(tree: SemanticOctree, key: NodeKey,
                  cw: CompressionWeights) -> float:
    """Absolute gain of expanding a node, built from unnormalized masses.

    Equals ``node mass * expansion_gain`` for every node; the identity is
    exercised directly by the test suite.
    """
    store = tree.levels()
    return _row_weighted_gain(store, tree.rows([key]).item(), cw)


def _row_weighted_gain(store: Levels, row: int, cw: CompressionWeights) -> float:
    """``weighted_gain`` of ``row``: its ``split_increments`` reward plus
    its interior children's, by its child slots."""
    if not (_expandable(store, row) and store.weight[row] > 0.0):
        return 0.0
    weights, dists, _, totals = store.child_sets([row])
    if totals[0] <= 0.0:
        return 0.0
    marginals = {cid: dists[0, :, cid] for cid in set(cw.retain) | set(cw.remove)}
    total = split_increments(store.weight.item(row), weights[0], marginals, cw).reward
    for child in store.slots[row].tolist():
        if child >= 0 and store.kind[child] == INTERIOR:
            total += _row_weighted_gain(store, child, cw)
    return max(total, 0.0)


# -- cache maintenance ---------------------------------------------------------


def refresh_upward(tree: SemanticOctree, leaf: NodeKey,
                   cw: CompressionWeights) -> None:
    """Refresh conditionals and gains on the leaf-to-root path.

    The incremental half of the build loop: after inserting or updating one
    finest-resolution leaf, exactly the nodes on its root path have stale
    caches, and they are recomputed bottom-up from immediate child data.
    Nothing off the path is touched. Weights are the insert's:
    ``add_observation`` and ``set_leaf`` store ``completed_weight`` along
    the path, the total ``child_sets`` reports, so every path slot already
    holds the total of the row below it. The path's rows, found by a walk
    down the slots (``Levels.path``) of the columns as they stand, are
    gathered in one ``child_sets`` call; walking up, each row's path slot
    takes the conditional and gain just computed for the node below. The
    JS and entropy terms of all rows come from one ``split_terms`` call.
    """
    store, world = tree.columns(), tree.world
    path = store.path(leaf.depth, leaf.index)
    if path[-1] < 0 or store.kind[path[-1]] != LEAF:
        raise TreeError(f"{leaf} is not a stored finest-resolution leaf")
    store.gain[path[-1]], store.boxed[path[-1]] = 0.0, False
    # Row i is the ancestor i + 1 levels up; its path slot holds the node below
    # it. Path conditionals are all rewritten, so the gather derives none.
    path, dims, mask = path[-2::-1], world.dims, world.branching - 1
    slots = [leaf.index >> dims * i & mask for i in range(len(path))]
    rows = np.array(path)
    store.cached[rows] = True
    weights, conds, gains, totals = store.child_sets(rows)
    mass = [total > 0.0 for total in totals.tolist()]
    if all(mass):
        pi = weights / totals[:, None]
    else:  # a massless row is uniform with gain 0.0, and is not evaluated
        with np.errstate(divide="ignore", invalid="ignore"):
            pi = weights / totals[:, None]
    for i, (row, live, p, c) in enumerate(zip(path, mass, pi, conds)):
        if i:
            c[slots[i]] = cond
        cond = p @ c if live else uniform_row(tree.num_classes)
        store.cond[row] = cond
    terms = iter(())
    if any(mass):
        p, c = (pi, conds) if all(mass) else (pi[mass], conds[mass])
        js, h = split_terms(p, c.take(cw.class_ids, axis=2))
        terms = zip(js.tolist(), h.tolist())
    # Gains chain up last; the slot of the node below takes its new gain.
    for i, (row, live, p, g) in enumerate(zip(path, mass, pi, gains)):
        if i:
            g[slots[i]] = gain
        gain = 0.0
        if live:
            js_row, h_row = next(terms)
            gain = _gain(float(p @ g), h_row, js_row, cw)
        store.gain[row], store.boxed[row] = gain, type(gain) is np.float64


def refresh_all(tree: SemanticOctree, cw: CompressionWeights) -> None:
    """Recompute every interior cache bottom-up (deepest level first).

    The batch counterpart of ``refresh_upward``: used after bulk loads and
    as the reference when validating incremental maintenance. It runs on
    the tree's ``Levels``: a level's nodes depend only on the level below,
    so each level's nodes with stored children are refreshed in index order
    in stacked batches of at most ``CHUNK_ROWS``, and a childless interior
    node becomes massless, with no cached conditional.
    """
    tree.levels()  # merges the overlay
    store = tree.columns()
    inner = store.kind == INTERIOR
    parents = inner & store.has_children
    bare = inner & ~parents
    store.weight[bare] = store.gain[bare] = 0.0
    store.cached[bare] = store.boxed[bare] = False
    for a, b in reversed(list(zip(store.bounds, store.bounds[1:]))):
        rows = a + np.flatnonzero(parents[a:b])
        for start in range(0, len(rows), CHUNK_ROWS):
            _refresh_rows(store, rows[start:start + CHUNK_ROWS], cw)


def _refresh_rows(store: Levels, rows: np.ndarray, cw: CompressionWeights) -> None:
    """Refresh nodes with stored children whose children's caches are all
    current. Each gain is ``_gain``'s, column by column: the same IEEE
    operations in the same order, and the same type."""
    weights, dists, gains, totals = store.child_sets(rows)
    live = totals > 0.0
    pi = weights[live] / totals[live, None]
    dists = dists[live]
    js, h = split_terms(pi, dists[:, :, cw.class_ids])
    value = np.vecdot(pi, gains[live]) - cw.compress * h
    for j, w in enumerate(cw.signed):
        value = value + w * js[:, j]
    store.weight[rows] = totals
    store.cond[rows] = uniform_row(store.num_classes)
    store.cond[rows[live]] = np.matmul(pi[:, None, :], dists)[:, 0]
    store.cached[rows] = True
    store.gain[rows], store.boxed[rows] = 0.0, False
    store.gain[rows[live]] = np.where(value < 0.0, 0.0, value)
    store.boxed[rows[live]] = bool(cw.signed) & ~(value < 0.0)


# -- compressed-tree extraction ------------------------------------------------


def compressed_from_expanded(tree: SemanticOctree,
                             expanded: frozenset[NodeKey]) -> CompressedTree:
    """Materialize the subtree that expands exactly the given stored nodes.

    The set must be parent-closed toward the root; every expanded node
    contributes its full (virtually completed) child set.
    """
    store = tree.levels()
    return _extract(store, _expanded_rows(store, expanded))


def _extract(store: Levels, rows: np.ndarray) -> CompressedTree:
    """The compressed tree that expands the sorted, parent-closed ``rows``.
    One ``child_sets`` gather of them gives the blocks: its child slots, in
    row order, are in key order too, and a slot that is not expanded is a
    block with its row's weight (a stored child's own) and conditional."""
    world, branching = store.world, store.world.branching
    root_weight = float(store.weight[0])
    if not len(rows):
        # A root without stored children is an empty map: unobserved space.
        empty = store.kind[0] == INTERIOR and not store.has_children[0]
        blocks = LeafArrays(*key_arrays([ROOT_KEY]), np.array([root_weight]),
                            store.conditionals(np.zeros(1, np.int64)), np.array([empty]))
    else:
        weights, dists, _, _ = store.child_sets(rows)
        slots = store.slots[rows].ravel()
        split = np.zeros(len(store.index) + 1, bool)
        split[rows] = True  # slot -1 (absent) reads the last entry, False
        leaf = ~split[slots]
        depth = np.repeat(store.depth[rows] + 1, branching)
        index = ((store.index[rows] << world.dims)[:, None] | np.arange(branching)).ravel()
        blocks = LeafArrays(depth[leaf], index[leaf], weights.ravel()[leaf],
                            dists.reshape(len(slots), -1)[leaf], slots[leaf] < 0)
    blocks.marginals.flags.writeable = False
    return CompressedTree(blocks, set(node_keys(store.depth[rows], store.index[rows])),
                          root_weight, world, store.num_classes)


def _expanded_rows(store: Levels, expanded) -> np.ndarray:
    """The sorted rows of the keys in ``expanded``; a key that is not a
    stored interior node, or not the root nor a child of another key, is a
    ``TreeError``."""
    depth, index = key_arrays(list(expanded))
    order = np.lexsort((index, depth))
    depth, index = depth[order], index[order]
    rows = store.lookup(depth, index)
    bad = (rows < 0) | (store.kind[rows] != INTERIOR)  # interior rows have slots
    bad |= (depth > 0) & ~np.isin(rows, store.slots[np.where(bad, 0, rows)])
    if bad.any():
        key = NodeKey(int(depth[bad][0]), int(index[bad][0]))
        raise TreeError(f"cannot expand {key}: not a stored interior node below an "
                        "expanded parent")
    return rows


def compress_tree(tree: SemanticOctree, cw: CompressionWeights) -> CompressedTree:
    """Extract the optimal compressed tree from cached gains, top-down.

    A node's children are kept exactly when its cached relative gain is
    positive (strictly above 1e-12); zero-gain ties resolve to pruning, so
    among objective-equal trees the smallest is returned. Caches must be
    valid (maintained by ``refresh_upward`` or rebuilt by ``refresh_all``).
    An empty tree yields the root-only result. Runs level by level on the
    tree's ``Levels``: a level's candidates are the root or the stored
    children of the level above's expanded rows, and those that are
    interior, have a positive gain and stored children are expanded.
    """
    _require_no_summaries(tree)
    store = tree.levels()
    expanded, candidates = [], np.zeros(1, np.int64)  # the root's row
    while len(candidates):
        rows = candidates[(store.kind[candidates] == INTERIOR)
                          & (store.gain[candidates] > G_EPS) & store.has_children[candidates]]
        expanded.append(rows)
        slots = store.slots[rows].ravel()
        candidates = slots[slots >= 0]
    return _extract(store, np.concatenate(expanded))


def full_tree(tree: SemanticOctree) -> CompressedTree:
    """The uncompressed representation: every stored interior node expanded."""
    _require_no_summaries(tree)
    store = tree.levels()
    return _extract(store, np.flatnonzero(store.has_children))


# -- information functionals ---------------------------------------------------


def _subtree_rows(tree: SemanticOctree, ctree: CompressedTree):
    """The tree's ``Levels`` and the rows of ``ctree``'s expanded nodes
    (``_expanded_rows``, which checks them)."""
    if ctree.world != tree.world or ctree.num_classes != tree.num_classes:
        raise TreeError("compressed tree belongs to a different world")
    store = tree.levels()
    return store, _expanded_rows(store, ctree.expanded)


def information_report(tree: SemanticOctree, ctree: CompressedTree,
                       cw: CompressionWeights) -> InfoReport:
    """Information functionals of a compressed tree as increment sums.

    Masses are normalized by the root mass, so ``partition_bits`` equals the
    entropy of the compressed leaf-weight partition and each per-class entry
    equals the mutual information between that class and the leaf index.
    """
    _require_no_summaries(tree)
    store, rows = _subtree_rows(tree, ctree)
    ((partition, bits),) = _bits(store, rows, [rows])
    return InfoReport({c: bits[c] for c in cw.retain}, {c: bits[c] for c in cw.remove},
                      partition, _objective(cw, partition, bits))


def per_class_information(tree: SemanticOctree,
                          ctree: CompressedTree) -> dict[int, float]:
    """Retained information per class id (all ids 0..K, roles ignored)."""
    _require_no_summaries(tree)
    store, rows = _subtree_rows(tree, ctree)
    ((_, bits),) = _bits(store, rows, [rows])
    return bits


def report(tree: SemanticOctree, ctree: CompressedTree, cw: CompressionWeights):
    """``(objective, partition_bits, leaves_full, full_bits, kept_bits)``:
    what ``information_report`` and ``per_class_information`` give for
    ``ctree``, and ``full_tree(tree).num_leaves`` and ``per_class_information``
    for ``full_tree(tree)``, bit for bit. One ``split_terms`` evaluation over
    the full tree's expanded nodes (every stored node with stored children,
    read level by level) serves both trees.
    """
    _require_no_summaries(tree)
    store, kept = _subtree_rows(tree, ctree)
    full = np.flatnonzero(store.has_children)
    (_, full_bits), (partition_bits, kept_bits) = _bits(store, full, [full, kept])
    # The full tree's observed leaves are the stored nodes it does not
    # expand; an empty map (the root alone) has none.
    leaves_full = len(store.index) - len(full) if len(full) else 0
    return (_objective(cw, partition_bits, kept_bits), partition_bits, leaves_full,
            full_bits, kept_bits)


def _objective(cw: CompressionWeights, partition: float, bits: dict[int, float]) -> float:
    """The weighted class bits retained, less those removed and less
    ``compress`` times the partition bits, each sum taken left to right."""
    return (left_sum(w * bits[c] for c, w in cw.retain.items())
            - left_sum(w * bits[c] for c, w in cw.remove.items())
            - cw.compress * partition)


def _bits(store: Levels, rows: np.ndarray, subsets: Iterable) -> Iterator[tuple]:
    """``(partition_bits, per-class bits)`` of each subset of the sorted
    expanded ``rows``, lazily: one ``split_terms`` evaluation of the rows,
    then each subset's root-normalized terms summed row by row in key
    order. A row's terms do not depend on the rows beside it, so a subset
    reads the bits it would read evaluated alone."""
    p_root = float(store.weight[0])
    rows = rows[store.weight[rows] > 0.0] if p_root > 0.0 else rows[:0]
    terms = np.zeros((len(rows) + 1, store.num_classes + 2))  # a leading zeros row
    if len(rows):
        weights, dists, _, totals = store.child_sets(rows)
        js, h = split_terms(weights / totals[:, None], dists)
        mass = store.weight[rows] / p_root
        terms[1:, 0], terms[1:, 1:] = mass * h, mass[:, None] * js
    for subset in subsets:
        member = np.zeros(len(store.index), bool)
        member[np.asarray(subset, np.int64)] = True
        keep = np.r_[True, member[rows]]
        sums = np.add.accumulate(terms[keep])[-1].tolist()
        yield sums[0], dict(enumerate(sums[1:]))


# -- exhaustive verification -----------------------------------------------------


def _children(store: Levels, row: int) -> list[int]:
    return [child for child in store.slots[row].tolist() if child >= 0]


def count_candidate_trees(tree: SemanticOctree) -> int:
    """Number of root-containing subtrees reachable by expansion decisions.

    Counting stops early once the enumeration limit is exceeded; the result
    is then only a lower bound above the limit.
    """
    return _count_candidates(tree.levels(), 0)


def _count_candidates(store: Levels, row: int) -> int:
    if not _expandable(store, row):
        return 1
    product = 1
    for child in _children(store, row):
        product *= _count_candidates(store, child)
        if product > MAX_CANDIDATES:
            return product + 1
    return 1 + product


def _candidate_sets(store: Levels, row: int) -> Iterator[tuple[int, ...]]:
    """The expanded rows of ``row``'s subtree, the empty set first, lazily:
    ``itertools.product`` holds its children's sets, never ``row``'s own."""
    yield ()
    if not _expandable(store, row):
        return
    for combo in itertools.product(*(_candidate_sets(store, c) for c in _children(store, row))):
        yield (row, *itertools.chain.from_iterable(combo))


def exhaustive_search(tree: SemanticOctree,
                      cw: CompressionWeights) -> ExhaustiveResult:
    """Enumerate every candidate tree and score it as ``information_report``
    does, bit for bit.

    Returns the best objective, the number of candidates within 1e-9 of it,
    and the candidate count. Instances above one million candidates are
    rejected up front.
    """
    _require_no_summaries(tree)
    count = count_candidate_trees(tree)
    if count > MAX_CANDIDATES:
        raise SizeLimitError(
            f"{count} candidate trees exceed the {MAX_CANDIDATES} limit")
    store = tree.levels()
    objectives = [_objective(cw, *bits) for bits in _bits(
        store, np.flatnonzero(store.has_children), _candidate_sets(store, 0))]
    best = max(objectives)
    optimal = sum(1 for v in objectives if v >= best - 1e-9)
    return ExhaustiveResult(best, optimal, len(objectives))


# -- joint build loop -------------------------------------------------------------


def build_and_compress(tree: SemanticOctree,
                       observations: Iterable[tuple],
                       cw: CompressionWeights) -> CompressedTree:
    """Stream observations through insert + path refresh, then extract.

    Each observation is a (point, class_id, confidence) triple. Caches stay
    valid after every step, so the extraction at the end (or at any point in
    between) sees exactly the incremental state.
    """
    for point, obs_class, confidence in observations:
        leaf = tree.add_observation(point, obs_class, confidence)
        refresh_upward(tree, leaf, cw)
    return compress_tree(tree, cw)
