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

Child sets come stacked from ``SemanticOctree.child_sets``, which alone
completes absent children and reports each row's total weight, the
``completed_weight`` that every weight normalization here divides by.
Every JS divergence and split entropy here comes from one kernel,
``split_terms``, which takes child sets stacked into (N, B) weights and
(N, B, C) marginals and gives each row the same bits it gets alone.
``refresh_upward`` gathers a leaf's whole root path in one call, chains
the conditionals up through each row's path slot, then evaluates all the
path's child sets in one call and chains the gains; ``refresh_all``
gathers and evaluates a tree level (deepest first) in stacked batches;
``expansion_gain`` passes one row, ``per_class_information`` all expanded
nodes at once, and ``report`` all those of the full tree, for the full and
a compressed tree together. ``weighted_gain`` and ``information_report``
stay on the separate ``infotheory.split_increments`` route, so they check
the kernel rather than repeat it.

The extraction gathers all expanded nodes in one call and keeps the
compressed tree's blocks as columns (``LeafArrays``: depth, index, weight,
marginals and a virtual mask, in key order), which the leaves CSV, the
block index and the tree graph read. The per-block ``CompressedLeaf``
objects and the ``kept`` key set are built only when read.

Trees containing summary nodes must be expanded (``expand_summaries``)
before the tree-level operations here; per-node gain queries and cache
refreshes treat summaries as zero-gain leaf-likes, which is exact because a
homogeneous subtree adds no information at any level.

Concurrency: cache refreshes require exclusive tree access; search, reports
and the exhaustive enumeration are read-only and may run concurrently.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field
from typing import Iterable, Iterator, Mapping, NamedTuple

import numpy as np

from .errors import ConfigError, SizeLimitError, SummaryError, TreeError
from .infotheory import InfoIncrement, split_increments
from .octree import (
    INTERIOR,
    LEAF,
    ROOT_KEY,
    NodeKey,
    SemanticOctree,
    child_keys,
    key_arrays,
    node_keys,
    parent_key,
    uniform_row,
)

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
    # Derived: the weighted class ids in ascending order, and per id its
    # weight, negated for removed classes.
    class_ids: list[int] = field(init=False, repr=False, compare=False)
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
        object.__setattr__(self, "class_ids", class_ids)
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
    _leaves: dict | None = field(default=None, init=False, repr=False)
    _kept: set | None = field(default=None, init=False, repr=False)

    @property
    def leaves(self) -> dict[NodeKey, CompressedLeaf]:
        """The blocks by key, in key order."""
        if self._leaves is None:
            b = self.leaf_arrays
            self._leaves = {key: CompressedLeaf(key, w, m, v) for key, w, m, v in zip(
                node_keys(b.depth, b.index), b.weight.tolist(), b.marginals,
                b.virtual.tolist())}
        return self._leaves

    @property
    def kept(self) -> set[NodeKey]:
        """The root, the expanded nodes and the blocks."""
        if self._kept is None:
            b = self.leaf_arrays
            self._kept = {ROOT_KEY, *self.expanded, *node_keys(b.depth, b.index)}
        return self._kept

    @property
    def num_leaves(self) -> int:
        """Leaves backed by observed nodes (virtual blocks excluded)."""
        virtual = self.leaf_arrays.virtual
        return len(virtual) - int(np.count_nonzero(virtual))

    def leaf_items(self):
        """``(key, CompressedLeaf)`` per block, in key order."""
        return iter(self.leaves.items())


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
    act = pi > 0
    if len(pi) <= CHUNK_ROWS and act.all():
        return _active_split_terms(pi, marginals)
    full = act.all(axis=1)
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
    h = -(pi * np.log2(pi)).sum(axis=1)
    varying = (m != m[:, :, :1]).any(axis=2)
    if varying.all():
        return _js_columns(pi, m), h
    # The products also depend on how many columns they span, so rows are
    # grouped by their number of varying columns, which are gathered to
    # the front; constant columns stay 0.0.
    js = np.zeros(varying.shape)
    counts = varying.sum(axis=1)
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
    q = 1 - m
    with np.errstate(divide="ignore", invalid="ignore"):
        t1 = np.where(m > 0, m * np.log2(m / pbar), 0.0)
        t0 = np.where(q > 0, q * np.log2(q / (1 - pbar)), 0.0)
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
    if js:
        value = np.float64(value)
    return max(value, 0.0)


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
    node = tree.nodes.get(key)
    if node is None:
        raise TreeError(f"unknown key {key}")
    if node.kind != INTERIOR or node.weight <= 0.0:
        return 0.0
    if not tree.stored_children(key):
        return 0.0
    weights, dists, _, totals = tree.child_sets([key])
    weights, dists, total = weights[0], dists[0], float(totals[0])
    if total <= 0.0:
        return 0.0
    gains = np.zeros(len(weights))
    dims = tree.world.dims
    for o, ck in enumerate(child_keys(key, dims)):
        child = tree.nodes.get(ck)
        if child is not None and child.kind == INTERIOR:
            gains[o] = expansion_gain(tree, ck, cw)
    pi = weights / total
    js, h = split_terms(pi[None], dists[None][:, :, cw.class_ids])
    return _gain(float(pi @ gains), h.tolist()[0], js.tolist()[0], cw)


def weighted_gain(tree: SemanticOctree, key: NodeKey,
                  cw: CompressionWeights) -> float:
    """Absolute gain of expanding a node, built from unnormalized masses.

    Equals ``node mass * expansion_gain`` for every node; the identity is
    exercised directly by the test suite.
    """
    node = tree.nodes.get(key)
    if node is None:
        raise TreeError(f"unknown key {key}")
    if node.kind != INTERIOR or node.weight <= 0.0:
        return 0.0
    stored = tree.stored_children(key)
    if not stored:
        return 0.0
    weights, dists, _, totals = tree.child_sets([key])
    if totals[0] <= 0.0:
        return 0.0
    inc = _increments(node.weight, weights[0], dists[0], cw)
    total = inc.reward
    for ck in stored:
        if tree.nodes[ck].kind == INTERIOR:
            total += weighted_gain(tree, ck, cw)
    return max(total, 0.0)


def _increments(mass: float, weights: np.ndarray, dists: np.ndarray,
                cw: CompressionWeights) -> InfoIncrement:
    marginals = {cid: dists[:, cid] for cid in set(cw.retain) | set(cw.remove)}
    return split_increments(mass, weights, marginals, cw)


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
    holds the total of the row below it. The whole path is gathered in one
    ``child_sets`` call; walking up, each row's path slot takes the
    conditional and gain just computed for the node below. The JS and
    entropy terms of all rows come from one ``split_terms`` call.
    """
    node = tree.nodes.get(leaf)
    if node is None or node.kind != LEAF or leaf.depth != tree.world.max_depth:
        raise TreeError(f"{leaf} is not a stored finest-resolution leaf")
    node.gain = 0.0
    dims, branching = tree.world.dims, tree.world.branching
    uniform = uniform_row(tree.num_classes)
    # Row i is the ancestor i + 1 levels up; its path slot holds the node
    # below it. Every path conditional is rewritten below, so a placeholder
    # keeps the gather from deriving stale ones.
    path, slots, nodes = [], [], []
    index = leaf.index
    for depth in reversed(range(leaf.depth)):
        slots.append(index & (branching - 1))
        index >>= dims
        path.append((depth, index))
        node = tree.nodes[depth, index]
        node.cond = uniform
        nodes.append(node)
    weights, conds, gains, totals = tree.child_sets(path)
    with np.errstate(divide="ignore", invalid="ignore"):
        pi = weights / totals[:, None]
    totals = totals.tolist()
    live = [i for i, total in enumerate(totals) if total > 0.0]
    for i, node in enumerate(nodes):
        if i:
            conds[i, slots[i]] = nodes[i - 1].cond
        node.cond = pi[i] @ conds[i] if totals[i] > 0.0 else uniform
    if len(live) < len(path):
        pi, conds = pi[live], conds[live]
    if live:
        js, h = split_terms(pi, conds.take(cw.class_ids, axis=2))
        js, h = js.tolist(), h.tolist()
    # Gains chain up last; the slot of the node below takes its new gain.
    row = 0
    for i, node in enumerate(nodes):
        if i:
            gains[i, slots[i]] = nodes[i - 1].gain
        if totals[i] <= 0.0:
            node.gain = 0.0
            continue
        node.gain = _gain(float(pi[row] @ gains[i]), h[row], js[row], cw)
        row += 1


def refresh_all(tree: SemanticOctree, cw: CompressionWeights) -> None:
    """Recompute every interior cache bottom-up (deepest level first).

    The batch counterpart of ``refresh_upward``: used after bulk loads and
    as the reference when validating incremental maintenance. A level's
    nodes depend only on the level below, so each level is refreshed in
    stacked batches of at most ``CHUNK_ROWS`` nodes.
    """
    parents = tree.keys_with_children()
    keys = []
    for key in tree.interior_keys_deepest_first():
        if key in parents:
            keys.append(key)
        else:  # childless: massless, no cached conditional
            node = tree.nodes[key]
            node.weight, node.cond, node.gain = 0.0, None, 0.0
    for _, level in itertools.groupby(keys, key=lambda k: k.depth):
        level = list(level)
        for start in range(0, len(level), CHUNK_ROWS):
            _refresh_batch(tree, level[start:start + CHUNK_ROWS], cw)


def _refresh_batch(tree: SemanticOctree, keys: list[NodeKey],
                   cw: CompressionWeights) -> None:
    """Refresh interior nodes with stored children whose children's caches
    are all current."""
    weights, dists, gains, totals = tree.child_sets(keys)
    live = np.flatnonzero(totals > 0.0)
    pi = weights[live] / totals[live, None]
    dists = dists[live]
    conds = np.matmul(pi[:, None, :], dists)[:, 0]
    child_terms = np.vecdot(pi, gains[live]).tolist()
    js, h = split_terms(pi, dists[:, :, cw.class_ids])
    js, h = js.tolist(), h.tolist()
    row = 0
    for key, total in zip(keys, totals.tolist()):
        node = tree.nodes[key]
        node.weight = total
        if total <= 0.0:
            node.cond = uniform_row(tree.num_classes)
            node.gain = 0.0
        else:
            node.cond = conds[row]
            node.gain = _gain(child_terms[row], h[row], js[row], cw)
            row += 1


# -- compressed-tree extraction ------------------------------------------------


def compressed_from_expanded(tree: SemanticOctree,
                             expanded: frozenset[NodeKey]) -> CompressedTree:
    """Materialize the subtree that expands exactly the given stored nodes.

    The set must be parent-closed toward the root; every expanded node
    contributes its full (virtually completed) child set. One ``child_sets``
    gather of the expanded nodes in key order gives the blocks: its child
    slots, in that order, are in key order too, and a slot that is not
    expanded is a block with its row's weight (a stored child's own) and
    conditional.
    """
    get, dims, branching = tree.nodes.get, tree.world.dims, tree.world.branching
    for key in expanded:
        node = get(key)
        if node is None or node.kind != INTERIOR:
            raise TreeError(f"cannot expand {key}: not a stored interior node")
        if key != ROOT_KEY and (key.depth - 1, key.index >> dims) not in expanded:
            raise TreeError(f"expanded node {key} has an unexpanded parent")
    root_weight = tree.root.weight
    if ROOT_KEY not in expanded:
        # A root without stored children is an empty map: unobserved space.
        empty = tree.root.kind == INTERIOR and not tree.stored_children(ROOT_KEY)
        blocks = LeafArrays(*key_arrays([ROOT_KEY]), np.array([root_weight]),
                            np.array([tree.conditional(ROOT_KEY)]), np.array([empty]))
    else:
        keys = sorted(expanded)
        weights, dists, _, _ = tree.child_sets(keys)
        depth, index = key_arrays(keys)
        depth = np.repeat(depth + 1, branching)
        index = ((index << dims)[:, None] | np.arange(branching)).ravel()
        slots = list(zip(depth.tolist(), index.tolist()))
        leaf = ~np.fromiter(map(expanded.__contains__, slots), bool, len(slots))
        stored = np.fromiter(map(tree.nodes.__contains__, slots), bool, len(slots))
        blocks = LeafArrays(depth[leaf], index[leaf], weights.ravel()[leaf],
                            dists.reshape(len(slots), -1)[leaf], ~stored[leaf])
    blocks.marginals.flags.writeable = False
    return CompressedTree(blocks, set(expanded), root_weight, tree.world,
                          tree.num_classes)


def compress_tree(tree: SemanticOctree, cw: CompressionWeights) -> CompressedTree:
    """Extract the optimal compressed tree from cached gains, top-down.

    A node's children are kept exactly when its cached relative gain is
    positive (strictly above 1e-12); zero-gain ties resolve to pruning, so
    among objective-equal trees the smallest is returned. Caches must be
    valid (maintained by ``refresh_upward`` or rebuilt by ``refresh_all``).
    An empty tree yields the root-only result.
    """
    _require_no_summaries(tree)
    get, dims, octants = tree.nodes.get, tree.world.dims, range(tree.world.branching)
    expanded: set[NodeKey] = set()
    # Candidates are interior with positive gain; one without stored
    # children is not expanded. Each child slot is looked up once.
    root = tree.root
    stack = [(0, 0)] if root.kind == INTERIOR and root.gain > G_EPS else []
    while stack:
        depth, index = stack.pop()
        base = index << dims
        kids = [(base | o, get((depth + 1, base | o))) for o in octants]
        kids = [(i, c) for i, c in kids if c is not None]
        if kids:
            expanded.add(NodeKey(depth, index))
            stack += [(depth + 1, i) for i, c in kids
                      if c.kind == INTERIOR and c.gain > G_EPS]
    return compressed_from_expanded(tree, frozenset(expanded))


def full_tree(tree: SemanticOctree) -> CompressedTree:
    """The uncompressed representation: every stored interior node expanded."""
    _require_no_summaries(tree)
    expanded = frozenset(map(NodeKey._make, tree.keys_with_children()))
    return compressed_from_expanded(tree, expanded)


# -- information functionals ---------------------------------------------------


def _validate_subtree(tree: SemanticOctree, ctree: CompressedTree) -> None:
    if ctree.world != tree.world or ctree.num_classes != tree.num_classes:
        raise TreeError("compressed tree belongs to a different world")
    dims = tree.world.dims
    for key in ctree.expanded:
        node = tree.nodes.get(key)
        if node is None or node.kind != INTERIOR:
            raise TreeError(f"expanded node {key} is not stored interior")
        if key != ROOT_KEY and parent_key(key, dims) not in ctree.expanded:
            raise TreeError(f"expanded node {key} detached from the root")


def information_report(tree: SemanticOctree, ctree: CompressedTree,
                       cw: CompressionWeights) -> InfoReport:
    """Information functionals of a compressed tree as increment sums.

    Masses are normalized by the root mass, so ``partition_bits`` equals the
    entropy of the compressed leaf-weight partition and each per-class entry
    equals the mutual information between that class and the leaf index.
    """
    _require_no_summaries(tree)
    _validate_subtree(tree, ctree)
    relevant = {cid: 0.0 for cid in cw.retain}
    irrelevant = {cid: 0.0 for cid in cw.remove}
    partition = 0.0
    p_root = tree.root.weight
    if p_root > 0.0:
        for key in sorted(ctree.expanded):
            node = tree.nodes[key]
            if node.weight <= 0.0:
                continue
            weights, dists, _, _ = tree.child_sets([key])
            inc = _increments(node.weight / p_root, weights[0], dists[0], cw)
            for cid, v in inc.relevant_bits.items():
                relevant[cid] += v
            for cid, v in inc.irrelevant_bits.items():
                irrelevant[cid] += v
            partition += inc.split_bits
    objective = (sum(cw.retain[c] * v for c, v in relevant.items())
                 - sum(cw.remove[c] * v for c, v in irrelevant.items())
                 - cw.compress * partition)
    return InfoReport(relevant, irrelevant, partition, objective)


def per_class_information(tree: SemanticOctree,
                          ctree: CompressedTree) -> dict[int, float]:
    """Retained information per class id (all ids 0..K, roles ignored)."""
    _require_no_summaries(tree)
    _validate_subtree(tree, ctree)
    return _bits(tree, sorted(ctree.expanded), ctree.expanded)[0]


def report(tree: SemanticOctree, ctree: CompressedTree, cw: CompressionWeights):
    """``(objective, partition_bits, leaves_full, full_bits, kept_bits)``:
    what ``information_report`` and ``per_class_information`` give for
    ``ctree``, and ``full_tree(tree).num_leaves`` and ``per_class_information``
    for ``full_tree(tree)``. One ``split_terms`` evaluation over the full
    tree's expanded nodes (every stored node with stored children) serves
    both trees. The per-class bits are equal bit for bit; the objective and
    partition bits, summed from other terms, are equal up to rounding.
    """
    _require_no_summaries(tree)
    _validate_subtree(tree, ctree)
    full = sorted(tree.keys_with_children())
    full_bits, partition_bits, kept_bits = _bits(tree, full, ctree.expanded)
    objective = (sum(w * kept_bits[c] for c, w in cw.retain.items())
                 - sum(w * kept_bits[c] for c, w in cw.remove.items())
                 - cw.compress * partition_bits)
    # The full tree's observed leaves are the stored nodes it does not
    # expand; an empty map (the root alone) has none.
    leaves_full = len(tree.nodes) - len(full) if full else 0
    return objective, partition_bits, leaves_full, full_bits, kept_bits


def _bits(tree: SemanticOctree, keys: list[NodeKey], kept: set[NodeKey]):
    """Per-class bits of the sorted expanded nodes ``keys``, and the
    partition and per-class bits of those in ``kept``: one ``split_terms``
    evaluation, each sum then taken row by row in key order."""
    p_root = tree.root.weight
    keys = [k for k in keys if tree.nodes[k].weight > 0.0] if p_root > 0.0 else []
    js, h = np.zeros((len(keys), tree.num_classes + 1)), np.zeros(len(keys))
    if keys:
        weights, dists, _, totals = tree.child_sets(keys)
        pi = weights / totals[:, None]
        js, h = split_terms(pi, dists)
    mass = np.array([tree.nodes[k].weight / p_root for k in keys])
    terms = np.c_[mass * h, mass[:, None] * js]
    all_sums, kept_sums = (
        np.add.accumulate(np.vstack([np.zeros(terms.shape[1]), rows]))[-1].tolist()
        for rows in (terms, terms[[k in kept for k in keys]]))
    return dict(enumerate(all_sums[1:])), kept_sums[0], dict(enumerate(kept_sums[1:]))


# -- exhaustive verification -----------------------------------------------------


def _expandable(tree: SemanticOctree, key: NodeKey) -> bool:
    node = tree.nodes.get(key)
    return (node is not None and node.kind == INTERIOR
            and bool(tree.stored_children(key)))


def count_candidate_trees(tree: SemanticOctree, key: NodeKey = ROOT_KEY) -> int:
    """Number of root-containing subtrees reachable by expansion decisions.

    Counting stops early once the enumeration limit is exceeded; the result
    is then only a lower bound above the limit.
    """
    if not _expandable(tree, key):
        return 1
    product = 1
    for ck in tree.stored_children(key):
        product *= count_candidate_trees(tree, ck)
        if product > MAX_CANDIDATES:
            return product + 1
    return 1 + product


def _candidate_sets(tree: SemanticOctree, key: NodeKey) -> Iterator[frozenset[NodeKey]]:
    """The expanded sets of ``key``'s subtree, the empty one first, lazily:
    ``itertools.product`` holds its children's sets, never ``key``'s own."""
    yield frozenset()
    if not _expandable(tree, key):
        return
    child_lists = [_candidate_sets(tree, ck) for ck in tree.stored_children(key)]
    for combo in itertools.product(*child_lists):
        merged = {key}
        for part in combo:
            merged |= part
        yield frozenset(merged)


def exhaustive_search(tree: SemanticOctree,
                      cw: CompressionWeights) -> ExhaustiveResult:
    """Enumerate every candidate tree and score it through the report.

    Returns the best objective, the number of candidates within 1e-9 of it,
    and the candidate count. Instances above one million candidates are
    rejected up front.
    """
    _require_no_summaries(tree)
    count = count_candidate_trees(tree)
    if count > MAX_CANDIDATES:
        raise SizeLimitError(
            f"{count} candidate trees exceed the {MAX_CANDIDATES} limit")
    objectives = []
    for expanded in _candidate_sets(tree, ROOT_KEY):
        ctree = compressed_from_expanded(tree, expanded)
        objectives.append(information_report(tree, ctree, cw).objective)
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
