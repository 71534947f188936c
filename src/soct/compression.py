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

Trees containing summary nodes must be expanded (``expand_summaries``)
before the tree-level operations here; per-node gain queries and cache
refreshes treat summaries as zero-gain leaf-likes, which is exact because a
homogeneous subtree adds no information at any level.

Concurrency: cache refreshes require exclusive tree access; search, reports
and the exhaustive enumeration are read-only and may run concurrently.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from typing import Iterable, Mapping, NamedTuple

import numpy as np

from .errors import ConfigError, SizeLimitError, SummaryError, TreeError
from .infotheory import InfoIncrement, _entropy_of_weights, split_increments
from .octree import (
    INTERIOR,
    LEAF,
    ROOT_KEY,
    NodeKey,
    SemanticOctree,
    child_keys,
    parent_key,
)
from .semantics import uniform_full

G_EPS = 1e-12
MAX_CANDIDATES = 1_000_000


@dataclass(frozen=True)
class CompressionWeights:
    """Per-class trade-off weights for compression.

    ``retain`` maps relevant class ids to their retention weight, ``remove``
    maps irrelevant class ids to their removal weight, and ``compress``
    prices the size of the compressed representation. The two class sets
    must be disjoint and all weights non-negative.
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
        values = list(self.retain.values()) + list(self.remove.values())
        if any(v < 0 for v in values) or self.compress < 0:
            raise ConfigError("weights must be non-negative")
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


@dataclass
class CompressedTree:
    """Root-containing subtree in which every expanded node keeps all children."""

    kept: set[NodeKey]
    leaves: dict[NodeKey, CompressedLeaf]
    expanded: set[NodeKey]
    root_weight: float
    world: "object"
    num_classes: int

    @property
    def num_leaves(self) -> int:
        """Leaves backed by observed nodes (virtual blocks excluded)."""
        return sum(1 for lf in self.leaves.values() if not lf.virtual)

    def leaf_items(self):
        for key in sorted(self.leaves):
            yield key, self.leaves[key]


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


# -- shared numerics ---------------------------------------------------------


def _bernoulli_js_columns(marginals: np.ndarray, pi: np.ndarray) -> np.ndarray:
    """Per-column JS divergence of Bernoulli marginals, shape (children, C).

    Inactive children (zero weight) and constant columns are masked out
    only when present; the arithmetic on the remaining entries is the same
    either way.
    """
    act = pi > 0
    if act.all():
        m, pa = marginals, pi
    else:
        m, pa = marginals[act], pi[act]
    # Column-major, the layout a column selection returns: the products
    # with ``pa`` then sum in one order whether or not columns are masked.
    m = np.minimum(np.maximum(m, 0.0, order="F"), 1.0)
    varying = (m != m[0]).any(axis=0)
    every = varying.all()
    if not every:
        if not varying.any():
            return np.zeros(marginals.shape[1])
        m = m[:, varying]
    pbar = pa @ m
    with np.errstate(divide="ignore", invalid="ignore"):
        t1 = np.where(m > 0, m * np.log2(m / pbar), 0.0)
        t0 = np.where(m < 1, (1 - m) * np.log2((1 - m) / (1 - pbar)), 0.0)
    js = pa @ (t1 + t0)
    if every:
        return js
    out = np.zeros(marginals.shape[1])
    out[varying] = js
    return out


def _require_no_summaries(tree: SemanticOctree) -> None:
    if tree.has_summaries():
        raise SummaryError("tree contains summary nodes; call expand_summaries() first")


# -- gain values --------------------------------------------------------------


def _bracket(pi: np.ndarray, dists: np.ndarray,
             child_gains: np.ndarray, cw: CompressionWeights) -> float:
    """Unclamped relative gain from normalized child weights ``pi``."""
    value = float(pi @ child_gains) - cw.compress * _entropy_of_weights(pi)
    if cw.class_ids:
        js = _bernoulli_js_columns(dists[:, cw.class_ids], pi)
        for w, v in zip(cw.signed, js):
            value += w * v
    return value


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
    weights, dists, _ = tree.completed_child_arrays(key, allow_empty=True)
    if weights is None or float(weights.sum()) <= 0.0:
        return 0.0
    gains = np.zeros(len(weights))
    dims = tree.world.dims
    for o, ck in enumerate(child_keys(key, dims)):
        child = tree.nodes.get(ck)
        if child is not None and child.kind == INTERIOR:
            gains[o] = expansion_gain(tree, ck, cw)
    pi = weights / float(weights.sum())
    return max(_bracket(pi, dists, gains, cw), 0.0)


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
    weights, dists, _ = tree.completed_child_arrays(key, allow_empty=True)
    if weights is None or float(weights.sum()) <= 0.0:
        return 0.0
    inc = _increments(node.weight, weights, dists, cw)
    total = inc.reward
    for ck in tree.stored_children(key):
        if tree.nodes[ck].kind == INTERIOR:
            total += weighted_gain(tree, ck, cw)
    return max(total, 0.0)


def _increments(mass: float, weights: np.ndarray, dists: np.ndarray,
                cw: CompressionWeights) -> InfoIncrement:
    marginals = {cid: dists[:, cid] for cid in set(cw.retain) | set(cw.remove)}
    return split_increments(mass, weights, marginals, cw)


# -- cache maintenance ---------------------------------------------------------


def _refresh_node(tree: SemanticOctree, key: NodeKey, cw: CompressionWeights) -> None:
    node = tree.nodes[key]
    weights, dists, gains = tree.completed_child_arrays(key, allow_empty=True)
    if weights is None:
        node.weight = 0.0
        node.cond = None
        node.gain = 0.0
        return
    node.weight = float(weights.sum())
    if node.weight <= 0.0:
        node.cond = uniform_full(tree.num_classes).probs
        node.gain = 0.0
        return
    pi = weights / node.weight
    node.cond = pi @ dists
    node.gain = max(_bracket(pi, dists, gains, cw), 0.0)


def refresh_upward(tree: SemanticOctree, leaf: NodeKey,
                   cw: CompressionWeights) -> None:
    """Refresh weights, conditionals and gains on the leaf-to-root path.

    The incremental half of the build loop: after inserting or updating one
    finest-resolution leaf, exactly the nodes on its root path have stale
    caches, and they are recomputed bottom-up from immediate child data.
    Nothing off the path is touched.
    """
    node = tree.nodes.get(leaf)
    if node is None or node.kind != LEAF or leaf.depth != tree.world.max_depth:
        raise TreeError(f"{leaf} is not a stored finest-resolution leaf")
    node.gain = 0.0
    dims = tree.world.dims
    key = leaf
    while key.depth > 0:
        key = parent_key(key, dims)
        _refresh_node(tree, key, cw)


def refresh_all(tree: SemanticOctree, cw: CompressionWeights) -> None:
    """Recompute every interior cache bottom-up (deepest nodes first).

    The batch counterpart of ``refresh_upward``: used after bulk loads and
    as the reference when validating incremental maintenance.
    """
    for key in tree.interior_keys_deepest_first():
        _refresh_node(tree, key, cw)


# -- compressed-tree extraction ------------------------------------------------


def compressed_from_expanded(tree: SemanticOctree,
                             expanded: frozenset[NodeKey]) -> CompressedTree:
    """Materialize the subtree that expands exactly the given stored nodes.

    The set must be parent-closed toward the root; every expanded node
    contributes its full (virtually completed) child set.
    """
    dims = tree.world.dims
    for key in expanded:
        node = tree.nodes.get(key)
        if node is None or node.kind != INTERIOR:
            raise TreeError(f"cannot expand {key}: not a stored interior node")
        if key != ROOT_KEY and parent_key(key, dims) not in expanded:
            raise TreeError(f"expanded node {key} has an unexpanded parent")
    kept = {ROOT_KEY}
    leaves: dict[NodeKey, CompressedLeaf] = {}
    root_weight = tree.root.weight
    if ROOT_KEY not in expanded:
        leaves[ROOT_KEY] = CompressedLeaf(
            ROOT_KEY, root_weight, np.array(tree.conditional(ROOT_KEY)), False)
    else:
        for key in expanded:
            kept.add(key)
            weights, dists, _ = tree.completed_child_arrays(key)
            for o, ck in enumerate(child_keys(key, dims)):
                kept.add(ck)
                if ck in expanded:
                    continue
                child = tree.nodes.get(ck)
                if child is None:
                    leaves[ck] = CompressedLeaf(
                        ck, float(weights[o]), dists[o].copy(), True)
                else:
                    leaves[ck] = CompressedLeaf(
                        ck, child.weight, np.array(tree.conditional(ck)), False)
    return CompressedTree(kept, leaves, set(expanded), root_weight,
                          tree.world, tree.num_classes)


def compress_tree(tree: SemanticOctree, cw: CompressionWeights) -> CompressedTree:
    """Extract the optimal compressed tree from cached gains, top-down.

    A node's children are kept exactly when its cached relative gain is
    positive (strictly above 1e-12); zero-gain ties resolve to pruning, so
    among objective-equal trees the smallest is returned. Caches must be
    valid (maintained by ``refresh_upward`` or rebuilt by ``refresh_all``).
    An empty tree yields the root-only result.
    """
    _require_no_summaries(tree)
    expanded: set[NodeKey] = set()
    stack = []
    root = tree.root
    if root.kind == INTERIOR and root.gain > G_EPS and tree.stored_children(ROOT_KEY):
        stack.append(ROOT_KEY)
    while stack:
        key = stack.pop()
        expanded.add(key)
        for ck in tree.stored_children(key):
            child = tree.nodes[ck]
            if child.kind == INTERIOR and child.gain > G_EPS and tree.stored_children(ck):
                stack.append(ck)
    return compressed_from_expanded(tree, frozenset(expanded))


def full_tree(tree: SemanticOctree) -> CompressedTree:
    """The uncompressed representation: every stored interior node expanded."""
    _require_no_summaries(tree)
    expanded = frozenset(k for k, n in tree.nodes.items()
                         if n.kind == INTERIOR and tree.stored_children(k))
    return compressed_from_expanded(tree, expanded)


# -- information functionals ---------------------------------------------------


def _validate_subtree(tree: SemanticOctree, ctree: CompressedTree) -> None:
    if ctree.world != tree.world or ctree.num_classes != tree.num_classes:
        raise TreeError("compressed tree belongs to a different world")
    if ROOT_KEY not in ctree.kept:
        raise TreeError("compressed tree does not contain the root")
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
            weights, dists, _ = tree.completed_child_arrays(key)
            inc = _increments(node.weight / p_root, weights, dists, cw)
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
    bits = np.zeros(tree.num_classes + 1)
    p_root = tree.root.weight
    if p_root > 0.0:
        for key in sorted(ctree.expanded):
            node = tree.nodes[key]
            if node.weight <= 0.0:
                continue
            weights, dists, _ = tree.completed_child_arrays(key)
            pi = weights / float(weights.sum())
            bits += (node.weight / p_root) * _bernoulli_js_columns(dists, pi)
    return {cid: float(bits[cid]) for cid in range(tree.num_classes + 1)}


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


def _candidate_sets(tree: SemanticOctree, key: NodeKey) -> list[frozenset[NodeKey]]:
    if not _expandable(tree, key):
        return [frozenset()]
    child_lists = [_candidate_sets(tree, ck) for ck in tree.stored_children(key)]
    out = [frozenset()]
    for combo in itertools.product(*child_lists):
        merged = {key}
        for part in combo:
            merged |= part
        out.append(frozenset(merged))
    return out


def _iter_candidates(tree: SemanticOctree):
    yield frozenset()
    if not _expandable(tree, ROOT_KEY):
        return
    child_lists = [_candidate_sets(tree, ck)
                   for ck in tree.stored_children(ROOT_KEY)]
    for combo in itertools.product(*child_lists):
        merged = {ROOT_KEY}
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
    for expanded in _iter_candidates(tree):
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
