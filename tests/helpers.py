"""Shared fixtures and independent reference implementations for the tests.

The reference code here deliberately re-derives quantities from first
principles (plain math.log2 loops, explicit joint tables, exhaustive path
enumeration) so that library results are checked against an independent
route, not against themselves.
"""

import itertools
import math
import struct

import numpy as np
from hypothesis import strategies as st

from soct.compression import CompressionWeights
from soct.errors import ConfigError, CorruptionError, FormatError, GraphError, TreeError
from soct.formats import FORMAT_VERSION, MAGIC
from soct.octree import (
    INTERIOR,
    LEAF,
    ROOT_KEY,
    SUMMARY,
    Levels,
    Node,
    NodeKey,
    SemanticOctree,
    WorldConfig,
    child_key,
    child_keys,
    completed_weight,
    key_arrays,
    uniform_row,
)
from soct.planning import UNKNOWN_CLASS, PlanResult, _norms
from soct.semantics import (
    FIELD_TOL,
    SUM_TOL,
    TruncatedRows,
    TruncatedSemanticDistribution,
    expand_rows,
    expand_truncated,
    truncate_full,
)


def random_full(rng, num_classes, concentration=0.5):
    return rng.dirichlet(np.full(num_classes + 1, concentration))


def random_truncated(rng, num_classes, concentration=0.5):
    return truncate_full(random_full(rng, num_classes, concentration))


def make_random_tree(rng, branching=4, depth=2, num_classes=4, fill=0.85,
                     weight_range=(0.2, 3.0), concentration=0.5,
                     origin=(0.0, 0.0, 0.0), edge_length=16.0):
    """Random partially observed tree with random leaf weights and records."""
    world = WorldConfig(origin, edge_length, depth, branching)
    tree = SemanticOctree(world, num_classes)
    dims = world.dims
    n = 1 << depth
    cells = [tuple((i >> (d * depth)) & (n - 1) for d in range(dims))
             for i in range(n ** dims)]
    placed = 0
    for cell in cells:
        if rng.random() < fill:
            tree.set_leaf(cell, random_truncated(rng, num_classes, concentration),
                          float(rng.uniform(*weight_range)))
            placed += 1
    if placed == 0:
        tree.set_leaf(cells[0], random_truncated(rng, num_classes, concentration),
                      float(rng.uniform(*weight_range)))
    return tree


def ref_interleave(coords, dims, depth):
    """Morton code of cell coordinates, one bit at a time: the low ``depth``
    bits of each axis, interleaved axis by axis within each level."""
    code = 0
    for bit in range(depth):
        for axis in range(dims):
            code |= ((coords[axis] >> bit) & 1) << (bit * dims + axis)
    return code


def keys_with_children(tree):
    """Keys of the stored nodes with stored children (the parents of every
    stored key but the root), as plain (depth, index) pairs."""
    dims = tree.world.dims
    return {(d - 1, i >> dims) for d, i in tree.nodes if d}


def random_weights(rng, num_classes=4, alpha_range=(0.0, 0.2),
                   retain_range=(0.5, 3.0), remove_range=(0.0, 0.8)):
    ids = list(range(1, num_classes + 1))
    rng.shuffle(ids)
    retain = {ids[0]: float(rng.uniform(*retain_range))}
    remove = {ids[1]: float(rng.uniform(*remove_range))}
    return CompressionWeights(retain, remove, float(rng.uniform(*alpha_range)))


# -- independent information-theory references ---------------------------------


def ref_entropy(probs):
    return sum(-p * math.log2(p) for p in probs if p > 0)


def ref_bernoulli_kl(a, b):
    total = 0.0
    if a > 0:
        total += a * math.log2(a / b)
    if a < 1:
        total += (1 - a) * math.log2((1 - a) / (1 - b))
    return total


def ref_bernoulli_js(marginals, weights):
    total = sum(weights)
    pi = [w / total for w in weights]
    pbar = sum(p * m for p, m in zip(pi, marginals))
    if pbar <= 0 or pbar >= 1:
        return 0.0
    return sum(p * ref_bernoulli_kl(m, pbar)
               for p, m in zip(pi, marginals) if p > 0)


def ref_mutual_information(leaf_weights, leaf_marginals):
    """I(class; leaf) from the explicit joint table p(leaf, class)."""
    total = sum(leaf_weights)
    q = [w / total for w in leaf_weights]
    mbar = sum(qi * mi for qi, mi in zip(q, leaf_marginals))
    value = 0.0
    for qi, mi in zip(q, leaf_marginals):
        if qi == 0:
            continue
        if mi > 0 and mbar > 0:
            value += qi * mi * math.log2(mi / mbar)
        if mi < 1 and mbar < 1:
            value += qi * (1 - mi) * math.log2((1 - mi) / (1 - mbar))
    return value


# -- independent gain reference ---------------------------------------------------


def ref_left_sum(values):
    """``values`` added left to right from 0.0, as the library adds weights and
    record fields; builtin ``sum`` compensates float rounding from Python 3.12 on."""
    total = 0.0
    for v in values:
        total += v
    return total


def _ref_children(tree, key):
    """(weight, dense marginal vector, child key) for the completed child set."""
    dims = tree.world.dims
    stored = [(k, tree.nodes[k]) for k in child_keys(key, dims)
              if k in tree.nodes]
    mean_w = ref_left_sum(n.weight for _, n in stored) / len(stored)
    uniform = [1.0 / (tree.num_classes + 1)] * (tree.num_classes + 1)
    entries = []
    for k in child_keys(key, dims):
        node = tree.nodes.get(k)
        if node is None:
            entries.append((mean_w, uniform, None))
        else:
            entries.append((node.weight, ref_conditional(tree, k), k))
    return entries


def ref_conditional(tree, key):
    node = tree.nodes[key]
    if node.kind != INTERIOR:
        return list(expand_truncated(node.dist, tree.num_classes))
    entries = _ref_children(tree, key)
    total = sum(w for w, _, _ in entries)
    if total == 0:  # a massless node reads as unobserved: maximum entropy
        return [1.0 / (tree.num_classes + 1)] * (tree.num_classes + 1)
    out = [0.0] * (tree.num_classes + 1)
    for w, dist, _ in entries:
        for i, v in enumerate(dist):
            out[i] += (w / total) * v
    return out


def node_child_set(tree, key):
    """One node's full child set as ``Levels.child_sets`` gives it, gathered
    node by node from ``tree.nodes``: weights (B,),
    conditionals (B, K+1), each stored child's cached one or else its
    ``node_conditional``, and the total, ``completed_weight`` of the stored
    weights; an absent child weighs their mean and is uniform."""
    kids = [(k, tree.nodes.get(k)) for k in child_keys(key, tree.world.dims)]
    stored = [node.weight for _, node in kids if node is not None]
    total = ref_left_sum(stored)
    mean = total / len(stored)
    uniform = uniform_row(tree.num_classes)
    weights = np.array([mean if node is None else node.weight for _, node in kids])
    conds = np.array([uniform if node is None else node.cond if node.cond is not None
                      else node_conditional(tree, k) for k, node in kids])
    return weights, conds, total + (len(kids) - len(stored)) * mean


def node_conditional(tree, key):
    """``SemanticOctree.conditional`` as the recursion over ``tree.nodes``
    computed it before the columns did: a node's cached or record vector,
    else ``(weights / total) @ conds`` of its ``node_child_set``, uniform
    without stored children or mass. Its bits are the column code's."""
    node = tree.nodes[key]
    if node.cond is not None:
        return node.cond
    if not any(k in tree.nodes for k in child_keys(key, tree.world.dims)):
        return uniform_row(tree.num_classes)
    weights, conds, total = node_child_set(tree, key)
    if total <= 0.0:
        return uniform_row(tree.num_classes)
    return (weights / total) @ conds


def ref_relative_gain(tree, key, cw):
    """Recursive relative gain computed with plain-python loops."""
    node = tree.nodes[key]
    if node.kind != INTERIOR or node.weight <= 0:
        return 0.0
    entries = _ref_children(tree, key)
    total = sum(w for w, _, _ in entries)
    if total <= 0:
        return 0.0
    pi = [w / total for w, _, _ in entries]
    value = -cw.compress * ref_entropy(pi)
    for cid, w in cw.retain.items():
        value += w * ref_bernoulli_js([d[cid] for _, d, _ in entries], pi)
    for cid, w in cw.remove.items():
        value -= w * ref_bernoulli_js([d[cid] for _, d, _ in entries], pi)
    for p, (_, _, k) in zip(pi, entries):
        if k is not None and tree.nodes[k].kind == INTERIOR:
            value += p * ref_relative_gain(tree, k, cw)
    return max(value, 0.0)


# -- the column kernels as they were before their trimmed forms ---------------------
#
# ``Levels.child_sets``, ``split_terms`` and ``_js_columns`` write the
# completions, zeros and masks only where some entry needs them. These copies
# make every call unconditionally, so the trimmed kernels must equal them bit
# for bit on any input.


def ref_child_sets(store, rows):
    """``Levels.child_sets`` of ``store``, with every completion, uncached
    conditional (``ref_conditionals``) and gain mask applied to all rows."""
    rows = np.asarray(rows, dtype=np.int64)
    slots = store.slots[rows]
    present = slots >= 0
    count = present.sum(axis=1)
    assert count.all(), "a row without stored children"
    stored = np.where(present, store.weight[slots], 0.0)
    total = np.zeros(len(rows))
    for column in stored.T:  # left to right from 0.0
        total += column
    mean = total / count
    conds = store.cond[slots]
    conds[~present] = uniform_row(store.num_classes)
    stale = present & ~store.cached[slots]
    if stale.any():
        conds[stale] = ref_conditionals(store, slots[stale])
    gains = np.where(present & (store.kind[slots] == INTERIOR), store.gain[slots], 0.0)
    return (np.where(present, stored, mean[:, None]), conds, gains,
            total + (store.world.branching - count) * mean)


def ref_conditionals(store, rows):
    """``Levels.conditionals`` over ``ref_child_sets``."""
    conds = store.cond[rows]
    todo = ~store.cached[rows]
    conds[todo] = uniform_row(store.num_classes)
    deep = np.flatnonzero(todo & store.has_children[rows])
    if len(deep):
        weights, children, _, totals = ref_child_sets(store, rows[deep])
        for i, row in enumerate(deep.tolist()):
            if totals[i] > 0.0:
                conds[row] = (weights[i] / totals[i]) @ children[i]
    return conds


def ref_split_terms(pi, marginals, chunk=1024):
    """``compression.split_terms``: fully active batches of at most ``chunk``
    rows, then each other row alone over its active children."""
    act = pi > 0
    if len(pi) <= chunk and act.all():
        return _ref_active_split_terms(pi, marginals)
    full = act.all(axis=1)
    js = np.zeros((len(pi), marginals.shape[2]))
    h = np.zeros(len(pi))
    rows = np.flatnonzero(full)
    for start in range(0, len(rows), chunk):
        r = rows[start:start + chunk]
        js[r], h[r] = _ref_active_split_terms(pi[r], marginals[r])
    for r in np.flatnonzero(~full):
        a = act[r]
        js[r:r + 1], h[r:r + 1] = _ref_active_split_terms(pi[r:r + 1, a],
                                                          marginals[r:r + 1, a])
    return js, h


def _ref_active_split_terms(pi, marginals):
    m = np.minimum(np.maximum(marginals.transpose(0, 2, 1), 0.0, order="C"), 1.0)
    h = -(pi * np.log2(pi)).sum(axis=1)
    varying = (m != m[:, :, :1]).any(axis=2)
    if varying.all():
        return ref_js_columns(pi, m), h
    js = np.zeros(varying.shape)
    counts = varying.sum(axis=1)
    for k in np.unique(counts[counts > 0]):
        rows = np.flatnonzero(counts == k)
        cols = np.nonzero(varying[rows])[1].reshape(len(rows), k)
        sub = np.take_along_axis(m[rows], cols[:, :, None], axis=1)
        js[rows[:, None], cols] = ref_js_columns(pi[rows], sub)
    return js, h


def ref_js_columns(pi, m):
    """``compression._js_columns``: both zero-marginal masks always applied."""
    p = pi[:, :, None]
    pbar = np.matmul(m, p)
    q = 1 - m
    with np.errstate(divide="ignore", invalid="ignore"):
        t1 = np.where(m > 0, m * np.log2(m / pbar), 0.0)
        t0 = np.where(q > 0, q * np.log2(q / (1 - pbar)), 0.0)
    return np.matmul(t1 + t0, p)[:, :, 0]


def ref_gain(child_term, h, js, cw):
    """``compression._gain``: summed in class order, boxed as a numpy scalar
    with weighted classes, then ``max`` with 0.0."""
    value = child_term - cw.compress * h
    for w, v in zip(cw.signed, js):
        value += w * v
    if js:
        value = np.float64(value)
    return max(value, 0.0)


def same_bits(a, b):
    """Whether two float arrays have one dtype, one shape and equal bits."""
    a, b = np.asarray(a), np.asarray(b)
    return (a.dtype == b.dtype and a.shape == b.shape
            and np.array_equal(a.view(np.int64), b.view(np.int64)))


# -- compressed-tree extraction reference ------------------------------------------


def ref_extraction(tree, expanded):
    """``(kept, blocks)`` of the subtree that expands ``expanded``, node by
    node: the kept keys, and per block key its ``(weight, marginals,
    virtual)``. A stored child is a block with its own weight and
    ``node_conditional``; an absent one weighs the mean of its stored siblings and
    is uniform. Without the root expanded, the root is the one block,
    virtual when nothing is stored under it."""
    kept = {ROOT_KEY, *expanded}
    if ROOT_KEY not in expanded:
        root = tree.nodes[ROOT_KEY]
        empty = root.kind == INTERIOR and not any(
            k in tree.nodes for k in child_keys(ROOT_KEY, tree.world.dims))
        return kept, {ROOT_KEY: (root.weight, node_conditional(tree, ROOT_KEY), empty)}
    uniform = np.full(tree.num_classes + 1, 1.0 / (tree.num_classes + 1))
    blocks = {}
    for key in expanded:
        kids = child_keys(key, tree.world.dims)
        stored = [tree.nodes[k].weight for k in kids if k in tree.nodes]
        mean = ref_left_sum(stored) / len(stored)
        for k in kids:
            kept.add(k)
            node = tree.nodes.get(k)
            if k in expanded:
                continue
            blocks[k] = ((mean, uniform, True) if node is None
                         else (node.weight, node_conditional(tree, k), False))
    return kept, blocks


# -- independent tree-file reference ----------------------------------------------


def ref_record_error(dist, num_classes):
    """The first rule a truncated record breaks, as a message, or None;
    checked one field at a time."""
    if len(dist.top3) > 3:
        return "more than 3 stored classes"
    ids = [c for c, _ in dist.top3]
    if len(set(ids)) != len(ids) or any(c == 0 for c in ids):
        return "stored class ids must be distinct and non-zero"
    if any(not 1 <= c <= num_classes for c in ids):
        return "stored class id out of range"
    probs = [p for _, p in dist.top3]
    for value in probs + [dist.p_free, dist.p_residual]:
        if not -FIELD_TOL <= value <= 1 + FIELD_TOL:
            return f"probability {value} outside [0, 1]"
    if any(probs[i] < probs[i + 1] for i in range(len(probs) - 1)):
        return "stored classes not sorted by probability"
    total = ref_left_sum(probs) + dist.p_free + dist.p_residual
    if abs(total - 1.0) > SUM_TOL:
        return f"probabilities sum to {total}, not 1"
    if len(dist.top3) < 3 and dist.p_residual > SUM_TOL:
        return "residual mass requires 3 stored classes"
    if num_classes > 3 and dist.top3:
        share = dist.p_residual / (num_classes - 3)
        if dist.top3[-1][1] < share - FIELD_TOL:
            return "stored probability below residual share"
    return None


class _Reader:
    def __init__(self, data):
        self.data = data
        self.pos = 0

    def take(self, fmt):
        size = struct.calcsize(fmt)
        if self.pos + size > len(self.data):
            raise CorruptionError("truncated tree file")
        out = struct.unpack_from(fmt, self.data, self.pos)
        self.pos += size
        return out


def _ref_unpack_dist(reader):
    (n_top,) = reader.take("<B")
    if n_top > 3:
        raise CorruptionError(f"leaf stores {n_top} classes, maximum is 3")
    top = tuple((int(cid), float(p))
                for cid, p in (reader.take("<Hd") for _ in range(n_top)))
    p_free, p_residual = reader.take("<dd")
    return TruncatedSemanticDistribution(top, p_free, p_residual)


def _ref_record(tree, key, kind, weight, dist, records):
    message = ref_record_error(dist, tree.num_classes)
    if message is not None:
        raise CorruptionError(f"record {key} is invalid: {message}")
    records.append(Node(kind, weight=weight))
    records[-1].dist = dist
    return records[-1]


def _ref_read_node(reader, tree, key, records, nodes):
    (kind, weight) = reader.take("<Bd")
    max_depth = tree.world.max_depth
    if kind in (1, 2) and not (math.isfinite(weight) and weight >= 0.0):
        raise CorruptionError(f"record {key} has invalid weight {weight!r}")
    if kind == 1:
        if key.depth != max_depth:
            raise CorruptionError(f"leaf record at depth {key.depth}")
        nodes[key] = _ref_record(tree, key, LEAF, weight, _ref_unpack_dist(reader), records)
    elif kind == 2:
        if key.depth >= max_depth:
            raise CorruptionError(f"summary record at depth {key.depth}")
        nodes[key] = _ref_record(tree, key, SUMMARY, weight, _ref_unpack_dist(reader),
                                 records)
    elif kind == 0:
        if key.depth >= max_depth:
            raise CorruptionError(f"interior record at depth {key.depth}")
        (mask,) = reader.take("<B")
        if mask >> tree.world.branching:
            raise CorruptionError(f"child bitmask {mask:#x} exceeds branching")
        if mask == 0 and key != ROOT_KEY:
            raise CorruptionError(f"childless interior record at {key}")
        nodes[key] = Node(INTERIOR, weight=weight)
        expected = completed_weight(
            [_ref_read_node(reader, tree, child_key(key, octant, tree.world.dims), records,
                            nodes)
             for octant in range(tree.world.branching) if mask & (1 << octant)],
            tree.world.branching)
        if not (math.isfinite(weight)
                and abs(weight - expected) <= 1e-9 * abs(expected)):
            raise CorruptionError(f"interior record {key} has weight {weight!r}, "
                                  f"its children complete to {expected!r}")
    else:
        raise CorruptionError(f"unknown node kind {kind}")
    return weight


def reference_deserialize(path):
    """The recursive tree-file reader: one ``struct`` read per field, each
    record checked by ``ref_record_error`` as it is read, and each interior
    weight once its children are read."""
    with open(path, "rb") as fh:
        data = fh.read()
    reader = _Reader(data)
    if len(data) < 4 or data[:4] != MAGIC:
        raise FormatError("bad magic: not a tree file")
    reader.pos = 4
    (version,) = reader.take("<B")
    if version != FORMAT_VERSION:
        raise FormatError(f"unsupported format version {version}")
    origin = reader.take("<3d")
    edge, depth, branching, num_classes = reader.take("<dBBH")
    try:
        world = WorldConfig(origin, edge, depth, branching)
        tree = SemanticOctree(world, num_classes)
    except ConfigError as exc:
        raise CorruptionError(f"invalid world header: {exc}") from None
    records, nodes = [], {}
    try:
        _ref_read_node(reader, tree, ROOT_KEY, records, nodes)
    except TreeError as exc:
        raise CorruptionError(str(exc)) from None
    if reader.pos != len(data):
        raise CorruptionError(f"{len(data) - reader.pos} trailing bytes")
    if ROOT_KEY not in nodes or nodes[ROOT_KEY].kind == LEAF:
        raise CorruptionError("missing or malformed root record")
    conds = expand_rows(TruncatedRows.of([n.dist for n in records]), tree.num_classes)
    conds.flags.writeable = False
    for node, cond in zip(records, conds):
        node.cond = cond
    return tree_of_nodes(world, num_classes, nodes)


def scaled_leaves(tree, c):
    """The tree with every leaf weight times ``c``, built from a dict of its
    nodes; ``refresh_all`` re-derives the interior weights, deepest first."""
    nodes = editable_nodes(tree)
    for node in nodes.values():
        if node.kind == LEAF:
            node.weight *= c
    return tree_of_nodes(tree.world, tree.num_classes, nodes)


def _ref_same_record(a, b):
    """Two records field by field: the same stored class ids, and each
    probability, p_free and p_residual within FIELD_TOL."""
    values = [(p, q) for (_, p), (_, q) in zip(a.top3, b.top3)]
    return ([c for c, _ in a.top3] == [c for c, _ in b.top3] and all(
        abs(p - q) <= FIELD_TOL
        for p, q in values + [(a.p_free, b.p_free), (a.p_residual, b.p_residual)]))


def ref_prune_all(tree):
    """``prune_all_identical`` node by node on a dict of the tree's nodes:
    deepest parents first, one whose full child set holds only records, all
    equal to the first field by field, becomes a summary of its weight and
    the first child's record. Returns the pruned tree and the number of
    prunes."""
    nodes, dims, pruned = editable_nodes(tree), tree.world.dims, 0
    parents = sorted((k for k, n in nodes.items() if n.kind == INTERIOR),
                     key=lambda k: (-k.depth, k.index))
    for key in parents:
        kids = [nodes.get(k) for k in child_keys(key, dims)]
        if all(c is not None and c.kind != INTERIOR and _ref_same_record(c.dist, kids[0].dist)
               for c in kids):
            for k in child_keys(key, dims):
                del nodes[k]
            nodes[key] = Node(SUMMARY, nodes[key].weight, kids[0].table, kids[0].row,
                              kids[0].cond)
            pruned += 1
    return tree_of_nodes(tree.world, tree.num_classes, nodes), pruned


def editable_nodes(tree):
    """Plain ``Node`` copies of ``tree.nodes``, a read-only view, by key: a
    dict to edit and build a tree of (``tree_of_nodes``)."""
    return {key: Node(n.kind, n.weight, n.table, n.row, n.cond, n.gain)
            for key, n in tree.nodes.items()}


def stored_children(tree, key):
    """The keys of ``key``'s stored children in octant order, found in
    ``tree.nodes``."""
    return [k for k in child_keys(key, tree.world.dims) if k in tree.nodes]


def tree_of_nodes(world, num_classes, nodes):
    """The tree whose columns hold a dict of ``Node``s, caches included, as
    they are: nothing is checked or re-derived. Each record is copied from
    the table its node refers to into the node's own row; an interior row
    is empty."""
    depth, index = key_arrays(list(nodes))
    order = np.lexsort((index, depth))
    values = list(map(list(nodes.values()).__getitem__, order.tolist()))
    n, uniform = len(values), uniform_row(num_classes)
    kind = np.fromiter((v.kind for v in values), np.int64, n)
    table = TruncatedRows.zeros(n)
    for i in np.flatnonzero(kind != INTERIOR).tolist():
        for column, source in zip(table, values[i].table):
            column[i] = source[values[i].row]
    return SemanticOctree(world, num_classes, levels=Levels(world, num_classes, (
        depth[order], index[order], kind, np.fromiter((v.weight for v in values), np.float64, n),
        np.concatenate([uniform if v.cond is None else v.cond for v in values]).reshape(
            n, num_classes + 1),
        np.fromiter((v.cond is not None for v in values), bool, n),
        np.fromiter((v.gain for v in values), np.float64, n),
        np.fromiter((type(v.gain) is np.float64 for v in values), bool, n)), table))


def _ref_write_node(tree, key, out):
    node = tree.nodes[key]
    out.append(struct.pack("<Bd", node.kind, node.weight))
    if node.kind != INTERIOR:
        dist = node.dist
        out.append(struct.pack("<B", len(dist.top3)))
        out += [struct.pack("<Hd", cid, p) for cid, p in dist.top3]
        out.append(struct.pack("<dd", dist.p_free, dist.p_residual))
        return
    kids = [k for k in child_keys(key, tree.world.dims) if k in tree.nodes]
    out.append(struct.pack("<B", sum(1 << (k.index & (tree.world.branching - 1))
                                     for k in kids)))
    for k in kids:
        _ref_write_node(tree, k, out)


def reference_serialize(tree):
    """The recursive tree-file writer: one ``struct`` write per field, each
    record written from its ``node.dist``, children in octant order."""
    world = tree.world
    out = [struct.pack("<4sB3ddBBH", MAGIC, FORMAT_VERSION, *world.origin,
                       world.edge_length, world.max_depth, world.branching,
                       tree.num_classes)]
    _ref_write_node(tree, ROOT_KEY, out)
    return b"".join(out)


_HEAD = np.dtype([("kind", "u1"), ("weight", "<f8"), ("field", "u1")])
_SLOT = np.dtype([("id", "<u2"), ("p", "<f8")])
_TAIL = np.dtype([("p_free", "<f8"), ("p_residual", "<f8")])


def node_serialize(tree):
    """The tree-file writer over ``tree.nodes`` (the read-only view of the
    tree's columns): the nodes in pre-order, each interior node's child
    bits found through the chain of first children of its region's code,
    each record a row of the tables its ``Node`` refers to, packed into one
    buffer."""
    world, keys = tree.world, list(tree.nodes)
    depth, index = key_arrays(keys)
    code = index << world.dims * (world.max_depth - depth)  # of the region's first cell
    order = np.lexsort((depth, code))
    depth, index, code = depth[order], index[order], code[order]
    nodes = [tree.nodes[keys[i]] for i in order.tolist()]
    head = np.zeros(len(nodes), dtype=_HEAD)
    head["kind"] = [n.kind for n in nodes]
    head["weight"] = [n.weight for n in nodes]
    # The nodes that share a code are a chain of first children, one level
    # apart; a child's parent is in the chain of its code with its octant cleared.
    child = np.flatnonzero(depth)
    first = np.searchsorted(code, index[child] >> world.dims << world.dims * (
        world.max_depth - depth[child] + 1))
    np.bitwise_or.at(head["field"], first + depth[child] - 1 - depth[first],
                     1 << (index[child] & (world.branching - 1)))
    rec = np.flatnonzero(head["kind"] != INTERIOR)
    records = [nodes[i] for i in rec.tolist()]
    tables = {id(n.table): n.table for n in records}
    start = dict(zip(tables, itertools.accumulate(
        (len(t.ids) for t in tables.values()), initial=0)))
    at = np.array([start[id(n.table)] + n.row for n in records], dtype=np.int64)
    rows = TruncatedRows(*(np.concatenate(column)[at] for column in zip(
        *tables.values(), TruncatedRows.of([]))))
    head["field"][rec] = n_top = rows.counts
    sizes = 10 + (head["kind"] != INTERIOR) * (16 + 10 * head["field"].astype(np.int64))
    offset = np.cumsum(sizes) - sizes
    slots = np.zeros((len(rec), 3), dtype=_SLOT)
    slots["id"], slots["p"] = rows.ids, rows.probs
    tail = np.zeros(len(rec), dtype=_TAIL)
    tail["p_free"], tail["p_residual"] = rows.p_free, rows.p_residual
    used = np.arange(3) < n_top[:, None]
    buf = np.zeros(int(sizes.sum()), dtype=np.uint8)
    for offsets, values in [(offset, head), (offset[rec] + 10 + 10 * n_top, tail),
                            ((offset[rec, None] + np.arange(10, 40, 10))[used], slots[used])]:
        buf[offsets[:, None] + np.arange(values.itemsize)] = values.view(np.uint8).reshape(
            len(values), values.itemsize)
    return struct.pack("<4sB3ddBBH", MAGIC, FORMAT_VERSION, *world.origin, world.edge_length,
                       world.max_depth, world.branching, tree.num_classes) + buf.tobytes()


# -- independent planning references ------------------------------------------------
#
# Every reference walks its own adjacency, built from ``graph.edges``, never
# the graph's cached search index.


def ref_adjacency(graph):
    """Per-vertex ``(v, length, color)`` lists in edge order, from the edges."""
    adj = {i: [] for i in range(graph.num_vertices)}
    for e in graph.edges:
        adj[e.u].append((e.v, e.length, e.color))
        adj[e.v].append((e.u, e.length, e.color))
    return adj


def reference_astar(graph, query):
    """Class-Ordered A* as it searched before the graph search index.

    It searches every query, including one whose goal lies in another
    connected component, and keeps ``best`` and ``parent`` in dicts; its
    pops, and so its ``PlanResult``, are what ``class_ordered_astar`` must
    return.
    """
    import heapq

    n = graph.num_vertices
    if not (0 <= query.start < n and 0 <= query.goal < n):
        raise GraphError("start/goal outside the vertex range")
    if query.start == query.goal:
        return PlanResult([query.start], 0, 0.0)
    adjacency = ref_adjacency(graph)
    bad = set(query.undesired) | {UNKNOWN_CLASS}
    positions = np.asarray(graph.positions, dtype=np.float64)
    h = _norms(positions - positions[query.goal]).tolist()
    best = {query.start: (0, 0.0)}
    parent = {}
    counter = 0
    # Entries are (f_bad, f_len, counter, v, g_bad, g_len): equal f pops in
    # push order. One whose g is no longer best[v] was superseded by a
    # cheaper push and is skipped.
    heap = [(0, h[query.start], counter, query.start, 0, 0.0)]
    while heap:
        _, _, _, u, g_bad, g_len = heapq.heappop(heap)
        if best[u] != (g_bad, g_len):
            continue
        if u == query.goal:
            path = [u]
            while path[-1] != query.start:
                path.append(parent[path[-1]])
            path.reverse()
            return PlanResult(path, g_bad, g_len)
        for v, length, color in adjacency[u]:
            c_bad = g_bad + 1 if color in bad else g_bad
            c_len = g_len + length
            if v not in best or (c_bad, c_len) < best[v]:
                best[v] = (c_bad, c_len)
                parent[v] = u
                counter += 1
                heapq.heappush(heap, (c_bad, c_len + h[v], counter, v, c_bad, c_len))
    return None


def ref_all_paths_best(graph, query):
    """Lexicographic optimum over all simple paths, by exhaustive DFS."""
    bad = set(query.undesired) | {-1}
    adjacency = ref_adjacency(graph)
    best = [None]

    def dfs(u, visited, n_bad, length):
        if u == query.goal:
            cost = (n_bad, length)
            if best[0] is None or cost < best[0]:
                best[0] = cost
            return
        for v, elen, color in adjacency[u]:
            if v in visited:
                continue
            visited.add(v)
            dfs(v, visited, n_bad + (1 if color in bad else 0), length + elen)
            visited.remove(v)

    dfs(query.start, {query.start}, 0, 0.0)
    return best[0]


def ref_dijkstra_length(graph, start, goal):
    """Plain shortest-path length ignoring colors; None if unreachable."""
    import heapq

    adjacency = ref_adjacency(graph)
    dist = {start: 0.0}
    heap = [(0.0, start)]
    while heap:
        d, u = heapq.heappop(heap)
        if d > dist.get(u, math.inf):
            continue
        if u == goal:
            return d
        for v, length, _ in adjacency[u]:
            nd = d + length
            if nd < dist.get(v, math.inf):
                dist[v] = nd
                heapq.heappush(heap, (nd, v))
    return None


def zero_bad_path_exists(graph, query):
    """Reachability through edges free of undesired/unknown colors."""
    bad = set(query.undesired) | {-1}
    adjacency = ref_adjacency(graph)
    seen = {query.start}
    stack = [query.start]
    while stack:
        u = stack.pop()
        if u == query.goal:
            return True
        for v, _, color in adjacency[u]:
            if color not in bad and v not in seen:
                seen.add(v)
                stack.append(v)
    return False


# -- independent spatial-lookup references -----------------------------------------


def ref_cell_coords(world, point):
    """Finest cell coordinates of a point, or None outside the half-open world.

    Per subdivided axis: floor((p - origin) / leaf size), clamped to the last
    cell, on plain python floats.
    """
    point = [float(v) for v in point]
    if not all(o <= p < o + world.edge_length for p, o in zip(point, world.origin)):
        return None
    n = 1 << world.max_depth
    size = world.edge_length / n
    return [min(int((point[a] - world.origin[a]) // size), n - 1)
            for a in range(world.dims)]


def ref_path_keys(world, coords):
    """Keys of the nodes containing a finest cell, root first."""
    keys = []
    for depth in range(world.max_depth + 1):
        coarse = [c >> (world.max_depth - depth) for c in coords]
        index = 0
        for bit in range(depth):
            for axis, c in enumerate(coarse):
                index |= ((c >> bit) & 1) << (bit * world.dims + axis)
        keys.append(NodeKey(depth, index))
    return keys


def _ref_dominant(probs):
    probs = list(probs)
    return probs.index(max(probs))


def ref_tree_class(ctree, point):
    """Class of the compressed block holding a point, by walking its keys."""
    coords = ref_cell_coords(ctree.world, point)
    if coords is None:
        return -1
    for key in ref_path_keys(ctree.world, coords):
        leaf = ctree.leaves.get(key)
        if leaf is not None:
            return -1 if leaf.virtual else _ref_dominant(leaf.marginals)
    raise AssertionError(f"no compressed leaf covers {point}")


def ref_octree_class(tree, point):
    """Class of the stored leaf or summary holding a point; -1 if unobserved."""
    coords = ref_cell_coords(tree.world, point)
    if coords is None:
        return -1
    for key in ref_path_keys(tree.world, coords):
        node = tree.nodes.get(key)
        if node is None:
            return -1
        if node.kind != INTERIOR:
            return _ref_dominant(ref_conditional(tree, key))
    raise AssertionError(f"interior record at the finest depth under {point}")


def ref_segment_color(class_of_point, p0, p1, step, undesired, relevant):
    """Most-undesired class sampled along a segment, one point at a time."""

    def severity(cid):
        if cid in undesired:
            tier = 4
        elif cid == -1:
            tier = 3
        elif cid in relevant:
            tier = 1
        elif cid == 0:
            tier = 0
        else:
            tier = 2
        return (tier, -cid)

    samples = max(int(np.ceil(float(np.linalg.norm(p1 - p0)) / step)), 1) + 1
    return max((class_of_point(p0 + t * (p1 - p0))
                for t in np.linspace(0.0, 1.0, samples)), key=severity)


# -- synthetic demo world --------------------------------------------------------


FREE, ROAD, GRASS, TREES, BUILDING = 0, 1, 2, 3, 4
DEMO_CLASSES = 4


def demo_true_class(ix, iy):
    """Ground-truth terrain class of a 64x64 demo map column."""
    if 30 <= ix < 34 or 30 <= iy < 34:
        return ROAD
    if 4 <= ix < 14 and 4 <= iy < 14:
        return BUILDING
    if 48 <= ix < 60 and 44 <= iy < 58:
        return TREES
    if 8 <= ix < 20 and 44 <= iy < 56:
        return FREE
    return GRASS


def demo_building_height(ix, iy):
    return 6 if demo_true_class(ix, iy) == BUILDING else 0


def make_demo_cloud(rng, noise=0.12):
    """Labeled point records for the 64x64x8-cell synthetic world.

    Every cell of the content volume is observed: terrain classes on the
    ground layer, solid building cells above building footprints, and
    observed free space elsewhere up to z = 8. Labels are corrupted with
    classifier noise. Returns (x, y, z, class_id, confidence) tuples,
    roughly 50k of them.
    """
    records = []
    for ix in range(64):
        for iy in range(64):
            true = demo_true_class(ix, iy)
            height = demo_building_height(ix, iy)
            for iz in range(8):
                if iz == 0:
                    cls, nobs, p_noise = true, 5, noise
                elif iz < height:
                    cls, nobs, p_noise = BUILDING, 3, noise
                else:
                    cls, nobs, p_noise = FREE, 1, noise / 2
                for _ in range(nobs):
                    label = cls
                    if rng.random() < p_noise:
                        label = int(rng.integers(0, DEMO_CLASSES + 1))
                    records.append((
                        ix + float(rng.uniform(0.05, 0.95)),
                        iy + float(rng.uniform(0.05, 0.95)),
                        iz + float(rng.uniform(0.05, 0.95)),
                        label,
                        float(rng.uniform(0.6, 0.95))))
    return records


def write_cloud(path, records):
    lines = ["x,y,z,class_id,confidence"]
    for x, y, z, cid, conf in records:
        lines.append(f"{x:.9g},{y:.9g},{z:.9g},{cid},{conf:.9g}")
    path.write_text("\n".join(lines) + "\n")


# Edits that take a cloud file off the plain path: numerals that only
# float()/int() read, values the per-line checks reject, lines that are
# blank, skipped or malformed, and bytes that are not UTF-8. Field edits are
# (column, text); line edits are (None, line).
CLOUD_FIELD_EDITS = (
    *((col, text) for col in (0, 2) for text in (
        "1_5", "１.5", "nan", "inf", "-Infinity", "1e400", " 2.5 ", "+.5", "5.",
        "2.5e-1", "0x1p1", "", "2.5.1", "4.9e-324", "\xa02.5")),
    *((3, text) for text in (
        "1_0", "３", "3.0", "+3", " 3 ", "-0", "03", "5", "-1", "3e0",
        "99999999999999999999", "x", "")),
    *((4, text) for text in ("nan", "inf", "1e400", "0", "-0.5", "1.5", "0.1", "1_0", " 0.9", "1.")),
)
CLOUD_LINE_EDITS = tuple((None, line) for line in (
    b"", b"  \t ", b"#1,2,3,4,0.5", b"1,2,3,4", b"1,2,3,4,0.5,6", b"1,2,3,4,0.5,",
    b"garbage", b"1.5,\xff,0.5,1,0.9", b"1.5,2.5,0.5,1,0.9\xc3"))

_NUMERAL_FORMATS = ("{!r}", "{:.3f}", "{:.6e}", "{:.9g}", "{:+.2f}")
_CLOUD_HEADERS = (b"x,y,z,class_id,confidence", b" x,y,z,class_id,confidence\t",
                  b"x,y,z,label", b"x,y,z,class_id,confidence\xff", b"")


def cloud_files(world_edge=8.0, num_classes=4, max_rows=6):
    """Hypothesis strategy for the bytes of point-cloud files: rows of
    numerals, each row in one of several formats, then up to two edits (a field edit as
    likely as a line edit), line ends LF, CRLF or CR, a final line end or
    none, and now and then a bad header."""
    coord = st.one_of(st.floats(-0.5, world_edge + 0.5),
                      st.floats(allow_nan=False, allow_infinity=False))
    row = st.tuples(coord, coord, coord, st.integers(0, num_classes),
                    st.floats(0.0, 1.0, exclude_min=True), st.sampled_from(_NUMERAL_FORMATS))
    edit = st.one_of(st.sampled_from(CLOUD_FIELD_EDITS), st.sampled_from(CLOUD_LINE_EDITS))

    @st.composite
    def files(draw):
        lines = []
        for x, y, z, cid, p, fmt in draw(st.lists(row, max_size=max_rows)):
            fields = [fmt.format(x), fmt.format(y), fmt.format(z), str(cid), fmt.format(p)]
            lines.append(",".join(fields).encode())
        for at, (col, text) in draw(st.lists(
                st.tuples(st.integers(0, max_rows), edit), max_size=2)):
            if col is None:
                lines.insert(at % (len(lines) + 1), text)
            elif lines:
                fields = lines[at % len(lines)].split(b",")
                if col < len(fields):
                    fields[col] = text.encode()
                    lines[at % len(lines)] = b",".join(fields)
        header = draw(st.sampled_from(_CLOUD_HEADERS[:1] * 6 + _CLOUD_HEADERS))
        eol = draw(st.sampled_from([b"\n", b"\n", b"\r\n", b"\r"]))
        text = eol.join([header, *lines])
        return text + eol if draw(st.booleans()) else text

    return files()


DEMO_WORLD = "origin 0 0 0\nedge_length 64\nmax_depth 6\nbranching 8\nnum_classes 4\n"

DEMO_WEIGHTS = (
    "num_classes 4\n"
    "alpha 0.01\n"
    "class 1 relevant 4 road\n"
    "class 2 irrelevant 0.5 grass\n"
    "class 3 irrelevant 0.5 trees\n"
    "class 4 neutral building\n"
)
