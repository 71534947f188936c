import builtins
import copy
import itertools
import math
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from soct.compression import (
    CHUNK_ROWS,
    CompressionWeights,
    _gain,
    _js_columns,
    build_and_compress,
    compress_tree,
    compressed_from_expanded,
    count_candidate_trees,
    exhaustive_search,
    expansion_gain,
    full_tree,
    information_report,
    per_class_information,
    refresh_all,
    refresh_upward,
    report,
    split_terms,
    weighted_gain,
)
from soct.errors import ConfigError, SizeLimitError, SummaryError, TreeError
from soct.formats import deserialize_tree, serialize_tree
from soct.infotheory import split_increments
from soct.octree import (
    INTERIOR,
    ROOT_KEY,
    SUMMARY,
    Levels,
    NodeKey,
    SemanticOctree,
    WorldConfig,
    completed_weight,
)
from soct.semantics import TruncatedSemanticDistribution, left_sum, row_totals

from helpers import (
    make_random_tree,
    node_serialize,
    random_truncated,
    random_weights,
    ref_bernoulli_js,
    ref_entropy,
    ref_extraction,
    ref_gain,
    ref_js_columns,
    ref_mutual_information,
    ref_relative_gain,
    ref_split_terms,
    same_bits,
    scaled_leaves,
    stored_children,
)


def two_leaf_tree():
    """Binary depth-1 tree with opposite pure class-1 marginals."""
    world = WorldConfig((0, 0, 0), 2.0, 1, branching=2)
    tree = SemanticOctree(world, 4)
    tree.set_leaf((0,), TruncatedSemanticDistribution(((1, 1.0),), 0.0, 0.0), 1.0)
    tree.set_leaf((1,), TruncatedSemanticDistribution(((2, 1.0),), 0.0, 0.0), 1.0)
    return tree


def random_expanded_set(tree, rng, p=0.6):
    expanded = set()
    stack = []
    root = tree.nodes[ROOT_KEY]
    if root.kind == INTERIOR and stored_children(tree, ROOT_KEY) and rng.random() < p:
        stack.append(ROOT_KEY)
    while stack:
        key = stack.pop()
        expanded.add(key)
        for ck in stored_children(tree, key):
            child = tree.nodes[ck]
            if (child.kind == INTERIOR and stored_children(tree, ck)
                    and rng.random() < p):
                stack.append(ck)
    return frozenset(expanded)


def test_weights_validation():
    with pytest.raises(ConfigError):
        CompressionWeights({1: 1.0}, {1: 1.0}, 0.0)
    with pytest.raises(ConfigError):
        CompressionWeights({1: -1.0}, {}, 0.0)
    with pytest.raises(ConfigError):
        CompressionWeights({}, {}, -0.1)


@pytest.mark.parametrize("value", [float("nan"), float("inf"), float("-inf")])
def test_non_finite_weights_are_rejected(value):
    for args in [({1: value}, {}, 0.0), ({}, {2: value}, 0.0), ({}, {}, value)]:
        with pytest.raises(ConfigError, match="non-negative and finite"):
            CompressionWeights(*args)


def test_gain_zero_for_leaves_and_empty():
    tree = two_leaf_tree()
    cw = CompressionWeights({1: 1.0}, {}, 0.5)
    leaf = tree.world.key_from_coords((0,), 1)
    assert expansion_gain(tree, leaf, cw) == 0.0
    assert weighted_gain(tree, leaf, cw) == 0.0
    empty = SemanticOctree(WorldConfig((0, 0, 0), 2.0, 1, branching=2), 4)
    assert expansion_gain(empty, ROOT_KEY, cw) == 0.0
    with pytest.raises(TreeError):
        expansion_gain(tree, tree.world.key_from_coords((0,), 1)._replace(index=9), cw)


def test_gain_zero_for_identical_children():
    world = WorldConfig((0, 0, 0), 2.0, 1, branching=2)
    tree = SemanticOctree(world, 4)
    d = TruncatedSemanticDistribution(((1, 0.7),), 0.3, 0.0)
    tree.set_leaf((0,), d, 1.0)
    tree.set_leaf((1,), d, 1.0)
    cw = CompressionWeights({1: 5.0}, {}, 0.5)
    assert expansion_gain(tree, ROOT_KEY, cw) == 0.0


def test_gain_binary_example():
    tree = two_leaf_tree()
    cw = CompressionWeights({1: 2.0}, {}, 1.0)
    assert abs(expansion_gain(tree, ROOT_KEY, cw) - 1.0) < 1e-12
    assert abs(weighted_gain(tree, ROOT_KEY, cw) - 2.0) < 1e-12  # mass 2 * gain 1


def test_gain_matches_independent_reference():
    rng = np.random.default_rng(31)
    for _ in range(40):
        branching = int(rng.choice([2, 4]))
        depth = 3 if branching == 2 else 2
        tree = make_random_tree(rng, branching, depth, fill=0.8)
        cw = random_weights(rng)
        for key, node in tree.nodes.items():
            if node.kind == INTERIOR:
                assert abs(expansion_gain(tree, key, cw)
                           - ref_relative_gain(tree, key, cw)) < 1e-9


def test_scaled_gain_identity_random():
    rng = np.random.default_rng(32)
    for _ in range(60):
        branching = int(rng.choice([2, 4, 8]))
        depth = {2: 4, 4: 3, 8: 2}[branching]
        tree = make_random_tree(rng, branching, depth, fill=0.7)
        cw = random_weights(rng)
        for key, node in tree.nodes.items():
            g = weighted_gain(tree, key, cw)
            gp = expansion_gain(tree, key, cw)
            assert abs(g - node.weight * gp) <= 1e-9
            assert (g > 1e-12) == (gp > 1e-12)


def test_refresh_upward_single_path_equals_batch():
    rng = np.random.default_rng(33)
    world = WorldConfig((0, 0, 0), 16.0, 4, branching=8)
    tree = SemanticOctree(world, 4)
    cw = random_weights(rng)
    leaf = tree.add_observation((1.1, 2.2, 3.3), 2, 0.9)
    refresh_upward(tree, leaf, cw)
    clone = copy.deepcopy(tree)
    refresh_all(clone, cw)
    for key, node in tree.nodes.items():
        assert abs(node.gain - clone.nodes[key].gain) < 1e-12
        assert abs(node.weight - clone.nodes[key].weight) < 1e-12


def test_refresh_upward_incremental_equals_batch_over_sequence():
    rng = np.random.default_rng(34)
    world = WorldConfig((0, 0, 0), 8.0, 3, branching=8)
    tree = SemanticOctree(world, 5)
    cw = random_weights(rng, num_classes=5)
    for step in range(100):
        point = rng.uniform(0, 8, 3)
        leaf = tree.add_observation(point, int(rng.integers(0, 6)),
                                    float(rng.uniform(0.5, 0.95)))
        refresh_upward(tree, leaf, cw)
        if step % 10 == 9:
            clone = copy.deepcopy(tree)
            refresh_all(clone, cw)
            for key, node in tree.nodes.items():
                assert abs(node.gain - clone.nodes[key].gain) < 1e-9


def test_refresh_upward_touches_only_the_path():
    rng = np.random.default_rng(35)
    world = WorldConfig((0, 0, 0), 8.0, 3, branching=8)
    tree = SemanticOctree(world, 4)
    cw = random_weights(rng)
    for _ in range(40):
        point = rng.uniform(0, 8, 3)
        leaf = tree.add_observation(point, int(rng.integers(0, 5)),
                                    float(rng.uniform(0.5, 0.95)))
        refresh_upward(tree, leaf, cw)
    # observe in the low-x half; high-x subtree caches must stay bit-identical
    before = {k: (n.weight, n.gain,
                  None if n.cond is None else n.cond.copy())
              for k, n in tree.nodes.items()
              if k.depth >= 1 and (k.index >> (3 * (k.depth - 1))) & 1}
    leaf = tree.add_observation((0.5, 0.5, 0.5), 1, 0.9)
    refresh_upward(tree, leaf, cw)
    for key, (w, g, cond) in before.items():
        node = tree.nodes[key]
        assert node.weight == w and node.gain == g
        if cond is not None:
            assert np.array_equal(node.cond, cond)


def test_refresh_upward_rejects_non_leaf():
    tree = two_leaf_tree()
    cw = CompressionWeights({1: 1.0}, {}, 0.0)
    with pytest.raises(TreeError):
        refresh_upward(tree, ROOT_KEY, cw)


def test_refresh_upward_rejects_finest_keys_outside_the_grid():
    """A finest key whose index lies outside 0 <= index < 2**(dims * D) is
    no stored leaf, though its low dims * D bits name one; the caches stay
    as they were."""
    tree = SemanticOctree(WorldConfig((0, 0, 0), 8.0, 3), 4)
    leaf = tree.add_observation((7.5, 7.5, 7.5), 1, 0.9)
    assert leaf == NodeKey(3, 511)
    cw = CompressionWeights({1: 1.0}, {2: 0.5}, 0.01)
    store = tree.columns()
    before = [getattr(store, name).copy() for name in ("weight", "cond", "cached", "gain",
                                                       "boxed")]
    for index in (-1, 1023, 511 | 5 << 40):
        key = NodeKey(3, index)
        with pytest.raises(TreeError, match=re.escape(
                f"{key} is not a stored finest-resolution leaf")):
            refresh_upward(tree, key, cw)
    after = [getattr(store, name) for name in ("weight", "cond", "cached", "gain", "boxed")]
    assert all(map(np.array_equal, before, after))


def test_refresh_upward_gathers_and_evaluates_once(monkeypatch):
    """On a branching-8, depth-4 stream of new leaves (with new ancestors)
    and updates, each ``refresh_upward`` gathers its whole root path in one
    ``child_sets`` call on the columns and evaluates it in one
    ``split_terms`` call: a gather per level, or a recursive conditional of
    a new ancestor (``Levels.conditionals`` gathers too), would make more.
    The stream then fills full child sets on a whole path with one-hot
    leaves (constant columns, marginals of 0 and 1) and sets zero-weight
    leaves beside stored siblings and alone under massless ancestors, so
    each of the kernels' skips runs both ways under the count."""
    rng = np.random.default_rng(79)
    world = WorldConfig((0, 0, 0), 16.0, 4)
    tree = SemanticOctree(world, 4)
    cw = CompressionWeights({1: 4.0}, {2: 0.5}, 0.02)
    record = TruncatedSemanticDistribution(((1, 0.6), (2, 0.3)), 0.1, 0.0)
    massless = (15, 15, 12)
    calls = []
    gather, kernel = Levels.child_sets, split_terms

    def counting_gather(self, rows):
        calls.append(("child_sets", len(rows)))
        return gather(self, rows)

    def counting_kernel(pi, marginals):
        calls.append(("split_terms", len(pi)))
        return kernel(pi, marginals)

    def leaves():
        cells = rng.integers(0, 16, (30, 3)) * [1, 1, 0.5]
        for cell in np.vstack([cells, cells]):  # new leaves, then updates
            yield tree.add_observation(cell + rng.uniform(0.1, 0.4, 3),
                                       int(rng.integers(0, 5)), 0.8)
        for size in (1, 2, 4, 8):  # cell (0, 0, 0)'s path: full child sets
            for corner in itertools.product((0, size), repeat=3):
                yield tree.add_observation(np.add(corner, 0.5), 0, 1.0)
        yield tree.add_observation((0.5, 0.5, 0.5), 0, 1.0)
        yield tree.set_leaf((1, 1, 1), record, 0.0)  # beside stored siblings
        yield tree.set_leaf(massless, record, 0.0)  # under two massless ancestors

    monkeypatch.setattr(Levels, "child_sets", counting_gather)
    monkeypatch.setattr("soct.compression.split_terms", counting_kernel)
    for leaf in leaves():
        calls.clear()
        refresh_upward(tree, leaf, cw)
        live = 2 if leaf == world.key_from_coords(massless, 4) else 4
        assert calls == [("child_sets", 4), ("split_terms", live)]
    _assert_caches_equal_batch_bit_for_bit(tree, cw)


def test_refresh_upward_path_slots_hold_row_totals_bit_for_bit():
    """A new leaf under parents with absent siblings, where summing a
    completed child row differs in the last bit from ``completed_weight``:
    ``set_leaf`` leaves each ancestor at the total ``child_sets`` reports
    for its row, so ``refresh_upward``, which gathers the path before
    anything is refreshed, reads every path slot as the row below totals."""
    world = WorldConfig((0, 0, 0), 8.0, 3)
    tree = SemanticOctree(world, 4)
    record = TruncatedSemanticDistribution(((1, 0.6), (2, 0.3)), 0.1, 0.0)
    cw = CompressionWeights({1: 2.0}, {2: 0.5}, 0.01)
    for cell in ((0, 1, 0), (1, 1, 0)):
        refresh_upward(tree, tree.set_leaf(cell, record, 0.1), cw)
    leaf = tree.set_leaf((0, 0, 0), record, 1.0)
    row_sums_agree = []
    for depth in (2, 1):
        weights, _, _, totals = tree.levels().child_sets(tree.rows([(depth, 0)]))
        assert tree.nodes[(depth, 0)].weight == totals[0]
        row_sums_agree.append(weights.sum() == totals[0])
    assert not all(row_sums_agree)  # the fixture reaches the last-bit gap
    refresh_upward(tree, leaf, cw)
    _assert_caches_equal_batch_bit_for_bit(tree, cw)


def random_child_sets(rng, n, branching, columns):
    """Stacked child sets with zero-weight children, constant columns and
    entries at and just outside 0 and 1; returns weights, pi, marginals."""
    weights = rng.uniform(0.1, 3.0, (n, branching))
    weights[rng.random((n, branching)) < 0.15] = 0.0
    weights[weights.sum(axis=1) == 0.0, 0] = 1.0
    pi = weights / weights.sum(axis=1)[:, None]
    m = rng.dirichlet(np.full(columns + 2, 0.5), (n, branching))[:, :, :columns]
    style = rng.random(m.shape)
    m[style < 0.05] = 0.0
    m[(style > 0.05) & (style < 0.08)] = 1.0
    m[(style > 0.08) & (style < 0.1)] = -1e-13
    m[(style > 0.1) & (style < 0.12)] = 1.0 + 1e-13
    for row, col in zip(*np.nonzero(rng.random((n, columns)) < 0.2)):
        m[row, :, col] = m[row, 0, col]
    return weights, pi, m


@pytest.mark.parametrize("branching", [2, 4, 8])
def test_split_terms_row_is_the_same_alone_in_a_batch_and_across_chunks(branching):
    """A row's bits do not depend on the rows beside it, on the chunk it
    lands in, or on the constant columns beside its varying ones; H(pi) has
    the bits of the ``split_increments`` route."""
    rng = np.random.default_rng(90 + branching)
    weights, pi, m = random_child_sets(rng, CHUNK_ROWS + 37, branching, 5)
    js, h = split_terms(pi, m)
    inner_js, inner_h = split_terms(pi[CHUNK_ROWS - 9:CHUNK_ROWS + 9],
                                    m[CHUNK_ROWS - 9:CHUNK_ROWS + 9])
    assert inner_js.tobytes() == js[CHUNK_ROWS - 9:CHUNK_ROWS + 9].tobytes()
    assert inner_h.tobytes() == h[CHUNK_ROWS - 9:CHUNK_ROWS + 9].tobytes()
    no_roles = CompressionWeights({}, {}, 0.0)
    for r in range(len(pi)):
        alone_js, alone_h = split_terms(pi[r:r + 1], m[r:r + 1])
        assert alone_js[0].tobytes() == js[r].tobytes(), r
        assert alone_h[0].tobytes() == h[r].tobytes(), r
        assert h[r] == split_increments(1.0, weights[r], {}, no_roles).split_bits, r
        act = pi[r] > 0
        clipped = np.clip(m[r][act], 0.0, 1.0)
        varying = (clipped != clipped[0]).any(axis=0)
        assert (js[r, ~varying] == 0.0).all(), r
        if varying.any():
            dropped, _ = split_terms(pi[r:r + 1], m[r:r + 1][:, :, varying])
            assert dropped[0].tobytes() == js[r, varying].tobytes(), r
        for col in np.flatnonzero(varying):
            ref = ref_bernoulli_js(list(clipped[:, col]), list(pi[r][act]))
            assert abs(js[r, col] - ref) < 1e-12
        assert abs(h[r] - ref_entropy(pi[r])) < 1e-12


ROW_STYLES = ("open", "edges", "constant", "zero_weight", "massless")


def styled_child_sets(rng, n, branching, columns, styles):
    """(pi, marginals) of n stacked child sets, each row of one of
    ``styles``: ``open`` (positive weights, marginals inside (0, 1)),
    ``edges`` (marginals of exactly 0 and 1, and just outside [0, 1]),
    ``constant`` (some columns equal across the children), ``zero_weight``
    (some children of weight 0) or ``massless`` (every weight 0, so pi is
    0.0 throughout)."""
    weights = rng.uniform(0.1, 3.0, (n, branching))
    m = rng.uniform(0.01, 0.99, (n, branching, columns))
    kind = rng.choice(sorted(styles), n)
    for r in np.flatnonzero(kind == "edges"):
        pick = rng.random((branching, columns))
        for lo, hi, value in ((0.0, 0.3, 0.0), (0.3, 0.5, 1.0), (0.5, 0.55, -1e-13),
                              (0.55, 0.6, 1.0 + 1e-13)):
            m[r][(pick >= lo) & (pick < hi)] = value
    for r in np.flatnonzero(kind == "constant"):
        cols = rng.random(columns) < 0.6
        m[r][:, cols] = m[r][0, cols]
    for r in np.flatnonzero(kind == "zero_weight"):
        weights[r, rng.random(branching) < 0.5] = 0.0
        weights[r, rng.integers(branching)] = 1.0
    weights[kind == "massless"] = 0.0
    totals = weights.sum(axis=1)
    return weights / np.where(totals > 0.0, totals, 1.0)[:, None], m


@settings(max_examples=60, deadline=None)
@given(seed=st.integers(0, 2**32 - 1),
       n=st.sampled_from([1, 2, 3, 4, 9, CHUNK_ROWS + 3]),
       branching=st.sampled_from([2, 4, 8]), columns=st.integers(1, 5),
       styles=st.sets(st.sampled_from(ROW_STYLES), min_size=1, max_size=3))
def test_split_kernels_equal_their_untrimmed_oracles_bit_for_bit(seed, n, branching,
                                                                 columns, styles):
    """``split_terms``, ``_js_columns`` and ``_gain`` skip masks, zeros and
    checks that decide nothing; on batches of one style (every skip taken)
    and mixed ones (none taken), with zero-weight children, massless rows,
    constant columns, marginals of 0 and 1 and more than ``CHUNK_ROWS``
    rows, each gives the bits and types of the code that makes every call
    (``helpers``)."""
    rng = np.random.default_rng(seed)
    pi, m = styled_child_sets(rng, n, branching, columns, styles)
    js, h = split_terms(pi, m)
    ref_js, ref_h = ref_split_terms(pi, m)
    assert same_bits(js, ref_js) and same_bits(h, ref_h)
    full = (pi > 0).all(axis=1)
    clipped = np.minimum(np.maximum(m[full].transpose(0, 2, 1), 0.0, order="C"), 1.0)
    assert same_bits(_js_columns(pi[full], clipped), ref_js_columns(pi[full], clipped))
    retain = {c: float(rng.uniform(0.5, 3.0)) for c in range(columns) if c % 2 == 0}
    remove = {c: float(rng.uniform(0.0, 0.8)) for c in range(columns) if c % 2}
    for cw in (CompressionWeights(retain, remove, float(rng.uniform(0.0, 0.2))),
               CompressionWeights({}, {}, 0.05)):
        cols = cw.class_ids.tolist()
        for term, row_h, row_js in zip((-1.0, -0.0, 0.0, *rng.normal(0.0, 0.1, n)),
                                       h.tolist(), js[:, cols].tolist()):
            got, ref = _gain(term, row_h, row_js, cw), ref_gain(term, row_h, row_js, cw)
            assert type(got) is type(ref) and repr(got) == repr(ref)


def test_gain_types_are_kept():
    """A gain is the numpy scalar of its JS sum, or the Python 0.0 of the
    clamp (a fingerprint of the caches hashes the repr of each gain)."""
    cases = [(CompressionWeights({1: 1.0}, {}, 0.0), np.float64),
             (CompressionWeights({1: 1.0}, {}, 100.0), float),
             (CompressionWeights({}, {}, 0.0), float)]
    for cw, kind in cases:
        tree = two_leaf_tree()
        refresh_all(tree, cw)
        assert type(tree.nodes[ROOT_KEY].gain) is kind
        assert type(expansion_gain(tree, ROOT_KEY, cw)) is kind
        refresh_upward(tree, tree.set_leaf((1,), tree.nodes[(1, 1)].dist), cw)
        assert type(tree.nodes[ROOT_KEY].gain) is kind


def test_cache_rebuild_and_extraction_gather_child_sets_per_batch(monkeypatch):
    """On a map of the benchmark's size (16x16x8 cells at depth 4),
    ``refresh_all`` gathers child sets once per level batch and
    ``compress_tree`` once in all, from the tree's ``Levels``: a per-node
    gather would make hundreds of calls."""
    rng = np.random.default_rng(78)
    world = WorldConfig((0, 0, 0), 16.0, 4)
    cells = np.array(list(np.ndindex(16, 16, 8)), dtype=float)
    truth = np.where((cells[:, 1] >= 6) & (cells[:, 1] < 10), 1, 2)
    noisy = rng.random(len(truth)) < 0.15
    truth[noisy] = rng.integers(0, 5, np.count_nonzero(noisy))
    points = cells + rng.uniform(0.05, 0.95, cells.shape)
    tree, rejected = SemanticOctree.from_observations(
        world, 4, points, truth, rng.uniform(0.6, 0.95, len(truth)))
    assert not rejected
    cw = CompressionWeights({1: 4.0}, {2: 0.5}, 0.02)
    calls = []
    gather = Levels.child_sets

    def counting(self, rows):
        calls.append(len(rows))
        return gather(self, rows)

    monkeypatch.setattr(Levels, "child_sets", counting)
    refresh_all(tree, cw)
    assert calls == [8 * 8 * 4, 4 * 4 * 2, 2 * 2 * 1, 1]
    calls.clear()
    ctree = compress_tree(tree, cw)
    assert calls == [len(ctree.expanded)]
    assert len(ctree.expanded) > 50


def test_per_class_information_adds_node_terms_in_key_order():
    rng = np.random.default_rng(36)
    for branching in (2, 4, 8):
        depth = {2: 4, 4: 3, 8: 2}[branching]
        tree = make_random_tree(rng, branching, depth, fill=0.8)
        refresh_all(tree, random_weights(rng))
        ctree = full_tree(tree)
        bits = np.zeros(tree.num_classes + 1)
        for key in sorted(ctree.expanded):
            weights, dists, _, totals = tree.levels().child_sets(tree.rows([key]))
            pi = weights / totals[:, None]
            js, _ = split_terms(pi, dists)
            bits += (tree.nodes[key].weight / tree.nodes[ROOT_KEY].weight) * js[0]
        assert per_class_information(tree, ctree) == dict(enumerate(bits.tolist()))


def _expanded_by_cached_gain(tree):
    """The nodes that the extraction expands, found node by node from the
    root: stored interior nodes with a cached gain above 1e-12 and stored
    children, under expanded parents."""
    expanded, todo = set(), [ROOT_KEY]
    while todo:
        key = todo.pop()
        children = stored_children(tree, key)
        if tree.nodes[key].kind == INTERIOR and tree.nodes[key].gain > 1e-12 and children:
            expanded.add(key)
            todo += children
    return expanded


BIT_OPS = ("observe", "zero_leaf", "identical", "prune", "observe_summary", "compress",
           "reload")


def _assert_caches_equal_batch_bit_for_bit(tree, cw):
    batch = copy.deepcopy(tree)
    refresh_all(batch, cw)
    for key, node in tree.nodes.items():
        ref = batch.nodes[key]
        # repr tells apart the gain types as well as the bits
        assert repr((node.weight, node.gain)) == repr((ref.weight, ref.gain)), key
        assert (node.cond is None) == (ref.cond is None), key
        if node.cond is not None:
            assert node.cond.tobytes() == ref.cond.tobytes(), key
        if node.kind == INTERIOR:
            assert abs(node.gain - ref_relative_gain(tree, key, cw)) < 1e-9, key


@settings(max_examples=40, deadline=None)
@given(seed=st.integers(0, 2**32 - 1),
       branching=st.sampled_from([2, 4, 8]),
       ops=st.lists(st.sampled_from(BIT_OPS), min_size=1, max_size=12))
def test_incremental_caches_equal_batch_bit_for_bit(tmp_path_factory, seed, branching, ops):
    """Observations, zero-weight leaves, blocks of identical leaves (constant
    columns), observations into summaries, a compression mid-stream (which
    merges the streamed rows into key order) and a write and reload (whose
    caches a refresh rebuilds), in any order: after each step every weight,
    conditional and gain that ``refresh_upward`` maintains is exactly what
    ``refresh_all`` computes on a copy, and the tree writes the bytes of
    the writer over ``tree.nodes``."""
    path = tmp_path_factory.mktemp("bits") / "tree.soct"
    rng = np.random.default_rng(seed)
    depth = {2: 4, 4: 3, 8: 2}[branching]
    k = int(rng.integers(4, 7))
    world = WorldConfig((0, 0, 0), 8.0, depth, branching)
    tree = SemanticOctree(world, k)
    cw = random_weights(rng, num_classes=k)
    shared = random_truncated(rng, k)
    dims, n = world.dims, 1 << depth
    for op in ops:
        if op == "observe":
            # two confidences only: leaves observed alike share the values
            # of their other classes, so some columns are constant
            leaf = tree.add_observation(rng.uniform(0, 8, 3), int(rng.integers(0, k + 1)),
                                        float(rng.choice([0.6, 0.9])))
            refresh_upward(tree, leaf, cw)
        elif op == "zero_leaf":
            coords = tuple(int(c) for c in rng.integers(0, n, dims))
            leaf = tree.set_leaf(coords, random_truncated(rng, k), 0.0)
            refresh_upward(tree, leaf, cw)
        elif op == "identical":
            span = 1 << int(rng.integers(1, depth + 1))
            corner = [int(c) * span for c in rng.integers(0, n // span, dims)]
            for offset in itertools.product(range(span), repeat=dims):
                leaf = tree.set_leaf(tuple(c + o for c, o in zip(corner, offset)),
                                     shared, float(rng.uniform(0.2, 3.0)))
                refresh_upward(tree, leaf, cw)
        elif op == "prune":
            # a summary takes its record's vector, not the aggregate it
            # replaces, so the ancestors are rebuilt
            tree.prune_all_identical()
            refresh_all(tree, cw)
        elif op == "compress" and not tree.has_summaries():
            expanded = compress_tree(tree, cw).expanded
            assert expanded == _expanded_by_cached_gain(tree)
        elif op == "reload":
            serialize_tree(tree, path)
            tree = deserialize_tree(path)
            refresh_all(tree, cw)
        elif op == "observe_summary":
            summaries = sorted(key for key, node in tree.nodes.items()
                               if node.kind == SUMMARY)
            if summaries:
                key = summaries[int(rng.integers(len(summaries)))]
                leaf = tree.add_observation(world.center_of(key),
                                            int(rng.integers(0, k + 1)), 0.9)
                refresh_upward(tree, leaf, cw)
        _assert_caches_equal_batch_bit_for_bit(tree, cw)
        serialize_tree(tree, path)
        assert path.read_bytes() == node_serialize(tree)


def test_compress_dominant_alpha_gives_root_only():
    rng = np.random.default_rng(36)
    tree = make_random_tree(rng, branching=4, depth=2)
    cw = CompressionWeights({1: 1.0}, {2: 1.0}, 1000.0 * 2.0)
    refresh_all(tree, cw)
    ctree = compress_tree(tree, cw)
    assert ctree.expanded == set()
    assert set(ctree.leaves) == {ROOT_KEY}
    assert ctree.num_leaves == 1


def test_compress_all_relevant_alpha_zero_retains_everything():
    rng = np.random.default_rng(37)
    tree = make_random_tree(rng, branching=4, depth=2, fill=1.0)
    cw = CompressionWeights({c: 10.0 for c in range(5)}, {}, 0.0)
    refresh_all(tree, cw)
    ctree = compress_tree(tree, cw)
    kept = per_class_information(tree, ctree)
    full = per_class_information(tree, full_tree(tree))
    for cid in range(5):
        if full[cid] > 0:
            assert kept[cid] == full[cid]  # retention ratio exactly 1.0


def test_compress_fixture_matches_exhaustive():
    rng = np.random.default_rng(38)
    world = WorldConfig((0, 0, 0), 4.0, 2, branching=4)
    tree = SemanticOctree(world, 4)
    for ix in range(4):
        for iy in range(4):
            tree.set_leaf((ix, iy), random_truncated(rng, 4, 0.4), 1.0)
    cw = CompressionWeights({1: 1.0}, {}, 0.3)
    refresh_all(tree, cw)
    result = exhaustive_search(tree, cw)
    assert result.candidate_count == 17
    objective = information_report(tree, compress_tree(tree, cw), cw).objective
    assert abs(objective - result.best_objective) <= 1e-9


def test_search_optimality_random_instances():
    rng = np.random.default_rng(39)
    for _ in range(25):
        branching = int(rng.choice([2, 4, 8]))
        depth = {2: 4, 4: 2, 8: 1}[branching]
        tree = make_random_tree(rng, branching, depth, fill=0.8,
                                concentration=0.3)
        cw = random_weights(rng, alpha_range=(0.0, 0.12),
                            retain_range=(1.0, 4.0), remove_range=(0.0, 0.4))
        refresh_all(tree, cw)
        result = exhaustive_search(tree, cw)
        objective = information_report(tree, compress_tree(tree, cw), cw).objective
        assert abs(objective - result.best_objective) <= 1e-9


def test_report_root_only_is_all_zero():
    rng = np.random.default_rng(40)
    tree = make_random_tree(rng, branching=4, depth=2)
    cw = CompressionWeights({1: 1.0}, {2: 1.0}, 0.1)
    refresh_all(tree, cw)
    report = information_report(tree, compressed_from_expanded(tree, frozenset()), cw)
    assert report.partition_bits == 0.0
    assert report.objective == 0.0
    assert all(v == 0.0 for v in report.relevant_bits.values())


def test_report_uniform_full_tree_partition_bits():
    rng = np.random.default_rng(41)
    for branching, depth in ((2, 3), (4, 2), (8, 1)):
        world = WorldConfig((0, 0, 0), 16.0, depth, branching)
        tree = SemanticOctree(world, 4)
        dims = world.dims
        n = 1 << depth
        for i in range(n ** dims):
            cell = tuple((i >> (d * depth)) & (n - 1) for d in range(dims))
            tree.set_leaf(cell, random_truncated(rng, 4), 1.0)
        cw = CompressionWeights({1: 1.0}, {}, 0.1)
        refresh_all(tree, cw)
        report = information_report(tree, full_tree(tree), cw)
        expected = depth * np.log2(branching)
        assert abs(report.partition_bits - expected) < 1e-9


def test_report_telescopes_to_leaf_entropy_and_mutual_information():
    rng = np.random.default_rng(42)
    for _ in range(30):
        branching = int(rng.choice([2, 4]))
        depth = 3 if branching == 2 else 2
        tree = make_random_tree(rng, branching, depth, fill=0.85)
        cw = random_weights(rng)
        refresh_all(tree, cw)
        ctree = compressed_from_expanded(tree, random_expanded_set(tree, rng))
        report = information_report(tree, ctree, cw)
        weights = [leaf.weight for _, leaf in ctree.leaves.items()]
        assert abs(sum(weights) - ctree.root_weight) < 1e-9
        if sum(weights) > 0:
            q = np.array(weights) / sum(weights)
            assert abs(report.partition_bits - ref_entropy(q)) < 1e-9
            for cid in cw.retain:
                marg = [leaf.marginals[cid] for _, leaf in ctree.leaves.items()]
                mi = ref_mutual_information(weights, marg)
                assert abs(report.relevant_bits[cid] - mi) < 1e-9


def test_candidate_counts():
    rng = np.random.default_rng(43)
    t1 = make_random_tree(rng, branching=2, depth=1, fill=1.0)
    assert count_candidate_trees(t1) == 2
    t2 = make_random_tree(rng, branching=4, depth=2, fill=1.0)
    assert count_candidate_trees(t2) == 17
    t3 = make_random_tree(rng, branching=8, depth=2, fill=1.0)
    assert count_candidate_trees(t3) == 257


def test_exhaustive_rejects_oversized_instances():
    rng = np.random.default_rng(44)
    tree = make_random_tree(rng, branching=4, depth=4, fill=1.0)
    cw = CompressionWeights({1: 1.0}, {}, 0.1)
    refresh_all(tree, cw)
    with pytest.raises(SizeLimitError):
        exhaustive_search(tree, cw)


def test_scale_invariance_of_kept_set():
    rng = np.random.default_rng(45)
    for _ in range(20):
        seed = int(rng.integers(0, 2**31))
        cw = random_weights(np.random.default_rng(seed + 1))
        kept_sets = []
        for c in (0.1, 1.0, 7.3):
            r = np.random.default_rng(seed)
            tree = scaled_leaves(make_random_tree(r, branching=4, depth=2, fill=0.8,
                                                  weight_range=(0.2, 3.0)), c)
            refresh_all(tree, cw)
            kept_sets.append(frozenset(compress_tree(tree, cw).expanded))
        assert kept_sets[0] == kept_sets[1] == kept_sets[2]


def test_alpha_monotonicity_on_unique_solutions():
    rng = np.random.default_rng(46)
    checked = 0
    for _ in range(40):
        tree = make_random_tree(rng, branching=2, depth=3, fill=0.9,
                                concentration=0.3)
        retain_w = float(rng.uniform(1.0, 4.0))
        a1 = float(rng.uniform(0.0, 0.1))
        a2 = a1 + float(rng.uniform(0.05, 0.3))
        kept = []
        unique = True
        for alpha in (a1, a2):
            cw = CompressionWeights({1: retain_w}, {}, alpha)
            refresh_all(tree, cw)
            if exhaustive_search(tree, cw).optimal_count != 1:
                unique = False
                break
            kept.append(frozenset(compress_tree(tree, cw).expanded))
        if unique:
            assert kept[1] <= kept[0]
            checked += 1
    assert checked >= 10


def test_summary_nodes_rejected_until_expanded():
    rng = np.random.default_rng(47)
    world = WorldConfig((0, 0, 0), 4.0, 2, branching=4)
    tree = SemanticOctree(world, 4)
    shared = random_truncated(rng, 4)
    for ix in range(4):
        for iy in range(4):
            tree.set_leaf((ix, iy), shared, 1.0)
    assert tree.prune_all_identical() > 0
    cw = CompressionWeights({1: 1.0}, {}, 0.1)
    with pytest.raises(SummaryError):
        compress_tree(tree, cw)
    with pytest.raises(SummaryError):
        exhaustive_search(tree, cw)
    tree.expand_summaries()
    refresh_all(tree, cw)
    ctree = compress_tree(tree, cw)
    assert ctree.expanded == set()  # homogeneous map compresses to the root


def test_compressed_tree_virtual_leaves_partition_weight():
    rng = np.random.default_rng(48)
    tree = make_random_tree(rng, branching=8, depth=2, fill=0.3)
    cw = CompressionWeights({c: 8.0 for c in range(1, 5)}, {}, 0.0)
    refresh_all(tree, cw)
    ctree = compress_tree(tree, cw)
    total = sum(leaf.weight for leaf in ctree.leaves.values())
    assert abs(total - ctree.root_weight) < 1e-9
    assert any(leaf.virtual for leaf in ctree.leaves.values())
    for leaf in ctree.leaves.values():
        if leaf.virtual:
            assert np.allclose(leaf.marginals, 1.0 / 5)


@settings(max_examples=40, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), branching=st.sampled_from([2, 4, 8]),
       shape=st.sampled_from(["empty", "root_only", "random"]))
def test_extraction_equals_the_node_by_node_reference(seed, branching, shape):
    """``compress_tree``, ``full_tree`` and ``compressed_from_expanded``
    keep the blocks as columns in key order; their columns, their ``kept``
    and ``leaves`` views and ``num_leaves`` equal ``ref_extraction`` bit for
    bit, with ``NodeKey`` keys."""
    rng = np.random.default_rng(seed)
    depth = {2: 4, 4: 3, 8: 2}[branching]
    if shape == "empty":
        tree = SemanticOctree(WorldConfig((0, 0, 0), 16.0, depth, branching), 4)
    else:
        tree = make_random_tree(rng, branching, depth, fill=float(rng.uniform(0.1, 1.0)))
    cw = random_weights(rng)
    if shape == "root_only":
        cw = CompressionWeights(cw.retain, cw.remove, 1e3)
    refresh_all(tree, cw)
    if shape != "random":  # the root alone, a virtual block on an empty map
        ctree = compress_tree(tree, cw)
        assert not ctree.expanded
        assert ctree.leaf_arrays.virtual.tolist() == [shape == "empty"]
    for ctree in (compress_tree(tree, cw), full_tree(tree),
                  compressed_from_expanded(tree, random_expanded_set(tree, rng))):
        kept, blocks = ref_extraction(tree, frozenset(ctree.expanded))
        keys = sorted(blocks)
        b = ctree.leaf_arrays
        assert list(zip(b.depth.tolist(), b.index.tolist())) == keys
        assert b.weight.tobytes() == np.array([blocks[k][0] for k in keys]).tobytes()
        assert b.marginals.tobytes() == np.array([blocks[k][1] for k in keys]).tobytes()
        assert b.virtual.tolist() == [blocks[k][2] for k in keys]
        assert not b.marginals.flags.writeable
        assert ctree.num_leaves == sum(not blocks[k][2] for k in keys)
        assert ctree.kept == kept
        assert all(type(k) is NodeKey for k in ctree.kept)
        assert list(ctree.leaves) == keys
        for key, leaf in ctree.leaves.items():
            weight, marginals, virtual = blocks[key]
            assert type(key) is NodeKey and leaf.key == key
            assert type(leaf.weight) is float and repr(leaf.weight) == repr(weight)
            assert leaf.marginals.tobytes() == np.asarray(marginals).tobytes()
            assert leaf.virtual is virtual


def test_build_and_compress_matches_manual_loop():
    rng = np.random.default_rng(49)
    world = WorldConfig((0, 0, 0), 8.0, 3, branching=8)
    cw = CompressionWeights({1: 2.0}, {2: 0.5}, 0.05)
    observations = [(rng.uniform(0, 8, 3), int(rng.integers(0, 5)),
                     float(rng.uniform(0.5, 0.95))) for _ in range(60)]
    t1 = SemanticOctree(world, 4)
    c1 = build_and_compress(t1, observations, cw)
    t2 = SemanticOctree(world, 4)
    for point, cid, conf in observations:
        leaf = t2.add_observation(point, cid, conf)
        refresh_upward(t2, leaf, cw)
    c2 = compress_tree(t2, cw)
    assert c1.expanded == c2.expanded
    assert set(c1.leaves) == set(c2.leaves)


def test_information_report_rejects_foreign_subtree():
    rng = np.random.default_rng(50)
    tree = make_random_tree(rng, branching=4, depth=2)
    other = make_random_tree(rng, branching=4, depth=2, fill=0.2)
    cw = CompressionWeights({1: 1.0}, {}, 0.1)
    refresh_all(tree, cw)
    refresh_all(other, cw)
    ctree = compress_tree(other, cw)
    ctree.expanded.add(other.world.key_from_coords((3, 3), 2))
    with pytest.raises(TreeError):
        information_report(tree, ctree, cw)


@settings(max_examples=40, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), branching=st.sampled_from([2, 4, 8]),
       shape=st.sampled_from(["empty", "root_only", "random"]))
def test_report_equals_full_tree_and_per_class_information(seed, branching, shape):
    """The one-pass report gives the full tree's leaf count and both trees'
    per-class bits exactly as ``full_tree`` and ``per_class_information``
    do, and the objective, partition and per-class bits of
    ``information_report``, bit for bit."""
    rng = np.random.default_rng(seed)
    depth = {2: 4, 4: 3, 8: 2}[branching]
    if shape == "empty":
        tree = SemanticOctree(WorldConfig((0, 0, 0), 16.0, depth, branching), 4)
    else:
        tree = make_random_tree(rng, branching, depth, fill=float(rng.uniform(0.1, 1.0)))
        coords = tuple(int(c) for c in rng.integers(0, 1 << depth, tree.world.dims))
        tree.set_leaf(coords, random_truncated(rng, 4), 0.0)
    cw = random_weights(rng)
    if shape == "root_only":
        cw = CompressionWeights(cw.retain, cw.remove, 1e3)
    refresh_all(tree, cw)
    ctree = compress_tree(tree, cw)
    if shape != "random":
        assert not ctree.expanded
    objective, partition_bits, leaves_full, full_bits, kept_bits = report(tree, ctree, cw)
    full = full_tree(tree)
    assert leaves_full == full.num_leaves
    assert repr(full_bits) == repr(per_class_information(tree, full))
    assert repr(kept_bits) == repr(per_class_information(tree, ctree))
    info = information_report(tree, ctree, cw)
    assert repr(partition_bits) == repr(info.partition_bits)
    assert repr(objective) == repr(info.objective)
    assert repr(info.relevant_bits) == repr({c: kept_bits[c] for c in cw.retain})
    assert repr(info.irrelevant_bits) == repr({c: kept_bits[c] for c in cw.remove})


@settings(max_examples=40, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), branching=st.sampled_from([2, 4, 8]),
       shape=st.sampled_from(["empty", "massless", "random"]))
def test_exhaustive_search_scores_every_candidate(seed, branching, shape):
    """The enumeration scores exactly ``count_candidate_trees`` candidates.
    An empty tree has one, the root alone; on a massless root (every leaf
    weight 0.0) every candidate keeps no information and pays for no
    split, so all of them are optimal with objective 0.0."""
    rng = np.random.default_rng(seed)
    depth = {2: 3, 4: 2, 8: 2}[branching]
    if shape == "empty":
        tree = SemanticOctree(WorldConfig((0, 0, 0), 16.0, depth, branching), 4)
    else:
        weights = (0.0, 0.0) if shape == "massless" else (0.2, 3.0)
        tree = make_random_tree(rng, branching, depth, fill=float(rng.uniform(0.1, 1.0)),
                                weight_range=weights)
    cw = random_weights(rng)
    refresh_all(tree, cw)
    result = exhaustive_search(tree, cw)
    assert result.candidate_count == count_candidate_trees(tree)
    if shape == "empty":
        assert result.candidate_count == 1
    if shape != "random":
        assert result.optimal_count == result.candidate_count
        assert result.best_objective == 0.0


@pytest.mark.parametrize("key", [NodeKey(1, 2**70), NodeKey(2**70, 0)])
def test_keys_beyond_int64_are_tree_errors(key):
    """A key whose depth or index int64 cannot hold is a ``TreeError``
    naming it, from every per-key entry point."""
    tree = make_random_tree(np.random.default_rng(5), branching=4, depth=2, fill=1.0)
    cw = CompressionWeights({1: 1.0}, {2: 0.5}, 0.05)
    refresh_all(tree, cw)
    calls = [lambda: tree.conditional(key), lambda: expansion_gain(tree, key, cw),
             lambda: weighted_gain(tree, key, cw),
             lambda: tree.prune_identical_children(key),
             lambda: compressed_from_expanded(tree, frozenset({ROOT_KEY, key}))]
    for call in calls:
        with pytest.raises(TreeError, match=re.escape(str(key))):
            call()


def test_weights_and_objectives_add_left_to_right(monkeypatch):
    """From Python 3.12 on, builtin ``sum`` of floats is compensated: it
    reads 1.0000000000000002 for 1.0 + 1e-16 + 1e-16, where adding left to
    right, as ``row_totals`` does, gives 1.0. Interior weights
    (``completed_weight``) and the objective sums of ``split_increments``,
    ``information_report`` and ``report`` add left to right on every
    version: with ``sum`` made exact, as 3.12's nearly is, no bit changes."""
    values = [1.0, 1e-16, 1e-16]
    assert left_sum(values) == 1.0 == row_totals(np.array([values]))[0]
    weights = np.array([values + [0.0]])
    assert completed_weight(values, 4) == row_totals(weights)[0] * 4 / 3
    cw = CompressionWeights({1: 1.3, 2: 0.7, 3: 2.9}, {4: 0.6, 5: 1.1}, 0.01)
    rng = np.random.default_rng(113)
    trees = [make_random_tree(rng, 4, 2, num_classes=6) for _ in range(20)]
    for tree in trees:
        refresh_all(tree, cw)

    def results():
        out = [completed_weight(values, 3)]
        for tree in trees:
            ctree = full_tree(tree)
            out += [information_report(tree, ctree, cw).objective, report(tree, ctree, cw)[0]]
            weights, dists, _, totals = tree.levels().child_sets(tree.rows(sorted(ctree.expanded)))
            for w, d, total in zip(weights, dists, totals.tolist()):
                marginals = {c: d[:, c] for c in range(1, 6)}
                out.append(split_increments(total, w, marginals, cw).reward)
        return out

    plain = results()
    assert plain[0] == 1.0
    monkeypatch.setattr(builtins, "sum", lambda items, start=0: math.fsum([start, *items]))
    assert sum(values) == 1.0000000000000002  # what Python 3.12.1 gives
    assert repr(results()) == repr(plain)
