"""Acceptance suite: one test per criterion, each printing a PASS line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
lines and timings.
"""

import copy
import hashlib
import time

import numpy as np
import pytest

from soct.cli import main as cli_main
from soct.compression import (
    CompressionWeights,
    compress_tree,
    compressed_from_expanded,
    exhaustive_search,
    expansion_gain,
    full_tree,
    information_report,
    per_class_information,
    refresh_all,
    refresh_upward,
    weighted_gain,
)
from soct.errors import CorruptionError, FormatError
from soct.formats import deserialize_tree, serialize_tree
from soct.infotheory import entropy
from soct.octree import SemanticOctree, WorldConfig
from soct.planning import (
    ColoredGraph,
    Edge,
    PlanQuery,
    class_ordered_astar,
)
from soct.semantics import truncate_full

from helpers import (
    DEMO_WEIGHTS,
    DEMO_WORLD,
    GRASS,
    ROAD,
    make_demo_cloud,
    make_random_tree,
    random_weights,
    scaled_leaves,
    ref_all_paths_best,
    ref_dijkstra_length,
    ref_mutual_information,
    write_cloud,
    zero_bad_path_exists,
)
from test_compression import random_expanded_set
from test_planning import random_colored_graph

TOL = 1e-9


def _report(name, elapsed, budget, detail=""):
    assert elapsed <= budget, f"{name} took {elapsed:.1f}s (budget {budget}s)"
    print(f"\nPASS  {name}  [{elapsed:.1f}s <= {budget}s] {detail}")


def _random_shape(rng):
    branching = int(rng.choice([2, 4, 8]))
    max_depth = {2: 4, 4: 3, 8: 2}[branching]
    return branching, int(rng.integers(1, max_depth + 1))


def test_criterion_1_gain_identity():
    start = time.monotonic()
    rng = np.random.default_rng(1001)
    nodes_checked = 0
    for _ in range(1000):
        branching, depth = _random_shape(rng)
        tree = make_random_tree(rng, branching, depth,
                                fill=float(rng.uniform(0.4, 1.0)))
        cw = random_weights(rng)
        for key, node in tree.nodes.items():
            g = weighted_gain(tree, key, cw)
            gp = expansion_gain(tree, key, cw)
            assert abs(g - node.weight * gp) <= TOL
            assert (g > 1e-12) == (gp > 1e-12)
            nodes_checked += 1
    _report("criterion 1: absolute gain = mass * relative gain",
            time.monotonic() - start, 60,
            f"({nodes_checked} nodes over 1000 trees)")


def test_criterion_2_search_matches_exhaustive_optimum():
    start = time.monotonic()
    rng = np.random.default_rng(1002)
    shapes = ([(2, 3, 1.0)] * 100 + [(4, 2, 1.0)] * 40 + [(8, 1, 1.0)] * 30
              + [(2, 4, 0.9)] * 20 + [(8, 2, 0.5)] * 10)
    for branching, depth, fill in shapes:
        tree = make_random_tree(rng, branching, depth, fill=fill,
                                concentration=0.3)
        cw = random_weights(rng, alpha_range=(0.0, 0.12),
                            retain_range=(1.0, 4.0), remove_range=(0.0, 0.4))
        refresh_all(tree, cw)
        best = exhaustive_search(tree, cw).best_objective
        objective = information_report(tree, compress_tree(tree, cw), cw).objective
        assert abs(objective - best) <= TOL
    _report("criterion 2: extraction equals the exhaustive optimum",
            time.monotonic() - start, 120, f"({len(shapes)} instances)")


def test_criterion_3_telescoping_identities():
    start = time.monotonic()
    rng = np.random.default_rng(1003)
    for _ in range(100):
        branching, depth = _random_shape(rng)
        tree = make_random_tree(rng, branching, depth, fill=0.85)
        cw = random_weights(rng)
        refresh_all(tree, cw)
        ctree = compressed_from_expanded(tree, random_expanded_set(tree, rng))
        report = information_report(tree, ctree, cw)
        weights = [leaf.weight for _, leaf in ctree.leaf_items()]
        q = np.array(weights) / sum(weights)
        assert abs(report.partition_bits - entropy(q)) <= TOL
        for cid in list(cw.retain) + list(cw.remove):
            marg = [leaf.marginals[cid] for _, leaf in ctree.leaf_items()]
            mi = ref_mutual_information(weights, marg)
            got = (report.relevant_bits.get(cid)
                   if cid in cw.retain else report.irrelevant_bits.get(cid))
            assert abs(got - mi) <= TOL
    _report("criterion 3: increment sums telescope to entropy and MI",
            time.monotonic() - start, 60)


def test_criterion_4_incremental_equals_batch():
    start = time.monotonic()
    rng = np.random.default_rng(1004)
    world = WorldConfig((0, 0, 0), 8.0, 3, branching=8)
    tree = SemanticOctree(world, 5)
    cw = random_weights(rng, num_classes=5)
    for _ in range(100):
        point = rng.uniform(0, 8, 3)
        leaf = tree.add_observation(point, int(rng.integers(0, 6)),
                                    float(rng.uniform(0.5, 0.95)))
        refresh_upward(tree, leaf, cw)
        reference = copy.deepcopy(tree)
        refresh_all(reference, cw)
        for key, node in tree.nodes.items():
            assert abs(node.gain - reference.nodes[key].gain) <= TOL
            assert abs(node.weight - reference.nodes[key].weight) <= TOL
    _report("criterion 4: path-local cache updates equal batch recomputation",
            time.monotonic() - start, 60)


def test_criterion_5_limit_behaviors():
    start = time.monotonic()
    rng = np.random.default_rng(1005)
    tree = make_random_tree(rng, branching=4, depth=3, num_classes=4,
                            fill=0.9, concentration=0.4)
    # (a) everything relevant, no size penalty: retention exactly 1.0
    cw = CompressionWeights({c: 5.0 for c in range(5)}, {}, 0.0)
    refresh_all(tree, cw)
    kept = per_class_information(tree, compress_tree(tree, cw))
    full = per_class_information(tree, full_tree(tree))
    for cid in range(5):
        if full[cid] > 0:
            assert kept[cid] / full[cid] == 1.0
    # (b) dominant size penalty: root-only tree
    retain_sum = 5.0 * 5
    cw = CompressionWeights({c: 5.0 for c in range(5)}, {}, 1e3 * retain_sum)
    refresh_all(tree, cw)
    ctree = compress_tree(tree, cw)
    n_full = full_tree(tree).num_leaves
    assert ctree.num_leaves == 1
    assert ctree.num_leaves / n_full == 1.0 / n_full
    _report("criterion 5: all-relevant keeps everything, huge alpha keeps root",
            time.monotonic() - start, 60)


def _suppression_map(rng):
    """One relevant corridor texture next to a textured irrelevant field."""
    world = WorldConfig((0, 0, 0), 16.0, 4, branching=4)
    tree = SemanticOctree(world, 4)
    for ix in range(16):
        for iy in range(16):
            probs = np.full(5, 0.01)
            if ix < 8:
                road = 0.82 if (ix + iy) % 2 == 0 else 0.10
                road += float(rng.uniform(-0.03, 0.03))
                probs[ROAD] = road
                probs[GRASS] = 0.92 - road
                probs[0] = 0.05
            else:
                grass = 0.55 + float(rng.uniform(0, 0.35))
                probs[GRASS] = grass
                probs[0] = 0.95 - grass
            probs[3] = 1.0 - probs.sum() + probs[3]
            tree.set_leaf((ix, iy), truncate_full(probs))
    return tree


def test_criterion_6_irrelevance_suppression():
    start = time.monotonic()
    rng = np.random.default_rng(1006)
    tree = _suppression_map(rng)
    results = {}
    for removal in (0.05, 6.0):
        cw = CompressionWeights({ROAD: 2.0}, {GRASS: removal}, 0.01)
        refresh_all(tree, cw)
        ctree = compress_tree(tree, cw)
        kept = per_class_information(tree, ctree)[GRASS]
        full = per_class_information(tree, full_tree(tree))[GRASS]
        results[removal] = (kept / full, ctree.num_leaves)
    low_ret, low_leaves = results[0.05]
    high_ret, high_leaves = results[6.0]
    assert high_ret < low_ret
    assert high_leaves < low_leaves
    _report("criterion 6: raising the removal weight suppresses that class",
            time.monotonic() - start, 60,
            f"(retention {low_ret:.3f}->{high_ret:.3f}, "
            f"leaves {low_leaves}->{high_leaves})")


def test_criterion_7_search_correctness():
    start = time.monotonic()
    rng = np.random.default_rng(1007)
    solved = 0
    for _ in range(200):
        g = random_colored_graph(rng, n=int(rng.integers(5, 13)))
        query = PlanQuery(0, g.num_vertices - 1, undesired={2})
        result = class_ordered_astar(g, query)
        ref = ref_all_paths_best(g, query)
        if ref is None:
            assert result is None
            continue
        assert result.undesired_edges == ref[0]
        assert abs(result.length - ref[1]) <= TOL
        plain = class_ordered_astar(g, PlanQuery(0, g.num_vertices - 1))
        dij = ref_dijkstra_length(g, 0, g.num_vertices - 1)
        assert abs(plain.length - dij) <= TOL
        solved += 1
    assert solved >= 150
    _report("criterion 7: lexicographic search equals path enumeration",
            time.monotonic() - start, 120, f"({solved} solvable instances)")


def test_criterion_8_scale_invariance():
    start = time.monotonic()
    rng = np.random.default_rng(1008)
    for _ in range(50):
        seed = int(rng.integers(0, 2**31))
        branching, depth = _random_shape(np.random.default_rng(seed))
        cw = random_weights(np.random.default_rng(seed + 1))
        kept_sets = []
        for c in (0.1, 1.0, 7.3):
            r = np.random.default_rng(seed)
            _random_shape(r)  # keep the stream aligned with the shape draw
            tree = scaled_leaves(make_random_tree(r, branching, depth, fill=0.8), c)
            refresh_all(tree, cw)
            kept_sets.append(frozenset(compress_tree(tree, cw).expanded))
        assert kept_sets[0] == kept_sets[1] == kept_sets[2]
    _report("criterion 8: leaf-weight rescaling never changes the kept set",
            time.monotonic() - start, 60)


def test_criterion_9_serialization(tmp_path):
    start = time.monotonic()
    rng = np.random.default_rng(1009)
    for i in range(50):
        branching, depth = _random_shape(rng)
        tree = make_random_tree(rng, branching, depth,
                                num_classes=int(rng.integers(4, 9)),
                                fill=float(rng.uniform(0.3, 1.0)))
        p1 = tmp_path / f"a{i}.soct"
        p2 = tmp_path / f"b{i}.soct"
        serialize_tree(tree, p1)
        serialize_tree(deserialize_tree(p1), p2)
        assert p1.read_bytes() == p2.read_bytes()
    good = tmp_path / "a0.soct"
    bad = tmp_path / "bad.soct"
    bad.write_bytes(b"NOPE" + good.read_bytes()[4:])
    with pytest.raises(FormatError):
        deserialize_tree(bad)
    data = bytearray(good.read_bytes())
    data[4] = 255
    bad.write_bytes(bytes(data))
    with pytest.raises(FormatError):
        deserialize_tree(bad)
    bad.write_bytes(good.read_bytes()[:-9])
    with pytest.raises(CorruptionError):
        deserialize_tree(bad)
    _report("criterion 9: bit-exact round trips, corrupted files rejected",
            time.monotonic() - start, 60)


def _parse_graph_csv(path):
    lines = path.read_text().splitlines()
    n = int(lines[0].split(",")[1])
    positions = np.zeros((n, 2))
    colors = np.zeros(n, dtype=int)
    edges = []
    for line in lines[1:]:
        parts = line.split(",")
        if parts[0] == "v":
            idx = int(parts[1])
            positions[idx] = (float(parts[2]), float(parts[3]))
            colors[idx] = int(parts[4])
        elif parts[0] == "e":
            edges.append(Edge(int(parts[1]), int(parts[2]),
                              float(parts[3]), int(parts[4])))
    return ColoredGraph(positions, colors, edges)


def test_criterion_10_end_to_end_pipeline(tmp_path, capsys):
    start = time.monotonic()
    rng = np.random.default_rng(1010)
    records = make_demo_cloud(rng)
    assert len(records) >= 49_000
    (tmp_path / "world.cfg").write_text(DEMO_WORLD)
    (tmp_path / "weights.cfg").write_text(DEMO_WEIGHTS)
    write_cloud(tmp_path / "cloud.csv", records)

    def run(argv):
        code = cli_main([str(a) for a in argv])
        out = capsys.readouterr()
        assert code == 0, out.err
        return out.out

    def sha256(data):
        return hashlib.sha256(data).hexdigest()

    run(["build", "--world", tmp_path / "world.cfg",
         "--cloud", tmp_path / "cloud.csv", "--out", tmp_path / "tree.soct"])
    # The demo tree, byte for byte, as the record-by-record build wrote it.
    assert sha256((tmp_path / "tree.soct").read_bytes()) == (
        "3c114fbad1b86c4fc35b599a1bec85e533ab492d6a21ae85d361f35d817b3b90")
    report = run(["compress", "--tree", tmp_path / "tree.soct",
                  "--weights", tmp_path / "weights.cfg",
                  "--out-leaves", tmp_path / "leaves.csv"])
    fields = dict(line.split(None, 1) for line in report.splitlines()
                  if line and not line.startswith("class"))
    assert int(fields["leaves_kept"]) < int(fields["leaves_full"])
    report_out = run(["report", "--tree", tmp_path / "tree.soct",
                      "--weights", tmp_path / "weights.cfg"])
    run(["export", "--tree", tmp_path / "tree.soct",
         "--weights", tmp_path / "weights.cfg",
         "--what", "graph", "--out", tmp_path / "graph.csv"])
    plan_out = run(["plan", "--tree", tmp_path / "tree.soct",
                    "--weights", tmp_path / "weights.cfg",
                    "--start", "2.5,31.5", "--goal", "61.5,32.5"])
    plan = dict(line.split(None, 1) for line in plan_out.splitlines()
                if line and not line.startswith(("path", "vertex")))
    assert plan["status"] == "ok"
    # Every demo output, byte for byte, as the parent implementations gave it.
    digests = {
        "compress": sha256(report.encode()),
        "leaves.csv": sha256((tmp_path / "leaves.csv").read_bytes()),
        "report": sha256(report_out.encode()),
        "graph.csv": sha256((tmp_path / "graph.csv").read_bytes()),
        "plan": sha256(plan_out.encode()),
    }
    report_digest = "4cec234cf8416a299d63b6e8b58a5e12ee2242996cb4015218e3fdd9e1fe16d7"
    assert digests == {
        "compress": report_digest,
        "leaves.csv": "da6f09309255c425f7bbaebd2862711aa9f877430d9dc229f23d1ceb466ab14a",
        "report": report_digest,
        "graph.csv": "f642687770b4552bb89239b92eef2e21573e8b3af5ae1a4f909dd448b507981f",
        "plan": "7ef597fa38395727432f53ae2aad722a6a6459f468def1ba0a7c80f833484d78",
    }

    graph = _parse_graph_csv(tmp_path / "graph.csv")
    query = PlanQuery(int(plan["start_vertex"]), int(plan["goal_vertex"]),
                      undesired={GRASS, 3}, relevant={ROAD})
    if zero_bad_path_exists(graph, query):
        assert int(plan["undesired_edges"]) == 0
    result = class_ordered_astar(graph, query)
    assert result is not None
    assert result.undesired_edges == int(plan["undesired_edges"])
    assert abs(result.length - float(plan["length"])) <= 1e-6
    _report("criterion 10: end-to-end build/compress/report/plan pipeline",
            time.monotonic() - start, 120,
            f"({len(records)} records, kept {fields['leaves_kept']} of "
            f"{fields['leaves_full']} leaves, "
            f"{plan['undesired_edges']} undesired edges)")
