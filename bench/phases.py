"""The three phases a benchmark run is made of.

Each phase prepares its inputs untimed, runs its operations in a closed
loop with one client (the next stage, record or query starts when the
previous one returns), and checks the outputs afterwards, outside the
timed region. ``run(probe)`` returns the artifacts and timings; it calls
``probe()``, which returns the seconds it took, between stages and every
``PROBE_EVERY`` records or queries, and leaves that time out of every
stage and latency. ``check()`` returns the indices of failed operations
with a message for each. Each
phase is timed as three stages, named in ``NAMES`` (the three stages,
then their sum); ``LATENCY`` names the per-operation latency it reports,
if any: (rate name, percentile prefix, unit, scale, percentiles).

* ``CliPhase``: ``soct build``, ``compress --out-leaves`` and ``plan``
  through ``soct.cli.main``.
* ``StreamPhase``: ``add_observation`` + ``refresh_upward`` per record over
  three sweeps of the world, then ``compress_tree``.
* ``QueriesPhase``: map file to colored tree graph, a Halton baseline graph,
  then Class-Ordered A* queries on both.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import os
import time
import traceback

import numpy as np

import reference
import workloads as W
from soct import cli, compression, formats, planning
from soct.octree import SemanticOctree

K_NEIGHBORS = 8
PROBE_EVERY = 256  # streamed records or queries between two probes


def no_probe() -> float:
    return 0.0


def _sha(data: bytes | str) -> str:
    if isinstance(data, str):
        data = data.encode("utf-8")
    return hashlib.sha256(data).hexdigest()


def _roles():
    registry = formats.parse_weights_config(W.WEIGHTS).registry()
    return planning.PlanQuery(0, 0, undesired=registry.irrelevant_ids,
                              relevant=registry.relevant_ids)


def run_cli(argv) -> tuple[int, str, str]:
    """(exit code, stdout, stderr) of one in-process ``soct`` command."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = cli.main([str(a) for a in argv])
        except SystemExit as exc:
            code = exc.code if isinstance(exc.code, int) else 2
        except Exception:
            traceback.print_exc()
            code = 99
    return code, out.getvalue(), err.getvalue()


def _fields(stdout: str) -> dict[str, str]:
    return dict(line.split(None, 1) for line in stdout.splitlines()
                if " " in line and not line.startswith(("class ", "vertex ", "path ")))


class CliPhase:
    """build -> compress --out-leaves -> plan on an n x n x 8-cell world."""

    STAGES = ("build", "compress", "plan")
    NAMES = ("build_s", "compress_s", "plan_s", "pipeline_s")
    LATENCY = None

    def __init__(self, workdir: str, n: int, depth: int, rng, jitter=None):
        self.n, self.depth = n, depth
        self.dir = os.path.join(workdir, f"cli{n}")
        os.makedirs(self.dir, exist_ok=True)
        self.path = {name: os.path.join(self.dir, name) for name in (
            "world.cfg", "weights.cfg", "cloud.csv", "map.soct", "leaves.csv")}
        text = W.cloud_text(W.make_cloud(rng, n, jitter=jitter))
        self.records = W.parse_cloud(text)
        for name, content in (("world.cfg", W.world_text(n, depth)),
                              ("weights.cfg", W.WEIGHTS), ("cloud.csv", text)):
            with open(self.path[name], "w", encoding="utf-8") as fh:
                fh.write(content)
        s = n / 64.0
        p = self.path
        self.argv = {
            "build": ["build", "--world", p["world.cfg"], "--cloud", p["cloud.csv"],
                      "--out", p["map.soct"]],
            "compress": ["compress", "--tree", p["map.soct"], "--weights",
                         p["weights.cfg"], "--out-leaves", p["leaves.csv"]],
            "plan": ["plan", "--tree", p["map.soct"], "--weights", p["weights.cfg"],
                     "--start", f"{2.5 * s},{31.5 * s}",
                     "--goal", f"{61.5 * s},{32.5 * s}"],
        }

    @property
    def operations(self) -> int:
        return len(self.STAGES)

    def run(self, probe=no_probe) -> dict:
        out = {}
        for stage in self.STAGES:
            probe()
            t0 = time.perf_counter()
            out[stage] = run_cli(self.argv[stage])
            out[stage + "_s"] = time.perf_counter() - t0
        return out

    def stage_times(self, out: dict) -> list[float]:
        return [out[f"{s}_s"] for s in self.STAGES]

    def latencies(self, out: dict) -> list[float]:
        return []

    def check(self, out: dict) -> dict[int, str]:
        failed = {}
        for i, stage in enumerate(self.STAGES):
            code, _, err = out[stage]
            no_path = stage == "plan" and code == 1 and "error: no-path" in err
            if code != 0 and not no_path:
                failed[i] = f"{stage} exited {code}: {err.strip()[-300:]}"
        if failed:
            return failed
        checks = (self._check_build(out), self._check_compress(out),
                  self._check_plan(out))
        return {i: msg for i, msg in enumerate(checks) if msg}

    def _check_build(self, out) -> str | None:
        fields = _fields(out["build"][1])
        nodes, leaves = reference.tree_counts(self.records, self.n, self.depth)
        want = {"records_inserted": len(self.records), "record_errors": 0,
                "stored_nodes": nodes, "stored_leaves": leaves}
        got = {k: int(fields.get(k, -1)) for k in want}
        if got != want:
            return f"build reported {got}, expected {want}"
        with open(self.path["map.soct"], "rb") as fh:
            data = fh.read()
        expected = reference.encode_tree(self.records, self.n, self.depth,
                                         W.NUM_CLASSES)
        if data != expected:
            at = next((i for i, (a, b) in enumerate(zip(data, expected)) if a != b),
                      min(len(data), len(expected)))
            return f"tree file differs from the reference encoding at byte {at}"
        return None

    def _check_compress(self, out) -> str | None:
        fields = _fields(out["compress"][1])
        with open(self.path["leaves.csv"], encoding="utf-8") as fh:
            rows = fh.read().splitlines()
        if rows[0] != "cx,cy,cz,sx,sy,sz,depth,class_id,weight,virtual":
            return "leaves CSV header differs"
        volume, observed = 0.0, 0
        for row in rows[1:]:
            parts = row.split(",")
            volume += float(parts[3]) * float(parts[4]) * float(parts[5])
            observed += parts[9] == "0"
        _, leaves = reference.tree_counts(self.records, self.n, self.depth)
        if volume != float(self.n) ** 3:
            return f"kept blocks cover volume {volume}, world is {self.n ** 3}"
        if int(fields.get("leaves_kept", -1)) != observed:
            return "leaves_kept differs from the observed rows of the leaves CSV"
        if int(fields.get("leaves_full", -1)) != leaves:
            return f"leaves_full {fields.get('leaves_full')}, expected {leaves}"
        return None

    def _check_plan(self, out) -> str | None:
        stdout = out["plan"][1]
        fields = _fields(stdout)
        if fields.get("status") == "no-path":
            return self._check_no_path(fields)
        if fields.get("status") != "ok":
            return "plan printed no status"
        path = [int(v) for v in next(
            line for line in stdout.splitlines() if line.startswith("path ")).split()[1:]]
        vertex_lines = [ln for ln in stdout.splitlines() if ln.startswith("vertex ")]
        if (path[0] != int(fields["start_vertex"]) or path[-1] != int(fields["goal_vertex"])
                or len(vertex_lines) != len(path)
                or [int(ln.split()[1]) for ln in vertex_lines] != path):
            return "plan path does not run from start_vertex to goal_vertex"
        if float(fields["length"]) <= 0 or int(fields["undesired_edges"]) < 0:
            return "plan cost out of range"
        return None

    def _check_no_path(self, fields) -> str | None:
        """Confirm "no-path" on an independently checked copy of plan's graph.

        The k-nearest-neighbor graph can be disconnected: blocks stacked
        above one another share a 2-d position, and the zero-length edges
        between them are dropped, so a stack can fill its own neighbor list.
        """
        tree = formats.deserialize_tree(self.path["map.soct"])
        tree.expand_summaries()
        cw = formats.parse_weights_config(W.WEIGHTS).compression_weights()
        compression.refresh_all(tree, cw)
        ctree = compression.compress_tree(tree, cw)
        roles = _roles()
        graph = planning.graph_from_tree(ctree, roles, K_NEIGHBORS)
        bad = reference.check_tree_graph(ctree, graph, roles.undesired, roles.relevant)
        if bad:
            return f"plan graph: {len(bad)} mismatches, first: {bad[0]}"
        ends = []
        for name in ("start", "goal"):
            xy = np.array([float(v) for v in self.argv["plan"][
                self.argv["plan"].index(f"--{name}") + 1].split(",")])
            d2 = ((graph.positions - xy) ** 2).sum(axis=1)
            v = int(fields.get(f"{name}_vertex", -1))
            if not 0 <= v < graph.num_vertices or d2[v] > d2.min() + 1e-9:
                return f"plan {name}_vertex {v} is not a vertex nearest to {xy}"
            ends.append(v)
        if reference.LexDijkstra(graph, roles.undesired).cost(*ends) is not None:
            return "plan printed no-path, but a path exists"
        return None

    def fingerprints(self, out: dict) -> dict[str, str]:
        with open(self.path["map.soct"], "rb") as fh:
            tree = fh.read()
        with open(self.path["leaves.csv"], "rb") as fh:
            leaves = fh.read()
        return {"tree_sha256": _sha(tree), "leaves_csv_sha256": _sha(leaves),
                "compress_stdout_sha256": _sha(out["compress"][1]),
                "plan_stdout_sha256": _sha(out["plan"][1])}

    def stored(self, out: dict) -> tuple[int, int]:
        fields = _fields(out["build"][1])
        return int(fields.get("stored_nodes", 0)), int(fields.get("stored_leaves", 0))


class StreamPhase:
    """Incremental cache maintenance over three sweeps with independent noise."""

    # The first sweep creates the leaves, the later ones mostly update them.
    NAMES = ("pass1_s", "pass2_s", "pass3_compress_s", "stream_s")
    LATENCY = ("stream_records_per_s", "stream_update", "us", 1e6, (50, 99))

    def __init__(self, n: int, depth: int, rng, jitter=None):
        self.world, self.num_classes = formats.parse_world_config(W.world_text(n, depth))
        self.cw = formats.parse_weights_config(W.WEIGHTS).compression_weights()
        self.passes = [W.make_cloud(rng, n, jitter=jitter) for _ in range(3)]

    @property
    def operations(self) -> int:
        return sum(len(records) for records in self.passes) + 1

    def run(self, probe=no_probe) -> dict:
        tree = SemanticOctree(self.world, self.num_classes)
        cw = self.cw
        latencies, stages = [], []
        clock = time.perf_counter
        for records in self.passes:
            probe()
            probed, t0 = 0.0, clock()
            for i, (x, y, z, cid, conf) in enumerate(records, 1):
                t = clock()
                leaf = tree.add_observation((x, y, z), cid, conf)
                compression.refresh_upward(tree, leaf, cw)
                latencies.append(clock() - t)
                if i % PROBE_EVERY == 0:
                    probed += probe()
            stages.append(clock() - t0 - probed)
        probe()
        t0 = clock()
        ctree = compression.compress_tree(tree, cw)
        stages[-1] += clock() - t0  # the third stage ends with the compression
        return {"tree": tree, "ctree": ctree, "latencies": latencies, "stages": stages}

    def stage_times(self, out: dict) -> list[float]:
        return out["stages"]

    def latencies(self, out: dict) -> list[float]:
        return out["latencies"]

    def check(self, out: dict) -> dict[int, str]:
        bad = reference.cache_mismatches(out["tree"], self.cw, out["ctree"],
                                         compression.refresh_all,
                                         compression.compress_tree)
        if bad:
            return {self.operations - 1: f"{len(bad)} cache mismatches, first: {bad[0]}"}
        return {}

    def fingerprints(self, out: dict) -> dict[str, str]:
        tree = out["tree"]
        h = hashlib.sha256()
        for key in sorted(tree.nodes):
            node = tree.nodes[key]
            h.update(repr((tuple(key), node.weight, node.gain)).encode())
        h.update(repr(sorted(out["ctree"].kept)).encode())
        return {"stream_caches_sha256": h.hexdigest()}

    def stored(self, out: dict) -> tuple[int, int]:
        return len(out["tree"].nodes), out["tree"].leaf_count()


class QueriesPhase:
    """Read-only map use: tree graph, Halton graph, Class-Ordered A* queries."""

    TREE_QUERIES, HALTON_QUERIES = 1000, 100
    NAMES = ("tree_graph_s", "halton_graph_s", "astar_s", "queries_s")
    LATENCY = ("queries_per_s", "query", "ms", 1e3, (50, 95))

    def __init__(self, workdir: str, n: int, depth: int, map_rng, pair_seed):
        self.dir = os.path.join(workdir, f"queries{n}")
        os.makedirs(self.dir, exist_ok=True)
        self.tree_path = os.path.join(self.dir, "map.soct")
        records = W.make_cloud(map_rng, n)
        with open(self.tree_path, "wb") as fh:
            fh.write(reference.encode_tree(records, n, depth, W.NUM_CLASSES))
        self.cw = formats.parse_weights_config(W.WEIGHTS).compression_weights()
        self.roles = _roles()
        # Halton vertices keep one density: 2,048 on the 64-unit demo world.
        self.halton_n = 2048 * n * n // (64 * 64)
        self.pair_seed = pair_seed

    @property
    def operations(self) -> int:
        return 2 + self.TREE_QUERIES + self.HALTON_QUERIES

    @staticmethod
    def _pairs(rng, count: int, vertices: int) -> list[tuple[int, int]]:
        starts = rng.integers(0, vertices, count)
        offsets = rng.integers(1, vertices, count)
        return [(int(s), int((s + o) % vertices)) for s, o in zip(starts, offsets)]

    def _queries(self, graph, pairs, probe) -> tuple[list, list[float], float]:
        """(results, latencies, seconds spent in ``probe``)."""
        results, latencies, probed = [], [], 0.0
        undesired, relevant = self.roles.undesired, self.roles.relevant
        clock = time.perf_counter
        for i, (s, g) in enumerate(pairs, 1):
            query = planning.PlanQuery(s, g, undesired=undesired, relevant=relevant)
            t = clock()
            results.append(planning.class_ordered_astar(graph, query))
            latencies.append(clock() - t)
            if i % PROBE_EVERY == 0:
                probed += probe()
        return results, latencies, probed

    def run(self, probe=no_probe) -> dict:
        clock = time.perf_counter
        probe()
        t0 = clock()
        tree = formats.deserialize_tree(self.tree_path)
        tree.expand_summaries()
        compression.refresh_all(tree, self.cw)
        ctree = compression.compress_tree(tree, self.cw)
        graph = planning.graph_from_tree(ctree, self.roles, K_NEIGHBORS)
        graph_s = clock() - t0
        probe()
        t0 = clock()
        halton = planning.halton_graph(tree.world, tree, self.halton_n,
                                       K_NEIGHBORS, self.roles)
        halton_s = clock() - t0
        rng = np.random.default_rng(self.pair_seed)
        pairs = self._pairs(rng, self.TREE_QUERIES, graph.num_vertices)
        hpairs = self._pairs(rng, self.HALTON_QUERIES, halton.num_vertices)
        probe()
        t0 = clock()
        results, latencies, probed = self._queries(graph, pairs, probe)
        hresults, _, hprobed = self._queries(halton, hpairs, probe)
        queries_s = clock() - t0 - probed - hprobed
        return {"tree": tree, "ctree": ctree, "graph": graph, "halton": halton,
                "stages": [graph_s, halton_s, queries_s],
                "pairs": pairs, "results": results, "latencies": latencies,
                "hpairs": hpairs, "hresults": hresults}

    def stage_times(self, out: dict) -> list[float]:
        return out["stages"]

    def latencies(self, out: dict) -> list[float]:
        """Latency of each query on the tree graph."""
        return out["latencies"]

    def check(self, out: dict) -> dict[int, str]:
        undesired, relevant = self.roles.undesired, self.roles.relevant
        failed = {}
        bad = reference.check_tree_graph(out["ctree"], out["graph"], undesired, relevant)
        if bad:
            failed[0] = f"tree graph: {len(bad)} mismatches, first: {bad[0]}"
        bad = reference.check_halton_graph(out["tree"], out["halton"], self.halton_n,
                                           undesired, relevant)
        if bad:
            failed[1] = f"Halton graph: {len(bad)} mismatches, first: {bad[0]}"
        op = 2
        for graph, pairs, results in ((out["graph"], out["pairs"], out["results"]),
                                      (out["halton"], out["hpairs"], out["hresults"])):
            ref = reference.LexDijkstra(graph, undesired)
            for (s, g), result in zip(pairs, results):
                msg = reference.query_mismatch(ref, s, g, result)
                if msg:
                    failed[op] = msg
                op += 1
        return failed

    def fingerprints(self, out: dict) -> dict[str, str]:
        h = hashlib.sha256()
        for result in out["results"] + out["hresults"]:
            h.update(repr(None if result is None else
                          (result.undesired_edges, result.length)).encode())
        return {"tree_graph_sha256": reference.graph_fingerprint(out["graph"]),
                "halton_graph_sha256": reference.graph_fingerprint(out["halton"]),
                "query_costs_sha256": h.hexdigest()}

    def stored(self, out: dict) -> tuple[int, int]:
        return len(out["tree"].nodes), out["tree"].leaf_count()
