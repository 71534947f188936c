"""Independent oracles for the benchmark's correctness gates.

Nothing here calls the soct code under test to produce an expected value.
The tree encoder re-derives the build output from the cloud records and
the documented ``SOCT`` layout, using the same floating-point operations
as the fusion rule, so its bytes must equal the CLI's exactly. The graph
checks re-color every vertex and edge with their own block lookups, and the
query check is a plain lexicographic Dijkstra over its own adjacency lists.
"""

from __future__ import annotations

import copy
import hashlib
import heapq
import math
import struct

import numpy as np

UNKNOWN = -1
BRANCHING = 8
DIMS = 3


# -- tree file ----------------------------------------------------------------


def _fuse(prior: list[float], obs: int, conf: float) -> list[float]:
    k = len(prior) - 1
    other = (1.0 - conf) / k
    post = [p * (conf if cid == obs else other) for cid, p in enumerate(prior)]
    total = 0.0
    for v in post:
        total += v
    return [v / total for v in post]


def _truncate(probs: list[float]) -> tuple:
    k = len(probs) - 1
    order = sorted(range(1, k + 1), key=lambda c: (-probs[c], c))
    top = tuple((c, probs[c]) for c in order[:3] if probs[c] > 0.0)
    residual = 0.0
    for c in order[3:]:
        residual += probs[c]
    return top, probs[0], residual


def _expand(record: tuple, k: int) -> list[float]:
    top, p_free, residual = record
    share = residual / (k - 3)
    probs = [share] * (k + 1)
    probs[0] = p_free
    for cid, p in top:
        probs[cid] = p
    return probs


def morton(coords, depth: int):
    """Bit-interleaved index of integer cell coordinates (x bit first)."""
    code = coords[0] * 0
    for bit in range(depth):
        for axis in range(DIMS):
            code |= ((coords[axis] >> bit) & 1) << (bit * DIMS + axis)
    return code


def fuse_leaves(records, edge: float, depth: int, k: int) -> dict[int, tuple]:
    """Finest-cell Morton index -> truncated record after fusing in file order."""
    leaf_size = edge / (1 << depth)
    n = 1 << depth
    leaves: dict[int, tuple] = {}
    uniform = [1.0 / (k + 1)] * (k + 1)
    for x, y, z, cid, conf in records:
        coords = tuple(min(int(v // leaf_size), n - 1) for v in (x, y, z))
        index = morton(coords, depth)
        prior = _expand(leaves[index], k) if index in leaves else uniform
        leaves[index] = _truncate(_fuse(prior, cid, conf))
    return leaves


def encode_tree(records, edge: float, depth: int, k: int) -> bytes:
    """The ``SOCT`` file a build of ``records`` must produce (origin 0)."""
    leaves = fuse_leaves(records, edge, depth, k)
    children: dict[tuple[int, int], list[int]] = {}
    for index in leaves:
        for d in range(depth):
            parent = (d, index >> (DIMS * (depth - d)))
            octant = (index >> (DIMS * (depth - d - 1))) & (BRANCHING - 1)
            kids = children.setdefault(parent, [])
            if octant not in kids:
                kids.append(octant)
    weights: dict[tuple[int, int], float] = {(depth, i): 1.0 for i in leaves}
    for d in reversed(range(depth)):
        for (pd, pi), kids in children.items():
            if pd != d:
                continue
            kids.sort()
            total = 0
            for o in kids:
                total += weights[(d + 1, (pi << DIMS) | o)]
            m = len(kids)
            weights[(d, pi)] = total + (BRANCHING - m) * (total / m)
    out = [b"SOCT", struct.pack("<B", 1), struct.pack("<3d", 0.0, 0.0, 0.0),
           struct.pack("<dBBH", float(edge), depth, BRANCHING, k)]

    def write(d: int, index: int) -> None:
        if d == depth:
            top, p_free, residual = leaves[index]
            out.append(struct.pack("<BdB", 1, 1.0, len(top)))
            for cid, p in top:
                out.append(struct.pack("<Hd", cid, p))
            out.append(struct.pack("<dd", p_free, residual))
            return
        kids = children[(d, index)]
        mask = 0
        for o in kids:
            mask |= 1 << o
        out.append(struct.pack("<BdB", 0, weights[(d, index)], mask))
        for o in kids:
            write(d + 1, (index << DIMS) | o)

    write(0, 0)
    return b"".join(out)


def tree_counts(records, edge: float, depth: int) -> tuple[int, int]:
    """(stored nodes, stored leaves) of the tree built from ``records``."""
    leaf_size = edge / (1 << depth)
    n = 1 << depth
    cells = {morton(tuple(min(int(v // leaf_size), n - 1) for v in r[:3]), depth)
             for r in records}
    nodes = set()
    for index in cells:
        for d in range(depth + 1):
            nodes.add((d, index >> (DIMS * (depth - d))))
    return len(nodes), len(cells)


# -- graph colors ---------------------------------------------------------------


def _tier(cid: int, undesired, relevant) -> tuple[int, int]:
    """Severity order used for edge colors: higher is more undesired."""
    if cid in undesired:
        tier = 4
    elif cid == UNKNOWN:
        tier = 3
    elif cid in relevant:
        tier = 1
    elif cid == 0:
        tier = 0
    else:
        tier = 2
    return tier, -cid


def _cell_coords(points: np.ndarray, world) -> tuple[np.ndarray, np.ndarray]:
    """Finest-cell coordinates of 3-d points and a mask of points inside."""
    o = np.asarray(world.origin)
    inside = np.all((points >= o) & (points < o + world.edge_length), axis=1)
    n = 1 << world.max_depth
    coords = np.minimum(((points - o) // world.leaf_size).astype(np.int64), n - 1)
    return np.maximum(coords, 0), inside


def _lookup(points: np.ndarray, world, classes: dict[tuple[int, int], int],
            stop_missing: bool) -> list[int]:
    """Class of the shallowest key in ``classes`` on each point's root path.

    With ``stop_missing`` a key absent from ``classes`` and from the stored
    interior set (``classes`` maps those to None) ends the walk as unknown.
    """
    coords, inside = _cell_coords(points, world)
    depth = world.max_depth
    c = coords.T
    out = [UNKNOWN] * len(points)
    pending = [i for i in range(len(points)) if inside[i]]
    for d in range(depth + 1):
        if not pending:
            break
        idx = morton(c >> (depth - d), d).tolist()
        nxt = []
        for i in pending:
            key = (d, idx[i])
            if key in classes:
                cid = classes[key]
                if cid is None:
                    nxt.append(i)
                else:
                    out[i] = cid
            elif not stop_missing:
                nxt.append(i)
        pending = nxt
    return out


def _segment_points(p0: np.ndarray, p1: np.ndarray, step: float) -> np.ndarray:
    dist = float(np.linalg.norm(p1 - p0))
    samples = max(int(np.ceil(dist / step)), 1) + 1
    t = np.linspace(0.0, 1.0, samples)
    return p0 + t[:, None] * (p1 - p0)


def _edge_color_mismatches(graph, centers: np.ndarray, world, classes,
                           stop_missing: bool, undesired, relevant) -> list[str]:
    step = world.edge_length / (1 << (world.max_depth + 1))
    chunks, owners = [], []
    for e in graph.edges:
        pts = _segment_points(centers[e.u], centers[e.v], step)
        chunks.append(pts)
        owners.append(len(pts))
    cids = _lookup(np.concatenate(chunks), world, classes, stop_missing) if chunks else []
    bad = []
    pos = 0
    for j, e in enumerate(graph.edges):
        seg = cids[pos:pos + owners[j]]
        pos += owners[j]
        worst = max(seg, key=lambda c: _tier(c, undesired, relevant))
        length = math.dist(graph.positions[e.u], graph.positions[e.v])
        if e.color != worst:
            bad.append(f"edge {e.u}-{e.v} color {e.color}, expected {worst}")
        elif abs(e.length - length) > 1e-9 * max(1.0, length):
            bad.append(f"edge {e.u}-{e.v} length {e.length}, expected {length}")
    return bad


def check_tree_graph(ctree, graph, undesired, relevant) -> list[str]:
    """Mismatches between a tree graph and its recomputation from the blocks."""
    world = ctree.world
    classes: dict[tuple[int, int], int] = {}
    verts = []
    for key in sorted(ctree.leaves):
        leaf = ctree.leaves[key]
        cid = UNKNOWN if leaf.virtual else int(np.argmax(leaf.marginals))
        classes[(key.depth, key.index)] = cid
        if not leaf.virtual and (cid == 0 or cid in relevant):
            side = world.edge_length / (1 << key.depth)
            coords = [int(v) for v in morton_inverse(key.index, key.depth)]
            verts.append(([world.origin[a] + (coords[a] + 0.5) * side
                           for a in range(DIMS)], cid))
    if len(verts) != graph.num_vertices:
        return [f"{graph.num_vertices} vertices, expected {len(verts)}"]
    centers = np.array([c for c, _ in verts])
    bad = [f"vertex {i} differs" for i, (c, cid) in enumerate(verts)
           if graph.colors[i] != cid
           or not np.array_equal(graph.positions[i], centers[i, :2])]
    return bad + _edge_color_mismatches(graph, centers, world, classes, False,
                                        undesired, relevant)


def morton_inverse(index: int, depth: int) -> tuple[int, int, int]:
    coords = [0, 0, 0]
    for bit in range(depth):
        for axis in range(DIMS):
            coords[axis] |= ((index >> (bit * DIMS + axis)) & 1) << bit
    return tuple(coords)


def _radical_inverse(i: int, base: int) -> float:
    f, r = 1.0, 0.0
    while i > 0:
        f /= base
        r += f * (i % base)
        i //= base
    return r


def _dominant(record, k: int) -> int:
    top, p_free, residual = record
    return int(np.argmax(_expand((tuple(top), p_free, residual), k)))


def check_halton_graph(tree, graph, n_vertices: int, undesired, relevant) -> list[str]:
    """Mismatches between a Halton graph and its recomputation from the tree."""
    world = tree.world
    k = tree.num_classes
    pts = np.array([[_radical_inverse(i, 2), _radical_inverse(i, 3)]
                    for i in range(1, n_vertices + 1)])
    positions = np.array(world.origin[:2]) + pts * world.edge_length
    if graph.num_vertices != n_vertices or not np.array_equal(graph.positions, positions):
        return ["Halton vertex positions differ"]
    classes: dict[tuple[int, int], int | None] = {}
    for key, node in tree.nodes.items():
        if node.dist is None:
            classes[tuple(key)] = None
        else:
            classes[tuple(key)] = _dominant(
                (node.dist.top3, node.dist.p_free, node.dist.p_residual), k)
    z = world.origin[2] + world.leaf_size / 2.0
    centers = np.column_stack([positions, np.full(n_vertices, z)])
    expected = _lookup(centers, world, classes, True)
    bad = [f"vertex {i} color {graph.colors[i]}, expected {c}"
           for i, c in enumerate(expected) if graph.colors[i] != c]
    return bad + _edge_color_mismatches(graph, centers, world, classes, True,
                                        undesired, relevant)


def graph_fingerprint(graph) -> str:
    h = hashlib.sha256()
    h.update(np.ascontiguousarray(graph.positions, dtype=np.float64).tobytes())
    h.update(np.asarray(graph.colors, dtype=np.int64).tobytes())
    for e in graph.edges:
        h.update(struct.pack("<qqdq", e.u, e.v, e.length, e.color))
    return h.hexdigest()


# -- queries --------------------------------------------------------------------


class LexDijkstra:
    """Fewest undesired edges, then shortest length, over a graph's edge list."""

    def __init__(self, graph, undesired):
        bad = set(undesired) | {UNKNOWN}
        self.adj: list[list[tuple[int, int, float]]] = [
            [] for _ in range(graph.num_vertices)]
        for e in graph.edges:
            w = 1 if e.color in bad else 0
            self.adj[e.u].append((e.v, w, e.length))
            self.adj[e.v].append((e.u, w, e.length))
        self.bad = bad

    def cost(self, start: int, goal: int) -> tuple[int, float] | None:
        best = {start: (0, 0.0)}
        heap = [(0, 0.0, start)]
        while heap:
            b, length, u = heapq.heappop(heap)
            if (b, length) != best[u]:
                continue
            if u == goal:
                return b, length
            for v, w, elen in self.adj[u]:
                cand = (b + w, length + elen)
                if v not in best or cand < best[v]:
                    best[v] = cand
                    heapq.heappush(heap, (cand[0], cand[1], v))
        return None


def query_mismatch(ref: LexDijkstra, start: int, goal: int, result) -> str | None:
    """Why a Class-Ordered A* result is wrong, or None when it is right."""
    expected = ref.cost(start, goal)
    if result is None or expected is None:
        if result is None and expected is None:
            return None
        return f"query {start}->{goal}: reachability differs from the reference"
    path = result.vertices
    if path[0] != start or path[-1] != goal:
        return f"query {start}->{goal}: path endpoints {path[0]}->{path[-1]}"
    n_bad, length = 0, 0.0
    for u, v in zip(path, path[1:]):
        steps = [(w, elen) for x, w, elen in ref.adj[u] if x == v]
        if not steps:
            return f"query {start}->{goal}: path uses missing edge {u}-{v}"
        w, elen = min(steps)
        n_bad += w
        length += elen
    tol = 1e-9 * max(1.0, expected[1])
    if (result.undesired_edges, n_bad) != (expected[0], expected[0]) \
            or abs(result.length - expected[1]) > tol or abs(length - expected[1]) > tol:
        return (f"query {start}->{goal}: cost ({result.undesired_edges}, "
                f"{result.length!r}), expected ({expected[0]}, {expected[1]!r})")
    return None


# -- incremental caches -----------------------------------------------------------


def cache_mismatches(tree, cw, ctree, refresh_all, compress_tree) -> list[str]:
    """Differences between streamed caches and a batch rebuild of a copy."""
    batch = copy.deepcopy(tree)
    refresh_all(batch, cw)
    bad = []
    for key, node in tree.nodes.items():
        ref = batch.nodes[key]
        if abs(node.gain - ref.gain) > 1e-9:
            bad.append(f"{tuple(key)} gain {node.gain!r}, batch {ref.gain!r}")
        elif abs(node.weight - ref.weight) > 1e-9 * max(1.0, ref.weight):
            bad.append(f"{tuple(key)} weight {node.weight!r}, batch {ref.weight!r}")
        elif (node.cond is None) != (ref.cond is None) or (
                node.cond is not None and not np.allclose(node.cond, ref.cond,
                                                          rtol=0, atol=1e-9)):
            bad.append(f"{tuple(key)} conditional differs from batch")
    if set(ctree.kept) != set(compress_tree(batch, cw).kept):
        bad.append("kept set differs from the batch rebuild")
    return bad
