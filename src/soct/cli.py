"""Command-line surface: build, compress, report, plan, export.

All outputs are deterministic given identical inputs and flags; numeric
values print with 9 significant digits. Failures exit non-zero after
printing ``error: <category>: <message>`` on stderr: the ``category`` of
the ``SoctError`` raised (``errors``), ``io`` for an ``OSError``, or
``no-path`` when ``plan`` finds no path.
"""

from __future__ import annotations

import argparse
import functools
import math
import sys

import numpy as np

from . import compression, formats
from .errors import ConfigError, FormatError, IngestError, SoctError
from .octree import SemanticOctree


def _fmt(value: float) -> str:
    return f"{value:.9g}"


def _read(path: str) -> str:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return fh.read()
    except UnicodeDecodeError:
        raise FormatError(f"{path} is not valid UTF-8") from None


def _load_for_weights(tree_path: str, weights_path: str):
    tree = formats.deserialize_tree(tree_path)
    cfg = formats.parse_weights_config(_read(weights_path))
    if cfg.num_classes != tree.num_classes:
        raise ConfigError(
            f"weights file declares {cfg.num_classes} classes, "
            f"tree has {tree.num_classes}")
    tree.expand_summaries()
    cw = cfg.compression_weights()
    compression.refresh_all(tree, cw)
    return tree, cfg, cw


def _leaf_rows(ctree) -> list[str]:
    blocks = ctree.leaf_arrays
    centers, sizes = ctree.world.boxes(blocks.depth, blocks.index)
    classes = compression.leaf_classes(blocks)
    # one % format per row; "%.9g" is _fmt's spec
    row = ",".join(["%.9g"] * 6 + ["%d", "%d", "%.9g", "%d"])
    return ["cx,cy,cz,sx,sy,sz,depth,class_id,weight,virtual",
            *map(row.__mod__, zip(*centers.T.tolist(), *sizes.T.tolist(),
                                  blocks.depth.tolist(), classes.tolist(),
                                  blocks.weight.tolist(), blocks.virtual.tolist()))]


def _graph_rows(graph) -> list[str]:
    # one % format per row, as in _leaf_rows
    x, y = graph.positions.T.tolist()
    return [f"vertices,{graph.num_vertices}",
            *map("v,%d,%.9g,%.9g,%d".__mod__,
                 zip(range(graph.num_vertices), x, y, graph.colors.tolist())),
            f"edges,{graph.num_edges}",
            *map("e,%d,%d,%.9g,%d".__mod__, zip(*(c.tolist() for c in graph.edge_arrays)))]


def _write_lines(path: str, rows: list[str]) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("\n".join(rows) + "\n")


# -- subcommands ------------------------------------------------------------


def _cmd_build(args) -> int:
    world, num_classes = formats.parse_world_config(_read(args.world))
    if world.branching != 8:
        raise ConfigError("the mapping pipeline requires branching 8")
    if args.error_budget < 0:
        raise ConfigError("--error-budget must be non-negative")
    bad_lines: list[tuple[int, str, bool]] = []
    parse_abort = None
    try:
        cloud = formats.read_cloud(
            args.cloud, num_classes, args.error_budget,
            on_error=lambda lineno, msg: bad_lines.append((lineno, msg, False)))
    except IngestError as exc:
        cloud, parse_abort = exc.cloud, exc
    tree, rejected = SemanticOctree.from_observations(
        world, num_classes, cloud.points, cloud.classes, cloud.confidences)
    bad_lines += [(int(cloud.lines[i]), msg, True) for i, msg in rejected.items()]
    # Report in file order, and abort where a record-by-record build would:
    # at the first rejected record that takes the count over the budget, or
    # where the reader gave up on malformed lines.
    for count, (lineno, msg, is_record) in enumerate(sorted(bad_lines), 1):
        print(f"warning: line {lineno}: {msg}", file=sys.stderr)
        if is_record and count > args.error_budget:
            raise IngestError(f"aborting after {count} bad records "
                              f"(budget {args.error_budget})")
    if parse_abort is not None:
        raise parse_abort
    inserted = len(cloud.lines) - len(rejected)
    pruned = tree.prune_all_identical() if args.adhoc_prune else 0
    formats.serialize_tree(tree, args.out)
    print(f"records_inserted {inserted}")
    print(f"record_errors {len(bad_lines)}")
    print(f"nodes_pruned {pruned}")
    print(f"stored_nodes {tree.node_count()}")
    print(f"stored_leaves {tree.leaf_count()}")
    return 0


def _print_report(tree, cfg, cw, ctree) -> None:
    objective, partition_bits, leaves_full, full_bits, kept_bits = compression.report(
        tree, ctree, cw)
    registry = cfg.registry()
    leaves_kept = ctree.num_leaves
    print(f"num_classes {tree.num_classes}")
    print(f"alpha {_fmt(cw.compress)}")
    print(f"objective {_fmt(objective)}")
    print(f"partition_bits {_fmt(partition_bits)}")
    print(f"leaves_full {leaves_full}")
    print(f"leaves_kept {leaves_kept}")
    ratio = leaves_kept / leaves_full if leaves_full else 0.0
    print(f"leaf_ratio {_fmt(ratio)}")
    for cid in range(tree.num_classes + 1):
        role = registry.roles.get(cid, "neutral")
        full_v = full_bits[cid]
        kept_v = kept_bits[cid]
        retention = kept_v / full_v if full_v > 0 else 1.0
        print(f"class {cid} {registry.name_of(cid)} role {role} "
              f"full_bits {_fmt(full_v)} kept_bits {_fmt(kept_v)} "
              f"retention {_fmt(retention)}")


def _cmd_compress(args) -> int:
    tree, cfg, cw = _load_for_weights(args.tree, args.weights)
    ctree = compression.compress_tree(tree, cw)
    _print_report(tree, cfg, cw, ctree)
    if args.out_leaves:
        _write_lines(args.out_leaves, _leaf_rows(ctree))
    return 0


def _build_graph(args, tree, cfg, cw):
    from . import planning  # deferred: only graph commands load the planner

    registry = cfg.registry()
    roles = planning.PlanQuery(0, 0, undesired=registry.irrelevant_ids,
                               relevant=registry.relevant_ids)
    if args.graph == "halton":
        return planning.halton_graph(tree.world, tree, args.halton_n,
                                     args.k_neighbors, roles), roles
    ctree = compression.compress_tree(tree, cw)
    return planning.graph_from_tree(ctree, roles, args.k_neighbors), roles


def _nearest_vertex(graph, xy: tuple[float, float]) -> int:
    deltas = graph.positions - np.asarray(xy)
    return int(np.argmin(np.einsum("ij,ij->i", deltas, deltas)))


def _parse_xy(text: str) -> tuple[float, float]:
    parts = text.split(",")
    if len(parts) != 2:
        raise ConfigError(f"expected X,Y coordinates, got {text!r}")
    try:
        xy = float(parts[0]), float(parts[1])
    except ValueError:
        raise ConfigError(f"non-numeric coordinates {text!r}") from None
    if not all(map(math.isfinite, xy)):
        raise ConfigError(f"non-finite coordinates {text!r}")
    return xy


def _cmd_plan(args) -> int:
    from . import planning  # deferred, as in _build_graph

    start_xy, goal_xy = _parse_xy(args.start), _parse_xy(args.goal)
    tree, cfg, cw = _load_for_weights(args.tree, args.weights)
    graph, roles = _build_graph(args, tree, cfg, cw)
    start = _nearest_vertex(graph, start_xy)
    goal = _nearest_vertex(graph, goal_xy)
    query = planning.PlanQuery(start, goal, undesired=roles.undesired,
                               relevant=roles.relevant)
    result = planning.class_ordered_astar(graph, query)
    print(f"graph_vertices {graph.num_vertices}")
    print(f"graph_edges {graph.num_edges}")
    print(f"start_vertex {start}")
    print(f"goal_vertex {goal}")
    if result is None:
        print("status no-path")
        print("error: no-path: goal is unreachable", file=sys.stderr)
        return 1
    print("status ok")
    print(f"undesired_edges {result.undesired_edges}")
    print(f"length {_fmt(result.length)}")
    print("path " + " ".join(str(v) for v in result.vertices))
    for v in result.vertices:
        print(f"vertex {v} {_fmt(graph.positions[v][0])} "
              f"{_fmt(graph.positions[v][1])} {graph.colors[v]}")
    return 0


def _cmd_export(args) -> int:
    tree, cfg, cw = _load_for_weights(args.tree, args.weights)
    if args.what == "leaves":
        ctree = compression.compress_tree(tree, cw)
        rows = _leaf_rows(ctree)
    else:
        graph, _ = _build_graph(args, tree, cfg, cw)
        rows = _graph_rows(graph)
    _write_lines(args.out, rows)
    print(f"rows_written {len(rows)}")
    return 0


# -- entry point --------------------------------------------------------------


def _map_flags(p: argparse.ArgumentParser) -> argparse.ArgumentParser:
    p.add_argument("--tree", required=True)
    p.add_argument("--weights", required=True)
    return p


def _graph_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("--graph", choices=("tree", "halton"), default="tree")
    p.add_argument("--halton-n", type=int, default=256)
    p.add_argument("--k-neighbors", type=int, default=8)


@functools.cache
def _parser() -> argparse.ArgumentParser:
    """The command-line parser, built on the first call of a process; a
    parse keeps its values in the namespace it returns, not in the parser."""
    parser = argparse.ArgumentParser(
        prog="soct",
        description="Build, compress, inspect and plan over semantic octrees.")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("build", help="ingest a point cloud into a tree file")
    p.add_argument("--world", required=True)
    p.add_argument("--cloud", required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--adhoc-prune", action="store_true",
                   help="collapse identical-children nodes after building")
    p.add_argument("--error-budget", type=int, default=100)
    p.set_defaults(func=_cmd_build)

    p = _map_flags(sub.add_parser(
        "compress", help="compress a tree and print its information report"))
    p.add_argument("--out-leaves", help="also write the kept blocks as CSV")
    p.set_defaults(func=_cmd_compress)

    p = _map_flags(sub.add_parser(
        "report", help="per-class retention and leaf counts after compression"))
    p.set_defaults(func=_cmd_compress, out_leaves=None)

    p = _map_flags(sub.add_parser("plan", help="search a colored graph built from the map"))
    p.add_argument("--start", required=True, metavar="X,Y",
                   help="start point; write a negative X as --start=-3,5")
    p.add_argument("--goal", required=True, metavar="X,Y",
                   help="goal point; write a negative X as --goal=-3,5")
    _graph_flags(p)
    p.set_defaults(func=_cmd_plan)

    p = _map_flags(sub.add_parser("export", help="write kept blocks or a graph as CSV"))
    p.add_argument("--what", choices=("leaves", "graph"), default="leaves")
    _graph_flags(p)
    p.add_argument("--out", required=True)
    p.set_defaults(func=_cmd_export)
    return parser


def main(argv=None) -> int:
    args = _parser().parse_args(argv)
    try:
        return args.func(args)
    except SoctError as exc:
        print(f"error: {exc.category}: {exc}", file=sys.stderr)
        return 1
    except OSError as exc:
        print(f"error: io: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
