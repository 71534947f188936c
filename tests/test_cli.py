import io
import json
import os
import re
import subprocess
import sys
from contextlib import redirect_stderr, redirect_stdout
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from soct import cli, compression, planning
from soct.cli import main
from soct.errors import DistributionError, FormatError, IngestError, OutOfBoundsError
from soct.formats import (
    deserialize_tree,
    ingest,
    parse_weights_config,
    parse_world_config,
    serialize_tree,
)
from soct.octree import LEAF, SemanticOctree

from helpers import cloud_files, editable_nodes, tree_of_nodes, write_cloud

WORLD = "origin 0 0 0\nedge_length 8\nmax_depth 3\nbranching 8\nnum_classes 4\n"

WEIGHTS = ("num_classes 4\n"
           "alpha 0.02\n"
           "class 1 relevant 4 road\n"
           "class 2 irrelevant 0.5 grass\n")


def tiny_records(rng):
    records = []
    for ix in range(8):
        for iy in range(8):
            cid = 1 if iy in (3, 4) else 2
            for _ in range(2):
                records.append((ix + 0.5, iy + 0.5, 0.5, cid,
                                float(rng.uniform(0.7, 0.95))))
    return records


@pytest.fixture
def workspace(tmp_path):
    rng = np.random.default_rng(101)
    (tmp_path / "world.cfg").write_text(WORLD)
    (tmp_path / "weights.cfg").write_text(WEIGHTS)
    write_cloud(tmp_path / "cloud.csv", tiny_records(rng))
    return tmp_path


def run(capsys, argv):
    code = main([str(a) for a in argv])
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def build(ws, capsys, extra=()):
    return run(capsys, ["build", "--world", ws / "world.cfg",
                        "--cloud", ws / "cloud.csv",
                        "--out", ws / "tree.soct", *extra])


def test_build_compress_report_plan_export(workspace, capsys):
    code, out, err = build(workspace, capsys)
    assert code == 0, err
    assert "records_inserted 128" in out
    assert "record_errors 0" in out

    code, out, err = run(capsys, [
        "compress", "--tree", workspace / "tree.soct",
        "--weights", workspace / "weights.cfg",
        "--out-leaves", workspace / "leaves.csv"])
    assert code == 0, err
    assert "objective " in out
    lines = (workspace / "leaves.csv").read_text().splitlines()
    assert lines[0] == "cx,cy,cz,sx,sy,sz,depth,class_id,weight,virtual"
    assert len(lines) > 1

    code, out, err = run(capsys, [
        "report", "--tree", workspace / "tree.soct",
        "--weights", workspace / "weights.cfg"])
    assert code == 0
    road = [l for l in out.splitlines() if l.startswith("class 1 ")][0]
    assert "role relevant" in road

    code, out, err = run(capsys, [
        "plan", "--tree", workspace / "tree.soct",
        "--weights", workspace / "weights.cfg",
        "--start", "0.5,3.5", "--goal", "7.5,4.5", "--k-neighbors", "8"])
    assert code == 0, err
    assert "status ok" in out
    assert "undesired_edges 0" in out

    code, out, err = run(capsys, [
        "export", "--tree", workspace / "tree.soct",
        "--weights", workspace / "weights.cfg",
        "--what", "graph", "--out", workspace / "graph.csv"])
    assert code == 0
    text = (workspace / "graph.csv").read_text()
    assert text.startswith("vertices,")
    assert "\nedges," in text


def test_outputs_are_deterministic(workspace, capsys):
    code, out1, _ = build(workspace, capsys)
    assert code == 0
    tree1 = (workspace / "tree.soct").read_bytes()
    code, out2, _ = build(workspace, capsys)
    tree2 = (workspace / "tree.soct").read_bytes()
    assert out1 == out2
    assert tree1 == tree2
    args = ["compress", "--tree", workspace / "tree.soct",
            "--weights", workspace / "weights.cfg",
            "--out-leaves", workspace / "leaves.csv"]
    _, rep1, _ = run(capsys, args)
    leaves1 = (workspace / "leaves.csv").read_bytes()
    _, rep2, _ = run(capsys, args)
    assert rep1 == rep2
    assert (workspace / "leaves.csv").read_bytes() == leaves1
    export_args = ["export", "--tree", workspace / "tree.soct",
                   "--weights", workspace / "weights.cfg",
                   "--what", "graph", "--out", workspace / "graph.csv"]
    run(capsys, export_args)
    graph1 = (workspace / "graph.csv").read_bytes()
    run(capsys, export_args)
    assert (workspace / "graph.csv").read_bytes() == graph1


def test_alpha_dominant_compresses_to_single_leaf(workspace, capsys):
    build(workspace, capsys)
    (workspace / "heavy.cfg").write_text(
        "num_classes 4\nalpha 100000\n"
        "class 1 relevant 4 road\nclass 2 irrelevant 0.5 grass\n")
    code, out, _ = run(capsys, [
        "report", "--tree", workspace / "tree.soct",
        "--weights", workspace / "heavy.cfg"])
    assert code == 0
    assert "leaves_kept 1" in out


def test_all_relevant_alpha_zero_full_retention(workspace, capsys):
    build(workspace, capsys)
    (workspace / "keep.cfg").write_text(
        "num_classes 4\nalpha 0\n" +
        "".join(f"class {c} relevant 1\n" for c in range(5)))
    code, out, _ = run(capsys, [
        "report", "--tree", workspace / "tree.soct",
        "--weights", workspace / "keep.cfg"])
    assert code == 0
    for line in out.splitlines():
        if line.startswith("class "):
            assert line.endswith("retention 1")


def test_class_count_mismatch_is_config_error(workspace, capsys):
    build(workspace, capsys)
    (workspace / "bad.cfg").write_text("num_classes 7\nalpha 0.1\n")
    code, _, err = run(capsys, [
        "report", "--tree", workspace / "tree.soct",
        "--weights", workspace / "bad.cfg"])
    assert code == 1
    assert "error: config:" in err


def test_repeated_alpha_is_format_error_naming_its_line(workspace, capsys):
    build(workspace, capsys)
    (workspace / "bad.cfg").write_text("num_classes 4\nalpha 0.01\nalpha 5\n")
    code, out, err = run(capsys, [
        "compress", "--tree", workspace / "tree.soct",
        "--weights", workspace / "bad.cfg"])
    assert code == 1 and out == ""
    assert err.splitlines() == ["error: format: line 3: duplicate key 'alpha'"]


def test_corrupt_tree_reports_category(workspace, capsys):
    build(workspace, capsys)
    data = (workspace / "tree.soct").read_bytes()
    (workspace / "tree.soct").write_bytes(data[:-7])
    code, _, err = run(capsys, [
        "report", "--tree", workspace / "tree.soct",
        "--weights", workspace / "weights.cfg"])
    assert code == 1
    assert "error: corruption:" in err


def test_bad_cloud_header_is_format_error(workspace, capsys):
    (workspace / "cloud.csv").write_text("wrong,header\n")
    code, _, err = build(workspace, capsys)
    assert code == 1
    assert "error: format:" in err


def test_out_of_bounds_records_are_budgeted(workspace, capsys):
    rng = np.random.default_rng(5)
    records = tiny_records(rng) + [(99.0, 0.5, 0.5, 1, 0.9)]
    write_cloud(workspace / "cloud.csv", records)
    code, out, err = build(workspace, capsys)
    assert code == 0
    assert "record_errors 1" in out
    assert "outside world volume" in err


def test_out_of_bounds_warning_names_its_line(workspace, capsys):
    rng = np.random.default_rng(7)
    records = tiny_records(rng)
    records.insert(5, (99.0, 0.5, 0.5, 1, 0.9))  # line 7: the header is line 1
    write_cloud(workspace / "cloud.csv", records)
    code, out, err = build(workspace, capsys)
    assert code == 0
    assert "record_errors 1" in out
    assert err.splitlines() == [
        "warning: line 7: point [99.0, 0.5, 0.5] outside world volume"]


def test_error_budget_aborts_build(workspace, capsys):
    rng = np.random.default_rng(6)
    records = [(99.0, 0.5, 0.5, 1, 0.9)] * 5
    write_cloud(workspace / "cloud.csv", records)
    code, _, err = run(capsys, [
        "build", "--world", workspace / "world.cfg",
        "--cloud", workspace / "cloud.csv",
        "--out", workspace / "tree.soct", "--error-budget", "2"])
    assert code == 1
    assert "error: ingest:" in err
    assert not (workspace / "tree.soct").exists()


def test_negative_error_budget_is_config_error(workspace, capsys):
    code, out, err = build(workspace, capsys, ["--error-budget", "-1"])
    assert code == 1
    assert out == ""
    assert err == "error: config: --error-budget must be non-negative\n"
    assert not (workspace / "tree.soct").exists()


@pytest.mark.parametrize("value", ["nan", "inf", "-inf"])
@pytest.mark.parametrize("command", ["compress", "report"])
def test_non_finite_weights_are_config_error(workspace, capsys, command, value):
    build(workspace, capsys)
    cases = [(f"num_classes 4\nalpha {value}\nclass 1 relevant 4 road\n",
              "error: config: alpha must be non-negative and finite\n"),
             (f"num_classes 4\nalpha 0.02\nclass 1 relevant {value} road\n",
              "error: config: class 1 needs a non-negative finite weight\n")]
    for text, line in cases:
        (workspace / "bad.cfg").write_text(text)
        code, out, err = run(capsys, [command, "--tree", workspace / "tree.soct",
                                      "--weights", workspace / "bad.cfg"])
        assert (code, out, err) == (1, "", line)


def test_class_count_above_format_limit_is_config_error(workspace, capsys):
    (workspace / "world.cfg").write_text(WORLD.replace("num_classes 4", "num_classes 70000"))
    (workspace / "tree.soct").write_bytes(b"an existing map")
    code, out, err = build(workspace, capsys)
    assert (code, out, err) == (1, "", "error: config: num_classes must be at most 65535\n")
    assert (workspace / "tree.soct").read_bytes() == b"an existing map"


@pytest.mark.parametrize("num_classes", [-2, -1, 0, 3])
def test_class_count_below_truncated_storage_is_config_error(workspace, capsys, num_classes):
    """A world of fewer than 4 classes is refused before any record is
    fused: one ``config`` line, no warnings, no traceback, no file."""
    (workspace / "world.cfg").write_text(
        WORLD.replace("num_classes 4", f"num_classes {num_classes}"))
    code, out, err = build(workspace, capsys)
    assert (code, out, err) == (
        1, "", "error: config: truncated leaf storage needs at least 4 classes\n")
    assert not (workspace / "tree.soct").exists()


def test_rejected_record_in_unobserved_cell_builds_a_loadable_tree(tmp_path, capsys):
    """A record that parses but cannot be fused, alone in its cell, leaves
    no interior nodes behind; they used to make the file unloadable."""
    (tmp_path / "world.cfg").write_text(
        "origin 0 0 0\nedge_length 16\nmax_depth 4\nbranching 8\nnum_classes 4\n")
    (tmp_path / "weights.cfg").write_text(WEIGHTS)
    (tmp_path / "cloud.csv").write_text(
        "x,y,z,class_id,confidence\n1.5,1.5,0.5,1,0.9\n12.5,12.5,12.5,2,0.1\n")
    code, out, err = run(capsys, ["build", "--world", tmp_path / "world.cfg",
                                  "--cloud", tmp_path / "cloud.csv",
                                  "--out", tmp_path / "tree.soct"])
    assert code == 0, err
    assert err == "warning: line 3: confidence 0.1 outside (1/5, 1]\n"
    assert "record_errors 1" in out
    assert "stored_nodes 5" in out
    code, out, err = run(capsys, ["compress", "--tree", tmp_path / "tree.soct",
                                  "--weights", tmp_path / "weights.cfg"])
    assert code == 0, err
    assert "leaves_full 1" in out


def _record_by_record_build(world_text, cloud, budget, out=None):
    """What the build reports when it inserts one record at a time: the
    warning lines, then the abort line if the budget runs out (None if
    not), and the number of records inserted. Given ``out``, a build that
    does not abort writes its tree there."""
    world, k = parse_world_config(world_text)
    tree = SemanticOctree(world, k)
    lines, inserted = [], 0

    def warn(lineno, msg):
        lines.append(f"warning: line {lineno}: {msg}")

    try:
        for rec in ingest(cloud, k, error_budget=budget, on_error=warn):
            try:
                tree.add_observation((rec.x, rec.y, rec.z), rec.class_id, rec.confidence)
                inserted += 1
            except (OutOfBoundsError, DistributionError) as exc:
                warn(rec.lineno, str(exc))
                if len(lines) > budget:
                    return lines, (f"error: ingest: aborting after {len(lines)} bad "
                                   f"records (budget {budget})"), inserted
    except IngestError as exc:
        return lines, f"error: ingest: {exc}", inserted
    if out is not None:
        serialize_tree(tree, out)
    return lines, None, inserted


MIXED_CLOUD = [  # parse errors (p), rejected records (r) and good ones
    "0.5,0.5,0.5,1,1.0",
    "garbage",  # p
    "99,0.5,0.5,1,0.9",  # r: out of bounds
    "0.5,0.5,0.5,2,1.0",  # r: contradicts the point mass above
    "1.5,0.5,0.5,1,0.2",  # r: uninformative, in an unobserved cell
    "1.5,0.5,0.5,x,0.5",  # p
    "2.5,0.5,0.5,3,0.9",
    "1,1,1,9,0.9",  # p: class out of range
    "8.0,0.5,0.5,1,0.9",  # r: on the upper face
    "2.5,0.5,0.5,3,0.15",  # r
    "3.5,3.5,3.5,4,0.8",
]

EARLY_RECORD_ERROR_CLOUD = [
    "99,0.5,0.5,1,0.9",  # r
    "bad",  # p
    "0.5,0.5,0.5,1,0.9",
    "bad,again",  # p
    "1,2,3",  # p
    "0.5,0.5,0.5,1,0.9",
]


@pytest.mark.parametrize("cloud,budget", [
    (MIXED_CLOUD, 100),  # budget never reached
    (MIXED_CLOUD, 8),  # exactly reached
    (MIXED_CLOUD, 3),  # exceeded at a rejected record
    (MIXED_CLOUD, 1),
    (MIXED_CLOUD, 0),  # exceeded at the first malformed line
    (EARLY_RECORD_ERROR_CLOUD, 2),  # malformed lines alone exceed it
    (EARLY_RECORD_ERROR_CLOUD, 3),  # four errors, yet no abort
])
def test_errors_report_as_record_by_record(workspace, capsys, cloud, budget):
    """Warnings come in file order, and an exhausted budget aborts at the
    same line with the same message as a build one record at a time; an
    aborted build writes no tree file."""
    path = workspace / "cloud.csv"
    path.write_text("\n".join(["x,y,z,class_id,confidence"] + cloud) + "\n")
    warnings, abort, inserted = _record_by_record_build(WORLD, path, budget)
    code, out, err = build(workspace, capsys, ["--error-budget", str(budget)])
    assert err.splitlines() == warnings + ([abort] if abort else [])
    assert code == (1 if abort else 0)
    assert (workspace / "tree.soct").exists() == (abort is None)
    if abort is None:
        assert f"records_inserted {inserted}\nrecord_errors {len(warnings)}\n" in out


@settings(max_examples=60, deadline=None)
@given(data=cloud_files(), budget=st.sampled_from([0, 2, 100]))
def test_build_matches_record_by_record_on_generated_clouds(tmp_path_factory, data, budget):
    """On generated and edited cloud files, ``soct build`` prints, exits and
    writes exactly what a build one record at a time does."""
    ws = tmp_path_factory.getbasetemp() / "generated-build"
    ws.mkdir(exist_ok=True)
    for name in ("tree.soct", "want.soct"):
        (ws / name).unlink(missing_ok=True)
    (ws / "world.cfg").write_text(WORLD)
    (ws / "cloud.csv").write_bytes(data)
    try:
        warnings, abort, inserted = _record_by_record_build(
            WORLD, ws / "cloud.csv", budget, out=ws / "want.soct")
    except FormatError as exc:
        warnings, abort, inserted = [], f"error: format: {exc}", 0
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        code = main(["build", "--world", str(ws / "world.cfg"),
                     "--cloud", str(ws / "cloud.csv"), "--out", str(ws / "tree.soct"),
                     "--error-budget", str(budget)])
    assert err.getvalue().splitlines() == warnings + ([abort] if abort else [])
    assert code == (1 if abort else 0)
    if abort is None:
        want = deserialize_tree(ws / "want.soct")
        assert out.getvalue() == (
            f"records_inserted {inserted}\nrecord_errors {len(warnings)}\n"
            f"nodes_pruned 0\nstored_nodes {len(want.nodes)}\n"
            f"stored_leaves {want.leaf_count()}\n")
        same_tree = (ws / "tree.soct").read_bytes() == (ws / "want.soct").read_bytes()
        assert same_tree
    else:
        assert out.getvalue() == ""
        assert not (ws / "tree.soct").exists()


def test_undecodable_cloud_line_is_a_budgeted_warning(workspace, capsys):
    text = (workspace / "cloud.csv").read_bytes().split(b"\n")
    text[2] = text[2][:5] + b"\xff" + text[2][5:]  # line 3, inside the first chunk
    (workspace / "cloud.csv").write_bytes(b"\n".join(text))
    code, out, err = build(workspace, capsys)
    assert code == 0, err
    assert err == "warning: line 3: not valid UTF-8\n"
    assert "records_inserted 127\nrecord_errors 1\n" in out
    code, out, err = build(workspace, capsys, ["--error-budget", "0"])
    assert code == 1
    assert err.splitlines() == ["warning: line 3: not valid UTF-8",
                                "error: ingest: aborting after 1 malformed lines (budget 0)"]


@pytest.mark.parametrize("name,command", [
    ("cloud.csv", "build"), ("world.cfg", "build"), ("weights.cfg", "compress")])
def test_undecodable_header_or_config_is_format_error(workspace, capsys, name, command):
    build(workspace, capsys)
    path = workspace / name
    path.write_bytes(path.read_bytes().replace(b"x,y,z", b"x,\xff,z", 1)
                     .replace(b"origin", b"\xffrigin", 1).replace(b"alpha", b"\xfflpha", 1))
    code, out, err = (build(workspace, capsys) if command == "build" else run(capsys, [
        "compress", "--tree", workspace / "tree.soct", "--weights", workspace / "weights.cfg"]))
    assert code == 1
    assert out == ""
    assert err.startswith("error: format:") and "not valid UTF-8" in err
    assert "Traceback" not in err


def test_empty_map_is_unobserved_space(workspace, capsys):
    """A header-only cloud builds a root-only map: no observed block is
    kept, and the tree graph has nothing to plan through."""
    (workspace / "cloud.csv").write_text("x,y,z,class_id,confidence\n")
    code, out, err = build(workspace, capsys)
    assert (code, err) == (0, "")
    assert "records_inserted 0\n" in out
    code, out, err = run(capsys, ["compress", "--tree", workspace / "tree.soct",
                                  "--weights", workspace / "weights.cfg",
                                  "--out-leaves", workspace / "leaves.csv"])
    assert code == 0, err
    assert "leaves_full 0\nleaves_kept 0\n" in out
    assert (workspace / "leaves.csv").read_text().splitlines()[1].endswith(",-1,0,1")
    code, out, err = run(capsys, ["plan", "--tree", workspace / "tree.soct",
                                  "--weights", workspace / "weights.cfg",
                                  "--start", "0.5,3.5", "--goal", "7.5,4.5"])
    assert code == 1
    assert "status" not in out
    assert err.startswith("error: graph: no traversable blocks")
    assert err.count("\n") == 1


def test_graph_builds_queries_and_commands_make_no_edge_objects(workspace, capsys,
                                                                monkeypatch):
    """Graph builds, queries, ``plan`` and ``export --what graph`` read the
    edge arrays; only a read of ``graph.edges`` makes ``Edge`` tuples."""
    build(workspace, capsys)
    made = []
    new = planning.Edge.__new__
    monkeypatch.setattr(planning.Edge, "__new__",
                        lambda cls, *args: made.append(args) or new(cls, *args))
    tree = deserialize_tree(workspace / "tree.soct")
    weights = parse_weights_config((workspace / "weights.cfg").read_text())
    roles = planning.PlanQuery(0, 0, undesired=weights.registry().irrelevant_ids,
                               relevant=weights.registry().relevant_ids)
    cw = weights.compression_weights()
    compression.refresh_all(tree, cw)
    graphs = [planning.graph_from_tree(compression.compress_tree(tree, cw), roles, 8),
              planning.halton_graph(tree.world, tree, 64, 8, roles)]
    for g in graphs:
        for start in range(10):
            planning.class_ordered_astar(g, replace(roles, start=start,
                                                    goal=g.num_vertices - 1 - start))
    args = ["--tree", workspace / "tree.soct", "--weights", workspace / "weights.cfg"]
    for graph in ("tree", "halton"):
        code, _, err = run(capsys, ["plan", *args, "--graph", graph, "--halton-n", "64",
                                    "--start", "0.5,3.5", "--goal", "7.5,4.5"])
        assert code == 0, err
        code, _, err = run(capsys, ["export", *args, "--graph", graph, "--halton-n", "64",
                                    "--what", "graph", "--out", workspace / "graph.csv"])
        assert code == 0, err
    assert made == []
    assert all(g.num_edges for g in graphs)
    assert [len(g.edges) for g in graphs] == [g.num_edges for g in graphs]
    assert len(made) == sum(g.num_edges for g in graphs)


def test_graph_rows_print_each_field_as_its_format():
    """``export --what graph`` rows: each coordinate and length to 9
    significant digits (``_fmt``), each id and color as an integer, the
    edges in edge order, as one f-string per field prints them."""
    positions = np.array([[0.0, -0.0], [1e-300, 1e300], [123456789.123, -2.5], [1 / 3, 2 / 3]])
    colors = np.array([0, planning.UNKNOWN_CLASS, 4, 2])
    edges = [planning.Edge(0, 1, 1e-9, 2), planning.Edge(3, 2, 123456789.5, -1),
             planning.Edge(1, 1, 0.1 + 0.2, 0)]
    rows = cli._graph_rows(planning.ColoredGraph(positions, colors, edges))
    assert rows == [
        "vertices,4",
        *(f"v,{i},{cli._fmt(x)},{cli._fmt(y)},{c}"
          for i, ((x, y), c) in enumerate(zip(positions, colors))),
        "edges,3",
        *(f"e,{e.u},{e.v},{cli._fmt(e.length)},{e.color}" for e in edges)]
    assert rows[1:3] == ["v,0,0,-0,0", "v,1,1e-300,1e+300,-1"]
    assert rows[-2:] == ["e,3,2,123456790,-1", "e,1,1,0.3,0"]


def test_plan_halton_graph(workspace, capsys):
    build(workspace, capsys)
    code, out, err = run(capsys, [
        "plan", "--tree", workspace / "tree.soct",
        "--weights", workspace / "weights.cfg",
        "--graph", "halton", "--halton-n", "64",
        "--start", "0.5,3.5", "--goal", "7.5,4.5"])
    assert code == 0, err
    assert "graph_vertices 64" in out
    assert "status" in out


@pytest.mark.parametrize("text", ["nan,3.5", "0.5,inf", "1e400,3.5"])
@pytest.mark.parametrize("flag", ["--start", "--goal"])
def test_non_finite_plan_coordinates_are_config_error(workspace, capsys, flag, text):
    build(workspace, capsys)
    points = {"--start": "0.5,3.5", "--goal": "7.5,4.5", flag: text}
    code, out, err = run(capsys, [
        "plan", "--tree", workspace / "tree.soct",
        "--weights", workspace / "weights.cfg",
        "--start", points["--start"], "--goal", points["--goal"]])
    assert code == 1
    assert err == f"error: config: non-finite coordinates '{text}'\n"
    assert out == ""


def test_plan_on_negative_origin_world(tmp_path, capsys):
    """Negative coordinates join their flag with '='; written as a separate
    argument, argparse takes '-7.5,-0.5' for an option (usage error)."""
    rng = np.random.default_rng(103)
    (tmp_path / "world.cfg").write_text(WORLD.replace("origin 0 0 0", "origin -8 -4 0"))
    (tmp_path / "weights.cfg").write_text(WEIGHTS)
    write_cloud(tmp_path / "cloud.csv",
                [(x - 8.0, y - 4.0, z, cid, conf)
                 for x, y, z, cid, conf in tiny_records(rng)])
    code, _, err = build(tmp_path, capsys)
    assert code == 0, err
    tree_args = ["plan", "--tree", tmp_path / "tree.soct",
                 "--weights", tmp_path / "weights.cfg"]
    code, out, err = run(capsys, [*tree_args, "--start=-7.5,-0.5", "--goal=-0.5,0.5"])
    assert code == 0, err
    assert "status ok\n" in out
    vertices = [line.split() for line in out.splitlines() if line.startswith("vertex ")]
    assert [float(v) for v in vertices[0][2:4]] == [-7.5, -0.5]
    assert [float(v) for v in vertices[-1][2:4]] == [-0.5, 0.5]
    with pytest.raises(SystemExit) as exc:
        run(capsys, [*tree_args, "--start", "-7.5,-0.5", "--goal=-0.5,0.5"])
    assert exc.value.code == 2
    assert "expected one argument" in capsys.readouterr().err


def test_plan_between_islands_is_no_path(workspace, capsys):
    # Road strips at x < 2 and x >= 6 across grass: with k = 3 every
    # vertex's neighbors lie in its own strip, so the graph has two islands.
    rng = np.random.default_rng(102)
    records = [(ix + 0.5, iy + 0.5, 0.5, 1 if ix in (0, 1, 6, 7) else 2,
                float(rng.uniform(0.7, 0.95)))
               for ix in range(8) for iy in range(8) for _ in range(2)]
    write_cloud(workspace / "cloud.csv", records)
    code, _, err = build(workspace, capsys)
    assert code == 0, err
    code, out, err = run(capsys, [
        "plan", "--tree", workspace / "tree.soct",
        "--weights", workspace / "weights.cfg",
        "--start", "0.5,3.5", "--goal", "7.5,4.5", "--k-neighbors", "3"])
    assert code == 1
    assert "status no-path\n" in out
    assert err == "error: no-path: goal is unreachable\n"
    assert "Traceback" not in out + err


def test_adhoc_prune_shrinks_tree(workspace, capsys):
    code, out_plain, _ = build(workspace, capsys)
    plain_nodes = int([l for l in out_plain.splitlines()
                       if l.startswith("stored_nodes")][0].split()[1])
    code, out_pruned, _ = run(capsys, [
        "build", "--world", workspace / "world.cfg",
        "--cloud", workspace / "cloud.csv",
        "--out", workspace / "tree2.soct", "--adhoc-prune"])
    assert code == 0
    pruned_nodes = int([l for l in out_pruned.splitlines()
                        if l.startswith("stored_nodes")][0].split()[1])
    assert pruned_nodes <= plain_nodes
    code, out, err = run(capsys, [
        "report", "--tree", workspace / "tree2.soct",
        "--weights", workspace / "weights.cfg"])
    assert code == 0, err


@pytest.mark.parametrize("command", ["plan", "export"])
def test_k_neighbors_below_one_is_config_error(workspace, capsys, command):
    build(workspace, capsys)
    extra = (["--start", "0.5,3.5", "--goal", "7.5,4.5"] if command == "plan"
             else ["--what", "graph", "--out", workspace / "graph.csv"])
    for graph in ("tree", "halton"):
        code, out, err = run(capsys, [
            command, "--tree", workspace / "tree.soct",
            "--weights", workspace / "weights.cfg",
            "--graph", graph, "--k-neighbors", "0", *extra])
        assert code == 1
        assert "error: config:" in err
        assert "status" not in out


@pytest.mark.parametrize("command", ["plan", "export"])
def test_halton_n_above_limit_is_config_error(workspace, capsys, monkeypatch,
                                              command):
    def fail(*args, **kwargs):
        raise AssertionError("generated points for an oversized graph")

    build(workspace, capsys)
    monkeypatch.setattr(planning, "halton_points", fail)
    extra = (["--start", "0.5,3.5", "--goal", "7.5,4.5"] if command == "plan"
             else ["--what", "graph", "--out", workspace / "graph.csv"])
    code, out, err = run(capsys, [
        command, "--tree", workspace / "tree.soct",
        "--weights", workspace / "weights.cfg", "--graph", "halton",
        "--halton-n", planning.MAX_HALTON_VERTICES + 1, *extra])
    assert code == 1
    assert err.startswith("error: config:")
    assert "Traceback" not in err
    assert out == ""
    assert not (workspace / "graph.csv").exists()


@pytest.mark.parametrize("command", ["report", "plan"])
def test_nan_leaf_weight_is_corruption_error(workspace, capsys, command):
    build(workspace, capsys)
    tree = deserialize_tree(workspace / "tree.soct")
    nodes = editable_nodes(tree)
    next(n for n in nodes.values() if n.kind == LEAF).weight = float("nan")
    serialize_tree(tree_of_nodes(tree.world, tree.num_classes, nodes),
                   workspace / "tree.soct")
    extra = ["--start", "0.5,3.5", "--goal", "7.5,4.5"] if command == "plan" else []
    code, _, err = run(capsys, [
        command, "--tree", workspace / "tree.soct",
        "--weights", workspace / "weights.cfg", *extra])
    assert code == 1
    assert "error: corruption:" in err
    assert "Traceback" not in err


@pytest.mark.parametrize("command", ["report", "plan"])
def test_invalid_leaf_record_is_corruption_error(workspace, capsys, command):
    build(workspace, capsys)
    tree = deserialize_tree(workspace / "tree.soct")
    nodes = editable_nodes(tree)
    node = next(n for n in nodes.values() if n.kind == LEAF)
    node.dist = replace(node.dist, p_free=float("nan"))
    serialize_tree(tree_of_nodes(tree.world, tree.num_classes, nodes),
                   workspace / "tree.soct")
    extra = ["--start", "0.5,3.5", "--goal", "7.5,4.5"] if command == "plan" else []
    code, _, err = run(capsys, [
        command, "--tree", workspace / "tree.soct",
        "--weights", workspace / "weights.cfg", *extra])
    assert code == 1
    assert "error: corruption:" in err
    assert "Traceback" not in err


@pytest.mark.parametrize("bad", [1e300, float("nan"), -1.0])
def test_bad_interior_weight_is_corruption_error(workspace, capsys, bad):
    build(workspace, capsys)
    tree = deserialize_tree(workspace / "tree.soct")
    nodes = editable_nodes(tree)
    nodes[(0, 0)].weight = bad
    serialize_tree(tree_of_nodes(tree.world, tree.num_classes, nodes),
                   workspace / "tree.soct")
    code, out, err = run(capsys, [
        "report", "--tree", workspace / "tree.soct",
        "--weights", workspace / "weights.cfg"])
    assert code == 1
    assert err.startswith("error: corruption:")
    assert "Traceback" not in err
    assert out == ""


def run_python(args, check=False):
    """Run a fresh interpreter with ``src`` on ``PYTHONPATH``."""
    env = dict(os.environ)
    src = str(Path(__file__).resolve().parent.parent / "src")
    env["PYTHONPATH"] = os.pathsep.join(p for p in (src, env.get("PYTHONPATH")) if p)
    return subprocess.run([sys.executable, *args], env=env, check=check,
                          capture_output=True, text=True)


def test_cli_import_leaves_scipy_unloaded(workspace):
    # Only graph builds need the k-d tree; build/compress/report must not
    # pay for importing scipy.spatial, and a build loads neither scipy nor
    # pandas and prints no Python warning, on a header-only cloud either.
    (workspace / "empty.csv").write_text("x,y,z,class_id,confidence\n")
    builds = [["build", "--world", str(workspace / "world.cfg"), "--cloud",
               str(workspace / cloud), "--out", str(workspace / "tree.soct")]
              for cloud in ("cloud.csv", "empty.csv")]
    code = ("import sys, soct.cli; print('scipy.spatial' in sys.modules)\n"
            f"for argv in {builds!r}:\n"
            "    assert soct.cli.main(argv) == 0\n"
            "print(sorted(m for m in ('scipy', 'pandas') if m in sys.modules))")
    done = run_python(["-W", "always", "-c", code], check=True)
    assert done.stdout.splitlines()[0] == "False"
    assert done.stdout.splitlines()[-1] == "[]"
    assert done.stderr == ""


def test_only_graph_commands_load_the_planner(workspace):
    """``import soct`` loads no submodule; build, compress, report and the
    leaves export load neither ``soct.planning`` nor scipy, and each graph
    command, in its own process, loads both."""
    ws = str(workspace)
    maps = ["--tree", f"{ws}/tree.soct", "--weights", f"{ws}/weights.cfg"]
    mapless = [
        ["build", "--world", f"{ws}/world.cfg", "--cloud", f"{ws}/cloud.csv",
         "--out", f"{ws}/tree.soct"],
        ["compress", *maps, "--out-leaves", f"{ws}/leaves.csv"],
        ["report", *maps],
        ["export", *maps, "--what", "leaves", "--out", f"{ws}/export.csv"],
    ]
    graphs = [["plan", *maps, "--start", "0.5,3.5", "--goal", "7.5,4.5"],
              ["export", *maps, "--what", "graph", "--out", f"{ws}/graph.csv"]]
    code = ("import json, sys\n"
            "import soct\n"
            "print('loaded', [m for m in sys.modules if m.startswith('soct.')])\n"
            "from soct.cli import main\n"
            "for argv in json.loads(sys.argv[1]):\n"
            "    assert main(argv) == 0, argv\n"
            "    print('loaded', [m for m in ('soct.planning', 'scipy') if m in sys.modules])\n")

    def loaded(argvs):
        done = run_python(["-c", code, json.dumps(argvs)], check=True)
        return [line for line in done.stdout.splitlines() if line.startswith("loaded ")]

    assert loaded(mapless) == ["loaded []"] * 5
    for argv in graphs:
        assert loaded([argv]) == ["loaded []", "loaded ['soct.planning', 'scipy']"], argv


def _help_flags(command: str) -> list[str]:
    with redirect_stdout(io.StringIO()) as out, pytest.raises(SystemExit) as exc:
        main([command, "--help"])
    assert exc.value.code == 0
    options = out.getvalue().split("\noptions:\n")[1]
    return re.findall(r"^ +(?:-h, )?(--[a-z-]+)", options, re.MULTILINE)


def test_subcommand_help_lists_flags_in_declaration_order():
    """The ``--tree``/``--weights`` and graph flag groups sit where each
    subcommand declares them, and ``plan`` and ``export`` share the graph
    flags' defaults."""
    assert {cmd: _help_flags(cmd) for cmd in ("build", "compress", "report", "plan",
                                               "export")} == {
        "build": ["--help", "--world", "--cloud", "--out", "--adhoc-prune", "--error-budget"],
        "compress": ["--help", "--tree", "--weights", "--out-leaves"],
        "report": ["--help", "--tree", "--weights"],
        "plan": ["--help", "--tree", "--weights", "--start", "--goal", "--graph",
                 "--halton-n", "--k-neighbors"],
        "export": ["--help", "--tree", "--weights", "--what", "--graph", "--halton-n",
                   "--k-neighbors", "--out"],
    }
    maps = ["--tree", "t.soct", "--weights", "w.cfg"]
    plan = cli._parser().parse_args(["plan", *maps, "--start", "0,0", "--goal", "1,1"])
    export = cli._parser().parse_args(["export", *maps, "--out", "g.csv"])
    for args in (plan, export):
        assert (args.graph, args.halton_n, args.k_neighbors) == ("tree", 256, 8)


def test_module_entry_point_help_names_every_subcommand():
    done = run_python(["-m", "soct", "--help"])
    assert done.returncode == 0 and done.stderr == ""
    assert "{build,compress,report,plan,export}" in done.stdout


def test_module_entry_point_reports_a_missing_tree_as_io(workspace):
    missing = workspace / "missing.soct"
    done = run_python(["-m", "soct", "report", "--tree", str(missing),
                       "--weights", str(workspace / "weights.cfg")])
    assert done.returncode == 1 and done.stdout == ""
    assert done.stderr.startswith("error: io: ") and str(missing) in done.stderr
    assert len(done.stderr.splitlines()) == 1 and "Traceback" not in done.stderr


def test_world_whose_finest_cell_underflows_is_a_config_error(workspace, capsys):
    (workspace / "world.cfg").write_text(WORLD.replace("edge_length 8", "edge_length 1e-320")
                                         .replace("max_depth 3", "max_depth 20"))
    code, out, err = build(workspace, capsys)
    assert (code, out) == (1, "")
    assert err.startswith("error: config: edge_length 1e-320 is too small for max_depth 20")
    assert not (workspace / "tree.soct").exists()


def test_parser_is_built_once_and_keeps_no_values(workspace, capsys):
    """One parser serves every call in a process; each parse's values live
    in its own namespace, so a report after ``compress --out-leaves``
    writes no leaves file."""
    assert build(workspace, capsys)[0] == 0
    leaves = workspace / "leaves.csv"
    tree = ["--tree", workspace / "tree.soct"]
    weights = ["--weights", workspace / "weights.cfg"]
    assert run(capsys, ["compress", *tree, *weights, "--out-leaves", leaves])[0] == 0
    leaves.unlink()
    assert run(capsys, ["report", *tree, *weights])[0] == 0
    assert not leaves.exists()
    assert cli._parser() is cli._parser()
    with pytest.raises(SystemExit) as exc:
        main(["report", *map(str, tree)])  # --weights is missing
    assert exc.value.code == 2
    assert "--weights" in capsys.readouterr().err
    assert run(capsys, ["report", *tree, *weights])[0] == 0
