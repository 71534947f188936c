import os
import subprocess
import sys
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

from soct import planning
from soct.cli import main
from soct.formats import deserialize_tree, serialize_tree

from helpers import write_cloud

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
    next(tree.leaf_items())[1].weight = float("nan")
    serialize_tree(tree, workspace / "tree.soct")
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
    node = next(tree.leaf_items())[1]
    node.dist = replace(node.dist, p_free=float("nan"))
    serialize_tree(tree, workspace / "tree.soct")
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
    tree.root.weight = bad
    serialize_tree(tree, workspace / "tree.soct")
    code, out, err = run(capsys, [
        "report", "--tree", workspace / "tree.soct",
        "--weights", workspace / "weights.cfg"])
    assert code == 1
    assert err.startswith("error: corruption:")
    assert "Traceback" not in err
    assert out == ""


def test_cli_import_leaves_scipy_unloaded():
    # Only graph builds need the k-d tree; build/compress/report must not
    # pay for importing scipy.spatial.
    code = "import sys, soct.cli; print('scipy.spatial' in sys.modules)"
    env = dict(os.environ)
    src = str(Path(__file__).resolve().parent.parent / "src")
    env["PYTHONPATH"] = os.pathsep.join(p for p in (src, env.get("PYTHONPATH")) if p)
    out = subprocess.run([sys.executable, "-c", code], env=env, check=True,
                         capture_output=True, text=True).stdout
    assert out.strip() == "False"
