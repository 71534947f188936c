import struct
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from soct import formats
from soct.compression import refresh_all
from soct.errors import (
    ConfigError,
    CorruptionError,
    FormatError,
    IngestError,
)
from soct.formats import (
    CloudRecord,
    WeightsConfig,
    deserialize_tree,
    ingest,
    parse_weights_config,
    parse_world_config,
    read_cloud,
    serialize_tree,
)
from soct.octree import INTERIOR, LEAF, SUMMARY, NodeKey, SemanticOctree, WorldConfig
from soct.semantics import TruncatedSemanticDistribution

from helpers import (
    cloud_files,
    editable_nodes,
    make_random_tree,
    random_truncated,
    random_weights,
    reference_deserialize,
    reference_serialize,
    tree_of_nodes,
)


def collect(path, num_classes, **kw):
    errors = []
    records = list(ingest(path, num_classes,
                          on_error=lambda n, m: errors.append((n, m)), **kw))
    return records, errors


def test_ingest_single_record(tmp_path):
    p = tmp_path / "cloud.csv"
    p.write_text("x,y,z,class_id,confidence\n1.0,2.0,0.5,3,0.9\n")
    records, errors = collect(p, 24)
    assert errors == []
    assert records == [CloudRecord(1.0, 2.0, 0.5, 3, 0.9)]


@pytest.mark.parametrize("read", [ingest, read_cloud])
def test_readers_take_on_error_by_keyword_only(tmp_path, read):
    """A rejected line has no default destination: both readers refuse a
    call without ``on_error``, or with it passed by position."""
    p = tmp_path / "cloud.csv"
    p.write_text("x,y,z,class_id,confidence\n1.0,2.0,0.5,3,0.9\n")
    with pytest.raises(TypeError, match="on_error"):
        read(p, 24)
    with pytest.raises(TypeError, match="positional"):
        read(p, 24, 100, lambda n, m: None)


def test_ingest_reports_line_errors(tmp_path):
    p = tmp_path / "cloud.csv"
    p.write_text("x,y,z,class_id,confidence\n"
                 "1.0,2.0\n"
                 "1.0,2.0,0.5,3,0.9\n"
                 "a,2.0,0.5,3,0.9\n"
                 "1.0,2.0,0.5,99,0.9\n"
                 "1.0,2.0,0.5,3,1.5\n")
    records, errors = collect(p, 24)
    assert len(records) == 1
    assert [n for n, _ in errors] == [2, 4, 5, 6]
    assert "5 columns" in errors[0][1]


def test_ingest_budget_abort(tmp_path):
    p = tmp_path / "cloud.csv"
    p.write_text("x,y,z,class_id,confidence\n" + "bad line\n" * 10)
    with pytest.raises(IngestError, match=r"aborting after 4 malformed lines \(budget 3\)"):
        collect(p, 24, error_budget=3)


def test_ingest_empty_after_header(tmp_path):
    p = tmp_path / "cloud.csv"
    p.write_text("x,y,z,class_id,confidence\n")
    records, errors = collect(p, 24)
    assert records == [] and errors == []


def test_ingest_rejects_bad_header(tmp_path):
    p = tmp_path / "cloud.csv"
    p.write_text("x,y,z,label\n1,2,3,4\n")
    with pytest.raises(FormatError):
        collect(p, 24)


@pytest.mark.parametrize("line,message", [
    ("1_5,2.5,0.5,1,0.9", "non-numeric coordinate or confidence"),
    ("1.5,2.5,0.5,1,0.9_0", "non-numeric coordinate or confidence"),
    ("１.5,2.5,0.5,1,0.9", "non-numeric coordinate or confidence"),
    ("1.5,2.5,\xa00.5,1,0.9", "non-numeric coordinate or confidence"),
    ("1.5,2.5,0.5,1_0,0.9", "non-integer class id '1_0'"),
    ("1.5,2.5,0.5,３,0.9", "non-integer class id '３'"),
    ("1.5,2.5,0.5,3.0,0.9", "non-integer class id '3.0'"),
])
def test_ingest_reads_plain_ascii_numerals_only(tmp_path, line, message):
    p = tmp_path / "cloud.csv"
    p.write_text(f"x,y,z,class_id,confidence\n{line}\n1.5,2.5,0.5, +3 ,0.9\n",
                 encoding="utf-8")
    records, errors = collect(p, 24)
    assert errors == [(2, message)]
    assert records == [CloudRecord(1.5, 2.5, 0.5, 3, 0.9)]


def test_ingest_reports_undecodable_lines(tmp_path):
    p = tmp_path / "cloud.csv"
    p.write_bytes(b"x,y,z,class_id,confidence\n1.5,2.5,0.5,1,0.9\n"
                  b"1.5,\xff,0.5,1,0.9\n1,2,3,\xc3\n")
    records, errors = collect(p, 24)
    assert records == [CloudRecord(1.5, 2.5, 0.5, 1, 0.9)]
    assert errors == [(3, "not valid UTF-8"), (4, "not valid UTF-8")]
    calls = []
    with pytest.raises(IngestError, match="aborting after 2 malformed lines"):
        list(ingest(p, 24, error_budget=1, on_error=lambda n, m: calls.append((n, m))))
    assert calls == errors


def test_ingest_rejects_undecodable_header(tmp_path):
    p = tmp_path / "cloud.csv"
    p.write_bytes(b"x,y,z,class_id,confidence\xff\n1.5,2.5,0.5,1,0.9\n")
    with pytest.raises(FormatError, match="header is not valid UTF-8"):
        collect(p, 24)


_PLAIN_CLOUD = (b"x,y,z,class_id,confidence\n1.5,2.5,0.5,1,0.9\n"
                b"0.9,2.5,7.5,4,0.8\n2.5,2.5,0.5,0,1\n")


def _as_read(read, path, num_classes, budget):
    """What a cloud reader gives: its arrays (dtype, shape and bytes; None
    after a header error), its ``on_error`` calls, and its error."""
    calls = []
    try:
        cloud = read(path, num_classes, budget, on_error=lambda n, m: calls.append((n, m)))
        error = None
    except IngestError as exc:
        cloud, error = exc.cloud, str(exc)
    except FormatError as exc:
        cloud, error = None, str(exc)
    arrays = None if cloud is None else [(a.dtype.str, a.shape, a.tobytes()) for a in cloud]
    return arrays, calls, error


def _collect_ingest(path, num_classes, budget, on_error):
    """``ingest``, collected record by record into the arrays of a cloud."""
    def arrays(records):
        return formats.Cloud(
            np.array([(r.x, r.y, r.z) for r in records], dtype=np.float64).reshape(-1, 3),
            np.array([r.class_id for r in records], dtype=np.int64),
            np.array([r.confidence for r in records], dtype=np.float64),
            np.array([r.lineno for r in records], dtype=np.int64))

    records = []
    try:
        records.extend(ingest(path, num_classes, budget, on_error=on_error))
    except IngestError as exc:
        exc.cloud = arrays(records)
        raise
    return arrays(records)


@settings(max_examples=300, deadline=None)
@given(data=cloud_files(), budget=st.sampled_from([0, 1, 2, 100]))
@example(data=_PLAIN_CLOUD.replace(b"0.9\n", b"0.9\n\n"), budget=100)  # blank line
@example(data=_PLAIN_CLOUD.replace(b"2.5,", b"1e400,", 1), budget=100)  # reads as inf
@example(data=_PLAIN_CLOUD.replace(b"0.9,", b"nan,", 1), budget=100)  # nan
@example(data=_PLAIN_CLOUD.rstrip(b"\n"), budget=100)  # no final line end
def test_read_cloud_matches_collected_ingest(tmp_path_factory, data, budget):
    """The array reader gives what collecting ``ingest`` gives, bit for bit
    and line numbers included, with the same ``on_error`` calls and the
    same error, on plain files and on every kind of edit that sends a file
    to the per-line path."""
    path = tmp_path_factory.getbasetemp() / "generated-cloud.csv"
    path.write_bytes(data)
    got, want = (_as_read(read, path, 4, budget) for read in (read_cloud, _collect_ingest))
    # A plain bool: pytest would otherwise diff the byte strings of every
    # failing example while Hypothesis shrinks it.
    same = got == want
    assert same, [part for part, a, b in zip(("arrays", "calls", "error"), got, want)
                  if a != b]


def test_read_cloud_takes_the_array_pass_on_plain_files(tmp_path, monkeypatch):
    def fail(*args, **kwargs):
        raise AssertionError("fell back to the per-line path")

    p = tmp_path / "cloud.csv"
    p.write_bytes(b"x,y,z,class_id,confidence\r\n1.5,2.5,0.5,1,0.9\r\n"
                  b" 3e-1 ,-0.0,\t.5, +4 ,1\r\n0.5,0.5,0.5,0,1e-3")
    monkeypatch.setattr(formats, "ingest", fail)
    cloud = read_cloud(p, 4, on_error=fail)
    assert cloud.points.tolist() == [[1.5, 2.5, 0.5], [0.3, -0.0, 0.5], [0.5, 0.5, 0.5]]
    assert cloud.classes.tolist() == [1, 4, 0]
    assert cloud.confidences.tolist() == [0.9, 1.0, 1e-3]
    assert cloud.lines.tolist() == [2, 3, 4]
    p.write_bytes(b"x,y,z,class_id,confidence\n")
    assert read_cloud(p, 4, on_error=fail).points.shape == (0, 3)


def test_world_config_parse():
    text = "origin 1 -2 0.5\nedge_length 64\nmax_depth 6\nbranching 8\nnum_classes 24\n"
    parsed, num_classes = parse_world_config(text)
    assert parsed == WorldConfig((1.0, -2.0, 0.5), 64.0, 6, 8) and num_classes == 24


def test_world_config_errors():
    with pytest.raises(FormatError):
        parse_world_config("edge_length 4\nmax_depth 2\n")  # missing num_classes
    with pytest.raises(FormatError):
        parse_world_config("edge_length x\nmax_depth 2\nnum_classes 4\n")
    with pytest.raises(FormatError):
        parse_world_config("edge_length 4\nedge_length 5\n"
                           "max_depth 2\nnum_classes 4\n")


WORLD = "origin 0 0 0\nedge_length 8\nmax_depth 2\nnum_classes 4\n"
WEIGHTS = "num_classes 4\nalpha 0.01\nclass 1 relevant 4 road\nclass 2 neutral\n"


@pytest.mark.parametrize("old, new, message", [
    ("\n", "\nfoo 1\n", "line 2: unknown key 'foo'"),
    ("\n", "\nedge_length 9\n", "line 3: duplicate key 'edge_length'"),
    ("0 0 0", "0 0 0 1", "line 1: too many values for 'origin'"),
    ("edge_length 8", "edge_length 8 9", "line 2: too many values for 'edge_length'"),
])
def test_world_config_rejects_each_bad_line(old, new, message):
    with pytest.raises(FormatError, match=f"^{message}$"):
        parse_world_config(WORLD.replace(old, new, 1))


@pytest.mark.parametrize("line, message", [
    ("alpha 5", "line 5: duplicate key 'alpha'"),
    ("num_classes 4", "line 5: duplicate key 'num_classes'"),
    ("class 3 relevant 4 trees extra", "line 5: too many values for 'class'"),
    ("class 3 neutral trees extra", "line 5: too many values for 'class'"),
    ("bar 2", "line 5: unknown key 'bar'"),
])
def test_weights_config_rejects_each_bad_line(line, message):
    with pytest.raises(FormatError, match=f"^{message}$"):
        parse_weights_config(WEIGHTS + line + "\n")
    with pytest.raises(FormatError, match="^line 2: too many values for 'alpha'$"):
        parse_weights_config(WEIGHTS.replace("alpha 0.01", "alpha 0.01 7"))
    assert parse_weights_config(WEIGHTS + "class 3 neutral trees\n").entries[-1] == (
        3, "neutral", None, "trees")


def test_weights_config_parse():
    text = ("num_classes 4\n"
            "alpha 0.25\n"
            "class 1 relevant 2 road\n"
            "class 2 irrelevant 0.5 grass\n"
            "class 3 neutral\n")
    cfg = parse_weights_config(text)
    assert cfg == WeightsConfig(4, 0.25, ((1, "relevant", 2.0, "road"),
                                          (2, "irrelevant", 0.5, "grass"),
                                          (3, "neutral", None, None)))
    cw = cfg.compression_weights()
    assert cw.retain == {1: 2.0}
    assert cw.remove == {2: 0.5}
    assert cw.compress == 0.25
    registry = cfg.registry()
    assert registry.name_of(1) == "road"
    assert registry.relevant_ids == {1}


def test_weights_config_errors():
    with pytest.raises(FormatError):
        parse_weights_config("alpha 0.1\n")
    with pytest.raises(FormatError):
        parse_weights_config("num_classes 4\nalpha 0.1\nclass x relevant 1\n")
    with pytest.raises(ConfigError):
        parse_weights_config("num_classes 4\nalpha 0.1\n"
                             "class 1 relevant 1\nclass 1 neutral\n")
    with pytest.raises(ConfigError):
        WeightsConfig(4, 0.1, ((1, "neutral", 2.0, None),))
    with pytest.raises(ConfigError):
        WeightsConfig(4, 0.1, ((1, "relevant", None, None),))
    with pytest.raises(ConfigError):
        WeightsConfig(4, 0.1, ((9, "relevant", 1.0, None),))


@pytest.mark.parametrize("value", [float("nan"), float("inf"), float("-inf")])
def test_non_finite_weights_config_is_rejected(value):
    with pytest.raises(ConfigError, match="alpha must be non-negative and finite"):
        WeightsConfig(4, value, ((1, "relevant", 1.0, None),))
    for role in ("relevant", "irrelevant"):
        with pytest.raises(ConfigError, match="needs a non-negative finite weight"):
            WeightsConfig(4, 0.1, ((1, role, value, None),))


def test_class_count_above_format_limit_is_rejected_before_writing(tmp_path):
    world = WorldConfig((0, 0, 0), 8.0, 3)
    path = tmp_path / "tree.soct"
    path.write_bytes(b"an existing map")
    with pytest.raises(ConfigError, match="num_classes must be at most 65535"):
        serialize_tree(SemanticOctree(world, 65536), path)
    assert path.read_bytes() == b"an existing map"
    text = "origin 0 0 0\nedge_length 8\nmax_depth 3\nbranching 8\nnum_classes {}\n"
    with pytest.raises(ConfigError, match="num_classes must be at most 65535"):
        parse_world_config(text.format(65536))
    assert parse_world_config(text.format(65535)) == (world, 65535)


def test_serialize_empty_tree(tmp_path):
    tree = SemanticOctree(WorldConfig((0, 0, 0), 8.0, 3), 4)
    path = tmp_path / "empty.soct"
    serialize_tree(tree, path)
    data = path.read_bytes()
    # magic + version + origin + (edge, depth, branching, K) + root record
    assert len(data) == 4 + 1 + 24 + 12 + 10
    back = deserialize_tree(path)
    assert len(back.nodes) == 1
    assert back.world == tree.world


def test_roundtrip_bit_exact_random_trees(tmp_path):
    rng = np.random.default_rng(70)
    for i in range(20):
        branching = int(rng.choice([2, 4, 8]))
        depth = int(rng.integers(1, {2: 5, 4: 4, 8: 3}[branching]))
        tree = make_random_tree(rng, branching, depth,
                                num_classes=int(rng.integers(4, 9)),
                                fill=float(rng.uniform(0.2, 1.0)))
        p1 = tmp_path / f"t{i}a.soct"
        p2 = tmp_path / f"t{i}b.soct"
        serialize_tree(tree, p1)
        back = deserialize_tree(p1)
        serialize_tree(back, p2)
        assert p1.read_bytes() == p2.read_bytes()
        assert set(back.nodes) == set(tree.nodes)
        for key, node in tree.nodes.items():
            other = back.nodes[key]
            assert other.kind == node.kind
            assert other.weight == node.weight
            if node.dist is not None:
                assert other.dist == node.dist


def test_roundtrip_preserves_summaries(tmp_path):
    rng = np.random.default_rng(71)
    world = WorldConfig((0, 0, 0), 4.0, 2, branching=4)
    tree = SemanticOctree(world, 4)
    from helpers import random_truncated
    shared = random_truncated(rng, 4)
    for ix in range(4):
        for iy in range(4):
            tree.set_leaf((ix, iy), shared, 1.0)
    tree.prune_all_identical()
    path = tmp_path / "pruned.soct"
    serialize_tree(tree, path)
    back = deserialize_tree(path)
    assert back.has_summaries()
    p2 = tmp_path / "pruned2.soct"
    serialize_tree(back, p2)
    assert path.read_bytes() == p2.read_bytes()


def test_bad_magic_rejected(tmp_path):
    p = tmp_path / "bad.soct"
    p.write_bytes(b"XOCT" + bytes(60))
    with pytest.raises(FormatError):
        deserialize_tree(p)


def test_bad_version_rejected(tmp_path):
    tree = SemanticOctree(WorldConfig((0, 0, 0), 8.0, 3), 4)
    p = tmp_path / "v255.soct"
    serialize_tree(tree, p)
    data = bytearray(p.read_bytes())
    data[4] = 255
    p.write_bytes(bytes(data))
    with pytest.raises(FormatError):
        deserialize_tree(p)


def test_truncated_file_rejected(tmp_path):
    rng = np.random.default_rng(72)
    tree = make_random_tree(rng, branching=4, depth=2)
    p = tmp_path / "trunc.soct"
    serialize_tree(tree, p)
    data = p.read_bytes()
    p.write_bytes(data[: len(data) // 2])
    with pytest.raises(CorruptionError):
        deserialize_tree(p)


def test_trailing_garbage_rejected(tmp_path):
    rng = np.random.default_rng(73)
    tree = make_random_tree(rng, branching=4, depth=2)
    p = tmp_path / "extra.soct"
    serialize_tree(tree, p)
    p.write_bytes(p.read_bytes() + b"\x00\x01")
    with pytest.raises(CorruptionError):
        deserialize_tree(p)


@pytest.mark.parametrize("bad", [float("nan"), float("inf"), float("-inf"), -1.0])
def test_bad_leaf_weight_rejected(tmp_path, bad):
    rng = np.random.default_rng(74)
    tree = make_random_tree(rng, branching=4, depth=2)
    nodes = editable_nodes(tree)
    next(n for n in nodes.values() if n.kind == LEAF).weight = bad
    p = tmp_path / "weight.soct"
    serialize_tree(tree_of_nodes(tree.world, 4, nodes), p)
    with pytest.raises(CorruptionError, match="weight"):
        deserialize_tree(p)


@pytest.mark.parametrize("bad", [float("nan"), float("inf"), -0.5])
def test_bad_summary_weight_rejected(tmp_path, bad):
    from helpers import random_truncated
    rng = np.random.default_rng(75)
    tree = SemanticOctree(WorldConfig((0, 0, 0), 4.0, 2, branching=4), 4)
    shared = random_truncated(rng, 4)
    for ix in range(2):
        for iy in range(2):
            tree.set_leaf((ix, iy), shared, 1.0)
    assert tree.prune_all_identical() == 1
    nodes = editable_nodes(tree)
    next(n for n in nodes.values() if n.kind == SUMMARY).weight = bad
    p = tmp_path / "summary.soct"
    serialize_tree(tree_of_nodes(tree.world, 4, nodes), p)
    with pytest.raises(CorruptionError, match="weight"):
        deserialize_tree(p)


@pytest.mark.parametrize("summary", [False, True])
@pytest.mark.parametrize("field", ["class_id", "nan_probability"])
def test_invalid_record_rejected_as_corruption(tmp_path, summary, field):
    rng = np.random.default_rng(76)
    tree = SemanticOctree(WorldConfig((0, 0, 0), 4.0, 2, branching=4), 4)
    shared = TruncatedSemanticDistribution(((2, 0.5), (1, 0.2), (3, 0.1)), 0.1, 0.1)
    for ix in range(2):
        for iy in range(2):
            tree.set_leaf((ix, iy), shared if summary else random_truncated(rng, 4))
    if summary:
        assert tree.prune_all_identical() == 1
    nodes = editable_nodes(tree)
    node = next(n for n in nodes.values() if n.kind == (SUMMARY if summary else LEAF))
    if field == "class_id":
        node.dist = replace(node.dist, top3=((5,) + node.dist.top3[0][1:],)
                            + node.dist.top3[1:])
    else:
        node.dist = replace(node.dist, p_free=float("nan"))
    p = tmp_path / "record.soct"
    serialize_tree(tree_of_nodes(tree.world, 4, nodes), p)
    with pytest.raises(CorruptionError, match="invalid"):
        deserialize_tree(p)



@pytest.mark.parametrize("bad", [1e300, float("nan"), float("inf"), -1.0])
def test_bad_interior_weight_rejected(tmp_path, bad):
    rng = np.random.default_rng(77)
    tree = make_random_tree(rng, branching=4, depth=2)
    nodes = editable_nodes(tree)
    nodes[(0, 0)].weight = bad
    p = tmp_path / "interior.soct"
    serialize_tree(tree_of_nodes(tree.world, tree.num_classes, nodes), p)
    with pytest.raises(CorruptionError, match="interior record"):
        deserialize_tree(p)


def test_interior_weight_off_its_children_rejected(tmp_path):
    rng = np.random.default_rng(78)
    tree = make_random_tree(rng, branching=2, depth=3, fill=1.0)
    nodes = editable_nodes(tree)
    key = next(k for k, n in nodes.items() if n.kind == INTERIOR and k.depth == 2)
    nodes[key].weight *= 1.0 + 1e-6
    p = tmp_path / "interior.soct"
    serialize_tree(tree_of_nodes(tree.world, tree.num_classes, nodes), p)
    with pytest.raises(CorruptionError, match="interior record"):
        deserialize_tree(p)


# Hand-made files on a branching-2, depth-2 world, node by node in pre-order.


def _interior(weight, mask):
    return struct.pack("<BdB", INTERIOR, weight, mask)


def _record(weight, kind=LEAF, p_free=0.3, n_top=1):
    return (struct.pack("<BdB", kind, weight, n_top) + struct.pack("<Hd", 1, 0.7)
            + struct.pack("<Hd", 2, 0.0) * (n_top - 1) + struct.pack("<dd", p_free, 0.0))


def _tree_file(*nodes, depth=2, branching=2):
    return struct.pack("<4sB3ddBBH", formats.MAGIC, formats.FORMAT_VERSION,
                       0.0, 0.0, 0.0, 8.0, depth, branching, 4) + b"".join(nodes)


_R = _record(1.0)
_VALID = _tree_file(_interior(4.0, 3), _interior(2.0, 3), _R, _R, _interior(2.0, 3), _R, _R)
_DEPTH_2 = "NodeKey(depth=2, index={})"
# Eight leaf weights that complete to 12.475999999999999 added in octant
# order, as ``completed_weight`` adds them; numpy's pairwise sum gives 12.476.
_EIGHT = [_record(w) for w in (1.947, 0.882, 0.219, 0.148, 2.458, 2.747, 1.859, 2.216)]


def test_header_whose_finest_cell_underflows_is_corruption(tmp_path):
    path = tmp_path / "tree.soct"
    path.write_bytes(struct.pack("<4sB3ddBBH", formats.MAGIC, formats.FORMAT_VERSION,
                                 0.0, 0.0, 0.0, 1e-320, 20, 8, 4) + _interior(0.0, 0))
    with pytest.raises(CorruptionError, match="^invalid world header: .*cell size is 0"):
        deserialize_tree(path)


@pytest.mark.parametrize("data, message", [
    (_VALID, None),
    (_tree_file(_interior(0.0, 0)), None),  # an empty map
    (_tree_file(_interior(4.0, 3), _interior(2.0, 1), _R, _interior(2.0, 2), _R), None),
    (_VALID[:41 + 20 + 26 + 5], "truncated tree file"),  # in a head
    (_VALID[:41 + 20 + 26 + 9], "truncated tree file"),  # before a field byte
    (_VALID[:41 + 20 + 20], "truncated tree file"),  # in a record
    (_VALID[:41], "truncated tree file"),
    (_tree_file(_interior(4.0, 3), _interior(2.0, 3), struct.pack("<Bd", LEAF, -1.0)),
     f"record {_DEPTH_2.format(0)} has invalid weight -1.0"),  # before the cut
    (_tree_file(_interior(4.0, 3), _interior(2.0, 3), _R, struct.pack("<Bd", 7, 1.0)),
     "unknown node kind 7"),
    (_tree_file(_interior(4.0, 3), _interior(2.0, 3), _R, _record(1.0, kind=3)),
     "unknown node kind 3"),
    (_tree_file(_interior(4.0, 3), _record(2.0), _interior(2.0, 3), _R, _R),
     "leaf record at depth 1"),
    (_tree_file(_interior(4.0, 3), _interior(2.0, 3), _record(1.0, SUMMARY), _R),
     "summary record at depth 2"),
    (_tree_file(_interior(4.0, 3), _interior(2.0, 3), _interior(1.0, 3), _R, _R),
     "interior record at depth 2"),
    (_tree_file(_interior(4.0, 4), _R), "child bitmask 0x4 exceeds branching"),
    (_tree_file(_interior(4.0, 3), _interior(2.0, 0x83), _R, _R),
     "child bitmask 0x83 exceeds branching"),
    (_tree_file(_interior(4.0, 3), _interior(2.0, 0), _interior(2.0, 3), _R, _R),
     "childless interior record at NodeKey(depth=1, index=0)"),
    (_tree_file(_interior(4.0, 3), _interior(2.0, 3), _record(1.0, n_top=4), _R),
     "leaf stores 4 classes, maximum is 3"),
    (_VALID + b"\x00\x01\x02", "3 trailing bytes"),
    # An interior weight is checked once its subtree is read: a bad record
    # inside comes first, one after it comes later.
    (_tree_file(_interior(4.0, 3), _interior(5.0, 3), _R, _record(1.0, p_free=0.5),
                _interior(2.0, 3), _R, _R),
     f"record {_DEPTH_2.format(1)} is invalid: probabilities sum to 1.2, not 1"),
    (_tree_file(_interior(4.0, 3), _interior(5.0, 3), _R, _R,
                _interior(2.0, 3), _record(1.0, p_free=0.5), _R),
     "interior record NodeKey(depth=1, index=0) has weight 5.0, its children complete "
     "to 2.0"),
    (_tree_file(_interior(4.0, 3), _interior(5.0, 3), _R, _R, _interior(2.0, 3))[:-3],
     "interior record NodeKey(depth=1, index=0) has weight 5.0, its children complete "
     "to 2.0"),
    # Subtrees that end together: the deeper root first.
    (_tree_file(_interior(4.25, 3), _interior(2.0, 3), _R, _R, _interior(2.5, 3), _R, _R),
     "interior record NodeKey(depth=1, index=1) has weight 2.5, its children complete "
     "to 2.0"),
    (_tree_file(_interior(4.0, 3), _interior(1.0, 1), _R, _interior(2.0, 3), _R, _R),
     "interior record NodeKey(depth=1, index=0) has weight 1.0, its children complete "
     "to 2.0"),  # an absent child counts at the mean
    (_tree_file(_interior(1.0, 0)),
     "interior record NodeKey(depth=0, index=0) has weight 1.0, its children complete "
     "to 0.0"),
    # The last weight within 1e-9 of that sum, and the first one past it.
    (_tree_file(_interior(12.476000012475998, 0xff), *_EIGHT, depth=1, branching=8), None),
    (_tree_file(_interior(12.476000012476, 0xff), *_EIGHT, depth=1, branching=8),
     "interior record NodeKey(depth=0, index=0) has weight 12.476000012476, its children "
     "complete to 12.475999999999999"),
    (_tree_file(_interior(float("nan"), 3), _interior(2.0, 3), _R, _R,
                _interior(2.0, 3), _R, _R),
     "interior record NodeKey(depth=0, index=0) has weight nan, its children complete "
     "to 4.0"),
])
def test_reader_meets_errors_in_the_reference_order(tmp_path, data, message):
    """Each node's checks in the order its bytes are read, an interior
    weight once its subtree is read: the first error and its message are
    the recursive reference reader's."""
    path = tmp_path / "tree.soct"
    path.write_bytes(data)
    want = _load(reference_deserialize, path)
    got = _load(deserialize_tree, path)
    if message is None:
        assert not isinstance(want, tuple), want
        _same_tree(want, got)
    else:
        assert want == got == (CorruptionError, message)


@pytest.mark.parametrize("branching", [2, 4, 8])
def test_refreshed_random_trees_load(tmp_path, branching):
    """Interior weights summed either way (observation path or batch
    refresh), with zero-weight leaves and summaries, pass the load check."""
    rng = np.random.default_rng(79 + branching)
    depth = {2: 4, 4: 3, 8: 2}[branching]
    for i in range(10):
        tree = make_random_tree(rng, branching=branching, depth=depth,
                                fill=float(rng.uniform(0.2, 1.0)))
        n = 1 << depth
        for _ in range(3):
            coords = tuple(int(c) for c in rng.integers(0, n, tree.world.dims))
            tree.set_leaf(coords, random_truncated(rng, 4), 0.0)
        for _ in range(5):
            tree.add_observation(rng.uniform(0, 16, 3), int(rng.integers(0, 5)), 0.8)
        if i % 2:
            refresh_all(tree, random_weights(rng))
        if i % 3 == 0:
            tree.prune_all_identical()
        p = tmp_path / f"ok{i}.soct"
        serialize_tree(tree, p)
        loaded = deserialize_tree(p)
        assert {k: n.weight for k, n in loaded.nodes.items()} == {
            k: n.weight for k, n in tree.nodes.items()}


# -- the reader against the recursive reference ----------------------------------

_SPECIALS = [float("nan"), float("inf"), -1.0, 1e300, 0.0, -0.0, 0.5, 2.0]


def _fuzz_tree(rng, branching):
    """A random tree with zero-weight leaves and, usually, a summary."""
    depth = {2: 3, 4: 2, 8: 2}[branching]
    tree = make_random_tree(rng, branching, depth, fill=float(rng.uniform(0.2, 1.0)))
    dims, n = tree.world.dims, 1 << depth
    for _ in range(2):
        coords = tuple(int(c) for c in rng.integers(0, n, dims))
        tree.set_leaf(coords, random_truncated(rng, 4), 0.0)
    if rng.random() < 0.7:
        parent = rng.integers(0, n // 2, dims)
        shared = random_truncated(rng, 4)
        for octant in range(branching):
            tree.set_leaf(tuple(int(2 * parent[a] + ((octant >> a) & 1))
                                for a in range(dims)),
                          shared, float(rng.uniform(0.0, 2.0)))
        tree.prune_all_identical()
    return tree


def _corrupt_values(rng, tree, count):
    """The tree with ``count`` random nodes given some of: a bad weight, a
    bad record field, reversed stored classes, the other record kind (a
    depth error)."""
    nodes = editable_nodes(tree)
    keys = list(nodes)
    for i in rng.integers(0, len(keys), count):
        node = nodes[keys[i]]
        change = rng.random(5) < 0.5
        if change[0] or node.dist is None:
            node.weight = (node.weight * (1 + 1e-6) if rng.random() < 0.5
                           else _SPECIALS[rng.integers(0, len(_SPECIALS))])
        if node.dist is None:
            continue
        if change[1]:
            node.dist = replace(node.dist,
                                p_free=_SPECIALS[rng.integers(0, len(_SPECIALS))])
        if change[2] and node.dist.top3:
            _, p = node.dist.top3[0]
            node.dist = replace(node.dist, top3=((int(rng.choice([0, 5, 60000])), p),)
                                + node.dist.top3[1:])
        if change[3]:
            node.dist = replace(node.dist, top3=node.dist.top3[::-1],
                                p_residual=node.dist.p_residual + 1e-3)
        if change[4]:
            node.kind = SUMMARY if node.kind == LEAF else LEAF
    return tree_of_nodes(tree.world, tree.num_classes, nodes)


def _load(loader, path):
    try:
        return loader(path)
    except (FormatError, CorruptionError) as exc:
        return type(exc), str(exc)


def _same_tree(a, b):
    assert list(a.nodes) == list(b.nodes)
    assert (a.world, a.num_classes) == (b.world, b.num_classes)
    for key, node in a.nodes.items():
        other = b.nodes[key]
        assert (other.kind, struct.pack("<d", other.weight), other.dist) == (
            node.kind, struct.pack("<d", node.weight), node.dist)
        if node.cond is None:
            assert other.cond is None
        else:
            assert other.cond.tobytes() == node.cond.tobytes()


@settings(max_examples=150, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), branching=st.sampled_from([2, 4, 8]),
       bad_values=st.integers(0, 6),
       edits=st.lists(st.tuples(st.integers(0, 2**20), st.integers(0, 255)), max_size=3),
       cut=st.one_of(st.none(), st.integers(0, 2**20)), tail=st.binary(max_size=2))
def test_reader_matches_recursive_reference(tmp_path_factory, seed, branching,
                                            bad_values, edits, cut, tail):
    """Mutated and truncated files load as the recursive reader loads them,
    or fail with its exception type and message, and with no other type."""
    rng = np.random.default_rng(seed)
    tree = _corrupt_values(rng, _fuzz_tree(rng, branching), bad_values)
    path = tmp_path_factory.mktemp("fuzz") / "tree.soct"
    serialize_tree(tree, path)
    data = bytearray(path.read_bytes())
    for at, value in edits:
        data[at % len(data)] = value
    if cut is not None:
        data = data[:cut % (len(data) + 1)]
    path.write_bytes(bytes(data) + tail)
    want = _load(reference_deserialize, path)
    got = _load(deserialize_tree, path)
    if isinstance(want, tuple):
        assert got == want
    else:
        assert not isinstance(got, tuple), got
        _same_tree(want, got)


def _record_source_ops(rng, tree, count):
    """The tree after streamed observations (new leaves and updates),
    ``set_leaf``, a pruned and re-expanded block, and ``node.dist``
    assignments in a dict of its nodes that a new tree is built of."""
    world, k = tree.world, tree.num_classes
    n = 1 << world.max_depth
    for op in rng.integers(0, 5, count):
        leaves = [key for key, node in tree.nodes.items() if node.kind == LEAF]
        if op == 0 or (op == 1 and not leaves):
            tree.add_observation(rng.uniform(0, 8, 3), int(rng.integers(0, k + 1)),
                                 float(rng.uniform(0.5, 0.95)))
        elif op == 1:
            key = leaves[int(rng.integers(len(leaves)))]
            tree.add_observation(world.center_of(key), int(rng.integers(0, k + 1)), 0.9)
        elif op == 2:
            tree.set_leaf(tuple(int(c) for c in rng.integers(0, n, world.dims)),
                          random_truncated(rng, k), float(rng.uniform(0.1, 3.0)))
        elif op == 3:
            block, shared = int(rng.integers(0, n ** world.dims // world.branching)), \
                random_truncated(rng, k)
            for octant in range(world.branching):
                tree.set_leaf(world.coords_of(NodeKey(world.max_depth,
                                                      block * world.branching + octant)),
                              shared)
            assert tree.prune_all_identical()
            if rng.random() < 0.5:
                tree.expand_summaries()
        else:
            nodes = editable_nodes(tree)
            records = [node for node in nodes.values() if node.kind != INTERIOR]
            records[int(rng.integers(len(records)))].dist = random_truncated(rng, k)
            tree = tree_of_nodes(world, k, nodes)
    return tree


def _assert_writes_as_reference(tree, path):
    serialize_tree(tree, path)
    assert path.read_bytes() == reference_serialize(tree)
    read = reference_deserialize(path)
    assert read.nodes.keys() == tree.nodes.keys()
    for key, node in tree.nodes.items():
        other = read.nodes[key]
        assert (other.kind, struct.pack("<d", other.weight), other.dist) == (
            node.kind, struct.pack("<d", node.weight), node.dist), key


@settings(max_examples=15, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), branching=st.sampled_from([2, 4, 8]))
def test_records_from_every_source_write_as_the_reference(tmp_path_factory, seed,
                                                          branching):
    """A tree whose records come from a batch build, a load, streamed
    updates, ``set_leaf``, prune and summary expansion and ``node.dist``
    assignments writes the bytes of the per-field reference writer, and the
    reference reader reads it back node for node. An invalid record with
    id 0 in a used slot is written as it is: the slot stays used."""
    rng = np.random.default_rng(seed)
    depth = {2: 4, 4: 3, 8: 2}[branching]
    k = int(rng.integers(4, 7))
    world = WorldConfig((0, 0, 0), 8.0, depth, branching)
    path = tmp_path_factory.mktemp("sources") / "tree.soct"
    tree, _ = SemanticOctree.from_observations(
        world, k, rng.uniform(0, 8, (30, 3)), rng.integers(0, k + 1, 30),
        rng.uniform(0.5, 0.95, 30))
    tree = _record_source_ops(rng, tree, 6)
    _assert_writes_as_reference(tree, path)
    tree = _record_source_ops(rng, deserialize_tree(path), 6)
    _assert_writes_as_reference(tree, path)
    nodes = editable_nodes(tree)
    node = next(node for node in nodes.values() if node.dist and node.dist.top3)
    node.dist = replace(node.dist, top3=((0, node.dist.top3[0][1]),) + node.dist.top3[1:])
    tree = tree_of_nodes(world, k, nodes)
    serialize_tree(tree, path)
    assert path.read_bytes() == reference_serialize(tree)
    with pytest.raises(CorruptionError, match="distinct and non-zero"):
        deserialize_tree(path)
