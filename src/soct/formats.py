"""File formats: point-cloud CSV, key-value configs, and the binary tree format.

Point clouds are UTF-8, comma-separated text with header
``x,y,z,class_id,confidence``. ``read_cloud`` reads a whole cloud into arrays:
a plain file (the header, then only ASCII numerals, commas, spaces and tabs;
no blank line; every line valid) is parsed in one ``np.loadtxt`` pass and
checked with vectorized rules, and any other file goes through ``ingest``,
the per-line reader that defines every per-line error, with the same result.
World and weight profiles use a flat key-value text format that round-trips
unchanged. Trees use a versioned little-endian binary format, so serialize ->
deserialize -> serialize is byte-identical: a 41-byte header (magic ``SOCT``,
version u8, origin 3×f64, edge length f64, max depth u8, branching u8, class
count u16), then each node in pre-order. A node starts with its kind u8
(``octree.INTERIOR``, ``LEAF``, ``SUMMARY``: 0, 1, 2) and weight f64; an
interior node ends with its child-presence bitmask u8 (10 bytes),
a leaf or summary goes on with n_top u8, n_top × (class id u16, probability
f64), p_free f64 and p_residual f64 (26 + 10·n_top bytes).
"""

from __future__ import annotations

import io
import itertools
import logging
import math
import re
import struct
from dataclasses import dataclass, field
from typing import Callable, Iterator, NamedTuple

import numpy as np

from .compression import CompressionWeights
from .errors import ConfigError, CorruptionError, FormatError, IngestError
from .octree import (
    INTERIOR,
    LEAF,
    SUMMARY,
    Node,
    NodeKey,
    SemanticOctree,
    WorldConfig,
    completed_weight,
)
from .semantics import (
    ROLE_IRRELEVANT,
    ROLE_NEUTRAL,
    ROLE_RELEVANT,
    ClassRegistry,
    TruncatedRows,
    expand_rows,
    record_errors,
)

log = logging.getLogger(__name__)

CLOUD_HEADER = "x,y,z,class_id,confidence"

MAGIC = b"SOCT"
FORMAT_VERSION = 1


# -- point-cloud ingestion ------------------------------------------------------


@dataclass(frozen=True)
class CloudRecord:
    """One point-cloud record; ``lineno`` is its line in the file (1 is the
    header, 0 when not read from a file) and takes no part in equality."""

    x: float
    y: float
    z: float
    class_id: int
    confidence: float
    lineno: int = field(default=0, compare=False)

    @property
    def point(self) -> tuple[float, float, float]:
        return (self.x, self.y, self.z)


class Cloud(NamedTuple):
    """A point cloud as arrays, in file order: ``points`` (N, 3) f8,
    ``classes`` (N,) i8, ``confidences`` (N,) f8 and ``lines`` (N,) i8, the
    line of each record in the file (the header is line 1)."""

    points: np.ndarray
    classes: np.ndarray
    confidences: np.ndarray
    lines: np.ndarray


# Bytes that are not UTF-8, as a read with errors="surrogateescape" gives them.
_UNDECODABLE = re.compile("[\udc80-\udcff]")


def _undecodable(text: str) -> bool:
    return not text.isascii() and _UNDECODABLE.search(text) is not None


def _plain(field: str) -> bool:
    # float() and int() also read digit separators and non-ASCII digits;
    # a cloud file's numerals are plain ASCII.
    return field.isascii() and "_" not in field


def _parse_cloud_line(line: str, num_classes: int, lineno: int) -> CloudRecord:
    if _undecodable(line):
        raise ValueError("not valid UTF-8")
    parts = line.split(",")
    if len(parts) != 5:
        raise ValueError(f"expected 5 columns, found {len(parts)}")
    try:
        if not all(map(_plain, (parts[0], parts[1], parts[2], parts[4]))):
            raise ValueError
        x, y, z = float(parts[0]), float(parts[1]), float(parts[2])
        confidence = float(parts[4])
    except ValueError:
        raise ValueError("non-numeric coordinate or confidence") from None
    if not all(math.isfinite(v) for v in (x, y, z, confidence)):
        raise ValueError("non-finite coordinate or confidence")
    try:
        if not _plain(parts[3]):
            raise ValueError
        class_id = int(parts[3])
    except ValueError:
        raise ValueError(f"non-integer class id {parts[3]!r}") from None
    if not 0 <= class_id <= num_classes:
        raise ValueError(f"class id {class_id} outside 0..{num_classes}")
    if not 0.0 < confidence <= 1.0:
        raise ValueError(f"confidence {confidence} outside (0, 1]")
    return CloudRecord(x, y, z, class_id, confidence, lineno)


def ingest(path, num_classes: int, error_budget: int = 100,
           on_error: Callable[[int, str], None] | None = None,
           ) -> Iterator[CloudRecord]:
    """Yield records from a point-cloud file in file order, one line at a time.

    This is the per-line path: it defines every per-line error, and
    ``read_cloud`` falls back to it for any file its array pass does not
    take. Blank lines are skipped. Malformed lines, including lines that are
    not valid UTF-8, are reported with their line number through
    ``on_error`` (default: a log warning) and skipped; once more than
    ``error_budget`` lines have failed, the whole file is rejected. A wrong
    or undecodable header is a ``FormatError``.
    """
    if on_error is None:
        on_error = lambda lineno, msg: log.warning("line %d: %s", lineno, msg)
    failed = 0
    with open(path, "r", encoding="utf-8", errors="surrogateescape") as fh:
        header = fh.readline().strip()
        if _undecodable(header):
            raise FormatError("point-cloud header is not valid UTF-8")
        if header != CLOUD_HEADER:
            raise FormatError(
                f"bad point-cloud header {header!r}, expected {CLOUD_HEADER!r}")
        for lineno, raw in enumerate(fh, start=2):
            line = raw.strip()
            if not line:
                continue
            try:
                yield _parse_cloud_line(line, num_classes, lineno)
            except ValueError as exc:
                failed += 1
                on_error(lineno, str(exc))
                if failed > error_budget:
                    raise IngestError(f"aborting after {failed} malformed lines "
                                      f"(budget {error_budget})") from None


_CLOUD_ROW = np.dtype([("x", "<f8"), ("y", "<f8"), ("z", "<f8"),
                       ("class_id", "<i8"), ("confidence", "<f8")])
# All a plain cloud body holds: ASCII numerals without digit separators,
# commas, spaces, tabs and line ends.
_PLAIN_BYTES = b"0123456789+-.eE, \t\n"


def _cloud(rows: np.ndarray, lines) -> Cloud:
    return Cloud(np.column_stack((rows["x"], rows["y"], rows["z"])),
                 rows["class_id"].copy(), rows["confidence"].copy(),
                 np.asarray(lines, dtype=np.int64))


def _read_plain(data: bytes, num_classes: int) -> Cloud | None:
    """The array pass: the cloud of a plain file, or None for a file that
    needs ``ingest``. A plain file starts with the header, holds only
    ``_PLAIN_BYTES`` after it, has no blank line (``ingest`` skips those, so
    later line numbers shift), and every line parses in ``np.loadtxt`` and
    passes the checks of ``_parse_cloud_line``. On such text ``np.loadtxt``
    reads the numerals that ``float()`` and ``int()`` read, to the same
    values."""
    if b"\r" in data:  # the universal newlines of the text-mode read in ``ingest``
        data = data.replace(b"\r\n", b"\n").replace(b"\r", b"\n")
    header, _, body = data.partition(b"\n")
    if (header.strip() != CLOUD_HEADER.encode() or body.translate(None, _PLAIN_BYTES)
            or b"\n\n" in b"\n" + body):
        return None
    if not body:
        return _cloud(np.empty(0, _CLOUD_ROW), [])
    if not body.endswith(b"\n"):
        body += b"\n"
    try:
        rows = np.loadtxt(io.StringIO(body.decode("ascii")), dtype=_CLOUD_ROW,
                          delimiter=",", comments=None, ndmin=1)
    except ValueError:
        return None
    cloud = _cloud(rows, np.arange(2, len(rows) + 2))
    conf = cloud.confidences
    if (len(rows) == body.count(b"\n")
            and np.isfinite(cloud.points).all()
            and ((cloud.classes >= 0) & (cloud.classes <= num_classes)).all()
            and ((conf > 0.0) & (conf <= 1.0)).all()):  # also rejects NaN and inf
        return cloud
    return None


def read_cloud(path, num_classes: int, error_budget: int = 100,
               on_error: Callable[[int, str], None] | None = None) -> Cloud:
    """Read a whole point-cloud file into arrays.

    The result, the ``on_error`` calls and any error are those of collecting
    ``ingest`` record by record, line numbers included. A plain file is
    parsed in one ``np.loadtxt`` pass and checked with vectorized rules; any
    other file (one that is not ASCII, has a blank line, or has a line that
    fails to parse or a check) is read by ``ingest``. An ``IngestError``
    carries the records read before the abort in its ``cloud``.
    """
    with open(path, "rb") as fh:
        cloud = _read_plain(fh.read(), num_classes)
    if cloud is not None:
        return cloud
    rows, lines = [], []
    try:
        for r in ingest(path, num_classes, error_budget, on_error):
            rows.append((r.x, r.y, r.z, r.class_id, r.confidence))
            lines.append(r.lineno)
    except IngestError as exc:
        exc.cloud = _cloud(np.array(rows, dtype=_CLOUD_ROW), lines)
        raise
    return _cloud(np.array(rows, dtype=_CLOUD_ROW), lines)


# -- key-value configs ------------------------------------------------------------


def _kv_lines(text: str, arity: dict[str, int]) -> Iterator[tuple[int, str, list[str]]]:
    """(line number, key, values) of each line with content, comments cut.

    A key that ``arity`` does not list, more values than ``arity[key]``, or
    a repeated key other than ``class`` is a ``FormatError`` naming the line.
    """
    seen = set()
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        key, *values = line.split()
        if key not in arity:
            raise FormatError(f"line {lineno}: unknown key {key!r}")
        if key in seen:
            raise FormatError(f"line {lineno}: duplicate key {key!r}")
        if len(values) > arity[key]:
            raise FormatError(f"line {lineno}: too many values for {key!r}")
        if key != "class":
            seen.add(key)
        yield lineno, key, values


_WORLD_KEYS = {"origin": 3, "edge_length": 1, "max_depth": 1, "branching": 1,
               "num_classes": 1}
_WEIGHTS_KEYS = {"num_classes": 1, "alpha": 1, "class": 4}


def parse_world_config(text: str) -> tuple[WorldConfig, int]:
    """Parse a world description; returns the config and the class count."""
    values = {key: args for _, key, args in _kv_lines(text, _WORLD_KEYS)}
    try:
        origin = tuple(float(v) for v in values.get("origin", ["0", "0", "0"]))
        edge = float(values["edge_length"][0])
        depth = int(values["max_depth"][0])
        branching = int(values.get("branching", ["8"])[0])
        num_classes = int(values["num_classes"][0])
    except KeyError as exc:
        raise FormatError(f"missing world key {exc.args[0]!r}") from None
    except (ValueError, IndexError):
        raise FormatError("malformed world config value") from None
    if len(origin) != 3:
        raise FormatError("origin needs exactly 3 values")
    _check_num_classes(num_classes)
    return WorldConfig(origin, edge, depth, branching), num_classes


def emit_world_config(world: WorldConfig, num_classes: int) -> str:
    return (f"origin {world.origin[0]:.9g} {world.origin[1]:.9g} "
            f"{world.origin[2]:.9g}\n"
            f"edge_length {world.edge_length:.9g}\n"
            f"max_depth {world.max_depth}\n"
            f"branching {world.branching}\n"
            f"num_classes {num_classes}\n")


@dataclass(frozen=True)
class WeightsConfig:
    """Per-class roles and weights plus the compression price.

    Each class id appears at most once; relevant/irrelevant entries carry a
    non-negative finite weight, neutral entries carry none.
    """

    num_classes: int
    alpha: float
    entries: tuple[tuple[int, str, float | None, str | None], ...] = ()

    def __post_init__(self):
        seen = set()
        for cid, role, weight, _ in self.entries:
            if cid in seen:
                raise ConfigError(f"class {cid} appears twice")
            seen.add(cid)
            if not 0 <= cid <= self.num_classes:
                raise ConfigError(f"class id {cid} outside 0..{self.num_classes}")
            if role == ROLE_NEUTRAL:
                if weight is not None:
                    raise ConfigError(f"neutral class {cid} must not carry a weight")
            elif role in (ROLE_RELEVANT, ROLE_IRRELEVANT):
                if weight is None or not 0 <= weight < math.inf:
                    raise ConfigError(f"class {cid} needs a non-negative finite weight")
            else:
                raise ConfigError(f"unknown role {role!r}")
        if not 0 <= self.alpha < math.inf:
            raise ConfigError("alpha must be non-negative and finite")

    def registry(self) -> ClassRegistry:
        names = {cid: name for cid, _, _, name in self.entries if name}
        roles = {cid: role for cid, role, _, _ in self.entries}
        return ClassRegistry(self.num_classes, names, roles)

    def compression_weights(self) -> CompressionWeights:
        retain = {cid: w for cid, role, w, _ in self.entries
                  if role == ROLE_RELEVANT}
        remove = {cid: w for cid, role, w, _ in self.entries
                  if role == ROLE_IRRELEVANT}
        return CompressionWeights(retain, remove, self.alpha)


def parse_weights_config(text: str) -> WeightsConfig:
    num_classes = None
    alpha = None
    entries = []
    for lineno, key, args in _kv_lines(text, _WEIGHTS_KEYS):
        try:
            if key == "num_classes":
                num_classes = int(args[0])
            elif key == "alpha":
                alpha = float(args[0])
            else:
                cid, role, *rest = args
                weight = float(rest.pop(0)) if role != ROLE_NEUTRAL and rest else None
                name = rest.pop(0) if rest else None
                if rest:  # a neutral class carries no weight
                    raise FormatError(f"line {lineno}: too many values for 'class'")
                entries.append((int(cid), role, weight, name))
        except (ValueError, IndexError):
            raise FormatError(f"line {lineno}: malformed {key!r} entry") from None
    if num_classes is None:
        raise FormatError("missing num_classes")
    if alpha is None:
        raise FormatError("missing alpha")
    return WeightsConfig(num_classes, alpha, tuple(entries))


def emit_weights_config(cfg: WeightsConfig) -> str:
    lines = [f"num_classes {cfg.num_classes}", f"alpha {cfg.alpha:.9g}"]
    for cid, role, weight, name in cfg.entries:
        parts = ["class", str(cid), role]
        if weight is not None:
            parts.append(f"{weight:.9g}")
        if name is not None:
            parts.append(name)
        lines.append(" ".join(parts))
    return "\n".join(lines) + "\n"


# -- binary tree format ------------------------------------------------------------

_HEADER = struct.Struct("<4sB3ddBBH")
_WEIGHT = struct.Struct("<d")
_HEAD = np.dtype([("kind", "u1"), ("weight", "<f8"), ("field", "u1")])
_SLOT = np.dtype([("id", "<u2"), ("p", "<f8")])
_TAIL = np.dtype([("p_free", "<f8"), ("p_residual", "<f8")])


def _check_num_classes(num_classes: int) -> None:
    """The header and every record slot store class ids as u16."""
    limit = np.iinfo(_SLOT["id"]).max
    if num_classes > limit:
        raise ConfigError(f"num_classes must be at most {limit}")


def serialize_tree(tree: SemanticOctree, path) -> None:
    """Write a tree to its binary format (deterministic, byte-stable): the
    nodes in pre-order (by the Morton code of their region, a parent
    first), packed into one buffer. A tree with more classes than the
    format holds is rejected before the file is opened."""
    _check_num_classes(tree.num_classes)
    world, keys = tree.world, list(tree.nodes)
    depth, index = np.fromiter(itertools.chain.from_iterable(keys), dtype=np.int64,
                               count=2 * len(keys)).reshape(-1, 2).T
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
    dists = [nodes[i].dist for i in rec.tolist()]
    head["field"][rec] = n_top = np.array([len(d.top3) for d in dists], dtype=np.int64)
    sizes = 10 + (head["kind"] != INTERIOR) * (16 + 10 * head["field"].astype(np.int64))
    at, rows = np.cumsum(sizes) - sizes, TruncatedRows.of(dists)
    slots = np.zeros((len(rec), 3), dtype=_SLOT)
    slots["id"], slots["p"] = rows.ids, rows.probs
    tail = np.zeros(len(rec), dtype=_TAIL)
    tail["p_free"], tail["p_residual"] = rows.p_free, rows.p_residual
    used = np.arange(3) < n_top[:, None]
    buf = np.zeros(int(sizes.sum()), dtype=np.uint8)
    for offsets, values in [(at, head), (at[rec] + 10 + 10 * n_top, tail),
                            ((at[rec, None] + np.arange(10, 40, 10))[used], slots[used])]:
        buf[offsets[:, None] + np.arange(values.itemsize)] = values.view(np.uint8).reshape(
            len(values), values.itemsize)
    with open(path, "wb") as fh:
        fh.write(_HEADER.pack(MAGIC, FORMAT_VERSION, *world.origin, world.edge_length,
                              world.max_depth, world.branching, tree.num_classes))
        fh.write(buf.tobytes())


def _walk(data: bytes, world: WorldConfig):
    """The structural pass, with every weight check: the offset, kind,
    depth, index and weight of each node read, in pre-order, and the first
    error met, or None. Records are checked afterwards, all at once."""
    nodes: list[tuple] = []
    max_depth, dims, branching = world.max_depth, world.dims, world.branching
    pos, stack = _HEADER.size, [(0, 0, [])]  # (depth, index, weights of its siblings)
    try:
        while stack:
            depth, index, siblings = stack.pop()
            if depth is None:  # the end of a subtree: index holds its root and weight
                (key, weight), expected = index, completed_weight(siblings, branching)
                if not (math.isfinite(weight)
                        and abs(weight - expected) <= 1e-9 * abs(expected)):
                    raise CorruptionError(f"interior record {key} has weight {weight!r}, "
                                          f"its children complete to {expected!r}")
                continue
            if pos + 9 > len(data):
                raise CorruptionError("truncated tree file")
            kind, (weight,) = data[pos], _WEIGHT.unpack_from(data, pos + 1)
            if kind in (LEAF, SUMMARY) and not (
                    math.isfinite(weight) and weight >= 0.0):
                raise CorruptionError(
                    f"record {NodeKey(depth, index)} has invalid weight {weight!r}")
            if kind > SUMMARY:
                raise CorruptionError(f"unknown node kind {kind}")
            if depth > max_depth - (kind != LEAF) or (
                    kind == LEAF and depth < max_depth):
                name = ("interior", "leaf", "summary")[kind]
                raise CorruptionError(f"{name} record at depth {depth}")
            if pos + 10 > len(data):
                raise CorruptionError("truncated tree file")
            field = data[pos + 9]  # n_top, or the child mask
            if kind != INTERIOR:
                if field > 3:
                    raise CorruptionError(f"leaf stores {field} classes, maximum is 3")
                if pos + 26 + 10 * field > len(data):
                    raise CorruptionError("truncated tree file")
            elif field >> branching:
                raise CorruptionError(f"child bitmask {field:#x} exceeds branching")
            elif field == 0 and depth:
                key = NodeKey(depth, index)
                raise CorruptionError(f"childless interior record at {key}")
            else:
                children: list[float] = []
                stack.append((None, (NodeKey(depth, index), weight), children))
                stack += [(depth + 1, index << dims | o, children)
                          for o in range(branching - 1, -1, -1) if field >> o & 1]
            siblings.append(weight)
            nodes.append((pos, kind, depth, index, weight))
            pos += 10 if kind == INTERIOR else 26 + 10 * field
        if pos != len(data):
            raise CorruptionError(f"{len(data) - pos} trailing bytes")
    except CorruptionError as exc:
        return nodes, exc
    return nodes, None


def deserialize_tree(path) -> SemanticOctree:
    """Read a tree from its binary format.

    Structure, weights and records are restored exactly. A structural pass
    (``_walk``) finds the nodes and checks their weights: a leaf or summary
    weight must be finite and non-negative, an interior weight finite and
    within 1e-9 relative of its children's ``completed_weight``. The
    tolerance stays although this version writes that value bit for bit: a
    file is outside input, and files that earlier versions saved after
    ``refresh_all`` hold row sums, which can differ in the last bit. The
    records are then decoded and validated at once (``record_errors``).
    The first violation in file order is a ``CorruptionError``, an interior
    weight counting once its subtree is read. Interior caches are rebuilt
    on the next ``refresh_all``.
    """
    with open(path, "rb") as fh:
        data = fh.read()
    if len(data) < 4 or data[:4] != MAGIC:
        raise FormatError("bad magic: not a tree file")
    if len(data) > 4 and data[4] != FORMAT_VERSION:
        raise FormatError(f"unsupported format version {data[4]}")
    if len(data) < _HEADER.size:
        raise CorruptionError("truncated tree file")
    _, _, *origin, edge, max_depth, branching, num_classes = _HEADER.unpack_from(data)
    try:
        world = WorldConfig(tuple(origin), edge, max_depth, branching)
        tree = SemanticOctree(world, num_classes)
    except ConfigError as exc:
        raise CorruptionError(f"invalid world header: {exc}") from None
    nodes, error = _walk(data, world)
    offsets, kinds, depths, indices, weights = zip(*nodes) if nodes else [()] * 5
    u8 = np.frombuffer(data, dtype=np.uint8)
    rec = np.flatnonzero(np.array(kinds, dtype=np.int64) != INTERIOR)
    at = np.array(offsets, dtype=np.int64)[rec]
    n_top = u8[at + 9].astype(np.int64)
    tail = u8[(at + 10 + 10 * n_top)[:, None] + np.arange(_TAIL.itemsize)].view(_TAIL)[:, 0]
    used = np.arange(3) < n_top[:, None]
    slot = np.where(used, at[:, None] + np.arange(10, 40, 10), 0)  # unused: offset 0
    slots = u8[slot[:, :, None] + np.arange(_SLOT.itemsize)].view(_SLOT)[:, :, 0]
    rows = TruncatedRows(np.where(used, slots["id"], 0), np.where(used, slots["p"], 0.0),
                         tail["p_free"], tail["p_residual"])
    # Each record precedes the error that stopped the walk, so it is met first.
    for row, message in record_errors(rows, n_top, num_classes).items():
        key = NodeKey(depths[rec[row]], indices[rec[row]])
        raise CorruptionError(f"record {key} is invalid: {message}")
    if error is not None:
        raise error
    conds = expand_rows(rows, num_classes)
    conds.flags.writeable = False
    records = zip(rows.records(), conds)
    tree.nodes = {key: Node(k, w, *(next(records) if k != INTERIOR else ()))
                  for key, k, w in zip(map(NodeKey, depths, indices), kinds, weights)}
    return tree
