"""File formats: point-cloud CSV, key-value configs, and the binary tree format.

Point clouds are UTF-8, comma-separated text with header
``x,y,z,class_id,confidence``. ``read_cloud`` reads a whole cloud into arrays:
a plain file (the header, then only ASCII numerals, commas, spaces and tabs;
no blank line; every line valid) is parsed in one ``np.loadtxt`` pass and
checked with vectorized rules, and any other file goes through ``ingest``,
the per-line reader that defines every per-line error, with the same result.
World and weight profiles use a flat key-value text format: one key and its
values per line, ``#`` to the line's end a comment, read by
``parse_world_config`` and ``parse_weights_config``; the package writes none.
Trees use a versioned little-endian binary format, so serialize ->
deserialize -> serialize is byte-identical: a 41-byte header (magic ``SOCT``,
version u8, origin 3×f64, edge length f64, max depth u8, branching u8, class
count u16), then each node in pre-order. A node starts with its kind u8
(``octree.INTERIOR``, ``LEAF``, ``SUMMARY``: 0, 1, 2) and weight f64; an
interior node ends with its child-presence bitmask u8 (10 bytes),
a leaf or summary goes on with n_top u8, n_top × (class id u16, probability
f64), p_free f64 and p_residual f64 (26 + 10·n_top bytes). A read walks the
kind and field bytes in Python and leaves every other read and check to arrays.
"""

from __future__ import annotations

import io
import itertools
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
    Levels,
    NodeKey,
    SemanticOctree,
    WorldConfig,
    completed_weights,
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


def ingest(path, num_classes: int, error_budget: int = 100, *,
           on_error: Callable[[int, str], None]) -> Iterator[CloudRecord]:
    """Yield records from a point-cloud file in file order, one line at a time.

    This is the per-line path: it defines every per-line error, and
    ``read_cloud`` falls back to it for any file its array pass does not
    take. Blank lines are skipped. Malformed lines, including lines that are
    not valid UTF-8, are passed to ``on_error`` with their line number
    and skipped; once more than ``error_budget`` lines have failed, the
    whole file is rejected. A wrong or undecodable header is a
    ``FormatError``.
    """
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


def read_cloud(path, num_classes: int, error_budget: int = 100, *,
               on_error: Callable[[int, str], None]) -> Cloud:
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
        for r in ingest(path, num_classes, error_budget, on_error=on_error):
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


# -- binary tree format ------------------------------------------------------------

_HEADER = struct.Struct("<4sB3ddBBH")
_HEAD = np.dtype([("kind", "u1"), ("weight", "<f8"), ("field", "u1")])
_SLOT = np.dtype([("id", "<u2"), ("p", "<f8")])
_TAIL = np.dtype([("p_free", "<f8"), ("p_residual", "<f8")])


def _check_num_classes(num_classes: int) -> None:
    """The header and every record slot store class ids as u16."""
    limit = np.iinfo(_SLOT["id"]).max
    if num_classes > limit:
        raise ConfigError(f"num_classes must be at most {limit}")


def serialize_tree(tree: SemanticOctree, path) -> None:
    """Write a tree to its binary format (deterministic, byte-stable) from
    its columns (``tree.levels()``): the nodes in pre-order (by the Morton
    code of their region, a parent first), packed into one buffer. A tree
    with more classes than the format holds is rejected before the file
    is opened."""
    _check_num_classes(tree.num_classes)
    world, levels = tree.world, tree.levels()
    order = levels.preorder()
    head = np.zeros(len(order), dtype=_HEAD)
    head["kind"], head["weight"] = levels.kind[order], levels.weight[order]
    head["field"] = np.packbits(levels.slots >= 0, axis=1, bitorder="little")[order, 0]
    rec = np.flatnonzero(head["kind"] != INTERIOR)
    rows = levels.table.take(order[rec])
    head["field"][rec] = n_top = rows.counts
    sizes = 10 + (head["kind"] != INTERIOR) * (16 + 10 * head["field"].astype(np.int64))
    at = np.cumsum(sizes) - sizes
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
    """``(depth, index, parent row)`` and offset of each node met, in
    pre-order, and the offset after the last. Reads kind and field bytes
    only; stops after a node whose extent or children it cannot tell (cut
    short, unknown kind, n_top > 3, bad mask, interior at max depth)."""
    n, dims, branching, max_depth = len(data), world.dims, world.branching, world.max_depth
    octants = range(branching - 1, -1, -1)
    nodes, offsets = [], []
    pos, stack = _HEADER.size, [(0, 0, -1)]
    while stack:
        node = stack.pop()
        nodes.append(node)
        offsets.append(pos)
        if pos + 10 > n:
            break
        kind, field = data[pos], data[pos + 9]
        if kind != INTERIOR:
            if kind > SUMMARY or field > 3:
                break
            pos += 26 + 10 * field
        else:
            depth, index, _ = node
            if field >> branching or depth >= max_depth:
                break
            pos += 10
            parent, base = len(nodes) - 1, index << dims
            stack += [(depth + 1, base | o, parent) for o in octants if field >> o & 1]
    return nodes, offsets, pos


def deserialize_tree(path) -> SemanticOctree:
    """Read a tree from its binary format.

    Structure, weights and records are restored exactly. ``_walk`` finds
    the nodes; all else is gathered from the buffer and checked at once. A
    leaf or summary weight must be finite and non-negative, an interior
    weight finite and within 1e-9 relative of its children's
    ``completed_weights`` (files saved after ``refresh_all`` by earlier
    versions hold row sums). Records are checked by ``record_errors``. The
    first violation in file order is a ``CorruptionError``: a node's checks
    in the order of its bytes, an interior weight once its subtree is read.
    The tree keeps its nodes as ``octree.Levels`` columns and builds no
    ``Node``. Interior caches are rebuilt on the next ``refresh_all``.
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
        SemanticOctree.check_classes(num_classes)
    except ConfigError as exc:
        raise CorruptionError(f"invalid world header: {exc}") from None
    nodes, offsets, end = _walk(data, world)
    n, m = len(data), len(nodes)
    depth, index, parent = np.fromiter(itertools.chain.from_iterable(nodes), np.int64,
                                       3 * m).reshape(-1, 3).T
    at = np.minimum(offsets, n)  # the node the walk stopped at may start past the end
    u8 = np.frombuffer(data + bytes(10), dtype=np.uint8)
    kind, field = u8[at].astype(np.int64), u8[at + 9].astype(np.int64)
    weight = u8[(at + 1)[:, None] + np.arange(8)].view("<f8")[:, 0]
    interior, record = kind == INTERIOR, (kind == LEAF) | (kind == SUMMARY)
    rec = np.flatnonzero(record & (field <= 3) & (at + 26 + 10 * field <= n))
    start, n_top = at[rec], field[rec]
    tail = u8[(start + 10 + 10 * n_top)[:, None] + np.arange(_TAIL.itemsize)]
    tail = tail.view(_TAIL)[:, 0]
    used = np.arange(3) < n_top[:, None]
    slot = np.where(used, start[:, None] + np.arange(10, 40, 10), 0)  # unused: offset 0
    slots = u8[slot[:, :, None] + np.arange(_SLOT.itemsize)].view(_SLOT)[:, :, 0]
    rows = TruncatedRows(np.where(used, slots["id"], 0), np.where(used, slots["p"], 0.0),
                         tail["p_free"], tail["p_residual"], n_top)
    # An interior weight against its children's completion.
    children = np.zeros((m, branching))
    children[parent[1:], index[1:] & (branching - 1)] = weight[1:]
    count = np.bincount(parent[1:], minlength=m)
    with np.errstate(all="ignore"):  # as Python floats: inf and nan, no error
        invalid = record_errors(rows, num_classes)
        expected = completed_weights(children, count, branching)[1]
        off_weight = interior & ~(np.isfinite(weight) & (
            np.abs(weight - expected) <= 1e-9 * np.abs(expected)))
    checks = [  # each node's, in the order they read its bytes
        (at + 9 > n, "truncated tree file"),
        (record & ~(np.isfinite(weight) & (weight >= 0.0)),
         "record {key} has invalid weight {weight!r}"),
        (kind > SUMMARY, "unknown node kind {kind}"),
        (np.where(kind == LEAF, depth != max_depth, depth >= max_depth),
         "{name} record at depth {depth}"),
        (at + 10 > n, "truncated tree file"),
        (record & (field > 3), "leaf stores {field} classes, maximum is 3"),
        (interior & (field >> branching > 0), "child bitmask {field:#x} exceeds branching"),
        (interior & (field == 0) & (depth > 0), "childless interior record at {key}"),
        (record & (at + 26 + 10 * field > n), "truncated tree file"),
        (np.isin(np.arange(m), rec[list(invalid)]), "record {key} is invalid: {invalid}"),
    ]
    hit = np.array([mask for mask, _ in checks])
    heads = np.flatnonzero(hit.any(axis=0))
    first = heads[0] if len(heads) else m
    # A subtree ends where its last child's does; its root's weight is
    # checked there, deeper roots first, before the next node is read.
    ends = np.arange(1, m + 1)
    for d in range(int(depth.max()), 0, -1):
        np.maximum.at(ends, parent[depth == d], ends[depth == d])
    done = np.flatnonzero(off_weight & (ends <= first))
    key = lambda i: NodeKey(int(depth[i]), int(index[i]))  # noqa: E731
    if len(done):
        i = done[np.lexsort((-depth[done], ends[done]))[0]]
        raise CorruptionError(f"interior record {key(i)} has weight {float(weight[i])!r}, "
                              f"its children complete to {float(expected[i])!r}")
    if len(heads):
        raise CorruptionError(checks[int(np.argmax(hit[:, first]))][1].format(
            key=key(first), weight=float(weight[first]), kind=kind[first],
            depth=depth[first], field=int(field[first]),
            name=("interior", "leaf", "summary", "")[min(kind[first], 3)],
            invalid=invalid.get(int(np.searchsorted(rec, first)))))
    if end != n:
        raise CorruptionError(f"{n - end} trailing bytes")
    # Pre-order lists each depth by index: the levels are the nodes in file
    # order, stably sorted by depth, each record and vector in its node's row.
    order, level_row = np.argsort(depth, kind="stable"), np.empty(m, np.int64)
    level_row[order] = np.arange(m)
    cond, table, rec = np.zeros((m, num_classes + 1)), TruncatedRows.zeros(m), level_row[rec]
    cond[rec] = expand_rows(rows, num_classes)
    for column, values in zip(table, rows):
        column[rec] = values
    depth, index, kind, weight, record = (c[order] for c in (depth, index, kind, weight, record))
    return SemanticOctree(world, num_classes, levels=Levels(world, num_classes, (
        depth, index, kind, weight, cond, record, np.zeros(m), np.zeros(m, bool)), table))
