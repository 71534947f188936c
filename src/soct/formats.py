"""File formats: point-cloud CSV, key-value configs, and the binary tree format.

Point clouds are comma-separated text with header ``x,y,z,class_id,confidence``.
World and weight profiles use a flat key-value text format that round-trips
unchanged. Trees use a versioned binary format (magic ``SOCT``) written in
pre-order with a child-presence bitmask per interior node and little-endian
64-bit floats, so serialize -> deserialize -> serialize is byte-identical.
"""

from __future__ import annotations

import logging
import math
import struct
from dataclasses import dataclass, field
from typing import Callable, Iterator

from .compression import CompressionWeights
from .errors import (
    ConfigError,
    CorruptionError,
    DistributionError,
    FormatError,
    IngestError,
    TreeError,
)
from .octree import (
    INTERIOR,
    LEAF,
    ROOT_KEY,
    SUMMARY,
    Node,
    NodeKey,
    SemanticOctree,
    WorldConfig,
    child_key,
    completed_weight,
    octant_of,
)
from .semantics import (
    ROLE_IRRELEVANT,
    ROLE_NEUTRAL,
    ROLE_RELEVANT,
    ClassRegistry,
    TruncatedSemanticDistribution,
)

log = logging.getLogger(__name__)

CLOUD_HEADER = "x,y,z,class_id,confidence"

MAGIC = b"SOCT"
FORMAT_VERSION = 1

_NODE_INTERIOR = 0
_NODE_LEAF = 1
_NODE_SUMMARY = 2


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


def _parse_cloud_line(line: str, num_classes: int, lineno: int) -> CloudRecord:
    parts = line.split(",")
    if len(parts) != 5:
        raise ValueError(f"expected 5 columns, found {len(parts)}")
    try:
        x, y, z = float(parts[0]), float(parts[1]), float(parts[2])
        confidence = float(parts[4])
    except ValueError:
        raise ValueError("non-numeric coordinate or confidence") from None
    if not all(math.isfinite(v) for v in (x, y, z, confidence)):
        raise ValueError("non-finite coordinate or confidence")
    try:
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
    """Yield records from a point-cloud file in file order.

    Malformed lines are reported with their line number through ``on_error``
    (default: a log warning) and skipped; once more than ``error_budget``
    lines have failed, the whole file is rejected.
    """
    if on_error is None:
        on_error = lambda lineno, msg: log.warning("line %d: %s", lineno, msg)
    errors: list[tuple[int, str]] = []
    with open(path, "r", encoding="utf-8") as fh:
        header = fh.readline().strip()
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
                errors.append((lineno, str(exc)))
                on_error(lineno, str(exc))
                if len(errors) > error_budget:
                    raise IngestError(
                        f"aborting after {len(errors)} malformed lines "
                        f"(budget {error_budget})", errors) from None


# -- key-value configs ------------------------------------------------------------


def _kv_lines(text: str) -> Iterator[tuple[int, list[str]]]:
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if line:
            yield lineno, line.split()


def parse_world_config(text: str) -> tuple[WorldConfig, int]:
    """Parse a world description; returns the config and the class count."""
    values: dict[str, list[str]] = {}
    for lineno, parts in _kv_lines(text):
        if parts[0] in values:
            raise FormatError(f"line {lineno}: duplicate key {parts[0]!r}")
        values[parts[0]] = parts[1:]
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
    non-negative weight, neutral entries carry none.
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
                if weight is None or weight < 0:
                    raise ConfigError(f"class {cid} needs a non-negative weight")
            else:
                raise ConfigError(f"unknown role {role!r}")
        if self.alpha < 0:
            raise ConfigError("alpha must be non-negative")

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
    for lineno, parts in _kv_lines(text):
        key = parts[0]
        try:
            if key == "num_classes":
                num_classes = int(parts[1])
            elif key == "alpha":
                alpha = float(parts[1])
            elif key == "class":
                cid = int(parts[1])
                role = parts[2]
                weight = None
                name = None
                rest = parts[3:]
                if role != ROLE_NEUTRAL and rest:
                    weight = float(rest[0])
                    rest = rest[1:]
                if rest:
                    name = rest[0]
                entries.append((cid, role, weight, name))
            else:
                raise FormatError(f"line {lineno}: unknown key {key!r}")
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


class _Reader:
    def __init__(self, data: bytes):
        self.data = data
        self.pos = 0

    def take(self, fmt: str):
        size = struct.calcsize(fmt)
        if self.pos + size > len(self.data):
            raise CorruptionError("truncated tree file")
        out = struct.unpack_from(fmt, self.data, self.pos)
        self.pos += size
        return out


def _pack_dist(dist: TruncatedSemanticDistribution) -> bytes:
    parts = [struct.pack("<B", len(dist.top3))]
    for cid, p in dist.top3:
        parts.append(struct.pack("<Hd", cid, p))
    parts.append(struct.pack("<dd", dist.p_free, dist.p_residual))
    return b"".join(parts)


def _unpack_dist(reader: _Reader) -> TruncatedSemanticDistribution:
    (n_top,) = reader.take("<B")
    if n_top > 3:
        raise CorruptionError(f"leaf stores {n_top} classes, maximum is 3")
    top = tuple((int(cid), float(p))
                for cid, p in (reader.take("<Hd") for _ in range(n_top)))
    p_free, p_residual = reader.take("<dd")
    return TruncatedSemanticDistribution(top, p_free, p_residual)


def _write_node(tree: SemanticOctree, key: NodeKey, out: list[bytes]) -> None:
    node = tree.nodes[key]
    if node.kind == LEAF:
        out.append(struct.pack("<Bd", _NODE_LEAF, node.weight))
        out.append(_pack_dist(node.dist))
    elif node.kind == SUMMARY:
        out.append(struct.pack("<Bd", _NODE_SUMMARY, node.weight))
        out.append(_pack_dist(node.dist))
    else:
        children = tree.stored_children(key)
        mask = 0
        for ck in children:
            mask |= 1 << octant_of(ck, tree.world.dims)
        out.append(struct.pack("<BdB", _NODE_INTERIOR, node.weight, mask))
        for ck in children:
            _write_node(tree, ck, out)


def serialize_tree(tree: SemanticOctree, path) -> None:
    """Write a tree to its binary format (deterministic, byte-stable)."""
    world = tree.world
    out = [MAGIC, struct.pack("<B", FORMAT_VERSION),
           struct.pack("<3d", *world.origin),
           struct.pack("<dBBH", world.edge_length, world.max_depth,
                       world.branching, tree.num_classes)]
    _write_node(tree, ROOT_KEY, out)
    with open(path, "wb") as fh:
        fh.write(b"".join(out))


def _record(tree: SemanticOctree, key: NodeKey, kind: int, weight: float,
            dist: TruncatedSemanticDistribution, records: list[Node]) -> Node:
    """A validated record, its dense vector left for ``expand_records``."""
    try:
        dist.validate(tree.num_classes)
    except DistributionError as exc:
        raise CorruptionError(f"record {key} is invalid: {exc}") from None
    records.append(Node(kind, weight=weight, dist=dist))
    return records[-1]


def _read_node(reader: _Reader, tree: SemanticOctree, key: NodeKey,
               records: list[Node]) -> float:
    """Read one record and its subtree; returns the record's weight.

    An interior weight is checked once its children are read, so the whole
    tree is checked in one bottom-up pass. Leaf and summary records are
    collected in ``records``.
    """
    (kind, weight) = reader.take("<Bd")
    max_depth = tree.world.max_depth
    if kind in (_NODE_LEAF, _NODE_SUMMARY) and not (
            math.isfinite(weight) and weight >= 0.0):
        raise CorruptionError(f"record {key} has invalid weight {weight!r}")
    if kind == _NODE_LEAF:
        if key.depth != max_depth:
            raise CorruptionError(f"leaf record at depth {key.depth}")
        tree.nodes[key] = _record(tree, key, LEAF, weight, _unpack_dist(reader), records)
    elif kind == _NODE_SUMMARY:
        if key.depth >= max_depth:
            raise CorruptionError(f"summary record at depth {key.depth}")
        tree.nodes[key] = _record(tree, key, SUMMARY, weight, _unpack_dist(reader),
                                  records)
    elif kind == _NODE_INTERIOR:
        if key.depth >= max_depth:
            raise CorruptionError(f"interior record at depth {key.depth}")
        (mask,) = reader.take("<B")
        if mask >> tree.world.branching:
            raise CorruptionError(f"child bitmask {mask:#x} exceeds branching")
        if mask == 0 and key != ROOT_KEY:
            raise CorruptionError(f"childless interior record at {key}")
        tree.nodes[key] = Node(INTERIOR, weight=weight)
        expected = completed_weight(
            [_read_node(reader, tree, child_key(key, octant, tree.world.dims), records)
             for octant in range(tree.world.branching) if mask & (1 << octant)],
            tree.world.branching)
        if not (math.isfinite(weight)
                and abs(weight - expected) <= 1e-9 * abs(expected)):
            raise CorruptionError(f"interior record {key} has weight {weight!r}, "
                                  f"its children complete to {expected!r}")
    else:
        raise CorruptionError(f"unknown node kind {kind}")
    return weight


def deserialize_tree(path) -> SemanticOctree:
    """Read a tree from its binary format.

    Structure, weights and leaf distributions are restored exactly, and
    each leaf or summary record is validated as it is read (an invalid
    one is a ``CorruptionError``), and so is each interior weight: it must
    be finite and within 1e-9 relative of the completion of its children's
    weights (``completed_weight``), which admits the rounding of either way
    of summing them. All records are expanded in one ``expand_records``
    call. Interior conditional/gain caches are rebuilt on the next
    ``refresh_all``.
    """
    with open(path, "rb") as fh:
        data = fh.read()
    reader = _Reader(data)
    if len(data) < 4 or data[:4] != MAGIC:
        raise FormatError("bad magic: not a tree file")
    reader.pos = 4
    (version,) = reader.take("<B")
    if version != FORMAT_VERSION:
        raise FormatError(f"unsupported format version {version}")
    origin = reader.take("<3d")
    edge, depth, branching, num_classes = reader.take("<dBBH")
    try:
        world = WorldConfig(origin, edge, depth, branching)
        tree = SemanticOctree(world, num_classes)
    except ConfigError as exc:
        raise CorruptionError(f"invalid world header: {exc}") from None
    tree.nodes.clear()
    records: list[Node] = []
    try:
        _read_node(reader, tree, ROOT_KEY, records)
    except TreeError as exc:
        raise CorruptionError(str(exc)) from None
    if reader.pos != len(data):
        raise CorruptionError(f"{len(data) - reader.pos} trailing bytes")
    if ROOT_KEY not in tree.nodes or tree.nodes[ROOT_KEY].kind == LEAF:
        raise CorruptionError("missing or malformed root record")
    tree.expand_records(records)
    return tree
