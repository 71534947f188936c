"""Per-cell semantic class distributions, their Bayesian fusion, the class
role model and the class-id rules.

A map cell carries a categorical distribution over class ids 0..K where id 0
is free space and ids 1..K are semantic categories (road, grass, building,
...). A dense distribution is a plain (K+1,) float64 array. Leaf cells store
a truncated record: the three most likely non-free classes, the free-space
probability, and a single residual mass covering every remaining class.
Expanding a truncated record back to a dense vector spreads the residual
uniformly over the K-3 outstanding classes, which is why K >= 4 is required.
Records are stored as rows of ``TruncatedRows`` tables; a
``TruncatedSemanticDistribution`` is one record as a value, made from a row
when it is read. Two kernels, on (N, K+1) arrays and on one row of Python
floats, fuse, truncate and expand records with the same bits; the class
role model is ``ClassRegistry``; ``UNKNOWN_CLASS`` is the id of unobserved
space, and ``dominant_class`` the argmax rule (ties to the lower id).

All functions here are pure and do not modify their arguments; they are
safe to call concurrently from any number of threads.
"""

from __future__ import annotations

import itertools
import operator
from dataclasses import dataclass, field
from typing import NamedTuple

import numpy as np

from .errors import ConfigError, DistributionError

SUM_TOL = 1e-9
FIELD_TOL = 1e-12

ROLE_RELEVANT = "relevant"
ROLE_IRRELEVANT = "irrelevant"
ROLE_NEUTRAL = "neutral"
_ROLES = (ROLE_RELEVANT, ROLE_IRRELEVANT, ROLE_NEUTRAL)
# class id of unobserved space: virtual blocks, gaps and points off the map
UNKNOWN_CLASS = -1


@dataclass(frozen=True)
class ClassRegistry:
    """Set of class ids 0..num_classes with optional names and task roles.

    Id 0 is always free space. Roles partition the ids into relevant
    (information to retain), irrelevant (information to discard) and neutral
    classes; ids without an entry in ``roles`` are neutral.
    """

    num_classes: int
    names: dict[int, str] = field(default_factory=dict)
    roles: dict[int, str] = field(default_factory=dict)

    def __post_init__(self):
        if self.num_classes < 1:
            raise ConfigError("num_classes must be a positive integer")
        for cid in list(self.names) + list(self.roles):
            if not 0 <= cid <= self.num_classes:
                raise ConfigError(f"class id {cid} outside 0..{self.num_classes}")
        for cid, role in self.roles.items():
            if role not in _ROLES:
                raise ConfigError(f"unknown role {role!r} for class {cid}")

    @property
    def relevant_ids(self) -> frozenset[int]:
        return frozenset(c for c, r in self.roles.items() if r == ROLE_RELEVANT)

    @property
    def irrelevant_ids(self) -> frozenset[int]:
        return frozenset(c for c, r in self.roles.items() if r == ROLE_IRRELEVANT)

    def name_of(self, cid: int) -> str:
        return self.names.get(cid, f"class{cid}")


def dominant_class(marginals):
    """Most likely class id of every row of an (N, K+1) array, ties to the
    lower id; one distribution (1-d) gives an int."""
    classes = np.argmax(marginals, axis=-1)
    return int(classes) if np.ndim(marginals) == 1 else classes


@dataclass(frozen=True)
class TruncatedSemanticDistribution:
    """Compact per-leaf storage: top-3 classes + free space + residual mass.

    ``top3`` holds up to three (class_id, probability) pairs with distinct
    non-zero ids, sorted by descending probability (ties by lower id). The
    residual is the total mass of every class outside top3 and free space;
    records with fewer than three stored classes must carry zero residual,
    otherwise some outstanding class would outrank a stored one.
    """

    top3: tuple[tuple[int, float], ...]
    p_free: float
    p_residual: float

    def validate(self, num_classes: int) -> None:
        """Raise ``DistributionError`` if this is no valid record (one-row
        ``record_errors``)."""
        for message in record_errors(TruncatedRows.of([self]), num_classes).values():
            raise DistributionError(message)


def rows_close(table: "TruncatedRows", rows) -> bool:
    """Whether every row ``rows`` of ``table`` holds the first one's record,
    the rule of a prune (``octree.Levels.prune``): the same stored ids, and
    probabilities, p_free and p_residual each within ``FIELD_TOL``. Reads
    the rows and builds no records."""
    first, *rest = rows
    ids, probs, p_free, p_residual = table.fields(first)
    for i in rest:
        ids_i, probs_i, free_i, residual_i = table.fields(i)
        if (ids_i != ids or abs(free_i - p_free) > FIELD_TOL
                or abs(residual_i - p_residual) > FIELD_TOL
                or any(abs(a - b) > FIELD_TOL for a, b in zip(probs_i, probs))):
            return False
    return True


# -- the row kernels ---------------------------------------------------------------
#
# Fusion, truncation and expansion run on (N, K+1) arrays for batch builds
# and loads, and on one row of Python floats for the streamed insert
# (``fuse_record``) and the one-row functions. A row gets the same bits from
# both: products and quotients are elementwise, ranking is a stable sort, a
# row total adds its columns left to right from 0.0 (``row_totals``), and
# the residual adds its classes one at a time in rank order.

CONTRADICTED = "observation contradicts a zero-probability prior"


class TruncatedRows(NamedTuple):
    """N truncated records as arrays.

    ``ids`` and ``probs`` (N, 3) hold the stored classes in rank order, an
    unused slot id 0 and probability 0.0; ``p_free``, ``p_residual`` and
    ``counts``, the number of stored classes, have shape (N,). A slot
    below its row's count is used even if its id is 0 (an invalid record).
    """

    ids: np.ndarray
    probs: np.ndarray
    p_free: np.ndarray
    p_residual: np.ndarray
    counts: np.ndarray

    def take(self, rows) -> "TruncatedRows":
        """Rows ``rows`` as a table."""
        return TruncatedRows(*(column[rows] for column in self))

    @classmethod
    def zeros(cls, n: int) -> "TruncatedRows":
        """``n`` empty rows: no stored class and every field 0."""
        return cls(np.zeros((n, 3), dtype=np.int64), np.zeros((n, 3)), np.zeros(n),
                   np.zeros(n), np.zeros(n, dtype=np.int64))

    @classmethod
    def of(cls, records) -> "TruncatedRows":
        unused = ((0, 0.0),) * 3
        slots = itertools.chain.from_iterable((r.top3 + unused)[:3] for r in records)
        top = np.fromiter(itertools.chain.from_iterable(slots),
                          dtype=np.float64).reshape(-1, 3, 2)
        return cls(top[:, :, 0].astype(np.int64), np.ascontiguousarray(top[:, :, 1]),
                   np.array([r.p_free for r in records], dtype=np.float64),
                   np.array([r.p_residual for r in records], dtype=np.float64),
                   np.array([len(r.top3) for r in records], dtype=np.int64))

    def fields(self, i: int) -> tuple[list[int], list[float], float, float]:
        """Row ``i`` as plain values: its stored ids and probabilities,
        p_free and p_residual."""
        n = int(self.counts[i])
        return (self.ids[i, :n].tolist(), self.probs[i, :n].tolist(),
                float(self.p_free[i]), float(self.p_residual[i]))

    def record(self, i: int) -> TruncatedSemanticDistribution:
        """Row ``i`` as a record; ``of([record(i)])`` gives the row back."""
        ids, probs, p_free, p_residual = self.fields(i)
        return TruncatedSemanticDistribution(tuple(zip(ids, probs)), p_free, p_residual)

    def read_only(self) -> "TruncatedRows":
        """This table, its columns made read-only for nodes to refer to."""
        for column in self:
            column.setflags(write=False)
        return self


def row_totals(rows: np.ndarray) -> np.ndarray:
    """Each row's total, its columns added left to right from 0.0 as a
    Python loop adds one row. inf + -inf is a nan total, as in Python, and
    numpy warns of it: a caller whose rows can hold both silences it."""
    total = np.zeros(len(rows))
    for column in rows.T:
        total += column
    return total


def left_sum(values) -> float:
    """``values`` added left to right from 0.0, as ``row_totals`` adds a row;
    builtin ``sum`` compensates float rounding from Python 3.12 on."""
    total = 0.0
    for v in values:
        total += v
    return total


def _check_row(row: list[float]) -> None:
    """Raise ``DistributionError`` unless a row of Python floats has no entry
    below -FIELD_TOL and a total within SUM_TOL of 1 (a nan total is not)."""
    total = left_sum(row)
    if any(v < -FIELD_TOL for v in row):
        raise DistributionError("negative probability entry")
    if not abs(total - 1.0) <= SUM_TOL:
        raise DistributionError(f"probabilities sum to {total}, not 1")


def check_rows(rows: np.ndarray) -> None:
    """``_check_row`` of the first row that is no distribution, if any."""
    with np.errstate(invalid="ignore"):  # inf + -inf: a nan total, no distribution
        total = row_totals(rows)
    bad = (rows < -FIELD_TOL).any(axis=1) | ~(np.abs(total - 1.0) <= SUM_TOL)
    if bad.any():
        _check_row(rows[int(np.argmax(bad))].tolist())


def record_errors(records: TruncatedRows, num_classes: int) -> dict[int, str]:
    """Rows that are no valid truncated record, by row, with the first rule
    each breaks.

    Slots at or past a row's count are not read. The rules, in order: at
    most three stored classes, with distinct ids in 1..K; every field in
    [0, 1] within FIELD_TOL; stored classes sorted by descending
    probability; a total of 1 within SUM_TOL, added in slot order, then
    free space, then the residual; no residual without three stored
    classes; no stored class below the residual's per-class share.
    """
    ids, probs, p_free, p_residual, counts = records
    # Slot by row, (3, N) and (5, N): numpy reduces across a few long rows
    # far faster than along many short ones.
    used = np.arange(3)[:, None] < counts
    ids = np.ascontiguousarray(ids.T)
    fields = np.vstack([np.where(used, probs.T, 0.0), p_free, p_residual])
    bad_field = ~((fields >= -FIELD_TOL) & (fields <= 1 + FIELD_TOL))
    bad_field[:3] &= used
    with np.errstate(invalid="ignore"):  # inf + -inf: a nan total, which breaks the sum rule
        total = row_totals(fields.T)
    last = fields[np.clip(counts, 1, 3) - 1, np.arange(len(counts))]
    share = p_residual / (num_classes - 3) if num_classes > 3 else -np.inf
    rules = [
        (counts > 3, "more than 3 stored classes"),
        ((used[1] & (ids[0] == ids[1])) | (used & (ids == 0)).any(axis=0)
         | (used[2] & ((ids[0] == ids[2]) | (ids[1] == ids[2]))),
         "stored class ids must be distinct and non-zero"),
        ((used & ((ids < 1) | (ids > num_classes))).any(axis=0),
         "stored class id out of range"),
        (bad_field.any(axis=0), "probability {value} outside [0, 1]"),
        ((used[1:] & (fields[:2] < fields[1:3])).any(axis=0),
         "stored classes not sorted by probability"),
        (np.abs(total - 1.0) > SUM_TOL, "probabilities sum to {total}, not 1"),
        ((counts < 3) & (p_residual > SUM_TOL), "residual mass requires 3 stored classes"),
        ((counts > 0) & (last < share - FIELD_TOL),
         "stored probability below residual share"),
    ]
    broken = np.array([rule for rule, _ in rules])
    return {i: rules[int(np.argmax(broken[:, i]))][1].format(
                value=fields[np.argmax(bad_field[:, i]), i].item(), total=total[i].item())
            for i in np.flatnonzero(broken.any(axis=0)).tolist()}


def check_observation(obs_class, confidence, num_classes: int) -> tuple[int, float]:
    """One observation as an ``int`` class id in 0..K and a ``float``
    confidence in (1/(K+1), 1], or ``DistributionError``. The class id is
    what ``operator.index`` gives (2.0 is none); at or below 1/(K+1) a label
    carries no information."""
    try:
        obs_class = operator.index(obs_class)
    except TypeError:
        raise DistributionError(f"non-integer class id {obs_class!r}") from None
    confidence, k = float(confidence), num_classes
    if not 0 <= obs_class <= k:
        raise DistributionError(f"observed class {obs_class} outside 0..{k}")
    if not 1.0 / (k + 1) < confidence <= 1.0:
        raise DistributionError(f"confidence {confidence} outside (1/{k + 1}, 1]")
    return obs_class, confidence


def observation_errors(obs_class, confidence: np.ndarray, num_classes: int) -> dict[int, str]:
    """Observations that ``fuse_rows`` cannot fuse, by row, with the reason
    ``check_observation`` gives; an integer array is screened at once."""
    k, rows, errors = num_classes, range(len(confidence)), {}
    if isinstance(obs_class, np.ndarray) and obs_class.dtype.kind in "iu":
        rows = np.flatnonzero(~((obs_class >= 0) & (obs_class <= k) & (confidence <= 1.0)
                                & (confidence > 1.0 / (k + 1)))).tolist()
    for i in rows:
        try:
            check_observation(obs_class[i], confidence[i], k)
        except DistributionError as exc:
            errors[i] = str(exc)
    return errors


def fuse_rows(prior: np.ndarray, obs_class: np.ndarray,
              confidence: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Bayesian update of N prior rows, one labeled observation per row.

    The likelihood puts ``confidence`` on the observed class and spreads
    the rest uniformly over the other K classes. Every observation must
    pass ``observation_errors``. Returns the posterior rows and a mask of
    the rows whose observation the prior rules out (a total of zero,
    ``CONTRADICTED``); those rows are left unnormalized.
    """
    n, k1 = prior.shape
    likelihood = ((1.0 - confidence) / (k1 - 1))[:, None].repeat(k1, axis=1)
    likelihood[np.arange(n), obs_class] = confidence
    posterior = prior * likelihood
    totals = row_totals(posterior)
    contradicted = totals <= 0.0
    totals[contradicted] = 1.0
    posterior /= totals[:, None]
    return posterior, contradicted


def truncate_rows(rows: np.ndarray) -> TruncatedRows:
    """Keep each row's three largest non-free classes; pool the rest.

    The rows are checked first (``check_rows``). Ties rank the lower class
    id first, and zero entries are never stored. The residual adds the
    outstanding classes in rank order.
    """
    check_rows(rows)
    n, k1 = rows.shape
    classes = rows[:, 1:]
    order = (-classes).argsort(axis=1, kind="stable")
    ranked = classes[np.arange(n)[:, None], order]
    if k1 < 4:  # fewer than three classes: pad with unused slots
        order = np.pad(order, ((0, 0), (0, 4 - k1)))
        ranked = np.pad(ranked, ((0, 0), (0, 4 - k1)))
    stored = ranked[:, :3] > 0.0
    residual = np.zeros(n)
    for j in range(3, k1 - 1):
        residual += ranked[:, j]
    return TruncatedRows((order[:, :3] + 1) * stored, np.where(stored, ranked[:, :3], 0.0),
                         rows[:, 0].copy(), residual, np.count_nonzero(stored, axis=1))


def expand_rows(records: TruncatedRows, num_classes: int) -> np.ndarray:
    """Dense (N, K+1) rows of truncated records.

    Stored classes and free space keep their exact values; each residual
    is spread uniformly over its record's K-3 outstanding classes.
    """
    k = num_classes
    if k < 4:
        raise ConfigError("expansion needs at least 4 semantic classes")
    rows = (records.p_residual / (k - 3))[:, None].repeat(k + 1, axis=1)
    rows[np.arange(len(rows))[:, None], records.ids] = records.probs
    rows[:, 0] = records.p_free  # after the unused slots wrote to column 0
    return rows


def _vector(probs) -> list[float]:
    """A dense vector over ids 0..K as Python floats."""
    probs = np.asarray(probs, dtype=np.float64)
    if probs.ndim != 1 or len(probs) < 2:
        raise DistributionError("need a 1-d vector over ids 0..K")
    return probs.tolist()


def _fuse_row(prior: list[float], obs_class: int, confidence: float) -> list[float]:
    other = (1.0 - confidence) / (len(prior) - 1)
    posterior = [p * other for p in prior]
    posterior[obs_class] = prior[obs_class] * confidence
    total = left_sum(posterior)
    if total <= 0.0:
        raise DistributionError(CONTRADICTED)
    return [v / total for v in posterior]


def _truncate_row(row: list[float]) -> tuple[list[int], list[float], float, float]:
    _check_row(row)
    order = sorted(range(1, len(row)), key=row.__getitem__, reverse=True)  # ties: lower id
    ids = [c for c in order[:3] if row[c] > 0.0]
    residual = 0.0
    for c in order[3:]:
        residual += row[c]
    return ids, [row[c] for c in ids], row[0], residual


def _expand_row(ids, probs, p_free: float, p_residual: float, k: int) -> list[float]:
    if k < 4:
        raise ConfigError("expansion needs at least 4 semantic classes")
    row = [p_residual / (k - 3)] * (k + 1)
    for c, p in zip(ids, probs):
        row[c] = p
    row[0] = p_free
    return row


def fuse_record(prior: np.ndarray, obs_class: int, confidence: float):
    """The streamed insert: ``fuse_rows``, ``truncate_rows`` and ``expand_rows``
    of a dense prior and one checked observation (``check_observation``) on
    Python floats. Returns the record's fields, as ``TruncatedRows.fields``
    gives them, and its dense vector as a list."""
    row = _fuse_row(prior.tolist(), obs_class, confidence)
    fields = _truncate_row(row)
    return fields, _expand_row(*fields, len(row) - 1)


def expand_truncated(dist: TruncatedSemanticDistribution, num_classes: int) -> np.ndarray:
    """Validate a truncated record and expand it to a dense vector over ids
    0..num_classes (one-row ``expand_rows``)."""
    dist.validate(num_classes)
    return np.array(_expand_row(*TruncatedRows.of([dist]).fields(0), num_classes))


def truncate_full(probs: np.ndarray) -> TruncatedSemanticDistribution:
    """One-row ``truncate_rows`` of a dense vector; expanding the result
    reproduces the stored fields and the total residual mass."""
    ids, probs, p_free, residual = _truncate_row(_vector(probs))
    return TruncatedSemanticDistribution(tuple(zip(ids, probs)), p_free, residual)


def fuse_observation(prior: np.ndarray, obs_class: int, confidence: float) -> np.ndarray:
    """One-row ``check_rows`` of the dense prior, ``check_observation``,
    then one-row ``fuse_rows``: the posterior vector, or
    ``DistributionError`` if the prior contradicts the observation."""
    row = _vector(prior)
    _check_row(row)
    obs_class, confidence = check_observation(obs_class, confidence, len(row) - 1)
    return np.array(_fuse_row(row, obs_class, confidence))
