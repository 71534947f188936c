"""Per-cell semantic class distributions, their Bayesian fusion, and the
class role model.

A map cell carries a categorical distribution over class ids 0..K where id 0
is free space and ids 1..K are semantic categories (road, grass, building,
...). A dense distribution is a plain (K+1,) float64 array. Leaf cells store
a truncated record: the three most likely non-free classes, the free-space
probability, and a single residual mass covering every remaining class.
Expanding a truncated record back to a dense vector spreads the residual
uniformly over the K-3 outstanding classes, which is why K >= 4 is required.
The module holds the records, the row kernel that fuses, truncates and
expands them, and the class role model (``ClassRegistry``).

All functions here are pure and do not modify their arguments; they are
safe to call concurrently from any number of threads.
"""

from __future__ import annotations

import itertools
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
        for message in record_errors(TruncatedRows.of([self]), np.array([len(self.top3)]),
                                     num_classes).values():
            raise DistributionError(message)

    def is_close(self, other: "TruncatedSemanticDistribution",
                 tol: float = FIELD_TOL) -> bool:
        """Field-by-field equality within ``tol`` (same ids, close values)."""
        if len(self.top3) != len(other.top3):
            return False
        for (ca, pa), (cb, pb) in zip(self.top3, other.top3):
            if ca != cb or abs(pa - pb) > tol:
                return False
        return (abs(self.p_free - other.p_free) <= tol
                and abs(self.p_residual - other.p_residual) <= tol)


# -- the row kernel ---------------------------------------------------------------
#
# Fusion, truncation and expansion work on (N, K+1) arrays, one distribution
# per row; the one-row functions at the end take and return (K+1,) vectors
# and call the kernel on a (1, K+1) view. Every row gets the bits it would
# get alone: products and quotients are elementwise, a row total is a
# C-ordered ``sum(axis=1)`` (numpy reduces each row as it does a 1-d
# vector), and the residual adds its columns one at a time in rank order.

CONTRADICTED = "observation contradicts a zero-probability prior"


class TruncatedRows(NamedTuple):
    """N truncated records as arrays.

    ``ids`` and ``probs`` (N, 3) hold the stored classes in rank order, an
    unused slot id 0 and probability 0.0; ``p_free`` and ``p_residual``
    have shape (N,).
    """

    ids: np.ndarray
    probs: np.ndarray
    p_free: np.ndarray
    p_residual: np.ndarray

    @classmethod
    def of(cls, records) -> "TruncatedRows":
        unused = ((0, 0.0),) * 3
        slots = itertools.chain.from_iterable((r.top3 + unused)[:3] for r in records)
        top = np.fromiter(itertools.chain.from_iterable(slots),
                          dtype=np.float64).reshape(-1, 3, 2)
        return cls(top[:, :, 0].astype(np.int64), np.ascontiguousarray(top[:, :, 1]),
                   np.array([r.p_free for r in records], dtype=np.float64),
                   np.array([r.p_residual for r in records], dtype=np.float64))

    def records(self) -> list[TruncatedSemanticDistribution]:
        return [TruncatedSemanticDistribution(
                    tuple(zip(ids[:3 - ids.count(0)], probs)), free, residual)
                for ids, probs, free, residual in zip(
                    self.ids.tolist(), self.probs.tolist(),
                    self.p_free.tolist(), self.p_residual.tolist())]


def check_rows(rows: np.ndarray) -> None:
    """Raise ``DistributionError`` at the first row that is no distribution.

    A row must have no entry below -FIELD_TOL and a total within SUM_TOL
    of 1.
    """
    negative = rows < -FIELD_TOL
    totals = rows.sum(axis=1)
    off = np.abs(totals - 1.0) > SUM_TOL
    if np.count_nonzero(negative) or np.count_nonzero(off):
        i = int(np.argmax(negative.any(axis=1) | off))
        if negative[i].any():
            raise DistributionError("negative probability entry")
        raise DistributionError(f"probabilities sum to {float(totals[i])}, not 1")


def record_errors(records: TruncatedRows, counts: np.ndarray,
                  num_classes: int) -> dict[int, str]:
    """Rows that are no valid truncated record, by row, with the first rule
    each breaks.

    ``counts`` holds each row's number of stored classes; later slots are
    not read. The rules, in order: at most three stored classes, with
    distinct ids in 1..K; every field in [0, 1] within FIELD_TOL; stored
    classes sorted by descending probability; a total of 1 within SUM_TOL,
    added in slot order, then free space, then the residual; no residual
    without three stored classes; no stored class below the residual's
    per-class share.
    """
    ids, probs, p_free, p_residual = records
    used = np.arange(3) < counts[:, None]
    fields = np.column_stack([np.where(used, probs, 0.0), p_free, p_residual])
    bad_field = ~((fields >= -FIELD_TOL) & (fields <= 1 + FIELD_TOL))
    bad_field[:, :3] &= used
    total = 0.0
    with np.errstate(invalid="ignore"):  # inf + -inf is a nan total, as in Python
        for column in fields.T:
            total = total + column
    last = fields[np.arange(len(counts)), np.clip(counts, 1, 3) - 1]
    share = p_residual / (num_classes - 3) if num_classes > 3 else -np.inf
    rules = [
        (counts > 3, "more than 3 stored classes"),
        ((used[:, 1] & (ids[:, 0] == ids[:, 1])) | (used & (ids == 0)).any(axis=1)
         | (used[:, 2] & ((ids[:, 0] == ids[:, 2]) | (ids[:, 1] == ids[:, 2]))),
         "stored class ids must be distinct and non-zero"),
        ((used & ((ids < 1) | (ids > num_classes))).any(axis=1),
         "stored class id out of range"),
        (bad_field.any(axis=1), "probability {value} outside [0, 1]"),
        ((used[:, 1:] & (fields[:, :2] < fields[:, 1:3])).any(axis=1),
         "stored classes not sorted by probability"),
        (np.abs(total - 1.0) > SUM_TOL, "probabilities sum to {total}, not 1"),
        ((counts < 3) & (p_residual > SUM_TOL), "residual mass requires 3 stored classes"),
        ((counts > 0) & (last < share - FIELD_TOL),
         "stored probability below residual share"),
    ]
    broken = np.column_stack([rule for rule, _ in rules])
    return {i: rules[int(np.argmax(broken[i]))][1].format(
                value=fields[i, np.argmax(bad_field[i])].item(), total=total[i].item())
            for i in np.flatnonzero(broken.any(axis=1)).tolist()}


def observation_errors(obs_class, confidence, num_classes: int) -> dict[int, str]:
    """Observations that ``fuse_rows`` cannot fuse, by row, with the reason.

    Takes arrays, or one observation as two scalars (row 0). The class must
    lie in 0..K, and the confidence in (1/(K+1), 1]: at or below 1/(K+1) a
    label carries no information.
    """
    k = num_classes
    ok = ((obs_class >= 0) & (obs_class <= k)
          & (confidence > 1.0 / (k + 1)) & (confidence <= 1.0))
    if np.count_nonzero(ok) == np.size(ok):
        return {}
    obs_class, confidence, ok = np.atleast_1d(obs_class, confidence, ok)
    return {i: (f"observed class {obs_class[i].item()} outside 0..{k}"
                if not 0 <= obs_class[i] <= k
                else f"confidence {confidence[i].item()} outside (1/{k + 1}, 1]")
            for i in np.flatnonzero(~ok).tolist()}


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
    totals = posterior.sum(axis=1)
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
                         rows[:, 0].copy(), residual)


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


def _row(probs) -> np.ndarray:
    """A dense vector as a one-row (1, K+1) float64 view, the input of the
    row kernels."""
    probs = np.asarray(probs, dtype=np.float64)
    if probs.ndim != 1 or len(probs) < 2:
        raise DistributionError("need a 1-d vector over ids 0..K")
    return probs[None, :]


def expand_truncated(dist: TruncatedSemanticDistribution, num_classes: int) -> np.ndarray:
    """Validate a truncated record and expand it to a dense vector over ids
    0..num_classes (one-row ``expand_rows``)."""
    dist.validate(num_classes)
    return expand_rows(TruncatedRows.of([dist]), num_classes)[0]


def truncate_full(probs: np.ndarray) -> TruncatedSemanticDistribution:
    """One-row ``truncate_rows`` of a dense vector; expanding the result
    reproduces the stored fields and the total residual mass."""
    return truncate_rows(_row(probs)).records()[0]


def fuse_observation(prior: np.ndarray, obs_class: int, confidence: float) -> np.ndarray:
    """Validate the dense prior and the observation, then a one-row
    ``fuse_rows``; returns the posterior vector.

    Raises ``DistributionError`` for an invalid prior, an observation that
    ``observation_errors`` names, or one the prior contradicts.
    """
    row = _row(prior)
    check_rows(row)
    for message in observation_errors(obs_class, confidence, row.shape[1] - 1).values():
        raise DistributionError(message)
    posterior, contradicted = fuse_rows(row, np.array([obs_class]), np.array([confidence]))
    if contradicted[0]:
        raise DistributionError(CONTRADICTED)
    return posterior[0]
