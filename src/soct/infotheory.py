"""Entropy, divergences, and the per-node information increments.

Everything is measured in bits (log base 2) with the usual continuity
conventions 0*log(0) = 0 and 0*log(0/0) = 0. Child-weight vectors are
accepted unnormalized and normalized internally, since every quantity here
depends only on the relative weights.

Pure functions; unrestricted concurrent use.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Mapping, Sequence

import numpy as np

from .errors import DistributionError
from .semantics import FIELD_TOL, SUM_TOL, left_sum

if TYPE_CHECKING:  # pragma: no cover
    from .compression import CompressionWeights


def _as_dist(p, name: str = "p") -> np.ndarray:
    arr = np.asarray(p, dtype=np.float64)
    if arr.ndim != 1:
        raise DistributionError(f"{name} must be a 1-d probability vector")
    if np.any(arr < -FIELD_TOL):
        raise DistributionError(f"{name} has a negative entry")
    total = float(arr.sum())
    if abs(total - 1.0) > SUM_TOL:
        raise DistributionError(f"{name} sums to {total}, not 1")
    return np.clip(arr, 0.0, None)


def normalized_weights(weights) -> np.ndarray:
    """Normalize a non-negative weight vector to sum to 1."""
    arr = np.asarray(weights, dtype=np.float64)
    if arr.ndim != 1 or len(arr) == 0:
        raise DistributionError("weights must be a non-empty 1-d vector")
    if np.any(arr < 0):
        raise DistributionError("weights must be non-negative")
    total = float(arr.sum())
    if total <= 0.0:
        raise DistributionError("weights sum to zero")
    return arr / total


def entropy(p) -> float:
    """Shannon entropy of a probability vector, in bits."""
    arr = _as_dist(p)
    pos = arr[arr > 0]
    return float(-(pos * np.log2(pos)).sum())


def _entropy_of_weights(pi: np.ndarray) -> float:
    pos = pi[pi > 0]
    return float(-(pos * np.log2(pos)).sum())


def js_divergence(dists, weights) -> float:
    """Weighted Jensen-Shannon divergence of a set of distributions.

    JS = sum_i pi_i * KL(p_i || pbar) with pbar the pi-weighted mixture.
    Bounded above by the entropy of the weights; exactly zero when all
    positively weighted distributions are identical.
    """
    rows = np.asarray(dists, dtype=np.float64)
    if rows.ndim != 2:
        raise DistributionError("dists must be a list of probability vectors")
    pi = normalized_weights(weights)
    if len(pi) != rows.shape[0]:
        raise DistributionError("number of weights must match number of dists")
    for i in range(rows.shape[0]):
        _as_dist(rows[i], f"dists[{i}]")
    rows = np.clip(rows, 0.0, None)
    active = pi > 0
    sub = rows[active]
    if np.all(sub == sub[0]):
        return 0.0
    pbar = pi @ rows
    with np.errstate(divide="ignore", invalid="ignore"):
        terms = np.where(rows > 0, rows * np.log2(rows / pbar), 0.0)
    return float(pi @ terms.sum(axis=1))


def bernoulli_js(marginals, weights) -> float:
    """JS divergence of Bernoulli distributions given by their success probs.

    Equivalent to ``js_divergence`` on rows [1-m, m]; kept separate because
    per-class aggregation over tree children evaluates it in bulk.
    """
    m = np.clip(np.asarray(marginals, dtype=np.float64), 0.0, 1.0)
    pi = normalized_weights(weights)
    if len(pi) != len(m):
        raise DistributionError("number of weights must match number of marginals")
    act = pi > 0
    ma, pa = m[act], pi[act]
    if np.all(ma == ma[0]):
        return 0.0
    pbar = float(pa @ ma)
    with np.errstate(divide="ignore", invalid="ignore"):
        t1 = np.where(ma > 0, ma * np.log2(ma / pbar), 0.0)
        t0 = np.where(ma < 1, (1 - ma) * np.log2((1 - ma) / (1 - pbar)), 0.0)
    return float(pa @ (t1 + t0))


@dataclass(frozen=True)
class InfoIncrement:
    """Information contributed by splitting one node into its children.

    ``relevant_bits`` and ``irrelevant_bits`` map class ids to the weighted
    JS divergence of the children's per-class marginals; ``split_bits`` is
    the weighted entropy of the child-weight vector; ``reward`` combines the
    three under the configured trade-off weights and may be negative.
    """

    relevant_bits: dict[int, float]
    irrelevant_bits: dict[int, float]
    split_bits: float
    reward: float


def split_increments(weight: float, child_weights: Sequence[float],
                     child_marginals: Mapping[int, Sequence[float]],
                     cw: "CompressionWeights") -> InfoIncrement:
    """Per-node increments for expanding a node with the given children.

    ``weight`` is the node's own (possibly unnormalized) mass; the child
    weights are normalized internally. ``child_marginals`` maps each class id
    carrying a retain/remove weight to the per-child probabilities of that
    class. At least two children are required (after any virtual completion
    done by the caller).
    """
    if weight < 0:
        raise DistributionError("node weight must be non-negative")
    if len(child_weights) < 2:
        raise DistributionError("need at least 2 children")
    pi = normalized_weights(child_weights)
    relevant = {}
    for cid in sorted(cw.retain):
        relevant[cid] = weight * bernoulli_js(child_marginals[cid], pi)
    irrelevant = {}
    for cid in sorted(cw.remove):
        irrelevant[cid] = weight * bernoulli_js(child_marginals[cid], pi)
    split_bits = weight * _entropy_of_weights(pi)
    reward = (left_sum(cw.retain[c] * v for c, v in relevant.items())
              - left_sum(cw.remove[c] * v for c, v in irrelevant.items())
              - cw.compress * split_bits)
    return InfoIncrement(relevant, irrelevant, split_bits, reward)
