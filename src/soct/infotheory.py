"""Per-node information increments, one node at a time.

This is ``compression.weighted_gain``'s route, kept independent of the
batched ``compression.split_terms`` kernel that every other gain and report
reads, so that each checks the other: ``split_increments`` evaluates one
child set's split entropy and per-class Bernoulli JS divergences on its own.

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
from .semantics import left_sum

if TYPE_CHECKING:  # pragma: no cover
    from .compression import CompressionWeights


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


def _entropy_of_weights(pi: np.ndarray) -> float:
    pos = pi[pi > 0]
    return float(-(pos * np.log2(pos)).sum())


def bernoulli_js(marginals, weights) -> float:
    """JS divergence of Bernoulli distributions given by their success probs.

    JS = sum_i pi_i * KL(Bern(m_i) || Bern(mbar)) with mbar the pi-weighted
    mean. Bounded above by the entropy of the weights; exactly zero when all
    positively weighted marginals are identical.
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
