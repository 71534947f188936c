import numpy as np
import pytest

from soct.compression import CompressionWeights
from soct.errors import DistributionError
from soct.infotheory import bernoulli_js, normalized_weights, split_increments

from helpers import ref_bernoulli_js, ref_entropy


def test_bernoulli_js_identical_marginals():
    assert bernoulli_js([0.7, 0.7], [0.2, 0.8]) == 0.0


def test_bernoulli_js_disjoint_supports_reach_weight_entropy():
    assert abs(bernoulli_js([0.0, 1.0], [0.5, 0.5]) - 1.0) < 1e-12


def test_bernoulli_js_three_way_mixture():
    v = bernoulli_js([0.0, 1.0, 0.5], [0.25, 0.25, 0.5])
    assert abs(v - 0.5) < 1e-12


def test_bernoulli_js_rejects_length_mismatch():
    with pytest.raises(DistributionError):
        bernoulli_js([0.0, 1.0], [1.0])


def test_bernoulli_js_bounded_by_weight_entropy_bulk():
    rng = np.random.default_rng(42)
    for _ in range(10_000):
        l = int(rng.integers(2, 6))
        m = rng.uniform(0.0, 1.0, l)
        m[rng.uniform(size=l) < 0.2] = 0.0
        m[rng.uniform(size=l) < 0.2] = 1.0
        weights = rng.uniform(0.0, 1.0, l)
        if weights.sum() == 0:
            weights[0] = 1.0
        js = bernoulli_js(m, weights)
        assert -1e-12 <= js <= ref_entropy(normalized_weights(weights)) + 1e-9


def test_bernoulli_js_zero_iff_identical_active():
    rng = np.random.default_rng(7)
    for _ in range(200):
        d, other = rng.uniform(0.0, 1.0, 2)
        marginals = [d, other, d]
        js = bernoulli_js(marginals, [0.5, 0.0, 0.5])
        assert js == 0.0
        if not np.isclose(d, other):
            assert bernoulli_js(marginals, [0.4, 0.2, 0.4]) > 0.0


def test_bernoulli_js_matches_reference():
    rng = np.random.default_rng(9)
    for _ in range(300):
        n = int(rng.integers(2, 7))
        m = rng.uniform(0, 1, n)
        w = rng.uniform(0.01, 2.0, n)
        assert abs(bernoulli_js(m, w) - ref_bernoulli_js(m, w)) < 1e-12


def test_split_increments_entropy_term():
    cw = CompressionWeights({}, {}, 1.0)
    inc = split_increments(0.4, [1, 1, 1, 1], {}, cw)
    assert abs(inc.split_bits - 0.8) < 1e-12
    assert abs(inc.reward - (-0.8)) < 1e-12


def test_split_increments_identical_children():
    cw = CompressionWeights({1: 2.0}, {2: 3.0}, 0.7)
    marg = {1: [0.3, 0.3, 0.3], 2: [0.1, 0.1, 0.1]}
    inc = split_increments(1.0, [1, 2, 3], marg, cw)
    assert inc.relevant_bits[1] == 0.0
    assert inc.irrelevant_bits[2] == 0.0
    assert abs(inc.reward + 0.7 * inc.split_bits) < 1e-12


def test_split_increments_binary_example():
    cw = CompressionWeights({1: 2.0}, {}, 1.0)
    inc = split_increments(1.0, [1, 1], {1: [1.0, 0.0]}, cw)
    assert abs(inc.relevant_bits[1] - 1.0) < 1e-12
    assert abs(inc.split_bits - 1.0) < 1e-12
    assert abs(inc.reward - 1.0) < 1e-12


def test_split_increments_single_effective_child():
    cw = CompressionWeights({1: 1.0}, {2: 1.0}, 1.0)
    marg = {1: [0.9, 0.2], 2: [0.0, 0.8]}
    inc = split_increments(2.0, [1.0, 0.0], marg, cw)
    assert inc.split_bits == 0.0
    assert inc.relevant_bits[1] == 0.0
    assert inc.irrelevant_bits[2] == 0.0
    assert inc.reward == 0.0


def test_split_increments_scale_invariant_in_weights():
    rng = np.random.default_rng(3)
    cw = CompressionWeights({1: 1.5}, {3: 0.5}, 0.2)
    for _ in range(100):
        w = rng.uniform(0.1, 2.0, 4)
        marg = {1: rng.uniform(0, 1, 4), 3: rng.uniform(0, 1, 4)}
        a = split_increments(1.0, w, marg, cw)
        b = split_increments(1.0, w * 7.3, marg, cw)
        assert abs(a.reward - b.reward) < 1e-9
        assert abs(a.split_bits - b.split_bits) < 1e-9


def test_split_increments_validation():
    cw = CompressionWeights({}, {}, 1.0)
    with pytest.raises(DistributionError):
        split_increments(-1.0, [1, 1], {}, cw)
    with pytest.raises(DistributionError):
        split_increments(1.0, [1.0], {}, cw)


def test_split_bits_match_reference_entropy():
    """``split_increments``'s split entropy, on a unit-mass node, against
    the reference: point masses give 0 and uniform splits log2 of their
    size."""
    cw = CompressionWeights({}, {}, 1.0)
    assert split_increments(1.0, [1.0, 0.0], {}, cw).split_bits == 0.0
    assert abs(split_increments(1.0, [1] * 8, {}, cw).split_bits - 3.0) < 1e-12
    rng = np.random.default_rng(12)
    for _ in range(200):
        p = rng.dirichlet(np.ones(int(rng.integers(2, 8))))
        assert abs(split_increments(1.0, p, {}, cw).split_bits - ref_entropy(p)) < 1e-12
