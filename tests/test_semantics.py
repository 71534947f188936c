from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from soct.errors import ConfigError, DistributionError
from soct.semantics import (
    CONTRADICTED,
    ClassRegistry,
    TruncatedRows,
    TruncatedSemanticDistribution,
    check_observation,
    check_rows,
    expand_rows,
    expand_truncated,
    fuse_observation,
    fuse_record,
    fuse_rows,
    observation_errors,
    record_errors,
    truncate_full,
    truncate_rows,
)

from helpers import random_full, random_truncated, ref_record_error


def sequential_bayes(prior, observations, num_classes):
    """Reference posterior: explicit likelihood products, renormalized once."""
    post = np.array(prior, dtype=float)
    for obs_class, confidence in observations:
        like = np.full(num_classes + 1, (1 - confidence) / num_classes)
        like[obs_class] = confidence
        post = post * like
    return post / post.sum()


def test_registry_roles():
    reg = ClassRegistry(4, names={1: "road"}, roles={1: "relevant", 2: "irrelevant"})
    assert reg.relevant_ids == {1}
    assert reg.irrelevant_ids == {2}
    assert reg.name_of(1) == "road"
    assert reg.name_of(3) == "class3"


def test_registry_rejects_bad_entries():
    with pytest.raises(ConfigError):
        ClassRegistry(0)
    with pytest.raises(ConfigError):
        ClassRegistry(4, roles={7: "relevant"})
    with pytest.raises(ConfigError):
        ClassRegistry(4, roles={1: "important"})


def test_expand_spreads_residual_uniformly():
    d = TruncatedSemanticDistribution(((5, 0.5), (7, 0.2), (9, 0.1)), 0.1, 0.1)
    full = expand_truncated(d, 24)
    assert full[5] == 0.5
    assert full[7] == 0.2
    assert full[9] == 0.1
    assert full[0] == 0.1
    others = [full[c] for c in range(1, 25) if c not in (5, 7, 9)]
    assert len(others) == 21
    assert np.allclose(others, 0.1 / 21)
    assert abs(full.sum() - 1.0) < 1e-9


def test_expand_point_mass():
    d = TruncatedSemanticDistribution(((1, 1.0),), 0.0, 0.0)
    full = expand_truncated(d, 24)
    assert full[1] == 1.0
    assert full.sum() == 1.0


def test_expand_single_outstanding_class():
    d = TruncatedSemanticDistribution(((1, 0.25), (2, 0.25), (3, 0.25)), 0.125, 0.125)
    full = expand_truncated(d, 4)
    assert full[4] == 0.125


def test_expand_requires_four_classes():
    with pytest.raises(ConfigError):
        expand_truncated(TruncatedSemanticDistribution(((1, 1.0),), 0.0, 0.0), 3)


def test_truncate_tie_break_prefers_lower_id():
    probs = np.zeros(25)
    probs[1:] = 1.0 / 24
    t = truncate_full(probs)
    assert [c for c, _ in t.top3] == [1, 2, 3]
    assert t.p_free == 0.0
    assert abs(t.p_residual - 21.0 / 24) < 1e-12


def test_truncate_free_space_point_mass():
    probs = np.zeros(25)
    probs[0] = 1.0
    t = truncate_full(probs)
    assert t.top3 == ()
    assert t.p_free == 1.0
    assert t.p_residual == 0.0


def test_truncate_omits_zero_entries():
    probs = np.zeros(25)
    probs[3], probs[8], probs[0] = 0.6, 0.3, 0.1
    t = truncate_full(probs)
    assert t.top3 == ((3, 0.6), (8, 0.3))
    assert t.p_residual == 0.0


def test_roundtrip_identity_on_random_distributions():
    rng = np.random.default_rng(11)
    for _ in range(500):
        t = truncate_full(random_full(rng, 9))
        back = truncate_full(expand_truncated(t, 9))
        assert back.is_close(t, 1e-12)
        full = expand_truncated(t, 9)
        assert abs(full.sum() - 1.0) < 1e-9
        assert np.all(full >= 0)


def test_invalid_truncated_records_rejected():
    with pytest.raises(DistributionError):
        TruncatedSemanticDistribution(((0, 0.5),), 0.5, 0.0).validate(4)
    with pytest.raises(DistributionError):
        TruncatedSemanticDistribution(((1, 0.2), (2, 0.5)), 0.3, 0.0).validate(4)
    with pytest.raises(DistributionError):
        TruncatedSemanticDistribution(((1, 0.5),), 0.0, 0.5).validate(24)
    with pytest.raises(DistributionError):
        TruncatedSemanticDistribution(((1, 0.5),), 0.1, 0.0).validate(4)


def test_fuse_single_observation():
    prior = np.full(5, 0.2)
    post = fuse_observation(prior, 3, 0.9)
    assert abs(post[3] - 0.9) < 1e-12
    assert abs(post.sum() - 1.0) < 1e-12


def test_fuse_point_mass_prior_is_fixed():
    probs = np.zeros(5)
    probs[3] = 1.0
    post = fuse_observation(probs, 1, 0.9)
    assert post[3] == 1.0


def test_fuse_two_step_matches_reference():
    prior = np.full(5, 0.2)
    post = fuse_observation(fuse_observation(prior, 2, 0.8), 2, 0.8)
    assert abs(post[2] - 0.64 / 0.65) < 1e-12
    ref = sequential_bayes(prior, [(2, 0.8), (2, 0.8)], 4)
    assert np.allclose(post, ref, atol=1e-12)


def test_fuse_repeated_observations_concentrate():
    rng = np.random.default_rng(5)
    dist = random_full(rng, 6) + 1e-3
    dist = dist / dist.sum()
    last = dist[2]
    for _ in range(5):
        dist = fuse_observation(dist, 2, 0.7)
        assert dist[2] > last
        last = dist[2]


def test_fuse_near_uniform_confidence_approaches_prior():
    rng = np.random.default_rng(6)
    prior = random_full(rng, 4)
    gaps = []
    for eps in (1e-2, 1e-4, 1e-6):
        post = fuse_observation(prior, 1, 1.0 / 5 + eps)
        gaps.append(np.abs(post - prior).max())
    assert gaps[0] > gaps[1] > gaps[2]
    assert gaps[2] < 1e-5


def test_fuse_rejects_uninformative_confidence():
    prior = np.full(5, 0.2)
    with pytest.raises(DistributionError):
        fuse_observation(prior, 1, 0.2)
    with pytest.raises(DistributionError):
        fuse_observation(prior, 1, 1.1)
    with pytest.raises(DistributionError):
        fuse_observation(prior, 9, 0.9)


def test_fuse_contradictory_observation_rejected():
    probs = np.zeros(5)
    probs[3] = 1.0
    with pytest.raises(DistributionError):
        fuse_observation(probs, 1, 1.0)


def _ref_fuse(prior, obs_class, confidence):
    """Plain-float fusion; the total adds entries left to right."""
    k = len(prior) - 1
    post = [p * (confidence if c == obs_class else (1.0 - confidence) / k)
            for c, p in enumerate(prior)]
    total = 0.0
    for v in post:
        total += v
    return [v / total for v in post] if total > 0 else None


def _ref_truncate(probs):
    order = sorted(range(1, len(probs)), key=lambda c: (-probs[c], c))
    residual = 0.0
    for c in order[3:]:
        residual += probs[c]
    return TruncatedSemanticDistribution(
        tuple((c, probs[c]) for c in order[:3] if probs[c] > 0.0), probs[0], residual)


def _ref_expand(record, k):
    probs = [record.p_residual / (k - 3)] * (k + 1)
    probs[0] = record.p_free
    for c, p in record.top3:
        probs[c] = p
    return probs


def _stored_priors(rng, k, n):
    """Expansions of truncated records, so residual shares tie; some rows
    are point masses, which confidence-1 labels contradict."""
    raw = rng.dirichlet(np.full(k + 1, 0.4), n)
    raw[: n // 8] = np.eye(k + 1)[rng.integers(0, k + 1, n // 8)]
    return expand_rows(truncate_rows(raw), k)


@pytest.mark.parametrize("k", [4, 6, 7, 9, 12])
def test_row_kernel_gives_every_row_its_one_row_bits(k):
    """Fusion, truncation and expansion of a 2,000-row batch give each row
    the bits of its own one-row call and of the scalar functions, in C or
    Fortran layout, and of a plain-Python reference that adds a row left
    to right, for every K."""
    rng = np.random.default_rng(k)
    n = 2000
    prior = _stored_priors(rng, k, n)
    obs_class = rng.integers(0, k + 1, n)
    confidence = rng.choice([1.0, float(np.nextafter(1.0 / (k + 1), 1.0)), 0.7], n)
    confidence[n // 2:] = rng.uniform(1.0 / (k + 1), 1.0, n - n // 2)
    post, contradicted = fuse_rows(prior, obs_class, confidence)
    post_f, contradicted_f = fuse_rows(np.asfortranarray(prior), obs_class, confidence)
    assert post.tobytes() == np.ascontiguousarray(post_f).tobytes()
    assert np.array_equal(contradicted, contradicted_f)
    assert contradicted.any() and not contradicted.all()
    fused = ~contradicted
    records = truncate_rows(post[fused])
    dense = expand_rows(records, k)
    assert dense.tobytes() == expand_rows(truncate_rows(np.asfortranarray(post[fused])),
                                          k).tobytes()
    listed = [records.record(i) for i in range(len(records.ids))]
    for i, row in enumerate(np.flatnonzero(fused)):
        one, bad = fuse_rows(prior[row:row + 1], obs_class[row:row + 1],
                             confidence[row:row + 1])
        assert not bad[0] and one.tobytes() == post[row:row + 1].tobytes()
        scalar = fuse_observation(prior[row], int(obs_class[row]), float(confidence[row]))
        assert scalar.tobytes() == post[row].tobytes()
        assert _ref_fuse(prior[row].tolist(), obs_class[row], confidence[row]) \
            == post[row].tolist()
        assert listed[i] == truncate_full(scalar) == _ref_truncate(post[row].tolist())
        assert dense[i].tobytes() == expand_truncated(listed[i], k).tobytes()
        assert dense[i].tolist() == _ref_expand(listed[i], k)
    for row in np.flatnonzero(contradicted):
        assert _ref_fuse(prior[row].tolist(), obs_class[row], confidence[row]) is None
        with pytest.raises(DistributionError, match=CONTRADICTED):
            fuse_observation(prior[row], int(obs_class[row]), float(confidence[row]))


def _raised(fn, *args):
    """The type and message of the exception ``fn(*args)`` raises."""
    with pytest.raises(Exception) as err:
        fn(*args)
    return type(err.value), str(err.value)


@pytest.mark.parametrize("k", [4, 6, 7, 9, 12])
def test_one_row_kernel_is_the_batch_row(k):
    """The streamed insert's kernel on Python floats (``fuse_record``) gives
    each row the posterior, record fields and dense vector of ``fuse_rows`` ->
    ``truncate_rows`` -> ``expand_rows``, byte for byte, and the one-row
    functions reject what the batch kernel rejects, with the same type and
    message. Priors have tied and zero entries; confidences sit at 1.0 and
    just above 1/(K+1), so some observations are contradicted."""
    rng = np.random.default_rng(40 + k)
    n = 800
    prior = _stored_priors(rng, k, n)
    prior[n - 100:] = 1.0 / (k + 1)  # every entry tied
    pair = np.zeros(k + 1)
    pair[[0, k // 2, k]] = 0.25, 0.375, 0.375  # two tied classes, the rest zero
    prior[n - 50:] = pair
    obs_class = rng.integers(0, k + 1, n)
    low = float(np.nextafter(1.0 / (k + 1), 1.0))
    confidence = rng.choice([1.0, low, 0.7], n)
    confidence[: n // 4] = rng.uniform(1.0 / (k + 1), 1.0, n // 4)
    post, contradicted = fuse_rows(prior, obs_class, confidence)
    assert contradicted.any() and not contradicted.all()
    records = truncate_rows(post[~contradicted])
    dense = expand_rows(records, k)
    fused = iter(range(len(dense)))
    for i in range(n):
        c, conf = int(obs_class[i]), float(confidence[i])
        if contradicted[i]:
            assert _raised(fuse_record, prior[i], c, conf) == (DistributionError, CONTRADICTED)
            assert _raised(fuse_observation, prior[i], c, conf) == (DistributionError,
                                                                    CONTRADICTED)
            continue
        j = next(fused)
        fields, cond = fuse_record(prior[i], c, conf)
        assert fuse_observation(prior[i], c, conf).tobytes() == post[i].tobytes()
        ids, probs, p_free, residual = fields
        assert ids == records.ids[j, :records.stored()[j]].tolist()
        assert all(type(v) is float for v in (*probs, p_free, residual, *cond))
        assert np.array(probs + [p_free, residual], dtype=np.float64).tobytes() == np.r_[
            records.probs[j, :len(ids)], records.p_free[j], records.p_residual[j]].tobytes()
        assert np.array(cond).tobytes() == dense[j].tobytes()
        assert truncate_full(post[i]) == records.record(j)
        assert expand_truncated(records.record(j), k).tobytes() == dense[j].tobytes()
    for c, conf in [(-1, 0.9), (k + 1, 0.9), (1, 1.0 / (k + 1)), (1, 1.0000001),
                    (1, float("nan")), (k + 1, 0.0)]:
        want = observation_errors(np.array([c]), np.array([conf]), k)[0]
        assert _raised(check_observation, c, conf, k) == (DistributionError, want)
        assert _raised(fuse_observation, prior[0], c, conf) == (DistributionError, want)
    for bad in ([0.5, 0.6, -0.1] + [0.0] * (k - 2), [0.6, 0.6] + [0.0] * (k - 1),
                [float("nan"), 1.0] + [0.0] * (k - 1)):
        bad = np.array(bad)
        want = _raised(check_rows, bad[None, :])
        assert _raised(fuse_observation, bad, 1, 0.9) == want
        assert _raised(truncate_full, bad) == want == _raised(truncate_rows, bad[None, :])
    tiny = np.array([0.9, -1e-13, 0.1] + [0.0] * (k - 2))  # negative within FIELD_TOL
    assert truncate_full(tiny) == truncate_rows(tiny[None, :]).record(0)
    assert fuse_observation(tiny, 2, 0.9).tobytes() == fuse_rows(
        tiny[None, :], np.array([2]), np.array([0.9]))[0].tobytes()
    mass = TruncatedSemanticDistribution(((1, 1.0),), 0.0, 0.0)
    assert _raised(expand_truncated, mass, 3) == _raised(expand_rows,
                                                         TruncatedRows.of([mass]), 3)


def test_truncated_rows_round_trip():
    rng = np.random.default_rng(17)
    records = [truncate_full(random_full(rng, 6)) for _ in range(50)]
    records.append(TruncatedSemanticDistribution((), 1.0, 0.0))
    records.append(TruncatedSemanticDistribution(((2, 0.75),), 0.25, 0.0))
    rows = TruncatedRows.of(records)
    assert [rows.record(i) for i in range(len(records))] == records


def test_take_gives_the_picked_rows_with_counts():
    """``take`` of a stored table and of a kernel table (no ``counts``)
    gives the picked rows, repeats and any order included, with their
    counts, also of a stored row whose used slot holds id 0; by default
    every row."""
    rng = np.random.default_rng(18)
    full = np.array([random_full(rng, 6) for _ in range(30)])
    records = [truncate_full(row) for row in full] + [
        TruncatedSemanticDistribution((), 1.0, 0.0),
        TruncatedSemanticDistribution(((0, 0.5),), 0.5, 0.0)]
    for table in (TruncatedRows.of(records), truncate_rows(full)):
        picked = np.append(rng.integers(0, len(table.ids), 40), len(table.ids) - 1)
        rows = table.take(picked)
        assert rows.counts.tolist() == table.stored()[picked].tolist()
        assert [rows.record(i) for i in range(len(picked))] == [
            table.record(i) for i in picked.tolist()]
        assert [c.tobytes() for c in table.take()] == [
            c.tobytes() for c in (*table[:4], table.stored())]


def test_observation_errors_name_each_bad_row():
    classes = np.array([0, 4, 5, -1, 2, 2, 2, 2])
    conf = np.array([0.9, 1.0, 0.9, 0.3, 0.2, 1.0000001, float("nan"), 0.21])
    assert observation_errors(classes, conf, 4) == {
        2: "observed class 5 outside 0..4",
        3: "observed class -1 outside 0..4",
        4: "confidence 0.2 outside (1/5, 1]",
        5: "confidence 1.0000001 outside (1/5, 1]",
        6: "confidence nan outside (1/5, 1]",
    }
    assert observation_errors(np.array([], dtype=np.int64), np.array([]), 4) == {}


def test_truncation_checks_its_rows():
    """Rows that reach truncation are checked, and the first bad row names
    the failure."""
    good = np.full(5, 0.2)
    with pytest.raises(DistributionError, match="negative probability entry"):
        truncate_rows(np.array([good, [0.5, 0.6, -0.1, 0.0, 0.0]]))
    with pytest.raises(DistributionError, match=r"probabilities sum to 1.2, not 1"):
        truncate_rows(np.array([good, [0.6, 0.6, 0.0, 0.0, 0.0], [-1.0, 2, 0, 0, 0]]))
    with pytest.raises(DistributionError, match="need a 1-d vector"):
        truncate_full(np.full((2, 2), 0.25))


_ODD_VALUES = [float("nan"), float("inf"), -float("inf"), -0.5, 1.5, -1e-13, 2e-12,
               1.0 + 1e-13, 5e-10, 0.0, -0.0]


def _odd_record(rng, num_classes):
    """A random record with up to three of its fields, ids or order broken."""
    dist = random_truncated(rng, num_classes)
    for _ in range(int(rng.integers(0, 4))):
        top = list(dist.top3)
        what = int(rng.integers(0, 7))
        if what == 0 and top:
            slot = int(rng.integers(0, len(top)))
            top[slot] = (top[slot][0], _ODD_VALUES[rng.integers(0, len(_ODD_VALUES))])
        elif what == 1:
            field = "p_free" if rng.random() < 0.5 else "p_residual"
            dist = replace(dist, **{field: _ODD_VALUES[rng.integers(0, len(_ODD_VALUES))]})
        elif what == 2 and top:
            slot = int(rng.integers(0, len(top)))
            top[slot] = (int(rng.choice([0, top[0][0], num_classes + 1])), top[slot][1])
        elif what == 3:
            top = top[::-1]
        elif what == 4:
            top = top[:int(rng.integers(0, len(top) + 1))]
        elif what == 5:
            top.append((num_classes, 0.0))
        dist = replace(dist, top3=tuple(top))
    return dist


@settings(max_examples=60, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), num_classes=st.sampled_from([3, 4, 6, 24]))
def test_record_errors_match_the_field_by_field_check(seed, num_classes):
    """The row check names each record as the scalar reference does, and
    ``validate`` (its one-row call) raises exactly then, with that message."""
    rng = np.random.default_rng(seed)
    records = [_odd_record(rng, max(num_classes, 4)) for _ in range(40)]
    want = {i: ref_record_error(r, num_classes) for i, r in enumerate(records)}
    want = {i: message for i, message in want.items() if message is not None}
    assert record_errors(TruncatedRows.of(records), num_classes) == want
    for i, record in enumerate(records):
        if i in want:
            with pytest.raises(DistributionError) as exc:
                record.validate(num_classes)
            assert str(exc.value) == want[i]
        else:
            record.validate(num_classes)

