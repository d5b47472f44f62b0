"""Batch == alone for every ``BIGCity.*_batch`` entry point, on generated inputs.

Every generative and traffic task has one public shape: a batch.  A single
case is a batch of one, so the load-bearing claim is that a case's answer
does not depend on the other cases it is batched with.  Each test draws a
seeded, shuffled batch of cases of mixed lengths, including the edge cases
below, and checks every answer bit for bit against the case run alone:

* recovery kept sets that hold only the two endpoints, every point (an
  empty answer) or repeated indices;
* traffic prediction windows starting at slice 0 and ending on the last
  slice, with mixed histories and horizons;
* imputation windows at both ends of the time axis, with and without a
  shared ``traffic_override``;
* next-hop rollouts over trajectories of mixed lengths, cached and
  re-encoded.
"""

from __future__ import annotations

import numpy as np
import pytest

SEEDS = [0, 1, 2]


def _shuffled(rng, cases):
    return [cases[i] for i in rng.permutation(len(cases))]


def _mixed_trajectories(dataset, rng, count: int, min_length: int):
    pool = sorted((t for t in dataset.test_trajectories if len(t) >= min_length), key=len)
    picks = [pool[0], pool[-1]] + [pool[i] for i in rng.choice(len(pool), size=count - 2, replace=False)]
    assert len({len(t) for t in picks}) > 1, "the batch must mix lengths"
    return picks


def _recovery_cases(dataset, rng):
    trajectories = _mixed_trajectories(dataset, rng, count=7, min_length=4)
    cases = []
    for index, trajectory in enumerate(trajectories):
        length = len(trajectory)
        kind = index % 4
        if kind == 0:
            kept = np.array([0, length - 1])
        elif kind == 1:
            kept = np.arange(length)
        elif kind == 2:
            drawn = rng.choice(length, size=max(2, length // 3), replace=False)
            kept = np.sort(np.concatenate([drawn, drawn[:1]]))
        else:
            kept = np.sort(rng.choice(length, size=max(1, length // 4), replace=False))
        cases.append((trajectory, kept))
    return _shuffled(rng, cases)


@pytest.mark.parametrize("seed", SEEDS)
def test_recovery_batch_equals_alone(trained_model, tiny_dataset, seed):
    rng = np.random.default_rng(seed)
    cases = _recovery_cases(tiny_dataset, rng)
    trajectories = [trajectory for trajectory, _ in cases]
    kept_lists = [kept for _, kept in cases]
    batched = trained_model.recover_trajectories_batch(trajectories, kept_lists)
    assert len(batched) == len(cases)
    for (trajectory, kept), answer in zip(cases, batched):
        alone = trained_model.recover_trajectories_batch([trajectory], [kept])[0]
        np.testing.assert_array_equal(answer, alone)
        assert answer.shape == (len(trajectory) - len(set(kept.tolist())),)
    assert any(answer.shape == (0,) for answer in batched), "no every-point kept set was drawn"


@pytest.mark.parametrize("seed", SEEDS)
def test_traffic_prediction_batch_equals_alone(trained_model, tiny_dataset, seed):
    rng = np.random.default_rng(seed)
    traffic = tiny_dataset.traffic_states
    cases = []
    for index in range(8):
        history = int(rng.integers(2, 7))
        horizon = int(rng.integers(1, 4))
        if index == 0:
            start = 0
        elif index == 1:
            start = traffic.num_slices - history
        else:
            start = int(rng.integers(0, traffic.num_slices - history + 1))
        cases.append((int(rng.integers(traffic.num_segments)), start, history, horizon))
    cases = _shuffled(rng, cases)
    batched = trained_model.predict_traffic_states_batch(cases)
    assert len(batched) == len(cases)
    for case, answer in zip(cases, batched):
        np.testing.assert_array_equal(answer, trained_model.predict_traffic_states_batch([case])[0])
        assert answer.shape[0] == case[3]


@pytest.mark.xfail(
    strict=True,
    reason=(
        "known defect: the attention softmax sums each score row over the padded key axis, and "
        "numpy's eight-way unrolled pairwise sum adds the keys past a row's last multiple of eight "
        "in a different order once padding carries the row across the next multiple of eight, so "
        "an imputation prompt batched with a longer one can differ from its batch-of-one answer "
        "in the last bit"
    ),
)
@pytest.mark.parametrize("override", [False, True])
@pytest.mark.parametrize("seed", SEEDS)
def test_traffic_imputation_batch_equals_alone(trained_model, tiny_dataset, seed, override):
    rng = np.random.default_rng(seed)
    traffic = tiny_dataset.traffic_states
    cases = []
    for index in range(8):
        length = int(rng.integers(3, 9))
        if index == 0:
            start = 0
        elif index == 1:
            start = traffic.num_slices - length
        else:
            start = int(rng.integers(0, traffic.num_slices - length + 1))
        masked = np.sort(rng.choice(length, size=int(rng.integers(1, length)), replace=False))
        cases.append((int(rng.integers(traffic.num_segments)), start, length, masked))
    cases = _shuffled(rng, cases)
    values = None
    if override:
        values = traffic.values.copy()
        for segment, start, _, masked in cases:
            values[segment, start + masked] = 0.0
    batched = trained_model.impute_traffic_states_batch(cases, traffic_override=values)
    assert len(batched) == len(cases)
    for case, answer in zip(cases, batched):
        alone = trained_model.impute_traffic_states_batch([case], traffic_override=values)[0]
        np.testing.assert_array_equal(answer, alone)
        assert answer.shape[0] == len(case[3])


@pytest.mark.parametrize("use_cache", [True, False])
@pytest.mark.parametrize("seed", SEEDS)
def test_rollout_batch_equals_alone(trained_model, tiny_dataset, seed, use_cache):
    rng = np.random.default_rng(seed)
    trajectories = _shuffled(rng, _mixed_trajectories(tiny_dataset, rng, count=6, min_length=2))
    steps = int(rng.integers(1, 4))
    batched = trained_model.rollout_next_hops_batch(trajectories, steps=steps, use_cache=use_cache)
    assert len(batched) == len(trajectories)
    for trajectory, answer in zip(trajectories, batched):
        alone = trained_model.rollout_next_hops_batch([trajectory], steps=steps, use_cache=use_cache)[0]
        np.testing.assert_array_equal(answer, alone)
        assert answer.shape == (steps,)
