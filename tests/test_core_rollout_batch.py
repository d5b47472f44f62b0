"""Equivalence tests for the batched KV-cached rollout.

``BIGCity.rollout_next_hops_batch`` decodes N trajectories through one
right-padded batch with per-row position ids; these tests pin the contract
that it chooses exactly the segments each trajectory gets rolled out alone
(a batch of one), on both the cached and the re-encoding path,
and that the next-hop evaluator's rollout metric runs on top of it.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.tasks.decoding import greedy_next_hop, greedy_next_hop_batch
from repro.tasks.next_hop import NextHopEvaluator


@pytest.fixture(scope="module")
def mixed_length_trajectories(tiny_dataset):
    """Trajectories of deliberately different lengths (forces padding)."""
    pool = sorted(tiny_dataset.train_trajectories, key=len)
    picks = [pool[0], pool[len(pool) // 2], pool[-1], pool[1], pool[-2]]
    assert len({len(t) for t in picks}) > 1, "fixture must mix lengths"
    return picks


class TestBatchedRolloutEquivalence:
    @pytest.mark.parametrize("use_cache", [True, False])
    def test_matches_per_trajectory_rollout(self, untrained_model, mixed_length_trajectories, use_cache):
        untrained_model.eval()
        serial = [
            untrained_model.rollout_next_hops_batch([t], steps=3, use_cache=use_cache)[0]
            for t in mixed_length_trajectories
        ]
        batched = untrained_model.rollout_next_hops_batch(
            mixed_length_trajectories, steps=3, use_cache=use_cache
        )
        assert len(batched) == len(serial)
        for expected, actual in zip(serial, batched):
            assert np.array_equal(expected, actual)

    def test_cached_matches_uncached_batch(self, untrained_model, mixed_length_trajectories):
        untrained_model.eval()
        cached = untrained_model.rollout_next_hops_batch(mixed_length_trajectories, steps=4, use_cache=True)
        uncached = untrained_model.rollout_next_hops_batch(mixed_length_trajectories, steps=4, use_cache=False)
        for expected, actual in zip(uncached, cached):
            assert np.array_equal(expected, actual)

    def test_unconstrained_matches_too(self, untrained_model, mixed_length_trajectories):
        untrained_model.eval()
        serial = [
            untrained_model.rollout_next_hops_batch([t], steps=2, constrain_to_network=False)[0]
            for t in mixed_length_trajectories
        ]
        batched = untrained_model.rollout_next_hops_batch(
            mixed_length_trajectories, steps=2, constrain_to_network=False
        )
        for expected, actual in zip(serial, batched):
            assert np.array_equal(expected, actual)

    def test_single_trajectory_shape(self, untrained_model, tiny_dataset):
        untrained_model.eval()
        result = untrained_model.rollout_next_hops_batch([tiny_dataset.train_trajectories[0]], steps=3)
        assert len(result) == 1
        assert result[0].shape == (3,)
        assert result[0].dtype == np.int64

    def test_empty_batch(self, untrained_model):
        assert untrained_model.rollout_next_hops_batch([]) == []

    def test_rejects_nonpositive_steps(self, untrained_model, tiny_dataset):
        with pytest.raises(ValueError):
            untrained_model.rollout_next_hops_batch([tiny_dataset.train_trajectories[0]], steps=0)


class TestGreedyNextHopBatch:
    def test_matches_scalar_helper(self, tiny_network):
        rng = np.random.default_rng(0)
        scores = rng.standard_normal((5, tiny_network.num_segments))
        last = rng.integers(0, tiny_network.num_segments, size=5)
        batched = greedy_next_hop_batch(scores, last, tiny_network)
        expected = [greedy_next_hop(row, int(seg), tiny_network) for row, seg in zip(scores, last)]
        assert np.array_equal(batched, np.asarray(expected))

    def test_without_network_is_argmax(self):
        scores = np.array([[0.1, 0.9, 0.0], [0.5, 0.2, 0.3]])
        assert np.array_equal(greedy_next_hop_batch(scores, [0, 0], None), [1, 0])

    def test_shape_validation(self):
        with pytest.raises(ValueError):
            greedy_next_hop_batch(np.zeros(3), [0], None)
        with pytest.raises(ValueError):
            greedy_next_hop_batch(np.zeros((2, 3)), [0], None)


class TestRolloutEvaluator:
    def test_evaluate_rollout_runs_batched(self, untrained_model, tiny_dataset):
        untrained_model.eval()
        evaluator = NextHopEvaluator(tiny_dataset, max_samples=6, seed=0)
        calls = []

        def rollout_fn(prefixes):
            calls.append(len(prefixes))
            return untrained_model.rollout_next_hops_batch(prefixes, steps=1)

        metrics = evaluator.evaluate_rollout(rollout_fn)
        assert calls == [len(evaluator)]  # one batched call for all prefixes
        assert 0.0 <= metrics["rollout_acc"] <= 1.0

    def test_evaluate_rollout_validates_count(self, tiny_dataset):
        evaluator = NextHopEvaluator(tiny_dataset, max_samples=4, seed=0)
        with pytest.raises(ValueError):
            evaluator.evaluate_rollout(lambda prefixes: [])
