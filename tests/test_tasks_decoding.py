"""Tests for road-network-constrained decoding (`repro.tasks.decoding`)."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.roadnet.generators import grid_city
from repro.tasks.decoding import (
    backward_hop_distances,
    constrained_next_hop_ranking,
    constrained_recovery_choice,
    forward_hop_distances,
    gap_candidates,
)


@pytest.fixture(scope="module")
def network():
    return grid_city(rows=3, cols=3, block_km=0.5, seed=7)


class TestConstrainedNextHopRanking:
    def test_successors_come_first(self, network):
        rng = np.random.default_rng(0)
        scores = rng.normal(size=network.num_segments)
        last = 0
        ranking = constrained_next_hop_ranking(scores, last, network, top_k=network.num_segments)
        successors = set(network.successors(last))
        assert successors, "grid cities always have successors"
        head = [int(s) for s in ranking[: len(successors)]]
        assert set(head) == successors

    def test_successors_ranked_by_score(self, network):
        scores = np.zeros(network.num_segments)
        successors = network.successors(0)
        # give the *last* successor the highest score; it must be ranked first
        best = successors[-1]
        for rank, segment in enumerate(successors):
            scores[segment] = rank
        ranking = constrained_next_hop_ranking(scores, 0, network, top_k=3)
        assert int(ranking[0]) == best

    def test_top_k_respected(self, network):
        scores = np.arange(network.num_segments, dtype=float)
        ranking = constrained_next_hop_ranking(scores, 0, network, top_k=4)
        assert len(ranking) == 4
        assert len(set(int(s) for s in ranking)) == 4

    def test_wrong_score_length_raises(self, network):
        with pytest.raises(ValueError):
            constrained_next_hop_ranking(np.zeros(3), 0, network)

    def test_invalid_segment_raises(self, network):
        with pytest.raises(ValueError):
            constrained_next_hop_ranking(np.zeros(network.num_segments), network.num_segments + 5, network)

    def test_invalid_top_k_raises(self, network):
        with pytest.raises(ValueError):
            constrained_next_hop_ranking(np.zeros(network.num_segments), 0, network, top_k=0)

    @given(seed=st.integers(min_value=0, max_value=10_000))
    @settings(max_examples=25, deadline=None)
    def test_ranking_is_always_valid_ids(self, network, seed):
        rng = np.random.default_rng(seed)
        scores = rng.normal(size=network.num_segments)
        last = int(rng.integers(0, network.num_segments))
        ranking = constrained_next_hop_ranking(scores, last, network, top_k=5)
        assert len(ranking) == 5
        assert all(0 <= int(s) < network.num_segments for s in ranking)
        assert len(set(int(s) for s in ranking)) == len(ranking)


class TestHopDistances:
    def test_source_distance_is_zero(self, network):
        distances = forward_hop_distances(network, 0)
        assert distances[0] == 0

    def test_forward_matches_network_hop_distance(self, network):
        distances = forward_hop_distances(network, 0)
        for target, hops in list(distances.items())[:20]:
            assert hops == network.hop_distance(0, target)

    def test_backward_is_forward_on_reverse_graph(self, network):
        target = 5
        backward = backward_hop_distances(network, target)
        for source, hops in list(backward.items())[:20]:
            assert network.hop_distance(source, target) == hops

    def test_max_hops_limits_frontier(self, network):
        limited = forward_hop_distances(network, 0, max_hops=1)
        assert all(h <= 1 for h in limited.values())
        assert set(limited) == {0} | set(network.successors(0))

    def test_invalid_source_raises(self, network):
        with pytest.raises(ValueError):
            forward_hop_distances(network, -1)


class TestGapCandidates:
    def test_candidates_connect_prev_and_next(self, network):
        # pick an observed pair two hops apart and check the middle segment is a candidate
        start = 0
        middle = network.successors(start)[0]
        end = network.successors(middle)[0]
        candidates = gap_candidates(network, start, end, gap_length=1)
        assert middle in candidates

    def test_previous_segment_excluded(self, network):
        start = 0
        end = network.successors(network.successors(start)[0])[0]
        candidates = gap_candidates(network, start, end, gap_length=1)
        assert start not in candidates

    def test_open_ended_gap_uses_forward_reachability(self, network):
        candidates = gap_candidates(network, 0, None, gap_length=2, slack=0)
        forward = forward_hop_distances(network, 0, max_hops=2)
        assert candidates == {s for s, h in forward.items() if 1 <= h <= 2}

    def test_invalid_gap_length_raises(self, network):
        with pytest.raises(ValueError):
            gap_candidates(network, 0, 1, gap_length=0)

    @given(seed=st.integers(min_value=0, max_value=5_000))
    @settings(max_examples=20, deadline=None)
    def test_candidates_reachable_within_budget(self, network, seed):
        rng = np.random.default_rng(seed)
        previous = int(rng.integers(0, network.num_segments))
        nxt = int(rng.integers(0, network.num_segments))
        gap = int(rng.integers(1, 4))
        slack = 2
        candidates = gap_candidates(network, previous, nxt, gap_length=gap, slack=slack)
        budget = gap + slack
        for candidate in candidates:
            assert 1 <= network.hop_distance(previous, candidate) <= budget
            assert network.hop_distance(candidate, nxt) <= budget


class TestConstrainedRecoveryChoice:
    def test_picks_best_candidate(self):
        scores = np.array([0.1, 5.0, 2.0, 3.0])
        assert constrained_recovery_choice(scores, {2, 3}) == 3

    def test_empty_candidates_fall_back_to_argmax(self):
        scores = np.array([0.1, 5.0, 2.0])
        assert constrained_recovery_choice(scores, set()) == 1

    def test_out_of_range_candidates_ignored(self):
        scores = np.array([0.1, 5.0, 2.0])
        assert constrained_recovery_choice(scores, {17, 2}) == 2
        # all candidates invalid -> global argmax
        assert constrained_recovery_choice(scores, {17, 23}) == 1


class TestModelIntegration:
    """The model-level wrappers honour the constraint flag."""

    def test_bigcity_constrained_next_hop_returns_successor_first(self, trained_model, tiny_dataset):
        trajectories = [t for t in tiny_dataset.test_trajectories if len(t) >= 3][:4]
        rankings = trained_model.predict_next_hop(trajectories, top_k=5)
        for trajectory, ranking in zip(trajectories, rankings):
            anchor = int(trajectory.segments[-2])
            successors = set(tiny_dataset.network.successors(anchor))
            if successors:
                assert int(ranking[0]) in successors

    def test_bigcity_unconstrained_matches_raw_argsort_shape(self, trained_model, tiny_dataset):
        trajectories = [t for t in tiny_dataset.test_trajectories if len(t) >= 3][:2]
        rankings = trained_model.predict_next_hop(trajectories, top_k=5, constrain_to_network=False)
        assert all(len(r) == 5 for r in rankings)

    def test_bigcity_constrained_recovery_stays_near_gap(self, trained_model, tiny_dataset):
        trajectory = next(t for t in tiny_dataset.test_trajectories if len(t) >= 6)
        kept = [0, len(trajectory) - 1]
        recovered = trained_model.recover_trajectories_batch([trajectory], [kept])[0]
        assert recovered.shape == (len(trajectory) - 2,)
        assert all(0 <= int(s) < tiny_dataset.num_segments for s in recovered)
