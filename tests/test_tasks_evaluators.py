"""Tests for the task evaluators (next hop, TTE, classification, similarity, recovery, traffic)."""

from __future__ import annotations

import numpy as np
import pytest

from repro.tasks.classification import TrajectoryClassificationEvaluator
from repro.tasks.next_hop import NextHopEvaluator
from repro.tasks.recovery import TrajectoryRecoveryEvaluator
from repro.tasks.similarity import SimilaritySearchEvaluator, _variant
from repro.tasks.traffic import TrafficStateEvaluator
from repro.tasks.travel_time import TravelTimeEvaluator


class TestNextHopEvaluator:
    def test_targets_are_final_segments(self, tiny_dataset):
        evaluator = NextHopEvaluator(tiny_dataset, max_samples=10, seed=0)
        for trajectory, target in zip(evaluator.trajectories, evaluator.targets):
            assert trajectory.segments[-1] == target
            assert len(trajectory) >= 3

    def test_oracle_gets_perfect_scores(self, tiny_dataset):
        evaluator = NextHopEvaluator(tiny_dataset, max_samples=10, seed=0)

        def oracle(trajectories):
            return [[t.segments[-1], 0, 1] for t in trajectories]

        result = evaluator.evaluate(oracle)
        assert result["acc"] == 1.0
        assert result["mrr@5"] == 1.0
        assert result["ndcg@5"] == pytest.approx(1.0)

    def test_random_ranker_scores_low(self, tiny_dataset, rng):
        evaluator = NextHopEvaluator(tiny_dataset, max_samples=10, seed=0)

        def random_ranker(trajectories):
            return [rng.permutation(tiny_dataset.num_segments)[:5] for _ in trajectories]

        assert evaluator.evaluate(random_ranker)["acc"] <= 0.5

    def test_wrong_result_count_rejected(self, tiny_dataset):
        evaluator = NextHopEvaluator(tiny_dataset, max_samples=5, seed=0)
        with pytest.raises(ValueError):
            evaluator.evaluate(lambda ts: [[0]])


class TestTravelTimeEvaluator:
    def test_oracle_zero_error(self, tiny_dataset):
        evaluator = TravelTimeEvaluator(tiny_dataset, max_samples=10, seed=0)
        result = evaluator.evaluate(lambda ts: np.array([t.duration for t in ts]))
        assert result["mae"] == pytest.approx(0.0)
        assert result["mape"] == pytest.approx(0.0)

    def test_constant_predictor_has_positive_error(self, tiny_dataset):
        evaluator = TravelTimeEvaluator(tiny_dataset, max_samples=10, seed=0)
        result = evaluator.evaluate(lambda ts: np.zeros(len(ts)))
        assert result["mae"] > 0

    def test_errors_reported_in_minutes(self, tiny_dataset):
        evaluator = TravelTimeEvaluator(tiny_dataset, max_samples=10, seed=0)
        result = evaluator.evaluate(lambda ts: np.array([t.duration + 60.0 for t in ts]))
        assert result["mae"] == pytest.approx(1.0)

    def test_shape_mismatch_rejected(self, tiny_dataset):
        evaluator = TravelTimeEvaluator(tiny_dataset, max_samples=5, seed=0)
        with pytest.raises(ValueError):
            evaluator.evaluate(lambda ts: np.zeros(1))


class TestClassificationEvaluator:
    def test_user_target_filters_rare_users(self, tiny_dataset):
        evaluator = TrajectoryClassificationEvaluator(tiny_dataset, target="user", min_user_trajectories=3)
        counts = {}
        for trajectory in tiny_dataset.trajectories:
            counts[trajectory.user_id] = counts.get(trajectory.user_id, 0) + 1
        assert all(counts[t.user_id] >= 3 for t in evaluator.trajectories)

    def test_oracle_user_classifier(self, tiny_dataset):
        evaluator = TrajectoryClassificationEvaluator(tiny_dataset, target="user")
        result = evaluator.evaluate(lambda ts: np.array([t.user_id for t in ts]))
        assert result["micro_f1"] == pytest.approx(1.0)
        assert result["macro_f1"] == pytest.approx(1.0)

    def test_pattern_target_reports_binary_metrics(self, tiny_dataset):
        evaluator = TrajectoryClassificationEvaluator(tiny_dataset, target="pattern")
        result = evaluator.evaluate(
            lambda ts: np.array([int(t.label) for t in ts]),
            lambda ts: np.array([[0.0, 1.0] if t.label else [1.0, 0.0] for t in ts]),
        )
        assert result["acc"] == 1.0
        assert result["auc"] == pytest.approx(1.0)

    def test_invalid_target_rejected(self, tiny_dataset):
        with pytest.raises(ValueError):
            TrajectoryClassificationEvaluator(tiny_dataset, target="vehicle")


class TestSimilarityEvaluator:
    def test_variants_are_disjoint_downsamplings(self, tiny_dataset):
        trajectory = max(tiny_dataset.trajectories, key=len)
        odd = _variant(trajectory, parity=1)
        even = _variant(trajectory, parity=0)
        assert len(odd) < len(trajectory) and len(even) < len(trajectory)
        assert odd.segments[0] == even.segments[0] == trajectory.segments[0]

    def test_oracle_embedding_gets_high_hit_rate(self, tiny_dataset):
        evaluator = SimilaritySearchEvaluator(tiny_dataset, num_queries=8, seed=0)

        def one_hot_route(trajectories):
            out = np.zeros((len(trajectories), tiny_dataset.num_segments))
            for row, trajectory in enumerate(trajectories):
                out[row, trajectory.segments] = 1.0
            return out

        result = evaluator.evaluate(embed_fn=one_hot_route)
        assert result["hr@5"] >= 0.75
        assert result["mean_rank"] < 5

    def test_distance_function_mode(self, tiny_dataset):
        evaluator = SimilaritySearchEvaluator(tiny_dataset, num_queries=6, seed=0)

        def overlap_distance(a, b):
            return -len(set(a.segments) & set(b.segments))

        result = evaluator.evaluate(distance_fn=overlap_distance)
        assert 0.0 <= result["hr@1"] <= 1.0
        assert result["search_time_s"] >= 0

    def test_exactly_one_method_required(self, tiny_dataset):
        evaluator = SimilaritySearchEvaluator(tiny_dataset, num_queries=4, seed=0)
        with pytest.raises(ValueError):
            evaluator.evaluate()
        with pytest.raises(ValueError):
            evaluator.evaluate(embed_fn=lambda ts: np.zeros((len(ts), 2)), distance_fn=lambda a, b: 0.0)

    def test_extra_database_grows_search_space(self, tiny_dataset):
        base = SimilaritySearchEvaluator(tiny_dataset, num_queries=4, seed=0)
        extended = SimilaritySearchEvaluator(
            tiny_dataset, num_queries=4, seed=0, extra_database=tiny_dataset.trajectories[:10]
        )
        assert extended.database_size > base.database_size


class TestRecoveryEvaluator:
    def test_cases_have_consistent_masks(self, tiny_dataset):
        evaluator = TrajectoryRecoveryEvaluator(tiny_dataset, mask_ratio=0.85, max_samples=10, seed=0)
        for trajectory, kept, missing in evaluator.cases:
            assert set(kept) | set(missing) == set(range(len(trajectory)))
            assert not set(kept) & set(missing)

    def test_oracle_recovery_is_perfect(self, tiny_dataset):
        evaluator = TrajectoryRecoveryEvaluator(tiny_dataset, mask_ratio=0.85, max_samples=10, seed=0)

        def oracle(trajectories, kept_lists):
            return [
                np.array([t.segments[i] for i in np.setdiff1d(np.arange(len(t)), kept)])
                for t, kept in zip(trajectories, kept_lists)
            ]

        result = evaluator.evaluate(oracle)
        assert result["accuracy"] == 1.0
        assert result["macro_f1"] == pytest.approx(1.0)

    def test_wrong_output_length_rejected(self, tiny_dataset):
        evaluator = TrajectoryRecoveryEvaluator(tiny_dataset, mask_ratio=0.85, max_samples=5, seed=0)
        with pytest.raises(ValueError):
            evaluator.evaluate(lambda trajectories, kept_lists: [np.array([0]) for _ in trajectories])

    def test_higher_mask_ratio_masks_more(self, tiny_dataset):
        low = TrajectoryRecoveryEvaluator(tiny_dataset, mask_ratio=0.5, max_samples=10, seed=0)
        high = TrajectoryRecoveryEvaluator(tiny_dataset, mask_ratio=0.9, max_samples=10, seed=0)
        low_masked = np.mean([len(missing) / len(t) for t, _, missing in low.cases])
        high_masked = np.mean([len(missing) / len(t) for t, _, missing in high.cases])
        assert high_masked > low_masked

    def test_invalid_mask_ratio(self, tiny_dataset):
        with pytest.raises(ValueError):
            TrajectoryRecoveryEvaluator(tiny_dataset, mask_ratio=1.5)


class TestTrafficEvaluator:
    def test_requires_traffic_states(self, tiny_dataset_no_traffic):
        with pytest.raises(ValueError):
            TrafficStateEvaluator(tiny_dataset_no_traffic)

    def test_oracle_prediction_zero_error(self, tiny_dataset):
        evaluator = TrafficStateEvaluator(tiny_dataset, history=4, horizon=3, max_windows=10, seed=0)
        values = tiny_dataset.traffic_states.values

        def oracle(cases):
            return [values[segment, start + history : start + history + horizon] for segment, start, history, horizon in cases]

        result = evaluator.evaluate_prediction(oracle)
        assert result["mae"] == pytest.approx(0.0)

    def test_persistence_baseline_has_finite_error(self, tiny_dataset):
        evaluator = TrafficStateEvaluator(tiny_dataset, history=4, horizon=3, max_windows=10, seed=0)
        values = tiny_dataset.traffic_states.values

        def persistence(cases):
            return [np.tile(values[segment, start + history - 1], (horizon, 1)) for segment, start, history, horizon in cases]

        result = evaluator.evaluate_prediction(persistence)
        assert np.isfinite(result["mae"]) and result["mae"] >= 0

    def test_windows_in_test_region(self, tiny_dataset):
        evaluator = TrafficStateEvaluator(tiny_dataset, history=4, horizon=2, max_windows=20, train_fraction=0.7, seed=0)
        total = tiny_dataset.traffic_states.num_slices
        for window in evaluator.windows:
            assert window.history_slices[0] >= int((total - 4 - 2 + 1) * 0.7)

    def test_oracle_imputation_zero_error(self, tiny_dataset):
        evaluator = TrafficStateEvaluator(tiny_dataset, history=4, horizon=2, max_windows=10, seed=0)
        values = tiny_dataset.traffic_states.values

        def oracle(cases, override):
            return [values[segment, start + np.asarray(masked)] for segment, start, _, masked in cases]

        result = evaluator.evaluate_imputation(oracle, max_cases=5)
        assert result["mae"] == pytest.approx(0.0)

    def test_every_imputation_method_sees_the_same_cases(self, tiny_dataset):
        evaluator = TrafficStateEvaluator(tiny_dataset, history=4, horizon=2, max_windows=10, seed=0)
        seen = []

        def recorder(cases, override):
            seen.append((cases, override))
            return [np.zeros((len(masked), 3)) for _, _, _, masked in cases]

        evaluator.evaluate_imputation(recorder, max_cases=6)
        evaluator.evaluate_imputation(lambda cases, override: recorder(cases, override), max_cases=6)
        (first, first_override), (second, second_override) = seen
        assert len(first) == len(second) == 6
        for a, b in zip(first, second):
            assert a[:3] == b[:3]
            np.testing.assert_array_equal(a[3], b[3])
        np.testing.assert_array_equal(first_override, second_override)

    def test_masked_override_hides_values(self, tiny_dataset):
        evaluator = TrafficStateEvaluator(tiny_dataset, history=4, horizon=2, max_windows=10, seed=0)
        cases = evaluator.imputation_cases(mask_ratio=0.25, sequence_length=8, max_cases=4)
        override = evaluator.masked_traffic_values(cases)
        segment, start, _, masked = cases[0]
        original = tiny_dataset.traffic_states.values[segment, start + masked[0]]
        assert not np.allclose(override[segment, start + masked[0]], original)

    def test_horizon_larger_than_prepared_rejected(self, tiny_dataset):
        evaluator = TrafficStateEvaluator(tiny_dataset, history=4, horizon=2, max_windows=5, seed=0)
        with pytest.raises(ValueError):
            evaluator.evaluate_prediction(lambda cases: [np.zeros((2, 3)) for _ in cases], horizon=5)
