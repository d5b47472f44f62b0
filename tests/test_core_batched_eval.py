"""Batched single-pass evaluation paths and the recovery boundary fix.

The load-bearing claims of the batch entry points
(``recover_trajectories_batch`` / ``predict_traffic_states_batch`` /
``impute_traffic_states_batch``):

* batched answers equal each case's batch-of-one answer **bit-for-bit**,
  with the fused kernels (the array pass) and with the composed ones (the
  module path);
* a masked position before the first (or after the last) kept sample no
  longer crashes constrained recovery — it falls back to the open-sided
  candidate set anchored on the nearest kept neighbour;
* empty inputs return correctly-shaped empty results instead of raising
  from a bare ``np.stack``;
* an evaluator scoring one call for all cases reproduces the metrics of
  the same cases answered one batch-of-one call each, and the serving
  scheduler folds every request kind into one batch call whose results
  match serial execution.
"""

from __future__ import annotations

import contextlib

import numpy as np
import pytest

from repro.eval.perfbench import reference_kernels
from repro.serving import (
    FaultPlan,
    NextHopRequest,
    RecoveryRequest,
    RequestFailed,
    ResultHandle,
    TrafficImputationRequest,
    TrafficPredictionRequest,
    execute_request,
    results_equal,
)
from repro.serving.scheduler import run_tick
from repro.tasks.recovery import TrajectoryRecoveryEvaluator
from repro.tasks.traffic import TrafficStateEvaluator


@pytest.fixture(scope="module")
def trajectories(tiny_dataset):
    return [t for t in tiny_dataset.test_trajectories if len(t) >= 5][:4]


def _kept_lists(trajectories, rng_seed=3):
    """Deterministic per-trajectory kept indices, including masked endpoints."""
    rng = np.random.default_rng(rng_seed)
    kept_lists = []
    for trajectory in trajectories:
        keep = max(1, len(trajectory) // 3)
        kept_lists.append(np.sort(rng.choice(len(trajectory), size=keep, replace=False)))
    return kept_lists


class TestBatchedEqualsSerial:
    @pytest.mark.parametrize("fused", [True, False])
    @pytest.mark.parametrize("constrain", [True, False])
    def test_recovery_batch_matches_serial(self, trained_model, trajectories, constrain, fused):
        kept_lists = _kept_lists(trajectories)
        with contextlib.nullcontext() if fused else reference_kernels():
            serial = [
                trained_model.recover_trajectories_batch([t], [k], constrain_to_network=constrain)[0]
                for t, k in zip(trajectories, kept_lists)
            ]
            batched = trained_model.recover_trajectories_batch(
                trajectories, kept_lists, constrain_to_network=constrain
            )
        assert len(batched) == len(serial)
        for serial_row, batched_row in zip(serial, batched):
            np.testing.assert_array_equal(batched_row, serial_row)

    @pytest.mark.parametrize("fused", [True, False])
    def test_prediction_batch_matches_serial(self, trained_model, tiny_dataset, fused):
        traffic = tiny_dataset.traffic_states
        cases = [
            (i % traffic.num_segments, (2 * i) % max(traffic.num_slices - 8, 1), 4, 1 + i % 3)
            for i in range(5)
        ]
        with contextlib.nullcontext() if fused else reference_kernels():
            serial = [trained_model.predict_traffic_states_batch([case])[0] for case in cases]
            batched = trained_model.predict_traffic_states_batch(cases)
        assert len(batched) == len(serial)
        for serial_row, batched_row in zip(serial, batched):
            np.testing.assert_array_equal(batched_row, serial_row)

    @pytest.mark.parametrize("fused", [True, False])
    def test_imputation_batch_matches_serial(self, trained_model, tiny_dataset, fused):
        traffic = tiny_dataset.traffic_states
        cases = [
            (i % traffic.num_segments, (3 * i) % max(traffic.num_slices - 6, 1), 6, (0, 2 + i % 3))
            for i in range(4)
        ]
        with contextlib.nullcontext() if fused else reference_kernels():
            serial = [trained_model.impute_traffic_states_batch([case])[0] for case in cases]
            batched = trained_model.impute_traffic_states_batch(cases)
        assert len(batched) == len(serial)
        for serial_row, batched_row in zip(serial, batched):
            np.testing.assert_array_equal(batched_row, serial_row)


class TestRecoveryBoundaries:
    """Regression: masked endpoints used to crash constrained decoding with
    ``ValueError: zero-size array to reduction operation``."""

    def test_masked_first_and_last_positions_decode(self, trained_model, trajectories):
        trajectory = trajectories[0]
        # keep only interior samples: both endpoints are masked
        kept = np.arange(1, len(trajectory) - 1)
        [recovered] = trained_model.recover_trajectories_batch([trajectory], [kept], constrain_to_network=True)
        assert recovered.shape == (2,)
        assert np.all(recovered >= 0)

    def test_single_kept_index_decodes_both_open_sides(self, trained_model, trajectories):
        trajectory = trajectories[0]
        middle = len(trajectory) // 2
        [recovered] = trained_model.recover_trajectories_batch([trajectory], [[middle]], constrain_to_network=True)
        assert recovered.shape == (len(trajectory) - 1,)

    def test_last_index_only(self, trained_model, trajectories):
        trajectory = trajectories[0]
        [recovered] = trained_model.recover_trajectories_batch(
            [trajectory], [[len(trajectory) - 1]], constrain_to_network=True
        )
        assert recovered.shape == (len(trajectory) - 1,)

    def test_no_kept_indices_still_raises(self, trained_model, trajectories):
        with pytest.raises(ValueError):
            trained_model.recover_trajectories_batch([trajectories[0]], [[]])


class TestEmptyInputs:
    def test_trajectory_embeddings_empty(self, trained_model):
        embeddings = trained_model.trajectory_embeddings([])
        assert embeddings.shape == (0, trained_model.config.d_model)

    def test_classification_scores_empty(self, trained_model):
        scores = trained_model.classification_scores([], target="user")
        assert scores.ndim == 2 and scores.shape[0] == 0
        assert scores.shape[1] > 0

    def test_batch_entry_points_empty(self, trained_model):
        assert trained_model.recover_trajectories_batch([], []) == []
        assert trained_model.predict_traffic_states_batch([]) == []
        assert trained_model.impute_traffic_states_batch([]) == []

    def test_recovery_batch_length_mismatch(self, trained_model, trajectories):
        with pytest.raises(ValueError):
            trained_model.recover_trajectories_batch(trajectories, [[0]])


class TestEvaluatorOneCall:
    """One model call for all cases scores exactly what one call per case scores."""

    def test_recovery_evaluator_metrics_identical(self, trained_model, tiny_dataset):
        evaluator = TrajectoryRecoveryEvaluator(tiny_dataset, mask_ratio=0.6, max_samples=6, seed=0)
        recover = trained_model.recover_trajectories_batch
        serial = evaluator.evaluate(lambda ts, ks: [recover([t], [k])[0] for t, k in zip(ts, ks)])
        batched = evaluator.evaluate(recover)
        assert serial == batched

    def test_prediction_evaluator_metrics_identical(self, trained_model, tiny_dataset):
        evaluator = TrafficStateEvaluator(tiny_dataset, history=4, horizon=3, max_windows=8, seed=0)
        predict = trained_model.predict_traffic_states_batch
        serial = evaluator.evaluate_prediction(lambda cases: [predict([case])[0] for case in cases], horizon=2)
        batched = evaluator.evaluate_prediction(predict, horizon=2)
        assert serial == batched

    def test_imputation_evaluator_metrics_identical(self, trained_model, tiny_dataset):
        evaluator = TrafficStateEvaluator(tiny_dataset, history=4, horizon=3, max_windows=8, seed=5)
        impute = trained_model.impute_traffic_states_batch
        serial = evaluator.evaluate_imputation(
            lambda cases, override: [impute([case], override)[0] for case in cases], max_cases=6
        )
        batched = evaluator.evaluate_imputation(impute, max_cases=6)
        assert serial == batched


class TestSchedulerFoldsAllKinds:
    def _requests_by_kind(self, tiny_dataset, trajectories):
        traffic = tiny_dataset.traffic_states
        return {
            "recovery": [
                RecoveryRequest(trajectory=t, kept_indices=tuple(int(i) for i in k))
                for t, k in zip(trajectories, _kept_lists(trajectories))
            ],
            "traffic_prediction": [
                TrafficPredictionRequest(
                    segment_id=i % traffic.num_segments,
                    start_slice=(2 * i) % max(traffic.num_slices - 8, 1),
                    history=4,
                    horizon=1 + i % 3,
                )
                for i in range(4)
            ],
            "traffic_imputation": [
                TrafficImputationRequest(
                    segment_id=i % traffic.num_segments,
                    start_slice=(3 * i) % max(traffic.num_slices - 6, 1),
                    num_slices=6,
                    masked_positions=(0, 2 + i % 3),
                )
                for i in range(4)
            ],
        }

    @pytest.mark.parametrize("kind", ["recovery", "traffic_prediction", "traffic_imputation"])
    def test_tick_folds_each_kind_into_one_model_call(self, trained_model, tiny_dataset, trajectories, kind):
        requests = self._requests_by_kind(tiny_dataset, trajectories)[kind]
        serial = [execute_request(trained_model, request) for request in requests]
        handles = [ResultHandle(request=request) for request in requests]
        tick = run_tick(trained_model, handles)
        assert tick.model_calls == 1, tick
        assert tick.batched_requests == len(requests)
        assert tick.failed == 0
        for handle, expected in zip(handles, serial):
            assert results_equal(handle.result(timeout=1.0), expected)

    def test_mixed_tick_folds_every_group(self, trained_model, tiny_dataset, trajectories):
        by_kind = self._requests_by_kind(tiny_dataset, trajectories)
        requests = [request for group in by_kind.values() for request in group]
        requests += [NextHopRequest(trajectory=t, steps=2) for t in trajectories[:2]]
        serial = [execute_request(trained_model, request) for request in requests]
        handles = [ResultHandle(request=request) for request in requests]
        tick = run_tick(trained_model, handles)
        # one folded call per batch_key group: recovery, prediction,
        # imputation, next-hop
        assert tick.model_calls == 4, tick
        assert tick.batched_requests == len(requests)
        for handle, expected in zip(handles, serial):
            assert results_equal(handle.result(timeout=1.0), expected)

    def test_poisoned_recovery_fold_is_isolated(self, trained_model, trajectories):
        plan = FaultPlan().fail_request("poison")
        kept_lists = _kept_lists(trajectories)
        handles = [
            ResultHandle(
                request=RecoveryRequest(
                    trajectory=t,
                    kept_indices=tuple(int(i) for i in k),
                    tag="poison" if index == 1 else None,
                )
            )
            for index, (t, k) in enumerate(zip(trajectories, kept_lists))
        ]
        tick = run_tick(trained_model, handles, faults=plan)
        assert tick.failed == 1
        assert tick.isolated == len(handles) - 1
        assert tick.batched_requests == 0  # the fold itself did not complete
        with pytest.raises(RequestFailed):
            handles[1].result(timeout=1.0)
        for index, handle in enumerate(handles):
            if index == 1:
                continue
            expected = trained_model.recover_trajectories_batch([trajectories[index]], [kept_lists[index]])[0]
            np.testing.assert_array_equal(np.asarray(handle.result(timeout=1.0)), expected)
