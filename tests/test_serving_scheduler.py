"""Serving equality and scheduler behaviour (`repro.serving`).

The load-bearing claim of the serving layer: for a fixed request trace,
continuous-batched execution returns **bit-for-bit** what serial
per-request execution returns, while actually folding compatible requests
into shared batches.
"""

from __future__ import annotations

from dataclasses import replace

import numpy as np
import pytest

from repro.data.datasets import load_dataset
from repro.serving import (
    AdmissionQueue,
    AdmissionTimeout,
    InvalidRequest,
    LoadGenConfig,
    ModelPool,
    NextHopRequest,
    QueueClosed,
    QueueFull,
    RecoveryRequest,
    ResultHandle,
    ServingConfig,
    ServingService,
    TrafficImputationRequest,
    TrafficPredictionRequest,
    build_request_trace,
    execute_request,
    results_equal,
    run_serial_trace,
)
from repro.serving.requests import validate_request
from repro.serving.scheduler import run_tick

pytestmark = pytest.mark.serving


@pytest.fixture(scope="module")
def trace(tiny_dataset):
    """A fixed mixed-task request trace (next-hop heavy, all four kinds)."""
    return build_request_trace(tiny_dataset, LoadGenConfig(num_requests=20, seed=7, steps=2))


class TestServingEquality:
    def test_batched_results_equal_serial_bit_for_bit(self, trained_model, trace):
        serial = run_serial_trace(trained_model, trace)

        service = ServingService(ModelPool([trained_model]), ServingConfig(max_batch_size=6))
        service.start()
        try:
            # submit the whole trace as a backlog so batches actually fold
            handles = [service.submit(request) for request in trace]
            batched = [handle.result(timeout=30.0) for handle in handles]
        finally:
            service.stop()

        assert len(batched) == len(serial)
        for index, (serial_result, batched_result) in enumerate(zip(serial, batched)):
            assert results_equal(serial_result, batched_result), (index, trace[index])
        # the scheduler must have folded requests into real batches, not
        # degenerated into serial batch-of-one ticks
        summary = service.metrics.summary()
        assert summary["batch_occupancy_max"] > 1.0, summary
        assert summary["requests"] == float(len(trace))

    def test_tick_folds_compatible_next_hops_into_one_model_call(self, trained_model, tiny_dataset):
        trajectories = [t for t in tiny_dataset.test_trajectories if len(t) >= 4][:4]
        handles = [
            ResultHandle(request=NextHopRequest(trajectory=t, steps=2)) for t in trajectories
        ]
        tick = run_tick(trained_model, handles)
        assert tick.batch_size == 4
        assert tick.batched_requests == 4
        assert tick.model_calls == 1  # ONE rollout_next_hops_batch call
        for handle, trajectory in zip(handles, trajectories):
            expected = trained_model.rollout_next_hops_batch([trajectory], steps=2)[0]
            np.testing.assert_array_equal(np.asarray(handle.result(timeout=1.0)), expected)

    def test_mixed_tick_answers_every_handle(self, trained_model, trace):
        handles = [ResultHandle(request=request) for request in trace[:8]]
        tick = run_tick(trained_model, handles)
        assert all(handle.done() for handle in handles)
        assert tick.batch_size == 8
        for handle in handles:
            expected = execute_request(trained_model, handle.request)
            assert results_equal(handle.result(timeout=1.0), expected)

    def test_failed_request_is_reported_not_wedged(self, trained_model, tiny_dataset):
        good = [t for t in tiny_dataset.test_trajectories if len(t) >= 4][0]
        handles = [
            ResultHandle(request=NextHopRequest(trajectory=good, steps=2)),
            # recovery with no kept indices at all raises inside the model;
            # the error must land on this handle only.
            ResultHandle(request=RecoveryRequest(trajectory=good, kept_indices=())),
        ]
        run_tick(trained_model, handles)
        assert all(handle.done() for handle in handles)
        np.testing.assert_array_equal(
            np.asarray(handles[0].result(timeout=1.0)),
            trained_model.rollout_next_hops_batch([good], steps=2)[0],
        )
        with pytest.raises(Exception):
            handles[1].result(timeout=1.0)


class TestAdmissionQueue:
    def test_reject_policy_raises_at_capacity(self):
        queue = AdmissionQueue(capacity=2, policy="reject")
        queue.put("a")
        queue.put("b")
        with pytest.raises(QueueFull):
            queue.put("c")
        assert queue.depth() == 2

    def test_block_policy_times_out(self):
        queue = AdmissionQueue(capacity=1, policy="block")
        queue.put("a")
        with pytest.raises(AdmissionTimeout):
            queue.put("b", timeout_s=0.01)

    def test_take_batch_fifo_and_bounded(self):
        queue = AdmissionQueue(capacity=8)
        for item in range(5):
            queue.put(item)
        assert queue.take_batch(3, timeout_s=0.0) == [0, 1, 2]
        assert queue.take_batch(3, timeout_s=0.0) == [3, 4]
        assert queue.take_batch(3, timeout_s=0.0) == []

    def test_put_after_close_raises(self):
        queue = AdmissionQueue(capacity=2)
        queue.close()
        with pytest.raises(QueueClosed):
            queue.put("a")

    def test_invalid_configuration_rejected(self):
        with pytest.raises(ValueError):
            AdmissionQueue(capacity=0)
        with pytest.raises(ValueError):
            AdmissionQueue(policy="drop-newest")


class TestServiceLifecycle:
    def test_handle_times_out_before_completion(self, trace):
        handle = ResultHandle(request=trace[0])
        with pytest.raises(TimeoutError):
            handle.result(timeout=0.01)
        assert not handle.done()

    def test_submit_after_stop_is_rejected(self, trained_model, trace):
        service = ServingService(ModelPool([trained_model]))
        service.start()
        service.stop()
        with pytest.raises(QueueClosed):
            service.submit(trace[0])

    def test_context_manager_serves_and_drains(self, trained_model, trace):
        with ServingService(ModelPool([trained_model]), ServingConfig(max_batch_size=4)) as service:
            handles = [service.submit(request) for request in trace[:6]]
        # stop() drains: every handle completed even though we never waited
        assert all(handle.done() for handle in handles)
        for handle, request in zip(handles, trace[:6]):
            assert results_equal(handle.result(timeout=0.0), execute_request(trained_model, request))

    def test_double_start_rejected(self, trained_model):
        service = ServingService(ModelPool([trained_model]))
        service.start()
        try:
            with pytest.raises(RuntimeError):
                service.start()
        finally:
            service.stop()


class TestSubmitValidation:
    """Requests outside the served network, time axis or trajectory fail at submit()."""

    @staticmethod
    def _invalid(num_segments, num_slices):
        return [
            TrafficPredictionRequest(segment_id=-1, start_slice=0, history=4),
            TrafficPredictionRequest(segment_id=num_segments, start_slice=0, history=4),
            TrafficPredictionRequest(segment_id=0, start_slice=-1, history=4),
            TrafficPredictionRequest(segment_id=0, start_slice=num_slices - 3, history=4),
            TrafficPredictionRequest(segment_id=0, start_slice=0, history=0),
            TrafficPredictionRequest(segment_id=0, start_slice=0, history=4, horizon=0),
            TrafficImputationRequest(segment_id=-1, start_slice=0, num_slices=6, masked_positions=(1,)),
            TrafficImputationRequest(segment_id=0, start_slice=num_slices - 5, num_slices=6, masked_positions=(1,)),
            TrafficImputationRequest(segment_id=0, start_slice=0, num_slices=6, masked_positions=(-1,)),
            TrafficImputationRequest(segment_id=0, start_slice=0, num_slices=6, masked_positions=(6,)),
            TrafficImputationRequest(segment_id=0, start_slice=0, num_slices=6, masked_positions=()),
            TrafficImputationRequest(segment_id=0, start_slice=0, num_slices=0, masked_positions=(0,)),
        ]

    def test_out_of_range_requests_raise_before_queueing(self, trained_model, tiny_dataset):
        service = ServingService(ModelPool([trained_model]))
        num_segments, num_slices = tiny_dataset.network.num_segments, tiny_dataset.time_axis.num_slices
        for request in self._invalid(num_segments, num_slices):
            with pytest.raises(InvalidRequest):
                service.submit(request)
        assert service.queue.depth() == 0

    @staticmethod
    def _invalid_trajectory_request(case, trajectory, num_segments):
        def with_segment(position, segment):
            segments = list(trajectory.segments)
            segments[position] = segment
            return replace(trajectory, segments=segments)

        last = len(trajectory) - 1
        return {
            # NumPy wraps -1 to the last segment: this one used to be answered.
            "next_hop_negative_segment_inside": NextHopRequest(with_segment(1, -1), steps=2),
            "next_hop_negative_last_segment": NextHopRequest(with_segment(last, -1), steps=2),
            "next_hop_unknown_segment": NextHopRequest(with_segment(0, num_segments), steps=2),
            "next_hop_zero_steps": NextHopRequest(trajectory, steps=0),
            "recovery_unknown_segment": RecoveryRequest(with_segment(1, num_segments), kept_indices=(0, last)),
            "recovery_negative_segment": RecoveryRequest(with_segment(1, -1), kept_indices=(0, last)),
            "recovery_kept_past_the_end": RecoveryRequest(trajectory, kept_indices=(0, last + 1)),
            "recovery_negative_kept": RecoveryRequest(trajectory, kept_indices=(-1, 0)),
            "recovery_no_kept": RecoveryRequest(trajectory, kept_indices=()),
        }[case]

    @pytest.mark.parametrize(
        "case",
        [
            "next_hop_negative_segment_inside",
            "next_hop_negative_last_segment",
            "next_hop_unknown_segment",
            "next_hop_zero_steps",
            "recovery_unknown_segment",
            "recovery_negative_segment",
            "recovery_kept_past_the_end",
            "recovery_negative_kept",
            "recovery_no_kept",
        ],
    )
    def test_invalid_trajectory_requests_raise_before_queueing(self, trained_model, tiny_dataset, case):
        trajectory = next(t for t in tiny_dataset.test_trajectories if len(t) >= 4)
        request = self._invalid_trajectory_request(case, trajectory, tiny_dataset.network.num_segments)
        service = ServingService(ModelPool([trained_model]))
        with pytest.raises(InvalidRequest):
            service.submit(request)
        assert service.queue.depth() == 0

    @pytest.mark.parametrize("request_object", [{"kind": "next_hop"}, "next_hop", None])
    def test_unknown_request_types_raise_before_queueing(self, trained_model, request_object):
        service = ServingService(ModelPool([trained_model]))
        with pytest.raises(InvalidRequest, match=type(request_object).__name__):
            service.submit(request_object)
        assert service.queue.depth() == 0

    def test_boundary_trajectory_requests_are_served(self, trained_model, tiny_dataset):
        trajectory = next(t for t in tiny_dataset.test_trajectories if len(t) >= 4)
        last_segment = tiny_dataset.network.num_segments - 1
        at_the_edge = replace(trajectory, segments=[last_segment] + list(trajectory.segments[1:]))
        requests = [
            NextHopRequest(trajectory, steps=1),
            NextHopRequest(at_the_edge, steps=2),
            RecoveryRequest(trajectory, kept_indices=(0,)),
            RecoveryRequest(trajectory, kept_indices=tuple(range(len(trajectory)))),
            RecoveryRequest(at_the_edge, kept_indices=(0, len(trajectory) - 1)),
        ]
        with ServingService(ModelPool([trained_model]), ServingConfig(max_batch_size=4)) as service:
            handles = [service.submit(request) for request in requests]
        for handle, request in zip(handles, requests):
            assert results_equal(handle.result(timeout=0.0), execute_request(trained_model, request))

    def test_boundary_requests_are_served(self, trained_model, tiny_dataset):
        num_segments, num_slices = tiny_dataset.network.num_segments, tiny_dataset.time_axis.num_slices
        requests = [
            TrafficPredictionRequest(segment_id=num_segments - 1, start_slice=num_slices - 4, history=4, horizon=3),
            TrafficPredictionRequest(segment_id=0, start_slice=0, history=1),
            TrafficImputationRequest(
                segment_id=num_segments - 1, start_slice=num_slices - 6, num_slices=6, masked_positions=(0, 5)
            ),
        ]
        with ServingService(ModelPool([trained_model]), ServingConfig(max_batch_size=4)) as service:
            handles = [service.submit(request) for request in requests]
        for handle, request in zip(handles, requests):
            assert results_equal(handle.result(timeout=0.0), execute_request(trained_model, request))

    @pytest.mark.parametrize(
        "config",
        [
            LoadGenConfig(num_requests=400, seed=0),
            LoadGenConfig(
                num_requests=400,
                seed=1,
                mix=(("traffic_prediction", 0.1), ("traffic_imputation", 0.1)),
                steps=3,
                history=12,
                horizon=3,
            ),
        ],
    )
    def test_every_generated_xa_like_request_passes(self, config):
        dataset = load_dataset("xa_like")
        bounds = (dataset.network.num_segments, dataset.time_axis.num_slices)
        trace = build_request_trace(dataset, config)
        kinds = {request.kind for request in trace}
        assert kinds & {"traffic_prediction", "traffic_imputation"}
        if config.mix == LoadGenConfig().mix:
            assert {"next_hop", "recovery"} <= kinds
        for request in trace:
            validate_request(request, *bounds)
