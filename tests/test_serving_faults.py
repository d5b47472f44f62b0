"""Chaos suite: every recovery path of the serving layer, deterministically.

Each test drives one fault-tolerance mechanism through the injectable
:class:`repro.serving.faults.FaultPlan` (`docs/resilience.md`):

* **deadline shedding** — expired requests are failed at dequeue time with
  :class:`DeadlineExceeded` instead of burning model time;
* **poison-batch isolation** — one poisoned request in a folded next-hop
  batch fails alone; the survivors' results are bit-identical to serial;
* **seeded retry/backoff** — transient failures are re-attempted under the
  deterministic :class:`RetryPolicy` schedule;
* **worker respawn** — a worker-loop crash outside ``run_tick`` fails its
  in-flight handles and the supervisor restarts the worker;
* **replica quarantine + reload** — consecutive failing leases retire a
  replica and reload it from the checkpoint archive; the circuit breaker
  rejects submissions when no healthy replica remains.
"""

from __future__ import annotations

import time

import numpy as np
import pytest

from repro.core.checkpoints import save_bigcity
from repro.serving import (
    AdmissionQueue,
    AdmissionTimeout,
    CircuitOpen,
    DeadlineExceeded,
    FaultPlan,
    InjectedFault,
    ModelPool,
    NextHopRequest,
    QueueClosed,
    QueueFull,
    RequestFailed,
    ResultHandle,
    RetryPolicy,
    ServiceStopped,
    ServingConfig,
    ServingService,
    TransientInjectedFault,
    call_with_retries,
    execute_request,
    is_transient,
    results_equal,
)
from repro.serving.loadgen import run_open_loop
from repro.serving.scheduler import run_tick

pytestmark = [pytest.mark.serving, pytest.mark.faults]


@pytest.fixture(scope="module")
def trajectories(tiny_dataset):
    return [t for t in tiny_dataset.test_trajectories if len(t) >= 4][:4]


@pytest.fixture(scope="module")
def checkpoint(trained_model, tiny_dataset, tmp_path_factory):
    path = tmp_path_factory.mktemp("serving_faults") / "model.npz"
    return save_bigcity(trained_model, path, dataset_name=tiny_dataset.name)


class TestDeadlineShedding:
    def test_expired_requests_shed_at_dequeue_not_executed(self, trained_model, trajectories):
        service = ServingService(ModelPool([trained_model]), ServingConfig(max_batch_size=8))
        # submit while the service is not yet running, so the deadline
        # deterministically passes before any scheduler tick sees the batch
        expired = [
            service.submit(NextHopRequest(trajectory=t, steps=2, deadline_s=0.005))
            for t in trajectories[:2]
        ]
        alive = service.submit(NextHopRequest(trajectory=trajectories[2], steps=2))
        time.sleep(0.05)
        service.start()
        try:
            # the deadline-less request is served normally...
            served = np.asarray(alive.result(timeout=10.0))
            # ...while every expired one is shed with the typed error
            for handle in expired:
                with pytest.raises(DeadlineExceeded):
                    handle.result(timeout=10.0)
        finally:
            service.stop()
        expected = trained_model.rollout_next_hops_batch([trajectories[2]], steps=2)[0]
        np.testing.assert_array_equal(served, expected)
        summary = service.metrics.summary()
        assert summary["shed"] == 2.0
        assert summary["failed"] == 0.0  # shedding is not an execution failure

    def test_deadline_must_be_positive(self, trajectories):
        with pytest.raises(ValueError):
            NextHopRequest(trajectory=trajectories[0], deadline_s=0.0)


class TestPoisonBatchIsolation:
    def test_survivors_bit_identical_to_serial(self, trained_model, trajectories):
        plan = FaultPlan().fail_request("poison")
        handles = [
            ResultHandle(
                request=NextHopRequest(trajectory=t, steps=2, tag="poison" if i == 1 else None)
            )
            for i, t in enumerate(trajectories)
        ]
        tick = run_tick(trained_model, handles, faults=plan)

        # the poisoned batch call was isolated: only the poison fails
        assert tick.failed == 1
        assert tick.isolated == 3
        assert tick.batched_requests == 0  # the fold itself did not complete
        with pytest.raises(RequestFailed):
            handles[1].result(timeout=1.0)
        for i, handle in enumerate(handles):
            if i == 1:
                continue
            serial = trained_model.rollout_next_hops_batch([trajectories[i]], steps=2)[0]
            np.testing.assert_array_equal(np.asarray(handle.result(timeout=1.0)), serial)
        assert "error:poison" in plan.fired

    def test_end_to_end_through_service(self, trained_model, trajectories):
        plan = FaultPlan().fail_request("poison")
        service = ServingService(
            ModelPool([trained_model]), ServingConfig(max_batch_size=4), faults=plan
        )
        handles = [
            service.submit(NextHopRequest(trajectory=t, steps=2, tag="poison" if i == 0 else None))
            for i, t in enumerate(trajectories)
        ]
        service.start()
        try:
            with pytest.raises(RequestFailed):
                handles[0].result(timeout=10.0)
            for handle, trajectory in zip(handles[1:], trajectories[1:]):
                serial = trained_model.rollout_next_hops_batch([trajectory], steps=2)[0]
                np.testing.assert_array_equal(np.asarray(handle.result(timeout=10.0)), serial)
        finally:
            service.stop()
        summary = service.metrics.summary()
        assert summary["failed"] == 1.0
        assert summary["isolated"] == 3.0

    def test_clean_batch_still_folds_with_fault_layer_installed(self, trained_model, trajectories):
        """An empty FaultPlan must not change the folding fast path."""
        plan = FaultPlan()
        handles = [ResultHandle(request=NextHopRequest(trajectory=t, steps=2)) for t in trajectories]
        tick = run_tick(trained_model, handles, faults=plan)
        assert tick.model_calls == 1
        assert tick.batched_requests == 4
        assert tick.failed == 0 and tick.isolated == 0 and tick.retried == 0
        assert plan.fired == []


class TestRetryPolicy:
    def test_schedule_is_deterministic_and_exponential(self):
        first = RetryPolicy(max_attempts=5, backoff_base_s=0.01, seed=11).delays()
        second = RetryPolicy(max_attempts=5, backoff_base_s=0.01, seed=11).delays()
        other_seed = RetryPolicy(max_attempts=5, backoff_base_s=0.01, seed=12).delays()
        assert first == second
        assert first != other_seed
        assert len(first) == 4
        # exponential growth dominates the 10% jitter band
        assert all(later > earlier for earlier, later in zip(first, first[1:]))
        for attempt, delay in enumerate(first):
            base = 0.01 * 2.0**attempt
            assert base <= delay <= base * 1.1

    def test_transient_classification(self):
        assert is_transient(TransientInjectedFault("x"))
        assert not is_transient(InjectedFault("x"))
        assert not is_transient(ValueError("x"))

    def test_non_transient_error_is_not_retried(self):
        calls = []

        def always_bad():
            calls.append(1)
            raise InjectedFault("permanent")

        with pytest.raises(InjectedFault):
            call_with_retries(always_bad, RetryPolicy(max_attempts=5, backoff_base_s=0.0))
        assert len(calls) == 1

    def test_tick_retries_transient_failures_to_success(self, trained_model, trajectories):
        plan = FaultPlan().fail_request("flaky", times=2, transient=True)
        policy = RetryPolicy(max_attempts=3, backoff_base_s=0.0)
        request = NextHopRequest(trajectory=trajectories[0], steps=2, tag="flaky")
        handle = ResultHandle(request=request)
        tick = run_tick(trained_model, [handle], retry_policy=policy, faults=plan)
        assert tick.retried == 2
        assert tick.failed == 0
        serial = trained_model.rollout_next_hops_batch([trajectories[0]], steps=2)[0]
        np.testing.assert_array_equal(np.asarray(handle.result(timeout=1.0)), serial)
        assert plan.fired == ["transient:flaky", "transient:flaky"]

    def test_tick_fails_when_attempts_exhausted(self, trained_model, trajectories):
        plan = FaultPlan().fail_request("flaky", transient=True)  # never heals
        policy = RetryPolicy(max_attempts=2, backoff_base_s=0.0)
        handle = ResultHandle(request=NextHopRequest(trajectory=trajectories[0], steps=2, tag="flaky"))
        tick = run_tick(trained_model, [handle], retry_policy=policy, faults=plan)
        assert tick.retried == 1
        assert tick.failed == 1
        with pytest.raises(RequestFailed) as excinfo:
            handle.result(timeout=1.0)
        assert isinstance(excinfo.value.__cause__, TransientInjectedFault)


class TestWorkerSupervision:
    def test_crashed_tick_fails_batch_and_respawns_worker(self, trained_model, trajectories):
        plan = FaultPlan().crash_tick(1)
        service = ServingService(
            ModelPool([trained_model]),
            ServingConfig(max_batch_size=8, max_worker_restarts=2),
            faults=plan,
        )
        doomed = [service.submit(NextHopRequest(trajectory=t, steps=2)) for t in trajectories[:3]]
        service.start()
        try:
            # the first tick crashes before leasing: every in-flight handle
            # fails instead of hanging forever
            for handle in doomed:
                with pytest.raises(RequestFailed) as excinfo:
                    handle.result(timeout=10.0)
                assert isinstance(excinfo.value.__cause__, InjectedFault)
            # the supervisor respawned the worker, so the service still serves
            survivor = service.submit(NextHopRequest(trajectory=trajectories[3], steps=2))
            serial = trained_model.rollout_next_hops_batch([trajectories[3]], steps=2)[0]
            np.testing.assert_array_equal(np.asarray(survivor.result(timeout=10.0)), serial)
        finally:
            service.stop()
        summary = service.metrics.summary()
        assert summary["respawned"] == 1.0
        assert summary["failed"] == 3.0
        assert "tick:1" in plan.fired

    def test_lease_crash_exercises_same_path(self, trained_model, trajectories):
        """A crash *inside* pool.lease() (the PR-6 silent-death bug) recovers too."""
        plan = FaultPlan().fail_lease(1)
        pool = ModelPool([trained_model], faults=plan)
        service = ServingService(pool, ServingConfig(max_batch_size=8), faults=plan)
        doomed = service.submit(NextHopRequest(trajectory=trajectories[0], steps=2))
        service.start()
        try:
            with pytest.raises(RequestFailed):
                doomed.result(timeout=10.0)
            survivor = service.submit(NextHopRequest(trajectory=trajectories[1], steps=2))
            serial = trained_model.rollout_next_hops_batch([trajectories[1]], steps=2)[0]
            np.testing.assert_array_equal(np.asarray(survivor.result(timeout=10.0)), serial)
        finally:
            service.stop()
        assert service.metrics.summary()["respawned"] == 1.0

    def test_restart_budget_bounds_respawns(self, trained_model, trajectories):
        plan = FaultPlan().crash_tick(1, 2)
        service = ServingService(
            ModelPool([trained_model]),
            ServingConfig(max_batch_size=1, max_worker_restarts=1),
            faults=plan,
        )
        first = service.submit(NextHopRequest(trajectory=trajectories[0], steps=2))
        second = service.submit(NextHopRequest(trajectory=trajectories[1], steps=2))
        service.start()
        try:
            with pytest.raises(RequestFailed):
                first.result(timeout=10.0)
            with pytest.raises(RequestFailed):
                second.result(timeout=10.0)
        finally:
            service.stop(drain=False, timeout_s=2.0)
        # two crashes, but only one respawn fit in the budget
        assert service.metrics.summary()["respawned"] == 1.0


class TestReplicaHealth:
    def test_quarantine_and_reload_from_checkpoint(self, checkpoint, tiny_dataset, trajectories, trained_model):
        plan = FaultPlan()
        pool = ModelPool.from_checkpoint(
            checkpoint, tiny_dataset, replicas=1, quarantine_after=2, faults=plan
        )
        broken = pool.acquire()
        pool.release(broken)
        plan.break_replica(broken)

        service = ServingService(pool, ServingConfig(max_batch_size=1), faults=plan)
        service.start()
        try:
            # two consecutive failing leases push the replica over the threshold
            for index in range(2):
                handle = service.submit(NextHopRequest(trajectory=trajectories[index], steps=2))
                with pytest.raises(RequestFailed):
                    handle.result(timeout=10.0)
            # the pool reloaded a fresh replica from the archive: traffic flows
            # again and the answers are bit-identical to the original model
            healed = service.submit(NextHopRequest(trajectory=trajectories[2], steps=2))
            serial = trained_model.rollout_next_hops_batch([trajectories[2]], steps=2)[0]
            np.testing.assert_array_equal(np.asarray(healed.result(timeout=10.0)), serial)
        finally:
            service.stop()
        assert pool.quarantined == 1
        assert pool.reloaded == 1
        assert pool.healthy() == 1
        assert service.metrics.summary()["quarantined"] == 1.0

    def test_circuit_breaker_rejects_without_healthy_replicas(self, trained_model, trajectories):
        plan = FaultPlan().break_replica(trained_model)
        # no reloader: quarantining the only replica leaves the pool empty
        pool = ModelPool([trained_model], quarantine_after=1, faults=plan)
        service = ServingService(pool, ServingConfig(max_batch_size=1), faults=plan)
        service.start()
        try:
            doomed = service.submit(NextHopRequest(trajectory=trajectories[0], steps=2))
            with pytest.raises(RequestFailed):
                doomed.result(timeout=10.0)
            assert pool.healthy() == 0
            with pytest.raises(CircuitOpen):
                service.submit(NextHopRequest(trajectory=trajectories[1], steps=2))
        finally:
            service.stop(drain=False, timeout_s=2.0)
        assert service.metrics.summary()["rejected"] == 1.0

    def test_success_resets_consecutive_failures(self, trained_model):
        pool = ModelPool([trained_model], quarantine_after=2)
        assert pool.report_failure(trained_model) is None
        pool.report_success(trained_model)
        assert pool.report_failure(trained_model) is None  # streak was reset
        assert pool.quarantined == 0


class TestCorruptionAndLoadgen:
    def test_corrupted_result_diverges_from_serial(self, trained_model, trajectories):
        plan = FaultPlan().corrupt_request("bad", times=1)
        request = NextHopRequest(trajectory=trajectories[0], steps=2, tag="bad")
        corrupted = execute_request(trained_model, request, faults=plan)
        clean = execute_request(trained_model, request)
        assert not results_equal(corrupted, clean)
        assert np.all(np.asarray(corrupted) == -1)

    def test_open_loop_counts_failures_instead_of_aborting(self, trained_model, trajectories):
        plan = FaultPlan().fail_request("poison")
        service = ServingService(
            ModelPool([trained_model]), ServingConfig(max_batch_size=4), faults=plan
        )
        trace = [
            NextHopRequest(trajectory=t, steps=2, tag="poison" if i == 0 else None)
            for i, t in enumerate(trajectories)
        ]
        service.start()
        try:
            results, summary = run_open_loop(service, trace, rate_hz=None, timeout_s=10.0)
        finally:
            service.stop()
        assert results[0] is None
        assert all(result is not None for result in results[1:])
        assert summary["loadgen_failed"] == 1.0
        assert summary["failure_rate"] == pytest.approx(0.25)
        for result, request in zip(results[1:], trace[1:]):
            assert results_equal(result, execute_request(trained_model, request))


class TestExistingErrorPaths:
    """Coverage for error paths that predate the fault layer."""

    def test_request_failed_preserves_cause_chain(self, trajectories):
        handle = ResultHandle(request=NextHopRequest(trajectory=trajectories[0]))
        original = ValueError("model exploded")
        handle.fail(original)
        with pytest.raises(RequestFailed) as excinfo:
            handle.result(timeout=1.0)
        assert excinfo.value.__cause__ is original

    def test_queue_full_under_reject_policy_at_service_level(self, trained_model, trajectories):
        service = ServingService(
            ModelPool([trained_model]),
            ServingConfig(max_queue_depth=2, admission_policy="reject"),
        )
        service.submit(NextHopRequest(trajectory=trajectories[0], steps=1))
        service.submit(NextHopRequest(trajectory=trajectories[1], steps=1))
        with pytest.raises(QueueFull):
            service.submit(NextHopRequest(trajectory=trajectories[2], steps=1))

    def test_admission_timeout_under_block_policy_at_service_level(self, trained_model, trajectories):
        service = ServingService(
            ModelPool([trained_model]),
            ServingConfig(max_queue_depth=1, admission_policy="block", admission_timeout_s=0.01),
        )
        service.submit(NextHopRequest(trajectory=trajectories[0], steps=1))
        with pytest.raises(AdmissionTimeout):
            service.submit(NextHopRequest(trajectory=trajectories[1], steps=1))

    def test_take_batch_after_close_returns_leftovers_then_empty(self):
        queue = AdmissionQueue(capacity=8)
        for item in range(3):
            queue.put(item)
        queue.close()
        assert queue.take_batch(2, timeout_s=0.0) == [0, 1]
        assert queue.take_batch(2, timeout_s=0.0) == [2]
        assert queue.take_batch(2, timeout_s=0.0) == []

    def test_submit_after_stop_raises_service_stopped(self, trained_model, trajectories):
        service = ServingService(ModelPool([trained_model]))
        service.start()
        service.stop()
        with pytest.raises(ServiceStopped):
            service.submit(NextHopRequest(trajectory=trajectories[0], steps=1))
        # backwards compatible: ServiceStopped IS a QueueClosed
        assert issubclass(ServiceStopped, QueueClosed)

    def test_invalid_serving_config_rejected_eagerly(self):
        with pytest.raises(ValueError):
            ServingConfig(max_queue_depth=0)
        with pytest.raises(ValueError):
            ServingConfig(idle_wait_s=0.0)
        with pytest.raises(ValueError):
            ServingConfig(admission_timeout_s=-1.0)
        with pytest.raises(ValueError):
            ServingConfig(admission_policy="drop-newest")
        with pytest.raises(ValueError):
            ServingConfig(max_worker_restarts=-1)
        with pytest.raises(ValueError):
            ServingConfig(min_healthy_replicas=-1)
