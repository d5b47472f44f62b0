"""Deterministic fault injection for the serving layer.

A serving stack you cannot break on purpose is one you cannot trust under
load, so every recovery path in :mod:`repro.serving` is driven by an
injectable :class:`FaultPlan` rather than by hoping real failures show up
in CI.  The plan is threaded through the stack behind a no-op default
(``faults=None`` everywhere, so the production path pays nothing):

* :func:`~repro.serving.scheduler.run_tick` calls
  :meth:`FaultPlan.on_model` (broken-replica faults) and then
  :meth:`FaultPlan.on_batch` (each member's :meth:`FaultPlan.on_execute`:
  raise) before every group's model call, a group of one included,
  and :meth:`FaultPlan.transform_result` (corruption) on each answer; a
  poisoned member fails its whole group, which exercises isolation;
* :func:`~repro.serving.execution.execute_request`, the serial oracle,
  calls :meth:`FaultPlan.on_execute` before its model call and
  :meth:`FaultPlan.transform_result` after it;
* :meth:`~repro.serving.pool.ModelPool.acquire` calls
  :meth:`FaultPlan.on_lease` (a crash *outside* ``run_tick``, exercising
  the worker supervisor) and the service worker calls
  :meth:`FaultPlan.on_tick_start` once per drained batch.

Faults target requests by their ``tag`` field (set
``NextHopRequest(..., tag="poison")`` when building a chaos trace),
replicas by object identity, and ticks/leases by 1-based counter.  Every
trigger is recorded in :attr:`FaultPlan.fired` so tests can assert the
plan actually exercised the path under test.  The plan is deterministic:
which faults fire depends only on the plan's configuration and the order
of hook calls.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence

import numpy as np

from repro.serving.resilience import TransientError

__all__ = ["FaultPlan", "InjectedFault", "TransientInjectedFault"]


class InjectedFault(RuntimeError):
    """A failure raised on purpose by a :class:`FaultPlan` (not retryable)."""


class TransientInjectedFault(InjectedFault, TransientError):
    """An injected failure classified transient (the retry path's fuel)."""

    transient = True


@dataclass
class _Rule:
    """One configured fault: what happens and how many times it may fire."""

    kind: str  # "error" | "corrupt"
    remaining: Optional[int] = None  # None = fires every time
    transient: bool = False

    def take(self) -> bool:
        """Consume one firing; False when the rule is exhausted."""
        if self.remaining is None:
            return True
        if self.remaining <= 0:
            return False
        self.remaining -= 1
        return True


class FaultPlan:
    """A reproducible plan of which requests, replicas, leases and ticks fail.

    All hooks are thread-safe (workers call them concurrently) and no-ops
    when nothing matches, so an empty plan behaves exactly like
    ``faults=None``.
    """

    def __init__(self) -> None:
        self._lock = threading.RLock()
        self._request_rules: Dict[str, List[_Rule]] = {}
        self._broken_model_ids: set = set()
        self._lease_faults: set = set()
        self._tick_faults: set = set()
        self._lease_count = 0
        self._tick_count = 0
        #: audit log of every fault that actually fired, in firing order.
        self.fired: List[str] = []

    # -- configuration (chainable) --------------------------------------
    def fail_request(self, tag: str, times: Optional[int] = None, transient: bool = False) -> "FaultPlan":
        """Requests tagged ``tag`` raise (``times`` firings; None = always)."""
        rule = _Rule(kind="error", remaining=times, transient=transient)
        with self._lock:
            self._request_rules.setdefault(tag, []).append(rule)
        return self

    def corrupt_request(self, tag: str, times: Optional[int] = None) -> "FaultPlan":
        """Requests tagged ``tag`` return a corrupted result (all-``-1``)."""
        rule = _Rule(kind="corrupt", remaining=times)
        with self._lock:
            self._request_rules.setdefault(tag, []).append(rule)
        return self

    def break_replica(self, model: object) -> "FaultPlan":
        """Every model call on ``model`` raises until the replica is replaced.

        Targeting is by object identity, so a pool reload (a *fresh* model
        object from the checkpoint) heals the fault naturally — exactly how
        a corrupted-then-reloaded replica behaves.
        """
        with self._lock:
            self._broken_model_ids.add(id(model))
        return self

    def fail_lease(self, *lease_numbers: int) -> "FaultPlan":
        """The n-th :meth:`ModelPool.acquire` calls raise (1-based, global)."""
        with self._lock:
            self._lease_faults.update(int(n) for n in lease_numbers)
        return self

    def crash_tick(self, *tick_numbers: int) -> "FaultPlan":
        """The n-th scheduler ticks crash before leasing a replica (1-based).

        This fires in the worker loop *outside* ``run_tick``'s per-group
        error handling — the path the worker supervisor exists for.
        """
        with self._lock:
            self._tick_faults.update(int(n) for n in tick_numbers)
        return self

    # -- hooks (called by the serving stack) ----------------------------
    def _match(self, request: object, kinds: Sequence[str]) -> Optional[_Rule]:
        tag = getattr(request, "tag", None)
        if tag is None:
            return None
        with self._lock:
            for rule in self._request_rules.get(tag, ()):
                if rule.kind in kinds and rule.take():
                    return rule
        return None

    def on_execute(self, request: object) -> None:
        """Raise for one request's execution."""
        rule = self._match(request, ("error",))
        if rule is not None:
            tag = getattr(request, "tag", None)
            with self._lock:
                self.fired.append(f"{'transient' if rule.transient else 'error'}:{tag}")
            if rule.transient:
                raise TransientInjectedFault(f"injected transient fault on request tagged {tag!r}")
            raise InjectedFault(f"injected fault on request tagged {tag!r}")

    def transform_result(self, request: object, result: object) -> object:
        """Corrupt the result of a matching request (all elements become -1)."""
        rule = self._match(request, ("corrupt",))
        if rule is None:
            return result
        with self._lock:
            self.fired.append(f"corrupt:{getattr(request, 'tag', None)}")
        corrupted = np.asarray(result)
        if corrupted.dtype.kind in "iuf":
            return corrupted * 0 - 1
        return "CORRUPTED"

    def on_batch(self, requests: Sequence[object]) -> None:
        """Fail a group's model call for each matching member.

        A poisoned member of a group of two or more consumes one firing here
        and another when the scheduler's isolation re-runs it alone —
        configure ``fail_request(tag)`` with ``times=None`` (the default)
        for a genuinely poisonous request.
        """
        for request in requests:
            self.on_execute(request)

    def on_model(self, model: object) -> None:
        """Raise when the leased replica has been broken by the plan."""
        with self._lock:
            broken = id(model) in self._broken_model_ids
            if broken:
                self.fired.append("replica")
        if broken:
            raise InjectedFault(f"injected replica fault on model id {id(model):#x}")

    def on_lease(self) -> None:
        """Raise on the configured 1-based acquire numbers."""
        with self._lock:
            self._lease_count += 1
            hit = self._lease_count in self._lease_faults
            if hit:
                self.fired.append(f"lease:{self._lease_count}")
        if hit:
            raise InjectedFault(f"injected fault on lease #{self._lease_count}")

    def on_tick_start(self, batch_size: int) -> None:
        """Raise on the configured 1-based tick numbers (pre-lease crash)."""
        with self._lock:
            self._tick_count += 1
            hit = self._tick_count in self._tick_faults
            if hit:
                self.fired.append(f"tick:{self._tick_count}")
        if hit:
            raise InjectedFault(
                f"injected crash on tick #{self._tick_count} (batch of {batch_size})"
            )
