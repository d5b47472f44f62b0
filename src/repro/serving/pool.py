"""Warm model pool: replicas loaded once at startup, leased per tick.

Constructing a ``BIGCity`` model (tokenizer tables, backbone weights) takes
long enough that doing it on a request path would dominate p50 latency.
The pool therefore pays that cost once, *before* the service starts taking
traffic: ``from_checkpoint`` loads ``replicas`` independent copies of one
trained checkpoint through :func:`repro.core.checkpoints.load_bigcity`, and
scheduler ticks borrow a replica with :meth:`ModelPool.lease` — a blocking
checkout, so at most ``replicas`` ticks execute concurrently and a replica
is never shared by two ticks.

Every replica is rebuilt from the same ``.npz`` archive, so all replicas —
and any later fresh load of the same file — produce bit-identical outputs
(pinned by ``tests/test_serving_pool.py``).

**Replica health.** After each tick the worker reports the lease outcome
(:meth:`report_success` / :meth:`report_failure`).  A replica that observes
``quarantine_after`` *consecutive* failed leases is quarantined — removed
from circulation — and, when the pool knows how to rebuild it (a
``reloader``, which ``from_checkpoint`` wires to the checkpoint archive),
replaced by a freshly loaded copy.  Because a reload restores a
bit-identical replica, quarantining a healthy replica on a false positive
(e.g. a burst of poisonous requests) costs one reload and nothing else.
:meth:`healthy` counts replicas still in circulation; the service's
circuit breaker flips to reject-mode when it drops below the configured
minimum.
"""

from __future__ import annotations

import contextlib
import logging
import threading
import time
from typing import Callable, Dict, List, Optional, Tuple

__all__ = ["ModelPool"]

logger = logging.getLogger("repro.serving")


class ModelPool:
    """A fixed set of interchangeable model replicas with blocking checkout."""

    def __init__(
        self,
        models: List,
        reloader: Optional[Callable[[], object]] = None,
        quarantine_after: Optional[int] = 3,
        faults=None,
    ) -> None:
        if not models:
            raise ValueError("a model pool needs at least one replica")
        if quarantine_after is not None and quarantine_after < 1:
            raise ValueError("quarantine_after must be >= 1 (or None to disable)")
        self._replicas = list(models)
        self._available: List = list(models)
        #: ``(num_segments, num_slices)`` of the network and time axis every
        #: replica serves (replicas, reloads included, are interchangeable).
        self.bounds: Tuple[int, int] = (models[0].network.num_segments, models[0].time_axis.num_slices)
        self._lock = threading.Lock()
        self._returned = threading.Condition(self._lock)
        #: wall-clock seconds spent constructing the replicas (0 when the
        #: caller built them; ``from_checkpoint`` records its warm-up cost).
        self.warmup_s: float = 0.0
        #: zero-argument factory producing a fresh replica (reload path).
        self.reloader = reloader
        #: consecutive failed leases before a replica is quarantined.
        self.quarantine_after = quarantine_after
        #: optional :class:`repro.serving.faults.FaultPlan` (lease faults).
        self.faults = faults
        self._consecutive_failures: Dict[int, int] = {id(m): 0 for m in models}
        self._retired_ids: set = set()
        self._quarantined_count = 0
        self._reloaded_count = 0

    # ------------------------------------------------------------------
    @classmethod
    def from_checkpoint(
        cls,
        path,
        dataset,
        replicas: int = 1,
        strict_dataset: bool = True,
        quarantine_after: Optional[int] = 3,
        faults=None,
    ) -> "ModelPool":
        """Load ``replicas`` independent copies of one checkpoint (warm start).

        The checkpoint archive doubles as the reload source: a quarantined
        replica is replaced by a fresh ``load_bigcity`` of the same file.
        """
        from repro.core.checkpoints import load_bigcity

        if replicas < 1:
            raise ValueError("replicas must be >= 1")

        def reload_one():
            model, _metadata = load_bigcity(path, dataset, strict_dataset=strict_dataset)
            return model

        started = time.perf_counter()
        models = [reload_one() for _ in range(replicas)]
        pool = cls(models, reloader=reload_one, quarantine_after=quarantine_after, faults=faults)
        pool.warmup_s = time.perf_counter() - started
        return pool

    # ------------------------------------------------------------------
    @property
    def size(self) -> int:
        return len(self._replicas)

    def available(self) -> int:
        with self._lock:
            return len(self._available)

    def healthy(self) -> int:
        """Replicas still in circulation (leased or available, not quarantined)."""
        with self._lock:
            return len(self._replicas)

    @property
    def quarantined(self) -> int:
        """Total replicas ever quarantined (reloads do not decrement this)."""
        with self._lock:
            return self._quarantined_count

    @property
    def reloaded(self) -> int:
        with self._lock:
            return self._reloaded_count

    # ------------------------------------------------------------------
    def acquire(self, timeout_s: Optional[float] = None):
        """Check out a replica, blocking until one is returned."""
        if self.faults is not None:
            self.faults.on_lease()
        deadline = None if timeout_s is None else time.monotonic() + timeout_s
        with self._returned:
            while not self._available:
                remaining = None if deadline is None else deadline - time.monotonic()
                if remaining is not None and remaining <= 0:
                    raise TimeoutError(
                        f"no model replica free within {timeout_s}s (pool size {self.size})"
                    )
                self._returned.wait(remaining)
            return self._available.pop()

    def release(self, model) -> None:
        with self._returned:
            if id(model) in self._retired_ids:
                # quarantined while leased: drop it instead of recirculating.
                return
            if not any(model is replica for replica in self._replicas):
                raise ValueError("released model does not belong to this pool")
            if any(model is replica for replica in self._available):
                raise ValueError("released model is already available")
            self._available.append(model)
            self._returned.notify()

    @contextlib.contextmanager
    def lease(self, timeout_s: Optional[float] = None):
        """``with pool.lease() as model:`` — checkout scoped to a block."""
        model = self.acquire(timeout_s)
        try:
            yield model
        finally:
            self.release(model)

    # -- health reporting ----------------------------------------------
    def report_success(self, model) -> None:
        """Reset the replica's consecutive-failure count after a clean lease."""
        with self._lock:
            if id(model) in self._consecutive_failures:
                self._consecutive_failures[id(model)] = 0

    def report_failure(self, model) -> Optional[str]:
        """Record one failed lease; quarantine + reload at the threshold.

        Returns ``None`` (below threshold), ``"quarantined"`` (replica
        retired, no reloader or reload failed — pool capacity shrank), or
        ``"reloaded"`` (retired and replaced by a fresh copy).
        """
        with self._lock:
            if self.quarantine_after is None or id(model) not in self._consecutive_failures:
                return None
            self._consecutive_failures[id(model)] += 1
            if self._consecutive_failures[id(model)] < self.quarantine_after:
                return None
            # Quarantine: pull the replica out of circulation.  It is
            # usually still leased by the reporting worker; release() drops
            # retired models instead of recirculating them.  While a reload
            # is in flight the retired replica still counts as healthy —
            # capacity is *recovering*, not lost — so the circuit breaker
            # only opens when the reload fails or no reloader exists.
            self._quarantined_count += 1
            self._consecutive_failures.pop(id(model), None)
            self._available = [r for r in self._available if r is not model]
            self._retired_ids.add(id(model))
            if self.reloader is None:
                self._replicas = [r for r in self._replicas if r is not model]
        logger.warning(
            "model replica id %#x quarantined after %d consecutive failed leases",
            id(model),
            self.quarantine_after,
        )
        if self.reloader is None:
            return "quarantined"
        # Reload outside the lock: checkpoint loading is slow and other
        # workers must keep leasing the surviving replicas meanwhile.
        try:
            fresh = self.reloader()
        except Exception:  # noqa: BLE001 - a failed reload just shrinks the pool
            logger.exception("reload of quarantined replica failed; pool capacity reduced")
            with self._lock:
                self._replicas = [r for r in self._replicas if r is not model]
            return "quarantined"
        with self._returned:
            self._replicas = [fresh if r is model else r for r in self._replicas]
            if not any(r is fresh for r in self._replicas):  # pragma: no cover - defensive
                self._replicas.append(fresh)
            self._available.append(fresh)
            self._consecutive_failures[id(fresh)] = 0
            self._reloaded_count += 1
            self._returned.notify()
        logger.info("quarantined replica replaced by a fresh checkpoint load")
        return "reloaded"
