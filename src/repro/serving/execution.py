"""Request execution — the single source of truth for "what should this
request return?".

:func:`execute_batch` answers a group of batch-compatible requests with the
one ``*_batch`` model call their request class names
(``answer_batch``).  Every consumer goes through it:

* the continuous-batching scheduler, for every group of a tick, a group of
  one included;
* :func:`execute_request`, the serial view of one request (a batch of
  one), which is the equality oracle of ``tests/test_serving_scheduler.py``
  and the repo benchmark, and the load generator's serial baseline.

Every single-request model method is itself a batch-of-one view of its
``*_batch`` method, so the serial answer is the offline answer.
"""

from __future__ import annotations

from typing import List, Sequence

import numpy as np

from repro.serving.requests import ServingRequest

__all__ = ["execute_request", "execute_batch", "run_serial_trace", "results_equal"]


def execute_request(model, request: ServingRequest, faults=None):
    """Answer one request with a batch-of-one model call.

    ``model`` is a :class:`repro.core.model.BIGCity`; every ``*_batch``
    call runs under the model's own ``no_grad`` scope and is deterministic,
    so this function doubles as the serial oracle the batched scheduler is
    equality-tested against.

    ``faults`` is an optional :class:`repro.serving.faults.FaultPlan`:
    ``on_execute`` may raise before the model call and
    ``transform_result`` may corrupt the answer afterwards — both no-ops by
    default, so the oracle path is untouched unless a chaos test injects.
    """
    if faults is not None:
        faults.on_execute(request)
    result = execute_batch(model, [request])[0]
    if faults is not None:
        result = faults.transform_result(request, result)
    return result


def execute_batch(model, requests: Sequence[ServingRequest]) -> List:
    """Answer a group of batch-compatible requests with ONE ``*_batch`` model call.

    ``requests`` must all share a ``batch_key()`` (the scheduler guarantees
    this), so they are of one kind and agree on every argument that changes
    decoding.  Results are returned in request order and are bit-for-bit
    what each request gets alone, because every ``*_batch`` model entry
    point is equality-pinned against its batch-of-one view.
    """
    if not requests:
        return []
    return type(requests[0]).answer_batch(model, requests)


def run_serial_trace(model, trace: Sequence[ServingRequest]) -> List:
    """Execute a request trace one request at a time, in order.

    This is the offline baseline the serving layer is compared against —
    both for correctness (results must match bit-for-bit) and for
    throughput (continuous batching must not be slower).
    """
    return [execute_request(model, request) for request in trace]


def results_equal(left, right) -> bool:
    """Bit-for-bit equality of two per-request results (arrays or scalars)."""
    left_array = np.asarray(left)
    right_array = np.asarray(right)
    return left_array.shape == right_array.shape and bool(np.array_equal(left_array, right_array))
