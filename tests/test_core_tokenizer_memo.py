"""The tokenizer's memo of static and per-slice fused representations.

While no gradient can reach the tokenizer, ``SpatioTemporalTokenizer``
serves the static and the fused spatial representations from a memo and
computes only the slices it has not seen.  The claims pinned here:

* cached == uncached bit-for-bit for the batched traffic prediction,
  traffic imputation and KV-cached rollout entry points, on seeded slice
  sets that include slice 0, the zero-padded history window and the last
  slice;
* a stale memo is never served: after an optimiser step, a state-dict
  load, a new traffic tensor or ``unfreeze()`` under grad mode, answers
  equal a freshly built model's;
* a ``traffic_override`` bypasses the memo;
* stage-1 training (grad enabled, tokenizer trainable) computes the same
  loss and gradients as a model that never filled its memo;
* threads sharing one model read and fill one memo without a wrong answer.
"""

from __future__ import annotations

import sys
import threading

import numpy as np
import pytest

from repro.core.model import BIGCity
from repro.data.traffic_state import TrafficStateSeries
from repro.data.trajectory import Trajectory
from repro.nn.optim import Adam
from repro.nn import functional as F
from repro.nn.tensor import Tensor, no_grad
from repro.serving import results_equal

TASKS = ["prediction", "imputation", "rollout"]


@pytest.fixture(scope="module")
def weights(trained_model):
    return trained_model.state_dict()


def _fused_rows(tokenizer, slices) -> Tensor:
    """Fused ``s_{i, t}`` of every segment at each slice, ``(len(slices), num_segments, fused_dim)``."""
    num_segments = tokenizer.network.num_segments
    segments = np.tile(np.arange(num_segments), len(slices))
    table, first, second = tokenizer._spatial_table(np.repeat(slices, num_segments), segments)
    return F.gather_rows(table, first, second).reshape(len(slices), num_segments, tokenizer.fused_dim)


def _fresh(dataset, config, state) -> BIGCity:
    """A newly built model (empty memo) carrying ``state``."""
    model = BIGCity.from_dataset(dataset, config=config)
    model.load_state_dict(state)
    return model.eval()


def _windows(rng, num_slices: int, window: int, lengths, count: int = 7):
    """Seeded ``(start, length)`` slice windows.

    The first starts at slice 0, the second inside the zero-padded history
    window, the third ends on the last slice and the rest are random.
    """
    windows = []
    for index in range(count):
        length = int(rng.integers(lengths[0], lengths[1] + 1))
        if index == 0:
            start = 0
        elif index == 1:
            start = int(rng.integers(1, window)) if window > 1 else 0
        elif index == 2:
            start = num_slices - length
        else:
            start = int(rng.integers(0, num_slices - length + 1))
        windows.append((start, length))
    return windows


def _prediction_cases(dataset, window, seed):
    rng = np.random.default_rng(seed)
    return [
        (int(rng.integers(dataset.network.num_segments)), start, history, int(rng.integers(1, 4)))
        for start, history in _windows(rng, dataset.time_axis.num_slices, window, (1, 6))
    ]


def _imputation_cases(dataset, window, seed):
    rng = np.random.default_rng(seed)
    cases = []
    for start, length in _windows(rng, dataset.time_axis.num_slices, window, (2, 8)):
        masked = rng.choice(length, size=int(rng.integers(1, length)), replace=False)
        cases.append((int(rng.integers(dataset.network.num_segments)), start, length, tuple(sorted(masked.tolist()))))
    return cases


def _rollout_trajectories(dataset, window, seed):
    """Test trajectories shifted to start in the generated slices."""
    rng = np.random.default_rng(seed)
    axis = dataset.time_axis
    sources = [t for t in dataset.test_trajectories if len(t) >= 4]
    shifted = []
    for start, _ in _windows(rng, axis.num_slices, window, (1, 1)):
        source = sources[int(rng.integers(len(sources)))]
        offset = axis.origin + start * axis.slice_seconds + float(rng.uniform(0, axis.slice_seconds / 4))
        timestamps = [offset + t - source.timestamps[0] for t in source.timestamps]
        shifted.append(Trajectory(source.trajectory_id, source.user_id, list(source.segments), timestamps))
    return shifted


def _run(model, dataset, task: str, seed: int):
    window = model.config.history_window
    if task == "prediction":
        return model.predict_traffic_states_batch(_prediction_cases(dataset, window, seed))
    if task == "imputation":
        return model.impute_traffic_states_batch(_imputation_cases(dataset, window, seed))
    return model.rollout_next_hops_batch(_rollout_trajectories(dataset, window, seed), steps=2)


def _answers(model, dataset, seed: int = 0):
    return [answer for task in TASKS for answer in _run(model, dataset, task, seed)]


def _equal(left, right) -> bool:
    return len(left) == len(right) and all(results_equal(a, b) for a, b in zip(left, right))


class TestGeneratedSlices:
    def test_slice_sets_cover_the_edges(self, tiny_dataset, tiny_config):
        window = tiny_config.history_window
        last = tiny_dataset.time_axis.num_slices - 1
        for seed in range(3):
            predicted = {s for _, start, history, _ in _prediction_cases(tiny_dataset, window, seed)
                         for s in range(start, start + history)}
            imputed = {s for _, start, length, _ in _imputation_cases(tiny_dataset, window, seed)
                       for s in range(start, start + length)}
            rolled = {tiny_dataset.time_axis.slice_of(t)
                      for trajectory in _rollout_trajectories(tiny_dataset, window, seed)
                      for t in trajectory.timestamps}
            for slices in (predicted, imputed, rolled):
                assert 0 in slices and last in slices
                assert any(0 < s < window for s in slices)


class TestCachedEqualsUncached:
    @pytest.mark.parametrize("task", TASKS)
    def test_warm_and_partial_memo_match_cold(self, tiny_dataset, tiny_config, weights, task):
        model = _fresh(tiny_dataset, tiny_config, weights)
        cold = _run(model, tiny_dataset, task, seed=11)
        warm = _run(model, tiny_dataset, task, seed=11)
        # Empty the memo, fill it from an overlapping slice set, then ask
        # again: part of the slices hit, the rest are computed.
        model.tokenizer.set_traffic_states(tiny_dataset.traffic_states)
        _run(model, tiny_dataset, task, seed=12)
        partial = _run(model, tiny_dataset, task, seed=11)
        assert _equal(cold, warm)
        assert _equal(cold, partial)

    def test_memo_entries_equal_the_grad_mode_computation(self, tiny_dataset, tiny_config, weights):
        """Grad mode with a trainable tokenizer bypasses the memo: the uncached oracle."""
        tokenizer = _fresh(tiny_dataset, tiny_config, weights).tokenizer
        window = tiny_config.history_window
        slices = sorted({s for _, start, length, _ in _imputation_cases(tiny_dataset, window, seed=5)
                         for s in range(start, start + length)})
        with no_grad():
            _fused_rows(tokenizer, slices[::2])
            cached = _fused_rows(tokenizer, slices)
            static = tokenizer.static_representations()
        uncached = _fused_rows(tokenizer, slices)
        assert uncached.requires_grad
        assert np.array_equal(static.data, tokenizer.static_representations().data)
        assert cached.shape == uncached.shape == (len(slices), tokenizer.network.num_segments, tokenizer.fused_dim)
        assert cached.data.dtype == uncached.data.dtype
        assert np.array_equal(cached.data, uncached.data)


class TestSharedModel:
    def test_threads_sharing_one_model_get_the_serial_answers(self, tiny_dataset, tiny_config, weights):
        """Eight threads on two cores fill and read one memo; every answer equals a cold model's."""
        seeds = list(range(8))
        expected = {seed: _run(_fresh(tiny_dataset, tiny_config, weights), tiny_dataset, TASKS[seed % 3], seed)
                    for seed in seeds}
        model = _fresh(tiny_dataset, tiny_config, weights)
        results, errors = {}, []

        def work(seed):
            try:
                for _ in range(3):
                    results[seed] = _run(model, tiny_dataset, TASKS[seed % 3], seed)
            except Exception as error:  # noqa: BLE001 - reported by the assertion below
                errors.append(error)

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [threading.Thread(target=work, args=(seed,)) for seed in seeds]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=120)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        assert not errors, errors
        assert all(_equal(results[seed], expected[seed]) for seed in seeds)


class TestStaleMemo:
    def test_optimiser_step(self, tiny_dataset, tiny_config, weights):
        model = _fresh(tiny_dataset, tiny_config, weights)
        before = _answers(model, tiny_dataset)
        params = model.tokenizer.parameters()
        rng = np.random.default_rng(0)
        for param in params:
            param.grad = rng.standard_normal(param.data.shape)
        Adam(params, lr=1e-2).step()
        after = _answers(model, tiny_dataset)
        assert not _equal(before, after)
        assert _equal(after, _answers(_fresh(tiny_dataset, tiny_config, model.state_dict()), tiny_dataset))

    def test_load_state_dict(self, tiny_dataset, tiny_config, weights, untrained_model):
        model = _fresh(tiny_dataset, tiny_config, weights)
        before = _answers(model, tiny_dataset)
        model.load_state_dict(untrained_model.state_dict())
        after = _answers(model, tiny_dataset)
        assert not _equal(before, after)
        assert _equal(after, _answers(_fresh(tiny_dataset, tiny_config, untrained_model.state_dict()), tiny_dataset))

    def test_set_traffic_states(self, tiny_dataset, tiny_config, weights):
        states = tiny_dataset.traffic_states
        rng = np.random.default_rng(1)
        shifted = TrafficStateSeries(
            states.values * 1.5 + rng.standard_normal(states.values.shape), states.time_axis, states.channels
        )
        model = _fresh(tiny_dataset, tiny_config, weights)
        before = _answers(model, tiny_dataset)
        model.tokenizer.set_traffic_states(shifted)
        after = _answers(model, tiny_dataset)
        fresh = _fresh(tiny_dataset, tiny_config, weights)
        fresh.tokenizer.set_traffic_states(shifted)
        assert not _equal(before, after)
        assert _equal(after, _answers(fresh, tiny_dataset))

    def test_unfreeze_under_grad_mode(self, tiny_dataset, tiny_config, weights):
        slices = [0, 1, 17, tiny_dataset.time_axis.num_slices - 1]

        def tokenizer_grads(model, freeze_first: bool):
            tokenizer = model.tokenizer
            if freeze_first:
                # A frozen tokenizer in grad mode (stage 2) fills the memo.
                tokenizer.freeze()
                _fused_rows(tokenizer, slices)
                tokenizer.unfreeze()
            fused = _fused_rows(tokenizer, slices)
            (fused * fused).sum().backward()
            return [param.grad for param in tokenizer.parameters()]

        warm = tokenizer_grads(_fresh(tiny_dataset, tiny_config, weights), freeze_first=True)
        cold = tokenizer_grads(_fresh(tiny_dataset, tiny_config, weights), freeze_first=False)
        representation_grads = [g for g in cold if g is not None]
        assert representation_grads and any(np.any(g != 0) for g in representation_grads)
        assert all((a is None) == (b is None) for a, b in zip(warm, cold))
        assert all(a is None or np.array_equal(a, b) for a, b in zip(warm, cold))


class TestTrafficOverride:
    def test_override_bypasses_the_memo(self, tiny_dataset, tiny_config, weights):
        cases = _imputation_cases(tiny_dataset, tiny_config.history_window, seed=3)
        override = tiny_dataset.traffic_states.values.copy()
        for segment, start, _, masked in cases:
            override[segment, [start + p for p in masked]] = 0.0
        model = _fresh(tiny_dataset, tiny_config, weights)
        plain = model.impute_traffic_states_batch(cases)
        masked_answers = model.impute_traffic_states_batch(cases, traffic_override=override)
        fresh = _fresh(tiny_dataset, tiny_config, weights)
        assert _equal(masked_answers, fresh.impute_traffic_states_batch(cases, traffic_override=override))
        assert not _equal(plain, masked_answers)
        # The override's representations never enter the memo.
        assert _equal(model.impute_traffic_states_batch(cases), plain)

    def test_registered_traffic_as_override_matches_the_memo(self, tiny_dataset, tiny_config, weights):
        cases = _imputation_cases(tiny_dataset, tiny_config.history_window, seed=4)
        model = _fresh(tiny_dataset, tiny_config, weights)
        cached = model.impute_traffic_states_batch(cases)
        bypassed = model.impute_traffic_states_batch(cases, traffic_override=tiny_dataset.traffic_states.values)
        assert _equal(cached, bypassed)


class TestTraining:
    def _stage1_prompts(self, model, dataset):
        from repro.core.st_unit import trajectory_to_units

        rng = np.random.default_rng(0)
        return [
            model.prompt_builder.masked_reconstruction(trajectory_to_units(t, dataset.traffic_states), rng=rng)
            for t in dataset.trajectories[:6]
        ]

    def _loss_and_grads(self, model, dataset):
        model.zero_grad()
        loss, _ = model.prompt_loss(self._stage1_prompts(model, dataset))
        loss.backward()
        return loss.data, [None if p.grad is None else p.grad.copy() for p in model.parameters()]

    def test_stage1_gradients_unchanged_by_a_warm_memo(self, tiny_dataset, tiny_config, weights):
        warm = _fresh(tiny_dataset, tiny_config, weights)
        _answers(warm, tiny_dataset)
        warm_loss, warm_grads = self._loss_and_grads(warm, tiny_dataset)
        cold_loss, cold_grads = self._loss_and_grads(_fresh(tiny_dataset, tiny_config, weights), tiny_dataset)
        assert np.array_equal(warm_loss, cold_loss)
        tokenizer_grads = [p.grad for p in warm.tokenizer.parameters()]
        assert all(g is not None for g in tokenizer_grads)
        assert all((a is None) == (b is None) for a, b in zip(warm_grads, cold_grads))
        assert all(a is None or np.array_equal(a, b) for a, b in zip(warm_grads, cold_grads))

    def test_frozen_tokenizer_serves_the_memo_in_grad_mode(self, tiny_dataset, tiny_config, weights):
        warm = _fresh(tiny_dataset, tiny_config, weights)
        cold = _fresh(tiny_dataset, tiny_config, weights)
        for model in (warm, cold):
            model.tokenizer.freeze()
        _answers(warm, tiny_dataset)
        warm_loss, warm_grads = self._loss_and_grads(warm, tiny_dataset)
        cold_loss, cold_grads = self._loss_and_grads(cold, tiny_dataset)
        assert np.array_equal(warm_loss, cold_loss)
        assert all(p.grad is None for p in warm.tokenizer.parameters())
        assert all((a is None) == (b is None) for a, b in zip(warm_grads, cold_grads))
        assert all(a is None or np.array_equal(a, b) for a, b in zip(warm_grads, cold_grads))
