"""The no-grad array pass of ``GPT2Model`` against its module-by-module forward.

Under ``no_grad`` with the fused kernels, ``GPT2Model.forward`` runs every
transformer block as one pass over arrays, reading a memoised weight plan.
A seeded generator checks that it returns bit for bit what the module path
returns on prefill (padded rows, lengths up to ``max_position``), KV-cached
decode with per-row positions, partial LoRA coverage, train mode, and
after weight writes that must rebuild the plan.
"""

from __future__ import annotations

import contextlib

import numpy as np
import pytest

from repro.nn import Adam, GPT2Config, GPT2Model, LoRALinear, attach_lora
from repro.nn import transformer
from repro.nn.module import Module, Parameter
from repro.nn.tensor import Tensor, no_grad

D_MODEL = 32
MAX_POSITION = 160


@contextlib.contextmanager
def module_path(model: GPT2Model):
    """Run ``model`` module by module under ``no_grad``, as in grad mode."""
    model._inference_plan = lambda: None
    try:
        yield
    finally:
        del model._inference_plan


def _model(rng: np.random.Generator, coverage: float, num_heads: int) -> GPT2Model:
    model = GPT2Model(
        GPT2Config(
            d_model=D_MODEL,
            num_layers=2,
            num_heads=num_heads,
            max_position=MAX_POSITION,
            seed=int(rng.integers(1 << 30)),
        )
    )
    attach_lora(model, rank=4, coverage=coverage, rng=rng)
    for layer in model.modules():
        if isinstance(layer, LoRALinear):
            layer.lora_b.data = rng.standard_normal(layer.lora_b.shape)
    model.eval()
    return model


def _decode(model: GPT2Model, prefill: np.ndarray, lengths: np.ndarray, steps: np.ndarray) -> list:
    """Prefill then KV-cached two-token steps, laid out as ``rollout_next_hops_batch`` does."""
    batch, prefill_length, _ = prefill.shape
    pad = np.arange(prefill_length)[None, :] >= lengths[:, None]
    pad_mask = pad if pad.any() else None
    with no_grad():
        caches = model.new_caches()
        outputs = [model(Tensor(prefill), padding_mask=pad_mask, caches=caches).data]
        for step, rows in enumerate(steps):
            positions = (lengths + 2 * step)[:, None] + np.arange(2)[None, :]
            step_mask = None
            if pad_mask is not None:
                step_mask = np.zeros((batch, caches[0].length + 2), dtype=bool)
                step_mask[:, :prefill_length] = pad_mask
            outputs.append(
                model(Tensor(rows), padding_mask=step_mask, caches=caches, position_ids=positions).data
            )
    return outputs


def _generated_case(rng: np.random.Generator):
    batch = int(rng.integers(1, 6))
    # Half the cases are long enough for the block-causal kernel.
    high = MAX_POSITION - 6 if rng.random() < 0.5 else 16
    low = 128 if high > 16 else 1
    prefill_length = int(rng.integers(low, high + 1))
    lengths = rng.integers(1, prefill_length + 1, size=batch)
    lengths[int(rng.integers(batch))] = prefill_length
    prefill = rng.standard_normal((batch, prefill_length, D_MODEL))
    steps = rng.standard_normal((int(rng.integers(0, 4)), batch, 2, D_MODEL))
    return prefill, lengths, steps


@pytest.mark.parametrize("coverage", [1.0, 0.5])
@pytest.mark.parametrize("seed", range(3))
def test_array_pass_equals_module_path_on_generated_inputs(coverage, seed):
    rng = np.random.default_rng(seed)
    model = _model(rng, coverage, num_heads=int(rng.choice([2, 4])))
    for _ in range(4):
        prefill, lengths, steps = _generated_case(rng)
        planned = _decode(model, prefill, lengths, steps)
        with module_path(model):
            reference = _decode(model, prefill, lengths, steps)
        for fast, slow in zip(planned, reference):
            assert fast.dtype == slow.dtype == np.float64
            np.testing.assert_array_equal(fast, slow)


def _forward(model: GPT2Model, x: np.ndarray) -> np.ndarray:
    with no_grad():
        return model(Tensor(x)).data


def _module_forward(model: GPT2Model, x: np.ndarray) -> np.ndarray:
    with module_path(model):
        return _forward(model, x)


class TestPlanRebuild:
    def test_rebuilt_after_adam_step(self):
        rng = np.random.default_rng(1)
        model = _model(rng, 1.0, num_heads=2)
        x = rng.standard_normal((2, 5, D_MODEL))
        before = _forward(model, x)
        optimizer = Adam([p for p in model.parameters() if p.requires_grad], lr=0.05)
        (model(Tensor(x)) ** 2).sum().backward()
        optimizer.step()
        after = _forward(model, x)
        assert not np.array_equal(before, after)
        np.testing.assert_array_equal(after, _module_forward(model, x))

    def test_rebuilt_after_load_state_dict(self):
        rng = np.random.default_rng(2)
        model, other = _model(rng, 1.0, num_heads=2), _model(rng, 1.0, num_heads=2)
        x = rng.standard_normal((2, 5, D_MODEL))
        before = _forward(model, x)
        model.load_state_dict(other.state_dict())
        after = _forward(model, x)
        assert not np.array_equal(before, after)
        np.testing.assert_array_equal(after, _module_forward(model, x))
        np.testing.assert_array_equal(after, _forward(other, x))

    def test_rebuilt_after_attach_lora(self):
        rng = np.random.default_rng(3)
        model = GPT2Model(GPT2Config(d_model=D_MODEL, num_layers=2, num_heads=2, max_position=16, seed=0))
        model.eval()
        x = rng.standard_normal((1, 4, D_MODEL))
        before = _forward(model, x)
        attach_lora(model, rank=2, rng=rng)
        for layer in model.modules():
            if isinstance(layer, LoRALinear):
                layer.lora_b.data = rng.standard_normal(layer.lora_b.shape)
        after = _forward(model, x)
        assert not np.array_equal(before, after)
        np.testing.assert_array_equal(after, _module_forward(model, x))

    def test_memoised_while_unchanged(self):
        model = _model(np.random.default_rng(4), 1.0, num_heads=2)
        with no_grad():
            first = model._inference_plan()
            assert model._inference_plan() is first


class TestFallbacks:
    def test_module_path_for_grad_mode(self):
        model = _model(np.random.default_rng(5), 1.0, num_heads=2)
        assert model._inference_plan() is None
        with no_grad():
            assert model._inference_plan() is not None

    def test_train_mode_no_grad_takes_the_array_pass(self, monkeypatch):
        """Train mode changes nothing a forward computes, so it does not leave the array pass."""
        rng = np.random.default_rng(8)
        model = _model(rng, 1.0, num_heads=2)
        model.train()
        block_pass, passes = transformer._block_pass, []

        def counted(*args):
            passes.append(args)
            return block_pass(*args)

        monkeypatch.setattr(transformer, "_block_pass", counted)
        x = rng.standard_normal((2, 6, D_MODEL))
        planned = _forward(model, x)
        assert len(passes) == len(model.blocks)
        reference = _module_forward(model, x)
        assert len(passes) == len(model.blocks)
        np.testing.assert_array_equal(planned, reference)


class TestPositionChecks:
    @pytest.mark.parametrize("positions, error", [([[-1, 0]], IndexError), ([[MAX_POSITION, 0]], ValueError)])
    def test_bad_position_ids_raise_on_the_array_pass(self, positions, error):
        model = _model(np.random.default_rng(6), 1.0, num_heads=2)
        with no_grad():
            assert model._inference_plan() is not None
            with pytest.raises(error):
                model(Tensor(np.ones((1, 2, D_MODEL))), position_ids=np.asarray(positions))

    def test_prefill_beyond_max_position_raises(self):
        model = _model(np.random.default_rng(6), 1.0, num_heads=2)
        with no_grad(), pytest.raises(ValueError, match="max_position"):
            model(Tensor(np.ones((1, MAX_POSITION + 1, D_MODEL))))


class TestCachedParameters:
    def test_kept_until_a_parameter_or_module_is_registered_anywhere(self):
        model = GPT2Model(GPT2Config(d_model=8, num_layers=1, num_heads=2, max_position=8, seed=0))
        first = model.cached_parameters()
        assert model.cached_parameters() is first
        assert [id(p) for p in first] == [id(p) for p in model.parameters()]
        attach_lora(model, rank=2)  # registers below the root
        second = model.cached_parameters()
        assert second is not first
        assert [id(p) for p in second] == [id(p) for p in model.parameters()]
        model.blocks[0].ln_1.extra = Parameter(np.zeros(1))
        assert len(model.cached_parameters()) == len(second) + 1

    def test_unrelated_registration_only_costs_a_rebuild(self):
        model = GPT2Model(GPT2Config(d_model=8, num_layers=1, num_heads=2, max_position=8, seed=0))
        first = model.cached_parameters()
        Module().child = Module()
        assert [id(p) for p in model.cached_parameters()] == [id(p) for p in first]
