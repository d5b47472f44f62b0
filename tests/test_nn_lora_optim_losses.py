"""Tests for LoRA adapters, the optimiser and loss functions."""

from __future__ import annotations

import contextlib

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.eval.perfbench import reference_kernels
from repro.nn import (
    Adam,
    GPT2Config,
    GPT2Model,
    Linear,
    LoRALinear,
    attach_lora,
    cross_entropy,
    info_nce,
    lora_parameters,
    mark_only_lora_trainable,
    mse_loss,
)
from repro.nn import functional as F
from repro.nn.losses import masked_mse_loss
from repro.nn.module import Parameter
from repro.nn.optim import clip_grad_norm
from repro.nn.tensor import Tensor, no_grad


class TestLoRA:
    def test_wrapped_layer_starts_identical_to_base(self):
        base = Linear(6, 4, rng=np.random.default_rng(0))
        x = Tensor(np.random.default_rng(1).standard_normal((3, 6)))
        expected = base(x).data.copy()
        wrapped = LoRALinear(base, rank=2)
        assert np.allclose(wrapped(x).data, expected)

    def test_base_is_frozen_and_lora_trainable(self):
        wrapped = LoRALinear(Linear(6, 4), rank=2)
        assert not wrapped.base.weight.requires_grad
        assert wrapped.lora_a.requires_grad and wrapped.lora_b.requires_grad

    def test_training_changes_output_through_lora_only(self):
        wrapped = LoRALinear(Linear(4, 2, rng=np.random.default_rng(0)), rank=2)
        x = Tensor(np.random.default_rng(1).standard_normal((8, 4)))
        target = np.random.default_rng(2).standard_normal((8, 2))
        base_weight = wrapped.base.weight.data.copy()
        optimizer = Adam(wrapped.trainable_parameters(), lr=1e-2)
        for _ in range(30):
            optimizer.zero_grad()
            loss = mse_loss(wrapped(x), target)
            loss.backward()
            optimizer.step()
        assert np.allclose(wrapped.base.weight.data, base_weight)
        assert not np.allclose(wrapped.lora_b.data, 0.0)

    def test_merged_weight_matches_forward(self):
        wrapped = LoRALinear(Linear(4, 3, rng=np.random.default_rng(0)), rank=2)
        wrapped.lora_b.data = np.random.default_rng(1).standard_normal(wrapped.lora_b.shape)
        x = np.random.default_rng(2).standard_normal((5, 4))
        merged = x @ wrapped.merged_weight().T + wrapped.base.bias.data
        assert np.allclose(wrapped(Tensor(x)).data, merged, atol=1e-9)

    def test_invalid_rank_rejected(self):
        with pytest.raises(ValueError):
            LoRALinear(Linear(4, 4), rank=0)

    def test_attach_lora_wraps_attention_and_ffn(self):
        model = GPT2Model(GPT2Config(d_model=16, num_layers=2, num_heads=2, seed=0))
        wrapped = attach_lora(model, rank=2)
        # q/k/v + fc_in/fc_out per block, 2 blocks
        assert len(wrapped) == 10
        assert all(isinstance(m, LoRALinear) for m in [model.blocks[0].attn.q_proj, model.blocks[1].mlp.fc_in])

    def test_attach_lora_coverage_limits_blocks(self):
        model = GPT2Model(GPT2Config(d_model=16, num_layers=4, num_heads=2, seed=0))
        wrapped = attach_lora(model, rank=2, coverage=0.5)
        assert len(wrapped) == 10  # only 2 of 4 blocks adapted
        assert isinstance(model.blocks[3].attn.q_proj, LoRALinear)
        assert not isinstance(model.blocks[0].attn.q_proj, LoRALinear)

    def test_attach_lora_is_idempotent(self):
        model = GPT2Model(GPT2Config(d_model=16, num_layers=1, num_heads=2, seed=0))
        attach_lora(model, rank=2)
        assert attach_lora(model, rank=2) == []

    def test_mark_only_lora_trainable(self):
        model = GPT2Model(GPT2Config(d_model=16, num_layers=2, num_heads=2, vocab_size=11, seed=0))
        attach_lora(model, rank=2)
        trainable, total = mark_only_lora_trainable(model)
        assert 0 < trainable < total
        assert all("lora" in name for name, p in model.named_parameters() if p.requires_grad)

    def test_lora_parameters_helper_finds_all(self):
        model = GPT2Model(GPT2Config(d_model=16, num_layers=2, num_heads=2, seed=0))
        names = attach_lora(model, rank=2)
        assert len(lora_parameters(model)) == 2 * len(names)

    def test_coverage_out_of_range_rejected(self):
        model = GPT2Model(GPT2Config(d_model=16, num_layers=1, num_heads=2, seed=0))
        with pytest.raises(ValueError):
            attach_lora(model, coverage=0.0)


#: Merged and unmerged LoRA forwards differ only in summation order; they
#: must agree within this many float64 machine epsilons, relative to the
#: largest output magnitude.  Measured at 5-6 eps on random ``B``.
MERGE_TOLERANCE_EPS = 1000


def _randomise_lora_b(module, seed: int) -> None:
    """Give every adapter a non-zero ``B`` so the merge actually matters."""
    rng = np.random.default_rng(seed)
    for layer in module.modules():
        if isinstance(layer, LoRALinear):
            layer.lora_b.data = rng.standard_normal(layer.lora_b.shape)


def _fresh_merged(layer, x):
    """What the no-grad path must serve: one linear over a freshly merged weight."""
    with no_grad():
        return F.linear(Tensor(x), Tensor(layer.merged_weight()), layer.base.bias).data


def _tiny_gpt2(seed: int = 0):
    return GPT2Model(GPT2Config(d_model=32, num_layers=2, num_heads=2, max_position=64, seed=seed))


class TestInferencePath:
    @pytest.mark.parametrize("fused", [True, False])
    def test_lora_free_gpt2_no_grad_equals_grad_mode(self, fused):
        x = np.random.default_rng(5).standard_normal((3, 9, 32))
        with contextlib.nullcontext() if fused else reference_kernels():
            model = _tiny_gpt2()
            taped = model(Tensor(x, requires_grad=True))
            with no_grad():
                fast = model(Tensor(x))
        assert taped.requires_grad and not fast.requires_grad
        assert fast.dtype == taped.dtype == np.float64
        np.testing.assert_array_equal(fast.data, taped.data)

    @pytest.mark.parametrize("fused", [True, False])
    def test_merged_matches_unmerged_within_tolerance(self, fused):
        x = np.random.default_rng(6).standard_normal((3, 9, 32))
        model = _tiny_gpt2()
        attach_lora(model, rank=4, rng=np.random.default_rng(1))
        with contextlib.nullcontext() if fused else reference_kernels():
            with no_grad():
                base_only = model(Tensor(x)).data
            _randomise_lora_b(model, seed=2)
            unmerged = model(Tensor(x)).data  # grad mode: the unmerged tape path
            with no_grad():
                merged = model(Tensor(x)).data
        assert merged.dtype == unmerged.dtype == np.float64
        scale = np.abs(unmerged).max()
        assert np.abs(unmerged - base_only).max() > 1e-2 * scale  # the adapters matter
        tolerance = MERGE_TOLERANCE_EPS * np.finfo(np.float64).eps * scale
        assert np.abs(merged - unmerged).max() <= tolerance

    def test_rollout_greedy_choices_match_unmerged(self, tiny_dataset, tiny_config, monkeypatch):
        from repro.core.model import BIGCity

        model = BIGCity.from_dataset(tiny_dataset, config=tiny_config)
        model.eval()
        trajectories = [t for t in tiny_dataset.test_trajectories if len(t) >= 3]
        base_only = model.rollout_next_hops_batch(trajectories, steps=3)
        _randomise_lora_b(model, seed=3)
        merged = model.rollout_next_hops_batch(trajectories, steps=3)
        # The oracle runs the backbone module by module (the tape path), with
        # every LoRA layer composing base(x) + update instead of merging.
        unmerged_calls = []

        def forward_unmerged(layer, x):
            unmerged_calls.append(layer)
            return LoRALinear.forward_unmerged(layer, x)

        monkeypatch.setattr(GPT2Model, "_inference_plan", lambda self: None)
        monkeypatch.setattr(LoRALinear, "forward", forward_unmerged)
        unmerged = model.rollout_next_hops_batch(trajectories, steps=3)
        assert unmerged_calls, "the unmerged LoRA composition never ran"
        assert any(not np.array_equal(a, b) for a, b in zip(base_only, merged))
        assert all(np.array_equal(a, b) for a, b in zip(merged, unmerged))

    def test_merged_weight_is_memoised_while_unchanged(self):
        layer = LoRALinear(Linear(6, 4, rng=np.random.default_rng(0)), rank=2)
        x = Tensor(np.ones((2, 6)))
        with no_grad():
            layer(x)
            first = layer._merged()
            layer(x)
        assert layer._merged() is first

    def test_memo_rebuilt_after_adam_step(self):
        layer = LoRALinear(Linear(6, 4, rng=np.random.default_rng(0)), rank=2, rng=np.random.default_rng(1))
        x = np.random.default_rng(2).standard_normal((5, 6))
        with no_grad():
            before = layer(Tensor(x)).data
        optimizer = Adam(layer.trainable_parameters(), lr=0.1)
        (layer(Tensor(x)) ** 2).sum().backward()
        optimizer.step()
        with no_grad():
            after = layer(Tensor(x)).data
        assert not np.array_equal(before, after)
        np.testing.assert_array_equal(after, _fresh_merged(layer, x))

    def test_memo_rebuilt_after_load_state_dict(self):
        layer = LoRALinear(Linear(6, 4, rng=np.random.default_rng(0)), rank=2, rng=np.random.default_rng(1))
        other = LoRALinear(Linear(6, 4, rng=np.random.default_rng(3)), rank=2, rng=np.random.default_rng(4))
        _randomise_lora_b(other, seed=5)
        x = np.random.default_rng(2).standard_normal((5, 6))
        with no_grad():
            before = layer(Tensor(x)).data
        layer.load_state_dict(other.state_dict())
        with no_grad():
            after = layer(Tensor(x)).data
        assert not np.array_equal(before, after)
        np.testing.assert_array_equal(after, _fresh_merged(layer, x))
        with no_grad():
            np.testing.assert_array_equal(after, other(Tensor(x)).data)


class TestOptimisers:
    def _quadratic_problem(self):
        target = np.array([1.0, -2.0, 0.5])
        param = Parameter(np.zeros(3))
        return param, target

    def test_converges_on_quadratic(self):
        param, target = self._quadratic_problem()
        optimizer = Adam([param], lr=0.1)
        for _ in range(200):
            optimizer.zero_grad()
            loss = mse_loss(param, target)
            loss.backward()
            optimizer.step()
        assert np.allclose(param.data, target, atol=1e-2)

    def test_frozen_parameters_are_not_updated(self):
        param = Parameter(np.ones(3))
        param.requires_grad = False
        other = Parameter(np.ones(3))
        optimizer = Adam([param, other], lr=0.1)
        optimizer.zero_grad()
        loss = mse_loss(other, np.zeros(3))
        loss.backward()
        param.grad = np.ones(3)  # even with a stale grad, frozen params stay put
        optimizer.step()
        assert np.allclose(param.data, 1.0)

    def test_weight_decay_shrinks_parameters(self):
        param = Parameter(np.full(3, 10.0))
        optimizer = Adam([param], lr=0.1, weight_decay=0.1)
        for _ in range(50):
            optimizer.zero_grad()
            loss = (Tensor(np.zeros(3)) * param).sum()  # zero gradient signal
            param.grad = np.zeros(3)
            optimizer.step()
        assert np.all(np.abs(param.data) < 10.0)

    def test_float32_parameter_keeps_its_dtype_with_float64_moments(self):
        layer = Linear(4, 4, rng=np.random.default_rng(4))
        for param in layer.parameters():
            param.data = param.data.astype(np.float32)
        optimizer = Adam(layer.parameters(), lr=1e-2)
        x = Tensor(np.random.default_rng(5).standard_normal((8, 4)).astype(np.float32))
        mse_loss(layer(x), np.zeros((8, 4))).backward()
        optimizer.step()
        assert all(p.dtype == np.float32 for p in layer.parameters())
        assert all(m.dtype == np.float64 for m in optimizer._m.values())
        assert all(v.dtype == np.float64 for v in optimizer._v.values())

    def test_empty_parameter_list_rejected(self):
        with pytest.raises(ValueError):
            Adam([], lr=0.1)

    def test_invalid_learning_rate_rejected(self):
        with pytest.raises(ValueError):
            Adam([Parameter(np.zeros(2))], lr=0.0)

    def test_clip_grad_norm_scales_down(self):
        param = Parameter(np.zeros(4))
        param.grad = np.full(4, 10.0)
        norm = clip_grad_norm([param], max_norm=1.0)
        assert norm == pytest.approx(20.0)
        assert np.linalg.norm(param.grad) == pytest.approx(1.0)

    def test_clip_grad_norm_no_grads(self):
        assert clip_grad_norm([Parameter(np.zeros(3))], 1.0) == 0.0


class TestLosses:
    def test_cross_entropy_matches_manual(self):
        logits = np.array([[2.0, 1.0, 0.1]])
        manual = -np.log(np.exp(2.0) / np.exp([2.0, 1.0, 0.1]).sum())
        assert cross_entropy(Tensor(logits), np.array([0])).item() == pytest.approx(manual)

    def test_cross_entropy_batched_sequence(self):
        logits = Tensor(np.random.default_rng(0).standard_normal((2, 5, 7)))
        targets = np.random.default_rng(1).integers(0, 7, size=(2, 5))
        loss = cross_entropy(logits, targets)
        assert np.isfinite(loss.item())

    def test_cross_entropy_gradient_is_softmax_minus_onehot(self):
        logits = Tensor(np.array([[0.2, -0.3, 0.5]]), requires_grad=True)
        cross_entropy(logits, np.array([2])).backward()
        softmax = np.exp(logits.data) / np.exp(logits.data).sum()
        expected = softmax.copy()
        expected[0, 2] -= 1.0
        assert np.allclose(logits.grad, expected, atol=1e-9)

    def test_mse_loss(self):
        prediction = Tensor(np.array([1.0, 2.0]))
        assert mse_loss(prediction, np.array([0.0, 0.0])).item() == pytest.approx(2.5)

    def test_info_nce_prefers_aligned_pairs(self):
        rng = np.random.default_rng(0)
        anchor = Tensor(rng.standard_normal((6, 8)))
        aligned = info_nce(anchor, anchor * 1.0).item()
        shuffled = info_nce(anchor, Tensor(rng.standard_normal((6, 8)))).item()
        assert aligned < shuffled

    def test_info_nce_shape_mismatch(self):
        with pytest.raises(ValueError):
            info_nce(Tensor(np.zeros((3, 4))), Tensor(np.zeros((2, 4))))

    def test_masked_mse_only_counts_masked_cells(self):
        prediction = Tensor(np.zeros((2, 2)))
        target = np.array([[1.0, 100.0], [1.0, 100.0]])
        mask = np.array([[1.0, 0.0], [1.0, 0.0]])
        assert masked_mse_loss(prediction, target, mask).item() == pytest.approx(1.0)

    def test_unknown_reduction_rejected(self):
        with pytest.raises(ValueError):
            mse_loss(Tensor(np.zeros(2)), np.zeros(2), reduction="median")

    @given(st.integers(min_value=2, max_value=6), st.integers(min_value=0, max_value=2**31 - 1))
    @settings(max_examples=20, deadline=None)
    def test_cross_entropy_lower_bound(self, classes, seed):
        """Cross entropy is non-negative and at most log(C) for the uniform prediction."""
        rng = np.random.default_rng(seed)
        logits = Tensor(np.zeros((4, classes)))
        targets = rng.integers(0, classes, size=4)
        loss = cross_entropy(logits, targets).item()
        assert loss == pytest.approx(np.log(classes), abs=1e-9)
        sharp = Tensor(np.eye(classes)[targets] * 50.0)
        assert cross_entropy(sharp, targets).item() < loss
