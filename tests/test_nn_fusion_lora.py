"""Generated-input oracles of the fusion-rows and LoRA tape nodes.

``F.cross_attention_rows`` computes the tokenizer's fusion attention for
the requested ``(slice, segment)`` rows only, each as its own one-row
product, and ``F.lora_linear`` runs an unmerged LoRA layer as one tape
node.  The claims pinned here:

* any subset of fusion rows (one row, duplicates, every row, rows over
  many slices) equals the full table's rows bit for bit, on the fused
  kernels and inside ``reference_kernels()``;
* the per-row fusion, on either kernel set, matches the N-row-GEMM
  formulation it replaced up to rounding;
* both fused nodes equal their composed twins bit for bit, with gradients
  equal up to summation order and matching central finite differences;
* ops that hand a fresh gradient buffer to their parent give the same
  gradients as the copying path.
"""

from __future__ import annotations

import contextlib

import numpy as np
import pytest

from repro.eval.perfbench import reference_kernels
from repro.nn import functional as F
from repro.nn.attention import CrossAttentionPool
from repro.nn.layers import Linear
from repro.nn.lora import LoRALinear, attach_lora, mark_only_lora_trainable
from repro.nn.tensor import Tensor
from repro.nn.transformer import GPT2Config, GPT2Model


def old_fusion(pool: CrossAttentionPool, h: np.ndarray) -> np.ndarray:
    """The fusion as the N-row GEMMs of one ``(S, N, D)`` pass (the formulation the per-row node replaced)."""
    queries = h @ pool.query_proj.weight.data.T + pool.query_proj.bias.data
    scores = (queries @ np.swapaxes(h, -1, -2)) * (1.0 / np.sqrt(2.0 * pool.d_model))
    scores = np.exp(scores - scores.max(axis=-1, keepdims=True))
    return h + (scores / scores.sum(axis=-1, keepdims=True)) @ h


def finite_difference(f, array: np.ndarray, eps: float = 1e-6) -> np.ndarray:
    """Central-difference gradient of scalar ``f()`` w.r.t. ``array`` in place."""
    grad = np.zeros_like(array)
    flat, grad_flat = array.reshape(-1), grad.reshape(-1)
    for index in range(flat.size):
        original = flat[index]
        flat[index] = original + eps
        upper = f()
        flat[index] = original - eps
        lower = f()
        flat[index] = original
        grad_flat[index] = (upper - lower) / (2 * eps)
    return grad


def assert_grads_close(actual, expected):
    """Gradients equal up to summation order: rtol 1e-12 and atol 1e-12 x the global max."""
    tolerance = 1e-12
    assert actual.keys() == expected.keys()
    scale = max(np.abs(grad).max() for grad in expected.values())
    for key, grad in expected.items():
        np.testing.assert_allclose(actual[key], grad, rtol=tolerance, atol=tolerance * scale, err_msg=key)


def _pool_and_table(seed: int, slices: int = 5, segments: int = 11, dim: int = 6):
    rng = np.random.default_rng(seed)
    pool = CrossAttentionPool(dim, rng=rng)
    pool.query_proj.bias.data = rng.standard_normal(dim) * 0.1
    return pool, rng.standard_normal((slices, segments, dim)), rng


def _row_subsets(rng, slices: int, segments: int):
    """``(slices, rows)`` index pairs: one row, duplicates, every row, rows over many slices."""
    every = np.arange(slices * segments)
    many = rng.integers(0, slices * segments, size=3 * segments)
    one = rng.integers(0, slices * segments, size=1)
    duplicates = np.concatenate([one, many[:4], one, many[:2]])
    for flat in (one, duplicates, every, rng.permutation(every), many):
        yield flat // segments, flat % segments


class TestFusionRows:
    @pytest.mark.parametrize("fused", [True, False])
    @pytest.mark.parametrize("seed", range(3))
    def test_any_row_subset_equals_the_full_table(self, seed, fused):
        pool, h, rng = _pool_and_table(seed)
        table = Tensor(h)
        with contextlib.nullcontext() if fused else reference_kernels():
            full = pool(table).data
            assert full.shape == h.shape and full.dtype == np.float64
            for slices, rows in _row_subsets(rng, *h.shape[:2]):
                np.testing.assert_array_equal(pool(table, slices, rows).data, full[slices, rows])
            # A 2-D table is one slice, its rows computed the same way.
            np.testing.assert_array_equal(pool(Tensor(h[3])).data, full[3])

    @pytest.mark.parametrize("fused", [True, False])
    def test_matches_the_n_row_gemm_formulation(self, fused):
        rtol = 1e-12
        pool, h, _ = _pool_and_table(3, slices=4, segments=30, dim=12)
        table = Tensor(h)
        with contextlib.nullcontext() if fused else reference_kernels():
            fusion = pool(table).data
        np.testing.assert_allclose(fusion, old_fusion(pool, table.data), rtol=rtol, atol=rtol)

    def test_fused_equals_composed(self):
        pool, h, rng = _pool_and_table(4)
        slices, rows = list(_row_subsets(rng, *h.shape[:2]))[1]
        weights = rng.standard_normal((len(slices), h.shape[-1]))

        def run():
            pool.zero_grad()
            table = Tensor(h, requires_grad=True)
            out = pool(table, slices, rows)
            (out * Tensor(weights)).sum().backward()
            grads = {name: p.grad for name, p in pool.named_parameters()}
            grads["h"] = table.grad
            return out.data, grads

        fused, fused_grads = run()
        with reference_kernels():
            composed, composed_grads = run()
        assert fused.dtype == composed.dtype == np.float64
        np.testing.assert_array_equal(fused, composed)
        assert_grads_close(fused_grads, composed_grads)

    def test_records_one_tape_node(self):
        pool, h, _ = _pool_and_table(5)
        table = Tensor(h, requires_grad=True)
        out = pool(table, np.array([0, 4, 4]), np.array([2, 2, 7]))
        assert out.shape == (3, h.shape[-1])
        assert set(map(id, out._parents)) == {id(table), id(pool.query_proj.weight), id(pool.query_proj.bias)}

    def test_grad_matches_finite_difference(self):
        pool, h, rng = _pool_and_table(6, slices=2, segments=4, dim=3)
        slices, rows = np.array([1, 0, 1, 1]), np.array([3, 0, 0, 3])
        weights = rng.standard_normal((len(slices), 3))
        table = Tensor(h, requires_grad=True)
        (pool(table, slices, rows) * Tensor(weights)).sum().backward()

        def loss() -> float:
            return float((pool(Tensor(h), slices, rows).data * weights).sum())

        np.testing.assert_allclose(table.grad, finite_difference(loss, h), rtol=1e-6, atol=1e-7)
        weight = pool.query_proj.weight
        np.testing.assert_allclose(weight.grad, finite_difference(loss, weight.data), rtol=1e-6, atol=1e-7)
        bias = pool.query_proj.bias
        np.testing.assert_allclose(bias.grad, finite_difference(loss, bias.data), rtol=1e-6, atol=1e-7)


def _lora_layer(seed: int, frozen_base: bool) -> LoRALinear:
    rng = np.random.default_rng(seed)
    layer = LoRALinear(Linear(7, 5, rng=rng), rank=3, alpha=6.0, rng=rng)
    layer.lora_b.data = rng.standard_normal(layer.lora_b.shape)
    layer.base.bias.data = rng.standard_normal(5)
    if not frozen_base:
        layer.base.weight.requires_grad = True
        layer.base.bias.requires_grad = True
    return layer


def _parameter_grads(module, x: Tensor) -> dict:
    grads = {name: p.grad for name, p in module.named_parameters() if p.grad is not None}
    grads["x"] = x.grad
    return grads


class TestLoRANode:
    @pytest.mark.parametrize("frozen_base", [True, False])
    @pytest.mark.parametrize("shape", [(6, 7), (2, 4, 7)])
    def test_fused_equals_composed(self, frozen_base, shape):
        layer = _lora_layer(0, frozen_base)
        rng = np.random.default_rng(1)
        data = rng.standard_normal(shape)
        weights = rng.standard_normal(shape[:-1] + (5,))

        def run():
            layer.zero_grad()
            x = Tensor(data, requires_grad=True)
            out = layer(x)
            (out * Tensor(weights)).sum().backward()
            return out.data, _parameter_grads(layer, x)

        fused, fused_grads = run()
        with reference_kernels():
            composed, composed_grads = run()
        assert fused.dtype == np.float64
        np.testing.assert_array_equal(fused, composed)
        assert ("base.weight" in fused_grads) == (not frozen_base)
        assert_grads_close(fused_grads, composed_grads)

    def test_records_one_tape_node(self):
        layer = _lora_layer(2, frozen_base=True)
        x = Tensor(np.ones((3, 7)), requires_grad=True)
        out = layer(x)
        assert out._parents[0] is x and {id(p) for p in out._parents[1:]} >= {id(layer.lora_a), id(layer.lora_b)}
        assert all(parent._backward is None for parent in out._parents)

    def test_grad_matches_finite_difference(self):
        layer = _lora_layer(3, frozen_base=False)
        rng = np.random.default_rng(4)
        data = rng.standard_normal((2, 3, 7))
        weights = rng.standard_normal((2, 3, 5))
        x = Tensor(data, requires_grad=True)
        (layer(x) * Tensor(weights)).sum().backward()

        def loss() -> float:
            return float((layer(Tensor(data)).data * weights).sum())

        np.testing.assert_allclose(x.grad, finite_difference(loss, data), rtol=1e-6, atol=1e-7)
        for param in (layer.lora_a, layer.lora_b, layer.base.weight, layer.base.bias):
            np.testing.assert_allclose(param.grad, finite_difference(loss, param.data), rtol=1e-6, atol=1e-7)

    @pytest.mark.parametrize("coverage", [1.0, 0.5])
    def test_backbone_fused_equals_composed(self, coverage):
        rng = np.random.default_rng(5)
        model = GPT2Model(GPT2Config(d_model=16, num_layers=2, num_heads=2, max_position=16, seed=5))
        wrapped = attach_lora(model, rank=4, coverage=coverage, rng=rng)
        assert len(wrapped) == (10 if coverage == 1.0 else 5)
        mark_only_lora_trainable(model)
        for layer in model.modules():
            if isinstance(layer, LoRALinear):
                layer.lora_b.data = rng.standard_normal(layer.lora_b.shape) * 0.1
        data = rng.standard_normal((2, 6, 16))
        weights = rng.standard_normal((2, 6, 16))

        def run():
            model.zero_grad()
            x = Tensor(data, requires_grad=True)
            out = model(x)
            (out * Tensor(weights)).sum().backward()
            return out.data, _parameter_grads(model, x)

        fused, fused_grads = run()
        with reference_kernels():
            composed, composed_grads = run()
        assert any(".lora_a" in key for key in fused_grads)
        assert not any(key.endswith("base.weight") for key in fused_grads)
        # The LoRA layers give the same bits on both paths, the rest of the
        # stack matches its composed kernels up to rounding.
        np.testing.assert_allclose(fused, composed, rtol=1e-10, atol=1e-10)
        scale = max(np.abs(grad).max() for grad in composed_grads.values())
        for key, grad in composed_grads.items():
            np.testing.assert_allclose(fused_grads[key], grad, rtol=1e-8, atol=1e-10 * scale, err_msg=key)


class TestOwnedGradients:
    def test_fresh_buffers_give_the_copying_path_gradients(self, monkeypatch):
        rng = np.random.default_rng(7)
        leaves = {name: rng.standard_normal(shape) for name, shape in [("a", (4, 5)), ("b", (5,)), ("c", (4, 5)), ("e", (3, 4, 5))]}
        mask = rng.random((4, 5)) < 0.3

        def grads():
            tensors = {name: Tensor(value.copy(), requires_grad=True) for name, value in leaves.items()}
            a, b, c, e = (tensors[name] for name in "abce")
            h = (a * b - c / (b.abs() + 1.0)) ** 2
            h = -h.tanh() + a.sigmoid() * c.exp().log() + (c * c + 1.0).sqrt()
            h = h.relu() + h.leaky_relu(0.1) + F.gelu(h) + h.clip(-0.5, 0.5)
            h = h.masked_fill(mask, 0.0).log_softmax(axis=-1) + h.max(axis=1, keepdims=True)
            picked = h[np.array([0, 2, 2])] + e[1, :3] + e.index_select(np.array([1, 0, 1]), axis=1).sum(axis=0)
            # ``a + c`` comes first, so its backward runs before any other
            # consumer of ``a`` or ``c``: both take their first gradient from it.
            loss = (a + c).sum() + (picked * picked).sum() + (h * e).sum() + b.index_select(np.array([4, 4, 0])).sum()
            loss.backward()
            return {name: t.grad for name, t in tensors.items()}

        owned = grads()
        monkeypatch.setattr(Tensor, "_accumulate_owned", Tensor._accumulate)
        copied = grads()
        assert owned.keys() == copied.keys()
        for name, grad in copied.items():
            np.testing.assert_array_equal(owned[name], grad, err_msg=name)
