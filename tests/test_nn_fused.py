"""Numerical equivalence of the fused engine kernels and the KV cache.

Every fused kernel (SDPA, cross-entropy, layer-norm, GELU, linear, row
gather, GAT attention) must match the composed formulation it replaced in both value
(atol 1e-6) and gradient (atol 1e-4), with gradients additionally checked
against central finite differences.  KV-cached decoding must reproduce the
full re-encoding logits exactly.
"""

from __future__ import annotations

import contextlib

import numpy as np
import pytest

from repro.eval.perfbench import reference_kernels
from repro.nn import functional as F
from repro.nn import losses
from repro.nn.attention import KVCache, MultiHeadAttention
from repro.nn.layers import LayerNorm, Linear
from repro.nn.tensor import Tensor, no_grad
from repro.nn.transformer import GPT2Config, GPT2Model

VALUE_ATOL = 1e-6
GRAD_ATOL = 1e-4


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


def scalarise(out: Tensor, weights: np.ndarray) -> Tensor:
    """Reduce a tensor to a scalar through fixed random weights."""
    return (out * Tensor(weights)).sum()


class TestFusedGelu:
    def test_value_and_grad_match_composed(self):
        rng = np.random.default_rng(0)
        data = rng.standard_normal((3, 7))
        fused_x = Tensor(data.copy(), requires_grad=True)
        fused_out = F.fused_gelu(fused_x)
        fused_out.sum().backward()
        composed_x = Tensor(data.copy(), requires_grad=True)
        composed_out = F.gelu_composed(composed_x)
        composed_out.sum().backward()
        legacy_out = Tensor(data.copy()).gelu()
        assert np.allclose(fused_out.data, composed_out.data, atol=VALUE_ATOL)
        assert np.allclose(fused_out.data, legacy_out.data, atol=VALUE_ATOL)
        assert np.allclose(fused_x.grad, composed_x.grad, atol=GRAD_ATOL)

    def test_grad_matches_finite_difference(self):
        rng = np.random.default_rng(1)
        data = rng.standard_normal((2, 5))
        weights = rng.standard_normal((2, 5))
        x = Tensor(data, requires_grad=True)
        scalarise(F.fused_gelu(x), weights).backward()
        numeric = finite_difference(lambda: float((F.fused_gelu(Tensor(data)).data * weights).sum()), data)
        assert np.allclose(x.grad, numeric, atol=GRAD_ATOL)


class TestFusedLayerNorm:
    def test_value_and_grad_match_composed(self):
        rng = np.random.default_rng(2)
        data = rng.standard_normal((4, 3, 6))
        weight = rng.standard_normal(6)
        bias = rng.standard_normal(6)
        grads = {}
        for name, fn in (("fused", F.fused_layer_norm), ("composed", F.layer_norm_composed)):
            x = Tensor(data.copy(), requires_grad=True)
            w = Tensor(weight.copy(), requires_grad=True)
            b = Tensor(bias.copy(), requires_grad=True)
            out = fn(x, w, b)
            out.sum().backward()
            grads[name] = (out.data, x.grad, w.grad, b.grad)
        for fused_part, composed_part in zip(grads["fused"], grads["composed"]):
            assert np.allclose(fused_part, composed_part, atol=GRAD_ATOL)
        assert np.allclose(grads["fused"][0], grads["composed"][0], atol=VALUE_ATOL)

    def test_grad_matches_finite_difference(self):
        rng = np.random.default_rng(3)
        data = rng.standard_normal((2, 4))
        weight = rng.standard_normal(4)
        bias = rng.standard_normal(4)
        mix = rng.standard_normal((2, 4))

        def value() -> float:
            out = F.fused_layer_norm(Tensor(data), Tensor(weight), Tensor(bias))
            return float((out.data * mix).sum())

        x = Tensor(data, requires_grad=True)
        w = Tensor(weight, requires_grad=True)
        b = Tensor(bias, requires_grad=True)
        scalarise(F.fused_layer_norm(x, w, b), mix).backward()
        assert np.allclose(x.grad, finite_difference(value, data), atol=GRAD_ATOL)
        assert np.allclose(w.grad, finite_difference(value, weight), atol=GRAD_ATOL)
        assert np.allclose(b.grad, finite_difference(value, bias), atol=GRAD_ATOL)

    def test_layer_norm_module_dispatches(self):
        rng = np.random.default_rng(4)
        data = rng.standard_normal((3, 8))
        layer = LayerNorm(8)
        fused_out = layer(Tensor(data)).data
        with reference_kernels():
            composed_out = layer(Tensor(data)).data
        assert np.allclose(fused_out, composed_out, atol=VALUE_ATOL)


class TestFusedCrossEntropy:
    @pytest.mark.parametrize("reduction", ["mean", "sum", "none"])
    def test_value_and_grad_match_composed(self, reduction):
        rng = np.random.default_rng(5)
        logits = rng.standard_normal((6, 9))
        targets = rng.integers(0, 9, size=6)
        results = {}
        for name, kernels in (("fused", contextlib.nullcontext), ("composed", reference_kernels)):
            with kernels():
                t = Tensor(logits.copy(), requires_grad=True)
                loss = losses.cross_entropy(t, targets, reduction=reduction)
                loss.backward(np.ones_like(loss.data))
                results[name] = (loss.data, t.grad)
        assert np.allclose(results["fused"][0], results["composed"][0], atol=VALUE_ATOL)
        assert np.allclose(results["fused"][1], results["composed"][1], atol=GRAD_ATOL)

    def test_grad_matches_finite_difference(self):
        rng = np.random.default_rng(6)
        logits = rng.standard_normal((4, 5))
        targets = rng.integers(0, 5, size=4)
        t = Tensor(logits, requires_grad=True)
        F.fused_cross_entropy(t, targets).backward()
        numeric = finite_difference(
            lambda: float(F.fused_cross_entropy(Tensor(logits), targets).data), logits
        )
        assert np.allclose(t.grad, numeric, atol=GRAD_ATOL)

    @pytest.mark.parametrize("reduction", ["mean", "sum", "none"])
    def test_batched_leading_shape(self, reduction):
        rng = np.random.default_rng(7)
        logits = rng.standard_normal((2, 3, 4))
        targets = rng.integers(0, 4, size=(2, 3))
        fused = losses.cross_entropy(Tensor(logits), targets, reduction=reduction).data
        with reference_kernels():
            composed = losses.cross_entropy(Tensor(logits), targets, reduction=reduction).data
        assert fused.shape == composed.shape
        assert np.allclose(fused, composed, atol=VALUE_ATOL)


class TestFusedLinear:
    def test_value_and_grad_match_composed(self):
        rng = np.random.default_rng(8)
        data = rng.standard_normal((3, 4, 5))
        layer = Linear(5, 7, rng=rng)
        results = {}
        for name, kernels in (("fused", contextlib.nullcontext), ("composed", reference_kernels)):
            with kernels():
                for parameter in layer.parameters():
                    parameter.zero_grad()
                x = Tensor(data.copy(), requires_grad=True)
                out = layer(x)
                out.sum().backward()
                results[name] = (out.data, x.grad, layer.weight.grad, layer.bias.grad)
        assert np.allclose(results["fused"][0], results["composed"][0], atol=VALUE_ATOL)
        for fused_grad, composed_grad in zip(results["fused"][1:], results["composed"][1:]):
            assert np.allclose(fused_grad, composed_grad, atol=GRAD_ATOL)


class TestScaledDotProductAttention:
    @staticmethod
    def _composed_reference(q, k, v, mask, scale):
        scores = q.matmul(k.transpose(0, 1, 3, 2)) * scale
        if mask is not None:
            scores = scores.masked_fill(mask, -1e9)
        return scores.softmax(axis=-1).matmul(v)

    @pytest.mark.parametrize("use_mask", [False, True])
    def test_value_and_grad_match_composed(self, use_mask):
        rng = np.random.default_rng(9)
        shape = (2, 2, 5, 3)
        q_data, k_data, v_data = (rng.standard_normal(shape) for _ in range(3))
        mask = np.triu(np.ones((5, 5), dtype=bool), k=1)[None, None] if use_mask else None
        scale = 1.0 / np.sqrt(3)
        grad_out = rng.standard_normal(shape)
        results = {}
        for name in ("fused", "composed"):
            q = Tensor(q_data.copy(), requires_grad=True)
            k = Tensor(k_data.copy(), requires_grad=True)
            v = Tensor(v_data.copy(), requires_grad=True)
            if name == "fused":
                out = F.scaled_dot_product_attention(q, k, v, mask=mask, scale=scale)
            else:
                with reference_kernels():
                    out = self._composed_reference(q, k, v, mask, scale)
            out.backward(grad_out)
            results[name] = (out.data, q.grad, k.grad, v.grad)
        assert np.allclose(results["fused"][0], results["composed"][0], atol=VALUE_ATOL)
        for fused_grad, composed_grad in zip(results["fused"][1:], results["composed"][1:]):
            assert np.allclose(fused_grad, composed_grad, atol=GRAD_ATOL)

    def test_grad_matches_finite_difference(self):
        rng = np.random.default_rng(10)
        shape = (1, 1, 4, 2)
        q_data, k_data, v_data = (rng.standard_normal(shape) for _ in range(3))
        mix = rng.standard_normal(shape)
        mask = np.triu(np.ones((4, 4), dtype=bool), k=1)[None, None]

        def value() -> float:
            out = F.scaled_dot_product_attention(Tensor(q_data), Tensor(k_data), Tensor(v_data), mask=mask)
            return float((out.data * mix).sum())

        q = Tensor(q_data, requires_grad=True)
        k = Tensor(k_data, requires_grad=True)
        v = Tensor(v_data, requires_grad=True)
        scalarise(F.scaled_dot_product_attention(q, k, v, mask=mask), mix).backward()
        assert np.allclose(q.grad, finite_difference(value, q_data), atol=GRAD_ATOL)
        assert np.allclose(k.grad, finite_difference(value, k_data), atol=GRAD_ATOL)
        assert np.allclose(v.grad, finite_difference(value, v_data), atol=GRAD_ATOL)

    @pytest.mark.parametrize("length", [130, 192, 256])
    def test_block_causal_matches_masked(self, length):
        """The block-causal kernel must equal the full masked formulation."""
        rng = np.random.default_rng(11)
        shape = (2, 2, length, 4)
        q_data, k_data, v_data = (rng.standard_normal(shape) for _ in range(3))
        grad_out = rng.standard_normal(shape)
        mask = np.triu(np.ones((length, length), dtype=bool), k=1)[None, None]
        results = {}
        for name, kwargs in (("blocked", {"is_causal": True}), ("masked", {"mask": mask})):
            q = Tensor(q_data.copy(), requires_grad=True)
            k = Tensor(k_data.copy(), requires_grad=True)
            v = Tensor(v_data.copy(), requires_grad=True)
            out = F.scaled_dot_product_attention(q, k, v, **kwargs)
            out.backward(grad_out)
            results[name] = (out.data, q.grad, k.grad, v.grad)
        for blocked_part, masked_part in zip(results["blocked"], results["masked"]):
            assert np.allclose(blocked_part, masked_part, atol=1e-9)

    def test_attention_module_paths_agree(self):
        """MultiHeadAttention output is identical on both engine paths."""
        rng = np.random.default_rng(12)
        attention = MultiHeadAttention(16, 4, causal=True, rng=rng)
        attention.eval()
        x = rng.standard_normal((2, 9, 16))
        padding = np.zeros((2, 9), dtype=bool)
        padding[1, 6:] = True
        fused_out = attention(Tensor(x), padding_mask=padding).data
        with reference_kernels():
            composed_out = attention(Tensor(x), padding_mask=padding).data
        assert np.allclose(fused_out, composed_out, atol=VALUE_ATOL)


class TestGraphAttention:
    @staticmethod
    def _run(fused: bool, src: np.ndarray, dst: np.ndarray, blocked: np.ndarray, weights: np.ndarray):
        src_t = Tensor(src.copy(), requires_grad=True)
        dst_t = Tensor(dst.copy(), requires_grad=True)
        with contextlib.nullcontext() if fused else reference_kernels():
            out = F.graph_attention(src_t, dst_t, blocked, 0.2)
        scalarise(out, weights).backward()
        return out.data, src_t.grad, dst_t.grad

    @pytest.mark.parametrize("leading", [(), (3,)])
    def test_same_bits_as_composed(self, leading):
        """One node runs the composed chain's arithmetic: equal values and gradients."""
        rng = np.random.default_rng(0)
        src = rng.standard_normal(leading + (6, 1))
        dst = rng.standard_normal(leading + (6, 1))
        blocked = rng.random((6, 6)) < 0.5
        np.fill_diagonal(blocked, False)
        weights = rng.standard_normal(leading + (6, 6))
        for fused_part, composed_part in zip(self._run(True, src, dst, blocked, weights),
                                             self._run(False, src, dst, blocked, weights)):
            np.testing.assert_array_equal(fused_part, composed_part)

    def test_grad_matches_finite_difference(self):
        rng = np.random.default_rng(1)
        src = rng.standard_normal((2, 4, 1))
        dst = rng.standard_normal((2, 4, 1))
        blocked = np.eye(4, dtype=bool)[::-1]
        weights = rng.standard_normal((2, 4, 4))
        _, src_grad, dst_grad = self._run(True, src, dst, blocked, weights)

        def loss():
            with no_grad():
                return float(scalarise(F.graph_attention(Tensor(src), Tensor(dst), blocked, 0.2), weights).data)

        assert np.allclose(src_grad, finite_difference(loss, src), atol=GRAD_ATOL)
        assert np.allclose(dst_grad, finite_difference(loss, dst), atol=GRAD_ATOL)


class TestGatherRows:
    def test_value_and_grad(self):
        rng = np.random.default_rng(13)
        data = rng.standard_normal((3, 5, 4))
        batch_idx = [0, 1, 1, 2]
        row_idx = [4, 0, 2, 2]
        x = Tensor(data, requires_grad=True)
        out = F.gather_rows(x, batch_idx, row_idx)
        assert np.allclose(out.data, data[batch_idx, row_idx], atol=VALUE_ATOL)
        grad_out = rng.standard_normal(out.shape)
        out.backward(grad_out)
        expected = np.zeros_like(data)
        np.add.at(expected, (np.asarray(batch_idx), np.asarray(row_idx)), grad_out)
        assert np.allclose(x.grad, expected, atol=GRAD_ATOL)

    def test_duplicate_rows_accumulate(self):
        data = np.arange(8, dtype=np.float64).reshape(1, 4, 2)
        x = Tensor(data, requires_grad=True)
        out = F.gather_rows(x, [0, 0], [1, 1])
        out.sum().backward()
        assert np.allclose(x.grad[0, 1], [2.0, 2.0])


class TestCachedCausalMask:
    def test_no_mask_when_nothing_hidden(self):
        assert F.cached_causal_mask(1, 7, offset=6) is None

    def test_mask_matches_triu(self):
        mask = F.cached_causal_mask(5, 5)
        assert np.array_equal(mask[0, 0], np.triu(np.ones((5, 5), dtype=bool), k=1))

    def test_offset_semantics(self):
        mask = F.cached_causal_mask(2, 6, offset=4)
        # query 0 sits at absolute position 4: keys 5.. are hidden
        assert list(mask[0, 0, 0]) == [False] * 5 + [True]
        assert list(mask[0, 0, 1]) == [False] * 6

    def test_cache_returns_same_object(self):
        first = F.cached_causal_mask(3, 3)
        second = F.cached_causal_mask(3, 3)
        assert first is second
        assert not first.flags.writeable


class TestKVCache:
    def test_append_and_reset(self):
        cache = KVCache()
        keys = np.ones((1, 2, 3, 4))
        full_k, full_v = cache.append(keys, keys * 2)
        assert cache.length == 3
        assert full_k.shape == (1, 2, 3, 4)
        cache.append(np.full((1, 2, 1, 4), 5.0), np.full((1, 2, 1, 4), 6.0))
        assert cache.length == 4
        cache.reset()
        assert cache.length == 0

    def test_batch_shape_mismatch_raises(self):
        cache = KVCache()
        cache.append(np.ones((2, 2, 3, 4)), np.ones((2, 2, 3, 4)))
        with pytest.raises(ValueError, match="new_caches"):
            cache.append(np.ones((1, 2, 1, 4)), np.ones((1, 2, 1, 4)))
        # After an explicit reset a new batch shape is a fresh session.
        cache.reset()
        cache.append(np.ones((1, 2, 1, 4)), np.ones((1, 2, 1, 4)))
        assert cache.length == 1

    @pytest.mark.parametrize("path", ["array_pass", "module_path", "composed"])
    def test_cached_decode_matches_full_recompute(self, path):
        """Incremental KV-cached decoding equals re-encoding from scratch.

        Under ``no_grad`` the fused engine decodes through the backbone's
        array pass; with the plan switched off, or inside
        ``reference_kernels()``, it takes the module path, whose attention
        layers append to the cache.
        """
        config = GPT2Config(d_model=16, num_layers=2, num_heads=2, max_position=64, seed=0)
        model = GPT2Model(config)
        model.eval()
        if path == "module_path":
            model._inference_plan = lambda: None
        rng = np.random.default_rng(14)
        embeddings = rng.standard_normal((1, 10, 16))
        with no_grad(), reference_kernels() if path == "composed" else contextlib.nullcontext():
            assert (model._inference_plan() is not None) == (path == "array_pass")
            full = model(Tensor(embeddings)).data
            caches = model.new_caches()
            cached_rows = [model(Tensor(embeddings[:, :4]), caches=caches).data]
            for position in range(4, 10):
                step = embeddings[:, position : position + 1]
                cached_rows.append(model(Tensor(step), caches=caches).data)
        incremental = np.concatenate(cached_rows, axis=1)
        assert np.allclose(incremental, full, atol=1e-9)

    def test_cache_requires_no_grad(self):
        config = GPT2Config(d_model=8, num_layers=1, num_heads=2, max_position=16, seed=0)
        model = GPT2Model(config)
        model.eval()
        caches = model.new_caches()
        with pytest.raises(RuntimeError, match="no_grad"):
            model(Tensor(np.zeros((1, 2, 8))), caches=caches)

    def test_cache_rejects_cross_attention(self):
        attention = MultiHeadAttention(8, 2)
        with no_grad():
            with pytest.raises(ValueError, match="self-attention"):
                attention(
                    Tensor(np.zeros((1, 2, 8))),
                    key_value=Tensor(np.zeros((1, 3, 8))),
                    cache=KVCache(),
                )


class TestRolloutEquivalence:
    def test_rollout_cached_equals_recompute(self, untrained_model, tiny_dataset):
        trajectory = tiny_dataset.train_trajectories[0]
        untrained_model.eval()
        cached = untrained_model.rollout_next_hops_batch([trajectory], steps=4, use_cache=True)[0]
        recomputed = untrained_model.rollout_next_hops_batch([trajectory], steps=4, use_cache=False)[0]
        assert np.array_equal(cached, recomputed)
        assert cached.shape == (4,)
