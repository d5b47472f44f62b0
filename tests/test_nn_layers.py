"""Tests for standard layers, attention, transformer, GAT, GRU."""

from __future__ import annotations

import contextlib

import numpy as np
import pytest

from repro.eval.perfbench import reference_kernels
from repro.nn import (
    Embedding,
    GAT,
    GELU,
    GPT2Config,
    GPT2Model,
    GRU,
    LayerNorm,
    Linear,
    MLP,
    MultiHeadAttention,
    CrossAttentionPool,
    TransformerEncoder,
    cross_entropy,
    Adam,
)
from repro.nn.gat import GraphAttentionLayer, normalized_adjacency, random_walk_matrix
from repro.nn import functional as F
from repro.nn.tensor import Tensor


class TestLinearAndMLP:
    def test_linear_shapes_and_grad(self):
        layer = Linear(4, 3, rng=np.random.default_rng(0))
        out = layer(Tensor(np.ones((5, 4))))
        assert out.shape == (5, 3)
        out.sum().backward()
        assert layer.weight.grad.shape == (3, 4)
        assert layer.bias.grad.shape == (3,)

    def test_linear_without_bias(self):
        layer = Linear(4, 3, bias=False)
        assert layer.bias is None
        assert layer(Tensor(np.zeros((2, 4)))).shape == (2, 3)

    def test_linear_batched_3d_input(self):
        layer = Linear(4, 3)
        assert layer(Tensor(np.ones((2, 5, 4)))).shape == (2, 5, 3)

    def test_mlp_hidden_layers_and_activation(self):
        mlp = MLP(4, [8, 8], 2)
        assert mlp(Tensor(np.ones((3, 4)))).shape == (3, 2)

    @staticmethod
    def _grads(mlp, inputs, run):
        mlp.zero_grad()
        x = Tensor(inputs, requires_grad=True)
        out = run(x)
        out.backward(np.cos(np.arange(out.data.size, dtype=np.float64)).reshape(out.shape))
        return out.data, x.grad, [p.grad.copy() for p in mlp.parameters()]

    @pytest.mark.parametrize("fused", [True, False])
    @pytest.mark.parametrize("groups", [[(0, 1)], [(0, 3), (3, 4), (4, 7)], [(0, 2), (2, 7)]])
    def test_row_groups_equal_one_call_per_group_bit_for_bit(self, fused, groups):
        # Gradients of the separate calls accumulate call by call, in order:
        # the grouped call must sum its weight gradients the same way.
        mlp = MLP(4, [6], 3, rng=np.random.default_rng(1))
        inputs = np.random.default_rng(2).standard_normal((groups[-1][1], 4))

        def separate(x):
            return Tensor.concat([mlp(x[start:stop]) for start, stop in groups], axis=0)

        with contextlib.nullcontext() if fused else reference_kernels():
            grouped = self._grads(mlp, inputs, lambda x: mlp(x, groups))
            expected = self._grads(mlp, inputs, separate)
        np.testing.assert_array_equal(grouped[0], expected[0])
        np.testing.assert_array_equal(grouped[1], expected[1])
        for got, want in zip(grouped[2], expected[2]):
            np.testing.assert_array_equal(got, want)

    def test_fused_mlp_is_one_node_with_the_layerwise_values(self):
        mlp = MLP(4, [6, 5], 3, rng=np.random.default_rng(3))
        inputs = np.random.default_rng(4).standard_normal((2, 3, 4))
        fused = self._grads(mlp, inputs, mlp)
        layerwise = self._grads(mlp, inputs, mlp.layers)
        assert len(mlp(Tensor(inputs, requires_grad=True))._parents) == 1 + len(mlp.parameters())
        np.testing.assert_array_equal(fused[0], layerwise[0])
        np.testing.assert_array_equal(fused[1], layerwise[1])
        for got, want in zip(fused[2], layerwise[2]):
            np.testing.assert_array_equal(got, want)

    def test_a_replaced_layer_takes_the_module_path(self):
        # A layer swapped for another module (here a LoRA wrapper) must still
        # run: the fused node only covers plain Linear / GELU stacks.
        from repro.nn.lora import LoRALinear

        mlp = MLP(4, [6], 3, rng=np.random.default_rng(5))
        x = Tensor(np.random.default_rng(6).standard_normal((5, 4)))
        lora = LoRALinear(mlp.layers[2], rank=2, rng=np.random.default_rng(7))
        lora.lora_b.data = np.random.default_rng(8).standard_normal(lora.lora_b.shape)
        mlp.layers._items[2] = lora
        expected = lora(mlp.layers[1](mlp.layers[0](x))).data
        np.testing.assert_array_equal(mlp(x).data, expected)
        np.testing.assert_array_equal(
            mlp(x, [(0, 2), (2, 5)]).data,
            np.concatenate([lora(mlp.layers[1](mlp.layers[0](x[a:b]))).data for a, b in [(0, 2), (2, 5)]]),
        )


class TestEmbedding:
    def test_lookup_shape(self):
        emb = Embedding(10, 6)
        assert emb(np.array([[1, 2], [3, 4]])).shape == (2, 2, 6)

    def test_out_of_range_raises(self):
        emb = Embedding(10, 6)
        with pytest.raises(IndexError):
            emb(np.array([10]))

    def test_gradient_accumulates_per_row(self):
        emb = Embedding(5, 3)
        out = emb(np.array([1, 1, 2]))
        out.sum().backward()
        assert np.allclose(emb.weight.grad[1], 2.0)
        assert np.allclose(emb.weight.grad[2], 1.0)
        assert np.allclose(emb.weight.grad[0], 0.0)


class TestNormalisation:
    def test_layernorm_normalises_last_axis(self):
        layer = LayerNorm(8)
        out = layer(Tensor(np.random.default_rng(0).standard_normal((4, 8)) * 10 + 3)).data
        assert np.allclose(out.mean(axis=-1), 0.0, atol=1e-6)
        assert np.allclose(out.std(axis=-1), 1.0, atol=1e-2)

    def test_layernorm_scale_shift_parameters(self):
        layer = LayerNorm(4)
        layer.weight.data = np.full(4, 2.0)
        layer.bias.data = np.full(4, 1.0)
        out = layer(Tensor(np.random.default_rng(1).standard_normal((3, 4)))).data
        assert np.allclose(out.mean(axis=-1), 1.0, atol=1e-6)


class TestAttention:
    def test_self_attention_shape(self):
        attn = MultiHeadAttention(16, 4)
        out = attn(Tensor(np.random.default_rng(0).standard_normal((2, 5, 16))))
        assert out.shape == (2, 5, 16)

    def test_rejects_indivisible_heads(self):
        with pytest.raises(ValueError):
            MultiHeadAttention(10, 3)

    def test_causal_masking_blocks_future(self):
        """Changing a future position must not change earlier outputs."""
        attn = MultiHeadAttention(8, 2, causal=True, rng=np.random.default_rng(0))
        attn.eval()
        x = np.random.default_rng(1).standard_normal((1, 4, 8))
        out_a = attn(Tensor(x)).data.copy()
        x_mod = x.copy()
        x_mod[0, 3] += 10.0
        out_b = attn(Tensor(x_mod)).data
        assert np.allclose(out_a[0, :3], out_b[0, :3], atol=1e-9)
        assert not np.allclose(out_a[0, 3], out_b[0, 3])

    def test_padding_mask_excludes_positions(self):
        attn = MultiHeadAttention(8, 2, rng=np.random.default_rng(0))
        attn.eval()
        x = np.random.default_rng(2).standard_normal((1, 4, 8))
        mask = np.array([[False, False, True, True]])
        out_a = attn(Tensor(x), padding_mask=mask).data.copy()
        x_mod = x.copy()
        x_mod[0, 3] += 5.0  # padded position: should not matter
        out_b = attn(Tensor(x_mod), padding_mask=mask).data
        assert np.allclose(out_a[0, :2], out_b[0, :2], atol=1e-9)

    def test_attention_weights_normalised(self):
        rng = np.random.default_rng(3)
        q, k, v = (rng.standard_normal((2, 2, 5, 4)) for _ in range(3))
        mask = np.zeros((2, 1, 1, 5), dtype=bool)
        mask[1, ..., 3:] = True  # the second row's last two keys are padding
        _, _, _, weights = F.sdpa_forward(q, k, v, mask)
        assert np.allclose(weights.sum(axis=-1), 1.0)
        assert np.all(weights[1, ..., 3:] == 0.0) and np.all(weights[0] > 0.0)

    @pytest.mark.parametrize("fused", [True, False])
    def test_graph_attention_weights_normalised(self, fused):
        rng = np.random.default_rng(5)
        src, dst = rng.standard_normal((2, 3, 6, 1))
        blocked = rng.random((6, 6)) < 0.4
        np.fill_diagonal(blocked, False)
        with contextlib.nullcontext() if fused else reference_kernels():
            weights = F.graph_attention(Tensor(src), Tensor(dst), blocked, 0.2).data
        assert np.allclose(weights.sum(axis=-1), 1.0)
        assert np.all(weights[:, blocked] == 0.0) and np.all(weights[:, ~blocked] > 0.0)

    def test_cross_attention_different_lengths(self):
        attn = MultiHeadAttention(8, 2)
        query = Tensor(np.random.default_rng(4).standard_normal((1, 3, 8)))
        memory = Tensor(np.random.default_rng(5).standard_normal((1, 6, 8)))
        assert attn(query, key_value=memory).shape == (1, 3, 8)

    def test_causal_cross_attention_rejected(self):
        attn = MultiHeadAttention(8, 2, causal=True)
        query = Tensor(np.zeros((1, 3, 8)))
        memory = Tensor(np.zeros((1, 5, 8)))
        with pytest.raises(ValueError):
            attn(query, key_value=memory)

    def test_fusion_pool_keeps_identity_via_residual(self):
        pool = CrossAttentionPool(6, rng=np.random.default_rng(0))
        h = np.random.default_rng(1).standard_normal((5, 6))
        out = pool(Tensor(h)).data
        assert out.shape == (5, 6)
        # Residual means distinct inputs stay distinct even with uniform attention.
        assert np.std(out - out.mean(axis=0)) > 0.1


class TestTransformer:
    def test_gpt2_forward_shape(self):
        model = GPT2Model(GPT2Config(d_model=32, num_layers=2, num_heads=4, max_position=16, seed=0))
        out = model(Tensor(np.random.default_rng(0).standard_normal((2, 7, 32))))
        assert out.shape == (2, 7, 32)

    def test_gpt2_causality_end_to_end(self):
        model = GPT2Model(GPT2Config(d_model=16, num_layers=2, num_heads=2, max_position=8, seed=0))
        model.eval()
        x = np.random.default_rng(1).standard_normal((1, 5, 16))
        base = model(Tensor(x)).data.copy()
        x_mod = x.copy()
        x_mod[0, 4] += 3.0
        changed = model(Tensor(x_mod)).data
        assert np.allclose(base[0, :4], changed[0, :4], atol=1e-8)

    def test_gpt2_token_embedding_requires_vocab(self):
        model = GPT2Model(GPT2Config(d_model=16, num_layers=1, num_heads=2, vocab_size=0))
        with pytest.raises(RuntimeError):
            model.embed_tokens(np.array([1, 2]))

    def test_gpt2_rejects_too_long_sequences(self):
        model = GPT2Model(GPT2Config(d_model=16, num_layers=1, num_heads=2, max_position=4))
        with pytest.raises(ValueError):
            model(Tensor(np.zeros((1, 5, 16))))

    def test_gpt2_rejects_wrong_width(self):
        model = GPT2Model(GPT2Config(d_model=16, num_layers=1, num_heads=2))
        with pytest.raises(ValueError):
            model(Tensor(np.zeros((1, 3, 8))))

    def test_config_validates_head_divisibility(self):
        with pytest.raises(ValueError):
            GPT2Config(d_model=30, num_heads=4)

    def test_tiny_language_model_overfits(self):
        """A tiny GPT-2 + LM head should overfit a repeating token pattern."""
        config = GPT2Config(d_model=32, num_layers=2, num_heads=2, max_position=16, vocab_size=6, seed=0)
        model = GPT2Model(config)
        head = Linear(32, 6, rng=np.random.default_rng(0))
        sequence = np.array([[0, 1, 2, 3, 4, 5, 0, 1, 2, 3, 4, 5]])
        optimizer = Adam(model.parameters() + head.parameters(), lr=5e-3)
        for _ in range(60):
            optimizer.zero_grad()
            hidden = model(model.embed_tokens(sequence[:, :-1]))
            loss = cross_entropy(head(hidden), sequence[:, 1:])
            loss.backward()
            optimizer.step()
        assert float(loss.item()) < 0.5

    def test_bidirectional_encoder_sees_future(self):
        encoder = TransformerEncoder(d_model=16, num_layers=1, num_heads=2, seed=0)
        encoder.eval()
        x = np.random.default_rng(2).standard_normal((1, 4, 16))
        base = encoder(Tensor(x)).data.copy()
        x_mod = x.copy()
        # Perturb a single feature (a uniform shift would be removed by LayerNorm).
        x_mod[0, 3, 0] += 2.0
        changed = encoder(Tensor(x_mod)).data
        assert not np.allclose(base[0, 0], changed[0, 0])


class TestGraphLayers:
    def test_gat_output_shape(self):
        gat = GAT(6, 8, 5, num_layers=2, num_heads=2, rng=np.random.default_rng(0))
        adjacency = np.random.default_rng(1).random((7, 7)) < 0.4
        out = gat(Tensor(np.random.default_rng(2).standard_normal((7, 6))), adjacency)
        assert out.shape == (7, 5)

    def test_single_head_layer_handles_isolated_nodes(self):
        layer = GraphAttentionLayer(4, 4, rng=np.random.default_rng(0))
        adjacency = np.zeros((3, 3), dtype=bool)  # no edges: only self-loops
        out = layer(Tensor(np.random.default_rng(1).standard_normal((3, 4))), adjacency)
        assert np.all(np.isfinite(out.data))

    def test_adjacency_must_be_square(self):
        layer = GraphAttentionLayer(4, 4)
        with pytest.raises(ValueError):
            layer(Tensor(np.zeros((3, 4))), np.zeros((3, 2), dtype=bool))

    def test_feature_count_must_match_adjacency(self):
        layer = GraphAttentionLayer(4, 4)
        with pytest.raises(ValueError):
            layer(Tensor(np.zeros((2, 4))), np.zeros((3, 3), dtype=bool))

    def test_gat_gradient_flows_to_inputs(self):
        gat = GAT(3, 4, 4, num_layers=1, num_heads=1, rng=np.random.default_rng(0))
        x = Tensor(np.random.default_rng(1).standard_normal((5, 3)), requires_grad=True)
        gat(x, np.eye(5, dtype=bool)).sum().backward()
        assert x.grad is not None

    def test_normalized_adjacency_symmetric_and_bounded(self):
        adjacency = np.array([[0, 1, 0], [1, 0, 1], [0, 1, 0]], dtype=float)
        norm = normalized_adjacency(adjacency)
        assert norm.shape == (3, 3)
        assert np.all(norm >= 0) and np.all(norm <= 1.0 + 1e-9)

    def test_random_walk_matrix_rows_sum_to_one(self):
        adjacency = np.array([[0, 1, 1], [1, 0, 0], [1, 1, 0]], dtype=float)
        walk = random_walk_matrix(adjacency)
        assert np.allclose(walk.sum(axis=1), 1.0)


class TestGRU:
    def test_output_shapes(self):
        gru = GRU(4, 6, rng=np.random.default_rng(0))
        outputs, final = gru(Tensor(np.random.default_rng(1).standard_normal((3, 7, 4))))
        assert outputs.shape == (3, 7, 6)
        assert final.shape == (3, 6)

    def test_padding_keeps_last_real_state(self):
        gru = GRU(2, 4, rng=np.random.default_rng(0))
        x = np.random.default_rng(1).standard_normal((1, 5, 2))
        mask = np.array([[False, False, True, True, True]])
        outputs, final = gru(Tensor(x), padding_mask=mask)
        assert np.allclose(final.data, outputs.data[:, 1, :])

    def test_gradient_through_time(self):
        gru = GRU(3, 3, rng=np.random.default_rng(0))
        x = Tensor(np.random.default_rng(1).standard_normal((2, 4, 3)), requires_grad=True)
        _, final = gru(x)
        final.sum().backward()
        assert np.any(x.grad[:, 0, :] != 0)
