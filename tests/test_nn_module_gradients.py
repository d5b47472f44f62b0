"""Every layer's parameter and input gradients against central differences.

Each case builds a small seeded module, takes ``sum(output * weights)`` for
fixed random ``weights`` as the loss and compares the backward pass with
central differences of the forward, on both the fused kernels and the
composed tape nodes (``reference_kernels()``).  Large parameters are
probed at a seeded subset of entries so each case stays in milliseconds.
"""

from __future__ import annotations

import contextlib

import numpy as np
import pytest

from repro.eval.perfbench import reference_kernels
from repro.nn import (
    GAT,
    GRU,
    MLP,
    CrossAttentionPool,
    Embedding,
    GPT2Config,
    GPT2Model,
    GraphAttentionLayer,
    GRUCell,
    LayerNorm,
    Linear,
    LoRALinear,
    MultiHeadAttention,
    Tensor,
    TransformerBlock,
    TransformerEncoder,
)
from repro.nn import losses

EPS = 1e-6
MAX_PROBES = 24


def _rng(seed: int = 0) -> np.random.Generator:
    return np.random.default_rng(seed)


def _ring_adjacency(n: int) -> np.ndarray:
    adjacency = np.zeros((n, n))
    for i in range(n):
        adjacency[i, (i + 1) % n] = 1.0
    return adjacency


def _lora() -> LoRALinear:
    layer = LoRALinear(Linear(4, 3, rng=_rng(1)), rank=2, alpha=4.0, rng=_rng(2))
    # LoRA's B starts at zero; move it so the adapter path carries gradient to A.
    layer.lora_b.data = _rng(3).standard_normal(layer.lora_b.shape) * 0.5
    return layer


def _padding() -> np.ndarray:
    mask = np.zeros((2, 3), dtype=bool)
    mask[1, 2] = True
    return mask


#: ``name -> (build_module, build_inputs, forward)``; ``forward(module, inputs)``
#: returns the output tensor the loss weights.
CASES = {
    "linear": (lambda: Linear(4, 3, rng=_rng()), lambda r: [r.standard_normal((2, 5, 4))], lambda m, x: m(x[0])),
    "linear_no_bias": (
        lambda: Linear(4, 3, bias=False, rng=_rng()),
        lambda r: [r.standard_normal((5, 4))],
        lambda m, x: m(x[0]),
    ),
    "embedding": (
        lambda: Embedding(6, 3, rng=_rng(), std=1.0),
        lambda r: [],
        lambda m, x: m(np.array([[0, 5, 5], [2, 0, 1]])),
    ),
    "layer_norm": (lambda: _perturbed(LayerNorm(4)), lambda r: [r.standard_normal((3, 4))], lambda m, x: m(x[0])),
    "mlp": (lambda: MLP(4, [5, 3], 2, rng=_rng()), lambda r: [r.standard_normal((3, 4))], lambda m, x: m(x[0])),
    "self_attention": (
        lambda: MultiHeadAttention(4, 2, rng=_rng()),
        lambda r: [r.standard_normal((2, 3, 4))],
        lambda m, x: m(x[0]),
    ),
    "causal_attention_padded": (
        lambda: MultiHeadAttention(4, 2, causal=True, rng=_rng()),
        lambda r: [r.standard_normal((2, 3, 4))],
        lambda m, x: m(x[0], padding_mask=_padding()),
    ),
    "cross_attention": (
        lambda: MultiHeadAttention(4, 1, rng=_rng()),
        lambda r: [r.standard_normal((2, 2, 4)), r.standard_normal((2, 3, 4))],
        lambda m, x: m(x[0], key_value=x[1]),
    ),
    "transformer_block": (
        lambda: _perturbed(TransformerBlock(4, 2, d_ff=6, rng=_rng())),
        lambda r: [r.standard_normal((2, 3, 4))],
        lambda m, x: m(x[0], padding_mask=_padding()),
    ),
    "gpt2": (
        lambda: _perturbed(GPT2Model(GPT2Config(d_model=4, num_layers=1, num_heads=2, max_position=8, seed=0))),
        lambda r: [r.standard_normal((2, 3, 4))],
        lambda m, x: m(x[0]),
    ),
    "transformer_encoder": (
        lambda: _perturbed(TransformerEncoder(4, num_layers=1, num_heads=2, max_position=8, seed=0)),
        lambda r: [r.standard_normal((2, 3, 4))],
        lambda m, x: m(x[0], padding_mask=_padding()),
    ),
    "graph_attention_layer": (
        lambda: GraphAttentionLayer(3, 4, rng=_rng()),
        lambda r: [r.standard_normal((2, 5, 3))],
        lambda m, x: m(x[0], _ring_adjacency(5)),
    ),
    "gat": (
        lambda: GAT(3, 2, 3, num_layers=2, num_heads=2, rng=_rng()),
        lambda r: [r.standard_normal((5, 3))],
        lambda m, x: m(x[0], _ring_adjacency(5)),
    ),
    "gru_cell": (
        lambda: GRUCell(3, 2, rng=_rng()),
        lambda r: [r.standard_normal((2, 3)), r.standard_normal((2, 2))],
        lambda m, x: m(x[0], x[1]),
    ),
    "gru_padded": (
        lambda: GRU(3, 2, rng=_rng()),
        lambda r: [r.standard_normal((2, 3, 3))],
        lambda m, x: m(x[0], padding_mask=_padding())[0],
    ),
    "lora_linear": (_lora, lambda r: [r.standard_normal((3, 4))], lambda m, x: m.forward_unmerged(x[0])),
    "fusion_pool_all_rows": (
        lambda: CrossAttentionPool(4, rng=_rng()),
        lambda r: [r.standard_normal((2, 3, 4))],
        lambda m, x: m(x[0]),
    ),
    "fusion_pool_selected_rows": (
        lambda: CrossAttentionPool(4, rng=_rng()),
        lambda r: [r.standard_normal((2, 3, 4))],
        lambda m, x: m(x[0], slices=np.array([1, 0, 1]), rows=np.array([2, 0, 2])),
    ),
}


def _perturbed(module):
    """Move every 1-D scale off 1 and shift off 0 so their gradients are generic."""
    rng = _rng(9)
    for name, param in module.named_parameters():
        leaf_name = name.rsplit(".", 1)[-1]
        if param.ndim == 1 and leaf_name in ("weight", "bias"):
            param.data = (leaf_name == "weight") + 0.3 * rng.standard_normal(param.shape)
    return module


def _probe_indices(size: int, seed: int) -> np.ndarray:
    if size <= MAX_PROBES:
        return np.arange(size)
    return np.sort(_rng(seed).choice(size, MAX_PROBES, replace=False))


def _check(tensors, loss_of, label: str) -> None:
    """Compare each tensor's ``.grad`` with central differences of ``loss_of()``."""
    for position, (name, tensor) in enumerate(tensors):
        base = tensor.data
        analytic = np.zeros(base.shape) if tensor.grad is None else np.asarray(tensor.grad)
        for flat in _probe_indices(base.size, position):
            values = []
            for sign in (1.0, -1.0):
                moved = base.copy()
                moved.reshape(-1)[flat] += sign * EPS
                tensor.data = moved
                values.append(loss_of())
            tensor.data = base
            numeric = (values[0] - values[1]) / (2 * EPS)
            expected = analytic.reshape(-1)[flat]
            assert abs(expected - numeric) <= 1e-6 + 1e-5 * abs(numeric), (
                f"{label}: {name}[{flat}] analytic {expected} vs numeric {numeric}"
            )


@pytest.mark.parametrize("fused", [True, False], ids=["fused", "composed"])
@pytest.mark.parametrize("case", sorted(CASES))
def test_parameter_and_input_gradients(case, fused):
    build, build_inputs, forward = CASES[case]
    with contextlib.nullcontext() if fused else reference_kernels():
        module = build()
        inputs = [Tensor(array, requires_grad=True) for array in build_inputs(_rng(4))]
        out = forward(module, inputs)
        weights = _rng(5).standard_normal(out.shape)
        (out * weights).sum().backward()

        def loss_of() -> float:
            return float(np.sum(forward(module, inputs).data * weights))

        named = [(name, p) for name, p in module.named_parameters() if p.requires_grad]
        assert named and all(p.grad is not None for _, p in named), case
        assert all(p.grad is None for p in module.parameters() if not p.requires_grad), case
        _check(named + [(f"input{i}", t) for i, t in enumerate(inputs)], loss_of, case)


#: ``name -> fn(prediction) -> scalar loss`` over a ``(4, 3)`` prediction.
_TARGETS = np.array([2, 0, 1, 2])
_REGRESSION = _rng(6).standard_normal((4, 3))
_MASK = _rng(7).random((4, 3)) < 0.5
LOSSES = {
    "cross_entropy_mean": lambda p: losses.cross_entropy(p, _TARGETS),
    "cross_entropy_sum": lambda p: losses.cross_entropy(p, _TARGETS, reduction="sum"),
    "cross_entropy_none": lambda p: losses.cross_entropy(p, _TARGETS, reduction="none") * np.arange(1.0, 5.0),
    "mse_mean": lambda p: losses.mse_loss(p, _REGRESSION),
    "mse_sum": lambda p: losses.mse_loss(p, _REGRESSION, reduction="sum"),
    "masked_mse": lambda p: losses.masked_mse_loss(p, _REGRESSION, _MASK),
    "info_nce": lambda p: losses.info_nce(p, Tensor(_REGRESSION), temperature=0.5),
}


@pytest.mark.parametrize("fused", [True, False], ids=["fused", "composed"])
@pytest.mark.parametrize("name", sorted(LOSSES))
def test_loss_gradients(name, fused):
    loss_fn = LOSSES[name]
    with contextlib.nullcontext() if fused else reference_kernels():
        prediction = Tensor(_rng(8).standard_normal((4, 3)), requires_grad=True)
        out = loss_fn(prediction)
        weights = np.ones(out.shape)
        (out * weights).sum().backward()
        _check(
            [("prediction", prediction)],
            lambda: float(np.sum(loss_fn(prediction).data * weights)),
            name,
        )
