"""``repro.eval.perfbench.reference_kernels()``: the composed oracles it swaps in.

Every fused == composed test compares against this block, so it must
reach every composed formulation: a dispatch site that bound a fused
kernel by name would slip past the patch, and those tests would compare
fused with fused.  The claims pinned here:

* a GPT-2 forward+backward and a stage-1 ``BIGCity.prompt_loss`` step
  call every composed oracle inside the block and no fused kernel, and the
  default path the other way round;
* both steps record the tape the composed engine recorded (185 and 729
  nodes, against 46 and 95 on the fused kernels);
* under ``no_grad`` the block takes the backbone's module path and neither
  reads nor fills the tokenizer memo;
* every patched attribute is restored on exit, also when the block
  raises, and the block nests with ``reference_tokenizer()``.
"""

from __future__ import annotations

import contextlib
import sys

import numpy as np
import pytest

from repro.core.config import BIGCityConfig
from repro.core.model import BIGCity
from repro.core.tokenizer import SpatioTemporalTokenizer
from repro.core.training import TrainingConfig, assemble_stage1_prompts
from repro.eval.perfbench import _reference_kernel_patches, reference_kernels, reference_tokenizer
from repro.nn import attention, losses
from repro.nn import functional as F
from repro.nn.layers import MLP
from repro.nn.lora import attach_lora
from repro.nn.tensor import Tensor, no_grad
from repro.nn.transformer import GPT2Config, GPT2Model

#: Each dispatch point's fused kernel and the composed oracle that replaces it.
FUSED = {
    "linear": F.fused_linear,
    "gelu": F.fused_gelu,
    "lora_linear": F.lora_linear,
    "cross_attention_rows": F.cross_attention_rows,
    "graph_attention": F.graph_attention,
    "layer_norm": F.fused_layer_norm,
    "mlp": F.mlp,
    "cross_entropy": F.fused_cross_entropy,
    "attention": F.scaled_dot_product_attention,
}
ORACLES = {
    "linear": F.linear_composed,
    "gelu": Tensor.gelu,
    "lora_linear": F.lora_linear_composed,
    "cross_attention_rows": F.cross_attention_rows_composed,
    "graph_attention": F.graph_attention_composed,
    "layer_norm": F.layer_norm_composed,
    "mlp": MLP.forward_layerwise,
    "cross_entropy": losses.cross_entropy_composed,
    "attention": attention.attend_composed,
}

#: ``(gpt2, stage1)`` tape nodes of one step, as the engine recorded them
#: with its composed kernels and with its fused ones.
COMPOSED_NODES = (185, 729)
FUSED_NODES = (46, 95)


@contextlib.contextmanager
def _calls():
    """Count, by code object, the calls of every fused kernel and oracle in this thread."""
    codes = {}
    for kind, table in (("fused", FUSED), ("oracle", ORACLES)):
        for name, function in table.items():
            codes[function.__code__] = (kind, name)
    counts = {key: 0 for key in codes.values()}

    def profile(frame, event, arg):
        if event == "call" and frame.f_code in codes:
            counts[codes[frame.f_code]] += 1

    previous = sys.getprofile()
    sys.setprofile(profile)
    try:
        yield counts
    finally:
        sys.setprofile(previous)


def _tape_nodes(output: Tensor) -> int:
    seen, stack = set(), [output]
    while stack:
        node = stack.pop()
        if id(node) in seen or node._backward is None:
            continue
        seen.add(id(node))
        stack.extend(parent for parent in node._parents if parent.requires_grad)
    return len(seen)


def _gpt2_step() -> Tensor:
    model = GPT2Model(GPT2Config(d_model=16, num_layers=2, num_heads=2, max_position=32, seed=0))
    attach_lora(model, rank=2, rng=np.random.default_rng(1))
    model.train()
    rng = np.random.default_rng(2)
    padding = np.zeros((2, 6), dtype=bool)
    padding[1, 4:] = True
    hidden = model(Tensor(rng.standard_normal((2, 6, 16)), requires_grad=True), padding_mask=padding)
    loss = losses.cross_entropy(hidden.reshape(-1, 16), rng.integers(0, 16, size=12))
    loss.backward()
    return loss


def _stage1_step(dataset) -> Tensor:
    model = BIGCity.from_dataset(dataset, config=BIGCityConfig.tiny(seed=0))
    model.train()
    model.backbone.llm.unfreeze()
    rng = np.random.default_rng(0)
    prompts = assemble_stage1_prompts(dataset, dataset.traffic_states, model.prompt_builder, TrainingConfig(), rng)
    batch = [prompts[int(i)] for i in rng.choice(len(prompts), size=4, replace=False)]
    loss, _ = model.prompt_loss(batch)
    loss.backward()
    return loss


def _steps(dataset, kernels):
    with _calls() as counts, kernels():
        gpt2, stage1 = _gpt2_step(), _stage1_step(dataset)
    return counts, (_tape_nodes(gpt2), _tape_nodes(stage1))


def _attributes():
    return [(owner, name, owner.__dict__[name]) for owner, name, _ in _reference_kernel_patches()]


class TestOracleReach:
    def test_every_oracle_runs_and_no_fused_kernel(self, tiny_dataset):
        counts, nodes = _steps(tiny_dataset, reference_kernels)
        assert all(counts["oracle", name] > 0 for name in ORACLES), counts
        assert all(counts["fused", name] == 0 for name in FUSED), counts
        assert nodes == COMPOSED_NODES

    def test_the_default_path_runs_every_fused_kernel_and_no_oracle(self, tiny_dataset):
        counts, nodes = _steps(tiny_dataset, contextlib.nullcontext)
        assert all(counts["fused", name] > 0 for name in FUSED), counts
        assert all(counts["oracle", name] == 0 for name in ORACLES), counts
        assert nodes == FUSED_NODES

    def test_every_dispatch_point_has_an_oracle(self):
        patched = {(owner, name) for owner, name, _ in _reference_kernel_patches()}
        assert len(patched) == len(ORACLES) + 2
        assert {(GPT2Model, "_inference_plan"), (SpatioTemporalTokenizer, "_live_memo")} <= patched


class TestNoGrad:
    def test_module_path_and_no_memo(self, tiny_dataset):
        model = BIGCity.from_dataset(tiny_dataset, config=BIGCityConfig.tiny(seed=0)).eval()
        tokenizer, backbone = model.tokenizer, model.backbone.llm
        with no_grad():
            cached = tokenizer.static_representations()
            assert tokenizer.static_representations() is cached
            assert backbone._inference_plan() is not None
            with reference_kernels():
                assert backbone._inference_plan() is None
                composed = tokenizer.static_representations()
                assert composed is not cached
                assert tokenizer.static_representations() is not composed
            assert tokenizer.static_representations() is cached
            assert backbone._inference_plan() is not None
        np.testing.assert_allclose(composed.data, cached.data, rtol=1e-12, atol=1e-12)


class TestRestore:
    def test_restored_on_exit_and_on_error(self):
        before = _attributes()
        with reference_kernels():
            assert all(owner.__dict__[name] is not original for owner, name, original in before)
        assert _attributes() == before
        with pytest.raises(RuntimeError, match="inside"):
            with reference_kernels():
                raise RuntimeError("raised inside the block")
        assert all(owner.__dict__[name] is original for owner, name, original in before)

    @pytest.mark.parametrize("kernels_outside", [True, False])
    def test_nests_with_reference_tokenizer(self, tiny_dataset, kernels_outside):
        tokenizer_attributes = [
            (owner, name, owner.__dict__[name])
            for owner, name in (
                (SpatioTemporalTokenizer, "encode_batch"),
                (SpatioTemporalTokenizer, "encode_partials"),
            )
        ]
        before = _attributes()
        outer, inner = (reference_kernels, reference_tokenizer) if kernels_outside else (reference_tokenizer, reference_kernels)
        with _calls() as counts, outer(), inner():
            assert F.graph_attention is F.graph_attention_composed
            _stage1_step(tiny_dataset)
        assert counts["oracle", "graph_attention"] > 0 and counts["fused", "graph_attention"] == 0
        assert all(counts["fused", name] == 0 for name in FUSED), counts
        assert all(owner.__dict__[name] is original for owner, name, original in before + tokenizer_attributes)
