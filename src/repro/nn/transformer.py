"""Transformer blocks and a GPT-2-style causal language-model backbone.

BIGCity (Sec. V-B) uses GPT-2 as the backbone of its Versatile Model with
Task-oriented Prompts.  We reproduce the GPT-2 architecture — pre-norm
transformer blocks with causal multi-head attention, GELU feed-forward
layers, learned positional embeddings — at a configurable (CPU-friendly)
size.  A bidirectional :class:`TransformerEncoder` is also provided for the
baseline models that need one (Toast, START, RNTrajRec, ...).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, NamedTuple, Optional, Tuple

import numpy as np

from repro.nn import functional as F
from repro.nn.attention import KVCache, MultiHeadAttention, attention_mask
from repro.nn.layers import Embedding, GELU, LayerNorm, Linear
from repro.nn.module import Module, ModuleList, WeightMemo
from repro.nn.tensor import Tensor, is_grad_enabled


class FeedForward(Module):
    """Position-wise feed-forward network used inside transformer blocks."""

    def __init__(self, d_model: int, d_ff: int, rng=None) -> None:
        super().__init__()
        self.fc_in = Linear(d_model, d_ff, rng=rng)
        self.act = GELU()
        self.fc_out = Linear(d_ff, d_model, rng=rng)

    def forward(self, x: Tensor) -> Tensor:
        return self.fc_out(self.act(self.fc_in(x)))


class TransformerBlock(Module):
    """Pre-norm transformer block (GPT-2 layout)."""

    def __init__(
        self,
        d_model: int,
        num_heads: int,
        d_ff: Optional[int] = None,
        causal: bool = True,
        rng=None,
    ) -> None:
        super().__init__()
        d_ff = d_ff or 4 * d_model
        self.ln_1 = LayerNorm(d_model)
        self.attn = MultiHeadAttention(d_model, num_heads, causal=causal, rng=rng)
        self.ln_2 = LayerNorm(d_model)
        self.mlp = FeedForward(d_model, d_ff, rng=rng)

    def forward(
        self,
        x: Tensor,
        padding_mask: Optional[np.ndarray] = None,
        cache: Optional[KVCache] = None,
    ) -> Tensor:
        x = x + self.attn(self.ln_1(x), padding_mask=padding_mask, cache=cache)
        x = x + self.mlp(self.ln_2(x))
        return x

    def inference_plan(self) -> "_BlockPlan":
        """The block's weights as arrays, LoRA merged, for :func:`_block_pass`."""
        attn, mlp = self.attn, self.mlp
        return _BlockPlan(
            ln_1=(self.ln_1.weight.data, self.ln_1.bias.data, self.ln_1.eps),
            q=attn.q_proj.inference_weights(),
            k=attn.k_proj.inference_weights(),
            v=attn.v_proj.inference_weights(),
            out=attn.out_proj.inference_weights(),
            ln_2=(self.ln_2.weight.data, self.ln_2.bias.data, self.ln_2.eps),
            fc_in=mlp.fc_in.inference_weights(),
            fc_out=mlp.fc_out.inference_weights(),
            num_heads=attn.num_heads,
            head_dim=attn.head_dim,
            scale=1.0 / np.sqrt(attn.head_dim),
        )


_Affine = Tuple[np.ndarray, Optional[np.ndarray]]
_Norm = Tuple[np.ndarray, np.ndarray, float]


class _BlockPlan(NamedTuple):
    """One block's inference weights: layer norms, linears (weight, bias), heads."""

    ln_1: _Norm
    q: _Affine
    k: _Affine
    v: _Affine
    out: _Affine
    ln_2: _Norm
    fc_in: _Affine
    fc_out: _Affine
    num_heads: int
    head_dim: int
    scale: float


def _block_pass(
    plan: _BlockPlan,
    x: np.ndarray,
    mask: Optional[np.ndarray],
    is_causal: bool,
    cache: Optional[KVCache],
) -> np.ndarray:
    """:meth:`TransformerBlock.forward` under ``no_grad`` as one pass over arrays.

    It calls the array-level forwards the fused kernels run, so it returns
    exactly what the module path returns, with nothing recorded.
    """
    (ln_1, q_proj, k_proj, v_proj, out_proj, ln_2, fc_in, fc_out, num_heads, head_dim, scale) = plan
    batch, length, d_model = x.shape
    heads = (batch, length, num_heads, head_dim)
    h = F.layer_norm_forward(x, *ln_1)[0]
    q = F.linear_forward(h, *q_proj).reshape(heads).transpose(0, 2, 1, 3)
    k = F.linear_forward(h, *k_proj).reshape(heads).transpose(0, 2, 1, 3)
    v = F.linear_forward(h, *v_proj).reshape(heads).transpose(0, 2, 1, 3)
    if cache is not None:
        k, v = cache.append(k, v)
    context = F.attention_forward(q, k, v, mask, scale, is_causal)
    context = context.transpose(0, 2, 1, 3).reshape(batch, length, d_model)
    x = x + F.linear_forward(context, *out_proj)
    h = F.layer_norm_forward(x, *ln_2)[0]
    h = F.gelu_forward(F.linear_forward(h, *fc_in))[0]
    return x + F.linear_forward(h, *fc_out)


@dataclass
class GPT2Config:
    """Configuration of the GPT-2-style backbone.

    The defaults are deliberately small so that the full BIGCity model trains
    on a CPU in seconds; the architecture is unchanged from GPT-2 apart from
    scale.
    """

    d_model: int = 64
    num_layers: int = 4
    num_heads: int = 4
    d_ff: Optional[int] = None
    max_position: int = 512
    vocab_size: int = 0
    causal: bool = True
    seed: Optional[int] = None

    def __post_init__(self) -> None:
        if self.d_model % self.num_heads != 0:
            raise ValueError("d_model must be divisible by num_heads")
        if self.d_ff is None:
            self.d_ff = 4 * self.d_model


class GPT2Model(Module):
    """A GPT-2-architecture transformer operating on pre-embedded inputs.

    Unlike a text-only GPT-2, the BIGCity backbone receives a mixed sequence
    of text tokens, ST tokens and task tokens that are already embedded in
    ``d_model`` dimensions, so this module exposes ``forward(embeddings)``
    rather than ``forward(token_ids)``.  When ``vocab_size > 0`` a token
    embedding table is created as well (used by the text-instruction branch
    and by pure language-model tests).
    """

    def __init__(self, config: GPT2Config) -> None:
        super().__init__()
        self.config = config
        rng = np.random.default_rng(config.seed)
        if config.vocab_size > 0:
            self.token_embedding = Embedding(config.vocab_size, config.d_model, rng=rng)
        else:
            self.token_embedding = None
        self.position_embedding = Embedding(config.max_position, config.d_model, rng=rng)
        self.blocks = ModuleList(
            [
                TransformerBlock(
                    config.d_model,
                    config.num_heads,
                    d_ff=config.d_ff,
                    causal=config.causal,
                    rng=rng,
                )
                for _ in range(config.num_layers)
            ]
        )
        self.ln_f = LayerNorm(config.d_model)
        #: ``(block plans, ln_f)`` for the no-grad array pass.
        self._plan = WeightMemo(self)

    # ------------------------------------------------------------------
    def embed_tokens(self, token_ids: np.ndarray) -> Tensor:
        """Embed integer token ids with the (optional) token table."""
        if self.token_embedding is None:
            raise RuntimeError("backbone was built without a token vocabulary")
        return self.token_embedding(token_ids)

    def new_caches(self) -> List[KVCache]:
        """Fresh per-layer KV caches for autoregressive decoding."""
        return [KVCache() for _ in self.blocks]

    def forward(
        self,
        embeddings: Tensor,
        padding_mask: Optional[np.ndarray] = None,
        add_positions: bool = True,
        caches: Optional[List[KVCache]] = None,
        position_ids: Optional[np.ndarray] = None,
    ) -> Tensor:
        """Run the transformer over ``(batch, seq, d_model)`` embeddings.

        With ``caches`` (from :meth:`new_caches`) only the *new* positions are
        passed in; keys/values of earlier calls are reused so a decode step is
        O(prefix) instead of O(prefix^2).  Cached forwards are inference-only
        and must run under ``no_grad``.

        ``position_ids`` overrides the default ``arange`` positional indices;
        a ``(batch, length)`` array gives every row its own positions.  Batched
        autoregressive decoding over rows of different prompt lengths needs
        this: the rows share one physical cache slot per step, but each row's
        new token logically continues *its own* sequence.

        Under ``no_grad`` with the fused kernels the blocks run as one array
        pass over a weight plan memoised on the parameter arrays (see
        :meth:`_inference_plan`); it returns exactly what the module-by-module
        forward returns.
        """
        batch, length, d_model = embeddings.shape
        if d_model != self.config.d_model:
            raise ValueError(f"expected embedding dim {self.config.d_model}, got {d_model}")
        offset = 0
        if caches is not None:
            if is_grad_enabled():
                raise RuntimeError(
                    "KV-cached decoding is an inference fast path; wrap the call in no_grad()"
                )
            if len(caches) != len(self.blocks):
                raise ValueError(f"expected {len(self.blocks)} caches, got {len(caches)}")
            offset = caches[0].length
        if position_ids is not None:
            position_ids = np.asarray(position_ids, dtype=np.int64)
            highest = int(position_ids.max()) + 1 if position_ids.size else 0
        else:
            highest = offset + length
        if highest > self.config.max_position:
            raise ValueError(
                f"sequence length {highest} exceeds max_position {self.config.max_position}"
            )
        x = embeddings
        if add_positions:
            if position_ids is None:
                positions = np.arange(offset, offset + length)
                pos = self.position_embedding(positions).reshape(1, length, d_model)
            else:
                pos = self.position_embedding(position_ids)
                if position_ids.ndim == 1:
                    pos = pos.reshape(1, length, d_model)
            x = x + pos
        plan = self._inference_plan()
        if plan is not None:
            block_plans, ln_f = plan
            mask, is_causal = attention_mask(self.config.causal, padding_mask, length, offset + length, offset)
            h = x.data
            for index, block_plan in enumerate(block_plans):
                h = _block_pass(block_plan, h, mask, is_causal, caches[index] if caches is not None else None)
            return Tensor(F.layer_norm_forward(h, *ln_f)[0])
        for index, block in enumerate(self.blocks):
            x = block(x, padding_mask=padding_mask, cache=caches[index] if caches is not None else None)
        return self.ln_f(x)

    def _inference_plan(self) -> Optional[Tuple[List[_BlockPlan], Tuple]]:
        """The memoised weights of the array pass, or ``None`` for the module path.

        Under ``no_grad``, :meth:`forward` runs every block as one
        :func:`_block_pass`.  The module path stays the one that records
        gradients; :func:`repro.eval.perfbench.reference_kernels` also sends
        ``no_grad`` forwards down it.
        """
        if is_grad_enabled():
            return None
        return self._plan.get(self._build_plan)

    def _build_plan(self) -> Tuple[List[_BlockPlan], Tuple]:
        ln_f = (self.ln_f.weight.data, self.ln_f.bias.data, self.ln_f.eps)
        return [block.inference_plan() for block in self.blocks], ln_f

    def hidden_size(self) -> int:
        return self.config.d_model


class TransformerEncoder(Module):
    """Bidirectional (non-causal) transformer encoder for baseline models."""

    def __init__(
        self,
        d_model: int,
        num_layers: int = 2,
        num_heads: int = 4,
        d_ff: Optional[int] = None,
        max_position: int = 512,
        seed: Optional[int] = None,
    ) -> None:
        super().__init__()
        rng = np.random.default_rng(seed)
        self.d_model = d_model
        self.position_embedding = Embedding(max_position, d_model, rng=rng)
        self.blocks = ModuleList(
            [
                TransformerBlock(d_model, num_heads, d_ff=d_ff, causal=False, rng=rng)
                for _ in range(num_layers)
            ]
        )
        self.ln_f = LayerNorm(d_model)

    def forward(self, x: Tensor, padding_mask: Optional[np.ndarray] = None) -> Tensor:
        batch, length, d_model = x.shape
        positions = np.arange(length)
        x = x + self.position_embedding(positions).reshape(1, length, d_model)
        for block in self.blocks:
            x = block(x, padding_mask=padding_mask)
        return self.ln_f(x)
