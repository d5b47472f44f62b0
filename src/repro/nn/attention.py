"""Attention mechanisms: multi-head self/cross attention and attention pooling."""

from __future__ import annotations

from typing import Optional, Tuple

import numpy as np

from repro.nn import functional as F
from repro.nn.layers import Linear
from repro.nn.module import Module
from repro.nn.tensor import Tensor, is_grad_enabled


class KVCache:
    """Per-layer key/value cache for autoregressive decoding.

    Keys and values are stored in pre-allocated buffers that grow by doubling,
    so appending one decode step is amortised O(1) instead of re-encoding the
    whole prefix.  The cache holds plain arrays (inference only); attention
    layers refuse to use it while gradients are being recorded.
    """

    __slots__ = ("_keys", "_values", "_length")

    def __init__(self) -> None:
        self._keys: Optional[np.ndarray] = None
        self._values: Optional[np.ndarray] = None
        self._length = 0

    @property
    def length(self) -> int:
        """Number of cached key/value positions."""
        return self._length

    def reset(self) -> None:
        """Empty the cache (a fresh decode session may use any batch shape)."""
        self._keys = None
        self._values = None
        self._length = 0

    def append(self, keys: np.ndarray, values: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
        """Append ``(batch, heads, new, head_dim)`` keys/values; return the full views."""
        new = keys.shape[2]
        needed = self._length + new
        if self._keys is None:
            capacity = max(16, needed)
            shape = keys.shape[:2] + (capacity,) + keys.shape[3:]
            self._keys = np.empty(shape, dtype=keys.dtype)
            self._values = np.empty(shape, dtype=values.dtype)
            self._length = 0
            needed = new
        elif self._keys.shape[:2] != keys.shape[:2]:
            # Callers (GPT2Model, MultiHeadAttention) compute position and
            # mask offsets from the cache length BEFORE appending, so a
            # batch/head mismatch cannot be absorbed here without silently
            # corrupting those offsets — it must be a new decode session.
            raise ValueError(
                f"cache holds batch/head shape {self._keys.shape[:2]} but got "
                f"{keys.shape[:2]}; use fresh caches (new_caches()) for a new batch"
            )
        elif needed > self._keys.shape[2]:
            capacity = max(2 * self._keys.shape[2], needed)
            grown_k = np.empty(self._keys.shape[:2] + (capacity,) + self._keys.shape[3:], dtype=self._keys.dtype)
            grown_v = np.empty_like(grown_k)
            grown_k[:, :, : self._length] = self._keys[:, :, : self._length]
            grown_v[:, :, : self._length] = self._values[:, :, : self._length]
            self._keys, self._values = grown_k, grown_v
        self._keys[:, :, self._length : needed] = keys
        self._values[:, :, self._length : needed] = values
        self._length = needed
        return self._keys[:, :, : self._length], self._values[:, :, : self._length]


def attention_mask(
    causal: bool,
    padding_mask: Optional[np.ndarray],
    q_len: int,
    kv_len: int,
    offset: int = 0,
) -> Tuple[Optional[np.ndarray], bool]:
    """The attention mask of :func:`attend`: ``(mask, is_causal)``.

    Unpadded causal attention passes only a flag (the kernel exploits the
    mask's triangular structure instead of materialising it); otherwise
    causal masks are cached per shape (``None`` when nothing would be
    masked) and the padding branch is skipped entirely for unpadded batches.
    ``offset`` is the number of cached key positions before the queries.
    """
    mask: Optional[np.ndarray] = None
    if padding_mask is not None:
        pad = np.asarray(padding_mask, dtype=bool)
        if pad.any():
            mask = pad[:, None, None, :]
    if not causal:
        return mask, False
    if mask is None and offset == 0:
        return None, True
    causal_mask = F.cached_causal_mask(q_len, kv_len, offset=offset)
    if causal_mask is not None:
        mask = causal_mask if mask is None else (mask | causal_mask)
    return mask, False


def attend(
    q: Tensor, k: Tensor, v: Tensor, causal: bool, padding_mask: Optional[np.ndarray], offset: int, scale: float
) -> Tensor:
    """Attention of split heads ``(batch, heads, len, head_dim)`` as one fused tape node.

    ``offset`` is the number of cached key positions before the queries;
    the mask comes from :func:`attention_mask`.
    """
    mask, is_causal = attention_mask(causal, padding_mask, q.shape[2], k.shape[2], offset)
    return F.scaled_dot_product_attention(q, k, v, mask=mask, scale=scale, is_causal=is_causal)


def attend_composed(
    q: Tensor, k: Tensor, v: Tensor, causal: bool, padding_mask: Optional[np.ndarray], offset: int, scale: float
) -> Tensor:
    """:func:`attend` from tape ops, as the original engine ran it (its reference).

    A fresh ``(1, 1, q_len, kv_len)`` mask is built and scanned every call,
    and the scores, mask, softmax and weighted sum are separate nodes.
    """
    q_len, kv_len = q.shape[2], k.shape[2]
    mask = np.zeros((1, 1, q_len, kv_len), dtype=bool)
    if causal:
        mask = mask | np.triu(np.ones((q_len, kv_len), dtype=bool), k=1 + offset)[None, None]
    if padding_mask is not None:
        mask = mask | np.asarray(padding_mask, dtype=bool)[:, None, None, :]
    scores = q.matmul(k.transpose(0, 1, 3, 2)) * scale
    if mask.any():
        scores = scores.masked_fill(mask, -1e9)
    return scores.softmax(axis=-1).matmul(v)


class MultiHeadAttention(Module):
    """Multi-head scaled dot-product attention.

    Supports self-attention (``key_value=None``) and cross-attention, causal
    masking (used by the GPT-2 backbone) and padding masks.  Inputs are shaped
    ``(batch, sequence, d_model)``.
    """

    def __init__(
        self,
        d_model: int,
        num_heads: int,
        causal: bool = False,
        rng: Optional[np.random.Generator] = None,
    ) -> None:
        super().__init__()
        if d_model % num_heads != 0:
            raise ValueError(f"d_model={d_model} must be divisible by num_heads={num_heads}")
        self.d_model = d_model
        self.num_heads = num_heads
        self.head_dim = d_model // num_heads
        self.causal = causal
        self.q_proj = Linear(d_model, d_model, rng=rng)
        self.k_proj = Linear(d_model, d_model, rng=rng)
        self.v_proj = Linear(d_model, d_model, rng=rng)
        self.out_proj = Linear(d_model, d_model, rng=rng)

    def _split_heads(self, x: Tensor) -> Tensor:
        batch, length, _ = x.shape
        return x.reshape(batch, length, self.num_heads, self.head_dim).transpose(0, 2, 1, 3)

    def _merge_heads(self, x: Tensor) -> Tensor:
        batch, heads, length, head_dim = x.shape
        return x.transpose(0, 2, 1, 3).reshape(batch, length, heads * head_dim)

    def forward(
        self,
        query: Tensor,
        key_value: Optional[Tensor] = None,
        padding_mask: Optional[np.ndarray] = None,
        cache: Optional[KVCache] = None,
    ) -> Tensor:
        """Attend from ``query`` to ``key_value`` (or to itself).

        Parameters
        ----------
        query:
            ``(batch, q_len, d_model)`` tensor.
        key_value:
            ``(batch, kv_len, d_model)`` tensor; defaults to ``query``.
        padding_mask:
            Boolean ``(batch, kv_len)`` array, ``True`` at padded key
            positions to exclude from attention.
        cache:
            Optional :class:`KVCache` for autoregressive decoding: the new
            keys/values are appended and attention runs over the full cached
            prefix, so each decode step costs O(prefix) instead of
            re-encoding it.  Inference only (requires ``no_grad``).
        """
        source = query if key_value is None else key_value
        q_len = query.shape[1]
        offset = 0
        q = self._split_heads(self.q_proj(query))
        k = self._split_heads(self.k_proj(source))
        v = self._split_heads(self.v_proj(source))
        if cache is not None:
            if is_grad_enabled():
                raise RuntimeError(
                    "KV-cached attention is an inference fast path; wrap the call in no_grad()"
                )
            if key_value is not None:
                raise ValueError("KV caching only applies to self-attention")
            offset = cache.length
            cached_k, cached_v = cache.append(k.data, v.data)
            k, v = Tensor(cached_k), Tensor(cached_v)
        if self.causal and key_value is not None and k.shape[2] != q_len:
            raise ValueError("causal attention requires self-attention with equal lengths")
        context = attend(q, k, v, self.causal, padding_mask, offset, 1.0 / np.sqrt(self.head_dim))
        return self.out_proj(self._merge_heads(context))


class CrossAttentionPool(Module):
    """Fusion attention used by the ST tokenizer (Eq. 6–7 in the paper).

    Every road segment attends over all segments of its time slice through a
    learnable query projection, producing fused spatial representations
    that capture long-range dependencies beyond the GAT neighbourhood.
    Fused row ``(t, i)`` is ``h[t, i] + softmax((q_i . h[t]^T) * scale) .
    h[t]`` with ``q_i = query_proj(h[t, i])`` and ``scale = 1 / sqrt(2 D)``
    (Eq. 7).  The attended context is added to each segment's own
    representation (residual connection) so that the fused output keeps
    segment identity while gaining long-range context; without the residual
    the early-training attention is near uniform and every segment collapses
    to the same vector.

    Rows are computed one at a time (:func:`~repro.nn.functional.cross_attention_rows`):
    each row's query, scores and weighted sum are its own one-row product,
    so a caller may ask for only the rows it reads, and every row has the
    same bits whichever other rows are computed with it.
    """

    def __init__(self, d_model: int, rng: Optional[np.random.Generator] = None) -> None:
        super().__init__()
        self.d_model = d_model
        self.query_proj = Linear(d_model, d_model, rng=rng)

    def forward(self, h: Tensor, slices: Optional[np.ndarray] = None, rows: Optional[np.ndarray] = None) -> Tensor:
        """Fuse representations ``h`` of shape ``(num_segments, d_model)`` or ``(S, num_segments, d_model)``.

        Without ``slices``/``rows`` every row is fused and the result has the
        shape of ``h``; a leading axis stacks independent sets of segments
        (the tokenizer's time slices).  Otherwise ``h`` is ``(S,
        num_segments, d_model)`` and the result is the ``(K, d_model)`` fused
        rows ``(slices[k], rows[k])``.
        """
        scale = float(1.0 / np.sqrt(2.0 * self.d_model))
        weight, bias = self.query_proj.weight, self.query_proj.bias
        if rows is not None:
            return F.cross_attention_rows(h, weight, bias, np.asarray(slices, dtype=np.int64), np.asarray(rows, dtype=np.int64), scale)
        stacked = h if h.ndim == 3 else h.reshape(1, *h.shape)
        num_slices, num_segments = stacked.shape[:2]
        every_slice = np.repeat(np.arange(num_slices), num_segments)
        every_row = np.tile(np.arange(num_segments), num_slices)
        fused = F.cross_attention_rows(stacked, weight, bias, every_slice, every_row, scale)
        return fused.reshape(*h.shape)
