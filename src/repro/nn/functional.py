"""Functional helpers operating on :class:`repro.nn.tensor.Tensor`.

Besides thin wrappers around the :class:`Tensor` methods, this module hosts
the *fused kernels* of the engine fast path: scaled-dot-product attention,
layer normalisation, GELU, softmax cross-entropy, the unmerged LoRA layer and
the tokenizer's fusion rows each run their forward pass in plain NumPy and
record a single tape node with an analytic backward,
instead of the 5-10 nodes (and full-size temporaries) the composed
formulation creates.  The composed formulations are kept as ``*_composed``
fallbacks; :func:`repro.nn.tensor.fused_kernels` switches between the two so
the speedup can be measured rather than asserted (see
``repro.eval.perfbench``).

Each fused kernel's forward arithmetic lives in an array-level helper
(``linear_forward``, ``gelu_forward``, ``layer_norm_forward``,
``sdpa_forward``, ``sdpa_causal_blocked_forward``) that the tape kernel and
the no-grad array pass of ``GPT2Model`` both call, so no formula is written
twice.
"""

from __future__ import annotations

from typing import Dict, Optional, Sequence, Tuple

import numpy as np

from repro.nn.tensor import Tensor, apply_op, fused_enabled


def relu(x: Tensor) -> Tensor:
    return x.relu()


def gelu(x: Tensor) -> Tensor:
    """GELU activation; dispatches to the fused kernel or the legacy method."""
    if fused_enabled():
        return fused_gelu(x)
    return x.gelu()


def tanh(x: Tensor) -> Tensor:
    return x.tanh()


def sigmoid(x: Tensor) -> Tensor:
    return x.sigmoid()


def softmax(x: Tensor, axis: int = -1) -> Tensor:
    return x.softmax(axis=axis)


def log_softmax(x: Tensor, axis: int = -1) -> Tensor:
    return x.log_softmax(axis=axis)


def linear(x: Tensor, weight: Tensor, bias: Optional[Tensor] = None) -> Tensor:
    """Apply ``x @ weight.T + bias`` (same convention as ``torch.nn.functional.linear``)."""
    if fused_enabled():
        return fused_linear(x, weight, bias)
    out = x.matmul(weight.transpose())
    if bias is not None:
        out = out + bias
    return out


def fused_linear(x: Tensor, weight: Tensor, bias: Optional[Tensor] = None) -> Tensor:
    """``x @ weight.T (+ bias)`` as a single tape node.

    The composed formulation records a transpose node, a matmul node and a
    broadcast-add node whose backward un-broadcasts the bias gradient over
    the full activation; here the transpose is a free view, the bias add is
    in place and its gradient a single row-sum.
    """
    x_data = x.data
    out = linear_forward(x_data, weight.data, None if bias is None else bias.data)

    def backward(grad: np.ndarray) -> None:
        if x.requires_grad:
            x._accumulate_owned(grad @ weight.data)
        flat_grad = grad.reshape(-1, grad.shape[-1])
        if weight.requires_grad:
            weight._accumulate_owned(flat_grad.T @ x_data.reshape(-1, x_data.shape[-1]))
        if bias is not None and bias.requires_grad:
            bias._accumulate_owned(flat_grad.sum(axis=0))

    parents = (x, weight) if bias is None else (x, weight, bias)
    return apply_op(out, parents, backward)


def linear_forward(x: np.ndarray, weight: np.ndarray, bias: Optional[np.ndarray] = None) -> np.ndarray:
    """Array-level ``x @ weight.T (+ bias)``: the forward of :func:`fused_linear`."""
    out = x @ weight.T
    if bias is not None:
        out += bias
    return out


def lora_linear(x: Tensor, weight: Tensor, bias: Optional[Tensor], lora_a: Tensor, lora_b: Tensor, scaling: float) -> Tensor:
    """``x @ weight.T + bias + ((x @ lora_a.T) @ lora_b.T) * scaling`` as a single tape node.

    The unmerged LoRA layer of the training path.  The forward runs the
    arithmetic of :func:`lora_linear_composed` in the same order, so both
    give the same bits; the composed chain records seven nodes (the base
    linear, two transposes, two matmuls, the scale and the add).  The
    backward reaches ``x``, ``weight``, ``bias``, ``lora_a`` and
    ``lora_b`` and skips the frozen ones.
    """
    if not fused_enabled():
        return lora_linear_composed(x, weight, bias, lora_a, lora_b, scaling)
    x_data, a_data, b_data = x.data, lora_a.data, lora_b.data
    out = linear_forward(x_data, weight.data, None if bias is None else bias.data)
    down = x_data @ a_data.T
    update = down @ b_data.T
    update *= scaling
    out += update

    def backward(grad: np.ndarray) -> None:
        flat_grad = grad.reshape(-1, grad.shape[-1])
        flat_x = x_data.reshape(-1, x_data.shape[-1])
        scaled = grad * scaling
        if lora_b.requires_grad:
            lora_b._accumulate_owned(scaled.reshape(flat_grad.shape).T @ down.reshape(-1, down.shape[-1]))
        if x.requires_grad or lora_a.requires_grad:
            grad_down = scaled @ b_data
            if lora_a.requires_grad:
                lora_a._accumulate_owned(grad_down.reshape(-1, grad_down.shape[-1]).T @ flat_x)
            if x.requires_grad:
                grad_x = grad @ weight.data
                grad_x += grad_down @ a_data
                x._accumulate_owned(grad_x)
        if weight.requires_grad:
            weight._accumulate_owned(flat_grad.T @ flat_x)
        if bias is not None and bias.requires_grad:
            bias._accumulate_owned(flat_grad.sum(axis=0))

    parents = (x, weight, lora_a, lora_b) if bias is None else (x, weight, bias, lora_a, lora_b)
    return apply_op(out, parents, backward)


def lora_linear_composed(
    x: Tensor, weight: Tensor, bias: Optional[Tensor], lora_a: Tensor, lora_b: Tensor, scaling: float
) -> Tensor:
    """The unmerged LoRA layer built from tape ops (reference for :func:`lora_linear`)."""
    update = x.matmul(lora_a.transpose()).matmul(lora_b.transpose())
    return linear(x, weight, bias) + update * scaling


def cross_attention_rows(
    h: Tensor,
    weight: Tensor,
    bias: Tensor,
    slices: np.ndarray,
    rows: np.ndarray,
    scale: float,
) -> Tensor:
    """Rows of the tokenizer's fusion attention as a single tape node.

    ``h`` is ``(S, N, D)``.  Output row ``k`` is the fused row ``(t, i) =
    (slices[k], rows[k])``::

        h[t, i] + softmax((q_i . h[t]^T) * scale) . h[t],  q_i = h[t, i] @ weight.T + bias

    so the result is ``(K, D)``, and only the requested rows are computed.
    Each row's query projection, scores and weighted sum run as that row's
    own one-row product over a ``(k, 1, .)`` stack, so a row's bits never
    depend on which other rows a call computes.  The backward groups the
    rows by slice.  :func:`cross_attention_rows_composed` builds the same
    arithmetic from tape ops and gives the same bits.
    """
    if not fused_enabled():
        return cross_attention_rows_composed(h, weight, bias, slices, rows, scale)
    h_data = h.data
    x = h_data[slices, rows][:, None, :]
    queries = linear_forward(x, weight.data, bias.data)
    groups = _slice_groups(slices)
    out = np.empty((len(slices), h_data.shape[-1]), dtype=queries.dtype)
    attentions = []
    for slice_index, positions in groups:
        keys = h_data[slice_index]
        scores = queries[positions] @ keys.T
        scores *= scale
        scores -= scores.max(axis=-1, keepdims=True)
        attention = np.exp(scores, out=scores)
        attention /= attention.sum(axis=-1, keepdims=True)
        out[positions] = x[positions, 0] + (attention @ keys)[:, 0]
        attentions.append(attention[:, 0])

    def backward(grad: np.ndarray) -> None:
        grad_h = np.zeros_like(h_data) if h.requires_grad else None
        grad_queries = np.empty(out.shape, dtype=out.dtype)
        for (slice_index, positions), attention in zip(groups, attentions):
            keys = h_data[slice_index]
            rows_grad = grad[positions]
            grad_scores = rows_grad @ keys.T
            grad_scores -= np.einsum("ij,ij->i", grad_scores, attention)[:, None]
            grad_scores *= attention
            grad_scores *= scale
            grad_queries[positions] = grad_scores @ keys
            if grad_h is not None:
                grad_h[slice_index] += attention.T @ rows_grad + grad_scores.T @ queries[positions, 0]
        if grad_h is not None:
            grad_x = grad_queries @ weight.data
            grad_x += grad
            np.add.at(grad_h, (slices, rows), grad_x)
            h._accumulate_owned(grad_h)
        if weight.requires_grad:
            weight._accumulate_owned(grad_queries.T @ x[:, 0])
        if bias.requires_grad:
            bias._accumulate_owned(grad_queries.sum(axis=0))

    return apply_op(out, (h, weight, bias), backward)


def cross_attention_rows_composed(
    h: Tensor,
    weight: Tensor,
    bias: Tensor,
    slices: np.ndarray,
    rows: np.ndarray,
    scale: float,
) -> Tensor:
    """:func:`cross_attention_rows` built from tape ops in the same per-row shapes (its reference)."""
    x = h[slices, rows].reshape(len(slices), 1, h.shape[-1])
    queries = linear(x, weight, bias)
    groups = _slice_groups(slices)
    pieces = []
    for slice_index, positions in groups:
        keys = h[slice_index]
        attention = (queries[positions].matmul(keys.swapaxes(-1, -2)) * scale).softmax(axis=-1)
        pieces.append(x[positions] + attention.matmul(keys))
    order = np.concatenate([positions for _, positions in groups])
    fused = Tensor.concat(pieces, axis=0)[np.argsort(order)]
    return fused.reshape(len(slices), h.shape[-1])


def _slice_groups(slices: np.ndarray) -> list:
    """``[(slice, positions)]``: the positions of ``slices`` holding each distinct slice, in slice order."""
    if len(slices) == 0:
        return []
    order = np.argsort(slices, kind="stable")
    starts = np.flatnonzero(np.diff(slices[order])) + 1
    return [(int(slices[positions[0]]), positions) for positions in np.split(order, starts)]


def concat(tensors: Sequence[Tensor], axis: int = -1) -> Tensor:
    return Tensor.concat(tensors, axis=axis)


def stack(tensors: Sequence[Tensor], axis: int = 0) -> Tensor:
    return Tensor.stack(tensors, axis=axis)


def one_hot(indices: np.ndarray, num_classes: int) -> np.ndarray:
    """Return a dense float64 one-hot encoding of ``indices``."""
    indices = np.asarray(indices, dtype=np.int64)
    out = np.zeros(indices.shape + (num_classes,), dtype=np.float64)
    np.put_along_axis(out, indices[..., None], 1.0, axis=-1)
    return out


_GELU_C = float(np.sqrt(2.0 / np.pi))


def fused_gelu(x: Tensor) -> Tensor:
    """GELU (tanh approximation) as a single tape node.

    The forward pass stages everything through two reusable buffers (no
    ``x**3`` power calls, one ``tanh``); the backward reuses the saved
    ``x²`` and ``tanh`` buffers in place, so the whole op touches a fraction
    of the temporaries :meth:`Tensor.gelu` allocates.
    """
    data_x = x.data
    out, x_sq, tanh_inner = gelu_forward(data_x)

    def backward(grad: np.ndarray) -> None:
        if x.requires_grad:
            x._accumulate_owned(gelu_backward(grad, data_x, x_sq, tanh_inner))

    return apply_op(out, (x,), backward)


def gelu_forward(x: np.ndarray) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Array-level GELU forward: ``(out, x², tanh)``, the last two saved for the backward."""
    x_sq = x * x
    inner = x_sq * 0.044715
    inner += 1.0
    inner *= x
    inner *= _GELU_C
    tanh_inner = np.tanh(inner, out=inner)
    out = tanh_inner + 1.0
    out *= x
    out *= 0.5
    return out, x_sq, tanh_inner


def gelu_backward(grad: np.ndarray, x: np.ndarray, x_sq: np.ndarray, tanh_inner: np.ndarray) -> np.ndarray:
    """Array-level GELU backward from the buffers :func:`gelu_forward` saved.

    derivative = 0.5*(1+t) + 0.5*x*(1-t²)*c*(1+3a*x²), computed by
    destroying the saved ``x²`` / ``tanh`` buffers (a tape node's backward
    runs exactly once); returns a fresh gradient buffer.
    """
    sech2 = tanh_inner * tanh_inner
    np.subtract(1.0, sech2, out=sech2)
    poly = x_sq
    poly *= 3.0 * 0.044715
    poly += 1.0
    poly *= _GELU_C
    sech2 *= poly
    sech2 *= x
    np.add(tanh_inner, 1.0, out=poly)
    sech2 += poly
    sech2 *= 0.5
    sech2 *= grad
    return sech2


def mlp(
    x: Tensor,
    layers: Sequence[Tuple[Tensor, Optional[Tensor]]],
    groups: Optional[Sequence[Tuple[int, int]]] = None,
) -> Tensor:
    """Linear → GELU → ... → Linear (``layers`` = ``(weight, bias)`` pairs) as one tape node.

    The forward runs :func:`linear_forward` and :func:`gelu_forward`, the
    arithmetic of :func:`fused_linear` and :func:`fused_gelu`, so values
    equal the per-layer kernels bit for bit; the backward is theirs in
    reverse order, with each layer's ``(weight, bias)`` gradient computed
    as :func:`fused_linear` computes it.

    ``groups`` splits the rows of a 2-D ``x`` into ``(start, stop)`` spans
    that make the products a separate call per span would make: every
    span's outputs and input gradients are that call's bit for bit, and the
    weight and bias gradients are summed span by span, in order, as the
    calls' backward passes would sum them.  A stack of several callers'
    rows thus runs as one node without changing any caller's numbers.
    """
    spans = None if groups is None else [slice(start, stop) for start, stop in groups]

    def per_span(fn, *arrays):
        if spans is None:
            return fn(*arrays)
        return np.concatenate([fn(*(array[span] for array in arrays)) for span in spans])

    inputs = []
    saved = []
    h = x.data
    last = len(layers) - 1
    for index, (weight, bias) in enumerate(layers):
        inputs.append(h)
        h = per_span(lambda rows: linear_forward(rows, weight.data, None if bias is None else bias.data), h)
        if index < last:
            pre = h
            h, x_sq, tanh_inner = gelu_forward(pre)
            saved.append((pre, x_sq, tanh_inner))

    def backward(grad: np.ndarray) -> None:
        for index in range(last, -1, -1):
            weight, bias = layers[index]
            layer_input = inputs[index]
            for span in [slice(None)] if spans is None else spans:
                span_grad, span_input = grad[span], layer_input[span]
                flat_grad = span_grad.reshape(-1, span_grad.shape[-1])
                if weight.requires_grad:
                    weight._accumulate_owned(flat_grad.T @ span_input.reshape(-1, span_input.shape[-1]))
                if bias is not None and bias.requires_grad:
                    bias._accumulate_owned(flat_grad.sum(axis=0))
            if index == 0:
                if x.requires_grad:
                    x._accumulate_owned(per_span(lambda rows: rows @ weight.data, grad))
                return
            grad = gelu_backward(per_span(lambda rows: rows @ weight.data, grad), *saved[index - 1])

    parents = [x]
    for weight, bias in layers:
        parents.append(weight)
        if bias is not None:
            parents.append(bias)
    return apply_op(h, parents, backward)


def gelu_composed(x: Tensor) -> Tensor:
    """GELU built from primitive tape ops (reference for the fused kernel)."""
    inner = (x + x * x * x * 0.044715) * _GELU_C
    return x * 0.5 * (inner.tanh() + 1.0)


def graph_attention(src_scores: Tensor, dst_scores: Tensor, blocked: np.ndarray, negative_slope: float) -> Tensor:
    """GAT attention weights ``softmax_j(LeakyReLU(src_i + dst_j))`` over allowed pairs.

    ``src_scores`` and ``dst_scores`` are ``(..., N, 1)``; pairs where the
    ``(N, N)`` mask ``blocked`` is ``True`` score ``-1e9`` before the
    softmax over the last axis.  The fused kernel records one tape node
    instead of five (add, transpose, LeakyReLU, mask, softmax) and runs the
    same arithmetic, so both formulations give the same bits.
    """
    if not fused_enabled():
        return graph_attention_composed(src_scores, dst_scores, blocked, negative_slope)
    # One (..., N, N) buffer, updated in place with the composed ops' arithmetic.
    scores = src_scores.data + np.swapaxes(dst_scores.data, -1, -2)
    negative = scores <= 0
    np.multiply(scores, negative_slope, out=scores, where=negative)
    np.copyto(scores, -1e9, where=blocked)
    scores -= scores.max(axis=-1, keepdims=True)
    weights = np.exp(scores, out=scores)
    weights /= weights.sum(axis=-1, keepdims=True)

    def backward(grad: np.ndarray) -> None:
        dot = (grad * weights).sum(axis=-1, keepdims=True)
        grad_scores = weights * (grad - dot)
        np.copyto(grad_scores, 0.0, where=blocked)
        np.multiply(grad_scores, negative_slope, out=grad_scores, where=negative)
        if src_scores.requires_grad:
            src_scores._accumulate_owned(grad_scores.sum(axis=-1, keepdims=True))
        if dst_scores.requires_grad:
            dst_scores._accumulate_owned(np.swapaxes(grad_scores.sum(axis=-2, keepdims=True), -1, -2))

    return apply_op(weights, (src_scores, dst_scores), backward)


def graph_attention_composed(src_scores: Tensor, dst_scores: Tensor, blocked: np.ndarray, negative_slope: float) -> Tensor:
    """GAT attention weights built from primitive tape ops (reference for the fused kernel)."""
    scores = (src_scores + dst_scores.swapaxes(-1, -2)).leaky_relu(negative_slope)
    return scores.masked_fill(blocked, -1e9).softmax(axis=-1)


def fused_layer_norm(x: Tensor, weight: Tensor, bias: Tensor, eps: float = 1e-5) -> Tensor:
    """Layer normalisation over the last axis as a single tape node."""
    out, normalised, inv_std = layer_norm_forward(x.data, weight.data, bias.data, eps)

    def backward(grad: np.ndarray) -> None:
        feature_dim = grad.shape[-1]
        if x.requires_grad:
            grad_norm = grad * weight.data
            mean_grad = grad_norm.mean(axis=-1, keepdims=True)
            mean_grad_norm = np.mean(grad_norm * normalised, axis=-1, keepdims=True)
            x._accumulate_owned(inv_std * (grad_norm - mean_grad - normalised * mean_grad_norm))
        if weight.requires_grad:
            weight._accumulate_owned((grad * normalised).reshape(-1, feature_dim).sum(axis=0))
        if bias.requires_grad:
            bias._accumulate_owned(grad.reshape(-1, feature_dim).sum(axis=0))

    return apply_op(out, (x, weight, bias), backward)


def layer_norm_forward(
    x: np.ndarray, weight: np.ndarray, bias: np.ndarray, eps: float = 1e-5
) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Array-level layer norm over the last axis: ``(out, normalised, inv_std)``.

    The means are ``np.add.reduce`` followed by a divide, which is what
    ``np.mean`` computes (bit for bit) without its Python-level dispatch.
    """
    feature_dim = x.shape[-1]
    mean = np.add.reduce(x, axis=-1, keepdims=True)
    mean /= feature_dim
    centered = x - mean
    variance = np.add.reduce(centered * centered, axis=-1, keepdims=True)
    variance /= feature_dim
    inv_std = 1.0 / np.sqrt(variance + eps)
    normalised = centered * inv_std
    return normalised * weight + bias, normalised, inv_std


def layer_norm_composed(x: Tensor, weight: Tensor, bias: Tensor, eps: float = 1e-5) -> Tensor:
    """The legacy multi-node layer-norm formulation (reference/benchmark path)."""
    mean = x.mean(axis=-1, keepdims=True)
    centered = x - mean
    variance = (centered * centered).mean(axis=-1, keepdims=True)
    normalised = centered / (variance + eps).sqrt()
    return normalised * weight + bias


def fused_cross_entropy(logits: Tensor, targets, reduction: str = "mean") -> Tensor:
    """Softmax cross-entropy from raw logits as a single tape node.

    Fuses ``log_softmax`` + gather + negate + reduce: the backward is the
    analytic ``softmax(logits) - one_hot(targets)`` without materialising the
    one-hot matrix or any intermediate graph nodes.
    """
    target_idx = np.asarray(
        targets.data if isinstance(targets, Tensor) else targets, dtype=np.int64
    ).reshape(-1)
    num_classes = logits.shape[-1]
    flat = logits.data.reshape(-1, num_classes)
    num_rows = flat.shape[0]
    if target_idx.shape[0] != num_rows:
        raise ValueError(
            f"targets have {target_idx.shape[0]} entries but logits have {num_rows} rows"
        )
    shifted = flat - flat.max(axis=-1, keepdims=True)
    logsumexp = np.log(np.exp(shifted).sum(axis=-1, keepdims=True))
    log_probs = shifted - logsumexp
    rows = np.arange(num_rows)
    per_row = -log_probs[rows, target_idx]
    # Loss reductions accumulate in float64 and cast back to the logits' dtype.
    if reduction == "mean":
        out = per_row.mean(dtype=np.float64).astype(per_row.dtype)
    elif reduction == "sum":
        out = per_row.sum(dtype=np.float64).astype(per_row.dtype)
    elif reduction == "none":
        # Flat (rows,) losses, matching the composed formulation exactly.
        out = per_row
    else:
        raise ValueError(f"unknown reduction {reduction!r}")

    def backward(grad: np.ndarray) -> None:
        if not logits.requires_grad:
            return
        if reduction == "mean":
            row_grad = np.full(num_rows, float(np.asarray(grad).reshape(())) / num_rows, dtype=log_probs.dtype)
        elif reduction == "sum":
            row_grad = np.full(num_rows, float(np.asarray(grad).reshape(())), dtype=log_probs.dtype)
        else:
            row_grad = np.asarray(grad, dtype=log_probs.dtype).reshape(-1)
        grad_logits = np.exp(log_probs) * row_grad[:, None]
        grad_logits[rows, target_idx] -= row_grad
        logits._accumulate_owned(grad_logits.reshape(logits.shape))

    return apply_op(out, (logits,), backward)


def scaled_dot_product_attention(
    q: Tensor,
    k: Tensor,
    v: Tensor,
    mask: Optional[np.ndarray] = None,
    scale: Optional[float] = None,
    is_causal: bool = False,
) -> Tensor:
    """``softmax(q @ k^T * scale + mask) @ v`` as a single tape node.

    ``q`` is ``(..., q_len, head_dim)``, ``k``/``v`` are ``(..., kv_len,
    head_dim)`` with identical leading dimensions.  ``mask`` is a boolean
    array broadcastable to ``(..., q_len, kv_len)``, ``True`` at positions to
    hide.

    ``is_causal=True`` (self-attention, no other mask) dispatches to a
    block-causal kernel that never touches the masked upper triangle: rows
    are processed in blocks whose key extent stops at the diagonal, so the
    forward and backward skip ~half of the ``q_len × kv_len`` work instead
    of computing it and masking it away.  The composed formulation cannot do
    this — it materialises the full score matrix by construction.
    """
    blocked, mask = _attention_kernel(q.shape[-2], k.shape[-2], mask, is_causal)
    if blocked:
        return _sdpa_causal_blocked(q, k, v, scale=scale)
    q_data, k_data, v_data = q.data, k.data, v.data
    out, scale, scaled_q, attention = sdpa_forward(q_data, k_data, v_data, mask, scale)

    def backward(grad: np.ndarray) -> None:
        if v.requires_grad:
            v._accumulate_owned(np.swapaxes(attention, -1, -2) @ grad)
        if not (q.requires_grad or k.requires_grad):
            return
        grad_attention = grad @ np.swapaxes(v_data, -1, -2)
        # Fused multiply-reduce: no (..., q_len, kv_len) temporary.
        dot = np.einsum("...ij,...ij->...i", grad_attention, attention)[..., None]
        # grad_scores = attention * (grad_attention - dot), in place.
        grad_scores = grad_attention
        grad_scores -= dot
        grad_scores *= attention
        if mask is not None:
            np.copyto(grad_scores, 0.0, where=mask)
        # ``scores`` was (q * scale) @ k^T, so the scale re-enters through the
        # small per-head arrays instead of another full pass over the scores.
        if q.requires_grad:
            grad_q = grad_scores @ k_data
            grad_q *= scale
            q._accumulate_owned(grad_q)
        if k.requires_grad:
            k._accumulate_owned(np.swapaxes(grad_scores, -1, -2) @ scaled_q)

    return apply_op(out, (q, k, v), backward)


def _attention_kernel(
    q_len: int, kv_len: int, mask: Optional[np.ndarray], is_causal: bool
) -> Tuple[bool, Optional[np.ndarray]]:
    """Pick the attention kernel: ``(blocked, mask)``.

    ``blocked`` selects the block-causal kernel (long unmasked causal
    self-attention); otherwise a causal flag becomes its cached mask.
    """
    if not (is_causal and mask is None):
        return False, mask
    if q_len == kv_len and q_len >= 2 * _CAUSAL_BLOCK:
        return True, None
    return False, cached_causal_mask(q_len, kv_len)


def attention_forward(
    q: np.ndarray,
    k: np.ndarray,
    v: np.ndarray,
    mask: Optional[np.ndarray] = None,
    scale: Optional[float] = None,
    is_causal: bool = False,
) -> np.ndarray:
    """Array-level :func:`scaled_dot_product_attention` for inference.

    The same kernel choice and forward arithmetic as the tape kernel, with
    nothing saved for a backward.
    """
    blocked, mask = _attention_kernel(q.shape[-2], k.shape[-2], mask, is_causal)
    if blocked:
        return sdpa_causal_blocked_forward(q, k, v, scale)[0]
    return sdpa_forward(q, k, v, mask, scale)[0]


def sdpa_forward(
    q: np.ndarray,
    k: np.ndarray,
    v: np.ndarray,
    mask: Optional[np.ndarray] = None,
    scale: Optional[float] = None,
):
    """Array-level forward of the full-score attention kernel.

    Returns ``(out, scale, scaled_q, attention)``; all but ``out`` are saved
    for the backward.
    """
    if scale is None:
        scale = 1.0 / np.sqrt(q.shape[-1])
    # The softmax runs entirely inside the ``scores`` buffer and every
    # elementwise pass over the (..., q_len, kv_len) array is either in place
    # or skipped: the scale is folded into the (much smaller) query before
    # the matmul, and the max-shift subtraction only happens when the scores
    # are actually large enough to overflow ``exp``.
    scaled_q = q * scale
    scores = scaled_q @ np.swapaxes(k, -1, -2)
    if mask is not None:
        np.copyto(scores, -1e9, where=mask)
    row_max = scores.max(axis=-1, keepdims=True)
    if row_max.max() > 50.0 or row_max.min() < -50.0:
        scores -= row_max
    np.exp(scores, out=scores)
    scores /= scores.sum(axis=-1, keepdims=True)
    return scores @ v, scale, scaled_q, scores


#: Row-block size of the block-causal attention kernel.  Blocks trade Python
#: overhead (more blocks) against wasted masked work (fewer blocks); 64 rows
#: keeps per-block score slabs comfortably inside the cache at tier-1 sizes.
_CAUSAL_BLOCK = 64


def _sdpa_causal_blocked(
    q: Tensor,
    k: Tensor,
    v: Tensor,
    scale: Optional[float] = None,
) -> Tensor:
    """Causal attention over row blocks, skipping the masked upper triangle.

    Rows ``[r0, r1)`` of the query only attend to keys ``[0, r1)``, so each
    block computes a ``(r1 - r0, r1)`` score slab instead of a full
    ``(q_len, kv_len)`` row; summed over blocks this does ~55% of the
    all-pairs work (down to 50% as blocks shrink).  Only the ``(rb, rb)``
    diagonal corner of each slab needs masking.
    """
    q_data, k_data, v_data = q.data, k.data, v.data
    out, scale, scaled_q, blocks = sdpa_causal_blocked_forward(q_data, k_data, v_data, scale)

    def backward(grad: np.ndarray) -> None:
        need_qk = q.requires_grad or k.requires_grad
        grad_q = np.zeros_like(q_data) if q.requires_grad else None
        grad_k = np.zeros_like(k_data) if k.requires_grad else None
        grad_v = np.zeros_like(v_data) if v.requires_grad else None
        for r0, r1, attention in blocks:
            rb = r1 - r0
            grad_block = grad[..., r0:r1, :]
            if grad_v is not None:
                grad_v[..., :r1, :] += np.swapaxes(attention, -1, -2) @ grad_block
            if not need_qk:
                continue
            grad_attention = grad_block @ np.swapaxes(v_data[..., :r1, :], -1, -2)
            dot = np.einsum("...ij,...ij->...i", grad_attention, attention)[..., None]
            grad_scores = grad_attention
            grad_scores -= dot
            grad_scores *= attention
            corner = cached_causal_mask(rb, rb)
            if corner is not None:
                np.copyto(grad_scores[..., r0:r1], 0.0, where=corner)
            if grad_q is not None:
                gq = grad_scores @ k_data[..., :r1, :]
                gq *= scale
                grad_q[..., r0:r1, :] = gq
            if grad_k is not None:
                grad_k[..., :r1, :] += np.swapaxes(grad_scores, -1, -2) @ scaled_q[..., r0:r1, :]
        if grad_q is not None:
            q._accumulate_owned(grad_q)
        if grad_k is not None:
            k._accumulate_owned(grad_k)
        if grad_v is not None:
            v._accumulate_owned(grad_v)

    return apply_op(out, (q, k, v), backward)


def sdpa_causal_blocked_forward(
    q: np.ndarray,
    k: np.ndarray,
    v: np.ndarray,
    scale: Optional[float] = None,
):
    """Array-level forward of the block-causal attention kernel.

    Returns ``(out, scale, scaled_q, blocks)``; ``blocks`` holds one
    ``(r0, r1, attention_slab)`` per row block for the backward.
    """
    length = q.shape[-2]
    if scale is None:
        scale = 1.0 / np.sqrt(q.shape[-1])
    scaled_q = q * scale
    out = np.empty(q.shape[:-1] + (v.shape[-1],), dtype=q.dtype)
    blocks = []
    for r0 in range(0, length, _CAUSAL_BLOCK):
        r1 = min(r0 + _CAUSAL_BLOCK, length)
        rb = r1 - r0
        scores = scaled_q[..., r0:r1, :] @ np.swapaxes(k[..., :r1, :], -1, -2)
        corner = cached_causal_mask(rb, rb)
        if corner is not None:
            np.copyto(scores[..., r0:r1], -1e9, where=corner)
        row_max = scores.max(axis=-1, keepdims=True)
        if row_max.max() > 50.0 or row_max.min() < -50.0:
            scores -= row_max
        np.exp(scores, out=scores)
        scores /= scores.sum(axis=-1, keepdims=True)
        out[..., r0:r1, :] = scores @ v[..., :r1, :]
        blocks.append((r0, r1, scores))
    return out, scale, scaled_q, blocks


def gather_rows(x: Tensor, batch_index, row_index) -> Tensor:
    """``x[batch_index, row_index]`` as a single tape node.

    ``x`` is ``(batch, seq, features)`` and the two index arrays select ``K``
    rows, producing ``(K, features)``.  The composed formulation — one
    ``__getitem__`` node per row plus a ``stack`` over all of them — records
    ``K + 1`` tape nodes; this kernel records one, with a scatter-add
    backward.  Used by ``BIGCity.forward_prompts`` to pull the task-placeholder
    and data rows out of the backbone output.
    """
    batch_idx = np.asarray(batch_index, dtype=np.int64).reshape(-1)
    row_idx = np.asarray(row_index, dtype=np.int64).reshape(-1)
    if batch_idx.shape != row_idx.shape:
        raise ValueError("batch_index and row_index must have the same length")
    out = x.data[batch_idx, row_idx]

    def backward(grad: np.ndarray) -> None:
        if not x.requires_grad:
            return
        full = np.zeros_like(x.data, dtype=x.data.dtype if x.data.dtype.kind == "f" else np.float64)
        np.add.at(full, (batch_idx, row_idx), grad)
        x._accumulate_owned(full)

    return apply_op(out, (x,), backward)


def scatter_rows(out: np.ndarray, pieces: Sequence[Tuple]) -> Tensor:
    """Scatter-add source rows into the buffer ``out`` as a single tape node.

    The inverse of :func:`gather_rows`.  ``out`` is a zero-filled ``(batch,
    seq, features)`` array, written in place and wrapped as the result.
    Each piece ``(source, batch, dst_rows, src_rows)`` adds
    ``source.data[src_rows]`` into ``out[batch, dst_rows]``, where the row
    indices are ints, slices or integer arrays; ``src_rows=None`` adds the
    whole source, broadcast over the destination rows (a 1-D ``(features,)``
    source lands on every one of them).
    Destination rows are distinct within a piece, while pieces may overlap
    (their rows add) and share a source.  The backward slices the gradient
    back: ``grad[batch, dst_rows]`` is scatter-added into ``src_rows`` of the
    source, or summed over the broadcast rows.  ``BIGCity`` assembles
    every prompt batch with it, so the tape holds one node per batch instead
    of one per row.
    """
    for source, batch, dst_rows, src_rows in pieces:
        out[batch, dst_rows] += source.data if src_rows is None else source.data[src_rows]

    def backward(grad: np.ndarray) -> None:
        for source, batch, dst_rows, src_rows in pieces:
            if not source.requires_grad:
                continue
            rows = grad[batch, dst_rows]
            if src_rows is None:
                source._accumulate_owned(rows.reshape(-1, *source.shape).sum(axis=0))
                continue
            full = np.zeros(source.shape, dtype=rows.dtype)
            if isinstance(src_rows, np.ndarray):
                np.add.at(full, src_rows, rows)
            else:
                full[src_rows] = rows
            source._accumulate_owned(full)

    return apply_op(out, [piece[0] for piece in pieces], backward)


_CAUSAL_MASK_CACHE: Dict[Tuple[int, int, int], Optional[np.ndarray]] = {}


def causal_mask(length: int) -> np.ndarray:
    """Boolean mask that is ``True`` above the diagonal (positions to hide)."""
    return np.triu(np.ones((length, length), dtype=bool), k=1)


def cached_causal_mask(q_len: int, kv_len: int, offset: int = 0) -> Optional[np.ndarray]:
    """Shared, read-only causal mask for queries at ``offset .. offset+q_len``.

    Entry ``(i, j)`` is ``True`` when key ``j`` lies in the future of query
    ``offset + i`` (the KV-cached decoding case where cached keys precede the
    new queries).  Returns ``None`` when nothing would be masked — e.g. a
    single-token decode step attending over its full prefix — so callers can
    skip the masking branch entirely.  Masks are cached per shape; repeated
    forward passes at the same lengths reuse one immutable array instead of
    allocating a fresh ``(1, 1, q_len, kv_len)`` buffer per call.
    """
    key = (q_len, kv_len, offset)
    cached = _CAUSAL_MASK_CACHE.get(key, False)
    if cached is not False:
        return cached
    if len(_CAUSAL_MASK_CACHE) > 512:
        _CAUSAL_MASK_CACHE.clear()
    positions = np.arange(kv_len)[None, :] > (offset + np.arange(q_len))[:, None]
    if positions.any():
        mask = positions[None, None]
        mask.setflags(write=False)
    else:
        mask = None
    _CAUSAL_MASK_CACHE[key] = mask
    return mask


def padding_mask(lengths: Sequence[int], max_length: Optional[int] = None) -> np.ndarray:
    """Boolean mask that is ``True`` at padded positions.

    Parameters
    ----------
    lengths:
        Valid sequence length per batch element.
    max_length:
        Padded length; defaults to ``max(lengths)``.
    """
    lengths = np.asarray(lengths, dtype=np.int64)
    max_length = int(max_length if max_length is not None else lengths.max())
    positions = np.arange(max_length)[None, :]
    return positions >= lengths[:, None]


def pairwise_cosine_similarity(a: np.ndarray, b: np.ndarray, eps: float = 1e-9) -> np.ndarray:
    """Dense cosine-similarity matrix between rows of ``a`` and rows of ``b``."""
    a = np.asarray(a, dtype=np.float64)
    b = np.asarray(b, dtype=np.float64)
    a_norm = a / np.maximum(np.linalg.norm(a, axis=1, keepdims=True), eps)
    b_norm = b / np.maximum(np.linalg.norm(b, axis=1, keepdims=True), eps)
    return a_norm @ b_norm.T
