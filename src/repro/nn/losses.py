"""Loss functions used across BIGCity and the baselines."""

from __future__ import annotations

from typing import Optional

import numpy as np

from repro.nn import functional as F
from repro.nn.tensor import Tensor


def _ensure_tensor(value) -> Tensor:
    return value if isinstance(value, Tensor) else Tensor(value)


def cross_entropy(logits: Tensor, targets, reduction: str = "mean") -> Tensor:
    """Cross-entropy between raw ``logits`` and integer class ``targets``.

    ``logits`` has shape ``(..., num_classes)`` and ``targets`` the matching
    leading shape of integer labels.  Uses the single-node fused kernel
    (logits -> loss with analytic gradient).
    """
    return F.fused_cross_entropy(logits, targets, reduction=reduction)


def cross_entropy_composed(logits: Tensor, targets, reduction: str = "mean") -> Tensor:
    """:func:`cross_entropy` as log-softmax, gather, negate and reduce tape nodes (its reference)."""
    targets = np.asarray(targets.data if isinstance(targets, Tensor) else targets, dtype=np.int64)
    log_probs = logits.log_softmax(axis=-1)
    flat = log_probs.reshape(-1, logits.shape[-1])
    index = (np.arange(flat.shape[0]), targets.reshape(-1))
    picked = flat[index]
    loss = -picked
    return _reduce(loss, reduction)


def mse_loss(prediction: Tensor, target, reduction: str = "mean") -> Tensor:
    """Mean squared error."""
    target = _ensure_tensor(target).detach()
    diff = prediction - target
    return _reduce(diff * diff, reduction)


def info_nce(anchor: Tensor, positive: Tensor, temperature: float = 0.1) -> Tensor:
    """InfoNCE contrastive loss over in-batch negatives.

    ``anchor`` and ``positive`` are ``(batch, dim)`` embeddings; the i-th
    positive is the matching pair and all other rows serve as negatives.
    Used by the contrastive trajectory-representation baselines (JCLRNT,
    START) and available for extensions of BIGCity.
    """
    if anchor.shape != positive.shape:
        raise ValueError("anchor and positive must have the same shape")
    anchor_norm = _l2_normalise(anchor)
    positive_norm = _l2_normalise(positive)
    logits = anchor_norm.matmul(positive_norm.transpose()) * (1.0 / temperature)
    labels = np.arange(anchor.shape[0])
    return cross_entropy(logits, labels)


def masked_mse_loss(prediction: Tensor, target, mask: np.ndarray) -> Tensor:
    """MSE restricted to positions where ``mask`` is True."""
    mask_dtype = prediction.data.dtype if prediction.data.dtype.kind == "f" else np.float64
    mask = np.asarray(mask, dtype=mask_dtype)
    target = _ensure_tensor(target).detach()
    diff = prediction - target
    weighted = diff * diff * Tensor(mask)
    denom = max(float(mask.sum()), 1.0)
    return weighted.sum() * (1.0 / denom)


def _l2_normalise(x: Tensor, eps: float = 1e-9) -> Tensor:
    norm = (x * x).sum(axis=-1, keepdims=True).clip(eps, np.inf).sqrt()
    return x / norm


def _reduce(loss: Tensor, reduction: str) -> Tensor:
    if reduction == "mean":
        return loss.mean()
    if reduction == "sum":
        return loss.sum()
    if reduction == "none":
        return loss
    raise ValueError(f"unknown reduction {reduction!r}")
