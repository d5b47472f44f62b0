"""The Adam optimiser and global gradient-norm clipping.

The Adam moment estimates accumulate in float64 and every update is cast
back to the parameter's own dtype, so a parameter never changes precision
across a ``step()``.
"""

from __future__ import annotations

from typing import Dict, Iterable, List

import numpy as np

from repro.nn.module import Parameter


class Adam:
    """Adam optimiser (Kingma & Ba, 2015)."""

    def __init__(
        self,
        parameters: Iterable[Parameter],
        lr: float = 1e-3,
        betas: tuple = (0.9, 0.999),
        eps: float = 1e-8,
        weight_decay: float = 0.0,
    ) -> None:
        self.parameters: List[Parameter] = [p for p in parameters]
        if not self.parameters:
            raise ValueError("optimizer received an empty parameter list")
        if lr <= 0:
            raise ValueError("learning rate must be positive")
        self.lr = lr
        self._step_count = 0
        self.beta1, self.beta2 = betas
        self.eps = eps
        self.weight_decay = weight_decay
        self._m: Dict[int, np.ndarray] = {}
        self._v: Dict[int, np.ndarray] = {}

    def zero_grad(self) -> None:
        for param in self.parameters:
            param.grad = None

    def step(self) -> None:
        self._step_count += 1
        t = self._step_count
        for param in self.parameters:
            if param.grad is None or not param.requires_grad:
                continue
            grad = param.grad
            if self.weight_decay:
                grad = grad + self.weight_decay * param.data
            m = self._m.get(id(param), np.zeros_like(param.data, dtype=np.float64))
            v = self._v.get(id(param), np.zeros_like(param.data, dtype=np.float64))
            m = self.beta1 * m + (1 - self.beta1) * grad
            v = self.beta2 * v + (1 - self.beta2) * grad**2
            self._m[id(param)] = m
            self._v[id(param)] = v
            m_hat = m / (1 - self.beta1**t)
            v_hat = v / (1 - self.beta2**t)
            update = self.lr * m_hat / (np.sqrt(v_hat) + self.eps)
            param.data = (param.data - update).astype(param.data.dtype, copy=False)


def clip_grad_norm(parameters: Iterable[Parameter], max_norm: float) -> float:
    """Clip gradients in place to a maximum global L2 norm; returns the norm."""
    params = [p for p in parameters if p.grad is not None]
    if not params:
        return 0.0
    total = float(np.sqrt(sum(float((p.grad**2).sum(dtype=np.float64)) for p in params)))
    if total > max_norm and total > 0:
        scale = max_norm / total
        for p in params:
            p.grad = p.grad * scale
    return total
