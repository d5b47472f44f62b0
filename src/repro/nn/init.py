"""Parameter initialisation schemes; every initialiser returns a float64 array."""

from __future__ import annotations

import numpy as np


def xavier_uniform(shape, gain: float = 1.0, rng: np.random.Generator | None = None) -> np.ndarray:
    """Glorot/Xavier uniform initialisation."""
    rng = rng or np.random.default_rng()
    fan_in, fan_out = _fans(shape)
    limit = gain * np.sqrt(6.0 / (fan_in + fan_out))
    return rng.uniform(-limit, limit, size=shape)


def normal(shape, std: float = 0.02, rng: np.random.Generator | None = None) -> np.ndarray:
    """Gaussian initialisation (GPT-2 uses std=0.02)."""
    rng = rng or np.random.default_rng()
    return rng.normal(0.0, std, size=shape)


def zeros(shape) -> np.ndarray:
    return np.zeros(shape)


def ones(shape) -> np.ndarray:
    return np.ones(shape)


def _fans(shape) -> tuple[int, int]:
    shape = tuple(int(s) for s in shape)
    if len(shape) == 1:
        return shape[0], shape[0]
    fan_out, fan_in = shape[0], int(np.prod(shape[1:]))
    return fan_in, fan_out
