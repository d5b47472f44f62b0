"""Standard neural-network layers."""

from __future__ import annotations

from typing import Optional, Sequence, Tuple

import numpy as np

from repro.nn import functional as F
from repro.nn import init
from repro.nn.module import Module, Parameter
from repro.nn.tensor import Tensor, fused_enabled


class Linear(Module):
    """Affine transform ``y = x @ W.T + b``."""

    def __init__(
        self,
        in_features: int,
        out_features: int,
        bias: bool = True,
        rng: Optional[np.random.Generator] = None,
    ) -> None:
        super().__init__()
        self.in_features = in_features
        self.out_features = out_features
        self.weight = Parameter(init.xavier_uniform((out_features, in_features), rng=rng))
        self.bias = Parameter(init.zeros((out_features,))) if bias else None

    def forward(self, x: Tensor) -> Tensor:
        return F.linear(x, self.weight, self.bias)

    def inference_weights(self) -> Tuple[np.ndarray, Optional[np.ndarray]]:
        """The ``(weight, bias)`` arrays a no-grad forward applies."""
        return self.weight.data, None if self.bias is None else self.bias.data

    def __repr__(self) -> str:
        return f"Linear(in={self.in_features}, out={self.out_features}, bias={self.bias is not None})"


class Embedding(Module):
    """Lookup table mapping integer ids to dense vectors."""

    def __init__(
        self,
        num_embeddings: int,
        embedding_dim: int,
        rng: Optional[np.random.Generator] = None,
        std: float = 0.02,
    ) -> None:
        super().__init__()
        self.num_embeddings = num_embeddings
        self.embedding_dim = embedding_dim
        self.weight = Parameter(init.normal((num_embeddings, embedding_dim), std=std, rng=rng))

    def forward(self, indices) -> Tensor:
        indices = np.asarray(indices.data if isinstance(indices, Tensor) else indices, dtype=np.int64)
        if np.any(indices < 0) or np.any(indices >= self.num_embeddings):
            raise IndexError(
                f"embedding index out of range [0, {self.num_embeddings}): "
                f"min={indices.min()}, max={indices.max()}"
            )
        return self.weight.index_select(indices, axis=0)

    def __repr__(self) -> str:
        return f"Embedding(num={self.num_embeddings}, dim={self.embedding_dim})"


class LayerNorm(Module):
    """Layer normalisation over the last dimension."""

    def __init__(self, normalized_shape: int, eps: float = 1e-5) -> None:
        super().__init__()
        self.normalized_shape = normalized_shape
        self.eps = eps
        self.weight = Parameter(init.ones((normalized_shape,)))
        self.bias = Parameter(init.zeros((normalized_shape,)))

    def forward(self, x: Tensor) -> Tensor:
        if fused_enabled():
            return F.fused_layer_norm(x, self.weight, self.bias, eps=self.eps)
        return F.layer_norm_composed(x, self.weight, self.bias, eps=self.eps)


class GELU(Module):
    def forward(self, x: Tensor) -> Tensor:
        return F.gelu(x)


class MLP(Module):
    """Multi-layer perceptron with GELU between its linear layers.

    The paper uses MLPs in the temporal-integration module of the tokenizer
    (Eq. 8) and as the general-task heads (Eq. 11).  With the fused kernels
    the whole stack is one tape node (:func:`repro.nn.functional.mlp`);
    under ``fused_kernels(False)``, or once a layer has been replaced by a
    module other than :class:`Linear` / :class:`GELU`, it runs module by
    module.
    """

    def __init__(
        self,
        in_features: int,
        hidden_features: Sequence[int],
        out_features: int,
        rng: Optional[np.random.Generator] = None,
    ) -> None:
        super().__init__()
        dims = [in_features, *hidden_features, out_features]
        layers = []
        for i in range(len(dims) - 1):
            layers.append(Linear(dims[i], dims[i + 1], rng=rng))
            if i < len(dims) - 2:
                layers.append(GELU())
        self.layers = _as_sequential(layers)
        self.in_features = in_features
        self.out_features = out_features

    def forward(self, x: Tensor, groups: Optional[Sequence[Tuple[int, int]]] = None) -> Tensor:
        """Apply the MLP to ``x``.

        ``groups`` (``(start, stop)`` row spans of a 2-D ``x``) gives every
        span the values and gradients of a separate call on its rows; see
        :func:`repro.nn.functional.mlp`.
        """
        linears, activations = self.layers[0::2], self.layers[1::2]
        if (
            fused_enabled()
            and all(type(layer) is Linear for layer in linears)
            and all(type(layer) is GELU for layer in activations)
        ):
            return F.mlp(x, [(layer.weight, layer.bias) for layer in linears], groups)
        if groups is None:
            return self.layers(x)
        return Tensor.concat([self.layers(x[start:stop]) for start, stop in groups], axis=0)


def _as_sequential(layers) -> "Sequential":
    from repro.nn.module import Sequential

    return Sequential(*layers)
