"""Graph attention network (GAT) layers.

The ST tokenizer (Sec. IV-B) encodes the static and dynamic features of the
road network with GATs over the road graph ``G = {R, A, E}``.  The layer
follows Velickovic et al. (2018): per-edge attention coefficients computed
from concatenated projected endpoint features, LeakyReLU, softmax over each
node's in-neighbourhood, optional multi-head concatenation/averaging.
"""

from __future__ import annotations

from typing import Optional, Sequence

import numpy as np

from repro.nn import functional as F
from repro.nn import init
from repro.nn.module import Module, ModuleList, Parameter
from repro.nn.tensor import Tensor


def attention_blocked(adjacency: np.ndarray) -> np.ndarray:
    """The ``(N, N)`` mask of node pairs a GAT head does not attend over.

    Entry ``(i, j)`` is ``True`` when ``j`` is neither an in-neighbour of
    ``i`` nor ``i`` itself: self-loops are always added, so every node
    attends at least to itself.  Callers that run many heads over one graph
    build it once and pass it to every forward.
    """
    adjacency = np.asarray(adjacency, dtype=bool)
    num_nodes = adjacency.shape[0]
    if adjacency.shape != (num_nodes, num_nodes):
        raise ValueError("adjacency must be square")
    return ~(adjacency | np.eye(num_nodes, dtype=bool))


class GraphAttentionLayer(Module):
    """A single graph-attention head over a dense adjacency matrix.

    Inputs are node features ``(..., num_nodes, in_features)`` and a binary
    adjacency matrix ``(num_nodes, num_nodes)``; self-loops are always added
    so every node attends at least to itself.  Leading axes stack feature
    sets over the same graph (the tokenizer's time slices), each attended
    independently: every per-slice product is the 2-D product of that slice.
    """

    def __init__(
        self,
        in_features: int,
        out_features: int,
        negative_slope: float = 0.2,
        rng: Optional[np.random.Generator] = None,
    ) -> None:
        super().__init__()
        self.in_features = in_features
        self.out_features = out_features
        self.negative_slope = negative_slope
        self.weight = Parameter(init.xavier_uniform((in_features, out_features), rng=rng))
        self.attn_src = Parameter(init.xavier_uniform((out_features, 1), rng=rng))
        self.attn_dst = Parameter(init.xavier_uniform((out_features, 1), rng=rng))

    def forward(self, x: Tensor, adjacency: np.ndarray, blocked: Optional[np.ndarray] = None) -> Tensor:
        """Attend over ``adjacency``; ``blocked`` is its precomputed :func:`attention_blocked` mask."""
        if blocked is None:
            blocked = attention_blocked(adjacency)
        if x.shape[-2] != blocked.shape[0]:
            raise ValueError("feature row count must match adjacency size")

        h = x.matmul(self.weight)
        # e_ij = LeakyReLU(a_src . h_i + a_dst . h_j), softmax over j.
        src_scores = h.matmul(self.attn_src)  # (..., N, 1)
        dst_scores = h.matmul(self.attn_dst)  # (..., N, 1)
        attention = F.graph_attention(src_scores, dst_scores, blocked, self.negative_slope)
        return attention.matmul(h)


class GAT(Module):
    """Multi-head, multi-layer GAT with ELU-style nonlinearity between layers.

    ``head_aggregation`` is ``"concat"`` for hidden layers and ``"mean"`` for
    the output layer, matching the reference GAT formulation.  Features may
    carry leading batch axes, as in :class:`GraphAttentionLayer`.
    """

    def __init__(
        self,
        in_features: int,
        hidden_features: int,
        out_features: int,
        num_layers: int = 2,
        num_heads: int = 2,
        rng: Optional[np.random.Generator] = None,
    ) -> None:
        super().__init__()
        if num_layers < 1:
            raise ValueError("num_layers must be >= 1")
        self.num_layers = num_layers
        self.num_heads = num_heads
        self.layers = ModuleList()
        dims_in = in_features
        for layer_idx in range(num_layers):
            is_last = layer_idx == num_layers - 1
            out_dim = out_features if is_last else hidden_features
            heads = ModuleList(
                [GraphAttentionLayer(dims_in, out_dim, rng=rng) for _ in range(num_heads)]
            )
            self.layers.append(heads)
            dims_in = out_dim if is_last else out_dim * num_heads

    def forward(self, x: Tensor, adjacency: np.ndarray, blocked: Optional[np.ndarray] = None) -> Tensor:
        if blocked is None:
            blocked = attention_blocked(adjacency)
        h = x
        for layer_idx, heads in enumerate(self.layers):
            outputs = [head(h, adjacency, blocked) for head in heads]
            is_last = layer_idx == self.num_layers - 1
            if is_last:
                h = outputs[0]
                for extra in outputs[1:]:
                    h = h + extra
                h = h * (1.0 / len(outputs))
            else:
                h = Tensor.concat(outputs, axis=-1).relu()
        return h


def normalized_adjacency(adjacency: np.ndarray, add_self_loops: bool = True) -> np.ndarray:
    """Symmetrically normalised adjacency ``D^{-1/2} (A + I) D^{-1/2}``.

    Several baseline models (DCRNN, GWNET, MTGNN, STGODE) propagate signals
    with normalised adjacency matrices rather than attention; this helper is
    shared by all of them.
    """
    adjacency = np.asarray(adjacency, dtype=np.float64)
    if add_self_loops:
        adjacency = adjacency + np.eye(adjacency.shape[0])
    degrees = adjacency.sum(axis=1)
    inv_sqrt = 1.0 / np.sqrt(np.maximum(degrees, 1e-12))
    return adjacency * inv_sqrt[:, None] * inv_sqrt[None, :]


def random_walk_matrix(adjacency: np.ndarray) -> np.ndarray:
    """Row-normalised transition matrix ``D^{-1} A`` used by diffusion convolution."""
    adjacency = np.asarray(adjacency, dtype=np.float64)
    degrees = adjacency.sum(axis=1)
    inv = 1.0 / np.maximum(degrees, 1e-12)
    return adjacency * inv[:, None]
