"""A small, self-contained neural-network runtime built on NumPy.

This package is the substrate BIGCity's reference implementation obtains from
PyTorch: a reverse-mode autograd engine (:mod:`repro.nn.tensor`), standard
layers (:mod:`repro.nn.layers`), multi-head attention and GPT-2-style
transformer blocks (:mod:`repro.nn.attention`, :mod:`repro.nn.transformer`),
graph attention networks (:mod:`repro.nn.gat`), LoRA adapters
(:mod:`repro.nn.lora`), the Adam optimiser (:mod:`repro.nn.optim`) and losses
(:mod:`repro.nn.losses`).

Everything runs on CPU with float64 NumPy arrays and is sized for
laptop-scale experiments; the APIs intentionally mirror the PyTorch
equivalents so that the BIGCity model code in :mod:`repro.core` reads like
the architecture described in the paper.
"""

from repro.nn.tensor import (
    Tensor,
    no_grad,
    is_grad_enabled,
)
from repro.nn import functional
from repro.nn.attention import KVCache
from repro.nn.module import Module, Parameter, ModuleList, Sequential
from repro.nn.layers import (
    Linear,
    MLP,
    Embedding,
    LayerNorm,
    GELU,
)
from repro.nn.attention import MultiHeadAttention, CrossAttentionPool
from repro.nn.transformer import (
    TransformerBlock,
    GPT2Config,
    GPT2Model,
    TransformerEncoder,
)
from repro.nn.gat import GraphAttentionLayer, GAT
from repro.nn.rnn import GRU, GRUCell
from repro.nn.lora import LoRALinear, attach_lora, lora_parameters, mark_only_lora_trainable
from repro.nn.optim import Adam
from repro.nn.losses import (
    cross_entropy,
    mse_loss,
    info_nce,
)
from repro.nn import init
from repro.nn.serialization import save_state_dict, load_state_dict

__all__ = [
    "Tensor",
    "no_grad",
    "is_grad_enabled",
    "KVCache",
    "functional",
    "Module",
    "Parameter",
    "ModuleList",
    "Sequential",
    "Linear",
    "MLP",
    "Embedding",
    "LayerNorm",
    "GELU",
    "MultiHeadAttention",
    "CrossAttentionPool",
    "TransformerBlock",
    "GPT2Config",
    "GPT2Model",
    "TransformerEncoder",
    "GraphAttentionLayer",
    "GAT",
    "GRU",
    "GRUCell",
    "LoRALinear",
    "attach_lora",
    "lora_parameters",
    "mark_only_lora_trainable",
    "Adam",
    "cross_entropy",
    "mse_loss",
    "info_nce",
    "init",
    "save_state_dict",
    "load_state_dict",
]
