"""The LLM-based backbone with LoRA adapters (Sec. V-B).

The backbone is a GPT-2-architecture causal transformer.  Following the
paper, LoRA modules are attached to the query/key/value projections and the
feed-forward layers of (a configurable fraction of) the transformer blocks;
during training the base weights stay frozen and only the LoRA matrices (and
optionally the embeddings) receive gradients.
"""

from __future__ import annotations

from typing import List, Optional, Tuple

import numpy as np

from repro.core.config import BIGCityConfig
from repro.nn.lora import attach_lora, lora_parameters, mark_only_lora_trainable
from repro.nn.module import Module
from repro.nn.tensor import Tensor
from repro.nn.transformer import GPT2Config, GPT2Model


class BIGCityBackbone(Module):
    """Causal transformer backbone shared by every task.

    Parameters
    ----------
    config:
        Model configuration (width, depth, LoRA settings).
    text_vocab_size:
        Vocabulary size of the instruction tokenizer; 0 disables the textual
        branch entirely (used by the ``w/o-Pro`` ablation).
    """

    def __init__(self, config: Optional[BIGCityConfig] = None, text_vocab_size: int = 0) -> None:
        super().__init__()
        self.config = config or BIGCityConfig()
        gpt_config = GPT2Config(
            d_model=self.config.d_model,
            num_layers=self.config.num_layers,
            num_heads=self.config.num_heads,
            max_position=self.config.max_position,
            vocab_size=text_vocab_size,
            causal=True,
            seed=self.config.seed,
        )
        self.llm = GPT2Model(gpt_config)
        rng = np.random.default_rng(self.config.seed + 13)
        self._lora_names: List[str] = attach_lora(
            self.llm,
            rank=self.config.lora_rank,
            alpha=self.config.lora_alpha,
            coverage=self.config.lora_coverage,
            rng=rng,
        )
        self.freeze_base()

    # ------------------------------------------------------------------
    @property
    def d_model(self) -> int:
        return self.config.d_model

    @property
    def lora_module_names(self) -> List[str]:
        return list(self._lora_names)

    def freeze_base(self) -> Tuple[int, int]:
        """Freeze everything except LoRA matrices; returns (trainable, total) sizes."""
        return mark_only_lora_trainable(self.llm)

    def trainable_parameter_count(self) -> int:
        return self.llm.num_parameters(trainable_only=True)

    def total_parameter_count(self) -> int:
        return self.llm.num_parameters(trainable_only=False)

    # ------------------------------------------------------------------
    def embed_text(self, token_ids: np.ndarray) -> Tensor:
        """Embed instruction token ids into the model width."""
        return self.llm.embed_tokens(np.asarray(token_ids, dtype=np.int64))

    def new_caches(self):
        """Fresh per-layer KV caches for autoregressive decoding."""
        return self.llm.new_caches()

    def forward(
        self,
        embeddings: Tensor,
        padding_mask: Optional[np.ndarray] = None,
        caches=None,
        position_ids: Optional[np.ndarray] = None,
    ) -> Tensor:
        """Run the causal transformer over an embedded prompt sequence (Eq. 10).

        ``caches`` enables KV-cached incremental decoding (inference only):
        pass only the new positions and the attention layers reuse the cached
        prefix keys/values.  ``position_ids`` gives per-row positional indices
        (batched decoding over rows of different prompt lengths).
        """
        return self.llm(embeddings, padding_mask=padding_mask, caches=caches, position_ids=position_ids)
