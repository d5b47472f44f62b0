"""Configuration of the BIGCity model and its training procedure."""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional, Sequence, Tuple


@dataclass
class BIGCityConfig:
    """Hyper-parameters of BIGCity.

    The defaults are scaled down from the paper (which uses a 117M-parameter
    GPT-2) so that the full two-stage training runs on a CPU in seconds while
    keeping every architectural component intact.
    """

    # --- spatiotemporal tokenizer -------------------------------------
    #: Hidden dimension ``D_h`` of the static/dynamic segment representations.
    hidden_dim: int = 32
    #: GAT depth / heads for both the static and the dynamic encoder.
    gat_layers: int = 2
    gat_heads: int = 2
    #: History window ``T'`` of the dynamic encoder (number of past slices).
    history_window: int = 3
    #: Drop the dynamic encoder (ablation ``w/o-Dyn`` and BJ-like datasets).
    use_dynamic_encoder: bool = True
    #: Drop the static encoder (ablation ``w/o-Sta``).
    use_static_encoder: bool = True
    #: Drop the fusion cross-attention (ablation ``w/o-Fus``).
    use_fusion: bool = True

    # --- backbone ------------------------------------------------------
    #: Model width of the causal backbone (GPT-2 ``d_model``).
    d_model: int = 64
    num_layers: int = 3
    num_heads: int = 4
    max_position: int = 256

    # --- LoRA ----------------------------------------------------------
    lora_rank: int = 8
    lora_alpha: float = 16.0
    #: Fraction ``n`` of transformer blocks that receive LoRA adapters.
    lora_coverage: float = 1.0

    # --- prompts ---------------------------------------------------------
    #: Use task-oriented prompts; ``False`` reproduces the ``w/o-Pro``
    #: ablation, where a task-specific head replaces the prompt mechanism.
    use_prompts: bool = True

    # --- loss weights (Eq. 16 / Eq. 17) ----------------------------------
    lambda_reg: float = 1.0
    lambda_tim: float = 1.0

    #: Random seed controlling every parameter initialisation.
    seed: int = 0

    def __post_init__(self) -> None:
        if self.d_model % self.num_heads != 0:
            raise ValueError("d_model must be divisible by num_heads")
        if not 0.0 < self.lora_coverage <= 1.0:
            raise ValueError("lora_coverage must be in (0, 1]")
        if self.history_window < 1:
            raise ValueError("history_window must be >= 1")
        if not (self.use_static_encoder or self.use_dynamic_encoder):
            raise ValueError("at least one of the static/dynamic encoders must be enabled")

    @classmethod
    def tiny(cls, seed: int = 0) -> "BIGCityConfig":
        """A very small configuration for unit tests."""
        return cls(
            hidden_dim=16,
            gat_layers=1,
            gat_heads=1,
            history_window=2,
            d_model=32,
            num_layers=2,
            num_heads=2,
            lora_rank=4,
            max_position=128,
            seed=seed,
        )

    @classmethod
    def small(cls, seed: int = 0) -> "BIGCityConfig":
        """The configuration used by the benchmark harness."""
        return cls(
            hidden_dim=32,
            gat_layers=2,
            gat_heads=2,
            history_window=3,
            d_model=64,
            num_layers=3,
            num_heads=4,
            lora_rank=8,
            max_position=256,
            seed=seed,
        )
