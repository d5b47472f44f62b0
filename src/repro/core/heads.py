"""General-task heads and the unified label space (Sec. V-C).

The paper decodes every output token with one of three shared MLPs:
``MLP_c`` for classification, ``MLP_t`` for timestamp regression and
``MLP_r`` for general regression (Eq. 11).  Because classification targets
come from different task families (road segments for next-hop/recovery, user
ids for trajectory–user linkage, traffic-pattern classes for the binary
classification task), the single classification head operates over a unified
label space that concatenates those families; :class:`LabelSpace` handles
the offset bookkeeping.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Sequence, Tuple

import numpy as np

from repro.core.config import BIGCityConfig
from repro.nn.layers import MLP
from repro.nn.module import Module
from repro.nn.tensor import Tensor


@dataclass(frozen=True)
class LabelSpace:
    """Unified classification label space: segments ++ users ++ pattern classes."""

    num_segments: int
    num_users: int
    num_patterns: int = 2

    def __post_init__(self) -> None:
        if self.num_segments < 1:
            raise ValueError("label space needs at least one segment")
        if self.num_users < 0 or self.num_patterns < 0:
            raise ValueError("user / pattern counts cannot be negative")

    # ------------------------------------------------------------------
    @property
    def size(self) -> int:
        return self.num_segments + self.num_users + self.num_patterns

    @property
    def segment_offset(self) -> int:
        return 0

    @property
    def user_offset(self) -> int:
        return self.num_segments

    @property
    def pattern_offset(self) -> int:
        return self.num_segments + self.num_users

    # ------------------------------------------------------------------
    def segment_label(self, segment_id: int) -> int:
        if not 0 <= segment_id < self.num_segments:
            raise ValueError(f"segment id {segment_id} outside [0, {self.num_segments})")
        return self.segment_offset + segment_id

    def user_label(self, user_id: int) -> int:
        if not 0 <= user_id < self.num_users:
            raise ValueError(f"user id {user_id} outside [0, {self.num_users})")
        return self.user_offset + user_id

    def pattern_label(self, pattern: int) -> int:
        if not 0 <= pattern < self.num_patterns:
            raise ValueError(f"pattern class {pattern} outside [0, {self.num_patterns})")
        return self.pattern_offset + pattern

    # ------------------------------------------------------------------
    def segment_slice(self) -> slice:
        return slice(self.segment_offset, self.segment_offset + self.num_segments)

    def user_slice(self) -> slice:
        return slice(self.user_offset, self.user_offset + self.num_users)

    def pattern_slice(self) -> slice:
        return slice(self.pattern_offset, self.pattern_offset + self.num_patterns)

    def family_slice(self, family: str) -> slice:
        if family == "segment":
            return self.segment_slice()
        if family == "user":
            return self.user_slice()
        if family == "pattern":
            return self.pattern_slice()
        raise ValueError(f"unknown label family {family!r}")


class GeneralTaskHeads(Module):
    """The three shared decoders ``MLP_c``, ``MLP_t`` and ``MLP_r`` (Eq. 11)."""

    def __init__(
        self,
        d_model: int,
        label_space: LabelSpace,
        regression_dim: int,
        config: Optional[BIGCityConfig] = None,
    ) -> None:
        super().__init__()
        config = config or BIGCityConfig()
        rng = np.random.default_rng(config.seed + 7)
        self.label_space = label_space
        self.regression_dim = max(regression_dim, 1)
        hidden = max(d_model, 32)
        self.classifier = MLP(d_model, [hidden], label_space.size, rng=rng)
        self.timestamp_head = MLP(d_model, [hidden], 1, rng=rng)
        self.regression_head = MLP(d_model, [hidden], self.regression_dim, rng=rng)

    # ------------------------------------------------------------------
    def classification_logits(
        self, tokens: Tensor, family: Optional[str] = None, groups: Optional[Sequence[Tuple[int, int]]] = None
    ) -> Tensor:
        """Logits over the unified label space (optionally restricted to one family).

        ``groups`` splits the rows of a 2-D ``tokens`` into spans that each
        get the numbers a separate call would give (see :class:`MLP`), here
        and in the two other decoders.
        """
        logits = self.classifier(tokens, groups)
        if family is None:
            return logits
        restriction = self.label_space.family_slice(family)
        return logits[..., restriction]

    def timestamp_prediction(self, tokens: Tensor, groups: Optional[Sequence[Tuple[int, int]]] = None) -> Tensor:
        """Predicted time interval(s) in units of time slices (``MLP_t``)."""
        return self.timestamp_head(tokens, groups)

    def regression_prediction(self, tokens: Tensor, groups: Optional[Sequence[Tuple[int, int]]] = None) -> Tensor:
        """Predicted dynamic features (``MLP_r``)."""
        return self.regression_head(tokens, groups)

    def forward(self, tokens: Tensor) -> Tuple[Tensor, Tensor, Tensor]:
        """Return all three decoded views of ``tokens``."""
        return (
            self.classification_logits(tokens),
            self.timestamp_prediction(tokens),
            self.regression_prediction(tokens),
        )
