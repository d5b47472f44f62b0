"""Task-oriented prompts (Sec. V-A).

A prompt is the concatenation of three parts:

* **textual instruction tokens** ``X^(txt)`` — a fixed natural-language
  description of the task, tokenised by a small word-level tokenizer (the
  paper reuses GPT-2's BPE; the backbone here owns its own vocabulary built
  from the instruction bank);
* **input data tokens** ``X^(st)`` — the ST tokens of the trajectory or
  traffic-state series, possibly with ``[MASK]`` embeddings inserted at
  positions to be generated;
* **task placeholder tokens** ``X^(tsk)`` — learnable ``[CLAS]`` / ``[REG]``
  vectors, one per expected output.

:class:`PromptBuilder` assembles :class:`Prompt` descriptions for each of the
eight tasks, following the templates of Fig. 3.  The descriptions are purely
structural — embedding happens inside :class:`repro.core.model.BIGCity`.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from enum import Enum
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.core.st_unit import STUnitSequence


class TaskType(str, Enum):
    """The eight ST analysis tasks of Table I."""

    NEXT_HOP = "next_hop"
    TRAVEL_TIME = "travel_time"
    CLASSIFICATION = "classification"
    SIMILARITY = "similarity"
    RECOVERY = "recovery"
    TRAFFIC_ONE_STEP = "traffic_one_step"
    TRAFFIC_MULTI_STEP = "traffic_multi_step"
    TRAFFIC_IMPUTATION = "traffic_imputation"
    MASKED_RECONSTRUCTION = "masked_reconstruction"


#: Placeholder kinds used in task-token sequences.
CLAS = "clas"
REG = "reg"


@dataclass(frozen=True)
class TaskAnchor:
    """What a task placeholder already knows about the position it predicts.

    Fig. 3 of the paper annotates the placeholder positions with partially
    filled ST tokens — "ST token without spatial feature" (next hop,
    recovery), "ST token without temporal features" (travel time), "ST token
    lacks traffic state feature" (traffic prediction).  A ``TaskAnchor``
    carries that partial information so the model can embed it into the
    corresponding ``[CLAS]`` / ``[REG]`` task token:

    * ``kind="data"`` — the placeholder refers to an existing data position of
      the prompt; its (possibly feature-masked) ST token is added to the task
      token.  Used by next-hop (the last observed sample) and travel-time
      estimation (the sample whose arrival interval is regressed).
    * ``kind="partial"`` — the placeholder refers to a position that is not in
      the data tokens; a partial ST token is built from whatever is known:
      the road segment (``segment_id``) and/or the sampling time
      (``timestamp``), never the traffic state.  Used by traffic
      prediction/imputation (segment and future/missing slice time known) and
      by recovery / masked reconstruction (only an interpolated time known).
    """

    kind: str
    position: Optional[int] = None
    segment_id: Optional[int] = None
    timestamp: Optional[float] = None

    def __post_init__(self) -> None:
        if self.kind not in ("data", "partial"):
            raise ValueError(f"unknown anchor kind {self.kind!r}")
        if self.kind == "data" and self.position is None:
            raise ValueError("data anchors need a position")


#: The selected instruction per task (the paper generates candidates with a
#: language model and keeps the best one; we ship the final selections).
INSTRUCTION_BANK: Dict[TaskType, str] = {
    TaskType.NEXT_HOP: "predict the next road segment of the input trajectory",
    TaskType.TRAVEL_TIME: "regress the travel time interval on each placeholder based on the input trajectory",
    TaskType.CLASSIFICATION: "classify the input trajectory and output its class label",
    TaskType.SIMILARITY: "encode the input trajectory for most similar trajectory search",
    TaskType.RECOVERY: "generate the road segment on each placeholder to recover the masked trajectory",
    TaskType.TRAFFIC_ONE_STEP: "regress the traffic state of the next time slice based on the input series",
    TaskType.TRAFFIC_MULTI_STEP: "regress the traffic state on each placeholder based on the input series",
    TaskType.TRAFFIC_IMPUTATION: "regress the missing traffic state on each placeholder based on the input series",
    TaskType.MASKED_RECONSTRUCTION: "reconstruct the masked spatiotemporal units of the input sequence",
}


class TextTokenizer:
    """Word-level tokenizer over the instruction bank vocabulary."""

    PAD = "<pad>"
    UNK = "<unk>"

    def __init__(self, extra_sentences: Optional[Sequence[str]] = None) -> None:
        vocabulary = {self.PAD: 0, self.UNK: 1}
        sentences = list(INSTRUCTION_BANK.values()) + list(extra_sentences or [])
        for sentence in sentences:
            for word in self._split(sentence):
                if word not in vocabulary:
                    vocabulary[word] = len(vocabulary)
        self._vocabulary = vocabulary
        self._inverse = {index: word for word, index in vocabulary.items()}

    @staticmethod
    def _split(sentence: str) -> List[str]:
        return sentence.lower().split()

    @property
    def vocab_size(self) -> int:
        return len(self._vocabulary)

    def encode(self, sentence: str) -> np.ndarray:
        ids = [self._vocabulary.get(word, self._vocabulary[self.UNK]) for word in self._split(sentence)]
        return np.asarray(ids, dtype=np.int64)

    def decode(self, ids: Sequence[int]) -> str:
        return " ".join(self._inverse.get(int(i), self.UNK) for i in ids)


@dataclass
class Prompt:
    """Structural description of one task-oriented prompt.

    Attributes
    ----------
    task:
        Which task the prompt encodes (selects the instruction text).
    sequence:
        The ST-unit sequence providing the input data tokens.
    mask_positions:
        Positions (indices into ``sequence``) whose ST token must be replaced
        by the learnable ``[MASK]`` embedding (recovery / reconstruction /
        imputation inputs).
    time_feature_mask:
        Positions whose temporal features are hidden from the tokenizer
        (travel-time estimation hides every timestamp except the first).
    placeholders:
        Task-token kinds, in order (``"clas"`` / ``"reg"``).
    classification_targets / regression_targets / timestamp_targets:
        Supervision aligned with ``placeholders`` — classification targets
        are label-space indices, regression targets are arrays (one per REG
        placeholder), timestamp targets are seconds.
    metadata:
        Free-form extras used by evaluation code (e.g. the originating
        trajectory id).
    """

    task: TaskType
    sequence: STUnitSequence
    mask_positions: Tuple[int, ...] = ()
    time_feature_mask: Optional[np.ndarray] = None
    placeholders: Tuple[str, ...] = ()
    anchors: Tuple[Optional[TaskAnchor], ...] = ()
    classification_targets: Tuple[int, ...] = ()
    regression_targets: Tuple[np.ndarray, ...] = ()
    timestamp_targets: Tuple[float, ...] = ()
    metadata: Dict = field(default_factory=dict)

    @property
    def instruction(self) -> str:
        return INSTRUCTION_BANK[self.task]

    def __post_init__(self) -> None:
        for kind in self.placeholders:
            if kind not in (CLAS, REG):
                raise ValueError(f"unknown placeholder kind {kind!r}")
        if any(p < 0 or p >= len(self.sequence) for p in self.mask_positions):
            raise ValueError("mask positions must index into the sequence")
        if self.anchors and len(self.anchors) != len(self.placeholders):
            raise ValueError("anchors, when provided, must align with placeholders")
        for anchor in self.anchors:
            if anchor is not None and anchor.kind == "data":
                if not 0 <= anchor.position < len(self.sequence):
                    raise ValueError("data anchors must point inside the sequence")


class PromptBuilder:
    """Build task-oriented prompts from ST-unit sequences (templates of Fig. 3)."""

    def __init__(self, label_space: "LabelSpaceProtocol") -> None:
        self.label_space = label_space

    # ------------------------------------------------------------------
    # Trajectory tasks
    # ------------------------------------------------------------------
    def next_hop(self, sequence: STUnitSequence) -> Prompt:
        """Template of Fig. 3a: the trajectory prefix predicts the segment after it."""
        if len(sequence) < 3:
            raise ValueError("next-hop prompts need at least three samples")
        prefix = sequence.slice(0, len(sequence) - 1)
        target_segment = int(sequence.segment_ids[-1])
        # The [CLAS] placeholder is anchored on the last observed sample (the
        # prediction context), matching the causal "next token" convention.
        anchor = TaskAnchor(kind="data", position=len(prefix) - 1)
        return Prompt(
            task=TaskType.NEXT_HOP,
            sequence=prefix,
            placeholders=(CLAS,),
            anchors=(anchor,),
            classification_targets=(self.label_space.segment_label(target_segment),),
            metadata={"source_id": sequence.source_id},
        )

    def travel_time(self, sequence: STUnitSequence) -> Prompt:
        """Template of Fig. 3b: timestamps are hidden, intervals are regressed."""
        if len(sequence) < 2:
            raise ValueError("travel-time prompts need at least two samples")
        length = len(sequence)
        hide_times = np.ones(length, dtype=bool)
        hide_times[0] = False  # departure time is known
        intervals = np.diff(sequence.timestamps)
        placeholders = tuple(REG for _ in range(length - 1))
        # Each [REG] is anchored on the sample whose arrival interval it
        # regresses; those data tokens carry spatial but no temporal features
        # ("ST token without temporal features", Fig. 3b).
        anchors = tuple(TaskAnchor(kind="data", position=k + 1) for k in range(length - 1))
        return Prompt(
            task=TaskType.TRAVEL_TIME,
            sequence=sequence,
            time_feature_mask=hide_times,
            placeholders=placeholders,
            anchors=anchors,
            timestamp_targets=tuple(float(v) for v in intervals),
            metadata={"source_id": sequence.source_id, "total_time": float(sequence.timestamps[-1] - sequence.timestamps[0])},
        )

    def classification(self, sequence: STUnitSequence, target: str = "user") -> Prompt:
        """Trajectory classification: user linkage (XA/CD) or binary pattern (BJ)."""
        if target == "user":
            label = self.label_space.user_label(int(sequence.user_id))
        elif target == "pattern":
            label = self.label_space.pattern_label(int(sequence.label))
        else:
            raise ValueError("target must be 'user' or 'pattern'")
        # The [CLAS] placeholder is anchored on the final observed sample; the
        # trip destination is highly informative for both user linkage and
        # traffic-pattern classification, and the rest of the route remains
        # accessible through causal attention.
        anchor = TaskAnchor(kind="data", position=len(sequence) - 1)
        return Prompt(
            task=TaskType.CLASSIFICATION,
            sequence=sequence,
            placeholders=(CLAS,),
            anchors=(anchor,),
            classification_targets=(label,),
            metadata={"source_id": sequence.source_id, "target": target},
        )

    def similarity(self, sequence: STUnitSequence) -> Prompt:
        """Embedding prompt: no placeholder outputs, the pooled hidden state is used."""
        return Prompt(
            task=TaskType.SIMILARITY,
            sequence=sequence,
            placeholders=(CLAS,),
            classification_targets=(-1,),
            metadata={"source_id": sequence.source_id},
        )

    def recovery(self, full_sequence: STUnitSequence, kept_indices: Sequence[int]) -> Prompt:
        """Template of Fig. 3d: ``[MASK]`` inserted at dropped positions, ``[CLAS]`` per mask.

        The endpoints need not be kept: a masked position before the first
        (or after the last) kept sample anchors its partial ST token on the
        nearest kept neighbour on the open side, mirroring the open-sided
        gap handling of the constrained decoder.
        """
        kept = np.asarray(sorted(set(int(i) for i in kept_indices)), dtype=np.int64)
        if kept.size == 0:
            raise ValueError("recovery prompts need at least one kept index")
        if kept[0] < 0 or kept[-1] >= len(full_sequence):
            raise ValueError(
                f"kept indices must lie in [0, {len(full_sequence) - 1}], got "
                f"[{int(kept[0])}, {int(kept[-1])}]"
            )
        all_positions = np.arange(len(full_sequence))
        missing = np.setdiff1d(all_positions, kept)
        placeholders = tuple(CLAS for _ in missing)
        targets = tuple(self.label_space.segment_label(int(full_sequence.segment_ids[i])) for i in missing)
        # Each [CLAS] is anchored on a partial ST token: the sampling time of
        # the missing position is approximated by linear interpolation between
        # the nearest kept samples, and the spatial part uses the last *kept*
        # segment before the gap (both are known to a low-rate GPS pipeline at
        # inference time; the dropped segment itself is not).
        anchors = tuple(
            TaskAnchor(
                kind="partial",
                segment_id=int(full_sequence.segment_ids[kept[kept < i].max()]) if np.any(kept < i) else int(full_sequence.segment_ids[kept[0]]),
                timestamp=_interpolated_timestamp(full_sequence.timestamps, kept, int(i)),
            )
            for i in missing
        )
        return Prompt(
            task=TaskType.RECOVERY,
            sequence=full_sequence,
            mask_positions=tuple(int(i) for i in missing),
            placeholders=placeholders,
            anchors=anchors,
            classification_targets=targets,
            metadata={"source_id": full_sequence.source_id, "kept_indices": kept},
        )

    # ------------------------------------------------------------------
    # Traffic-state tasks
    # ------------------------------------------------------------------
    def traffic_prediction(
        self,
        history: STUnitSequence,
        target_values: np.ndarray,
        multi_step: bool = True,
    ) -> Prompt:
        """Template of Fig. 3c: history ST tokens, one ``[REG]`` per future slice."""
        target_values = np.atleast_2d(np.asarray(target_values, dtype=np.float64))
        horizon = target_values.shape[0]
        task = TaskType.TRAFFIC_MULTI_STEP if multi_step else TaskType.TRAFFIC_ONE_STEP
        if not multi_step and horizon != 1:
            raise ValueError("one-step prediction expects exactly one target row")
        # Each [REG] knows the segment and the future slice's time, but not its
        # traffic state ("ST token lacks traffic state feature", Fig. 3c).
        if len(history) > 1:
            slice_seconds = float(history.timestamps[1] - history.timestamps[0])
        else:
            slice_seconds = 1800.0
        segment = int(history.segment_ids[0])
        last_time = float(history.timestamps[-1])
        anchors = tuple(
            TaskAnchor(kind="partial", segment_id=segment, timestamp=last_time + (k + 1) * slice_seconds)
            for k in range(horizon)
        )
        return Prompt(
            task=task,
            sequence=history,
            placeholders=tuple(REG for _ in range(horizon)),
            anchors=anchors,
            regression_targets=tuple(target_values[i] for i in range(horizon)),
            metadata={"segment_id": segment},
        )

    def traffic_imputation(self, sequence: STUnitSequence, masked_positions: Sequence[int]) -> Prompt:
        """Mask a subset of slices and regress their traffic state."""
        masked = tuple(sorted(int(i) for i in masked_positions))
        if not masked:
            raise ValueError("imputation prompts need at least one masked position")
        if sequence.dynamic_features is None:
            raise ValueError("imputation requires dynamic features on the input sequence")
        targets = tuple(sequence.dynamic_features[i].copy() for i in masked)
        # The segment and the masked slice's time are known; its traffic state is not.
        anchors = tuple(
            TaskAnchor(
                kind="partial",
                segment_id=int(sequence.segment_ids[i]),
                timestamp=float(sequence.timestamps[i]),
            )
            for i in masked
        )
        return Prompt(
            task=TaskType.TRAFFIC_IMPUTATION,
            sequence=sequence,
            mask_positions=masked,
            placeholders=tuple(REG for _ in masked),
            anchors=anchors,
            regression_targets=targets,
            metadata={"segment_id": int(sequence.segment_ids[0])},
        )

    # ------------------------------------------------------------------
    # Stage-1 pre-training
    # ------------------------------------------------------------------
    def masked_reconstruction(
        self,
        sequence: STUnitSequence,
        mask_ratio: float = 0.3,
        rng: Optional[np.random.Generator] = None,
    ) -> Prompt:
        """Stage-1 prompt: mask K units, emit a ([CLAS], [REG]) pair per mask (Eq. 12)."""
        rng = rng or np.random.default_rng()
        length = len(sequence)
        num_masked = max(1, int(round(mask_ratio * length)))
        candidates = np.arange(1, length) if length > 1 else np.arange(length)
        masked = np.sort(rng.choice(candidates, size=min(num_masked, len(candidates)), replace=False))
        placeholders: List[str] = []
        anchors: List[Optional[TaskAnchor]] = []
        clas_targets: List[int] = []
        reg_targets: List[np.ndarray] = []
        tim_targets: List[float] = []
        channels = sequence.dynamic_features.shape[1] if sequence.dynamic_features is not None else 0
        unmasked = np.setdiff1d(np.arange(length), masked)
        for position in masked:
            placeholders.extend([CLAS, REG])
            earlier_unmasked = unmasked[unmasked < position]
            anchor_segment = int(sequence.segment_ids[earlier_unmasked.max()]) if len(earlier_unmasked) else None
            anchor = TaskAnchor(
                kind="partial",
                segment_id=anchor_segment,
                timestamp=_interpolated_timestamp(sequence.timestamps, unmasked, int(position)),
            )
            anchors.extend([anchor, anchor])
            clas_targets.append(self.label_space.segment_label(int(sequence.segment_ids[position])))
            if channels:
                reg_targets.append(sequence.dynamic_features[position].copy())
            else:
                reg_targets.append(np.zeros(0))
            tim_targets.append(float(sequence.timestamps[position] - sequence.timestamps[max(position - 1, 0)]))
        return Prompt(
            task=TaskType.MASKED_RECONSTRUCTION,
            sequence=sequence,
            mask_positions=tuple(int(i) for i in masked),
            placeholders=tuple(placeholders),
            anchors=tuple(anchors),
            classification_targets=tuple(clas_targets),
            regression_targets=tuple(reg_targets),
            timestamp_targets=tuple(tim_targets),
            metadata={"source_id": sequence.source_id},
        )


def _interpolated_timestamp(timestamps: np.ndarray, known_indices: np.ndarray, position: int) -> float:
    """Approximate the timestamp of ``position`` from the nearest known samples."""
    timestamps = np.asarray(timestamps, dtype=np.float64)
    known = np.asarray(sorted(int(i) for i in known_indices), dtype=np.int64)
    earlier = known[known < position]
    later = known[known > position]
    if len(earlier) == 0 and len(later) == 0:
        return float(timestamps[position])
    if len(earlier) == 0:
        return float(timestamps[later.min()])
    if len(later) == 0:
        return float(timestamps[earlier.max()])
    a, b = int(earlier.max()), int(later.min())
    fraction = (position - a) / max(b - a, 1)
    return float(timestamps[a] + fraction * (timestamps[b] - timestamps[a]))


class LabelSpaceProtocol:
    """Protocol-ish documentation of what :class:`PromptBuilder` needs.

    Implemented by :class:`repro.core.heads.LabelSpace`; declared here only to
    avoid a circular import in type checking and documentation.
    """

    def segment_label(self, segment_id: int) -> int:  # pragma: no cover - interface stub
        raise NotImplementedError

    def user_label(self, user_id: int) -> int:  # pragma: no cover - interface stub
        raise NotImplementedError

    def pattern_label(self, pattern: int) -> int:  # pragma: no cover - interface stub
        raise NotImplementedError
