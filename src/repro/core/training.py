"""Two-stage training of BIGCity (Sec. VI).

Stage 1 — **masked reconstruction training**: ST-unit sequences from both
modalities are masked and reconstructed; the ST tokenizer and the LoRA
modules are trained jointly (Eq. 16).

Stage 2 — **task-oriented prompt tuning**: prompts from every task are mixed
into a single "full training set" and co-trained (Eq. 17); the tokenizer is
frozen and only LoRA modules, the task/special tokens and the general-task
heads are updated.

The trainers operate on laptop-scale synthetic datasets, so an "epoch" takes
seconds; the structure (what is frozen when, which losses apply) follows the
paper exactly.

Each epoch builds its prompts with the module-level
:func:`assemble_stage1_prompts` / :func:`assemble_stage2_prompts` and then
draws a shuffled batch order, both from the trainer's one seeded generator.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.core.config import BIGCityConfig
from repro.core.model import BIGCity
from repro.core.prompts import Prompt, PromptBuilder, TaskType
from repro.core.st_unit import STUnitSequence, traffic_series_to_units
from repro.data.datasets import CityDataset
from repro.data.trajectory import Trajectory, subsample_trajectory
from repro.data.traffic_state import TrafficStateSeries
from repro.nn.optim import Adam, clip_grad_norm


@dataclass
class TrainingConfig:
    """Hyper-parameters of the two training stages."""

    stage1_epochs: int = 2
    stage2_epochs: int = 3
    batch_size: int = 8
    learning_rate: float = 2e-3
    stage2_learning_rate: float = 3e-3
    mask_ratio: float = 0.3
    grad_clip: float = 5.0
    #: Tasks included in stage-2 co-training.
    tasks: Tuple[TaskType, ...] = (
        TaskType.NEXT_HOP,
        TaskType.TRAVEL_TIME,
        TaskType.CLASSIFICATION,
        TaskType.RECOVERY,
        TaskType.TRAFFIC_MULTI_STEP,
        TaskType.TRAFFIC_IMPUTATION,
    )
    #: Cap on the number of trajectories used per epoch (keeps CPU time bounded).
    max_trajectories: Optional[int] = None
    #: Number of traffic-state sequences sampled per epoch for the traffic tasks.
    traffic_sequences_per_epoch: int = 32
    #: History/horizon of the traffic forecasting prompts.
    traffic_history: int = 6
    traffic_horizon: int = 6
    #: Extra next-hop prompts per trajectory cut at random intermediate
    #: positions (besides the prompt that uses the full prefix).
    next_hop_augmentation: int = 3
    #: Mask ratio for recovery prompts during training.
    recovery_keep_ratio: float = 0.3
    #: Mask ratio for imputation prompts during training.
    imputation_mask_ratio: float = 0.25
    seed: int = 0

    def __post_init__(self) -> None:
        if self.batch_size < 1:
            raise ValueError("batch_size must be >= 1")
        if not 0.0 < self.mask_ratio < 1.0:
            raise ValueError("mask_ratio must be in (0, 1)")


@dataclass
class EpochLog:
    """Loss and gradient statistics of a single epoch.

    ``grad_norm_mean`` / ``grad_norm_max`` summarise the global gradient
    norm of each step before clipping (the value ``clip_grad_norm``
    returns); both are 0 for an epoch without a step.
    """

    epoch: int
    loss: float
    breakdown: Dict[str, float]
    seconds: float
    grad_norm_mean: float = 0.0
    grad_norm_max: float = 0.0


# ----------------------------------------------------------------------
# Prompt assembly (dataset and prompt builder only, never the model weights)
# ----------------------------------------------------------------------
def _select_trajectories(dataset: CityDataset, max_trajectories: Optional[int], rng: np.random.Generator) -> List[Trajectory]:
    trajectories = dataset.train_trajectories
    if max_trajectories is not None and len(trajectories) > max_trajectories:
        index = rng.choice(len(trajectories), size=max_trajectories, replace=False)
        trajectories = [trajectories[i] for i in index]
    return trajectories


def _sample_traffic_sequences(dataset: CityDataset, count: int, length: int, rng: np.random.Generator) -> List[STUnitSequence]:
    traffic = dataset.traffic_states
    if traffic is None or count <= 0:
        return []
    sequences = []
    max_start = max(traffic.num_slices - length, 1)
    for _ in range(count):
        segment = int(rng.integers(0, traffic.num_segments))
        start = int(rng.integers(0, max_start))
        sequences.append(traffic_series_to_units(traffic, segment, start, length))
    return sequences


def assemble_stage1_prompts(
    dataset: CityDataset,
    traffic_states: Optional[TrafficStateSeries],
    builder: PromptBuilder,
    config: "TrainingConfig",
    rng: np.random.Generator,
) -> List[Prompt]:
    """Stage-1 masked-reconstruction prompts for one epoch (Sec. VI-A)."""
    from repro.core.st_unit import trajectory_to_units

    prompts: List[Prompt] = []
    for trajectory in _select_trajectories(dataset, config.max_trajectories, rng):
        sequence = trajectory_to_units(trajectory, traffic_states)
        prompts.append(builder.masked_reconstruction(sequence, config.mask_ratio, rng=rng))
    length = config.traffic_history + config.traffic_horizon
    for sequence in _sample_traffic_sequences(dataset, config.traffic_sequences_per_epoch, length, rng):
        prompts.append(builder.masked_reconstruction(sequence, config.mask_ratio, rng=rng))
    return prompts


def assemble_stage2_prompts(
    dataset: CityDataset,
    traffic_states: Optional[TrafficStateSeries],
    builder: PromptBuilder,
    config: "TrainingConfig",
    tasks: Tuple[TaskType, ...],
    rng: np.random.Generator,
) -> List[Prompt]:
    """The stage-2 "full training set": prompts from every enabled task (Sec. VI-B)."""
    from repro.core.st_unit import trajectory_to_units

    prompts: List[Prompt] = []
    trajectories = _select_trajectories(dataset, config.max_trajectories, rng)
    classification_target = "user" if dataset.has_dynamic_features else "pattern"

    for trajectory in trajectories:
        sequence = trajectory_to_units(trajectory, traffic_states)
        if TaskType.NEXT_HOP in tasks and len(sequence) >= 3:
            prompts.append(builder.next_hop(sequence))
            # Augment with prompts cut at random intermediate positions so
            # the successor structure of the road graph is seen from many
            # contexts, not only full-length prefixes.
            if len(sequence) > 3 and config.next_hop_augmentation > 0:
                cuts = rng.choice(
                    np.arange(3, len(sequence)),
                    size=min(config.next_hop_augmentation, len(sequence) - 3),
                    replace=False,
                )
                for cut in cuts:
                    prompts.append(builder.next_hop(sequence.slice(0, int(cut))))
        if TaskType.TRAVEL_TIME in tasks:
            prompts.append(builder.travel_time(sequence))
        if TaskType.CLASSIFICATION in tasks:
            prompts.append(builder.classification(sequence, target=classification_target))
        if TaskType.RECOVERY in tasks and len(sequence) >= 5:
            _, kept = subsample_trajectory(trajectory, config.recovery_keep_ratio, rng=rng)
            prompts.append(builder.recovery(sequence, kept))

    traffic = dataset.traffic_states
    if traffic is not None:
        history = config.traffic_history
        horizon = config.traffic_horizon
        count = config.traffic_sequences_per_epoch
        want_traffic = (
            TaskType.TRAFFIC_ONE_STEP in tasks
            or TaskType.TRAFFIC_MULTI_STEP in tasks
            or TaskType.TRAFFIC_IMPUTATION in tasks
        )
        if want_traffic:
            max_start = max(traffic.num_slices - history - horizon, 1)
            for _ in range(count):
                segment = int(rng.integers(0, traffic.num_segments))
                start = int(rng.integers(0, max_start))
                history_seq = traffic_series_to_units(traffic, segment, start, history)
                target = traffic.segment_series(segment)[start + history : start + history + horizon]
                if TaskType.TRAFFIC_MULTI_STEP in tasks:
                    prompts.append(builder.traffic_prediction(history_seq, target, multi_step=True))
                if TaskType.TRAFFIC_ONE_STEP in tasks:
                    prompts.append(builder.traffic_prediction(history_seq, target[:1], multi_step=False))
                if TaskType.TRAFFIC_IMPUTATION in tasks:
                    full_seq = traffic_series_to_units(traffic, segment, start, history + horizon)
                    num_masked = max(1, int(round(config.imputation_mask_ratio * len(full_seq))))
                    masked = rng.choice(len(full_seq), size=num_masked, replace=False)
                    prompts.append(builder.traffic_imputation(full_seq, masked))
    return prompts


class _TrainerBase:
    def __init__(self, model: BIGCity, dataset: CityDataset, config: Optional[TrainingConfig] = None) -> None:
        self.model = model
        self.dataset = dataset
        self.config = config or TrainingConfig()
        self._rng = np.random.default_rng(self.config.seed)
        self.history: List[EpochLog] = []

    def _batched_order(self, prompts: List[Prompt]) -> List[np.ndarray]:
        """Shuffled per-batch index groups.

        Each group feeds ``prompt_loss`` as ONE padded batch (one backbone
        forward/backward).
        """
        order = self._rng.permutation(len(prompts))
        return [
            order[start : start + self.config.batch_size]
            for start in range(0, len(order), self.config.batch_size)
        ]

    def _run_epoch(self, prompts: List[Prompt], optimizer: Adam, epoch: int) -> EpochLog:
        start_time = time.perf_counter()
        total_loss = 0.0
        breakdown_sum: Dict[str, float] = {}
        grad_norms: List[float] = []
        batches = 0
        for group in self._batched_order(prompts):
            batch = [prompts[i] for i in group]
            optimizer.zero_grad()
            loss, breakdown = self.model.prompt_loss(batch)
            if not loss.requires_grad:
                continue
            loss.backward()
            grad_norms.append(clip_grad_norm(optimizer.parameters, self.config.grad_clip))
            optimizer.step()
            total_loss += float(loss.item())
            for key, value in breakdown.items():
                breakdown_sum[key] = breakdown_sum.get(key, 0.0) + value
            batches += 1
        elapsed = time.perf_counter() - start_time
        mean_loss = total_loss / max(batches, 1)
        log = EpochLog(
            epoch=epoch,
            loss=mean_loss,
            breakdown=breakdown_sum,
            seconds=elapsed,
            grad_norm_mean=sum(grad_norms) / len(grad_norms) if grad_norms else 0.0,
            grad_norm_max=max(grad_norms, default=0.0),
        )
        self.history.append(log)
        return log


class MaskedReconstructionTrainer(_TrainerBase):
    """Stage 1: self-supervised masked reconstruction (Sec. VI-A)."""

    def build_prompts(self) -> List[Prompt]:
        return assemble_stage1_prompts(
            self.dataset, self.model._traffic_states, self.model.prompt_builder, self.config, self._rng
        )

    def train(self, epochs: Optional[int] = None) -> List[EpochLog]:
        epochs = epochs if epochs is not None else self.config.stage1_epochs
        self.model.train()
        # The paper starts from a pretrained GPT-2 and never updates its base
        # weights.  No pretrained checkpoint is available offline, so masked
        # reconstruction doubles as the backbone's pre-training: the base
        # transformer weights are updated here and frozen again, leaving only
        # LoRA trainable for task-oriented prompt tuning as in the paper.
        self.model.backbone.llm.unfreeze()
        optimizer = Adam(self.model.trainable_parameters(), lr=self.config.learning_rate)
        logs = []
        for epoch in range(epochs):
            logs.append(self._run_epoch(self.build_prompts(), optimizer, epoch))
        self.model.backbone.freeze_base()
        return logs


class PromptTuningTrainer(_TrainerBase):
    """Stage 2: multi-task task-oriented prompt tuning (Sec. VI-B)."""

    def __init__(
        self,
        model: BIGCity,
        dataset: CityDataset,
        config: Optional[TrainingConfig] = None,
        tasks: Optional[Sequence[TaskType]] = None,
    ) -> None:
        super().__init__(model, dataset, config)
        self.tasks = tuple(tasks) if tasks is not None else self.config.tasks

    def build_prompts(self) -> List[Prompt]:
        """The "full training set": prompts from every enabled task, mixed together."""
        return assemble_stage2_prompts(
            self.dataset,
            self.model._traffic_states,
            self.model.prompt_builder,
            self.config,
            self.tasks,
            self._rng,
        )

    def train(self, epochs: Optional[int] = None, freeze_tokenizer: bool = True) -> List[EpochLog]:
        epochs = epochs if epochs is not None else self.config.stage2_epochs
        self.model.train()
        if freeze_tokenizer:
            self.model.tokenizer.freeze()
        parameters = self.model.trainable_parameters()
        if not parameters:
            raise RuntimeError("no trainable parameters left for prompt tuning")
        optimizer = Adam(parameters, lr=self.config.stage2_learning_rate)
        logs = []
        for epoch in range(epochs):
            logs.append(self._run_epoch(self.build_prompts(), optimizer, epoch))
        return logs


def train_bigcity(
    dataset: CityDataset,
    model_config: Optional[BIGCityConfig] = None,
    training_config: Optional[TrainingConfig] = None,
    tasks: Optional[Sequence[TaskType]] = None,
) -> Tuple[BIGCity, Dict[str, List[EpochLog]]]:
    """End-to-end convenience wrapper: build a model and run both stages.

    Returns the trained model and the per-stage epoch logs.
    """
    model = BIGCity.from_dataset(dataset, config=model_config)
    config = training_config or TrainingConfig()
    stage1 = MaskedReconstructionTrainer(model, dataset, config)
    stage1_logs = stage1.train()
    stage2 = PromptTuningTrainer(model, dataset, config, tasks=tasks)
    stage2_logs = stage2.train()
    model.eval()
    return model, {"stage1": stage1_logs, "stage2": stage2_logs}
