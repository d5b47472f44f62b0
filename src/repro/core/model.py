"""The assembled BIGCity model.

``BIGCity`` wires together the spatiotemporal tokenizer (Sec. IV), the
task-oriented prompt machinery (Sec. V-A), the LoRA-adapted causal backbone
(Sec. V-B) and the general-task heads (Sec. V-C).  It exposes:

* :meth:`forward_prompts` — run a batch of :class:`~repro.core.prompts.Prompt`
  objects through the full pipeline, returning the output tokens ``Z``
  aligned with each prompt's task placeholders;
* :meth:`prompt_loss` — the multi-task loss of Eq. 16 / Eq. 17;
* task-level inference over a batch of cases (``predict_next_hop``,
  ``estimate_travel_time``, ``classify_trajectory``, ``trajectory_embeddings``
  and the ``*_batch`` methods: ``rollout_next_hops_batch``,
  ``recover_trajectories_batch``, ``predict_traffic_states_batch``,
  ``impute_traffic_states_batch``) used by the evaluation harness, the
  serving layer and the examples.  A single case is a batch of one.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, NamedTuple, Optional, Sequence, Tuple

import numpy as np

from repro.core.backbone import BIGCityBackbone
from repro.core.config import BIGCityConfig
from repro.core.heads import GeneralTaskHeads, LabelSpace
from repro.core.prompts import CLAS, REG, Prompt, PromptBuilder, TaskAnchor, TaskType, TextTokenizer
from repro.core.st_unit import STUnitSequence, traffic_series_to_units, trajectory_to_units
from repro.core.tokenizer import SpatioTemporalTokenizer
from repro.data.datasets import CityDataset
from repro.data.timeutils import TimeAxis
from repro.data.traffic_state import TrafficStateSeries
from repro.data.trajectory import Trajectory
from repro.nn import functional as F
from repro.nn import losses
from repro.nn.module import Module, Parameter
from repro.nn.tensor import Tensor, apply_op, no_grad
from repro.nn import init
from repro.roadnet.network import RoadNetwork
from repro.tasks.decoding import (
    constrained_next_hop_ranking,
    constrained_recovery_choice,
    gap_candidates,
    greedy_next_hop_batch,
    open_gap_candidates,
)


def _row_index(rows: List[int]):
    """An index selecting ``rows``: a basic int or slice when they are evenly
    spaced, which NumPy serves as a view, else an integer array."""
    if len(rows) == 1:
        return rows[0]
    step = rows[1] - rows[0]
    if step > 0 and all(second - first == step for first, second in zip(rows, rows[1:])):
        return slice(rows[0], rows[-1] + 1, step)
    return np.asarray(rows)


class _LossFamily:
    """The rows one term of the multi-task loss reads from a batch.

    Each contributing prompt adds its placeholder rows (``batch`` /
    ``positions`` locate them in the backbone output) and their targets;
    ``spans`` hold each prompt's ``(start, stop)`` range of the rows and
    ``prompt_indices`` the prompt, both in prompt order.
    """

    def __init__(self) -> None:
        self.batch: List[int] = []
        self.positions: List[int] = []
        self.targets: List = []
        self.spans: List[Tuple[int, int]] = []
        self.prompt_indices: List[int] = []

    def add(self, prompt_index: int, positions: List[int], targets) -> None:
        start = len(self.positions)
        self.batch.extend([prompt_index] * len(positions))
        self.positions.extend(positions)
        self.targets.extend(targets)
        self.spans.append((start, len(self.positions)))
        self.prompt_indices.append(prompt_index)

    def same_rows(self, other: "_LossFamily") -> bool:
        return self.batch == other.batch and self.positions == other.positions

    def rows(self, hidden: Tensor) -> Tensor:
        """The family's rows of the backbone output, ``(k, d_model)``, as one gather."""
        return F.gather_rows(hidden, self.batch, self.positions)


class _LossTerm(NamedTuple):
    """One loss family's per-element losses, rows in ``family.spans`` order."""

    key: str
    family: _LossFamily
    losses: Tensor
    weight: float
    #: A prompt's mean as its sum times ``1/count`` (``Tensor.mean``, so
    #: :func:`repro.nn.losses.mse_loss`) rather than its sum divided by the
    #: count (the fused cross-entropy's mean).
    reciprocal: bool


def _mean_of_prompt_terms(terms: Sequence[_LossTerm], num_prompts: int) -> Tuple[Tensor, Dict[str, float]]:
    """The multi-task loss from per-element loss tensors, as one tape node.

    Every prompt's term is the mean of its span of a family's losses, and
    the loss is the mean over ``num_prompts`` of the weighted terms summed
    in prompt order, families in the order of ``terms``: the arithmetic of
    a per-prompt loop of :func:`repro.nn.losses.cross_entropy` and
    :func:`repro.nn.losses.mse_loss` calls, so the value and every
    gradient equal that loop's bit for bit.  Returns the loss and the
    per-family sums of the terms (with their ``count``) for logging.
    """
    entries = sorted(
        (
            (prompt_index, rank, span, term)
            for rank, term in enumerate(terms)
            for prompt_index, span in zip(term.family.prompt_indices, term.family.spans)
        ),
        key=lambda entry: entry[:2],
    )
    scale = 1.0 / max(num_prompts, 1)
    breakdown = {"clas": 0.0, "reg": 0.0, "tim": 0.0, "count": 0.0}
    total = None
    for _, _, (start, stop), term in entries:
        values = term.losses.data[start:stop]
        mean = values.sum() * (1.0 / values.size) if term.reciprocal else values.mean()
        weighted = mean * term.weight
        total = weighted if total is None else total + weighted
        breakdown[term.key] += float(mean)
        breakdown["count"] += 1.0
    if total is None:
        return Tensor(np.zeros(()), requires_grad=False), breakdown

    def backward(grad: np.ndarray) -> None:
        scaled = grad * scale
        buffers = [np.empty(term.losses.shape) for term in terms]
        for _, rank, (start, stop), term in entries:
            term_grad = scaled * term.weight
            size = term.losses.data[start:stop].size
            mean_grad = term_grad * (1.0 / size) if term.reciprocal else float(term_grad) / size
            buffers[rank][start:stop] = mean_grad
        for term, buffer in zip(terms, buffers):
            if term.losses.requires_grad:
                term.losses._accumulate_owned(buffer)

    return apply_op(np.asarray(total * scale), [term.losses for term in terms], backward), breakdown


@dataclass
class PromptOutput:
    """Outputs of the backbone for a single prompt."""

    prompt: Prompt
    #: Output tokens ``Z`` aligned with the prompt's placeholders, ``(K, d_model)``.
    task_outputs: Tensor
    #: Mean-pooled hidden state over the data (ST-token) positions, ``(d_model,)``.
    pooled: Tensor


class BIGCity(Module):
    """Multi-task, multi-data-modality spatiotemporal model."""

    def __init__(
        self,
        network: RoadNetwork,
        time_axis: TimeAxis,
        num_users: int,
        config: Optional[BIGCityConfig] = None,
        traffic_states: Optional[TrafficStateSeries] = None,
        num_patterns: int = 2,
    ) -> None:
        super().__init__()
        self.config = config or BIGCityConfig()
        self.network = network
        self.time_axis = time_axis
        rng = np.random.default_rng(self.config.seed + 101)

        self.label_space = LabelSpace(
            num_segments=network.num_segments,
            num_users=max(num_users, 1),
            num_patterns=num_patterns,
        )
        self.text_tokenizer = TextTokenizer()
        self.prompt_builder = PromptBuilder(self.label_space)

        self.tokenizer = SpatioTemporalTokenizer(
            network=network,
            time_axis=time_axis,
            config=self.config,
            traffic_states=traffic_states,
        )
        self.backbone = BIGCityBackbone(
            config=self.config,
            text_vocab_size=self.text_tokenizer.vocab_size,
        )
        regression_dim = traffic_states.num_channels if traffic_states is not None else 1
        self._regression_dim = regression_dim
        self.heads = GeneralTaskHeads(
            d_model=self.config.d_model,
            label_space=self.label_space,
            regression_dim=regression_dim,
            config=self.config,
        )

        #: scale (seconds) used to normalise timestamp-regression targets; one
        #: minute keeps typical per-step travel intervals in a well-conditioned
        #: range for the MSE loss of MLP_t.
        self.time_scale = 60.0
        d_model = self.config.d_model
        self.clas_token = Parameter(init.normal((d_model,), std=0.02, rng=rng))
        self.reg_token = Parameter(init.normal((d_model,), std=0.02, rng=rng))
        self.mask_token = Parameter(init.normal((d_model,), std=0.02, rng=rng))

        self._traffic_states = traffic_states
        if traffic_states is not None:
            flat = traffic_states.values.reshape(-1, traffic_states.num_channels)
            self._traffic_mean = flat.mean(axis=0)
            std = flat.std(axis=0)
            self._traffic_std = np.where(std < 1e-9, 1.0, std)
        else:
            self._traffic_mean = np.zeros(regression_dim)
            self._traffic_std = np.ones(regression_dim)

    # ------------------------------------------------------------------
    # Convenience constructors
    # ------------------------------------------------------------------
    @classmethod
    def from_dataset(cls, dataset: CityDataset, config: Optional[BIGCityConfig] = None) -> "BIGCity":
        """Build a BIGCity model sized for a :class:`CityDataset`."""
        num_users = max((t.user_id for t in dataset.trajectories), default=0) + 1
        return cls(
            network=dataset.network,
            time_axis=dataset.time_axis,
            num_users=num_users,
            config=config,
            traffic_states=dataset.traffic_states,
        )

    # ------------------------------------------------------------------
    # Sequence helpers
    # ------------------------------------------------------------------
    def sequence_from_trajectory(self, trajectory: Trajectory) -> STUnitSequence:
        return trajectory_to_units(trajectory, self._traffic_states)

    def sequence_from_traffic(self, segment_id: int, start_slice: int, num_slices: int) -> STUnitSequence:
        if self._traffic_states is None:
            raise RuntimeError("this model was built without traffic states")
        return traffic_series_to_units(self._traffic_states, segment_id, start_slice, num_slices)

    def normalise_traffic(self, values: np.ndarray) -> np.ndarray:
        return (np.asarray(values, dtype=np.float64) - self._traffic_mean) / self._traffic_std

    def denormalise_traffic(self, values: np.ndarray) -> np.ndarray:
        return np.asarray(values, dtype=np.float64) * self._traffic_std + self._traffic_mean

    # ------------------------------------------------------------------
    # Prompt assembly and forward pass
    # ------------------------------------------------------------------
    def _check_max_position(self, max_length: int) -> None:
        if max_length > self.config.max_position:
            raise ValueError(
                f"prompt length {max_length} exceeds the backbone's max_position "
                f"{self.config.max_position}; shorten the input or enlarge the config"
            )

    def _assemble_prompt_batch(
        self,
        prompts: Sequence[Prompt],
        st_token_list: Sequence[Tensor],
        static_cache: Optional[Tensor],
    ) -> Tuple[Tensor, np.ndarray, List[Tuple[List[int], Tuple[int, int]]]]:
        """Assemble ``N`` prompts into one right-padded ``(N, L_max, d_model)`` batch.

        A prompt is laid out as its instruction's text embeddings, its ST
        tokens with ``[MASK]`` at the masked positions, then one ``[CLAS]`` /
        ``[REG]`` token per placeholder.  A placeholder token carries its
        anchor: the ST token it points at, or the partially filled ST token
        of Fig. 3.  Every row is written into one pre-allocated buffer by a
        single :func:`~repro.nn.functional.scatter_rows` node, whose backward
        hands each source its rows of the gradient.  Training, inference and
        the decode prefill all assemble prompts here.  Instructions are
        embedded once per distinct string.

        Returns ``(batch, padding_mask, layouts)``; ``layouts`` holds each
        prompt's ``(task_positions, (data_start, data_stop))``.
        """
        text_cache: Dict[str, Tensor] = {}
        # All partial anchors are encoded in one stacked pass; a masked
        # unit's [CLAS] and [REG] share their anchor, so equal partial
        # anchors share one row.
        units = [
            (anchor.segment_id, anchor.timestamp)
            for prompt in prompts
            for anchor in prompt.anchors
            if anchor is not None and anchor.kind != "data"
        ]
        partials, partial_rows = (
            self.tokenizer.encode_partials(units, static_cache=static_cache) if units else (None, ())
        )
        next_partial = iter(partial_rows)
        pieces: List[Tuple] = []
        layouts: List[Tuple[List[int], Tuple[int, int]]] = []
        lengths: List[int] = []
        for index, (prompt, st_tokens) in enumerate(zip(prompts, st_token_list)):
            data_start = 0
            if self.config.use_prompts:
                text = text_cache.get(prompt.instruction)
                if text is None:
                    text = self.backbone.embed_text(self.text_tokenizer.encode(prompt.instruction))
                    text_cache[prompt.instruction] = text
                data_start = text.shape[0]
                pieces.append((text, index, slice(0, data_start), None))
            num_tokens = st_tokens.shape[0]
            data_stop = data_start + num_tokens
            if prompt.mask_positions:
                masked = set(prompt.mask_positions)
                kept = np.asarray([p for p in range(num_tokens) if p not in masked], dtype=np.int64)
                pieces.append((st_tokens, index, data_start + kept, kept))
                pieces.append((self.mask_token, index, _row_index([data_start + p for p in sorted(masked)]), None))
            else:
                pieces.append((st_tokens, index, slice(data_start, data_stop), None))
            task_positions = list(range(data_stop, data_stop + len(prompt.placeholders)))
            anchors = prompt.anchors if prompt.anchors else (None,) * len(prompt.placeholders)
            token_rows: Dict[str, List[int]] = {CLAS: [], REG: []}
            anchor_rows: List[int] = []
            anchor_positions: List[int] = []
            partial_dst: List[int] = []
            partial_src: List[int] = []
            for row, kind, anchor in zip(task_positions, prompt.placeholders, anchors):
                token_rows[CLAS if kind == CLAS else REG].append(row)
                if anchor is None:
                    continue
                if anchor.kind == "data":
                    anchor_rows.append(row)
                    anchor_positions.append(anchor.position)
                else:
                    partial_dst.append(row)
                    partial_src.append(int(next(next_partial)))
            if partial_dst:
                pieces.append((partials, index, _row_index(partial_dst), _row_index(partial_src)))
            for token, rows in ((self.clas_token, token_rows[CLAS]), (self.reg_token, token_rows[REG])):
                if rows:
                    pieces.append((token, index, _row_index(rows), None))
            if anchor_rows:
                pieces.append((st_tokens, index, _row_index(anchor_rows), _row_index(anchor_positions)))
            lengths.append(data_stop + len(prompt.placeholders))
            layouts.append((task_positions, (data_start, data_stop)))

        max_length = max(lengths)
        self._check_max_position(max_length)
        buffer = np.zeros((len(prompts), max_length, self.config.d_model))
        padding_mask = np.arange(max_length)[None, :] >= np.asarray(lengths)[:, None]
        return F.scatter_rows(buffer, pieces), padding_mask, layouts

    def forward_prompts(self, prompts: Sequence[Prompt], traffic_override: Optional[np.ndarray] = None) -> List[PromptOutput]:
        """Run a batch of prompts through tokenizer, backbone and gather ``Z``."""
        if not prompts:
            return []
        hidden, layouts = self._forward_hidden(prompts, traffic_override)
        return self._collect_outputs(prompts, layouts, hidden, self.config.d_model)

    def _forward_hidden(self, prompts: Sequence[Prompt], traffic_override: Optional[np.ndarray]):
        """Tokenize, assemble and run a non-empty batch: the backbone output and the prompt layouts."""
        needs_static = any(
            anchor is not None and anchor.kind == "partial" and anchor.segment_id is not None
            for prompt in prompts
            for anchor in (prompt.anchors or ())
        )
        # One static pass serves the ST tokens and the partial anchors alike.
        static_cache = self.tokenizer.static_representations() if needs_static else None
        st_token_list = self.tokenizer.encode_batch(
            [p.sequence for p in prompts],
            time_feature_masks=[p.time_feature_mask for p in prompts],
            traffic_override=traffic_override,
            static=static_cache,
        )
        batch_embeddings, padding_mask, layouts = self._assemble_prompt_batch(
            prompts, st_token_list, static_cache
        )
        return self.backbone(batch_embeddings, padding_mask=padding_mask), layouts

    def _collect_outputs(self, prompts, layouts, hidden: Tensor, d_model: int) -> List[PromptOutput]:
        """Pull task/data rows out of the backbone output with TWO gather nodes.

        All prompts' task placeholders (and all data spans) are gathered in
        one :func:`~repro.nn.functional.gather_rows` call each, then sliced
        per prompt; the per-prompt slices backpropagate into the small
        ``(rows, d_model)`` gather buffer, so the backward allocates two
        hidden-sized buffers per batch instead of two per prompt.
        """
        task_batch: List[int] = []
        task_rows: List[int] = []
        task_slices: List[Tuple[int, int]] = []
        data_batch: List[int] = []
        data_rows: List[int] = []
        data_slices: List[Tuple[int, int]] = []
        for batch_index, (task_positions, data_span) in enumerate(layouts):
            start = len(task_rows)
            task_batch.extend([batch_index] * len(task_positions))
            task_rows.extend(task_positions)
            task_slices.append((start, len(task_rows)))
            start = len(data_rows)
            span = range(data_span[0], data_span[1])
            data_batch.extend([batch_index] * len(span))
            data_rows.extend(span)
            data_slices.append((start, len(data_rows)))
        all_task = F.gather_rows(hidden, task_batch, task_rows) if task_rows else None
        all_data = F.gather_rows(hidden, data_batch, data_rows) if data_rows else None

        outputs: List[PromptOutput] = []
        for prompt, (task_start, task_stop), (data_start, data_stop) in zip(
            prompts, task_slices, data_slices
        ):
            if task_stop > task_start:
                task_outputs = all_task[task_start:task_stop]
            else:
                task_outputs = Tensor(np.zeros((0, d_model)))
            if data_stop > data_start:
                pooled = all_data[data_start:data_stop].mean(axis=0)
            else:
                pooled = Tensor(np.zeros(d_model))
            outputs.append(PromptOutput(prompt=prompt, task_outputs=task_outputs, pooled=pooled))
        return outputs

    # ------------------------------------------------------------------
    # Losses
    # ------------------------------------------------------------------
    def prompt_loss(self, prompts: Sequence[Prompt], traffic_override: Optional[np.ndarray] = None) -> Tuple[Tensor, Dict[str, float]]:
        """Multi-task loss over a batch of prompts (Eq. 16 for stage 1, Eq. 17 for stage 2).

        Each prompt contributes the mean cross-entropy of its ``[CLAS]``
        rows plus the mean squared errors of its ``[REG]`` rows' regression
        and timestamp predictions, weighted by ``lambda_reg`` and
        ``lambda_tim``; a term whose targets are missing, empty or not one
        per placeholder is left out.  The loss is the mean over prompts.

        Every family runs once per batch: its rows of all prompts are
        gathered from the backbone output into one ``(k, d_model)`` stack
        for one head call and one loss call (the regression and timestamp
        heads share the ``[REG]`` stack when both read the same rows), and
        the per-prompt means and the batch mean are one node,
        :func:`_mean_of_prompt_terms`.  The heads take each prompt's span of
        the stack as a row group, so the values and gradients equal a loop
        that runs the heads and losses prompt by prompt
        (:func:`repro.eval.perfbench.reference_prompt_loss`) bit for bit.
        Returns the scalar loss tensor plus a breakdown dictionary with
        float values (for logging): the per-prompt terms summed per family,
        the number of terms and the total.
        """
        clas, reg, tim = _LossFamily(), _LossFamily(), _LossFamily()
        hidden, layouts = self._forward_hidden(prompts, traffic_override) if prompts else (None, [])
        for index, (prompt, (task_positions, _)) in enumerate(zip(prompts, layouts)):
            clas_positions = [row for row, kind in zip(task_positions, prompt.placeholders) if kind == CLAS]
            reg_positions = [row for row, kind in zip(task_positions, prompt.placeholders) if kind == REG]
            targets = [t for t in prompt.classification_targets if t >= 0]
            if clas_positions and len(targets) == len(clas_positions):
                clas.add(index, clas_positions, targets)
            values = [np.asarray(t, dtype=np.float64) for t in prompt.regression_targets]
            if reg_positions and len(values) == len(reg_positions) and all(t.size for t in values):
                reg.add(index, reg_positions, [self.normalise_traffic(t) for t in values])
            if reg_positions and len(prompt.timestamp_targets) == len(reg_positions):
                intervals = np.asarray(prompt.timestamp_targets, dtype=np.float64) / self.time_scale
                tim.add(index, reg_positions, intervals)

        terms: List[_LossTerm] = []
        if clas.spans:
            logits = self.heads.classification_logits(clas.rows(hidden), groups=clas.spans)
            per_row = losses.cross_entropy(logits, np.asarray(clas.targets, dtype=np.int64), reduction="none")
            terms.append(_LossTerm("clas", clas, per_row, 1.0, reciprocal=False))
        reg_rows = reg.rows(hidden) if reg.spans else None
        if reg.spans:
            predictions = self.heads.regression_prediction(reg_rows, groups=reg.spans)
            per_element = losses.mse_loss(predictions, np.stack(reg.targets), reduction="none")
            terms.append(_LossTerm("reg", reg, per_element, self.config.lambda_reg, reciprocal=True))
        if tim.spans:
            rows = reg_rows if reg_rows is not None and reg.same_rows(tim) else tim.rows(hidden)
            predictions = self.heads.timestamp_prediction(rows, groups=tim.spans).reshape(len(tim.positions))
            per_element = losses.mse_loss(predictions, np.asarray(tim.targets), reduction="none")
            terms.append(_LossTerm("tim", tim, per_element, self.config.lambda_tim, reciprocal=True))

        total, breakdown = _mean_of_prompt_terms(terms, len(prompts))
        breakdown["total"] = float(total.item())
        return total, breakdown

    # ------------------------------------------------------------------
    # Inference helpers (all run without building a gradient graph)
    # ------------------------------------------------------------------
    def predict_next_hop(
        self,
        trajectories: Sequence[Trajectory],
        top_k: int = 5,
        constrain_to_network: bool = True,
    ) -> List[np.ndarray]:
        """Ranked candidate next segments for each trajectory (best first).

        With ``constrain_to_network=True`` (the default, matching the paper's
        road-network scenario) graph successors of the last observed segment
        are ranked ahead of unreachable segments; set it to ``False`` to rank
        the raw segment logits.
        """
        prompts = [self.prompt_builder.next_hop(self.sequence_from_trajectory(t)) for t in trajectories]
        with no_grad():
            outputs = self.forward_prompts(prompts)
            rankings = []
            for trajectory, output in zip(trajectories, outputs):
                logits = self.heads.classification_logits(output.task_outputs, family="segment").data[0]
                if constrain_to_network:
                    # The prompt predicts the hop after the second-to-last
                    # sample (the builder strips the final sample itself), so
                    # the constraint anchors on that segment.
                    anchor = int(trajectory.segments[-2]) if len(trajectory) >= 2 else int(trajectory.segments[-1])
                    rankings.append(
                        constrained_next_hop_ranking(logits, anchor, self.network, top_k=top_k)
                    )
                else:
                    rankings.append(np.argsort(-logits)[:top_k])
        return rankings

    def rollout_next_hops_batch(
        self,
        trajectories: Sequence[Trajectory],
        steps: int = 1,
        use_cache: bool = True,
        constrain_to_network: bool = True,
    ) -> List[np.ndarray]:
        """Autoregressively extend ``N`` trajectories by ``steps`` segments through ONE padded batch.

        Each step ranks the next segment with the segment-classification head,
        appends the chosen segment as a partially-filled ST token (plus a fresh
        ``[CLAS]`` placeholder anchored on it) and decodes again.  With
        ``use_cache=True`` the backbone keeps per-layer :class:`KVCache`
        buffers, so a step pushes only the two new positions through the
        transformer — O(prefix) work — instead of re-encoding the whole prompt
        from scratch — O(prefix²).  ``use_cache=False`` keeps the re-encoding
        path available for equivalence tests and benchmarking; both paths see
        byte-identical input sequences and therefore produce identical logits.

        All prompts are assembled into a single right-padded batch (padded key
        positions are excluded from attention, so a row never sees another
        row's padding) and every decode step pushes one ``(N, 2, d_model)``
        slab through the KV-cached backbone instead of ``N`` separate
        2-token forwards.  Because rows have different prompt lengths, the two
        new tokens of row ``i`` live at *physical* cache slots shared by the
        whole batch but carry row ``i``'s own positional indices
        (``position_ids``) — logically each row continues its own sequence,
        and the chosen segments match each trajectory rolled out alone, as a
        batch of one (see ``tests/test_core_rollout_batch.py``).

        Returns one ``(steps,)`` array of segment ids per input trajectory.
        """
        if steps < 1:
            raise ValueError("steps must be >= 1")
        if not trajectories:
            return []
        sequences = [self.sequence_from_trajectory(t) for t in trajectories]
        intervals: List[float] = []
        last_times: List[float] = []
        for sequence in sequences:
            timestamps = np.asarray(sequence.timestamps, dtype=np.float64)
            intervals.append(
                float(np.diff(timestamps).mean()) if len(timestamps) >= 2 else self.time_scale
            )
            last_times.append(float(timestamps[-1]))
        current = np.asarray([int(s.segment_ids[-1]) for s in sequences], dtype=np.int64)
        network = self.network if constrain_to_network else None
        batch_size = len(sequences)
        d_model = self.config.d_model

        with no_grad():
            static_cache = self.tokenizer.static_representations()
            st_token_list = self.tokenizer.encode_batch(sequences, static=static_cache)
            # Canonical next-hop prompt per row (same layout the segment head
            # was trained on); only the per-step appends below are
            # decode-specific.
            prompts = [
                Prompt(
                    task=TaskType.NEXT_HOP,
                    sequence=sequence,
                    placeholders=(CLAS,),
                    anchors=(TaskAnchor(kind="data", position=len(sequence) - 1),),
                    metadata={"source_id": sequence.source_id},
                )
                for sequence in sequences
            ]
            batch, padding_mask, _ = self._assemble_prompt_batch(prompts, st_token_list, static_cache)
            lengths = np.count_nonzero(~padding_mask, axis=1)
            pad_mask = padding_mask if padding_mask.any() else None
            prefill_length = batch.shape[1]
            caches = self.backbone.new_caches() if use_cache else None
            hidden = self.backbone(batch, padding_mask=pad_mask, caches=caches)

            def task_logits(task_positions: np.ndarray) -> np.ndarray:
                rows = F.gather_rows(hidden, np.arange(batch_size), task_positions)
                return self.heads.classification_logits(rows, family="segment").data

            chosen: List[np.ndarray] = []
            logits = task_logits(lengths - 1)
            for step in range(steps):
                current = greedy_next_hop_batch(logits, current, network)
                chosen.append(current.copy())
                if step == steps - 1:
                    break
                # Row i's two new tokens: the chosen segment as a partial ST
                # token, then [CLAS] anchored on it.
                tokens, rows = self.tokenizer.encode_partials(
                    [
                        (int(segment), last_times[index] + (step + 1) * intervals[index])
                        for index, segment in enumerate(current)
                    ],
                    static_cache=static_cache,
                )
                token = tokens.data[rows]
                new_rows = np.empty((batch_size, 2, d_model), dtype=batch.data.dtype)
                new_rows[:, 0] = token
                new_rows[:, 1] = self.clas_token.data + token
                if use_cache:
                    # Row i's new tokens continue its own sequence: positions
                    # L_i + 2*step + {0, 1}, while the physical cache slot is
                    # shared batch-wide; padded key positions stay masked.
                    positions = (lengths + 2 * step)[:, None] + np.arange(2)[None, :]
                    kv_length = caches[0].length + 2
                    step_mask: Optional[np.ndarray] = None
                    if pad_mask is not None:
                        step_mask = np.zeros((batch_size, kv_length), dtype=bool)
                        step_mask[:, :prefill_length] = pad_mask
                    hidden = self.backbone(
                        Tensor(new_rows),
                        padding_mask=step_mask,
                        caches=caches,
                        position_ids=positions,
                    )
                    logits = self.heads.classification_logits(
                        hidden[:, 1], family="segment"
                    ).data
                else:
                    # Re-encoding oracle: append the rows after each row's
                    # own sequence and run the whole batch again.
                    grown = np.zeros((batch_size, batch.shape[1] + 2, d_model), dtype=batch.data.dtype)
                    grown[:, : batch.shape[1]] = batch.data
                    grown[np.arange(batch_size)[:, None], lengths[:, None] + np.arange(2)] = new_rows
                    batch = Tensor(grown)
                    lengths = lengths + 2
                    mask = np.arange(grown.shape[1])[None, :] >= lengths[:, None]
                    hidden = self.backbone(batch, padding_mask=mask if mask.any() else None)
                    logits = task_logits(lengths - 1)
        stacked = np.stack(chosen, axis=1)
        return [stacked[index] for index in range(batch_size)]

    def estimate_travel_time(self, trajectories: Sequence[Trajectory]) -> np.ndarray:
        """Predicted total travel time in seconds for each trajectory."""
        prompts = [self.prompt_builder.travel_time(self.sequence_from_trajectory(t)) for t in trajectories]
        with no_grad():
            outputs = self.forward_prompts(prompts)
            estimates = []
            for output in outputs:
                intervals = self.heads.timestamp_prediction(output.task_outputs).data.reshape(-1)
                estimates.append(float(np.clip(intervals, 0.0, None).sum() * self.time_scale))
        return np.asarray(estimates)

    def classify_trajectory(self, trajectories: Sequence[Trajectory], target: str = "user") -> np.ndarray:
        """Predicted class index (within the chosen family) for each trajectory."""
        family = "user" if target == "user" else "pattern"
        prompts = [
            self.prompt_builder.classification(self.sequence_from_trajectory(t), target=target)
            for t in trajectories
        ]
        with no_grad():
            outputs = self.forward_prompts(prompts)
            predictions = []
            for output in outputs:
                logits = self.heads.classification_logits(output.task_outputs, family=family).data[0]
                predictions.append(int(np.argmax(logits)))
        return np.asarray(predictions, dtype=np.int64)

    def classification_scores(self, trajectories: Sequence[Trajectory], target: str = "user") -> np.ndarray:
        """Softmax scores over the chosen family (used for AUC on the binary task)."""
        family = "user" if target == "user" else "pattern"
        if not trajectories:
            restriction = self.heads.label_space.family_slice(family)
            return np.zeros((0, restriction.stop - restriction.start))
        prompts = [
            self.prompt_builder.classification(self.sequence_from_trajectory(t), target=target)
            for t in trajectories
        ]
        with no_grad():
            outputs = self.forward_prompts(prompts)
            scores = []
            for output in outputs:
                logits = self.heads.classification_logits(output.task_outputs, family=family).data[0]
                exp = np.exp(logits - logits.max())
                scores.append(exp / exp.sum())
        return np.stack(scores)

    def trajectory_embeddings(self, trajectories: Sequence[Trajectory], batch_size: int = 16) -> np.ndarray:
        """Dense embeddings used for most-similar trajectory search."""
        if not trajectories:
            return np.zeros((0, self.config.d_model))
        embeddings = []
        with no_grad():
            for start in range(0, len(trajectories), batch_size):
                chunk = trajectories[start : start + batch_size]
                prompts = [self.prompt_builder.similarity(self.sequence_from_trajectory(t)) for t in chunk]
                outputs = self.forward_prompts(prompts)
                for output in outputs:
                    embeddings.append(output.pooled.data.copy())
        return np.stack(embeddings)

    def recover_trajectories_batch(
        self,
        trajectories: Sequence[Trajectory],
        kept_indices_list: Sequence[Sequence[int]],
        constrain_to_network: bool = True,
    ) -> List[np.ndarray]:
        """Predicted segment ids at the masked positions of ``N`` low-rate trajectories.

        All recovery prompts run through a single :meth:`forward_prompts`
        call (one right-padded batch, assembled into a pre-allocated array on
        the inference path), then each trajectory's logits are decoded on its
        own, so each answer equals the trajectory's batch-of-one answer bit
        for bit.  With ``constrain_to_network=True`` each masked position is
        decoded among the segments reachable from the surrounding observed
        samples (map-constrained decoding, as in the recovery baselines); with
        ``False`` the raw segment logits are argmax-decoded.  A masked
        position before the first (or after the last) kept sample is decoded
        against its nearest kept neighbour on the open side.  Returns one
        ``(num_missing,)`` int64 array per input.
        """
        if len(trajectories) != len(kept_indices_list):
            raise ValueError(
                f"got {len(trajectories)} trajectories but {len(kept_indices_list)} kept-index sets"
            )
        if not trajectories:
            return []
        prompts = [
            self.prompt_builder.recovery(self.sequence_from_trajectory(t), kept)
            for t, kept in zip(trajectories, kept_indices_list)
        ]
        with no_grad():
            outputs = self.forward_prompts(prompts)
            results: List[np.ndarray] = []
            for trajectory, kept_indices, output in zip(trajectories, kept_indices_list, outputs):
                logits = self.heads.classification_logits(output.task_outputs, family="segment").data
                results.append(
                    self._decode_recovery(trajectory, kept_indices, logits, constrain_to_network)
                )
        return results

    def _decode_recovery(
        self,
        trajectory: Trajectory,
        kept_indices: Sequence[int],
        logits: np.ndarray,
        constrain_to_network: bool,
    ) -> np.ndarray:
        """Decode one trajectory's per-mask segment logits."""
        if not constrain_to_network:
            return np.argmax(logits, axis=-1).astype(np.int64)
        kept = np.asarray(sorted(set(int(i) for i in kept_indices)), dtype=np.int64)
        missing = np.setdiff1d(np.arange(len(trajectory)), kept)
        recovered = []
        for row, position in zip(logits, missing):
            earlier = kept[kept < position]
            later = kept[kept > position]
            if earlier.size and later.size:
                previous_kept = int(earlier.max())
                next_kept = int(later.min())
                candidates = gap_candidates(
                    self.network,
                    previous_segment=int(trajectory.segments[previous_kept]),
                    next_segment=int(trajectory.segments[next_kept]),
                    gap_length=next_kept - previous_kept - 1,
                )
            elif later.size:
                # Masked position precedes the first kept sample: constrain
                # against the nearest kept neighbour on the open side.
                anchor = int(later.min())
                candidates = open_gap_candidates(
                    self.network,
                    anchor_segment=int(trajectory.segments[anchor]),
                    gap_length=anchor - int(position),
                    before=True,
                )
            else:
                # Masked position follows the last kept sample.
                anchor = int(earlier.max())
                candidates = open_gap_candidates(
                    self.network,
                    anchor_segment=int(trajectory.segments[anchor]),
                    gap_length=int(position) - anchor,
                    before=False,
                )
            recovered.append(constrained_recovery_choice(row, candidates))
        return np.asarray(recovered, dtype=np.int64)

    def predict_traffic_states_batch(
        self, cases: Sequence[Tuple[int, int, int, int]]
    ) -> List[np.ndarray]:
        """Forecast ``N`` traffic-prediction cases through ONE padded batch.

        ``cases`` is a sequence of ``(segment_id, start_slice, history,
        horizon)`` tuples; histories and horizons may differ between cases —
        prompt padding absorbs the raggedness.  Returns one denormalised
        ``(horizon, channels)`` array per case, bit-for-bit identical to
        the case's batch-of-one answer.
        """
        if not cases:
            return []
        prompts = []
        for segment_id, start_slice, history, horizon in cases:
            history_sequence = self.sequence_from_traffic(int(segment_id), int(start_slice), int(history))
            dummy_targets = np.zeros((int(horizon), self._regression_dim))
            prompts.append(
                self.prompt_builder.traffic_prediction(
                    history_sequence, dummy_targets, multi_step=int(horizon) > 1
                )
            )
        with no_grad():
            outputs = self.forward_prompts(prompts)
            return [
                self.denormalise_traffic(self.heads.regression_prediction(output.task_outputs).data)
                for output in outputs
            ]

    def impute_traffic_states_batch(
        self,
        cases: Sequence[Tuple[int, int, int, Sequence[int]]],
        traffic_override: Optional[np.ndarray] = None,
    ) -> List[np.ndarray]:
        """Impute ``N`` traffic-imputation cases through ONE padded batch.

        ``cases`` is a sequence of ``(segment_id, start_slice, num_slices,
        masked_positions)`` tuples sharing one optional ``traffic_override``
        (the evaluator masks the whole tensor once for all cases).  Returns
        one denormalised ``(len(masked), channels)`` array per case,
        bit-for-bit identical to the case's batch-of-one answer.
        """
        if not cases:
            return []
        prompts = [
            self.prompt_builder.traffic_imputation(
                self.sequence_from_traffic(int(segment_id), int(start_slice), int(num_slices)),
                masked_positions,
            )
            for segment_id, start_slice, num_slices, masked_positions in cases
        ]
        with no_grad():
            outputs = self.forward_prompts(prompts, traffic_override=traffic_override)
            return [
                self.denormalise_traffic(self.heads.regression_prediction(output.task_outputs).data)
                for output in outputs
            ]

    # ------------------------------------------------------------------
    def trainable_parameters(self):
        return [p for p in self.parameters() if p.requires_grad]

    def parameter_summary(self) -> Dict[str, int]:
        """Parameter counts per component (used by the efficiency experiments)."""
        return {
            "tokenizer": self.tokenizer.num_parameters(),
            "backbone_total": self.backbone.total_parameter_count(),
            "backbone_trainable": self.backbone.trainable_parameter_count(),
            "heads": self.heads.num_parameters(),
            "total": self.num_parameters(),
            "trainable": self.num_parameters(trainable_only=True),
        }

    def forward(self, prompts: Sequence[Prompt]) -> List[PromptOutput]:
        return self.forward_prompts(prompts)
