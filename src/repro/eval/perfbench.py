"""Engine micro-benchmarks with config-hashed, regression-comparable output.

The tokenizer's representation memo, its batched grad-mode pass, inference
off the autograd tape (no-grad ops and merged LoRA weights), the
fused-kernel fast path (:mod:`repro.nn.functional`), the KV-cached decoding
path (:class:`repro.nn.attention.KVCache`), the batched rollout
(``BIGCity.rollout_next_hops_batch``), the batched single-pass evaluation
paths (``recover_trajectories_batch`` / ``predict_traffic_states_batch`` /
``impute_traffic_states_batch``), the sharded evaluation runner
(:mod:`repro.eval.parallel`), the continuous-batching serving layer
(:mod:`repro.serving`) and the synthetic-city build
(:func:`repro.data.datasets.load_dataset`) are *claimed* speedups; this
module measures them.  Each benchmark times the optimised path against the
formulation it replaced — warm vs cold tokenizer encodes, one batched pass
over a batch's time slices vs the per-slice loop, wrapped vs re-validated
op outputs, merged vs unmerged LoRA layers, fused vs composed tape nodes,
cached vs full re-encode, one padded batch vs
per-trajectory rollouts, ``N`` worker processes vs an inline loop, a
continuously-batched request trace vs serial per-request execution, a city
built on the shared road graph vs one built with a graph copy per route —
and the report is written as ``BENCH_engine.json`` so later PRs have a
perf trajectory to regress against (``scripts/bench_compare.py`` diffs two
such files; sections that one report lacks are listed as skipped, so old
baselines stay diffable as sections are added).

Timing is *paired*: the two variants of a benchmark are sampled alternately
and each keeps its best sample, so a burst of machine noise (CPU steal on a
shared core) lands on both sides instead of skewing the ratio.

Following the conduit ``ExperimentConfig`` idiom, a report carries a stable
``config_id`` — the truncated SHA-256 of its sorted-JSON config — so two
reports are comparable exactly when their ids match.
"""

from __future__ import annotations

import contextlib
import copy
import hashlib
import json
import platform
import time
from dataclasses import asdict, dataclass, field
from pathlib import Path
from typing import Callable, Dict, List, Optional

import numpy as np

from repro.nn import attention
from repro.nn import functional as F
from repro.nn import losses
from repro.nn import tensor as tensor_module
from repro.nn.layers import MLP, LayerNorm
from repro.nn.lora import LoRALinear, attach_lora
from repro.nn.tensor import Tensor, no_grad
from repro.nn.transformer import GPT2Config, GPT2Model

__all__ = [
    "PerfBenchConfig",
    "PerfBenchReport",
    "run_perfbench",
    "write_report",
    "config_hash",
    "reference_city_build",
    "reference_kernels",
    "reference_prompt_loss",
    "reference_tokenizer",
    "datasets_identical",
]


def config_hash(config: Dict) -> str:
    """Stable 12-hex-character identity of a JSON-serialisable config dict."""
    payload = json.dumps(config, sort_keys=True)
    return hashlib.sha256(payload.encode()).hexdigest()[:12]


@dataclass(frozen=True)
class PerfBenchConfig:
    """Sizes and sample counts of the engine micro-benchmarks.

    The forward+backward shape matches the tier-1 model width
    (``d_model=32``, as in ``BIGCityConfig.tiny``) with a sequence long
    enough that the engine effects being measured — tape-node count,
    temporaries, the block-causal attention kernel — dominate constant
    Python overhead.  The decode shape is wider so the re-encoding baseline
    pays realistic per-step compute.
    """

    # forward+backward (fused vs composed engine path)
    d_model: int = 32
    num_layers: int = 2
    num_heads: int = 8
    batch_size: int = 2
    seq_len: int = 320
    # autoregressive decode (KV-cached vs full re-encode)
    decode_d_model: int = 64
    decode_num_heads: int = 4
    decode_prefill: int = 32
    decode_steps: int = 160
    # tokenizer encode (no-grad), and a stage-1 batch in grad mode
    tokenizer_sequences: int = 16
    tokenizer_grad_batch: int = 8
    # inference off the tape: decode-sized forwards through a backbone of
    # the forward+backward width and depth above (and the LoRA rank of
    # ``BIGCityConfig.tiny``), where per-op bookkeeping rather than FLOPs is
    # the cost
    inference_seq_len: int = 4
    inference_calls: int = 32
    inference_ops: int = 2000
    lora_rank: int = 4
    # batched autoregressive rollout (one padded batch vs per-trajectory)
    rollout_batch: int = 8
    rollout_steps: int = 4
    # batched single-pass evaluation (one padded prompt batch vs per-case)
    recovery_batch: int = 8
    traffic_cases: int = 8
    # sharded evaluation (worker processes vs inline loop)
    eval_units: int = 6
    eval_workers: int = 4
    # online serving (continuous batching vs serial request execution)
    serving_requests: int = 24
    serving_batch: int = 8
    serving_steps: int = 2
    #: Poisson arrival rate of the open-loop latency measurement — chosen
    #: above what serial execution sustains (so batches actually fold) but
    #: below the continuous-batching capacity.
    serving_rate_hz: float = 250.0
    #: Paired samples per benchmark; each variant keeps its best sample.
    samples: int = 8
    seed: int = 0

    def to_dict(self) -> Dict:
        return asdict(self)

    @property
    def config_id(self) -> str:
        # ``samples`` controls measurement effort, not the workload: two
        # reports that differ only in sample count measure the same thing
        # and must stay comparable.
        workload = {key: value for key, value in self.to_dict().items() if key != "samples"}
        return config_hash(workload)


@dataclass
class PerfBenchReport:
    """The measured results of one :func:`run_perfbench` invocation."""

    config: PerfBenchConfig
    results: Dict[str, Dict[str, float]] = field(default_factory=dict)

    def to_dict(self) -> Dict:
        return {
            "benchmark": "engine",
            "config": self.config.to_dict(),
            "config_id": self.config.config_id,
            "environment": {
                "python": platform.python_version(),
                "numpy": np.__version__,
            },
            "results": self.results,
        }

    def to_json(self) -> str:
        return json.dumps(self.to_dict(), indent=2, sort_keys=True)


def write_report(report: PerfBenchReport, path) -> Path:
    """Write ``BENCH_engine.json`` (or any path, creating its directory) and return it."""
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(report.to_json() + "\n")
    return path


# ----------------------------------------------------------------------
# Timing helpers
# ----------------------------------------------------------------------
def _paired_best(
    baseline: Callable[[], None],
    optimised: Callable[[], None],
    samples: int,
) -> Dict[str, float]:
    """Best-of-``samples`` wall-clock for two alternately-sampled variants."""
    optimised()  # warm-up both: caches, allocator, first-touch
    baseline()
    best_base = best_opt = float("inf")
    for _ in range(max(samples, 1)):
        start = time.perf_counter()
        optimised()
        best_opt = min(best_opt, time.perf_counter() - start)
        start = time.perf_counter()
        baseline()
        best_base = min(best_base, time.perf_counter() - start)
    return {"baseline_s": best_base, "optimised_s": best_opt}


def _build_model(d_model: int, num_layers: int, num_heads: int, max_position: int, seed: int) -> GPT2Model:
    return GPT2Model(
        GPT2Config(
            d_model=d_model,
            num_layers=num_layers,
            num_heads=num_heads,
            max_position=max_position,
            seed=seed,
        )
    )


# ----------------------------------------------------------------------
# Micro-benchmarks
# ----------------------------------------------------------------------
def _synthetic_city(seed: int, sequences: int):
    """A small synthetic city shared by the data-dependent benchmarks.

    Returns ``(network, city, trajectories, traffic)`` — enough to build a
    tokenizer or a full BIGCity model.  Imported lazily so the pure-engine
    benchmarks only need :mod:`repro.nn`.
    """
    from repro.data.synthetic import SyntheticCity, SyntheticCityConfig
    from repro.roadnet.generators import grid_city

    network = grid_city(rows=4, cols=4, block_km=0.5, seed=seed)
    city = SyntheticCity(
        network,
        SyntheticCityConfig(
            num_users=4,
            trajectories_per_user=max(1, sequences // 4),
            num_days=1,
            min_route_hops=4,
            max_route_hops=10,
            seed=seed,
        ),
    )
    trajectories, traffic = city.simulate()
    return network, city, trajectories, traffic


def bench_tokenizer(config: PerfBenchConfig) -> Dict[str, float]:
    """ST-tokenizer ``encode_batch``: cold (memo emptied) vs warm (memo full).

    Re-registering the traffic tensor empties the tokenizer's memo of static
    and per-slice fused representations, so the cold variant runs every
    GAT and fusion pass; the warm variant serves them from the memo and
    runs only the token MLP.  ``identical`` checks both encode the same
    tokens bit-for-bit.
    """
    from repro.core.config import BIGCityConfig
    from repro.core.st_unit import trajectory_to_units
    from repro.core.tokenizer import SpatioTemporalTokenizer

    network, city, trajectories, traffic = _synthetic_city(config.seed, config.tokenizer_sequences)
    tokenizer = SpatioTemporalTokenizer(
        network=network,
        time_axis=city.time_axis,
        config=BIGCityConfig.tiny(),
        traffic_states=traffic,
    )
    tokenizer.eval()
    sequences = [
        trajectory_to_units(t, traffic) for t in trajectories[: config.tokenizer_sequences]
    ]

    def run_cold() -> List[Tensor]:
        tokenizer.set_traffic_states(traffic)
        return run_warm()

    def run_warm() -> List[Tensor]:
        with no_grad():
            return tokenizer.encode_batch(sequences)

    cold_tokens = run_cold()
    warm_tokens = run_warm()
    identical = all(np.array_equal(a.data, b.data) for a, b in zip(cold_tokens, warm_tokens))
    timing = _paired_best(run_cold, run_warm, config.samples)
    cold_s, warm_s = timing["baseline_s"], timing["optimised_s"]
    return {
        "cold_s": cold_s,
        "warm_s": warm_s,
        "memo_speedup": cold_s / warm_s if warm_s > 0 else float("inf"),
        "identical": float(identical),
        "sequences": float(len(sequences)),
        "sequences_per_s": len(sequences) / warm_s if warm_s > 0 else float("inf"),
    }


def bench_tokenizer_grad(config: PerfBenchConfig) -> Dict[str, float]:
    """Grad-mode tokenizer forward + backward: batched pass vs per-slice loop.

    The tokenizer part of a stage-1 step on ``xa_like``: a batch of
    masked-reconstruction prompts (trajectories and traffic windows, drawn
    as stage-1 training draws them) is encoded with every tokenizer
    parameter trainable, so the memo is off: the ST tokens of every
    sequence and the partial ST tokens of the masked units.  A fixed
    weighting of the tokens is then backpropagated.  The baseline runs the
    same step inside :func:`reference_tokenizer`.  ``identical`` checks
    that both encode the same tokens bit for bit.
    """
    from repro.core.config import BIGCityConfig
    from repro.core.model import BIGCity
    from repro.core.training import TrainingConfig, assemble_stage1_prompts
    from repro.data.datasets import load_dataset

    dataset = load_dataset(_DATASET_PRESET, seed=config.seed)
    model = BIGCity.from_dataset(dataset, config=BIGCityConfig.tiny())
    tokenizer = model.tokenizer
    rng = np.random.default_rng(config.seed)
    prompts = assemble_stage1_prompts(dataset, dataset.traffic_states, model.prompt_builder, TrainingConfig(), rng)
    batch = [prompts[int(index)] for index in rng.choice(len(prompts), size=config.tokenizer_grad_batch, replace=False)]
    sequences = [prompt.sequence for prompt in batch]
    units = [(a.segment_id, a.timestamp) for prompt in batch for a in prompt.anchors if a.kind == "partial"]
    weights = [rng.standard_normal((len(sequence), tokenizer.d_model)) for sequence in sequences]

    def step() -> List[np.ndarray]:
        tokenizer.zero_grad()
        static = tokenizer.static_representations()
        tokens = tokenizer.encode_batch(sequences, static=static)
        partials, rows = tokenizer.encode_partials(units, static_cache=static)
        loss = partials.sum()
        for token, weight in zip(tokens, weights):
            loss = loss + (token * Tensor(weight)).sum()
        loss.backward()
        return [token.data for token in tokens] + [partials.data[rows]]

    def run_reference() -> List[np.ndarray]:
        with reference_tokenizer():
            return step()

    identical = all(np.array_equal(a, b) for a, b in zip(step(), run_reference()))
    timing = _paired_best(run_reference, step, config.samples)
    reference_s, batched_s = timing["baseline_s"], timing["optimised_s"]
    return {
        "reference_s": reference_s,
        "batched_s": batched_s,
        "speedup": reference_s / batched_s if batched_s > 0 else float("inf"),
        "identical": float(identical),
        "slices": float(len({dataset.time_axis.slice_of(t) for s in sequences for t in s.timestamps})),
    }


def _tape_nodes(output: Tensor) -> int:
    """Recorded op nodes the backward of ``output`` walks."""
    seen, stack = set(), [output]
    while stack:
        node = stack.pop()
        if id(node) in seen or node._backward is None:
            continue
        seen.add(id(node))
        stack.extend(parent for parent in node._parents if parent.requires_grad)
    return len(seen)


@contextlib.contextmanager
def _recorded(owner, name: str, outputs: List[np.ndarray]):
    """Append the output array of every ``owner.name`` call inside the block to ``outputs``."""
    original = owner.__dict__[name]

    def recording(*args, **kwargs):
        result = original(*args, **kwargs)
        outputs.extend(r.data for r in (result if isinstance(result, list) else [result]))
        return result

    with _patched([(owner, name, recording)]):
        yield


def reference_prompt_loss(model, prompts, traffic_override=None):
    """``BIGCity.prompt_loss`` as the per-prompt loop the family-batched loss replaced.

    Each prompt stacks its own ``[CLAS]`` / ``[REG]`` rows with one
    ``__getitem__`` node per row, runs a head and a loss per term, and the
    terms are summed one weighted node at a time.  With the fused kernels
    the batched loss equals it bit for bit: head outputs, loss, breakdown
    and every gradient.  It is the oracle of the family-batched loss tests
    and, patched in for ``BIGCity.prompt_loss``, part of the ``train_step``
    baseline.
    """
    from repro.core.prompts import CLAS, REG

    outputs = model.forward_prompts(prompts, traffic_override=traffic_override)
    total = None
    breakdown = {"clas": 0.0, "reg": 0.0, "tim": 0.0, "count": 0.0}

    def stacked(output, indices):
        return Tensor.stack([output.task_outputs[i] for i in indices], axis=0)

    for output in outputs:
        prompt = output.prompt
        clas_indices = [i for i, kind in enumerate(prompt.placeholders) if kind == CLAS]
        reg_indices = [i for i, kind in enumerate(prompt.placeholders) if kind == REG]
        terms = []
        targets = [t for t in prompt.classification_targets if t >= 0]
        if clas_indices and targets and len(targets) == len(clas_indices):
            logits = model.heads.classification_logits(stacked(output, clas_indices))
            terms.append(("clas", 1.0, losses.cross_entropy(logits, np.asarray(targets, dtype=np.int64))))
        values = [np.asarray(t, dtype=np.float64) for t in prompt.regression_targets]
        if reg_indices and values and all(t.size for t in values) and len(values) == len(reg_indices):
            predictions = model.heads.regression_prediction(stacked(output, reg_indices))
            normalised = np.stack([model.normalise_traffic(t) for t in values])
            terms.append(("reg", model.config.lambda_reg, losses.mse_loss(predictions, normalised)))
        if reg_indices and prompt.timestamp_targets and len(prompt.timestamp_targets) == len(reg_indices):
            predictions = model.heads.timestamp_prediction(stacked(output, reg_indices)).reshape(len(reg_indices))
            intervals = np.asarray(prompt.timestamp_targets, dtype=np.float64) / model.time_scale
            terms.append(("tim", model.config.lambda_tim, losses.mse_loss(predictions, intervals)))
        for key, weight, term in terms:
            weighted = term * weight
            total = weighted if total is None else total + weighted
            breakdown[key] += float(term.item())
            breakdown["count"] += 1.0

    if total is None:
        total = Tensor(np.zeros(()), requires_grad=False)
    else:
        total = total * (1.0 / max(len(outputs), 1))
    breakdown["total"] = float(total.item())
    return total, breakdown


def bench_train_step(config: PerfBenchConfig) -> Dict[str, float]:
    """One stage-1 step on ``xa_like``: ``prompt_loss`` forward and backward.

    A batch of masked-reconstruction prompts, drawn as stage-1 training
    draws them, runs through the whole model with the tokenizer and the
    backbone trainable, as the stage-1 trainer sets them.  The baseline runs
    the same step inside :func:`reference_tokenizer` (the fusion of every
    row of every slice the batch touches) with every LoRA layer as the
    composed chain of seven tape ops, every MLP as its per-layer nodes and
    the loss as the per-prompt loop of :func:`reference_prompt_loss`.
    ``identical`` checks that both give the same ST tokens, LoRA-layer
    outputs, head outputs and loss bit for bit; ``tape_nodes`` and
    ``reference_tape_nodes`` count the recorded op nodes of one step's
    backward.
    """
    from repro.core.config import BIGCityConfig
    from repro.core.heads import GeneralTaskHeads
    from repro.core.model import BIGCity
    from repro.core.tokenizer import SpatioTemporalTokenizer
    from repro.core.training import TrainingConfig, assemble_stage1_prompts
    from repro.data.datasets import load_dataset

    dataset = load_dataset(_DATASET_PRESET, seed=config.seed)
    model = BIGCity.from_dataset(dataset, config=BIGCityConfig.tiny())
    model.train()
    model.backbone.llm.unfreeze()
    rng = np.random.default_rng(config.seed)
    prompts = assemble_stage1_prompts(dataset, dataset.traffic_states, model.prompt_builder, TrainingConfig(), rng)
    batch = [prompts[int(index)] for index in rng.choice(len(prompts), size=config.tokenizer_grad_batch, replace=False)]

    def step() -> Tensor:
        model.zero_grad()
        loss, _ = model.prompt_loss(batch)
        loss.backward()
        return loss

    @contextlib.contextmanager
    def reference():
        patches = [
            (F, "lora_linear", F.lora_linear_composed),
            (MLP, "forward", MLP.forward_layerwise),
            (BIGCity, "prompt_loss", reference_prompt_loss),
        ]
        with reference_tokenizer(), _patched(patches):
            yield

    def run_reference() -> Tensor:
        with reference():
            return step()

    def recorded_step(baseline: bool):
        recorded = {name: [] for name in ("encode_batch", "lora_linear", *_HEAD_METHODS)}
        with reference() if baseline else contextlib.nullcontext(), contextlib.ExitStack() as stack:
            stack.enter_context(_recorded(SpatioTemporalTokenizer, "encode_batch", recorded["encode_batch"]))
            stack.enter_context(_recorded(F, "lora_linear", recorded["lora_linear"]))
            for name in _HEAD_METHODS:
                stack.enter_context(_recorded(GeneralTaskHeads, name, recorded[name]))
            loss = step()
        # Per-prompt head calls concatenate, in call order, to the batched call's rows.
        outputs = recorded["encode_batch"] + recorded["lora_linear"]
        outputs += [np.concatenate(recorded[name]) for name in _HEAD_METHODS if recorded[name]]
        return outputs + [loss.data], _tape_nodes(loss)

    (outputs, nodes), (reference_outputs, reference_nodes) = recorded_step(False), recorded_step(True)
    identical = len(outputs) == len(reference_outputs) > 1 and all(
        np.array_equal(a, b) for a, b in zip(outputs, reference_outputs)
    )
    timing = _paired_best(run_reference, step, config.samples)
    reference_s, step_s = timing["baseline_s"], timing["optimised_s"]
    return {
        "reference_s": reference_s,
        "step_s": step_s,
        "speedup": reference_s / step_s if step_s > 0 else float("inf"),
        "identical": float(identical),
        "tape_nodes": float(nodes),
        "reference_tape_nodes": float(reference_nodes),
    }


_HEAD_METHODS = ("classification_logits", "regression_prediction", "timestamp_prediction")


class _UnmergedLoRA(LoRALinear):
    """A LoRA layer that runs the unmerged composition ``base(x) + (x A.T
    B.T) * scale`` as separate ops under ``no_grad`` too: the baseline of the
    merged inference path."""

    #: Forwards served, so the benchmark can tell that the baseline ran.
    calls = 0

    def forward(self, x: Tensor) -> Tensor:
        _UnmergedLoRA.calls += 1
        return F.lora_linear_composed(x, self.base.weight, self.base.bias, self.lora_a, self.lora_b, self.scaling)


def _module_path(model: GPT2Model) -> GPT2Model:
    """Make ``model`` run module by module under ``no_grad`` as in grad mode,
    the baseline of the array pass (it never builds an inference plan)."""
    model._inference_plan = lambda: None
    return model


@contextlib.contextmanager
def _validated_op_outputs():
    """Build every op output with the validating ``Tensor`` constructor.

    This is how the engine built them before ``apply_op`` wrapped outputs
    with ``_wrap``, so it is the baseline of the no-grad fast path.
    """
    original = tensor_module._wrap
    tensor_module._wrap = Tensor
    try:
        yield
    finally:
        tensor_module._wrap = original


def bench_inference(config: PerfBenchConfig) -> Dict[str, float]:
    """Inference off the autograd tape: no-grad ops, the array pass and merged LoRA.

    ``identical`` checks that ``inference_calls`` decode-sized forwards of a
    LoRA-free GPT-2 stack give bit-for-bit the same outputs under
    ``no_grad`` as in grad mode, where every op records its tape node.

    ``nograd_speedup`` times ``no_grad`` op outputs built by the validating
    ``Tensor`` constructor against outputs wrapped by ``_wrap``.  Grad mode
    shares ``_wrap``, so it is no baseline.  The ops run as a chain of
    ``inference_ops`` cheap elementwise and shape ops on a decode-sized
    activation, where the per-op cost the fast path removes is visible.  In
    the stack's forwards the fused kernels' NumPy work hides most of it:
    about 5% of a forward at ``BIGCityConfig.tiny`` width on a 2-vCPU VM,
    within that machine's run-to-run noise.

    Then LoRA adapters with a random ``B`` are attached.
    ``backbone_speedup`` times the same decode-sized ``no_grad`` forwards
    run module by module against the array pass over the memoised weight
    plan; ``identical`` also checks that both return the same bits.
    ``lora_merge_speedup`` times, on the module path, the unmerged
    composition ``base(x) + (x A.T B.T) * scale`` against merged LoRA
    layers, which serve ``x @ W_merged.T + b`` from the memo.
    ``max_abs_diff`` is the largest difference between the two outputs,
    which differ only in summation order.
    """
    model = _build_model(
        config.d_model, config.num_layers, config.num_heads, 4 * config.inference_seq_len, config.seed
    )
    model.eval()
    rng = np.random.default_rng(config.seed)
    inputs = [
        rng.standard_normal((1, config.inference_seq_len, config.d_model)) for _ in range(config.inference_calls)
    ]

    def forward_all(stack: GPT2Model) -> List[np.ndarray]:
        return [stack(Tensor(x)).data for x in inputs]

    def run_nograd() -> List[np.ndarray]:
        with no_grad():
            return forward_all(model)

    identical = all(np.array_equal(a, b) for a, b in zip(forward_all(model), run_nograd()))

    activation = Tensor(inputs[0])
    shift = Tensor(rng.standard_normal(config.d_model))
    shape = activation.shape

    def run_ops() -> np.ndarray:
        with no_grad():
            h = activation
            for _ in range(config.inference_ops // 4):
                h = (h + shift).tanh().transpose(0, 2, 1).reshape(shape)
            return h.data

    def run_validated_ops() -> np.ndarray:
        with _validated_op_outputs():
            return run_ops()

    identical = identical and np.array_equal(run_ops(), run_validated_ops())
    nograd = _paired_best(run_validated_ops, run_ops, config.samples)

    attach_lora(model, rank=config.lora_rank, rng=rng)
    for layer in model.modules():
        if isinstance(layer, LoRALinear):
            layer.lora_b.data = rng.standard_normal(layer.lora_b.shape)
    module_model = _module_path(copy.deepcopy(model))
    unmerged_model = _module_path(copy.deepcopy(model))
    for layer in unmerged_model.modules():
        if isinstance(layer, LoRALinear):
            layer.__class__ = _UnmergedLoRA

    def run_module() -> List[np.ndarray]:
        with no_grad():
            return forward_all(module_model)

    def run_unmerged() -> List[np.ndarray]:
        with no_grad():
            return forward_all(unmerged_model)

    identical = identical and all(np.array_equal(a, b) for a, b in zip(run_module(), run_nograd()))
    backbone = _paired_best(run_module, run_nograd, config.samples)
    _UnmergedLoRA.calls = 0
    max_abs_diff = max(float(np.abs(a - b).max()) for a, b in zip(run_unmerged(), run_module()))
    if _UnmergedLoRA.calls == 0:
        raise RuntimeError("the unmerged LoRA baseline never ran")
    merge = _paired_best(run_unmerged, run_module, config.samples)
    return {
        "validated_s": nograd["baseline_s"],
        "nograd_s": nograd["optimised_s"],
        "nograd_speedup": nograd["baseline_s"] / nograd["optimised_s"],
        "identical": float(identical),
        "module_s": backbone["baseline_s"],
        "plan_s": backbone["optimised_s"],
        "backbone_speedup": backbone["baseline_s"] / backbone["optimised_s"],
        "unmerged_s": merge["baseline_s"],
        "merged_s": merge["optimised_s"],
        "lora_merge_speedup": merge["baseline_s"] / merge["optimised_s"],
        "max_abs_diff": max_abs_diff,
    }


def bench_forward_backward(config: PerfBenchConfig) -> Dict[str, float]:
    """Fused vs composed engine path on a transformer forward+backward.

    Both variants run the identical GPT-2 stack and softmax cross-entropy
    loss; the only difference is the engine path — single fused tape nodes
    (block-causal attention, fused layer-norm/GELU/linear/cross-entropy)
    against the composed multi-node formulation the engine originally used,
    run inside :func:`reference_kernels`.  The ratio is therefore exactly
    the engine speedup.
    """
    model = _build_model(
        config.d_model, config.num_layers, config.num_heads, max(512, config.seq_len + 8), config.seed
    )
    model.train()
    rng = np.random.default_rng(config.seed)
    embeddings = rng.standard_normal((config.batch_size, config.seq_len, config.d_model))
    targets = rng.integers(0, config.d_model, size=config.batch_size * config.seq_len)
    parameters = list(model.parameters())

    def run_once() -> None:
        for parameter in parameters:
            parameter.zero_grad()
        x = Tensor(embeddings, requires_grad=True)
        hidden = model(x)
        loss = losses.cross_entropy(hidden.reshape(-1, config.d_model), targets)
        loss.backward()

    def run_composed() -> None:
        with reference_kernels():
            run_once()

    timing = _paired_best(run_composed, run_once, config.samples)
    composed_s, fused_s = timing["baseline_s"], timing["optimised_s"]
    return {
        "fused_s": fused_s,
        "composed_s": composed_s,
        "speedup": composed_s / fused_s if fused_s > 0 else float("inf"),
    }


def bench_decode(config: PerfBenchConfig) -> Dict[str, float]:
    """KV-cached vs full re-encode autoregressive decoding.

    Starting from a ``decode_prefill``-token prefix, each of ``decode_steps``
    steps feeds one new embedding.  The cached path pushes only that embedding
    through the transformer (the per-layer :class:`KVCache` holds the prefix);
    the uncached path re-encodes the whole growing sequence every step, which
    is what the model layer did before this fast path existed.
    """
    length = config.decode_prefill + config.decode_steps
    model = _build_model(
        config.decode_d_model, config.num_layers, config.decode_num_heads, max(512, length + 8), config.seed
    )
    model.eval()
    rng = np.random.default_rng(config.seed)
    prefix = rng.standard_normal((1, config.decode_prefill, config.decode_d_model))
    steps = rng.standard_normal((config.decode_steps, config.decode_d_model))

    def run_cached() -> None:
        with no_grad():
            caches = model.new_caches()
            model(Tensor(prefix), caches=caches)
            for index in range(config.decode_steps):
                model(Tensor(steps[index].reshape(1, 1, -1)), caches=caches)

    def run_uncached() -> None:
        with no_grad():
            model(Tensor(prefix))
            for index in range(config.decode_steps):
                full = np.concatenate(
                    [prefix, steps[: index + 1].reshape(1, -1, config.decode_d_model)], axis=1
                )
                model(Tensor(full))

    timing = _paired_best(run_uncached, run_cached, config.samples)
    uncached_s, cached_s = timing["baseline_s"], timing["optimised_s"]
    return {
        "cached_s": cached_s,
        "uncached_s": uncached_s,
        "speedup": uncached_s / cached_s if cached_s > 0 else float("inf"),
        "steps": float(config.decode_steps),
    }


def bench_batched_rollout(config: PerfBenchConfig) -> Dict[str, float]:
    """One padded KV-cached batch vs per-trajectory autoregressive rollouts.

    Times ``BIGCity.rollout_next_hops_batch`` over ``rollout_batch``
    trajectories against the per-trajectory loop it replaced; both paths are
    KV-cached and decode ``rollout_steps`` segments, and both choose identical
    segments (asserted by the equivalence tests), so the ratio is purely the
    batching win.
    """
    from repro.core.config import BIGCityConfig
    from repro.core.model import BIGCity

    network, city, trajectories, traffic = _synthetic_city(config.seed, config.rollout_batch)
    model = BIGCity(
        network=network,
        time_axis=city.time_axis,
        num_users=max((t.user_id for t in trajectories), default=0) + 1,
        config=BIGCityConfig.tiny(seed=config.seed),
        traffic_states=traffic,
    )
    model.eval()
    usable = [t for t in trajectories if len(t) >= 2] or trajectories
    batch = [usable[i % len(usable)] for i in range(config.rollout_batch)]

    def run_serial() -> None:
        for trajectory in batch:
            model.rollout_next_hops_batch([trajectory], steps=config.rollout_steps)

    def run_batched() -> None:
        model.rollout_next_hops_batch(batch, steps=config.rollout_steps)

    timing = _paired_best(run_serial, run_batched, config.samples)
    serial_s, batched_s = timing["baseline_s"], timing["optimised_s"]
    return {
        "batched_s": batched_s,
        "serial_s": serial_s,
        "speedup": serial_s / batched_s if batched_s > 0 else float("inf"),
        "trajectories": float(config.rollout_batch),
        "steps": float(config.rollout_steps),
    }


def bench_batched_recovery(config: PerfBenchConfig) -> Dict[str, float]:
    """One padded prompt batch vs per-trajectory recovery calls.

    Times ``BIGCity.recover_trajectories_batch`` over ``recovery_batch``
    masked trajectories against the per-trajectory loop it replaced.  Both
    paths assemble identical recovery prompts and run the identical backbone
    forward (single-pass, not autoregressive), so the ratio is purely the
    win of assembling ONE right-padded batch instead of one prompt at a
    time.  The random masks regularly drop trajectory endpoints, so this
    benchmark also exercises the open-sided constrained decoding fallback.
    ``identical`` records whether batched and serial recoveries matched
    bit-for-bit (they must — the batch entry point is equality-pinned).
    """
    from repro.core.config import BIGCityConfig
    from repro.core.model import BIGCity

    network, city, trajectories, traffic = _synthetic_city(config.seed, config.recovery_batch)
    model = BIGCity(
        network=network,
        time_axis=city.time_axis,
        num_users=max((t.user_id for t in trajectories), default=0) + 1,
        config=BIGCityConfig.tiny(seed=config.seed),
        traffic_states=traffic,
    )
    model.eval()
    rng = np.random.default_rng(config.seed)
    usable = [t for t in trajectories if len(t) >= 4] or trajectories
    batch = [usable[i % len(usable)] for i in range(config.recovery_batch)]
    kept_list = []
    for trajectory in batch:
        keep = max(1, len(trajectory) // 3)
        kept_list.append(np.sort(rng.choice(len(trajectory), size=keep, replace=False)))

    serial = [model.recover_trajectories_batch([t], [k])[0] for t, k in zip(batch, kept_list)]
    batched = model.recover_trajectories_batch(batch, kept_list)
    identical = 1.0 if all(np.array_equal(s, b) for s, b in zip(serial, batched)) else 0.0

    def run_serial() -> None:
        for trajectory, kept in zip(batch, kept_list):
            model.recover_trajectories_batch([trajectory], [kept])

    def run_batched() -> None:
        model.recover_trajectories_batch(batch, kept_list)

    timing = _paired_best(run_serial, run_batched, config.samples)
    serial_s, batched_s = timing["baseline_s"], timing["optimised_s"]
    return {
        "batched_s": batched_s,
        "serial_s": serial_s,
        "speedup": serial_s / batched_s if batched_s > 0 else float("inf"),
        "trajectories": float(config.recovery_batch),
        "identical": identical,
    }


def bench_batched_traffic(config: PerfBenchConfig) -> Dict[str, float]:
    """One padded prompt batch vs per-case traffic prediction + imputation.

    Times ``BIGCity.predict_traffic_states_batch`` and
    ``BIGCity.impute_traffic_states_batch`` over ``traffic_cases`` cases each
    against the per-case loops they replaced (same single-pass prompts, same
    backbone forward).  ``identical`` records whether every batched output
    matched its serial twin bit-for-bit (they must).
    """
    from repro.core.config import BIGCityConfig
    from repro.core.model import BIGCity

    network, city, trajectories, traffic = _synthetic_city(config.seed, 8)
    model = BIGCity(
        network=network,
        time_axis=city.time_axis,
        num_users=max((t.user_id for t in trajectories), default=0) + 1,
        config=BIGCityConfig.tiny(seed=config.seed),
        traffic_states=traffic,
    )
    model.eval()
    history, horizon = 4, 2
    predict_start_max = max(traffic.num_slices - (history + horizon), 1)
    predict_cases = [
        (i % traffic.num_segments, (3 * i) % predict_start_max, history, horizon)
        for i in range(config.traffic_cases)
    ]
    length = 6
    impute_start_max = max(traffic.num_slices - length, 1)
    impute_cases = [
        (i % traffic.num_segments, (2 * i) % impute_start_max, length, (1, 3))
        for i in range(config.traffic_cases)
    ]

    serial_predictions = [model.predict_traffic_states_batch([case])[0] for case in predict_cases]
    batched_predictions = model.predict_traffic_states_batch(predict_cases)
    serial_imputations = [model.impute_traffic_states_batch([case])[0] for case in impute_cases]
    batched_imputations = model.impute_traffic_states_batch(impute_cases)
    identical = (
        1.0
        if all(np.array_equal(s, b) for s, b in zip(serial_predictions, batched_predictions))
        and all(np.array_equal(s, b) for s, b in zip(serial_imputations, batched_imputations))
        else 0.0
    )

    def run_serial() -> None:
        for case in predict_cases:
            model.predict_traffic_states_batch([case])
        for case in impute_cases:
            model.impute_traffic_states_batch([case])

    def run_batched() -> None:
        model.predict_traffic_states_batch(predict_cases)
        model.impute_traffic_states_batch(impute_cases)

    timing = _paired_best(run_serial, run_batched, config.samples)
    serial_s, batched_s = timing["baseline_s"], timing["optimised_s"]
    return {
        "batched_s": batched_s,
        "serial_s": serial_s,
        "speedup": serial_s / batched_s if batched_s > 0 else float("inf"),
        "cases": float(2 * config.traffic_cases),
        "identical": identical,
    }


def _sharded_eval_unit(seed: int) -> Dict[str, float]:
    """One evaluation unit of the sharded-eval benchmark (module-level so the
    worker processes can import it): build a seeded synthetic city, run a
    fresh BIGCity model over its trajectories (next-hop ranking, travel-time
    estimation, a batched rollout) and reduce the predictions to checksums.
    Deterministic given ``seed``, so serial and sharded runs must produce
    identical merged results.  Deliberately a few hundred milliseconds of
    work — the scale of one real experiment sub-unit — so per-process
    overhead is amortised the way it would be on the slow benchmark tier.
    """
    from repro.core.config import BIGCityConfig
    from repro.core.model import BIGCity

    network, city, trajectories, traffic = _synthetic_city(seed, 64)
    model = BIGCity(
        network=network,
        time_axis=city.time_axis,
        num_users=max((t.user_id for t in trajectories), default=0) + 1,
        config=BIGCityConfig(hidden_dim=32, d_model=64, num_layers=3, seed=seed),
        traffic_states=traffic,
    )
    model.eval()
    sample = [t for t in trajectories if len(t) >= 2][:48]
    rankings = model.predict_next_hop(sample, top_k=3)
    travel_times = model.estimate_travel_time(sample)
    rollouts = model.rollout_next_hops_batch(sample[:16], steps=3)
    return {
        "seed": float(seed),
        "checksum": float(sum(int(r[0]) for r in rankings)),
        "travel_time_sum": float(np.round(travel_times.sum(), 6)),
        "rollout_checksum": float(sum(int(r[-1]) for r in rollouts)),
    }


def bench_sharded_eval(config: PerfBenchConfig) -> Dict[str, float]:
    """Worker-process sharded evaluation vs the inline serial loop.

    Fans ``eval_units`` independent evaluation units out over
    ``eval_workers`` processes through :func:`repro.eval.parallel.run_sharded`
    and times the same units run inline.  ``sharded_s`` includes creating the
    process pool — that is the cost a user really pays per
    ``run_experiments`` call.  ``identical`` records whether the merged
    results matched bit-for-bit (they must).  The speedup scales with the
    machine's core count — on a single-core box the sharded path pays process
    overhead for no parallelism, and the report says so honestly.
    """
    from repro.eval.parallel import run_sharded

    seeds = [config.seed + index for index in range(config.eval_units)]
    _sharded_eval_unit(seeds[0])  # warm imports/caches in the parent

    start = time.perf_counter()
    serial_results = run_sharded(_sharded_eval_unit, seeds, num_workers=1)
    serial_s = time.perf_counter() - start
    start = time.perf_counter()
    sharded_results = run_sharded(_sharded_eval_unit, seeds, num_workers=config.eval_workers)
    sharded_s = time.perf_counter() - start
    return {
        "serial_s": serial_s,
        "sharded_s": sharded_s,
        "speedup": serial_s / sharded_s if sharded_s > 0 else float("inf"),
        "units": float(config.eval_units),
        "workers": float(config.eval_workers),
        "identical": 1.0 if serial_results == sharded_results else 0.0,
    }


def bench_serving(config: PerfBenchConfig) -> Dict[str, float]:
    """Continuous-batched serving vs serial per-request execution.

    The same seeded mixed-task request trace (next-hop rollouts, trajectory
    recovery, traffic prediction/imputation over a synthetic city) is run
    two ways through :func:`repro.serving.loadgen.run_loadgen`:

    * an **instantaneous backlog** — every request submitted at t=0 — which
      measures peak continuous-batching throughput against the serial
      baseline (the same trace executed one request at a time through the
      shared execution helper); this is the gated ``speedup``;
    * a **Poisson open-loop run** at ``serving_rate_hz``, which yields the
      client-visible latency percentiles, batch-occupancy histogram and
      queue depths under realistic arrivals.

    ``identical`` records whether the batched results matched the serial
    results bit-for-bit in *every* run (they must — the scheduler folds
    every group of batch-compatible requests, of any kind, into one
    ``*_batch`` model call, and every batch entry point is equality-pinned).
    ``folded`` / ``fold_ratio`` report how many of the Poisson run's
    requests were answered by a folded batch call — the mixed-trace fold
    metric that shows recovery/traffic requests batching, not just
    next-hop rollouts.
    """
    from repro.core.config import BIGCityConfig
    from repro.core.model import BIGCity
    from repro.data.datasets import CityDataset, make_splits
    from repro.serving import LoadGenConfig, ServingConfig
    from repro.serving.loadgen import run_loadgen

    network, city, trajectories, traffic = _synthetic_city(config.seed, 16)
    splits = make_splits(len(trajectories), (0.5, 0.2, 0.3), seed=config.seed)
    dataset = CityDataset(
        name="serving_bench",
        network=network,
        trajectories=trajectories,
        traffic_states=traffic,
        splits=splits,
        time_axis=city.time_axis,
    )
    model = BIGCity.from_dataset(dataset, config=BIGCityConfig.tiny(seed=config.seed))
    model.eval()
    serving_config = ServingConfig(max_batch_size=config.serving_batch)
    backlog = LoadGenConfig(
        num_requests=config.serving_requests, rate_hz=None, steps=config.serving_steps, seed=config.seed
    )

    # Failure counters aggregate as a max over every run below: the fault
    # layer is at its no-op default here, so any nonzero value in any run
    # is a real regression and must show up in the report.
    failure_keys = (
        "shed",
        "retried",
        "isolated",
        "failed",
        "respawned",
        "quarantined",
        "rejected",
        "loadgen_rejected",
        "loadgen_failed",
        "loadgen_timeouts",
        "failure_rate",
    )
    failures: Dict[str, float] = {key: 0.0 for key in failure_keys}

    def observe_failures(run: Dict[str, float]) -> None:
        for key in failure_keys:
            failures[key] = max(failures[key], float(run.get(key, 0.0)))

    # Backlog drain, paired-best over a few samples: throughput comparison.
    best: Dict[str, float] = {}
    identical = 1.0
    for _ in range(max(1, min(config.samples, 3))):
        run = run_loadgen(model, dataset, backlog, serving_config)
        identical = min(identical, run["identical"])
        observe_failures(run)
        if not best or run["batched_s"] < best["batched_s"]:
            best = dict(run)
        best["serial_s"] = min(best["serial_s"], run["serial_s"])

    # Poisson open loop: latency/occupancy under realistic arrivals.
    poisson = run_loadgen(
        model,
        dataset,
        LoadGenConfig(
            num_requests=config.serving_requests,
            rate_hz=config.serving_rate_hz,
            steps=config.serving_steps,
            seed=config.seed,
        ),
        serving_config,
    )
    identical = min(identical, poisson["identical"])
    observe_failures(poisson)

    serial_s, batched_s = best["serial_s"], best["batched_s"]
    result: Dict[str, float] = {
        "requests": float(config.serving_requests),
        "serial_s": serial_s,
        "batched_s": batched_s,
        "serial_requests_per_s": config.serving_requests / serial_s if serial_s > 0 else float("inf"),
        "requests_per_s": config.serving_requests / batched_s if batched_s > 0 else float("inf"),
        "speedup": serial_s / batched_s if batched_s > 0 else float("inf"),
        "identical": identical,
        "poisson_rate_hz": config.serving_rate_hz,
        "folded": float(poisson.get("folded", 0.0)),
        "fold_ratio": float(poisson.get("folded", 0.0)) / max(config.serving_requests, 1),
    }
    for key in (
        "latency_p50_s",
        "latency_p95_s",
        "latency_p99_s",
        "wait_mean_s",
        "batch_occupancy_mean",
        "batch_occupancy_max",
        "queue_depth_mean",
        "queue_depth_max",
        "ticks",
    ):
        result[key] = poisson[key]
    for key, value in poisson.items():
        if key.startswith("batch_occ_"):
            result[key] = value
    result.update(failures)
    return result


def _reference_shortest_path(network, source: int, target: int, weights=None) -> List[int]:
    """Routing as it ran before the weight callable: a graph copy per weighted route."""
    import networkx as nx

    graph = network.to_networkx()
    if weights is not None:
        graph = graph.copy()
        for (i, j), value in weights.items():
            if graph.has_edge(i, j):
                graph[i][j]["weight"] = value
    try:
        return [int(n) for n in nx.shortest_path(graph, source, target, weight="weight")]
    except nx.NetworkXNoPath:
        return []


def _reference_hop_distance(network, source: int, target: int) -> int:
    """Hop distance as a networkx BFS per ``(source, target)`` pair."""
    import networkx as nx

    try:
        return int(nx.shortest_path_length(network.to_networkx(), source, target))
    except nx.NetworkXNoPath:
        return -1


def _reference_route_preferences(city) -> Dict:
    """Per-user edge weights drawn one scalar ``uniform`` per edge."""
    network = city.network
    noise = city.config.route_preference_noise
    weights = {}
    for i, j in zip(*np.nonzero(network.adjacency)):
        base = network.segments[j].free_flow_travel_time
        weights[(int(i), int(j))] = float(base * city._rng.uniform(1.0 - noise, 1.0 + noise))
    return weights


def _reference_route_for(city, user, origin: int, destination: int) -> List[int]:
    """A user's route searched again on every trip (no memo)."""
    return city.network.shortest_path(origin, destination, weights=user.edge_weights)


def _reference_simulate_trip(city, trajectory_id: int, user, route, departure: float):
    """A trip driven with one scalar ``normal`` speed-noise draw and one ``np.clip`` per segment."""
    from repro.data.trajectory import Trajectory

    timestamps = [departure]
    for segment_id in route[:-1]:
        slice_index = city.time_axis.slice_of(timestamps[-1])
        limit = city.network.segments[segment_id].speed_limit
        noise = city._rng.normal(1.0, city.config.speed_noise)
        speed = float(np.clip(limit * city._congestion[segment_id, slice_index] * noise, 5.0, limit))
        travel_seconds = city.network.segments[segment_id].length / max(speed, 1e-6) * 3600.0
        timestamps.append(timestamps[-1] + travel_seconds)
    mean_congestion = float(
        np.mean([city._congestion[s, city.time_axis.slice_of(t)] for s, t in zip(route, timestamps)])
    )
    return Trajectory(
        trajectory_id=trajectory_id,
        user_id=user.user_id,
        segments=list(route),
        timestamps=timestamps,
        label=int(mean_congestion < 0.75),
        metadata={"mean_congestion": mean_congestion},
    )


@contextlib.contextmanager
def _patched(patches):
    """Replace ``(owner, name, replacement)`` class or module attributes inside the block."""
    originals = [(owner, name, owner.__dict__[name]) for owner, name, _ in patches]
    try:
        for owner, name, replacement in patches:
            setattr(owner, name, replacement)
        yield
    finally:
        for owner, name, original in originals:
            setattr(owner, name, original)


@contextlib.contextmanager
def reference_city_build():
    """Build synthetic cities with the formulation the shared-graph build replaced.

    Inside the block every personalised route copies the networkx graph and
    overwrites its weights and is searched again on every trip, every hop
    distance is a networkx BFS per pair, every user's preferences are drawn
    one scalar per edge and every trip's speed noise one scalar per
    segment.  It is the
    baseline of the ``dataset`` benchmark and the oracle of the dataset
    equality tests: both builds must produce the same city bit for bit.
    """
    from repro.data.synthetic import SyntheticCity
    from repro.roadnet.network import RoadNetwork

    with _patched(
        [
            (RoadNetwork, "shortest_path", _reference_shortest_path),
            (RoadNetwork, "hop_distance", _reference_hop_distance),
            (SyntheticCity, "_route_preferences", _reference_route_preferences),
            (SyntheticCity, "_route_for", _reference_route_for),
            (SyntheticCity, "_simulate_trip", _reference_simulate_trip),
        ]
    ):
        yield


def _reference_encode_batch(self, sequences, time_feature_masks=None, traffic_override=None, static=None):
    """``encode_batch`` as the per-slice loop: one 2-D dynamic GAT, FFN and
    fusion pass per distinct slice, one row node per ST token."""
    if static is None:
        static = self.static_representations()
    traffic = self._normalised_traffic(traffic_override) if self.has_dynamic_encoder else None
    fused: Dict[int, Tensor] = {}
    outputs = []
    for index, sequence in enumerate(sequences):
        slices = [self.time_axis.slice_of(t) for t in sequence.timestamps]
        for slice_index in slices:
            if slice_index in fused:
                continue
            parts = [] if static is None else [static]
            if traffic is not None:
                window = Tensor(self._dynamic_window_features([slice_index], traffic)[0])
                parts.append(self.dynamic_ffn(self.dynamic_gat(window, self._adjacency)))
            h = parts[0] if len(parts) == 1 else Tensor.concat(parts, axis=-1)
            fused[slice_index] = self.fusion(h) if self.fusion is not None else h
        spatial = Tensor.stack(
            [fused[slice_index][int(segment)] for segment, slice_index in zip(sequence.segment_ids, slices)], axis=0
        )
        mask = None if time_feature_masks is None else time_feature_masks[index]
        temporal = Tensor(self._temporal_features(sequence, mask))
        outputs.append(self.token_mlp(Tensor.concat([spatial, temporal], axis=-1)))
    return outputs


def _reference_encode_partials(self, units, static_cache=None):
    """``encode_partials`` as one 1-D token-MLP call per distinct unit."""
    from repro.data.timeutils import TIMESTAMP_FEATURE_DIM, timestamp_features

    distinct: Dict = {}
    rows = np.asarray([distinct.setdefault(unit, len(distinct)) for unit in units], dtype=np.int64)
    hidden = self.config.hidden_dim
    tokens = []
    for segment_id, timestamp in distinct:
        parts = []
        if self.has_static_encoder:
            if segment_id is not None:
                static = static_cache if static_cache is not None else self.static_representations()
                parts.append(static[int(segment_id)])
            else:
                parts.append(Tensor(np.zeros(hidden)))
        if self.has_dynamic_encoder:
            parts.append(Tensor(np.zeros(hidden)))
        if timestamp is not None:
            time_features = timestamp_features(float(timestamp), self.time_axis.slice_seconds)
        else:
            time_features = np.zeros(TIMESTAMP_FEATURE_DIM)
        parts.append(Tensor(np.concatenate([time_features, np.zeros(1)])))
        tokens.append(self.token_mlp(Tensor.concat(parts, axis=-1)))
    return Tensor.stack(tokens, axis=0), rows


@contextlib.contextmanager
def reference_tokenizer():
    """Run the ST tokenizer with the formulation its batched pass replaced.

    Inside the block ``encode_batch`` computes every distinct time slice's
    dynamic GAT, FFN and fusion as its own 2-D pass (never from the memo),
    pulls each ST token's spatial row with its own ``__getitem__`` node and
    stacks them, ``encode_partials`` runs the token MLP once per distinct
    unit on a 1-D input, and every GAT head builds its attention from five
    primitive tape ops instead of the fused kernel.  It is the baseline of the
    ``tokenizer_grad`` benchmark and the oracle of the batched-tokenizer
    tests: forward values must match bit for bit, gradients up to
    summation order.
    """
    from repro.core.tokenizer import SpatioTemporalTokenizer
    from repro.nn import functional

    with _patched(
        [
            (SpatioTemporalTokenizer, "encode_batch", _reference_encode_batch),
            (SpatioTemporalTokenizer, "encode_partials", _reference_encode_partials),
            (functional, "graph_attention", functional.graph_attention_composed),
        ]
    ):
        yield


def _reference_kernel_patches() -> List:
    """``(owner, name, oracle)``: every fused-kernel dispatch point and the composed formulation it replaced."""
    from repro.core.tokenizer import SpatioTemporalTokenizer

    return [
        (F, "linear", F.linear_composed),
        (F, "gelu", Tensor.gelu),
        (F, "lora_linear", F.lora_linear_composed),
        (F, "cross_attention_rows", F.cross_attention_rows_composed),
        (F, "graph_attention", F.graph_attention_composed),
        (LayerNorm, "forward", lambda self, x: F.layer_norm_composed(x, self.weight, self.bias, eps=self.eps)),
        (MLP, "forward", MLP.forward_layerwise),
        (losses, "cross_entropy", losses.cross_entropy_composed),
        (attention, "attend", attention.attend_composed),
        # The module path under no_grad too, and no tokenizer memo read or filled.
        (GPT2Model, "_inference_plan", lambda self: None),
        (SpatioTemporalTokenizer, "_live_memo", lambda self: None),
    ]


@contextlib.contextmanager
def reference_kernels():
    """Run the engine on the composed formulations its fused kernels replaced.

    Inside the block every linear, GELU, unmerged LoRA layer, fusion row,
    GAT attention, layer norm, MLP, cross-entropy and multi-head attention
    records the multi-node tape (or, for GELU, the one-node
    :meth:`Tensor.gelu`) the engine originally recorded, ``GPT2Model``
    runs module by module under ``no_grad`` too, and the tokenizer's
    representation memo is neither read nor filled, so fused and composed
    answers never mix.  It is the baseline of the ``forward_backward``
    benchmark and the oracle of every fused == composed test.  It patches
    process-wide attributes: run nothing else concurrently.
    """
    with _patched(_reference_kernel_patches()):
        yield


def datasets_identical(first, second) -> bool:
    """Whether two city datasets hold the same trajectories, traffic and splits, bit for bit."""

    def trajectory_key(trajectory):
        return (
            trajectory.trajectory_id,
            trajectory.user_id,
            list(trajectory.segments),
            np.asarray(trajectory.timestamps, dtype=np.float64).tobytes(),
            trajectory.label,
            np.float64(trajectory.metadata["mean_congestion"]).tobytes(),
        )

    def traffic_bytes(dataset):
        return None if dataset.traffic_states is None else dataset.traffic_states.values.tobytes()

    return (
        [trajectory_key(t) for t in first.trajectories] == [trajectory_key(t) for t in second.trajectories]
        and traffic_bytes(first) == traffic_bytes(second)
        and first.splits == second.splits
    )


#: The city every repo-benchmark workload builds in its set-up.
_DATASET_PRESET = "xa_like"


def bench_dataset(config: PerfBenchConfig) -> Dict[str, float]:
    """Synthetic-city build on the shared road graph vs the graph-copy formulation.

    Times ``load_dataset("xa_like", use_cache=False)`` against the same call
    inside :func:`reference_city_build`.  ``identical`` checks that both
    produce the same trajectories, traffic states and splits bit for bit.
    """
    from repro.data.datasets import load_dataset

    def build():
        return load_dataset(_DATASET_PRESET, seed=config.seed, use_cache=False)

    def build_reference():
        with reference_city_build():
            return build()

    identical = datasets_identical(build(), build_reference())
    timing = _paired_best(build_reference, build, config.samples)
    reference_s, build_s = timing["baseline_s"], timing["optimised_s"]
    return {
        "reference_s": reference_s,
        "build_s": build_s,
        "speedup": reference_s / build_s if build_s > 0 else float("inf"),
        "identical": float(identical),
    }


def run_perfbench(
    config: Optional[PerfBenchConfig] = None,
    include: Optional[List[str]] = None,
) -> PerfBenchReport:
    """Run the engine micro-benchmarks and return the report.

    ``include`` selects a subset of ``{"tokenizer", "tokenizer_grad", "train_step", "inference",
    "forward_backward", "decode", "batched_rollout",
    "batched_recovery", "batched_traffic", "sharded_eval", "serving",
    "dataset"}``; the default runs all of them.
    """
    config = config or PerfBenchConfig()
    benches: Dict[str, Callable[[PerfBenchConfig], Dict[str, float]]] = {
        "tokenizer": bench_tokenizer,
        "tokenizer_grad": bench_tokenizer_grad,
        "train_step": bench_train_step,
        "inference": bench_inference,
        "forward_backward": bench_forward_backward,
        "decode": bench_decode,
        "batched_rollout": bench_batched_rollout,
        "batched_recovery": bench_batched_recovery,
        "batched_traffic": bench_batched_traffic,
        "sharded_eval": bench_sharded_eval,
        "serving": bench_serving,
        "dataset": bench_dataset,
    }
    selected = include if include is not None else list(benches)
    unknown = [name for name in selected if name not in benches]
    if unknown:
        raise ValueError(f"unknown benchmarks {unknown!r}; choose from {sorted(benches)}")
    report = PerfBenchReport(config=config)
    for name in selected:
        report.results[name] = benches[name](config)
    return report


def main(argv: Optional[List[str]] = None) -> int:
    """``python -m repro.eval.perfbench [output.json]``"""
    import sys

    argv = list(sys.argv[1:] if argv is None else argv)
    output = argv[0] if argv else "BENCH_engine.json"
    report = run_perfbench()
    path = write_report(report, output)
    for name, result in report.results.items():
        summary = ", ".join(f"{key}={value:.4g}" for key, value in sorted(result.items()))
        print(f"{name}: {summary}")
    print(f"wrote {path} (config {report.config.config_id})")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
