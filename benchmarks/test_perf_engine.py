"""Benchmark: engine micro-benchmarks (tokenizer memo, the batched grad-mode
tokenizer pass, a stage-1 training step, inference off the autograd tape, fused kernels, KV-cached
decode, batched rollout, batched single-pass
evaluation, sharded evaluation, continuous-batching serving, the
synthetic-city build).

Unlike the table/figure benchmarks this one trains nothing — it times the
engine fast paths against the formulations they replaced and writes
``BENCH_engine.json`` at the repository root so future changes have a perf
trajectory to regress against (compare two reports with
``scripts/bench_compare.py``; sections missing from an older report are
listed as skipped, not failed).  It is deliberately NOT marked ``slow``: it
runs in seconds and is the regression gate for the engine.
"""

from __future__ import annotations

import json
import multiprocessing
import os
from pathlib import Path

from repro.eval.perfbench import PerfBenchConfig, run_perfbench, write_report

REPO_ROOT = Path(__file__).resolve().parents[1]

#: Required speedups of the optimised engine paths over the legacy ones.
#: A warm tokenizer encode (representations served from the memo) against a
#: cold one that recomputes every GAT and fusion pass.
TOKENIZER_MEMO_TARGET = 1.5
#: The tokenizer part of a stage-1 step (grad mode, memo off, forward and
#: backward) with one batched pass over the batch's time slices, one gather
#: per sequence and one stacked partial-token pass, against the per-slice
#: loop with per-row nodes and the composed GAT attention it replaced
#: (measured 1.36-1.72x on a 2-vCPU VM).
TOKENIZER_GRAD_TARGET = 1.2
#: One stage-1 step on ``xa_like`` (forward and backward) with the fusion
#: computed for the rows the batch reads and one tape node per LoRA layer,
#: against the per-slice tokenizer loop that fuses every row of every slice
#: and the seven-node composed LoRA chain (measured 1.53-2.16x on a
#: 2-vCPU VM).
TRAIN_STEP_TARGET = 1.3
#: No-grad op outputs wrapped without re-validation against outputs built
#: by the validating constructor (a chain of cheap ops; measured 1.15-1.6x
#: on a 2-vCPU VM), and merged LoRA layers against the unmerged composition
#: in decode-sized forwards of the tiny backbone (measured 1.17-1.75x).
NOGRAD_TARGET = 1.1
LORA_MERGE_TARGET = 1.15
#: Decode-sized no-grad forwards of the tiny LoRA backbone run as one array
#: pass over the memoised weight plan against the same forwards run module
#: by module (measured 1.34-1.53x on a 2-vCPU VM).
BACKBONE_PLAN_TARGET = 1.2
#: Merged and unmerged LoRA outputs differ only in summation order (float64,
#: outputs of order 1; measured about 5e-15).
LORA_MERGE_MAX_ABS_DIFF = 1e-12
FORWARD_BACKWARD_TARGET = 3.0
DECODE_TARGET = 5.0
BATCHED_ROLLOUT_TARGET = 2.0
#: The batched single-pass evaluation paths (recovery, traffic
#: prediction/imputation) must not be slower than the per-case loops they
#: replaced; the win comes from assembling one right-padded prompt batch
#: instead of one prompt at a time.
BATCHED_RECOVERY_TARGET = 1.0
BATCHED_TRAFFIC_TARGET = 1.0
#: Continuous-batched serving must not be slower than serial per-request
#: execution of the same trace (typically well above 1 — the scheduler folds
#: every group of batch-compatible requests into one ``*_batch`` model call).
SERVING_TARGET = 1.0
#: Sharding needs cores (and cheap fork-based workers) to win; the gate only
#: applies on multi-core machines where the fork start method exists.
SHARDED_EVAL_TARGET = 2.0
SHARDED_EVAL_MIN_CPUS = 4
#: ``load_dataset("xa_like", use_cache=False)`` routed on the shared road
#: graph with memoised hop rows against the graph-copy-per-route build it
#: replaced (measured 3.5x on a 2-vCPU VM).
DATASET_TARGET = 2.0

EXPECTED_SECTIONS = {
    "tokenizer",
    "tokenizer_grad",
    "train_step",
    "inference",
    "forward_backward",
    "decode",
    "batched_rollout",
    "batched_recovery",
    "batched_traffic",
    "sharded_eval",
    "serving",
    "dataset",
}


def _gated_speedups(report) -> dict:
    """``{(section, ratio): target}`` for every gated speedup."""
    gates = {
        ("tokenizer", "memo_speedup"): TOKENIZER_MEMO_TARGET,
        ("tokenizer_grad", "speedup"): TOKENIZER_GRAD_TARGET,
        ("train_step", "speedup"): TRAIN_STEP_TARGET,
        ("inference", "nograd_speedup"): NOGRAD_TARGET,
        ("inference", "lora_merge_speedup"): LORA_MERGE_TARGET,
        ("inference", "backbone_speedup"): BACKBONE_PLAN_TARGET,
        ("forward_backward", "speedup"): FORWARD_BACKWARD_TARGET,
        ("decode", "speedup"): DECODE_TARGET,
        ("batched_rollout", "speedup"): BATCHED_ROLLOUT_TARGET,
        ("batched_recovery", "speedup"): BATCHED_RECOVERY_TARGET,
        ("batched_traffic", "speedup"): BATCHED_TRAFFIC_TARGET,
        ("serving", "speedup"): SERVING_TARGET,
        ("dataset", "speedup"): DATASET_TARGET,
    }
    if (os.cpu_count() or 1) >= SHARDED_EVAL_MIN_CPUS and "fork" in multiprocessing.get_all_start_methods():
        gates[("sharded_eval", "speedup")] = SHARDED_EVAL_TARGET
    return gates


def _speedup(report, gate) -> float:
    section, ratio = gate
    return report.results[section][ratio]


def test_perf_engine_report():
    report = run_perfbench()
    gates = _gated_speedups(report)
    if any(_speedup(report, gate) < target for gate, target in gates.items()):
        # Wall-clock on a shared core is noisy; one retry with more paired
        # samples tightens the best-of estimate before failing for real.
        report = run_perfbench(PerfBenchConfig(samples=16))

    path = write_report(report, REPO_ROOT / "BENCH_engine.json")
    written = json.loads(path.read_text())
    assert written["config_id"] == report.config.config_id
    assert set(written["results"]) == EXPECTED_SECTIONS

    for gate, target in gates.items():
        assert _speedup(report, gate) >= target, (gate, report.results[gate[0]])
    assert report.results["tokenizer"]["sequences_per_s"] > 0.0
    # Memoised representations must encode exactly the tokens a cold
    # tokenizer computes.
    assert report.results["tokenizer"]["identical"] == 1.0, report.results["tokenizer"]
    # The batched tokenizer pass must encode exactly the tokens of the
    # per-slice loop it replaced.
    assert report.results["tokenizer_grad"]["identical"] == 1.0, report.results["tokenizer_grad"]
    # A stage-1 step must give the reference step's ST tokens, LoRA-layer
    # outputs and loss bit for bit, in fewer tape nodes.
    train_step = report.results["train_step"]
    assert train_step["identical"] == 1.0, train_step
    assert train_step["tape_nodes"] < train_step["reference_tape_nodes"], train_step
    # No-grad forwards and ops hold exactly what the taped and re-validated
    # ones hold, the array pass exactly what the module path holds; merged
    # LoRA layers match the unmerged composition up to summation order.
    inference = report.results["inference"]
    assert inference["identical"] == 1.0, inference
    assert inference["max_abs_diff"] <= LORA_MERGE_MAX_ABS_DIFF, inference
    # The batched single-pass evaluation paths must return exactly what the
    # per-case loops return.
    assert report.results["batched_recovery"]["identical"] == 1.0, report.results["batched_recovery"]
    assert report.results["batched_traffic"]["identical"] == 1.0, report.results["batched_traffic"]
    # Sharded evaluation must merge to bit-identical results on any machine,
    # even where the parallel speedup gate does not apply.
    assert report.results["sharded_eval"]["identical"] == 1.0, report.results["sharded_eval"]
    # The shared-graph build must produce the reference city bit for bit.
    assert report.results["dataset"]["identical"] == 1.0, report.results["dataset"]
    # Continuous-batched serving must return exactly what serial per-request
    # execution returns, and its latency percentiles must be ordered.
    serving = report.results["serving"]
    assert serving["identical"] == 1.0, serving
    assert serving["latency_p50_s"] <= serving["latency_p95_s"] <= serving["latency_p99_s"], serving
    # The Poisson run must actually fold requests into batch calls — the
    # mixed trace includes recovery and traffic requests, so the fold metric
    # proves every request kind batches, not just next-hop rollouts.
    assert serving["folded"] > 0.0, serving
    # With no fault plan installed the resilience layer must be invisible:
    # a clean benchmark run sheds, retries, isolates, fails, respawns and
    # quarantines exactly nothing, and the load generator observes no
    # rejected/failed/timed-out requests.
    for counter in (
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
    ):
        assert serving[counter] == 0.0, (counter, serving)


def test_perf_config_hash_is_stable():
    first = PerfBenchConfig()
    second = PerfBenchConfig()
    assert first.config_id == second.config_id
    assert first.config_id != PerfBenchConfig(seq_len=64).config_id
