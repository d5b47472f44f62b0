"""Command-line interface for the BIGCity reproduction.

The CLI covers the day-to-day entry points a user of the library needs
without writing Python:

``repro datasets``
    Print Table-II-style statistics of the built-in synthetic city presets.

``repro train``
    Run the two-stage training procedure on one preset and (optionally) save
    the resulting model weights.

``repro evaluate``
    Train (or load) a model and score it on the trajectory/traffic tasks.

``repro experiment``
    Regenerate one of the paper's tables or figures through the experiment
    registry (the same runners the benchmark suite uses).

``repro radar``
    Render the Figure-1 radar chart as text.

``repro serve``
    Start the continuous-batching inference service over a warm model pool
    and answer JSON-line requests from stdin.

``repro loadgen``
    Run the synthetic open-loop load generator against the service and
    print serving metrics (requests/s, latency percentiles, occupancy).

All commands are deterministic given ``--seed`` and run on CPU in minutes
with the default ``quick`` profile.
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from pathlib import Path
from typing import Dict, List, Optional, Sequence

from repro.core.config import BIGCityConfig
from repro.core.training import TrainingConfig, train_bigcity
from repro.data.datasets import DATASET_PRESETS, load_dataset
from repro.eval.harness import ExperimentContext, get_profile
from repro.eval.radar import radar_from_table
from repro.eval.registry import EXPERIMENTS, get_experiment
from repro.eval.results import ResultTable
from repro.nn.serialization import load_state_dict, save_state_dict
from repro.tasks.classification import TrajectoryClassificationEvaluator
from repro.tasks.next_hop import NextHopEvaluator
from repro.tasks.similarity import SimilaritySearchEvaluator
from repro.tasks.travel_time import TravelTimeEvaluator

__all__ = ["build_parser", "main"]


# ----------------------------------------------------------------------
# Helpers
# ----------------------------------------------------------------------
def _model_config(size: str, seed: int) -> BIGCityConfig:
    if size == "tiny":
        return BIGCityConfig.tiny(seed=seed)
    if size == "small":
        return BIGCityConfig.small(seed=seed)
    if size == "default":
        return BIGCityConfig(seed=seed)
    raise ValueError(f"unknown model size {size!r}")


def _print(text: str, stream=None) -> None:
    print(text, file=stream or sys.stdout)


def _tables_from_result(result) -> List[ResultTable]:
    if isinstance(result, ResultTable):
        return [result]
    if isinstance(result, dict):
        tables: List[ResultTable] = []
        for value in result.values():
            tables.extend(_tables_from_result(value))
        return tables
    raise TypeError(f"experiment runner returned unsupported type {type(result)!r}")


# ----------------------------------------------------------------------
# Commands
# ----------------------------------------------------------------------
def cmd_datasets(args: argparse.Namespace) -> int:
    names = args.names or sorted(DATASET_PRESETS)
    table = ResultTable(title="Dataset statistics (Table II analogue)")
    for name in names:
        dataset = load_dataset(name, seed=args.seed)
        table.add_row(name, dataset.summary())
    if args.json:
        _print(table.to_json())
    else:
        _print(table.to_text())
    return 0


def cmd_train(args: argparse.Namespace) -> int:
    dataset = load_dataset(args.dataset, seed=args.seed)
    model_config = _model_config(args.size, args.seed)
    training_config = TrainingConfig(
        stage1_epochs=args.stage1_epochs,
        stage2_epochs=args.stage2_epochs,
        batch_size=args.batch_size,
        seed=args.seed,
    )
    started = time.time()
    model, logs = train_bigcity(dataset, model_config=model_config, training_config=training_config)
    elapsed = time.time() - started
    for stage, stage_logs in logs.items():
        for log in stage_logs:
            _print(
                f"[{stage}] epoch {log.epoch}: loss={log.loss:.4f} "
                f"grad_norm mean={log.grad_norm_mean:.3f} max={log.grad_norm_max:.3f}"
            )
    summary = model.parameter_summary()
    _print(f"trained BIGCity on {args.dataset} in {elapsed:.1f}s "
           f"({summary['total']} parameters, {summary['trainable']} trainable)")
    if args.output:
        path = save_state_dict(model, args.output, metadata={"dataset": args.dataset, "size": args.size})
        _print(f"saved model weights to {path}")
    return 0


def cmd_evaluate(args: argparse.Namespace) -> int:
    dataset = load_dataset(args.dataset, seed=args.seed)
    model_config = _model_config(args.size, args.seed)
    training_config = TrainingConfig(
        stage1_epochs=args.stage1_epochs,
        stage2_epochs=args.stage2_epochs,
        seed=args.seed,
    )
    if args.checkpoint:
        from repro.core.model import BIGCity

        model = BIGCity.from_dataset(dataset, config=model_config)
        load_state_dict(model, args.checkpoint)
        model.eval()
    else:
        model, _ = train_bigcity(dataset, model_config=model_config, training_config=training_config)

    table = ResultTable(
        title=f"BIGCity evaluation on {args.dataset}",
        higher_is_better={"tte_mae": False, "tte_rmse": False, "next_acc": True, "next_mrr@5": True, "simi_hr@5": True},
    )
    metrics: Dict[str, float] = {}
    tte = TravelTimeEvaluator(dataset, max_samples=args.max_samples, seed=args.seed)
    tte_metrics = tte.evaluate(model.estimate_travel_time)
    metrics["tte_mae"] = tte_metrics["mae"]
    metrics["tte_rmse"] = tte_metrics["rmse"]
    nxt = NextHopEvaluator(dataset, max_samples=args.max_samples, seed=args.seed)
    next_metrics = nxt.evaluate(lambda ts: model.predict_next_hop(ts, top_k=10))
    metrics["next_acc"] = next_metrics["acc"]
    metrics["next_mrr@5"] = next_metrics["mrr@5"]
    simi = SimilaritySearchEvaluator(dataset, num_queries=min(args.max_samples, 24), seed=args.seed)
    simi_metrics = simi.evaluate(embed_fn=model.trajectory_embeddings)
    metrics["simi_hr@5"] = simi_metrics["hr@5"]
    target = "user" if dataset.has_dynamic_features else "pattern"
    clas = TrajectoryClassificationEvaluator(dataset, target=target, max_samples=args.max_samples, seed=args.seed)
    clas_metrics = clas.evaluate(
        lambda ts: model.classify_trajectory(ts, target=target),
        lambda ts: model.classification_scores(ts, target=target),
    )
    for key, value in clas_metrics.items():
        metrics[f"clas_{key}"] = value
    table.add_row("bigcity", metrics)
    if args.json:
        _print(table.to_json())
    else:
        _print(table.to_text())
    return 0


def cmd_experiment(args: argparse.Namespace) -> int:
    if args.list:
        for name, spec in EXPERIMENTS.items():
            _print(f"{name:10s} {spec.paper_reference:12s} {spec.description}")
        return 0
    names = list(args.name or [])
    if not names:
        _print("an experiment name is required (see --list)", stream=sys.stderr)
        return 2

    from repro.eval.parallel import resolve_workers
    from repro.eval.registry import run_registered

    workers = resolve_workers(args.workers)
    if len(names) == 1 and workers <= 1:
        # In-process path: shares one ExperimentContext (model cache) exactly
        # as before parallel evaluation existed.
        spec = get_experiment(names[0])
        context = ExperimentContext(get_profile(args.profile))
        results = {names[0]: spec.runner(context)}
    else:
        # Sharded path: unknown ids are rejected up front, then one seeded
        # worker process runs each experiment unit and the results merge
        # deterministically (see repro.eval.parallel).
        results = run_registered(names, profile_name=args.profile, num_workers=workers)
    payload = []
    for name in names:
        for table in _tables_from_result(results[name]):
            _print(table.to_text())
            _print("")
            payload.append(table.to_dict())
    if args.output:
        path = Path(args.output)
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(json.dumps(payload, indent=2), encoding="utf-8")
        _print(f"saved experiment output to {path}")
    return 0


def _serving_pool(args: argparse.Namespace, dataset):
    """Build the warm model pool for ``serve``/``loadgen``.

    With ``--checkpoint`` the replicas are loaded straight from the
    archive; otherwise a model is trained with the quick schedule, saved to
    a temporary checkpoint, and the pool warm-loads that — so the serving
    path through :mod:`repro.core.checkpoints` is always the one exercised.
    """
    import tempfile

    from repro.core.checkpoints import save_bigcity
    from repro.serving.pool import ModelPool

    if args.checkpoint:
        return ModelPool.from_checkpoint(args.checkpoint, dataset, replicas=args.replicas)
    model_config = _model_config(args.size, args.seed)
    training_config = TrainingConfig(
        stage1_epochs=args.stage1_epochs,
        stage2_epochs=args.stage2_epochs,
        seed=args.seed,
    )
    _print(f"no --checkpoint given; training a {args.size} model first", stream=sys.stderr)
    model, _ = train_bigcity(dataset, model_config=model_config, training_config=training_config)
    with tempfile.TemporaryDirectory() as tmp:
        path = save_bigcity(model, Path(tmp) / "serve.npz", dataset_name=dataset.name)
        return ModelPool.from_checkpoint(path, dataset, replicas=args.replicas)


def _request_from_payload(payload: Dict, dataset):
    """Decode one JSON-line request of the ``repro serve`` protocol."""
    from repro.serving.requests import (
        NextHopRequest,
        RecoveryRequest,
        TrafficImputationRequest,
        TrafficPredictionRequest,
    )

    task = payload.get("task", "next_hop")
    deadline_s = payload.get("deadline_s")
    deadline_s = None if deadline_s is None else float(deadline_s)
    if task in ("next_hop", "recovery"):
        if "trajectory" in payload:
            trajectories = dataset.test_trajectories or dataset.trajectories
            trajectory = trajectories[int(payload["trajectory"]) % len(trajectories)]
        else:
            from repro.data.trajectory import Trajectory

            trajectory = Trajectory(
                trajectory_id=int(payload.get("trajectory_id", -1)),
                user_id=int(payload.get("user_id", 0)),
                segments=[int(s) for s in payload["segments"]],
                timestamps=[float(t) for t in payload["timestamps"]],
            )
        if task == "next_hop":
            return NextHopRequest(
                trajectory=trajectory,
                steps=int(payload.get("steps", 1)),
                deadline_s=deadline_s,
            )
        kept = payload.get("kept", list(range(0, len(trajectory), 2)) + [len(trajectory) - 1])
        # negative indices count from the end, so clients can say "kept": [0, 2, -1]
        # without knowing the length of a split-referenced trajectory
        return RecoveryRequest(
            trajectory=trajectory,
            kept_indices=tuple(sorted({int(i) % len(trajectory) for i in kept})),
            deadline_s=deadline_s,
        )
    if task == "traffic_prediction":
        return TrafficPredictionRequest(
            segment_id=int(payload["segment"]),
            start_slice=int(payload.get("start", 0)),
            history=int(payload.get("history", 4)),
            horizon=int(payload.get("horizon", 1)),
            deadline_s=deadline_s,
        )
    if task == "traffic_imputation":
        return TrafficImputationRequest(
            segment_id=int(payload["segment"]),
            start_slice=int(payload.get("start", 0)),
            num_slices=int(payload.get("num_slices", 6)),
            masked_positions=tuple(int(i) for i in payload.get("masked", (1,))),
            deadline_s=deadline_s,
        )
    raise ValueError(f"unknown task {task!r}")


def cmd_serve(args: argparse.Namespace) -> int:
    """Serve JSON-line requests from stdin through the batching scheduler.

    Results are printed to stdout as JSON lines **in submission order** (a
    line is flushed as soon as every earlier request has finished), so a
    piped burst of requests is folded into continuous batches while the
    output stays aligned with the input.
    """
    import numpy as np

    from repro.serving.service import ServingConfig, ServingService

    dataset = load_dataset(args.dataset, seed=args.seed)
    pool = _serving_pool(args, dataset)
    config = ServingConfig(
        max_batch_size=args.max_batch_size,
        max_queue_depth=args.max_queue_depth,
        admission_policy=args.admission_policy,
    )
    service = ServingService(pool, config)
    service.start()
    _print(
        f"serving {args.dataset} with {pool.size} warm replica(s), "
        f"max batch {config.max_batch_size} (warm-up {pool.warmup_s:.2f}s); "
        "reading JSON requests from stdin",
        stream=sys.stderr,
    )

    def emit(handle) -> None:
        try:
            result = handle.result(timeout=args.request_timeout)
            value = result.tolist() if isinstance(result, np.ndarray) else result
            _print(json.dumps({
                "task": handle.request.kind,
                "result": value,
                "latency_s": round(handle.latency_s, 6),
                "batch_size": handle.batch_size,
            }))
        except Exception as error:  # noqa: BLE001 - reported on the wire
            _print(json.dumps({"error": str(error)}))

    pending = []
    stream = open(args.input, "r", encoding="utf-8") if args.input else sys.stdin
    try:
        for line in stream:
            line = line.strip()
            if not line:
                continue
            try:
                request = _request_from_payload(json.loads(line), dataset)
                pending.append(service.submit(request))
            except Exception as error:  # noqa: BLE001 - reported on the wire
                _print(json.dumps({"error": str(error)}))
                continue
            while pending and pending[0].done():
                emit(pending.pop(0))
        for handle in pending:
            emit(handle)
    finally:
        if stream is not sys.stdin:
            stream.close()
        service.stop()
    summary = service.metrics.summary()
    _print(
        f"served {summary['requests']:.0f} request(s) at "
        f"{summary['requests_per_s']:.1f} req/s, p50 {summary['latency_p50_s'] * 1e3:.1f}ms, "
        f"mean batch {summary['batch_occupancy_mean']:.2f}",
        stream=sys.stderr,
    )
    failure_counters = {
        name: summary[name]
        for name in ("shed", "failed", "retried", "respawned", "quarantined", "rejected")
        if summary.get(name)
    }
    if failure_counters:
        _print(
            "failure counters: "
            + ", ".join(f"{name}={count:.0f}" for name, count in sorted(failure_counters.items())),
            stream=sys.stderr,
        )
    return 0


def cmd_loadgen(args: argparse.Namespace) -> int:
    """Open-loop load benchmark: serial baseline vs continuous batching."""
    from repro.serving.loadgen import LoadGenConfig, run_loadgen
    from repro.serving.service import ServingConfig

    dataset = load_dataset(args.dataset, seed=args.seed)
    pool = _serving_pool(args, dataset)
    load_config = LoadGenConfig(
        num_requests=args.num_requests,
        rate_hz=None if args.rate <= 0 else args.rate,
        steps=args.steps,
        seed=args.seed,
    )
    serving_config = ServingConfig(
        max_batch_size=args.max_batch_size,
        max_queue_depth=args.max_queue_depth,
    )
    # run_loadgen borrows one replica for the serial baseline and returns
    # it before starting the service over the full pool.
    result = run_loadgen(None, dataset, load_config, serving_config, pool=pool)
    table = ResultTable(title=f"serving load benchmark on {args.dataset}")
    table.add_row("serving", {k: v for k, v in sorted(result.items()) if not k.startswith("batch_occ_")})
    if args.json:
        _print(json.dumps(result, indent=2, sort_keys=True))
    else:
        _print(table.to_text())
        histogram = ", ".join(
            f"{key.removeprefix('batch_occ_')}: {value:.0f}"
            for key, value in sorted(result.items(), key=lambda kv: kv[0])
            if key.startswith("batch_occ_") and value
        )
        _print(f"batch-occupancy histogram (size: ticks): {histogram or 'empty'}")
    if args.output:
        Path(args.output).write_text(json.dumps(result, indent=2, sort_keys=True), encoding="utf-8")
        _print(f"saved load benchmark to {args.output}", stream=sys.stderr)
    if result["identical"] != 1.0:
        _print("ERROR: batched results diverged from serial execution", stream=sys.stderr)
        return 1
    if result.get("failure_rate", 0.0) > 0.0:
        _print(
            f"ERROR: {result['failure_rate']:.1%} of requests failed "
            f"(rejected {result.get('loadgen_rejected', 0):.0f}, "
            f"failed {result.get('loadgen_failed', 0):.0f}, "
            f"timed out {result.get('loadgen_timeouts', 0):.0f})",
            stream=sys.stderr,
        )
        return 1
    return 0


def cmd_radar(args: argparse.Namespace) -> int:
    from repro.eval.experiments import run_fig1_radar

    context = ExperimentContext(get_profile(args.profile))
    table = run_fig1_radar(context, args.dataset)
    _print(radar_from_table(table, width=args.width))
    return 0


# ----------------------------------------------------------------------
# Parser
# ----------------------------------------------------------------------
def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="BIGCity reproduction: universal trajectory + traffic-state model",
    )
    subparsers = parser.add_subparsers(dest="command")

    datasets = subparsers.add_parser("datasets", help="print statistics of the synthetic city presets")
    datasets.add_argument("--names", nargs="*", default=None, help="presets to include (default: all)")
    datasets.add_argument("--seed", type=int, default=0)
    datasets.add_argument("--json", action="store_true", help="emit JSON instead of a text table")
    datasets.set_defaults(func=cmd_datasets)

    train = subparsers.add_parser("train", help="run the two-stage training procedure")
    train.add_argument("--dataset", default="xa_like", choices=sorted(DATASET_PRESETS))
    train.add_argument("--size", default="tiny", choices=("tiny", "small", "default"))
    train.add_argument("--stage1-epochs", type=int, default=1)
    train.add_argument("--stage2-epochs", type=int, default=2)
    train.add_argument("--batch-size", type=int, default=8)
    train.add_argument("--seed", type=int, default=0)
    train.add_argument("--output", default=None, help="path to save the trained weights (.npz)")
    train.set_defaults(func=cmd_train)

    evaluate = subparsers.add_parser("evaluate", help="train (or load) a model and score it on the main tasks")
    evaluate.add_argument("--dataset", default="xa_like", choices=sorted(DATASET_PRESETS))
    evaluate.add_argument("--size", default="tiny", choices=("tiny", "small", "default"))
    evaluate.add_argument("--checkpoint", default=None, help="load weights instead of training")
    evaluate.add_argument("--stage1-epochs", type=int, default=1)
    evaluate.add_argument("--stage2-epochs", type=int, default=2)
    evaluate.add_argument("--max-samples", type=int, default=30)
    evaluate.add_argument("--seed", type=int, default=0)
    evaluate.add_argument("--json", action="store_true")
    evaluate.set_defaults(func=cmd_evaluate)

    experiment = subparsers.add_parser("experiment", help="regenerate paper tables/figures")
    experiment.add_argument("name", nargs="*", default=None, help="experiment id(s), e.g. table3 fig1")
    experiment.add_argument("--list", action="store_true", help="list registered experiments")
    experiment.add_argument("--profile", default=None, help="benchmark profile (quick/full/smoke)")
    experiment.add_argument("--output", default=None, help="save the result tables as JSON")
    experiment.add_argument(
        "--workers",
        type=int,
        default=None,
        help="shard experiments over N processes (default: $REPRO_EVAL_WORKERS or 1)",
    )
    experiment.set_defaults(func=cmd_experiment)

    def add_serving_arguments(sub) -> None:
        sub.add_argument("--dataset", default="xa_like", choices=sorted(DATASET_PRESETS))
        sub.add_argument("--size", default="tiny", choices=("tiny", "small", "default"))
        sub.add_argument("--checkpoint", default=None, help="warm the pool from this checkpoint instead of training")
        sub.add_argument("--stage1-epochs", type=int, default=1)
        sub.add_argument("--stage2-epochs", type=int, default=2)
        sub.add_argument("--replicas", type=int, default=1, help="warm model replicas in the pool")
        sub.add_argument("--max-batch-size", type=int, default=8)
        sub.add_argument("--max-queue-depth", type=int, default=64)
        sub.add_argument("--seed", type=int, default=0)

    serve = subparsers.add_parser(
        "serve", help="serve JSON-line inference requests with continuous batching"
    )
    add_serving_arguments(serve)
    serve.add_argument("--admission-policy", default="block", choices=("block", "reject"))
    serve.add_argument("--request-timeout", type=float, default=30.0, help="per-request result timeout (s)")
    serve.add_argument("--input", default=None, help="read JSON-line requests from this file instead of stdin")
    serve.set_defaults(func=cmd_serve)

    loadgen = subparsers.add_parser(
        "loadgen", help="open-loop load benchmark of the serving layer"
    )
    add_serving_arguments(loadgen)
    loadgen.add_argument("--num-requests", type=int, default=32)
    loadgen.add_argument(
        "--rate", type=float, default=40.0,
        help="Poisson arrival rate in req/s; <= 0 submits the whole trace as a backlog",
    )
    loadgen.add_argument("--steps", type=int, default=2, help="rollout depth of next-hop requests")
    loadgen.add_argument("--json", action="store_true")
    loadgen.add_argument("--output", default=None, help="save the metrics dict as JSON")
    loadgen.set_defaults(func=cmd_loadgen)

    radar = subparsers.add_parser("radar", help="render the Figure 1 radar chart as text")
    radar.add_argument("--dataset", default="xa_like", choices=sorted(DATASET_PRESETS))
    radar.add_argument("--profile", default=None)
    radar.add_argument("--width", type=int, default=40)
    radar.set_defaults(func=cmd_radar)

    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    if not getattr(args, "command", None):
        parser.print_help()
        return 2
    return args.func(args)


if __name__ == "__main__":  # pragma: no cover - exercised via `python -m repro`
    raise SystemExit(main())
