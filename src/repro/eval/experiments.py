"""Experiment runners: one function per table / figure of the paper.

Every runner takes an :class:`~repro.eval.harness.ExperimentContext` (which
caches trained models) plus a few knobs, and returns
:class:`~repro.eval.results.ResultTable` objects (or dictionaries of them)
whose rows mirror the corresponding paper artefact.  The benchmark files in
``benchmarks/`` call these runners and print the tables.
"""

from __future__ import annotations

import time
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.baselines.similarity import CLASSICAL_SIMILARITY_MEASURES, ClassicalSimilarity
from repro.core.prompts import TaskType
from repro.core.transfer import transfer_backbone
from repro.eval.harness import BenchmarkProfile, ExperimentContext
from repro.eval.results import ResultTable
from repro.tasks.classification import TrajectoryClassificationEvaluator
from repro.tasks.next_hop import NextHopEvaluator
from repro.tasks.recovery import TrajectoryRecoveryEvaluator
from repro.tasks.similarity import SimilaritySearchEvaluator
from repro.tasks.traffic import TrafficStateEvaluator
from repro.tasks.travel_time import TravelTimeEvaluator

BIGCITY_NAME = "bigcity"


# ----------------------------------------------------------------------
# Table II — dataset statistics
# ----------------------------------------------------------------------
def run_table2_dataset_statistics(context: ExperimentContext, dataset_names: Sequence[str] = ("bj_like", "xa_like", "cd_like")) -> ResultTable:
    """Dataset statistics in the spirit of Table II."""
    table = ResultTable(title="Table II — dataset statistics (synthetic substitutes)")
    for name in dataset_names:
        table.add_row(name, context.dataset(name).summary())
    return table


# ----------------------------------------------------------------------
# Table III — trajectory-based non-generative tasks
# ----------------------------------------------------------------------
def run_table3_trajectory_tasks(
    context: ExperimentContext,
    dataset_name: str = "xa_like",
    baselines: Optional[Sequence[str]] = None,
) -> Dict[str, ResultTable]:
    """Travel time estimation, classification, next-hop and similarity search."""
    profile = context.profile
    dataset = context.dataset(dataset_name)
    baselines = list(baselines if baselines is not None else profile.trajectory_baseline_names())
    classification_target = "user" if dataset.has_dynamic_features else "pattern"

    tte_eval = TravelTimeEvaluator(dataset, max_samples=profile.max_eval_samples, seed=profile.seed)
    clas_eval = TrajectoryClassificationEvaluator(
        dataset, target=classification_target, max_samples=profile.max_eval_samples, seed=profile.seed
    )
    next_eval = NextHopEvaluator(dataset, max_samples=profile.max_eval_samples, seed=profile.seed)
    simi_eval = SimilaritySearchEvaluator(dataset, num_queries=profile.similarity_queries, seed=profile.seed)

    tte_table = ResultTable(
        title=f"Table III ({dataset_name}) — travel time estimation",
        higher_is_better={"mae": False, "rmse": False, "mape": False},
    )
    clas_table = ResultTable(
        title=f"Table III ({dataset_name}) — trajectory classification",
        higher_is_better={key: True for key in ("acc", "f1", "auc", "micro_f1", "macro_f1", "macro_recall")},
    )
    next_table = ResultTable(
        title=f"Table III ({dataset_name}) — next hop prediction",
        higher_is_better={"acc": True, "mrr@5": True, "ndcg@5": True},
    )
    simi_table = ResultTable(
        title=f"Table III ({dataset_name}) — most similar search",
        higher_is_better={"hr@1": True, "hr@5": True, "hr@10": True, "mean_rank": False, "search_time_s": False},
    )

    for name in baselines:
        baseline = context.trajectory_baseline(name, dataset_name)
        tte_table.add_row(name, tte_eval.evaluate(baseline.predict_travel_time))
        clas_table.add_row(name, clas_eval.evaluate(baseline.predict_class, baseline.class_scores))
        next_table.add_row(name, next_eval.evaluate(baseline.predict_next_hop))
        simi_table.add_row(name, simi_eval.evaluate(embed_fn=baseline.embed))

    model = context.bigcity(dataset_name)
    tte_table.add_row(BIGCITY_NAME, tte_eval.evaluate(model.estimate_travel_time))
    clas_table.add_row(
        BIGCITY_NAME,
        clas_eval.evaluate(
            lambda ts: model.classify_trajectory(ts, target=classification_target),
            lambda ts: model.classification_scores(ts, target=classification_target),
        ),
    )
    next_table.add_row(BIGCITY_NAME, next_eval.evaluate(lambda ts: model.predict_next_hop(ts, top_k=10)))
    # The generative view of the same task: all prefixes decode through one
    # padded KV-cached batch (rollout_next_hops_batch) instead of per-sample.
    next_table.add_row(BIGCITY_NAME, next_eval.evaluate_rollout(model.rollout_next_hops_batch))
    simi_table.add_row(BIGCITY_NAME, simi_eval.evaluate(embed_fn=model.trajectory_embeddings))

    return {"travel_time": tte_table, "classification": clas_table, "next_hop": next_table, "similarity": simi_table}


# ----------------------------------------------------------------------
# Table IV — trajectory recovery
# ----------------------------------------------------------------------
def run_table4_recovery(
    context: ExperimentContext,
    dataset_name: str = "xa_like",
    mask_ratios: Sequence[float] = (0.85, 0.90, 0.95),
    baselines: Optional[Sequence[str]] = None,
) -> ResultTable:
    """Trajectory recovery accuracy / macro-F1 at several mask ratios."""
    profile = context.profile
    dataset = context.dataset(dataset_name)
    baselines = list(baselines if baselines is not None else profile.recovery_baseline_names())
    table = ResultTable(
        title=f"Table IV ({dataset_name}) — trajectory recovery",
        higher_is_better={},
    )
    evaluators = {
        ratio: TrajectoryRecoveryEvaluator(
            dataset, mask_ratio=ratio, max_samples=profile.recovery_eval_samples, seed=profile.seed
        )
        for ratio in mask_ratios
    }
    for metric_ratio in mask_ratios:
        table.higher_is_better[f"acc@{int(metric_ratio * 100)}"] = True
        table.higher_is_better[f"f1@{int(metric_ratio * 100)}"] = True

    def add_method(name: str, recover_fn) -> None:
        metrics: Dict[str, float] = {}
        for ratio, evaluator in evaluators.items():
            result = evaluator.evaluate(recover_fn)
            metrics[f"acc@{int(ratio * 100)}"] = result["accuracy"]
            metrics[f"f1@{int(ratio * 100)}"] = result["macro_f1"]
        table.add_row(name, metrics)

    for name in baselines:
        baseline = context.recovery_baseline(name, dataset_name)
        add_method(name, lambda trajectories, kept: [baseline.recover(*case) for case in zip(trajectories, kept)])

    model = context.bigcity(dataset_name)
    add_method(BIGCITY_NAME, model.recover_trajectories_batch)
    return table


# ----------------------------------------------------------------------
# Table V — traffic-state tasks
# ----------------------------------------------------------------------
def run_table5_traffic_state(
    context: ExperimentContext,
    dataset_name: str = "xa_like",
    history: int = 6,
    horizon: int = 6,
    baselines: Optional[Sequence[str]] = None,
) -> Dict[str, ResultTable]:
    """One-step / multi-step traffic-state prediction and imputation."""
    profile = context.profile
    dataset = context.dataset(dataset_name)
    baselines = list(baselines if baselines is not None else profile.traffic_baseline_names())
    evaluator = TrafficStateEvaluator(
        dataset, history=history, horizon=horizon, max_windows=profile.traffic_eval_windows, seed=profile.seed
    )
    lower = {"mae": False, "mape": False, "rmse": False}
    one_step = ResultTable(title=f"Table V ({dataset_name}) — one-step prediction", higher_is_better=lower)
    multi_step = ResultTable(title=f"Table V ({dataset_name}) — multi-step prediction", higher_is_better=lower)
    imputation = ResultTable(title=f"Table V ({dataset_name}) — traffic state imputation", higher_is_better=lower)

    for name in baselines:
        baseline = context.traffic_baseline(name, dataset_name, history=history, horizon=horizon)
        predict = lambda cases: [baseline.predict(*case) for case in cases]  # noqa: E731
        impute = lambda cases, override: [baseline.impute(*case, override) for case in cases]  # noqa: E731
        one_step.add_row(name, evaluator.evaluate_prediction(predict, horizon=1))
        multi_step.add_row(name, evaluator.evaluate_prediction(predict, horizon=horizon))
        imputation.add_row(name, evaluator.evaluate_imputation(impute, max_cases=profile.imputation_cases))

    model = context.bigcity(dataset_name)
    one_step.add_row(BIGCITY_NAME, evaluator.evaluate_prediction(model.predict_traffic_states_batch, horizon=1))
    multi_step.add_row(BIGCITY_NAME, evaluator.evaluate_prediction(model.predict_traffic_states_batch, horizon=horizon))
    imputation.add_row(
        BIGCITY_NAME,
        evaluator.evaluate_imputation(model.impute_traffic_states_batch, max_cases=profile.imputation_cases),
    )
    return {"one_step": one_step, "multi_step": multi_step, "imputation": imputation}


# ----------------------------------------------------------------------
# Table VI — cross-city generalisation
# ----------------------------------------------------------------------
def run_table6_generalization(
    context: ExperimentContext,
    source_dataset: str = "bj_like",
    target_datasets: Sequence[str] = ("xa_like", "cd_like"),
) -> ResultTable:
    """Transfer the backbone trained on the source city to the target cities."""
    profile = context.profile
    table = ResultTable(
        title=f"Table VI — generalisation from {source_dataset}",
        higher_is_better={
            "tte_mae": False,
            "tte_rmse": False,
            "next_acc": True,
            "next_mrr@5": True,
            "clas_micro_f1": True,
            "clas_macro_f1": True,
        },
    )
    source_model = context.bigcity(source_dataset)
    for target_name in target_datasets:
        dataset = context.dataset(target_name)
        classification_target = "user" if dataset.has_dynamic_features else "pattern"
        tte_eval = TravelTimeEvaluator(dataset, max_samples=profile.max_eval_samples, seed=profile.seed)
        next_eval = NextHopEvaluator(dataset, max_samples=profile.max_eval_samples, seed=profile.seed)
        clas_eval = TrajectoryClassificationEvaluator(
            dataset, target=classification_target, max_samples=profile.max_eval_samples, seed=profile.seed
        )

        def evaluate(model) -> Dict[str, float]:
            tte = tte_eval.evaluate(model.estimate_travel_time)
            nxt = next_eval.evaluate(lambda ts: model.predict_next_hop(ts, top_k=10))
            cls = clas_eval.evaluate(
                lambda ts: model.classify_trajectory(ts, target=classification_target),
                lambda ts: model.classification_scores(ts, target=classification_target),
            )
            return {
                "tte_mae": tte["mae"],
                "tte_rmse": tte["rmse"],
                "next_acc": nxt["acc"],
                "next_mrr@5": nxt["mrr@5"],
                "clas_micro_f1": cls.get("micro_f1", cls.get("acc", 0.0)),
                "clas_macro_f1": cls.get("macro_f1", cls.get("f1", 0.0)),
            }

        native = context.bigcity(target_name)
        table.add_row(f"{target_name}/native", evaluate(native))
        transferred, _ = transfer_backbone(
            source_model,
            dataset,
            training_config=profile.training_config(stage2_epochs=1),
            finetune_epochs=1,
        )
        table.add_row(f"{target_name}/transferred", evaluate(transferred))
    return table


# ----------------------------------------------------------------------
# Table VII — ablations on model designs
# ----------------------------------------------------------------------
ABLATION_VARIANTS: Dict[str, Dict] = {
    "full": {},
    "wo_dyn": {"use_dynamic_encoder": False},
    "wo_sta": {"use_static_encoder": False},
    "wo_fus": {"use_fusion": False},
    "wo_pro": {"use_prompts": False},
}


def run_table7_design_ablations(
    context: ExperimentContext,
    dataset_name: str = "xa_like",
    variants: Optional[Sequence[str]] = None,
) -> ResultTable:
    """Ablate the dynamic/static encoders, the fusion module and the prompts."""
    profile = context.profile
    dataset = context.dataset(dataset_name)
    variants = list(variants if variants is not None else ABLATION_VARIANTS)
    table = ResultTable(
        title=f"Table VII ({dataset_name}) — design ablations",
        higher_is_better={
            "tte_mae": False,
            "clas_macro_f1": True,
            "next_acc": True,
            "simi_hr@10": True,
            "reco_acc": True,
            "multi_step_mape": False,
        },
    )
    classification_target = "user" if dataset.has_dynamic_features else "pattern"
    tte_eval = TravelTimeEvaluator(dataset, max_samples=profile.max_eval_samples, seed=profile.seed)
    clas_eval = TrajectoryClassificationEvaluator(
        dataset, target=classification_target, max_samples=profile.max_eval_samples, seed=profile.seed
    )
    next_eval = NextHopEvaluator(dataset, max_samples=profile.max_eval_samples, seed=profile.seed)
    simi_eval = SimilaritySearchEvaluator(dataset, num_queries=profile.similarity_queries, seed=profile.seed)
    reco_eval = TrajectoryRecoveryEvaluator(
        dataset, mask_ratio=0.85, max_samples=profile.recovery_eval_samples, seed=profile.seed
    )
    traffic_eval = TrafficStateEvaluator(
        dataset, history=6, horizon=6, max_windows=profile.traffic_eval_windows, seed=profile.seed
    ) if dataset.has_dynamic_features else None

    # All ablation variants (including the full reference) share a shortened
    # stage-2 schedule so the sweep stays affordable; comparisons inside the
    # table remain apples-to-apples.
    shortened = {"stage2_epochs": max(2, profile.stage2_epochs // 2)}
    for variant in variants:
        overrides = ABLATION_VARIANTS[variant]
        model = context.bigcity(
            dataset_name,
            variant=f"ablation_{variant}",
            config_overrides=overrides,
            training_overrides=shortened,
        )
        reco_acc = reco_eval.evaluate(model.recover_trajectories_batch)["accuracy"]
        row = {
            "tte_mae": tte_eval.evaluate(model.estimate_travel_time)["mae"],
            "clas_macro_f1": clas_eval.evaluate(
                lambda ts: model.classify_trajectory(ts, target=classification_target)
            ).get("macro_f1", 0.0),
            "next_acc": next_eval.evaluate(lambda ts: model.predict_next_hop(ts, top_k=10))["acc"],
            "simi_hr@10": simi_eval.evaluate(embed_fn=model.trajectory_embeddings)["hr@10"],
            "reco_acc": reco_acc,
        }
        if traffic_eval is not None and model.config.use_dynamic_encoder:
            row["multi_step_mape"] = traffic_eval.evaluate_prediction(
                model.predict_traffic_states_batch, horizon=6
            )["mape"]
        table.add_row(variant, row)
    return table


# ----------------------------------------------------------------------
# Table VIII — ablations on multi-task co-training
# ----------------------------------------------------------------------
COTRAINING_TASK_SETS: Dict[str, Tuple[TaskType, ...]] = {
    "next_only": (TaskType.NEXT_HOP,),
    "tte_only": (TaskType.TRAVEL_TIME,),
    "ms_only": (TaskType.TRAFFIC_MULTI_STEP,),
    "ms+next": (TaskType.TRAFFIC_MULTI_STEP, TaskType.NEXT_HOP),
    "tte+next": (TaskType.TRAVEL_TIME, TaskType.NEXT_HOP),
    "all": (TaskType.NEXT_HOP, TaskType.TRAVEL_TIME, TaskType.TRAFFIC_MULTI_STEP),
}


def run_table8_cotraining_ablations(
    context: ExperimentContext,
    dataset_name: str = "xa_like",
    task_sets: Optional[Sequence[str]] = None,
) -> ResultTable:
    """Co-train on subsets of {next hop, TTE, multi-step} and compare."""
    profile = context.profile
    dataset = context.dataset(dataset_name)
    task_sets = list(task_sets if task_sets is not None else COTRAINING_TASK_SETS)
    table = ResultTable(
        title=f"Table VIII ({dataset_name}) — multi-task co-training ablation",
        higher_is_better={"next_acc": True, "tte_mae": False, "ms_mape": False},
    )
    next_eval = NextHopEvaluator(dataset, max_samples=profile.max_eval_samples, seed=profile.seed)
    tte_eval = TravelTimeEvaluator(dataset, max_samples=profile.max_eval_samples, seed=profile.seed)
    traffic_eval = TrafficStateEvaluator(
        dataset, history=6, horizon=6, max_windows=profile.traffic_eval_windows, seed=profile.seed
    ) if dataset.has_dynamic_features else None

    shortened = {"stage2_epochs": max(2, profile.stage2_epochs // 2)}
    for set_name in task_sets:
        tasks = COTRAINING_TASK_SETS[set_name]
        model = context.bigcity(
            dataset_name,
            variant=f"cotrain_{set_name}",
            tasks=tasks,
            training_overrides=shortened,
        )
        row: Dict[str, float] = {}
        if TaskType.NEXT_HOP in tasks:
            row["next_acc"] = next_eval.evaluate(lambda ts: model.predict_next_hop(ts, top_k=10))["acc"]
        if TaskType.TRAVEL_TIME in tasks:
            row["tte_mae"] = tte_eval.evaluate(model.estimate_travel_time)["mae"]
        if TaskType.TRAFFIC_MULTI_STEP in tasks and traffic_eval is not None:
            row["ms_mape"] = traffic_eval.evaluate_prediction(model.predict_traffic_states_batch, horizon=6)["mape"]
        table.add_row(set_name, row)
    return table


# ----------------------------------------------------------------------
# Table IX — training efficiency
# ----------------------------------------------------------------------
def run_table9_efficiency(
    context: ExperimentContext,
    dataset_name: str = "xa_like",
    baselines: Sequence[str] = ("traj2vec", "toast", "start"),
) -> ResultTable:
    """Parameter footprint and per-epoch training time of BIGCity vs two-stage baselines."""
    profile = context.profile
    dataset = context.dataset(dataset_name)
    table = ResultTable(
        title=f"Table IX ({dataset_name}) — efficiency",
        higher_is_better={
            "parameters": False,
            "trainable_parameters": False,
            "stage1_s_per_epoch": False,
            "stage2_s_per_epoch": False,
        },
    )
    for name in baselines:
        baseline = context.trajectory_baseline(name, dataset_name)
        start = time.perf_counter()
        baseline.pretrain(epochs=1)
        stage1_time = time.perf_counter() - start
        start = time.perf_counter()
        baseline.fit_travel_time(epochs=1)
        stage2_time = time.perf_counter() - start
        table.add_row(
            name,
            {
                "parameters": baseline.num_parameters(),
                "trainable_parameters": baseline.num_parameters(trainable_only=True),
                "stage1_s_per_epoch": stage1_time,
                "stage2_s_per_epoch": stage2_time,
            },
        )

    model = context.bigcity(dataset_name)
    logs = context.bigcity_logs(dataset_name)
    stage1_logs = logs.get("stage1", [])
    stage2_logs = logs.get("stage2", [])
    summary = model.parameter_summary()
    table.add_row(
        BIGCITY_NAME,
        {
            "parameters": summary["total"],
            "trainable_parameters": summary["trainable"],
            "stage1_s_per_epoch": float(np.mean([log.seconds for log in stage1_logs])) if stage1_logs else 0.0,
            "stage2_s_per_epoch": float(np.mean([log.seconds for log in stage2_logs])) if stage2_logs else 0.0,
        },
    )
    return table


# ----------------------------------------------------------------------
# Figure 1 — task radar chart
# ----------------------------------------------------------------------
def run_fig1_radar(context: ExperimentContext, dataset_name: str = "xa_like") -> ResultTable:
    """Normalised per-task score of BIGCity against the best baseline.

    Values are BIGCity's score divided by the best baseline score for
    higher-is-better metrics (and inverted for errors), so a value above 1.0
    means BIGCity wins that axis of the radar chart.
    """
    tables = run_table3_trajectory_tasks(context, dataset_name)
    recovery = run_table4_recovery(context, dataset_name, mask_ratios=(0.85,))
    dataset = context.dataset(dataset_name)
    axes: Dict[str, float] = {}

    def relative(table: ResultTable, metric: str) -> float:
        bigcity_value = table.value(BIGCITY_NAME, metric)
        baseline_values = [
            row[metric] for model, row in table.rows.items() if model != BIGCITY_NAME and metric in row
        ]
        if bigcity_value is None or not baseline_values:
            return 1.0
        higher = table.higher_is_better.get(metric, True)
        best_baseline = max(baseline_values) if higher else min(baseline_values)
        if higher:
            return bigcity_value / max(best_baseline, 1e-9)
        return best_baseline / max(bigcity_value, 1e-9)

    axes["travel_time"] = relative(tables["travel_time"], "mae")
    clas_metric = "macro_f1" if dataset.has_dynamic_features else "f1"
    axes["classification"] = relative(tables["classification"], clas_metric)
    axes["next_hop"] = relative(tables["next_hop"], "acc")
    axes["similarity"] = relative(tables["similarity"], "hr@5")
    axes["recovery"] = relative(recovery, "acc@85")
    if dataset.has_dynamic_features:
        traffic = run_table5_traffic_state(context, dataset_name)
        axes["one_step"] = relative(traffic["one_step"], "mae")
        axes["multi_step"] = relative(traffic["multi_step"], "mae")
        axes["imputation"] = relative(traffic["imputation"], "mae")

    table = ResultTable(title=f"Figure 1 ({dataset_name}) — radar chart (BIGCity / best baseline)")
    table.add_row(BIGCITY_NAME, axes)
    return table


# ----------------------------------------------------------------------
# Figure 5 — LoRA parameter sensitivity
# ----------------------------------------------------------------------
def run_fig5_lora_sensitivity(
    context: ExperimentContext,
    dataset_name: str = "xa_like",
    ranks: Sequence[int] = (4, 8, 16),
    coverages: Sequence[float] = (1.0, 0.5),
) -> ResultTable:
    """Sweep the LoRA rank ``r`` and module coverage ``n`` (Fig. 5)."""
    profile = context.profile
    dataset = context.dataset(dataset_name)
    table = ResultTable(
        title=f"Figure 5 ({dataset_name}) — LoRA sensitivity",
        higher_is_better={"tte_mae": False, "tte_rmse": False, "next_acc": True, "next_mrr@5": True, "simi_hr@1": True, "simi_hr@5": True},
    )
    tte_eval = TravelTimeEvaluator(dataset, max_samples=profile.max_eval_samples, seed=profile.seed)
    next_eval = NextHopEvaluator(dataset, max_samples=profile.max_eval_samples, seed=profile.seed)
    simi_eval = SimilaritySearchEvaluator(dataset, num_queries=profile.similarity_queries, seed=profile.seed)

    shortened = {"stage2_epochs": max(2, profile.stage2_epochs // 2)}
    for coverage in coverages:
        for rank in ranks:
            variant = f"lora_r{rank}_n{coverage:g}"
            model = context.bigcity(
                dataset_name,
                variant=variant,
                config_overrides={"lora_rank": rank, "lora_coverage": coverage},
                training_overrides=shortened,
            )
            tte = tte_eval.evaluate(model.estimate_travel_time)
            nxt = next_eval.evaluate(lambda ts: model.predict_next_hop(ts, top_k=10))
            simi = simi_eval.evaluate(embed_fn=model.trajectory_embeddings)
            table.add_row(
                variant,
                {
                    "tte_mae": tte["mae"],
                    "tte_rmse": tte["rmse"],
                    "next_acc": nxt["acc"],
                    "next_mrr@5": nxt["mrr@5"],
                    "simi_hr@1": simi["hr@1"],
                    "simi_hr@5": simi["hr@5"],
                },
            )
    return table


# ----------------------------------------------------------------------
# Figure 6 — efficiency and scalability
# ----------------------------------------------------------------------
def run_fig6_scalability(
    context: ExperimentContext,
    dataset_name: str = "xa_like",
    database_sizes: Sequence[int] = (10, 40, 80),
    embedding_batch_sizes: Sequence[int] = (50, 100, 200),
    classical_measures: Sequence[str] = ("dtw", "lcss", "frechet", "edr"),
    embedding_baselines: Sequence[str] = ("toast", "start"),
) -> Dict[str, ResultTable]:
    """Inference time vs data size (Fig. 6a) and search scalability (Fig. 6b/c)."""
    profile = context.profile
    dataset = context.dataset(dataset_name)
    model = context.bigcity(dataset_name)

    # --- Fig. 6a: representation/inference time as the input grows ------------
    inference = ResultTable(
        title=f"Figure 6a ({dataset_name}) — inference time vs input size (seconds)",
        higher_is_better={},
    )
    pool = dataset.trajectories
    for size in embedding_batch_sizes:
        inference.higher_is_better[f"n={size}"] = False
    rows: Dict[str, Dict[str, float]] = {BIGCITY_NAME: {}}
    for name in embedding_baselines:
        rows[name] = {}
    for size in embedding_batch_sizes:
        sample = [pool[i % len(pool)] for i in range(size)]
        start = time.perf_counter()
        model.trajectory_embeddings(sample)
        rows[BIGCITY_NAME][f"n={size}"] = time.perf_counter() - start
        for name in embedding_baselines:
            baseline = context.trajectory_baseline(name, dataset_name)
            start = time.perf_counter()
            baseline.embed(sample)
            rows[name][f"n={size}"] = time.perf_counter() - start
    for name, metrics in rows.items():
        inference.add_row(name, metrics)

    # --- Fig. 6b/c: search time and mean rank as the database grows -----------
    search_time = ResultTable(
        title=f"Figure 6b ({dataset_name}) — similarity search time (seconds)", higher_is_better={}
    )
    mean_rank = ResultTable(
        title=f"Figure 6c ({dataset_name}) — similarity search mean rank", higher_is_better={}
    )
    for size in database_sizes:
        search_time.higher_is_better[f"db={size}"] = False
        mean_rank.higher_is_better[f"db={size}"] = False

    methods: Dict[str, Dict[str, float]] = {}
    for size in database_sizes:
        num_queries = max(4, size // 10)
        extra_needed = max(size - num_queries, 0)
        extra = [pool[i % len(pool)] for i in range(extra_needed)]
        evaluator = SimilaritySearchEvaluator(
            dataset, num_queries=num_queries, seed=profile.seed, extra_database=extra
        )
        candidates = {BIGCITY_NAME: {"embed_fn": model.trajectory_embeddings}}
        for name in embedding_baselines:
            candidates[name] = {"embed_fn": context.trajectory_baseline(name, dataset_name).embed}
        for measure in classical_measures:
            candidates[measure] = {"distance_fn": ClassicalSimilarity(dataset.network, measure)}
        for method, kwargs in candidates.items():
            result = evaluator.evaluate(**kwargs)
            methods.setdefault(method, {})[f"db={size}"] = result["search_time_s"]
            methods.setdefault(f"{method}__rank", {})[f"db={size}"] = result["mean_rank"]
    for method in list(methods):
        if method.endswith("__rank"):
            mean_rank.add_row(method[: -len("__rank")], methods[method])
        else:
            search_time.add_row(method, methods[method])

    return {"inference_time": inference, "search_time": search_time, "mean_rank": mean_rank}
