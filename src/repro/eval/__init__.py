"""Experiment harness regenerating every table and figure of the paper.

* :mod:`repro.eval.results` — result-table containers and text formatting.
* :mod:`repro.eval.harness` — benchmark profiles plus cached construction of
  trained BIGCity models and baselines (so several experiments can share one
  training run).
* :mod:`repro.eval.experiments` — one ``run_*`` function per table / figure.
* :mod:`repro.eval.registry` — the experiment index mapping each paper
  artefact (Table III, Fig. 5, ...) to its runner.
* :mod:`repro.eval.radar` — text rendering of the Figure 1 radar chart.
* :mod:`repro.eval.repeats` — repeated-run (mean ± std) aggregation.
* :mod:`repro.eval.report` — Markdown reproduction reports (paper vs measured).
* :mod:`repro.eval.stats` — paired significance tests for model comparisons.
* :mod:`repro.eval.perfbench` — engine micro-benchmarks (fused kernels,
  KV-cached decode) emitting config-hashed ``BENCH_engine.json`` reports;
  import it as ``repro.eval.perfbench`` (the package does not import it, so
  ``python -m repro.eval.perfbench`` runs the module once).
"""

from repro.eval.results import ResultTable
from repro.eval.harness import BenchmarkProfile, QUICK_PROFILE, FULL_PROFILE, get_profile, ExperimentContext
from repro.eval.radar import render_radar, radar_from_table
from repro.eval.repeats import AggregatedTable, aggregate_tables, repeat_experiment
from repro.eval.report import PaperReference, ReproductionReport
from repro.eval.stats import ComparisonResult, compare_models
from repro.eval.paper_values import PAPER_REFERENCES, build_reproduction_report, get_reference
from repro.eval.experiments import (
    run_table2_dataset_statistics,
    run_table3_trajectory_tasks,
    run_table4_recovery,
    run_table5_traffic_state,
    run_table6_generalization,
    run_table7_design_ablations,
    run_table8_cotraining_ablations,
    run_table9_efficiency,
    run_fig1_radar,
    run_fig5_lora_sensitivity,
    run_fig6_scalability,
)
from repro.eval.registry import EXPERIMENTS, get_experiment

__all__ = [
    "ResultTable",
    "BenchmarkProfile",
    "QUICK_PROFILE",
    "FULL_PROFILE",
    "get_profile",
    "ExperimentContext",
    "run_table2_dataset_statistics",
    "run_table3_trajectory_tasks",
    "run_table4_recovery",
    "run_table5_traffic_state",
    "run_table6_generalization",
    "run_table7_design_ablations",
    "run_table8_cotraining_ablations",
    "run_table9_efficiency",
    "run_fig1_radar",
    "run_fig5_lora_sensitivity",
    "run_fig6_scalability",
    "EXPERIMENTS",
    "get_experiment",
    "render_radar",
    "radar_from_table",
    "AggregatedTable",
    "aggregate_tables",
    "repeat_experiment",
    "PaperReference",
    "ReproductionReport",
    "ComparisonResult",
    "compare_models",
    "PAPER_REFERENCES",
    "get_reference",
    "build_reproduction_report",
]
