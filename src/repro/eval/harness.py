"""Shared infrastructure for the experiment runners.

A :class:`BenchmarkProfile` fixes every knob that trades fidelity for wall
clock time (training epochs, sample caps, number of baselines).  The default
``quick`` profile keeps the whole benchmark suite in the minutes range on a
laptop CPU; selecting the ``full`` profile via the ``REPRO_BENCH_PROFILE``
environment variable runs longer schedules.

:class:`ExperimentContext` caches trained models (BIGCity, its ablated
variants, every baseline) per dataset so that different tables can share one
training run — exactly like the paper evaluates one trained BIGCity across
all eight tasks.

To regenerate several experiments at once, shard them over worker processes
with :mod:`repro.eval.parallel` (``REPRO_EVAL_WORKERS`` sets the default
worker count; each worker gets its own seeded context and the merged results
are bit-for-bit identical to a serial run).
"""

from __future__ import annotations

import os
from dataclasses import dataclass, field, replace
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.baselines.recovery import RECOVERY_BASELINES, build_recovery_baseline
from repro.baselines.traffic import TRAFFIC_BASELINES, build_traffic_baseline
from repro.baselines.trajectory import TRAJECTORY_BASELINES, build_trajectory_baseline
from repro.core.config import BIGCityConfig
from repro.core.model import BIGCity
from repro.core.prompts import TaskType
from repro.core.training import MaskedReconstructionTrainer, PromptTuningTrainer, TrainingConfig
from repro.data.datasets import CityDataset, load_dataset


@dataclass(frozen=True)
class BenchmarkProfile:
    """Wall-clock / fidelity trade-off for the experiment harness."""

    name: str
    # BIGCity training
    stage1_epochs: int = 2
    stage2_epochs: int = 8
    batch_size: int = 8
    max_trajectories: Optional[int] = None
    traffic_sequences_per_epoch: int = 32
    hidden_dim: int = 32
    d_model: int = 64
    num_layers: int = 3
    # Baseline training
    baseline_pretrain_epochs: int = 2
    baseline_head_epochs: int = 6
    traffic_fit_windows: int = 32
    traffic_fit_epochs: int = 3
    recovery_fit_epochs: int = 2
    baseline_hidden_dim: int = 32
    # Evaluation sizes
    max_eval_samples: int = 40
    similarity_queries: int = 24
    traffic_eval_windows: int = 48
    recovery_eval_samples: int = 30
    imputation_cases: int = 24
    # Which baselines to include (None = all registered)
    trajectory_baselines: Optional[Tuple[str, ...]] = None
    traffic_baselines: Optional[Tuple[str, ...]] = None
    recovery_baselines: Optional[Tuple[str, ...]] = None
    seed: int = 0

    def trajectory_baseline_names(self) -> Tuple[str, ...]:
        return self.trajectory_baselines or tuple(sorted(TRAJECTORY_BASELINES))

    def traffic_baseline_names(self) -> Tuple[str, ...]:
        return self.traffic_baselines or tuple(sorted(TRAFFIC_BASELINES))

    def recovery_baseline_names(self) -> Tuple[str, ...]:
        return self.recovery_baselines or tuple(sorted(RECOVERY_BASELINES))

    def bigcity_config(self, **overrides) -> BIGCityConfig:
        config = BIGCityConfig(
            hidden_dim=self.hidden_dim,
            d_model=self.d_model,
            num_layers=self.num_layers,
            seed=self.seed,
        )
        return replace(config, **overrides) if overrides else config

    def training_config(self, **overrides) -> TrainingConfig:
        config = TrainingConfig(
            stage1_epochs=self.stage1_epochs,
            stage2_epochs=self.stage2_epochs,
            batch_size=self.batch_size,
            max_trajectories=self.max_trajectories,
            traffic_sequences_per_epoch=self.traffic_sequences_per_epoch,
            seed=self.seed,
        )
        return replace(config, **overrides) if overrides else config


QUICK_PROFILE = BenchmarkProfile(name="quick")

FULL_PROFILE = BenchmarkProfile(
    name="full",
    stage1_epochs=3,
    stage2_epochs=14,
    max_trajectories=None,
    traffic_sequences_per_epoch=64,
    baseline_pretrain_epochs=3,
    baseline_head_epochs=10,
    traffic_fit_windows=64,
    traffic_fit_epochs=5,
    recovery_fit_epochs=3,
    max_eval_samples=80,
    similarity_queries=48,
    traffic_eval_windows=96,
    recovery_eval_samples=60,
    imputation_cases=48,
)

#: A deliberately tiny profile for the unit/integration tests of the harness itself.
SMOKE_PROFILE = BenchmarkProfile(
    name="smoke",
    stage1_epochs=1,
    stage2_epochs=1,
    max_trajectories=24,
    traffic_sequences_per_epoch=6,
    hidden_dim=16,
    d_model=32,
    num_layers=2,
    baseline_pretrain_epochs=1,
    baseline_head_epochs=1,
    traffic_fit_windows=8,
    traffic_fit_epochs=1,
    recovery_fit_epochs=1,
    baseline_hidden_dim=16,
    max_eval_samples=10,
    similarity_queries=8,
    traffic_eval_windows=10,
    recovery_eval_samples=8,
    imputation_cases=6,
    trajectory_baselines=("traj2vec", "start"),
    traffic_baselines=("dcrnn", "gwnet"),
    recovery_baselines=("linear_hmm", "mtrajrec"),
)

_PROFILES = {"quick": QUICK_PROFILE, "full": FULL_PROFILE, "smoke": SMOKE_PROFILE}


def get_profile(name: Optional[str] = None) -> BenchmarkProfile:
    """Resolve a profile by name or from ``REPRO_BENCH_PROFILE`` (default quick)."""
    name = name or os.environ.get("REPRO_BENCH_PROFILE", "quick")
    if name not in _PROFILES:
        raise KeyError(f"unknown benchmark profile {name!r}; available: {sorted(_PROFILES)}")
    return _PROFILES[name]


class ExperimentContext:
    """Caches datasets and trained models shared across experiment runners."""

    def __init__(self, profile: Optional[BenchmarkProfile] = None) -> None:
        self.profile = profile or get_profile()
        self._datasets: Dict[str, CityDataset] = {}
        self._bigcity: Dict[Tuple[str, str], BIGCity] = {}
        self._bigcity_logs: Dict[Tuple[str, str], Dict] = {}
        self._trajectory_baselines: Dict[Tuple[str, str], object] = {}
        self._traffic_baselines: Dict[Tuple[str, str], object] = {}
        self._recovery_baselines: Dict[Tuple[str, str], object] = {}

    # ------------------------------------------------------------------
    def dataset(self, name: str) -> CityDataset:
        if name not in self._datasets:
            self._datasets[name] = load_dataset(name, seed=self.profile.seed)
        return self._datasets[name]

    # ------------------------------------------------------------------
    def bigcity(
        self,
        dataset_name: str,
        variant: str = "default",
        config_overrides: Optional[Dict] = None,
        training_overrides: Optional[Dict] = None,
        tasks: Optional[Sequence[TaskType]] = None,
    ) -> BIGCity:
        """Train (or fetch) a BIGCity model for a dataset and variant.

        ``variant`` names ablations / sweeps (e.g. ``"wo_dyn"``, ``"rank4"``)
        so they are cached independently of the default model.
        """
        key = (dataset_name, variant)
        if key in self._bigcity:
            return self._bigcity[key]
        dataset = self.dataset(dataset_name)
        config = self.profile.bigcity_config(**(config_overrides or {}))
        training = self.profile.training_config(**(training_overrides or {}))
        model = BIGCity.from_dataset(dataset, config=config)
        stage1 = MaskedReconstructionTrainer(model, dataset, training)
        stage1_logs = stage1.train()
        stage2 = PromptTuningTrainer(model, dataset, training, tasks=tasks)
        stage2_logs = stage2.train()
        model.eval()
        self._bigcity[key] = model
        self._bigcity_logs[key] = {"stage1": stage1_logs, "stage2": stage2_logs}
        return model

    def bigcity_logs(self, dataset_name: str, variant: str = "default") -> Dict:
        return self._bigcity_logs.get((dataset_name, variant), {})

    # ------------------------------------------------------------------
    def trajectory_baseline(self, name: str, dataset_name: str):
        key = (name, dataset_name)
        if key in self._trajectory_baselines:
            return self._trajectory_baselines[key]
        dataset = self.dataset(dataset_name)
        profile = self.profile
        baseline = build_trajectory_baseline(name, dataset, hidden_dim=profile.baseline_hidden_dim, seed=profile.seed)
        baseline.pretrain(epochs=profile.baseline_pretrain_epochs)
        baseline.fit_next_hop(epochs=profile.baseline_head_epochs)
        baseline.fit_travel_time(epochs=profile.baseline_head_epochs)
        target = "user" if dataset.has_dynamic_features else "pattern"
        baseline.fit_classifier(target, epochs=profile.baseline_head_epochs)
        self._trajectory_baselines[key] = baseline
        return baseline

    def traffic_baseline(self, name: str, dataset_name: str, history: int = 6, horizon: int = 6):
        key = (name, dataset_name)
        if key in self._traffic_baselines:
            return self._traffic_baselines[key]
        dataset = self.dataset(dataset_name)
        profile = self.profile
        baseline = build_traffic_baseline(
            name, dataset, history=history, horizon=horizon, hidden_dim=profile.baseline_hidden_dim, seed=profile.seed
        )
        baseline.fit(num_windows=profile.traffic_fit_windows, epochs=profile.traffic_fit_epochs)
        baseline.fit_imputation(num_windows=max(profile.traffic_fit_windows // 2, 8), epochs=profile.traffic_fit_epochs)
        self._traffic_baselines[key] = baseline
        return baseline

    def recovery_baseline(self, name: str, dataset_name: str):
        key = (name, dataset_name)
        if key in self._recovery_baselines:
            return self._recovery_baselines[key]
        dataset = self.dataset(dataset_name)
        baseline = build_recovery_baseline(name, dataset, seed=self.profile.seed)
        if name in ("mtrajrec", "rntrajrec"):
            baseline.fit(epochs=self.profile.recovery_fit_epochs)
        else:
            baseline.fit()
        self._recovery_baselines[key] = baseline
        return baseline


_GLOBAL_CONTEXT: Optional[ExperimentContext] = None


def global_context(profile: Optional[BenchmarkProfile] = None) -> ExperimentContext:
    """A process-wide shared context so pytest benchmarks reuse trained models."""
    global _GLOBAL_CONTEXT
    if _GLOBAL_CONTEXT is None or (profile is not None and _GLOBAL_CONTEXT.profile.name != profile.name):
        _GLOBAL_CONTEXT = ExperimentContext(profile)
    return _GLOBAL_CONTEXT
