"""Trajectory recovery from low-sampling-rate GPS, against classic baselines.

Mirrors the Table IV experiment at demo scale: trajectories are thinned to
~15% of their samples and each method must reconstruct the dropped road
segments.  Compares BIGCity against interpolation+HMM map matching and the
seq2seq recovery baseline.

Run with:  python examples/trajectory_recovery_demo.py
"""

from __future__ import annotations

import numpy as np

from repro.baselines import DTHRHMMRecovery, LinearHMMRecovery, MTrajRec
from repro.core import BIGCityConfig, TrainingConfig, train_bigcity
from repro.data import load_dataset
from repro.tasks import TrajectoryRecoveryEvaluator


def per_case(recover):
    """Adapt a baseline's ``recover(trajectory, kept)`` to the evaluator's one call for all cases."""
    return lambda trajectories, kept: [recover(*case) for case in zip(trajectories, kept)]


def main() -> None:
    dataset = load_dataset("xa_like", seed=0)
    evaluator = TrajectoryRecoveryEvaluator(dataset, mask_ratio=0.85, max_samples=30, seed=0)
    print(f"Recovery benchmark: {len(evaluator)} test trajectories at 85% mask ratio\n")

    results = {}

    linear = LinearHMMRecovery(dataset)
    linear.fit()
    results["Linear+HMM"] = evaluator.evaluate(per_case(linear.recover))

    dthr = DTHRHMMRecovery(dataset)
    dthr.fit()
    results["DTHR+HMM"] = evaluator.evaluate(per_case(dthr.recover))

    print("Training MTrajRec (seq2seq recovery baseline) ...")
    mtrajrec = MTrajRec(dataset, seed=0)
    mtrajrec.fit(epochs=2)
    results["MTrajRec"] = evaluator.evaluate(per_case(mtrajrec.recover))

    print("Training BIGCity (multi-task, includes the recovery prompt) ...")
    model, _ = train_bigcity(
        dataset,
        BIGCityConfig(hidden_dim=32, d_model=64, num_layers=3, seed=0),
        TrainingConfig(stage1_epochs=2, stage2_epochs=6, batch_size=8, seed=0),
    )
    results["BIGCity"] = evaluator.evaluate(model.recover_trajectories_batch)

    print("\nMethod          accuracy   macro-F1")
    print("-" * 38)
    for name, metrics in results.items():
        print(f"{name:<15} {metrics['accuracy']:8.3f} {metrics['macro_f1']:10.3f}")
    best = max(results, key=lambda name: results[name]["accuracy"])
    print(f"\nBest method at this scale: {best}")


if __name__ == "__main__":
    main()
