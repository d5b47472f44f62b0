"""Traffic-state forecasting: BIGCity against two task-specific baselines.

Run with:

    python examples/traffic_forecasting.py

The script trains BIGCity once (both stages) and two dedicated traffic-state
baselines (DCRNN-style and Graph-WaveNet-style) on the XA-like synthetic
city, then compares them on one-step prediction, multi-step prediction and
imputation — the three traffic tasks of Table V.  It is the "population
level" half of the paper's MTMD claim: the very same BIGCity parameters used
for trajectory tasks also forecast traffic states.
"""

from __future__ import annotations

import numpy as np

from repro.baselines.traffic import build_traffic_baseline
from repro.core import BIGCityConfig, TrainingConfig, train_bigcity
from repro.data import load_dataset
from repro.eval.results import ResultTable
from repro.tasks.traffic import TrafficStateEvaluator

HISTORY = 6
HORIZON = 6


def main() -> None:
    print("Loading the XA-like synthetic city dataset ...")
    dataset = load_dataset("xa_like", seed=0)

    print("Training BIGCity (shared across every task) ...")
    model, _ = train_bigcity(
        dataset,
        BIGCityConfig(hidden_dim=32, d_model=64, num_layers=3, seed=0),
        TrainingConfig(stage1_epochs=2, stage2_epochs=5, batch_size=8, traffic_sequences_per_epoch=32, seed=0),
    )

    print("Training the task-specific baselines (DCRNN, GWNET) ...")
    baselines = {}
    for name in ("dcrnn", "gwnet"):
        baseline = build_traffic_baseline(name, dataset, history=HISTORY, horizon=HORIZON, hidden_dim=32, seed=0)
        baseline.fit(num_windows=32, epochs=3)
        baseline.fit_imputation(num_windows=16, epochs=3)
        baselines[name] = baseline

    evaluator = TrafficStateEvaluator(dataset, history=HISTORY, horizon=HORIZON, max_windows=48, seed=0)

    one_step = ResultTable(title="One-step prediction", higher_is_better={"mae": False, "rmse": False, "mape": False})
    multi_step = ResultTable(title="Multi-step prediction", higher_is_better={"mae": False, "rmse": False, "mape": False})
    imputation = ResultTable(title="Imputation (25% masked)", higher_is_better={"mae": False, "rmse": False, "mape": False})

    # The evaluator passes every case in one call; the baselines answer case by case.
    for name, baseline in baselines.items():
        predict = lambda cases: [baseline.predict(*case) for case in cases]  # noqa: E731
        impute = lambda cases, override: [baseline.impute(*case, override) for case in cases]  # noqa: E731
        one_step.add_row(name, evaluator.evaluate_prediction(predict, horizon=1))
        multi_step.add_row(name, evaluator.evaluate_prediction(predict, horizon=HORIZON))
        imputation.add_row(name, evaluator.evaluate_imputation(impute, mask_ratio=0.25, max_cases=24))

    one_step.add_row("bigcity", evaluator.evaluate_prediction(model.predict_traffic_states_batch, horizon=1))
    multi_step.add_row("bigcity", evaluator.evaluate_prediction(model.predict_traffic_states_batch, horizon=HORIZON))
    imputation.add_row(
        "bigcity", evaluator.evaluate_imputation(model.impute_traffic_states_batch, mask_ratio=0.25, max_cases=24)
    )

    for table in (one_step, multi_step, imputation):
        print()
        print(table.to_text())

    print("\nA sample forecast for segment 3:")
    [forecast] = model.predict_traffic_states_batch([(3, 60, HISTORY, HORIZON)])
    actual = dataset.traffic_states.values[3, 60 + HISTORY : 60 + HISTORY + HORIZON, 0]
    print(f"  predicted speeds (km/h): {np.round(forecast[:, 0], 1)}")
    print(f"  actual speeds    (km/h): {np.round(actual, 1)}")


if __name__ == "__main__":
    main()
