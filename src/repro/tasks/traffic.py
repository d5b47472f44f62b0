"""Traffic-state tasks: one-step / multi-step prediction and imputation (Table V).

Forecasting uses a temporal split: models may train on the first part of the
time axis and are evaluated on windows drawn from the last part.  Imputation
masks a fraction of slices of a segment's series and asks the model to fill
them in.  Metrics are MAE / MAPE / RMSE on the speed channel, matching the
magnitude of the paper's numbers.
"""

from __future__ import annotations

from typing import Callable, Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.data.datasets import CityDataset
from repro.data.loader import TrafficWindowSampler
from repro.data.traffic_state import TRAFFIC_CHANNELS
from repro.tasks import metrics

#: ``predict_fn(cases) -> [(horizon, channels), ...]`` where each case is
#: ``(segment_id, start_slice, history, horizon)``;
#: ``BIGCity.predict_traffic_states_batch`` answers every window through one
#: padded model batch.
PredictBatchFn = Callable[[Sequence[Tuple[int, int, int, int]]], Sequence[np.ndarray]]
#: ``impute_fn(cases, traffic_override) -> [(len(masked), channels), ...]``
#: where each case is ``(segment_id, start_slice, num_slices, masked_positions)``
#: (``BIGCity.impute_traffic_states_batch``).
ImputeBatchFn = Callable[
    [Sequence[Tuple[int, int, int, Sequence[int]]], Optional[np.ndarray]], Sequence[np.ndarray]
]


class TrafficStateEvaluator:
    """Build traffic forecasting / imputation cases and score prediction functions."""

    def __init__(
        self,
        dataset: CityDataset,
        history: int = 6,
        horizon: int = 6,
        max_windows: int = 64,
        train_fraction: float = 0.7,
        seed: int = 0,
    ) -> None:
        if dataset.traffic_states is None:
            raise ValueError(f"dataset {dataset.name!r} has no traffic states")
        self.dataset = dataset
        self.traffic = dataset.traffic_states
        self.history = history
        self.horizon = horizon
        self.train_fraction = train_fraction
        self.seed = seed
        sampler = TrafficWindowSampler(self.traffic, history=history, horizon=horizon, seed=seed)
        windows = sampler.all_windows(split="test", train_fraction=train_fraction)
        if len(windows) > max_windows:
            index = np.random.default_rng(seed).choice(len(windows), size=max_windows, replace=False)
            windows = [windows[i] for i in index]
        self.windows = windows
        self.speed_index = TRAFFIC_CHANNELS.index("speed")

    def __len__(self) -> int:
        return len(self.windows)

    # ------------------------------------------------------------------
    def evaluate_prediction(
        self, predict_fn: PredictBatchFn, horizon: Optional[int] = None
    ) -> Dict[str, float]:
        """Score a forecasting function at the configured (or reduced) horizon, all windows in one call."""
        horizon = horizon or self.horizon
        cases = [
            (window.segment_id, int(window.history_slices[0]), self.history, horizon)
            for window in self.windows
        ]
        return self._score_prediction(predict_fn(cases), horizon)

    def _score_prediction(self, outputs: Sequence[np.ndarray], horizon: int) -> Dict[str, float]:
        if horizon > self.horizon:
            raise ValueError("cannot evaluate beyond the prepared horizon")
        if len(outputs) != len(self.windows):
            raise ValueError(
                f"prediction method answered {len(outputs)} of {len(self.windows)} windows"
            )
        predictions: List[np.ndarray] = []
        targets: List[np.ndarray] = []
        for window, output in zip(self.windows, outputs):
            output = np.atleast_2d(np.asarray(output, dtype=np.float64))
            if output.shape[0] < horizon:
                raise ValueError("prediction function returned fewer steps than requested")
            predictions.append(output[:horizon, self.speed_index])
            targets.append(window.target[:horizon, self.speed_index])
        prediction_array = np.concatenate(predictions)
        target_array = np.concatenate(targets)
        return {
            "mae": metrics.mae(prediction_array, target_array),
            "mape": metrics.mape(prediction_array, target_array),
            "rmse": metrics.rmse(prediction_array, target_array),
        }

    # ------------------------------------------------------------------
    def imputation_cases(
        self,
        mask_ratio: float = 0.25,
        sequence_length: int = 12,
        max_cases: int = 32,
    ) -> List[Tuple[int, int, int, np.ndarray]]:
        """(segment, start_slice, length, masked_positions) imputation cases.

        Each call draws from a fresh generator seeded with the evaluator's
        seed, so equal arguments give equal cases: every method scored by
        one evaluator is scored on the same cases.
        """
        rng = np.random.default_rng(self.seed)
        cases = []
        max_start = max(self.traffic.num_slices - sequence_length, 1)
        for _ in range(max_cases):
            segment = int(rng.integers(0, self.traffic.num_segments))
            start = int(rng.integers(0, max_start))
            num_masked = max(1, int(round(mask_ratio * sequence_length)))
            masked = np.sort(rng.choice(sequence_length, size=num_masked, replace=False))
            cases.append((segment, start, sequence_length, masked))
        return cases

    def masked_traffic_values(self, cases: Sequence[Tuple[int, int, int, np.ndarray]]) -> np.ndarray:
        """A copy of the traffic tensor with every masked cell replaced by the channel mean.

        Passing this as the ``traffic_override`` prevents models whose
        encoders look at the full tensor from reading the values they are
        supposed to impute.
        """
        values = self.traffic.values.copy()
        channel_mean = values.reshape(-1, values.shape[-1]).mean(axis=0)
        for segment, start, length, masked in cases:
            for position in masked:
                values[segment, start + position] = channel_mean
        return values

    def evaluate_imputation(
        self,
        impute_fn: ImputeBatchFn,
        mask_ratio: float = 0.25,
        sequence_length: int = 12,
        max_cases: int = 32,
    ) -> Dict[str, float]:
        """Score an imputation function on the evaluator's cases, all in one call."""
        cases = self.imputation_cases(mask_ratio, sequence_length, max_cases)
        override = self.masked_traffic_values(cases)
        return self._score_imputation(cases, impute_fn(cases, override))

    def _score_imputation(
        self,
        cases: Sequence[Tuple[int, int, int, np.ndarray]],
        outputs: Sequence[np.ndarray],
    ) -> Dict[str, float]:
        if len(outputs) != len(cases):
            raise ValueError(f"imputation method answered {len(outputs)} of {len(cases)} cases")
        predictions: List[np.ndarray] = []
        targets: List[np.ndarray] = []
        for (segment, start, length, masked), output in zip(cases, outputs):
            output = np.atleast_2d(np.asarray(output, dtype=np.float64))
            if output.shape[0] != len(masked):
                raise ValueError("imputation function returned the wrong number of rows")
            predictions.append(output[:, self.speed_index])
            targets.append(self.traffic.values[segment, start + masked, self.speed_index])
        prediction_array = np.concatenate(predictions)
        target_array = np.concatenate(targets)
        return {
            "mae": metrics.mae(prediction_array, target_array),
            "mape": metrics.mape(prediction_array, target_array),
            "rmse": metrics.rmse(prediction_array, target_array),
        }
