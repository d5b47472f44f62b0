"""Trajectory recovery from low-sampling-rate inputs (Table IV).

A fraction of samples (85% / 90% / 95% in the paper) is dropped from each
test trajectory; a recovery method must reconstruct the road segments at the
dropped positions given the remaining samples.  Metrics: accuracy and
macro-F1 over the recovered segments.
"""

from __future__ import annotations

from typing import Callable, Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.data.datasets import CityDataset
from repro.data.trajectory import Trajectory, subsample_trajectory
from repro.tasks import metrics

#: ``recover_fn(trajectories, kept_indices_list) -> [predicted ids, ...]``:
#: one array of predicted segment ids per case, at the dropped positions in
#: ascending order.  Only the kept samples may be used by the method; the full
#: trajectory is passed so the method knows how many positions to fill and
#: their timestamps.  ``BIGCity.recover_trajectories_batch`` answers every
#: case through one padded model batch.
RecoverBatchFn = Callable[[Sequence[Trajectory], Sequence[np.ndarray]], Sequence[np.ndarray]]


class TrajectoryRecoveryEvaluator:
    """Build masked recovery cases at a given mask ratio and score methods."""

    def __init__(
        self,
        dataset: CityDataset,
        mask_ratio: float = 0.85,
        max_samples: Optional[int] = None,
        min_length: int = 6,
        seed: int = 0,
    ) -> None:
        if not 0.0 < mask_ratio < 1.0:
            raise ValueError("mask_ratio must be in (0, 1)")
        self.dataset = dataset
        self.mask_ratio = mask_ratio
        rng = np.random.default_rng(seed)
        candidates = [t for t in dataset.test_trajectories if len(t) >= min_length]
        if max_samples is not None and len(candidates) > max_samples:
            index = rng.choice(len(candidates), size=max_samples, replace=False)
            candidates = [candidates[i] for i in index]
        self.cases: List[Tuple[Trajectory, np.ndarray, np.ndarray]] = []
        for trajectory in candidates:
            _, kept = subsample_trajectory(trajectory, keep_ratio=1.0 - mask_ratio, rng=rng)
            missing = np.setdiff1d(np.arange(len(trajectory)), kept)
            if len(missing) == 0:
                continue
            self.cases.append((trajectory, kept, missing))

    def __len__(self) -> int:
        return len(self.cases)

    def evaluate(self, recover_fn: RecoverBatchFn) -> Dict[str, float]:
        """Score a recovery function on every case in one call."""
        recovered = recover_fn(
            [trajectory for trajectory, _, _ in self.cases],
            [kept for _, kept, _ in self.cases],
        )
        return self._score(recovered)

    def _score(self, recovered_list: Sequence[np.ndarray]) -> Dict[str, float]:
        if len(recovered_list) != len(self.cases):
            raise ValueError(
                f"recovery method answered {len(recovered_list)} of {len(self.cases)} cases"
            )
        predictions: List[int] = []
        targets: List[int] = []
        for (trajectory, kept, missing), recovered in zip(self.cases, recovered_list):
            recovered = np.asarray(recovered, dtype=np.int64)
            if recovered.shape[0] != len(missing):
                raise ValueError(
                    f"recovery method returned {recovered.shape[0]} segments for "
                    f"{len(missing)} masked positions"
                )
            predictions.extend(int(p) for p in recovered)
            targets.extend(int(trajectory.segments[i]) for i in missing)
        num_segments = self.dataset.num_segments
        return {
            "accuracy": metrics.accuracy(np.asarray(predictions), np.asarray(targets)),
            "macro_f1": metrics.macro_f1(predictions, targets, num_segments),
            "num_masked": float(len(targets)),
        }
