"""Trajectory next-hop prediction (Table III, "Next Hop Prediction" block).

Given the prefix of a trajectory, predict the road segment visited next.
Reported metrics follow the paper: top-1 accuracy, MRR@5 and NDCG@5.
"""

from __future__ import annotations

from typing import Callable, Dict, List, Optional, Sequence

import numpy as np

from repro.data.datasets import CityDataset
from repro.data.trajectory import Trajectory
from repro.tasks import metrics

#: A ranking function maps trajectories (prefix excluded target) to ranked
#: candidate segment ids, best first.
RankFn = Callable[[Sequence[Trajectory]], Sequence[Sequence[int]]]

#: A rollout function maps trajectory prefixes to per-trajectory arrays of
#: autoregressively decoded next segments (``BIGCity.rollout_next_hops_batch``).
RolloutFn = Callable[[Sequence[Trajectory]], Sequence[np.ndarray]]


class NextHopEvaluator:
    """Build next-hop test cases from a dataset and score ranking functions."""

    def __init__(self, dataset: CityDataset, max_samples: Optional[int] = None, min_length: int = 3, seed: int = 0) -> None:
        self.dataset = dataset
        rng = np.random.default_rng(seed)
        candidates = [t for t in dataset.test_trajectories if len(t) >= min_length]
        if max_samples is not None and len(candidates) > max_samples:
            index = rng.choice(len(candidates), size=max_samples, replace=False)
            candidates = [candidates[i] for i in index]
        #: full trajectories; the final segment is the prediction target.
        self.trajectories: List[Trajectory] = candidates
        self.prefixes: List[Trajectory] = [t.slice(0, len(t) - 1) for t in candidates]
        self.targets: List[int] = [t.segments[-1] for t in candidates]

    def __len__(self) -> int:
        return len(self.trajectories)

    def evaluate(self, rank_fn: RankFn) -> Dict[str, float]:
        """Score a ranking function.

        The ranking function receives the *full* trajectories; BIGCity's
        prompt builder strips the last sample itself.
        """
        rankings = rank_fn(self.trajectories)
        if len(rankings) != len(self.targets):
            raise ValueError("ranking function returned the wrong number of results")
        top1 = np.array([list(r)[0] if len(r) else -1 for r in rankings])
        return {
            "acc": metrics.accuracy(top1, np.asarray(self.targets)),
            "mrr@5": metrics.mrr_at_k(rankings, self.targets, k=5),
            "ndcg@5": metrics.ndcg_at_k(rankings, self.targets, k=5),
        }

    def evaluate_rollout(self, rollout_fn: RolloutFn) -> Dict[str, float]:
        """Score a batched autoregressive rollout on one-step-ahead accuracy.

        ``rollout_fn`` receives every test *prefix* in one call (so a batched
        implementation such as ``BIGCity.rollout_next_hops_batch`` decodes
        them through a single padded KV-cached batch) and must return one
        array of decoded segments per prefix; the first decoded segment is
        compared against the held-out next hop.
        """
        rollouts = rollout_fn(self.prefixes)
        if len(rollouts) != len(self.targets):
            raise ValueError("rollout function returned the wrong number of results")
        top1 = np.array([int(np.asarray(r).reshape(-1)[0]) if np.asarray(r).size else -1 for r in rollouts])
        return {"rollout_acc": metrics.accuracy(top1, np.asarray(self.targets))}
