"""Road-network-constrained decoding utilities.

BIGCity operates in road-network-based scenarios (Sec. III of the paper): a
trajectory is a path on the road graph, so the next hop of a trajectory must
be a successor of its last segment, and a segment recovered inside a gap must
be reachable from the surrounding observed segments.  The map-constrained
recovery baselines (MTrajRec, RNTrajRec) build this constraint into their
decoders; these helpers make the same constraint available to every model in
the repository so that classification-style decoding ranks *feasible*
candidates first instead of scoring the full segment vocabulary.

All helpers are pure functions over a :class:`~repro.roadnet.network.RoadNetwork`
and NumPy score vectors, so they can be reused by BIGCity, by the trajectory
baselines and by the evaluation harness alike.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence, Set

import numpy as np

from repro.roadnet.network import RoadNetwork

__all__ = [
    "constrained_next_hop_ranking",
    "greedy_next_hop",
    "greedy_next_hop_batch",
    "forward_hop_distances",
    "backward_hop_distances",
    "gap_candidates",
    "open_gap_candidates",
    "constrained_recovery_choice",
]


def greedy_next_hop(
    scores: np.ndarray,
    last_segment: int,
    network: Optional[RoadNetwork] = None,
) -> int:
    """Pick the single best next segment for one autoregressive rollout step.

    With a ``network`` this is the top-1 entry of
    :func:`constrained_next_hop_ranking` (graph successors of
    ``last_segment`` win over unreachable segments); without one it is the
    plain argmax.  Used by ``BIGCity.rollout_next_hops_batch`` to choose the token
    appended at each KV-cached decode step.
    """
    if network is None:
        return int(np.argmax(np.asarray(scores, dtype=np.float64).reshape(-1)))
    return int(constrained_next_hop_ranking(scores, last_segment, network, top_k=1)[0])


def greedy_next_hop_batch(
    scores: np.ndarray,
    last_segments: Sequence[int],
    network: Optional[RoadNetwork] = None,
) -> np.ndarray:
    """Vectorised :func:`greedy_next_hop` over a ``(batch, num_segments)`` batch.

    Each row of ``scores`` is decoded against the corresponding entry of
    ``last_segments``; the per-row choice is exactly what
    :func:`greedy_next_hop` would return, so batched and per-trajectory
    rollouts stay equivalent.  Used by ``BIGCity.rollout_next_hops_batch`` to
    pick every trajectory's next segment from one batched decode step.
    """
    scores = np.asarray(scores, dtype=np.float64)
    if scores.ndim != 2:
        raise ValueError(f"scores must be (batch, num_segments), got shape {scores.shape}")
    last_segments = np.asarray(last_segments, dtype=np.int64).reshape(-1)
    if last_segments.shape[0] != scores.shape[0]:
        raise ValueError(
            f"got {scores.shape[0]} score rows but {last_segments.shape[0]} last segments"
        )
    if network is None:
        return np.argmax(scores, axis=-1).astype(np.int64)
    return np.asarray(
        [greedy_next_hop(row, int(seg), network) for row, seg in zip(scores, last_segments)],
        dtype=np.int64,
    )


def constrained_next_hop_ranking(
    scores: np.ndarray,
    last_segment: int,
    network: RoadNetwork,
    top_k: int = 5,
) -> np.ndarray:
    """Rank next-hop candidates, preferring graph successors of ``last_segment``.

    Parameters
    ----------
    scores:
        A ``(num_segments,)`` score vector (higher is better), e.g. the
        segment-classification logits of a model.
    last_segment:
        The final observed segment of the trajectory prefix.
    network:
        The road network that defines which segments are reachable in one hop.
    top_k:
        Number of ranked candidates to return.

    Returns
    -------
    numpy.ndarray
        Segment ids ordered best-first.  Successors of ``last_segment`` are
        ranked (among themselves, by score) ahead of all other segments; if
        the segment has no successors the ranking falls back to the plain
        score order.
    """
    scores = np.asarray(scores, dtype=np.float64).reshape(-1)
    if scores.shape[0] != network.num_segments:
        raise ValueError(
            f"scores has length {scores.shape[0]} but the network has {network.num_segments} segments"
        )
    if not 0 <= last_segment < network.num_segments:
        raise ValueError(f"last_segment {last_segment} is not a valid segment id")
    if top_k <= 0:
        raise ValueError("top_k must be positive")

    order = np.argsort(-scores)
    successors = network.successors(last_segment)
    if not successors:
        return order[:top_k].copy()

    successor_set = set(int(s) for s in successors)
    preferred = [int(s) for s in order if int(s) in successor_set]
    remainder = [int(s) for s in order if int(s) not in successor_set]
    ranking = preferred + remainder
    return np.asarray(ranking[:top_k], dtype=np.int64)


def _within(hops: np.ndarray, max_hops: Optional[int]) -> Dict[int, int]:
    """``{segment: hops}`` for every reached segment of a hop row within ``max_hops``."""
    reached = hops >= 0
    if max_hops is not None:
        # The source itself (hop 0) is always within reach.
        reached &= hops <= max(max_hops, 0)
    segments = np.flatnonzero(reached)
    return dict(zip(segments.tolist(), hops[segments].tolist()))


def _feasible(hops: np.ndarray, budget: int) -> np.ndarray:
    """Segments 1 to ``budget`` hops away on a hop row; the anchor (hop 0) never qualifies."""
    return (hops >= 1) & (hops <= budget)


def forward_hop_distances(network: RoadNetwork, source: int, max_hops: Optional[int] = None) -> Dict[int, int]:
    """Hop distances from ``source`` to every segment reachable within ``max_hops``."""
    return _within(network.hop_distances_from(source), max_hops)


def backward_hop_distances(network: RoadNetwork, target: int, max_hops: Optional[int] = None) -> Dict[int, int]:
    """Hop distances from every segment that can reach ``target`` within ``max_hops``."""
    return _within(network.hop_distances_to(target), max_hops)


def gap_candidates(
    network: RoadNetwork,
    previous_segment: int,
    next_segment: Optional[int],
    gap_length: int,
    slack: int = 2,
) -> Set[int]:
    """Feasible segments for a masked position between two observed segments.

    A segment is feasible if a path of at most ``gap_length + slack`` hops
    leads from ``previous_segment`` to it and (when ``next_segment`` is known)
    from it to ``next_segment``.  This mirrors the map-constrained candidate
    sets used by trajectory-recovery models on road networks.

    Returns an empty set when no segment satisfies the constraint (callers
    should then fall back to unconstrained decoding).
    """
    if gap_length < 1:
        raise ValueError("gap_length must be at least 1")
    budget = gap_length + max(slack, 0)
    feasible = _feasible(network.hop_distances_from(previous_segment), budget)
    if next_segment is not None:
        feasible &= _feasible(network.hop_distances_to(next_segment), budget)
    return set(np.flatnonzero(feasible).tolist())


def open_gap_candidates(
    network: RoadNetwork,
    anchor_segment: int,
    gap_length: int,
    before: bool,
    slack: int = 2,
) -> Set[int]:
    """Feasible segments for a masked position with only ONE observed neighbour.

    Used when a masked position precedes the first kept sample or follows the
    last one, so the gap is open on one side.  With ``before=True`` the masked
    position lies *before* the anchor and a feasible segment must reach
    ``anchor_segment`` within ``gap_length + slack`` hops; with ``before=False``
    it lies *after* the anchor and must be reachable *from* it.

    Returns an empty set when no segment satisfies the constraint (callers
    should then fall back to unconstrained decoding).
    """
    if gap_length < 1:
        raise ValueError("gap_length must be at least 1")
    budget = gap_length + max(slack, 0)
    hops = network.hop_distances_to(anchor_segment) if before else network.hop_distances_from(anchor_segment)
    return set(np.flatnonzero(_feasible(hops, budget)).tolist())


def constrained_recovery_choice(
    scores: np.ndarray,
    candidates: Set[int],
) -> int:
    """Pick the highest-scoring segment inside ``candidates``.

    Falls back to the global argmax when the candidate set is empty, so that
    callers never lose a prediction because the constraint was infeasible.
    """
    scores = np.asarray(scores, dtype=np.float64).reshape(-1)
    if not candidates:
        return int(np.argmax(scores))
    candidate_list = sorted(int(c) for c in candidates if 0 <= int(c) < scores.shape[0])
    if not candidate_list:
        return int(np.argmax(scores))
    candidate_scores = scores[candidate_list]
    return int(candidate_list[int(np.argmax(candidate_scores))])
