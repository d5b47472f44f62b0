"""The road network: a directed graph over road segments (Definition 2)."""

from __future__ import annotations

import operator
from typing import Dict, List, Optional, Sequence, Tuple

import networkx as nx
import numpy as np

from repro.roadnet.segment import RoadSegment, StaticFeatureEncoder


class RoadNetwork:
    """Directed graph ``G = {R, A, E^(s)}`` whose vertices are road segments.

    Connectivity follows the usual segment-graph convention: segment ``i`` is
    connected to segment ``j`` when ``i`` ends where ``j`` starts, i.e. a
    vehicle can continue from ``i`` onto ``j``.

    Hop distances are memoised per source as read-only BFS rows (one forward
    row per source, one reverse row per target), filled on first use.  A
    row is a pure function of the fixed topology, so filling it twice is
    harmless and pooled replicas can share one network without a lock.
    Routing and neighbour readers raise ``ValueError`` for segment ids
    outside ``[0, N)``.
    """

    def __init__(self, segments: Sequence[RoadSegment], connect_tolerance: float = 1e-6) -> None:
        if not segments:
            raise ValueError("a road network needs at least one segment")
        ids = [s.segment_id for s in segments]
        if ids != list(range(len(segments))):
            raise ValueError("segment ids must be contiguous and start at zero")
        self.segments: List[RoadSegment] = list(segments)
        self._connect_tolerance = connect_tolerance
        self._adjacency = self._build_adjacency()
        self._adjacency.setflags(write=False)
        self._update_degrees()
        self._static_features = StaticFeatureEncoder(self.segments).encode_all(self.segments)
        sources, targets = np.nonzero(self._adjacency)
        self._edges = (_read_only(sources), _read_only(targets))
        self._successors: List[Tuple[int, ...]] = _neighbour_lists(len(self.segments), sources, targets)
        self._predecessors: List[Tuple[int, ...]] = _neighbour_lists(len(self.segments), targets, sources)
        self._free_flow_times = _read_only(np.array([s.free_flow_travel_time for s in self.segments]))
        self._forward_hops: List[Optional[np.ndarray]] = [None] * len(self.segments)
        self._backward_hops: List[Optional[np.ndarray]] = [None] * len(self.segments)
        self._graph = self._build_graph()

    # ------------------------------------------------------------------
    # Construction helpers
    # ------------------------------------------------------------------
    def _build_adjacency(self) -> np.ndarray:
        n = len(self.segments)
        ends = np.array([s.end for s in self.segments])
        starts = np.array([s.start for s in self.segments])
        adjacency = np.zeros((n, n), dtype=np.int8)
        for i in range(n):
            distances = np.hypot(starts[:, 0] - ends[i, 0], starts[:, 1] - ends[i, 1])
            successors = np.where(distances <= self._connect_tolerance)[0]
            for j in successors:
                if j != i:
                    adjacency[i, j] = 1
        return adjacency

    def _update_degrees(self) -> None:
        out_degree = self._adjacency.sum(axis=1)
        in_degree = self._adjacency.sum(axis=0)
        for segment, ind, outd in zip(self.segments, in_degree, out_degree):
            segment.in_degree = int(ind)
            segment.out_degree = int(outd)

    def _build_graph(self) -> nx.DiGraph:
        graph = nx.DiGraph()
        for segment in self.segments:
            graph.add_node(segment.segment_id, length=segment.length)
        for i, j in zip(*self._edges):
            # Edge weight = free-flow travel time of the destination segment,
            # so shortest paths approximate fastest routes.
            graph.add_edge(int(i), int(j), weight=self.segments[j].free_flow_travel_time)
        return graph

    def _segment_id(self, segment_id: int) -> int:
        """``segment_id`` as a plain int, or ``ValueError`` outside ``[0, N)``."""
        index = operator.index(segment_id)
        if not 0 <= index < len(self.segments):
            raise ValueError(f"segment {segment_id} is not a valid segment id")
        return index

    # ------------------------------------------------------------------
    # Basic accessors
    # ------------------------------------------------------------------
    @property
    def num_segments(self) -> int:
        return len(self.segments)

    def __len__(self) -> int:
        return self.num_segments

    @property
    def adjacency(self) -> np.ndarray:
        """Binary adjacency matrix ``A`` of shape ``(N, N)`` (read-only)."""
        return self._adjacency

    @property
    def edges(self) -> Tuple[np.ndarray, np.ndarray]:
        """``(sources, targets)`` of every edge in row-major adjacency order (read-only)."""
        return self._edges

    @property
    def free_flow_travel_times(self) -> np.ndarray:
        """Free-flow travel time (seconds) of every segment, shape ``(N,)`` (read-only)."""
        return self._free_flow_times

    @property
    def static_features(self) -> np.ndarray:
        """Static feature matrix ``E^(s)`` of shape ``(N, D_r)``."""
        return self._static_features

    @property
    def static_feature_dim(self) -> int:
        return self._static_features.shape[1]

    def segment(self, segment_id: int) -> RoadSegment:
        return self.segments[segment_id]

    def successors(self, segment_id: int) -> List[int]:
        """Segments reachable immediately after ``segment_id``, in id order."""
        return list(self._successors[self._segment_id(segment_id)])

    def predecessors(self, segment_id: int) -> List[int]:
        """Segments from which ``segment_id`` is reachable in one hop, in id order."""
        return list(self._predecessors[self._segment_id(segment_id)])

    def to_networkx(self) -> nx.DiGraph:
        return self._graph

    # ------------------------------------------------------------------
    # Routing
    # ------------------------------------------------------------------
    def shortest_path(
        self,
        source: int,
        target: int,
        weights: Optional[Dict[Tuple[int, int], float]] = None,
    ) -> List[int]:
        """Fastest segment sequence from ``source`` to ``target``.

        Parameters
        ----------
        source, target:
            Segment ids.
        weights:
            Optional per-edge weight override keyed by ``(i, j)``; used by the
            mobility simulator to give each synthetic user personal route
            preferences.
        """
        source, target = self._segment_id(source), self._segment_id(target)
        if weights is None:
            weight = "weight"
        else:
            # Overrides are read during the search; keys that are not edges
            # of the graph are never asked for.
            def weight(u: int, v: int, data: Dict) -> float:
                return weights.get((u, v), data["weight"])

        try:
            return [int(n) for n in nx.shortest_path(self._graph, source, target, weight=weight)]
        except nx.NetworkXNoPath:
            return []

    def shortest_path_length(self, source: int, target: int) -> float:
        """Free-flow travel time (seconds) of the fastest route, ``inf`` if unreachable."""
        source, target = self._segment_id(source), self._segment_id(target)
        try:
            return float(nx.shortest_path_length(self._graph, source, target, weight="weight"))
        except nx.NetworkXNoPath:
            return float("inf")

    def hop_distance(self, source: int, target: int) -> int:
        """Number of hops of the shortest (unweighted) route, ``-1`` if unreachable."""
        return int(self.hop_distances_from(source)[self._segment_id(target)])

    def hop_distances_from(self, source: int) -> np.ndarray:
        """Hop distance from ``source`` to every segment, ``-1`` where unreachable (read-only)."""
        return _hop_row(self._forward_hops, self._successors, self._segment_id(source))

    def hop_distances_to(self, target: int) -> np.ndarray:
        """Hop distance from every segment to ``target``, ``-1`` where unreachable (read-only)."""
        return _hop_row(self._backward_hops, self._predecessors, self._segment_id(target))

    def random_walk(self, start: int, length: int, rng: np.random.Generator) -> List[int]:
        """A random walk over the segment graph (used by skip-gram style baselines)."""
        current = self._segment_id(start)
        walk = [current]
        for _ in range(length - 1):
            successors = self._successors[current]
            if not successors:
                break
            current = int(rng.choice(successors))
            walk.append(current)
        return walk

    def is_strongly_connected(self) -> bool:
        return nx.is_strongly_connected(self._graph)

    def largest_strongly_connected_component(self) -> List[int]:
        component = max(nx.strongly_connected_components(self._graph), key=len)
        return sorted(int(n) for n in component)

    # ------------------------------------------------------------------
    # Serialisation
    # ------------------------------------------------------------------
    def to_dict(self) -> Dict:
        return {
            "connect_tolerance": self._connect_tolerance,
            "segments": [s.to_dict() for s in self.segments],
        }

    @classmethod
    def from_dict(cls, payload: Dict) -> "RoadNetwork":
        segments = [RoadSegment.from_dict(item) for item in payload["segments"]]
        return cls(segments, connect_tolerance=float(payload.get("connect_tolerance", 1e-6)))


def _read_only(array: np.ndarray) -> np.ndarray:
    array.setflags(write=False)
    return array


def _neighbour_lists(num_segments: int, sources: np.ndarray, targets: np.ndarray) -> List[Tuple[int, ...]]:
    """Per-segment tuples of ``targets`` keyed by ``sources``, in edge order."""
    neighbours: List[List[int]] = [[] for _ in range(num_segments)]
    for i, j in zip(sources.tolist(), targets.tolist()):
        neighbours[i].append(j)
    return [tuple(items) for items in neighbours]


def _hop_row(rows: List[Optional[np.ndarray]], neighbours: List[Tuple[int, ...]], source: int) -> np.ndarray:
    """The memoised BFS row of ``source`` over ``neighbours``, filled on first use."""
    row = rows[source]
    if row is None:
        distances = [-1] * len(neighbours)
        distances[source] = 0
        frontier = [source]
        depth = 0
        while frontier:
            depth += 1
            reached = []
            for current in frontier:
                for neighbour in neighbours[current]:
                    if distances[neighbour] < 0:
                        distances[neighbour] = depth
                        reached.append(neighbour)
            frontier = reached
        row = rows[source] = _read_only(np.array(distances, dtype=np.int32))
    return row
