"""Synthetic mobility simulator standing in for the BJ/XA/CD datasets.

The paper evaluates on proprietary taxi / ride-hailing trajectories that are
not available offline, so this module simulates a city population whose
behaviour has the statistical structure the eight evaluation tasks rely on:

* **user-distinct routing habits** — every synthetic user owns a home and a
  work location and a personal routing preference (a persistent random
  perturbation of edge weights), which makes trajectory–user linkage and
  trajectory classification learnable;
* **time-of-day congestion** — a latent congestion field slows segments
  during rush hours, with arterial roads affected more, which gives travel
  time estimation and traffic-state prediction genuine temporal signal;
* **trajectory / traffic-state coupling** — traffic states are produced from
  the very same latent speed field and vehicle counts that drive trajectory
  timestamps, so the two modalities are consistent with each other exactly
  as in the real data (Sec. III-C motivates BIGCity with this coupling).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.data.timeutils import SECONDS_PER_DAY, SECONDS_PER_HOUR, TimeAxis
from repro.data.traffic_state import TRAFFIC_CHANNELS, TrafficStateSeries
from repro.data.trajectory import Trajectory
from repro.roadnet.network import RoadNetwork

#: Home/work draws rejected before checking that ``min_route_hops`` is
#: reachable at all on the network.
_FEASIBILITY_CHECK_AFTER = 1000


@dataclass
class SyntheticCityConfig:
    """Knobs of the mobility simulator."""

    num_users: int = 40
    trajectories_per_user: int = 8
    num_days: int = 2
    slice_seconds: float = 1800.0
    min_route_hops: int = 4
    max_route_hops: int = 18
    commute_probability: float = 0.7
    route_preference_noise: float = 0.6
    speed_noise: float = 0.08
    rush_hour_slowdown: float = 0.45
    seed: int = 0

    def __post_init__(self) -> None:
        if self.num_users < 1:
            raise ValueError("need at least one user")
        if self.trajectories_per_user < 1:
            raise ValueError("need at least one trajectory per user")
        if not 0.0 <= self.commute_probability <= 1.0:
            raise ValueError("commute_probability must be a probability")
        if self.min_route_hops < 2:
            raise ValueError("routes need at least two segments")


@dataclass
class _UserProfile:
    user_id: int
    home: int
    work: int
    edge_weights: Dict[Tuple[int, int], float]
    departure_jitter: float
    morning_hour: float
    evening_hour: float


class SyntheticCity:
    """Simulate trajectories and traffic states on a road network."""

    def __init__(self, network: RoadNetwork, config: Optional[SyntheticCityConfig] = None) -> None:
        self.network = network
        self.config = config or SyntheticCityConfig()
        self._rng = np.random.default_rng(self.config.seed)
        self.time_axis = TimeAxis(
            num_slices=int(self.config.num_days * SECONDS_PER_DAY // self.config.slice_seconds),
            slice_seconds=self.config.slice_seconds,
        )
        self._core_segments = network.largest_strongly_connected_component()
        if len(self._core_segments) < 2:
            raise ValueError("the road network has no usable strongly connected core")
        sources, targets = network.edges
        self._edge_keys = list(zip(sources.tolist(), targets.tolist()))
        self._edge_free_flow = network.free_flow_travel_times[targets]
        self._users = [self._make_user(uid) for uid in range(self.config.num_users)]
        self._routes: Dict[Tuple[int, int, int], Tuple[int, ...]] = {}
        self._congestion = self._build_congestion_field()

    # ------------------------------------------------------------------
    # User population
    # ------------------------------------------------------------------
    def _make_user(self, user_id: int) -> _UserProfile:
        rng = self._rng
        home, work = rng.choice(self._core_segments, size=2, replace=False)
        attempts = 0
        while self.network.hop_distance(int(home), int(work)) < self.config.min_route_hops:
            attempts += 1
            # Checked only after many misses, so feasible configurations keep
            # their draws and their speed.
            if attempts == _FEASIBILITY_CHECK_AFTER:
                longest = self._longest_core_route()
                if longest < self.config.min_route_hops:
                    raise ValueError(
                        f"min_route_hops={self.config.min_route_hops} is unreachable: the longest "
                        f"shortest route between two segments of the network's core has {longest} hops"
                    )
            home, work = rng.choice(self._core_segments, size=2, replace=False)
        return _UserProfile(
            user_id=user_id,
            home=int(home),
            work=int(work),
            edge_weights=self._route_preferences(),
            departure_jitter=float(rng.uniform(0.2, 0.8)),
            morning_hour=float(rng.normal(8.0, 0.7)),
            evening_hour=float(rng.normal(18.0, 0.7)),
        )

    def _route_preferences(self) -> Dict[Tuple[int, int], float]:
        """A user's personal edge weights: every free-flow time scaled by one noise draw.

        One vectorised draw per user over the edges in adjacency order, the
        same stream as one scalar draw per edge.
        """
        noise = self.config.route_preference_noise
        draws = self._rng.uniform(1.0 - noise, 1.0 + noise, size=len(self._edge_keys))
        return dict(zip(self._edge_keys, (self._edge_free_flow * draws).tolist()))

    def _longest_core_route(self) -> int:
        """Largest hop distance between two segments of the strongly connected core."""
        core = np.asarray(self._core_segments)
        return int(max(self.network.hop_distances_from(source)[core].max() for source in core))

    @property
    def users(self) -> List[_UserProfile]:
        return self._users

    # ------------------------------------------------------------------
    # Latent congestion / speed field
    # ------------------------------------------------------------------
    def _build_congestion_field(self) -> np.ndarray:
        """Per-(segment, slice) speed multiplier in (0, 1]."""
        num_segments = self.network.num_segments
        num_slices = self.time_axis.num_slices
        slice_hours = (self.time_axis.slice_starts() % SECONDS_PER_DAY) / SECONDS_PER_HOUR
        # Two Gaussian rush-hour dips (morning and evening).
        morning = np.exp(-((slice_hours - 8.5) ** 2) / (2 * 1.5**2))
        evening = np.exp(-((slice_hours - 18.0) ** 2) / (2 * 1.5**2))
        daily_profile = 1.0 - self.config.rush_hour_slowdown * np.maximum(morning, evening)

        segment_sensitivity = np.empty(num_segments)
        for i, segment in enumerate(self.network.segments):
            # Arterial roads attract commuters and congest more.
            is_arterial = segment.road_type in ("motorway", "trunk", "primary")
            segment_sensitivity[i] = 1.0 if is_arterial else 0.5
        base = 1.0 - segment_sensitivity[:, None] * (1.0 - daily_profile[None, :])
        noise = self._rng.normal(0.0, 0.03, size=(num_segments, num_slices))
        return np.clip(base + noise, 0.2, 1.0)

    # ------------------------------------------------------------------
    # Trajectory generation
    # ------------------------------------------------------------------
    def _route_for(self, user: _UserProfile, origin: int, destination: int) -> Tuple[int, ...]:
        """The user's preferred route, memoised per ``(user, origin, destination)``.

        A user's edge weights never change, and the shortest path for fixed
        weights is deterministic, so a repeated trip (a commute) reuses its
        route.
        """
        key = (user.user_id, origin, destination)
        route = self._routes.get(key)
        if route is None:
            route = self._routes[key] = tuple(
                self.network.shortest_path(origin, destination, weights=user.edge_weights)
            )
        return route

    def _random_destination(self, origin: int) -> int:
        for _ in range(32):
            candidate = int(self._rng.choice(self._core_segments))
            hops = self.network.hop_distance(origin, candidate)
            if self.config.min_route_hops <= hops <= self.config.max_route_hops:
                return candidate
        return int(self._rng.choice(self._core_segments))

    def _departure_time(self, user: _UserProfile, day: int, towards_work: bool) -> float:
        hour = user.morning_hour if towards_work else user.evening_hour
        hour += self._rng.normal(0.0, user.departure_jitter)
        hour = float(np.clip(hour, 0.0, 23.5))
        return day * SECONDS_PER_DAY + hour * SECONDS_PER_HOUR

    def _simulate_trip(self, trajectory_id: int, user: _UserProfile, route: Sequence[int], departure: float) -> Trajectory:
        """Drive ``route`` from ``departure``: each segment's effective speed
        (km/h) is its limit times the latent congestion of the slice the
        vehicle enters it in, times one noise draw, clipped to
        ``[5, limit]``.  The trip's noise is one vector draw, the same
        stream as one scalar draw per segment."""
        timestamps = [departure]
        noise = self._rng.normal(1.0, self.config.speed_noise, size=len(route) - 1)
        for segment_id, factor in zip(route[:-1], noise.tolist()):
            segment = self.network.segments[segment_id]
            limit = segment.speed_limit
            slice_index = self.time_axis.slice_of(timestamps[-1])
            speed = float(min(max(limit * self._congestion[segment_id, slice_index] * factor, 5.0), limit))
            travel_seconds = segment.length / max(speed, 1e-6) * 3600.0
            timestamps.append(timestamps[-1] + travel_seconds)
        mean_congestion = float(np.mean([
            self._congestion[s, self.time_axis.slice_of(t)] for s, t in zip(route, timestamps)
        ]))
        # Traffic-pattern label: congested trip (1) vs free-flowing trip (0).
        label = int(mean_congestion < 0.75)
        return Trajectory(
            trajectory_id=trajectory_id,
            user_id=user.user_id,
            segments=list(route),
            timestamps=timestamps,
            label=label,
            metadata={"mean_congestion": mean_congestion},
        )

    def generate_trajectories(self) -> List[Trajectory]:
        """Generate the full synthetic trajectory set."""
        trajectories: List[Trajectory] = []
        max_hops = self.config.max_route_hops
        for user in self._users:
            produced = 0
            attempts = 0
            while produced < self.config.trajectories_per_user and attempts < self.config.trajectories_per_user * 8:
                attempts += 1
                day = int(self._rng.integers(0, self.config.num_days))
                commute = self._rng.random() < self.config.commute_probability
                towards_work = bool(self._rng.random() < 0.5)
                if commute:
                    origin, destination = (user.home, user.work) if towards_work else (user.work, user.home)
                else:
                    origin = int(self._rng.choice(self._core_segments))
                    destination = self._random_destination(origin)
                route = self._route_for(user, origin, destination)
                if len(route) < self.config.min_route_hops:
                    continue
                route = route[: max_hops + 1]
                departure = self._departure_time(user, day, towards_work)
                trajectory = self._simulate_trip(len(trajectories), user, route, departure)
                if trajectory.end_time >= self.time_axis.end:
                    continue
                trajectories.append(trajectory)
                produced += 1
        return trajectories

    # ------------------------------------------------------------------
    # Traffic states
    # ------------------------------------------------------------------
    def generate_traffic_states(self, trajectories: Sequence[Trajectory]) -> TrafficStateSeries:
        """Build the traffic-state tensor consistent with the latent congestion field.

        The speed channel comes from the latent field (what a loop detector
        would measure); the inflow/outflow channels are aggregated from the
        generated trajectories, as in the paper's preprocessing.
        """
        num_segments = self.network.num_segments
        lengths = np.array([s.length for s in self.network.segments])
        counts = TrafficStateSeries.from_trajectories(
            trajectories, num_segments, self.time_axis, segment_lengths=lengths
        )
        values = counts.values.copy()
        speed_idx = TRAFFIC_CHANNELS.index("speed")
        limits = np.array([s.speed_limit for s in self.network.segments])
        latent_speed = limits[:, None] * self._congestion
        values[:, :, speed_idx] = latent_speed
        return TrafficStateSeries(values, self.time_axis)

    def simulate(self) -> Tuple[List[Trajectory], TrafficStateSeries]:
        """Run the full simulation, returning trajectories and traffic states."""
        trajectories = self.generate_trajectories()
        traffic = self.generate_traffic_states(trajectories)
        return trajectories, traffic
