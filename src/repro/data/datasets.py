"""Dataset presets mirroring the paper's three cities at laptop scale.

``load_dataset("xa_like")`` returns a :class:`CityDataset` bundling the road
network, trajectories, traffic states and the train/validation/test split.
The presets mirror the *relative* properties of the paper's datasets
(Table II): the BJ-like preset is the largest, uses a different split ratio
(8:1:1 instead of 6:2:2) and — as in the paper — carries **no dynamic
traffic-state features** because its trajectories are too sparse.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.data.synthetic import SyntheticCity, SyntheticCityConfig
from repro.data.timeutils import TimeAxis
from repro.data.traffic_state import TrafficStateSeries
from repro.data.trajectory import Trajectory
from repro.roadnet.generators import grid_city, radial_city
from repro.roadnet.network import RoadNetwork


@dataclass(frozen=True)
class DatasetSplits:
    """Index lists of trajectories for train / validation / test."""

    train: Tuple[int, ...]
    validation: Tuple[int, ...]
    test: Tuple[int, ...]

    def __post_init__(self) -> None:
        overlap = set(self.train) & set(self.validation) | set(self.train) & set(self.test) | set(self.validation) & set(self.test)
        if overlap:
            raise ValueError(f"split indices overlap: {sorted(overlap)[:5]}")

    @property
    def sizes(self) -> Tuple[int, int, int]:
        return len(self.train), len(self.validation), len(self.test)


@dataclass
class CityDataset:
    """A city-scale dataset: road network + trajectories + traffic states."""

    name: str
    network: RoadNetwork
    trajectories: List[Trajectory]
    traffic_states: Optional[TrafficStateSeries]
    splits: DatasetSplits
    time_axis: TimeAxis

    @property
    def num_users(self) -> int:
        return len({t.user_id for t in self.trajectories})

    @property
    def num_segments(self) -> int:
        return self.network.num_segments

    @property
    def has_dynamic_features(self) -> bool:
        """False for the BJ-like preset, whose traffic states are unavailable (paper Sec. VII-A)."""
        return self.traffic_states is not None

    def subset(self, indices: Sequence[int]) -> List[Trajectory]:
        return [self.trajectories[i] for i in indices]

    @property
    def train_trajectories(self) -> List[Trajectory]:
        return self.subset(self.splits.train)

    @property
    def test_trajectories(self) -> List[Trajectory]:
        return self.subset(self.splits.test)

    def summary(self) -> Dict[str, float]:
        """Dataset statistics in the spirit of Table II."""
        lengths = [len(t) for t in self.trajectories]
        return {
            "trajectories": len(self.trajectories),
            "users": self.num_users,
            "road_segments": self.num_segments,
            "time_slices": self.time_axis.num_slices,
            "mean_trajectory_length": float(np.mean(lengths)) if lengths else 0.0,
            "has_dynamic_features": float(self.has_dynamic_features),
        }


#: Named presets.  ``scale`` multiplies user counts for the scalability
#: experiments (Fig. 6) without changing the network.
DATASET_PRESETS: Dict[str, Dict] = {
    "bj_like": {
        "layout": ("grid", {"rows": 7, "cols": 7, "block_km": 0.6}),
        "config": {
            "num_users": 36,
            "trajectories_per_user": 8,
            "num_days": 2,
            "commute_probability": 0.75,
            "min_route_hops": 8,
            "max_route_hops": 24,
        },
        "split": (0.8, 0.1, 0.1),
        "dynamic_features": False,
    },
    "xa_like": {
        "layout": ("grid", {"rows": 5, "cols": 6, "block_km": 0.5}),
        "config": {
            "num_users": 30,
            "trajectories_per_user": 8,
            "num_days": 2,
            "commute_probability": 0.7,
            "min_route_hops": 7,
            "max_route_hops": 20,
        },
        "split": (0.6, 0.2, 0.2),
        "dynamic_features": True,
    },
    "cd_like": {
        "layout": ("radial", {"num_rings": 4, "spokes": 8, "ring_spacing_km": 0.8}),
        "config": {
            "num_users": 32,
            "trajectories_per_user": 8,
            "num_days": 2,
            "commute_probability": 0.7,
            "min_route_hops": 7,
            "max_route_hops": 20,
        },
        "split": (0.6, 0.2, 0.2),
        "dynamic_features": True,
    },
}

_CACHE: Dict[Tuple[str, int, float], CityDataset] = {}


def load_dataset(name: str, seed: int = 0, scale: float = 1.0, use_cache: bool = True) -> CityDataset:
    """Build (or fetch from cache) one of the named synthetic city datasets.

    Parameters
    ----------
    name:
        One of ``bj_like``, ``xa_like``, ``cd_like``.
    seed:
        Seed for the road-network layout and the mobility simulation.
    scale:
        Multiplier on the number of users (and therefore trajectories); used
        by the efficiency / scalability experiments.
    use_cache:
        Re-use an already-built dataset for the same ``(name, seed, scale)``.
    """
    if name not in DATASET_PRESETS:
        raise KeyError(f"unknown dataset {name!r}; available: {sorted(DATASET_PRESETS)}")
    key = (name, seed, float(scale))
    if use_cache and key in _CACHE:
        return _CACHE[key]

    preset = DATASET_PRESETS[name]
    layout_kind, layout_kwargs = preset["layout"]
    if layout_kind == "grid":
        network = grid_city(seed=seed, **layout_kwargs)
    elif layout_kind == "radial":
        network = radial_city(seed=seed, **layout_kwargs)
    else:  # pragma: no cover - presets only use the two layouts above
        raise ValueError(f"unknown layout {layout_kind!r}")

    config_kwargs = dict(preset["config"])
    config_kwargs["num_users"] = max(2, int(round(config_kwargs["num_users"] * scale)))
    config = SyntheticCityConfig(seed=seed, **config_kwargs)
    city = SyntheticCity(network, config)
    trajectories, traffic_states = city.simulate()

    splits = make_splits(len(trajectories), preset["split"], seed=seed)
    dataset = CityDataset(
        name=name,
        network=network,
        trajectories=trajectories,
        traffic_states=traffic_states if preset["dynamic_features"] else None,
        splits=splits,
        time_axis=city.time_axis,
    )
    if use_cache:
        _CACHE[key] = dataset
    return dataset


def make_splits(num_items: int, ratios: Tuple[float, float, float], seed: int = 0) -> DatasetSplits:
    """Random train/validation/test split with the given ratios."""
    if num_items < 3:
        raise ValueError("need at least three items to split")
    if abs(sum(ratios) - 1.0) > 1e-6:
        raise ValueError("split ratios must sum to one")
    rng = np.random.default_rng(seed)
    order = rng.permutation(num_items)
    n_train = int(round(ratios[0] * num_items))
    n_val = int(round(ratios[1] * num_items))
    n_train = max(1, min(n_train, num_items - 2))
    n_val = max(1, min(n_val, num_items - n_train - 1))
    train = tuple(int(i) for i in order[:n_train])
    validation = tuple(int(i) for i in order[n_train : n_train + n_val])
    test = tuple(int(i) for i in order[n_train + n_val :])
    return DatasetSplits(train=train, validation=validation, test=test)
