"""Tests for the mobility simulator, dataset presets, loaders and map matching."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.data.datasets import DATASET_PRESETS, DatasetSplits, load_dataset, make_splits
from repro.data.loader import TrafficWindowSampler, collate_trajectories
from repro.data.mapmatch import HMMMapMatcher
from repro.data.synthetic import SyntheticCity, SyntheticCityConfig
from repro.data.timeutils import SECONDS_PER_HOUR
from repro.data.traffic_state import TRAFFIC_CHANNELS
from repro.data.trajectory import Trajectory
from repro.eval.perfbench import datasets_identical, reference_city_build
from repro.roadnet.generators import grid_city


class TestSyntheticCity:
    def test_trajectories_follow_road_connectivity(self, tiny_dataset):
        network = tiny_dataset.network
        for trajectory in tiny_dataset.trajectories[:30]:
            for a, b in zip(trajectory.segments[:-1], trajectory.segments[1:]):
                assert b in network.successors(a)

    def test_timestamps_strictly_increase(self, tiny_dataset):
        for trajectory in tiny_dataset.trajectories:
            assert np.all(np.diff(trajectory.timestamps) > 0)

    def test_each_user_has_trajectories(self, tiny_dataset):
        users = {t.user_id for t in tiny_dataset.trajectories}
        assert len(users) >= 6

    def test_trajectories_within_time_axis(self, tiny_dataset):
        axis = tiny_dataset.time_axis
        for trajectory in tiny_dataset.trajectories:
            assert trajectory.end_time < axis.end

    def test_labels_are_binary(self, tiny_dataset):
        labels = {t.label for t in tiny_dataset.trajectories}
        assert labels <= {0, 1}

    def test_rush_hour_congestion_slows_traffic(self, tiny_network):
        config = SyntheticCityConfig(num_users=4, trajectories_per_user=2, num_days=1, seed=1)
        city = SyntheticCity(tiny_network, config)
        axis = city.time_axis
        rush = axis.slice_of(8.5 * SECONDS_PER_HOUR)
        quiet = axis.slice_of(3.0 * SECONDS_PER_HOUR)
        traffic = city.generate_traffic_states([])
        speed = TRAFFIC_CHANNELS.index("speed")
        assert traffic.values[:, rush, speed].mean() < traffic.values[:, quiet, speed].mean()

    def test_traffic_states_match_network_and_axis(self, tiny_dataset):
        traffic = tiny_dataset.traffic_states
        assert traffic.num_segments == tiny_dataset.network.num_segments
        assert traffic.num_slices == tiny_dataset.time_axis.num_slices

    def test_config_validation(self):
        with pytest.raises(ValueError):
            SyntheticCityConfig(num_users=0)
        with pytest.raises(ValueError):
            SyntheticCityConfig(commute_probability=1.5)

    def test_unreachable_route_length_raises_instead_of_looping(self, tiny_network):
        # The rejection loop drawing home/work pairs used to spin forever
        # when no two core segments were min_route_hops apart.
        config = SyntheticCityConfig(num_users=1, min_route_hops=50, max_route_hops=60)
        with pytest.raises(ValueError, match="min_route_hops=50 is unreachable"):
            SyntheticCity(tiny_network, config)

    def test_reproducible_with_seed(self, tiny_network):
        config = SyntheticCityConfig(num_users=4, trajectories_per_user=2, num_days=1, seed=42)
        a = SyntheticCity(tiny_network, config).generate_trajectories()
        b = SyntheticCity(tiny_network, config).generate_trajectories()
        assert len(a) == len(b)
        assert a[0].segments == b[0].segments


class TestDatasetPresets:
    def test_presets_exist(self):
        assert set(DATASET_PRESETS) == {"bj_like", "xa_like", "cd_like"}

    @pytest.mark.parametrize("name", sorted(DATASET_PRESETS))
    def test_every_preset_builds(self, name):
        summary = load_dataset(name).summary()
        assert summary["trajectories"] > 0 and summary["users"] > 0
        assert summary["has_dynamic_features"] == float(DATASET_PRESETS[name]["dynamic_features"])

    def test_bj_like_is_the_largest_city(self):
        # Table II's ordering: BJ has the most road segments.
        sizes = {name: load_dataset(name).network.num_segments for name in DATASET_PRESETS}
        assert max(sizes, key=sizes.get) == "bj_like"

    def test_unknown_dataset_rejected(self):
        with pytest.raises(KeyError):
            load_dataset("nyc_like")

    def test_make_splits_partition(self):
        splits = make_splits(100, (0.6, 0.2, 0.2), seed=0)
        assert sum(splits.sizes) == 100
        assert set(splits.train) | set(splits.validation) | set(splits.test) == set(range(100))

    def test_make_splits_rejects_bad_ratios(self):
        with pytest.raises(ValueError):
            make_splits(10, (0.5, 0.2, 0.2))

    def test_splits_reject_overlap(self):
        with pytest.raises(ValueError):
            DatasetSplits(train=(0, 1), validation=(1, 2), test=(3,))

    def test_dataset_split_accessors(self, tiny_dataset):
        assert len(tiny_dataset.train_trajectories) == len(tiny_dataset.splits.train)
        assert len(tiny_dataset.test_trajectories) == len(tiny_dataset.splits.test)

    def test_summary_fields(self, tiny_dataset):
        summary = tiny_dataset.summary()
        assert summary["road_segments"] == tiny_dataset.network.num_segments
        assert summary["has_dynamic_features"] == 1.0


class TestSharedGraphBuild:
    """The shared-graph city build against the graph-copy formulation it replaced.

    Both builds run in this process, so the comparison is bit for bit
    without a committed golden hash (float bytes can differ between CPUs).
    """

    @pytest.mark.parametrize(
        "name, seed, scale",
        [(name, seed, 1.0) for name in sorted(DATASET_PRESETS) for seed in (0, 1, 2)] + [("xa_like", 0, 0.5)],
    )
    def test_build_matches_reference_bit_for_bit(self, name, seed, scale):
        built = load_dataset(name, seed=seed, scale=scale, use_cache=False)
        with reference_city_build():
            reference = load_dataset(name, seed=seed, scale=scale, use_cache=False)
        assert [t.segments for t in built.trajectories] == [t.segments for t in reference.trajectories]
        assert datasets_identical(built, reference)

    def test_reference_patches_are_restored(self):
        from repro.roadnet.network import RoadNetwork

        def current():
            return (
                RoadNetwork.shortest_path,
                RoadNetwork.hop_distance,
                SyntheticCity._route_preferences,
                SyntheticCity._route_for,
                SyntheticCity._simulate_trip,
            )

        originals = current()
        with pytest.raises(RuntimeError):
            with reference_city_build():
                assert all(patched is not original for patched, original in zip(current(), originals))
                raise RuntimeError("leave the block early")
        assert current() == originals

    def test_routes_are_searched_once_per_user_and_endpoints(self, monkeypatch):
        from repro.roadnet.network import RoadNetwork

        searches = []
        search = RoadNetwork.shortest_path

        def counting(network, source, target, weights=None):
            searches.append((id(weights), source, target))
            return search(network, source, target, weights=weights)

        monkeypatch.setattr(RoadNetwork, "shortest_path", counting)
        load_dataset("xa_like", seed=0, use_cache=False)
        # Commutes repeat a user's (home, work) pair, so the memo skips a
        # large share of the searches; each distinct key is searched once.
        assert len(searches) == len(set(searches))

    def test_identity_check_sees_a_changed_timestamp(self, tiny_dataset):
        import copy

        changed = copy.deepcopy(tiny_dataset)
        changed.trajectories[0].timestamps[-1] += 1e-9
        assert datasets_identical(tiny_dataset, tiny_dataset)
        assert not datasets_identical(tiny_dataset, changed)


class TestLoaders:
    def test_collate_pads_and_masks(self, tiny_dataset):
        batch = collate_trajectories(tiny_dataset.trajectories[:4])
        assert batch.segments.shape == batch.timestamps.shape == batch.padding_mask.shape
        for row in range(4):
            length = batch.lengths[row]
            assert not batch.padding_mask[row, :length].any()
            assert batch.padding_mask[row, length:].all()

    def test_collate_empty_rejected(self):
        with pytest.raises(ValueError):
            collate_trajectories([])

    def test_collate_chunks_cover_all_trajectories(self, tiny_dataset):
        trajectories = tiny_dataset.trajectories
        batches = [collate_trajectories(trajectories[start : start + 7]) for start in range(0, len(trajectories), 7)]
        assert len(batches) == int(np.ceil(len(trajectories) / 7))
        assert all(batch.batch_size == 7 for batch in batches[:-1])
        seen = [i for batch in batches for i in batch.trajectory_ids.tolist()]
        assert seen == [t.trajectory_id for t in trajectories]

    def test_window_sampler_shapes(self, tiny_dataset):
        sampler = TrafficWindowSampler(tiny_dataset.traffic_states, history=4, horizon=2, seed=0)
        windows = sampler.sample(5, split="train")
        for window in windows:
            assert window.history.shape == (4, len(TRAFFIC_CHANNELS))
            assert window.target.shape == (2, len(TRAFFIC_CHANNELS))

    def test_window_sampler_temporal_split_disjoint(self, tiny_dataset):
        sampler = TrafficWindowSampler(tiny_dataset.traffic_states, history=4, horizon=2, seed=0)
        train_low, train_high = sampler.valid_start_range("train")
        test_low, test_high = sampler.valid_start_range("test")
        assert train_high <= test_low + 1
        assert test_high > test_low

    def test_window_sampler_rejects_long_windows(self, tiny_dataset):
        slices = tiny_dataset.traffic_states.num_slices
        with pytest.raises(ValueError):
            TrafficWindowSampler(tiny_dataset.traffic_states, history=slices, horizon=1)

    def test_window_values_match_source(self, tiny_dataset):
        sampler = TrafficWindowSampler(tiny_dataset.traffic_states, history=3, horizon=2, seed=0)
        window = sampler.window(segment_id=1, start_slice=5)
        assert np.allclose(window.history, tiny_dataset.traffic_states.values[1, 5:8])
        assert np.allclose(window.target, tiny_dataset.traffic_states.values[1, 8:10])


class TestMapMatching:
    def test_exact_midpoints_recovered(self, tiny_dataset):
        matcher = HMMMapMatcher(tiny_dataset.network)
        trajectory = max(tiny_dataset.trajectories, key=len)
        points = [tiny_dataset.network.segments[s].midpoint for s in trajectory.segments]
        matched = matcher.match(points)
        # Bidirectional segments share midpoints, so direction is ambiguous for
        # the HMM; require the match to be the segment or its reverse twin.
        hops = [tiny_dataset.network.hop_distance(a, b) for a, b in zip(matched, trajectory.segments)]
        near = np.mean([(a == b) or (0 <= h <= 1) for (a, b), h in zip(zip(matched, trajectory.segments), hops)])
        assert near > 0.8

    def test_noisy_points_stay_near_truth(self, tiny_dataset, rng):
        matcher = HMMMapMatcher(tiny_dataset.network)
        trajectory = max(tiny_dataset.trajectories, key=len)
        points = [
            tuple(np.asarray(tiny_dataset.network.segments[s].midpoint) + rng.normal(0, 0.05, 2))
            for s in trajectory.segments
        ]
        matched = matcher.match(points)
        hops = [tiny_dataset.network.hop_distance(a, b) for a, b in zip(matched, trajectory.segments)]
        assert np.mean([0 <= h <= 2 for h in hops]) > 0.7

    def test_empty_input(self, tiny_dataset):
        assert HMMMapMatcher(tiny_dataset.network).match([]) == []

    def test_interpolation_counts(self, tiny_dataset):
        matcher = HMMMapMatcher(tiny_dataset.network)
        positions = matcher.interpolate_positions([0, 5], [3], mode="linear")
        assert len(positions) == 5

    def test_interpolation_mode_validation(self, tiny_dataset):
        matcher = HMMMapMatcher(tiny_dataset.network)
        with pytest.raises(ValueError):
            matcher.interpolate_positions([0, 1], [1], mode="spline")
        with pytest.raises(ValueError):
            matcher.interpolate_positions([0, 1], [1, 2])

    def test_invalid_parameters(self, tiny_dataset):
        with pytest.raises(ValueError):
            HMMMapMatcher(tiny_dataset.network, emission_sigma_km=0.0)


@pytest.fixture(scope="module")
def grid_network():
    return grid_city(rows=4, cols=4, block_km=0.6, seed=9)


@pytest.fixture(scope="module")
def grid_walk(grid_network):
    return grid_network.random_walk(0, length=9, rng=np.random.default_rng(3))


def _walk_positions(network, segments, fixes_per_segment=2, noise_km=0.0, seed=0):
    """Positions spread along each walked segment, with isotropic Gaussian noise."""
    rng = np.random.default_rng(seed)
    positions = []
    for segment_id in segments:
        segment = network.segment(segment_id)
        for k in range(fixes_per_segment):
            fraction = (k + 0.5) / fixes_per_segment
            x = segment.start[0] + fraction * (segment.end[0] - segment.start[0])
            y = segment.start[1] + fraction * (segment.end[1] - segment.start[1])
            if noise_km > 0:
                x += float(rng.normal(scale=noise_km))
                y += float(rng.normal(scale=noise_km))
            positions.append((x, y))
    return positions


def _collapse_repeats(matched):
    return [s for i, s in enumerate(matched) if i == 0 or s != matched[i - 1]]


class TestMapMatchingWalks:
    """``HMMMapMatcher.match`` on positions rendered along a known walk."""

    def test_clean_walk_recovers_most_segments(self, grid_network, grid_walk):
        matched = HMMMapMatcher(grid_network).match(_walk_positions(grid_network, grid_walk))
        # the matcher works on midpoints, so adjacent parallel segments can be
        # confused; require a clear majority of the original path to reappear
        overlap = len(set(matched) & set(grid_walk)) / len(set(grid_walk))
        assert overlap >= 0.5

    def test_matched_walk_is_a_valid_trajectory(self, grid_network, grid_walk):
        positions = _walk_positions(grid_network, grid_walk, noise_km=0.03, seed=1)
        matcher = HMMMapMatcher(grid_network)
        matched = matcher.match(positions)
        assert len(matched) == len(positions)
        assert all(0 <= s < grid_network.num_segments for s in matched)
        path = _collapse_repeats(matched)
        # every move between consecutive distinct segments is a route the
        # HMM's transition model allows
        hops = [grid_network.hop_distance(a, b) for a, b in zip(path, path[1:])]
        assert all(1 <= h <= matcher.max_hop_gap for h in hops)
        trajectory = Trajectory(trajectory_id=0, user_id=0, segments=path, timestamps=[60.0 * i for i in range(len(path))])
        assert len(trajectory) >= 2

    def test_custom_num_candidates_is_honoured(self, grid_network, grid_walk):
        matcher = HMMMapMatcher(grid_network, num_candidates=3)
        positions = _walk_positions(grid_network, grid_walk)
        matched = matcher.match(positions)
        for position, segment_id in zip(positions, matched):
            candidates = matcher.candidates_for(position)
            assert len(candidates) == 3
            assert segment_id in candidates

    @given(seed=st.integers(0, 200))
    @settings(max_examples=10, deadline=None)
    def test_noisy_walks_never_crash(self, grid_network, seed):
        rng = np.random.default_rng(seed)
        walk = grid_network.random_walk(int(rng.integers(0, grid_network.num_segments)), length=6, rng=rng)
        positions = _walk_positions(grid_network, walk, noise_km=0.05, seed=seed)
        matched = HMMMapMatcher(grid_network).match(positions)
        assert len(matched) == len(positions)
        assert all(0 <= s < grid_network.num_segments for s in matched)
