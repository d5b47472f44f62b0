"""Joint trajectory + traffic analysis, the scenario that motivates MTMD models.

The paper's introduction argues that applications such as car-hailing
platforms need to reason about an *individual* trip and the *population*
traffic state at the same time.  This example plays that scenario out: for a
driver part-way through a trip, one BIGCity model

1. predicts where the driver goes next (next-hop prediction),
2. forecasts the traffic speed on the candidate next segments
   (traffic-state prediction), and
3. estimates the remaining travel time of the trip (travel-time estimation),

which together give an ETA-with-congestion answer that would otherwise
require three separately trained models.

Run with:  python examples/navigation_assistant.py
"""

from __future__ import annotations

import numpy as np

from repro.core import BIGCityConfig, TrainingConfig, train_bigcity
from repro.data import load_dataset


def main() -> None:
    dataset = load_dataset("xa_like", seed=0)
    print(f"City: {dataset.num_segments} road segments, {len(dataset.trajectories)} trajectories")

    print("Training BIGCity ...")
    model, _ = train_bigcity(
        dataset,
        BIGCityConfig(hidden_dim=32, d_model=64, num_layers=3, seed=0),
        TrainingConfig(stage1_epochs=2, stage2_epochs=5, batch_size=8, traffic_sequences_per_epoch=32, seed=0),
    )

    # Pick an ongoing trip from the test split: the driver has completed the
    # first 60% of the trajectory.
    trip = max(dataset.test_trajectories, key=len)
    progress = max(3, int(len(trip) * 0.6))
    so_far = trip.slice(0, progress)
    print(f"\nDriver {trip.user_id} is on segment {so_far.segments[-1]} after {so_far.duration / 60:.1f} min of driving.")

    # 1. Where next?
    candidates = model.predict_next_hop([trip.slice(0, progress + 1)], top_k=3)[0]
    print(f"Most likely next segments: {list(candidates)} (actual: {trip.segments[progress]})")

    # 2. How congested are those candidates right now?
    current_slice = dataset.time_axis.slice_of(so_far.end_time)
    history = 6
    start = max(current_slice - history, 0)
    print("Forecast speed on candidate segments for the next half hour:")
    forecasts = model.predict_traffic_states_batch([(int(segment), start, history, 1) for segment in candidates])
    for segment, forecast in zip(candidates, forecasts):
        limit = dataset.network.segment(int(segment)).speed_limit
        congestion = "congested" if forecast[0, 0] < 0.7 * limit else "free-flowing"
        print(f"  segment {int(segment)}: {forecast[0, 0]:5.1f} km/h (limit {limit:.0f}) -> {congestion}")

    # 3. When does the driver arrive?
    predicted_total = model.estimate_travel_time([trip])[0]
    elapsed = so_far.duration
    remaining = max(predicted_total - elapsed, 0.0)
    actual_remaining = trip.duration - elapsed
    print(
        f"\nETA: {remaining / 60:.1f} min remaining "
        f"(actual {actual_remaining / 60:.1f} min, trip total predicted {predicted_total / 60:.1f} min)"
    )


if __name__ == "__main__":
    main()
