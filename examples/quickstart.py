"""Quickstart: train a small BIGCity model and run every kind of task once.

Run with:

    python examples/quickstart.py

The script builds the XA-like synthetic city dataset, trains BIGCity with a
short two-stage schedule (a couple of minutes on a laptop CPU), and then asks
the single trained model to perform travel-time estimation, next-hop
prediction, trajectory classification, similarity search, trajectory recovery
and traffic-state forecasting — the multi-task, multi-modality behaviour the
paper calls MTMD.
"""

from __future__ import annotations

import numpy as np

from repro.core import BIGCityConfig, TrainingConfig, train_bigcity
from repro.data import load_dataset, subsample_trajectory


def main() -> None:
    print("Loading the XA-like synthetic city dataset ...")
    dataset = load_dataset("xa_like", seed=0)
    print(f"  {dataset.summary()}")

    print("\nTraining BIGCity (stage 1: masked reconstruction, stage 2: prompt tuning) ...")
    model_config = BIGCityConfig(hidden_dim=32, d_model=64, num_layers=3, seed=0)
    training_config = TrainingConfig(
        stage1_epochs=2,
        stage2_epochs=6,
        batch_size=8,
        traffic_sequences_per_epoch=32,
        seed=0,
    )
    model, logs = train_bigcity(dataset, model_config, training_config)
    for stage, stage_logs in logs.items():
        losses = ", ".join(f"{log.loss:.2f}" for log in stage_logs)
        print(f"  {stage}: per-epoch loss {losses}")

    test = dataset.test_trajectories
    sample = [t for t in test if len(t) >= 4][:5]

    print("\n--- Travel time estimation -------------------------------------")
    predicted = model.estimate_travel_time(sample)
    for trajectory, estimate in zip(sample, predicted):
        print(f"  trajectory {trajectory.trajectory_id}: predicted {estimate / 60:5.1f} min, actual {trajectory.duration / 60:5.1f} min")

    print("\n--- Next hop prediction ------------------------------------------")
    rankings = model.predict_next_hop(sample, top_k=3)
    for trajectory, ranking in zip(sample, rankings):
        print(f"  trajectory {trajectory.trajectory_id}: true next segment {trajectory.segments[-1]}, top-3 candidates {list(ranking)}")

    print("\n--- Trajectory classification (user linkage) ---------------------")
    users = model.classify_trajectory(sample, target="user")
    for trajectory, user in zip(sample, users):
        print(f"  trajectory {trajectory.trajectory_id}: predicted user {user}, true user {trajectory.user_id}")

    print("\n--- Most similar trajectory search --------------------------------")
    embeddings = model.trajectory_embeddings(test[:20])
    query = embeddings[0]
    similarity = embeddings @ query / (np.linalg.norm(embeddings, axis=1) * np.linalg.norm(query) + 1e-9)
    print(f"  nearest neighbours of trajectory {test[0].trajectory_id}: {list(np.argsort(-similarity)[1:4])}")

    print("\n--- Trajectory recovery -------------------------------------------")
    long_trajectory = max(test, key=len)
    _, kept = subsample_trajectory(long_trajectory, keep_ratio=0.3, rng=np.random.default_rng(0))
    [recovered] = model.recover_trajectories_batch([long_trajectory], [kept])
    missing = np.setdiff1d(np.arange(len(long_trajectory)), kept)
    truth = [long_trajectory.segments[i] for i in missing]
    correct = int(np.sum(recovered == np.asarray(truth)))
    print(f"  recovered {correct}/{len(truth)} masked segments of trajectory {long_trajectory.trajectory_id}")

    print("\n--- Traffic state forecasting --------------------------------------")
    [forecast] = model.predict_traffic_states_batch([(3, 60, 6, 6)])
    actual = dataset.traffic_states.values[3, 66:72, 0]
    print(f"  segment 3 speed forecast (km/h): {np.round(forecast[:, 0], 1)}")
    print(f"  segment 3 speed actual   (km/h): {np.round(actual, 1)}")

    print("\nDone: one model, eight heterogeneous tasks.")


if __name__ == "__main__":
    main()
