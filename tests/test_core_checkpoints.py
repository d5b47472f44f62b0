"""Tests for whole-model checkpoints (`repro.core.checkpoints`)."""

from __future__ import annotations

import dataclasses
import json
import re

import numpy as np
import pytest

from repro.core.checkpoints import load_bigcity, read_checkpoint_metadata, save_bigcity
from repro.nn.serialization import save_state_dict


class TestSaveAndLoad:
    def test_round_trip_preserves_predictions(self, trained_model, tiny_dataset, tmp_path):
        path = save_bigcity(trained_model, tmp_path / "model.npz", dataset_name=tiny_dataset.name)
        restored, metadata = load_bigcity(path, tiny_dataset)
        assert metadata["dataset_name"] == tiny_dataset.name

        trajectories = [t for t in tiny_dataset.test_trajectories if len(t) >= 3][:3]
        original = trained_model.estimate_travel_time(trajectories)
        reloaded = restored.estimate_travel_time(trajectories)
        np.testing.assert_allclose(original, reloaded, rtol=1e-6)

    def test_round_trip_preserves_config(self, trained_model, tiny_dataset, tmp_path):
        path = save_bigcity(trained_model, tmp_path / "model.npz")
        restored, _ = load_bigcity(path, tiny_dataset)
        assert restored.config == trained_model.config

    def test_metadata_readable_without_model(self, trained_model, tiny_dataset, tmp_path):
        path = save_bigcity(
            trained_model, tmp_path / "model.npz", dataset_name=tiny_dataset.name, extra_metadata={"note": "unit-test"}
        )
        metadata = read_checkpoint_metadata(path)
        assert metadata["note"] == "unit-test"
        assert metadata["checkpoint_format"] == "1"
        assert "bigcity_config" in metadata

    def test_dataset_mismatch_detected(self, trained_model, tiny_dataset, tiny_dataset_no_traffic, tmp_path):
        path = save_bigcity(trained_model, tmp_path / "model.npz", dataset_name=tiny_dataset.name)
        with pytest.raises(ValueError):
            load_bigcity(path, tiny_dataset_no_traffic)

    def test_bare_state_dict_is_rejected(self, trained_model, tiny_dataset, tmp_path):
        bare = save_state_dict(trained_model, tmp_path / "bare.npz")
        with pytest.raises(ValueError):
            load_bigcity(bare, tiny_dataset)

    def test_missing_file_raises(self, tiny_dataset, tmp_path):
        with pytest.raises(FileNotFoundError):
            read_checkpoint_metadata(tmp_path / "nothing.npz")


class TestRecordedConfig:
    """A config record that does not fit ``BIGCityConfig`` is a ``ValueError`` naming the file."""

    def _write(self, model, path, config_record):
        return save_state_dict(model, path, metadata={"bigcity_config": json.dumps(config_record)})

    #: Fields that checkpoints written before their removal still record.
    DROPPED_FIELDS = {"dropout": 0.0, "lambda_gen": 1.0, "lora_only": True, "pretrain_full_backbone": True}

    @pytest.mark.parametrize("field", sorted(DROPPED_FIELDS))
    def test_unknown_field_names_path_and_field(self, trained_model, tiny_dataset, tmp_path, field):
        record = {**dataclasses.asdict(trained_model.config), field: self.DROPPED_FIELDS[field]}
        path = self._write(trained_model, tmp_path / "old.npz", record)
        with pytest.raises(ValueError, match=rf"old\.npz.*\['{field}'\]"):
            load_bigcity(path, tiny_dataset)

    def test_every_unknown_field_is_named(self, trained_model, tiny_dataset, tmp_path):
        record = {**dataclasses.asdict(trained_model.config), **self.DROPPED_FIELDS}
        path = self._write(trained_model, tmp_path / "old.npz", record)
        names = ", ".join(repr(field) for field in sorted(self.DROPPED_FIELDS))
        with pytest.raises(ValueError, match=re.escape(f"[{names}]")):
            load_bigcity(path, tiny_dataset)

    @pytest.mark.parametrize("record", [[1, 2, 3], "config", 7, None], ids=["list", "string", "number", "null"])
    def test_config_that_is_not_an_object(self, trained_model, tiny_dataset, tmp_path, record):
        path = self._write(trained_model, tmp_path / "list.npz", record)
        with pytest.raises(ValueError, match=r"list\.npz.*JSON object"):
            load_bigcity(path, tiny_dataset)
