"""Tests for the two-stage training procedure and cross-city transfer."""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.config import BIGCityConfig
from repro.core.model import BIGCity
from repro.core.prompts import TaskType
from repro.core.training import (
    EpochLog,
    MaskedReconstructionTrainer,
    PromptTuningTrainer,
    TrainingConfig,
    train_bigcity,
)
from repro.core.transfer import transfer_backbone


@pytest.fixture()
def tiny_training_config():
    return TrainingConfig(
        stage1_epochs=1,
        stage2_epochs=1,
        batch_size=8,
        max_trajectories=12,
        traffic_sequences_per_epoch=3,
        seed=0,
    )


class TestTrainingConfig:
    def test_validation(self):
        with pytest.raises(ValueError):
            TrainingConfig(batch_size=0)
        with pytest.raises(ValueError):
            TrainingConfig(mask_ratio=0.0)

    def test_default_tasks_cover_both_modalities(self):
        tasks = TrainingConfig().tasks
        assert TaskType.NEXT_HOP in tasks
        assert TaskType.TRAFFIC_MULTI_STEP in tasks


class TestMaskedReconstruction:
    def test_prompt_pool_mixes_modalities(self, tiny_dataset, tiny_config, tiny_training_config):
        model = BIGCity.from_dataset(tiny_dataset, config=tiny_config)
        trainer = MaskedReconstructionTrainer(model, tiny_dataset, tiny_training_config)
        prompts = trainer.build_prompts()
        kinds = {p.sequence.kind for p in prompts}
        assert kinds == {"trajectory", "traffic_state"}
        assert all(p.task is TaskType.MASKED_RECONSTRUCTION for p in prompts)

    def test_training_reduces_loss(self, tiny_dataset, tiny_config):
        model = BIGCity.from_dataset(tiny_dataset, config=tiny_config)
        config = TrainingConfig(
            stage1_epochs=3, batch_size=8, max_trajectories=12, traffic_sequences_per_epoch=2, seed=0
        )
        logs = MaskedReconstructionTrainer(model, tiny_dataset, config).train()
        assert len(logs) == 3
        assert logs[-1].loss < logs[0].loss

    def test_backbone_refrozen_after_stage1(self, tiny_dataset, tiny_config, tiny_training_config):
        model = BIGCity.from_dataset(tiny_dataset, config=tiny_config)
        MaskedReconstructionTrainer(model, tiny_dataset, tiny_training_config).train()
        base_params = [
            p for name, p in model.backbone.llm.named_parameters() if "lora" not in name
        ]
        assert all(not p.requires_grad for p in base_params)
        lora_params = [p for name, p in model.backbone.llm.named_parameters() if "lora" in name]
        assert all(p.requires_grad for p in lora_params)

    def test_epoch_logs_record_time_and_breakdown(self, tiny_dataset, tiny_config, tiny_training_config):
        model = BIGCity.from_dataset(tiny_dataset, config=tiny_config)
        logs = MaskedReconstructionTrainer(model, tiny_dataset, tiny_training_config).train()
        assert isinstance(logs[0], EpochLog)
        assert logs[0].seconds > 0
        assert "clas" in logs[0].breakdown

    def test_epoch_logs_summarise_the_clipped_norms(self, tiny_dataset, tiny_config, tiny_training_config, monkeypatch):
        import repro.core.training as training

        norms = []
        clip = training.clip_grad_norm

        def recording(parameters, max_norm):
            norms.append(clip(parameters, max_norm))
            return norms[-1]

        monkeypatch.setattr(training, "clip_grad_norm", recording)
        model = BIGCity.from_dataset(tiny_dataset, config=tiny_config)
        (log,) = MaskedReconstructionTrainer(model, tiny_dataset, tiny_training_config).train()
        assert norms and all(norm > 0 for norm in norms)
        assert log.grad_norm_mean == pytest.approx(sum(norms) / len(norms), rel=1e-15)
        assert log.grad_norm_max == max(norms)


class TestPromptTuning:
    def test_full_training_set_contains_requested_tasks(self, tiny_dataset, tiny_config, tiny_training_config):
        model = BIGCity.from_dataset(tiny_dataset, config=tiny_config)
        trainer = PromptTuningTrainer(model, tiny_dataset, tiny_training_config)
        tasks = {p.task for p in trainer.build_prompts()}
        assert TaskType.NEXT_HOP in tasks
        assert TaskType.TRAVEL_TIME in tasks
        assert TaskType.CLASSIFICATION in tasks
        assert TaskType.TRAFFIC_MULTI_STEP in tasks

    def test_task_subset_restricts_prompts(self, tiny_dataset, tiny_config, tiny_training_config):
        model = BIGCity.from_dataset(tiny_dataset, config=tiny_config)
        trainer = PromptTuningTrainer(
            model, tiny_dataset, tiny_training_config, tasks=(TaskType.TRAVEL_TIME,)
        )
        tasks = {p.task for p in trainer.build_prompts()}
        assert tasks == {TaskType.TRAVEL_TIME}

    def test_tokenizer_frozen_during_stage2(self, tiny_dataset, tiny_config, tiny_training_config):
        model = BIGCity.from_dataset(tiny_dataset, config=tiny_config)
        trainer = PromptTuningTrainer(model, tiny_dataset, tiny_training_config, tasks=(TaskType.CLASSIFICATION,))
        trainer.train(epochs=1)
        assert all(not p.requires_grad for p in model.tokenizer.parameters())
        assert any(p.requires_grad for p in model.heads.parameters())

    def test_next_hop_augmentation_adds_prompts(self, tiny_dataset, tiny_config):
        model = BIGCity.from_dataset(tiny_dataset, config=tiny_config)
        base = TrainingConfig(
            stage2_epochs=1, batch_size=8, max_trajectories=12, traffic_sequences_per_epoch=0,
            next_hop_augmentation=0, seed=0,
        )
        augmented = TrainingConfig(
            stage2_epochs=1, batch_size=8, max_trajectories=12, traffic_sequences_per_epoch=0,
            next_hop_augmentation=2, seed=0,
        )
        count_base = len(
            [p for p in PromptTuningTrainer(model, tiny_dataset, base, tasks=(TaskType.NEXT_HOP,)).build_prompts()]
        )
        count_augmented = len(
            [p for p in PromptTuningTrainer(model, tiny_dataset, augmented, tasks=(TaskType.NEXT_HOP,)).build_prompts()]
        )
        assert count_augmented > count_base

    def test_bj_like_dataset_uses_pattern_classification(self, tiny_dataset_no_traffic, tiny_config, tiny_training_config):
        model = BIGCity.from_dataset(tiny_dataset_no_traffic, config=tiny_config)
        trainer = PromptTuningTrainer(
            model, tiny_dataset_no_traffic, tiny_training_config, tasks=(TaskType.CLASSIFICATION,)
        )
        prompts = trainer.build_prompts()
        assert prompts
        assert all(p.metadata["target"] == "pattern" for p in prompts)

    def test_train_bigcity_end_to_end(self, tiny_dataset, tiny_config, tiny_training_config):
        model, logs = train_bigcity(tiny_dataset, tiny_config, tiny_training_config)
        assert logs["stage1"] and logs["stage2"]
        assert not model.training  # left in eval mode


class TestTransfer:
    def test_backbone_weights_are_copied(self, trained_model, tiny_dataset, tiny_training_config):
        transferred, logs = transfer_backbone(
            trained_model, tiny_dataset, training_config=tiny_training_config, finetune_epochs=1
        )
        assert logs
        source_state = trained_model.backbone.state_dict()
        target_state = transferred.backbone.state_dict()
        # Frozen base weights must be identical after transfer fine-tuning.
        base_keys = [k for k in source_state if "lora" not in k and "token_embedding" not in k]
        for key in base_keys[:10]:
            assert np.allclose(source_state[key], target_state[key])

    def test_transferred_model_predicts(self, trained_model, tiny_dataset, tiny_training_config):
        transferred, _ = transfer_backbone(
            trained_model, tiny_dataset, training_config=tiny_training_config, finetune_epochs=1
        )
        trajectories = tiny_dataset.test_trajectories[:3]
        assert transferred.estimate_travel_time(trajectories).shape == (3,)
