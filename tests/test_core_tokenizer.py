"""Tests for the spatiotemporal tokenizer."""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.config import BIGCityConfig
from repro.core.st_unit import traffic_series_to_units, trajectory_to_units
from repro.core.tokenizer import SpatioTemporalTokenizer
from repro.nn import functional as F


@pytest.fixture(scope="module")
def tokenizer_config():
    return BIGCityConfig.tiny()


@pytest.fixture(scope="module")
def tokenizer(tiny_dataset, tokenizer_config):
    return SpatioTemporalTokenizer(
        network=tiny_dataset.network,
        time_axis=tiny_dataset.time_axis,
        config=tokenizer_config,
        traffic_states=tiny_dataset.traffic_states,
    )


class TestConstruction:
    def test_has_both_encoders_with_traffic(self, tokenizer):
        assert tokenizer.has_static_encoder and tokenizer.has_dynamic_encoder
        assert tokenizer.fused_dim == 2 * tokenizer.config.hidden_dim

    def test_without_traffic_dynamic_encoder_is_dropped(self, tiny_dataset, tokenizer_config):
        tok = SpatioTemporalTokenizer(tiny_dataset.network, tiny_dataset.time_axis, tokenizer_config, None)
        assert tok.has_static_encoder and not tok.has_dynamic_encoder
        assert tok.fused_dim == tokenizer_config.hidden_dim

    def test_wo_static_config(self, tiny_dataset):
        config = BIGCityConfig.tiny()
        config.use_static_encoder = False
        tok = SpatioTemporalTokenizer(tiny_dataset.network, tiny_dataset.time_axis, config, tiny_dataset.traffic_states)
        assert not tok.has_static_encoder and tok.has_dynamic_encoder

    def test_both_encoders_disabled_rejected(self):
        with pytest.raises(ValueError):
            BIGCityConfig(use_static_encoder=False, use_dynamic_encoder=False)

    def test_wo_fusion_config(self, tiny_dataset):
        config = BIGCityConfig.tiny()
        config.use_fusion = False
        tok = SpatioTemporalTokenizer(tiny_dataset.network, tiny_dataset.time_axis, config, tiny_dataset.traffic_states)
        assert tok.fusion is None
        sequence = trajectory_to_units(tiny_dataset.trajectories[0], tiny_dataset.traffic_states)
        assert tok.encode_batch([sequence])[0].shape == (len(sequence), config.d_model)


class TestRepresentations:
    def test_static_representations_shape(self, tokenizer, tiny_dataset):
        static = tokenizer.static_representations()
        assert static.shape == (tiny_dataset.network.num_segments, tokenizer.config.hidden_dim)

    def test_static_representations_are_distinct_per_segment(self, tokenizer):
        static = tokenizer.static_representations().data
        # The road-ID embedding guarantees segments do not collapse to one vector.
        distances = np.linalg.norm(static - static.mean(axis=0), axis=1)
        assert np.median(distances) > 1e-3

    def test_dynamic_representations_depend_on_slice(self, tokenizer):
        early = tokenizer.dynamic_representations(5).data
        late = tokenizer.dynamic_representations(20).data
        assert early.shape == late.shape
        assert not np.allclose(early, late)

    def test_spatial_table_serves_requested_slices(self, tokenizer):
        slices, num_segments = [3, 7, 7, 9], tokenizer.network.num_segments
        segments = np.tile(np.arange(num_segments), len(slices))
        table, first, second = tokenizer._spatial_table(np.repeat(slices, num_segments), segments)
        fused = F.gather_rows(table, first, second).data.reshape(len(slices), num_segments, -1)
        assert fused.shape == (len(slices), num_segments, tokenizer.fused_dim)
        assert np.array_equal(fused[1], fused[2])


class TestEncoding:
    def test_trajectory_tokens_shape(self, tokenizer, tiny_dataset):
        sequence = trajectory_to_units(tiny_dataset.trajectories[0], tiny_dataset.traffic_states)
        tokens = tokenizer.encode_batch([sequence])[0]
        assert tokens.shape == (len(sequence), tokenizer.config.d_model)

    def test_traffic_tokens_shape(self, tokenizer, tiny_dataset):
        sequence = traffic_series_to_units(tiny_dataset.traffic_states, 1, 2, 8)
        assert tokenizer.encode_batch([sequence])[0].shape == (8, tokenizer.config.d_model)

    def test_time_feature_mask_changes_tokens(self, tokenizer, tiny_dataset):
        sequence = trajectory_to_units(tiny_dataset.trajectories[0], tiny_dataset.traffic_states)
        plain = tokenizer.encode_batch([sequence])[0].data
        mask = np.ones(len(sequence), dtype=bool)
        mask[0] = False
        hidden = tokenizer.encode_batch([sequence], [mask])[0].data
        assert np.allclose(plain[0], hidden[0])
        assert not np.allclose(plain[1:], hidden[1:])

    def test_traffic_override_changes_tokens(self, tokenizer, tiny_dataset):
        sequence = traffic_series_to_units(tiny_dataset.traffic_states, 1, 2, 6)
        plain = tokenizer.encode_batch([sequence])[0].data
        override = tiny_dataset.traffic_states.values.copy()
        override[:, :, :] = override.mean()
        changed = tokenizer.encode_batch([sequence], traffic_override=override)[0].data
        assert not np.allclose(plain, changed)

    def test_encode_batch_matches_single(self, tokenizer, tiny_dataset):
        sequences = [
            trajectory_to_units(t, tiny_dataset.traffic_states) for t in tiny_dataset.trajectories[:3]
        ]
        batched = tokenizer.encode_batch(sequences)
        for sequence, tokens in zip(sequences, batched):
            alone = tokenizer.encode_batch([sequence])[0]
            assert np.allclose(tokens.data, alone.data, atol=1e-9)

    def test_gradients_reach_tokenizer_parameters(self, tokenizer, tiny_dataset):
        tokenizer.zero_grad()
        sequence = trajectory_to_units(tiny_dataset.trajectories[1], tiny_dataset.traffic_states)
        tokenizer.encode_batch([sequence])[0].sum().backward()
        grads = [p.grad for p in tokenizer.parameters() if p.grad is not None]
        assert grads, "no gradient reached the tokenizer"

    def test_tokens_differ_across_segments(self, tokenizer, tiny_dataset):
        a = traffic_series_to_units(tiny_dataset.traffic_states, 0, 0, 4)
        b = traffic_series_to_units(tiny_dataset.traffic_states, 5, 0, 4)
        assert not np.allclose(tokenizer.encode_batch([a])[0].data, tokenizer.encode_batch([b])[0].data)
