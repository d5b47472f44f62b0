"""The tokenizer's batched pass against the per-slice formulation it replaced.

``SpatioTemporalTokenizer.encode_batch`` runs the dynamic GAT and FFN of
every time slice as one ``(S, N, ·)`` pass, fuses only the ``(slice,
segment)`` rows its sequences read and pulls each sequence's spatial rows
with one gather; ``encode_partials`` runs the token
MLP once over a stack of units.  ``repro.eval.perfbench.reference_tokenizer``
restores the per-slice loop, the per-row tape nodes and the one-row partial
tokens.  The claims pinned here, on seeded generated inputs:

* tokens equal the reference bit for bit on slice sets that cover slices
  ``0 .. history_window`` (the zero-padded history) and the last slice,
  with a ``traffic_override``, and with the memo filled against uncached,
  for every encoder combination, on the fused kernels and (all but the
  memo case) inside ``reference_kernels()``;
* stacked partial tokens equal one-row passes bit for bit (unknown
  segment, unknown timestamp, duplicate units), with either kernel set;
* gradients equal the reference's up to summation order;
* a grad-mode forward fuses each distinct row it reads once, and no other;
* a stacked ``(S, N, F)`` input through ``GAT`` and ``CrossAttentionPool``
  equals the per-slice 2-D outputs bit for bit, with either kernel set.
"""

from __future__ import annotations

import contextlib

import numpy as np
import pytest

from repro.core.config import BIGCityConfig
from repro.core.model import BIGCity
from repro.eval.perfbench import reference_kernels, reference_tokenizer
from repro.nn import functional as F
from repro.nn.attention import CrossAttentionPool
from repro.nn.gat import GAT
from repro.nn.tensor import Tensor, no_grad

#: Encoder combinations: the default, no traffic (static only, one fused
#: row serves every slice), no static encoder and no fusion.
VARIANTS = ["default", "no_traffic", "dynamic_only", "no_fusion"]


def _model(dataset, no_traffic_dataset, variant: str, seed: int):
    """``(model, dataset)`` for an encoder combination."""
    config = BIGCityConfig.tiny(seed=seed)
    if variant == "dynamic_only":
        config.use_static_encoder = False
    if variant == "no_fusion":
        config.use_fusion = False
    if variant == "no_traffic":
        dataset = no_traffic_dataset
    return BIGCity.from_dataset(dataset, config=config), dataset


def _sequences(model, dataset, rng):
    """Seeded sequences whose slices include ``0 .. history_window`` and the last slice.

    Traffic windows at the start and the end of the time axis and at random
    starts, random trajectories, and random time-feature masks.
    """
    num_slices = dataset.time_axis.num_slices
    window = model.config.history_window
    segments = dataset.network.num_segments
    sequences = [model.sequence_from_trajectory(t) for t in rng.choice(dataset.trajectories, size=3, replace=False)]
    if dataset.traffic_states is not None:
        length = int(rng.integers(2, 6))
        sequences += [
            model.sequence_from_traffic(int(rng.integers(segments)), 0, window + 1),
            model.sequence_from_traffic(int(rng.integers(segments)), num_slices - length, length),
        ]
        for _ in range(2):
            length = int(rng.integers(2, 8))
            start = int(rng.integers(0, num_slices - length + 1))
            sequences.append(model.sequence_from_traffic(int(rng.integers(segments)), start, length))
    masks = [rng.random(len(sequence)) < 0.3 if rng.random() < 0.5 else None for sequence in sequences]
    return sequences, masks


def _units(dataset, rng):
    """Partial units with known and unknown segments and timestamps, and duplicates."""
    segments = rng.integers(dataset.network.num_segments, size=5)
    times = dataset.time_axis.origin + rng.uniform(0, dataset.time_axis.num_slices * dataset.time_axis.slice_seconds, 5)
    units = [(int(s), float(t)) for s, t in zip(segments, times)]
    units += [(None, float(times[0])), (int(segments[1]), None), (None, None)]
    units += [units[0], units[5], units[7], units[2]]
    return [units[i] for i in rng.permutation(len(units))]


def _encode(tokenizer, sequences, masks, units, traffic_override=None):
    static = tokenizer.static_representations()
    tokens = tokenizer.encode_batch(sequences, masks, traffic_override=traffic_override, static=static)
    partials, rows = tokenizer.encode_partials(units, static_cache=static)
    return tokens, partials, rows


def _assert_same_tokens(batched, reference):
    (tokens, partials, rows), (ref_tokens, ref_partials, ref_rows) = batched, reference
    assert len(tokens) == len(ref_tokens)
    for token, ref_token in zip(tokens, ref_tokens):
        assert token.dtype == ref_token.dtype
        np.testing.assert_array_equal(token.data, ref_token.data)
    assert partials.dtype == ref_partials.dtype
    np.testing.assert_array_equal(partials.data[rows], ref_partials.data[ref_rows])


class TestGeneratedInputs:
    def test_slice_sets_cover_the_edges(self, tiny_dataset, tiny_dataset_no_traffic):
        model, _ = _model(tiny_dataset, tiny_dataset_no_traffic, "default", 0)
        window, last = model.config.history_window, tiny_dataset.time_axis.num_slices - 1
        for seed in range(3):
            sequences, _ = _sequences(model, tiny_dataset, np.random.default_rng(seed))
            slices = {tiny_dataset.time_axis.slice_of(t) for s in sequences for t in s.timestamps}
            assert set(range(window + 1)) <= slices and last in slices
        units = _units(tiny_dataset, np.random.default_rng(0))
        assert len(set(units)) < len(units)
        assert any(s is None for s, _ in units) and any(t is None for _, t in units)


class TestBatchedEqualsPerSlice:
    @pytest.mark.parametrize("fused", [True, False])
    @pytest.mark.parametrize("variant", VARIANTS)
    @pytest.mark.parametrize("seed", range(2))
    def test_tokens_bit_identical(self, tiny_dataset, tiny_dataset_no_traffic, variant, seed, fused):
        rng = np.random.default_rng(seed)
        model, dataset = _model(tiny_dataset, tiny_dataset_no_traffic, variant, seed)
        sequences, masks = _sequences(model, dataset, rng)
        units = _units(tiny_dataset, rng)
        with contextlib.nullcontext() if fused else reference_kernels():
            batched = _encode(model.tokenizer, sequences, masks, units)
            with reference_tokenizer():
                reference = _encode(model.tokenizer, sequences, masks, units)
        _assert_same_tokens(batched, reference)

    @pytest.mark.parametrize("fused", [True, False])
    def test_traffic_override(self, tiny_dataset, fused):
        rng = np.random.default_rng(3)
        model = BIGCity.from_dataset(tiny_dataset, config=BIGCityConfig.tiny(seed=3))
        sequences, masks = _sequences(model, tiny_dataset, rng)
        units = _units(tiny_dataset, rng)
        values = tiny_dataset.traffic_states.values
        override = values + rng.standard_normal(values.shape) * values.std()
        with contextlib.nullcontext() if fused else reference_kernels():
            plain = _encode(model.tokenizer, sequences, masks, units)
            batched = _encode(model.tokenizer, sequences, masks, units, traffic_override=override)
            with reference_tokenizer():
                reference = _encode(model.tokenizer, sequences, masks, units, traffic_override=override)
        _assert_same_tokens(batched, reference)
        assert not np.array_equal(plain[0][-1].data, batched[0][-1].data)

    @pytest.mark.parametrize("variant", ["default", "no_traffic"])
    def test_memo_filled_equals_uncached(self, tiny_dataset, tiny_dataset_no_traffic, variant):
        rng = np.random.default_rng(4)
        model, dataset = _model(tiny_dataset, tiny_dataset_no_traffic, variant, 4)
        sequences, masks = _sequences(model, dataset, rng)
        units = _units(tiny_dataset, rng)
        # Grad mode with a trainable tokenizer bypasses the memo.
        with reference_tokenizer():
            uncached = _encode(model.tokenizer, sequences, masks, units)
        with no_grad():
            # Fill part of the memo, then ask for every slice: part hits,
            # the rest is computed into the memo, then all of it hits.
            _encode(model.tokenizer, sequences[::2], masks[::2], units)
            partly = _encode(model.tokenizer, sequences, masks, units)
            warm = _encode(model.tokenizer, sequences, masks, units)
        _assert_same_tokens(partly, uncached)
        _assert_same_tokens(warm, uncached)

    @pytest.mark.parametrize("fused", [True, False])
    def test_stacked_partials_equal_one_row_passes(self, tiny_dataset, fused):
        model = BIGCity.from_dataset(tiny_dataset, config=BIGCityConfig.tiny(seed=5))
        tokenizer = model.tokenizer
        units = _units(tiny_dataset, np.random.default_rng(5))
        with contextlib.nullcontext() if fused else reference_kernels():
            static = tokenizer.static_representations()
            tokens, rows = tokenizer.encode_partials(units, static_cache=static)
            for unit, row in zip(units, rows):
                single, _ = tokenizer.encode_partials([unit], static_cache=static)
                assert single.shape == (1, tokenizer.d_model)
                np.testing.assert_array_equal(tokens.data[row], single.data[0])
        assert tokens.shape == (len(set(units)), tokenizer.d_model)
        assert [units.index(unit) for unit in units] == [list(rows).index(row) for row in rows]

    @pytest.mark.parametrize("variant", VARIANTS)
    def test_gradients_match_up_to_summation_order(self, tiny_dataset, tiny_dataset_no_traffic, variant):
        rng = np.random.default_rng(6)
        model, dataset = _model(tiny_dataset, tiny_dataset_no_traffic, variant, 6)
        sequences, masks = _sequences(model, dataset, rng)
        units = _units(tiny_dataset, rng)
        tokenizer = model.tokenizer
        token_weights = [rng.standard_normal((len(s), tokenizer.d_model)) for s in sequences]
        partial_weights = rng.standard_normal((len(units), tokenizer.d_model))

        def grads():
            tokenizer.zero_grad()
            tokens, partials, rows = _encode(tokenizer, sequences, masks, units)
            loss = (partials[rows] * Tensor(partial_weights)).sum()
            for token, weight in zip(tokens, token_weights):
                loss = loss + (token * Tensor(weight)).sum()
            loss.backward()
            return {key: p.grad.copy() for key, p in tokenizer.named_parameters() if p.grad is not None}

        batched = grads()
        with reference_tokenizer():
            reference = grads()
        assert batched.keys() == reference.keys()
        assert any(key.startswith("token_mlp") for key in batched)
        scale = max(np.abs(grad).max() for grad in reference.values())
        for key, expected in reference.items():
            np.testing.assert_allclose(batched[key], expected, rtol=1e-12, atol=1e-12 * scale, err_msg=key)

    def test_grad_mode_fuses_only_the_rows_read(self, tiny_dataset, monkeypatch):
        model = BIGCity.from_dataset(tiny_dataset, config=BIGCityConfig.tiny(seed=8))
        tokenizer = model.tokenizer
        sequences, masks = _sequences(model, tiny_dataset, np.random.default_rng(8))
        fused_rows = []
        cross_attention_rows = F.cross_attention_rows

        def counted(h, weight, bias, slices, rows, scale):
            fused_rows.extend(zip(slices.tolist(), rows.tolist()))
            return cross_attention_rows(h, weight, bias, slices, rows, scale)

        monkeypatch.setattr(F, "cross_attention_rows", counted)
        tokenizer.encode_batch(sequences, masks)
        read = {
            (tiny_dataset.time_axis.slice_of(t), int(segment))
            for sequence in sequences
            for t, segment in zip(sequence.timestamps, sequence.segment_ids)
        }
        assert len(fused_rows) == len(set(fused_rows)) == len(read)
        assert len(read) < len({slice_index for slice_index, _ in read}) * tiny_dataset.network.num_segments

    def test_one_slice_entry_point_equals_its_batched_row(self, tiny_dataset):
        tokenizer = BIGCity.from_dataset(tiny_dataset, config=BIGCityConfig.tiny(seed=7)).tokenizer
        last = tiny_dataset.time_axis.num_slices - 1
        slices = np.asarray([0, 1, tokenizer.config.history_window, 17, last])
        stacked = tokenizer._dynamic_pass(slices, tokenizer._normalised_traffic(None)).data
        for row, slice_index in enumerate(slices):
            np.testing.assert_array_equal(tokenizer.dynamic_representations(int(slice_index)).data, stacked[row])


class TestStackedLayers:
    @pytest.mark.parametrize("fused", [True, False])
    def test_gat_and_fusion_take_leading_slice_axes(self, fused):
        rng = np.random.default_rng(8)
        adjacency = rng.random((9, 9)) < 0.3
        gat = GAT(5, 6, 4, num_layers=2, num_heads=2, rng=rng)
        pool = CrossAttentionPool(4, rng=rng)
        x = rng.standard_normal((6, 9, 5))
        with contextlib.nullcontext() if fused else reference_kernels():
            stacked = pool(gat(Tensor(x), adjacency)).data
            for index in range(x.shape[0]):
                np.testing.assert_array_equal(stacked[index], pool(gat(Tensor(x[index]), adjacency)).data)
