"""Tests for the assembled BIGCity model, heads and backbone."""

from __future__ import annotations

import contextlib

import numpy as np
import pytest

from repro.core.backbone import BIGCityBackbone
from repro.core.config import BIGCityConfig
from repro.core.heads import GeneralTaskHeads, LabelSpace
from repro.core.model import BIGCity
from repro.core.prompts import CLAS, REG, TaskType
from repro.eval.perfbench import reference_kernels
from repro.nn.lora import LoRALinear
from repro.nn.tensor import Tensor, no_grad


class TestConfig:
    def test_invalid_dimensions_rejected(self):
        with pytest.raises(ValueError):
            BIGCityConfig(d_model=30, num_heads=4)
        with pytest.raises(ValueError):
            BIGCityConfig(lora_coverage=0.0)
        with pytest.raises(ValueError):
            BIGCityConfig(history_window=0)

    def test_named_presets(self):
        assert BIGCityConfig.tiny().d_model < BIGCityConfig.small().d_model


class TestBackbone:
    def test_lora_attached_and_base_frozen(self):
        backbone = BIGCityBackbone(BIGCityConfig.tiny(), text_vocab_size=20)
        assert backbone.lora_module_names
        assert isinstance(backbone.llm.blocks[0].attn.q_proj, LoRALinear)
        trainable = backbone.trainable_parameter_count()
        total = backbone.total_parameter_count()
        assert 0 < trainable < total

    def test_text_embedding_and_forward(self):
        backbone = BIGCityBackbone(BIGCityConfig.tiny(), text_vocab_size=20)
        emb = backbone.embed_text(np.array([1, 2, 3]))
        assert emb.shape == (3, backbone.d_model)
        out = backbone(emb.reshape(1, 3, backbone.d_model))
        assert out.shape == (1, 3, backbone.d_model)

    def test_coverage_reduces_adapted_modules(self):
        full = BIGCityBackbone(BIGCityConfig.tiny(), text_vocab_size=10)
        half = BIGCityBackbone(BIGCityConfig(
            hidden_dim=16, d_model=32, num_layers=2, num_heads=2, lora_coverage=0.5, seed=0
        ), text_vocab_size=10)
        assert len(half.lora_module_names) < len(full.lora_module_names)


class TestGeneralTaskHeads:
    def test_three_decoders_shapes(self):
        space = LabelSpace(num_segments=20, num_users=5, num_patterns=2)
        heads = GeneralTaskHeads(d_model=16, label_space=space, regression_dim=3)
        tokens = Tensor(np.random.default_rng(0).standard_normal((4, 16)))
        logits, timestamps, regression = heads(tokens)
        assert logits.shape == (4, space.size)
        assert timestamps.shape == (4, 1)
        assert regression.shape == (4, 3)

    def test_family_restriction(self):
        space = LabelSpace(num_segments=20, num_users=5, num_patterns=2)
        heads = GeneralTaskHeads(d_model=16, label_space=space, regression_dim=3)
        tokens = Tensor(np.zeros((2, 16)))
        assert heads.classification_logits(tokens, family="segment").shape == (2, 20)
        assert heads.classification_logits(tokens, family="user").shape == (2, 5)
        assert heads.classification_logits(tokens, family="pattern").shape == (2, 2)


class TestBIGCityForward:
    def test_from_dataset_sizes_label_space(self, untrained_model, tiny_dataset):
        assert untrained_model.label_space.num_segments == tiny_dataset.network.num_segments
        assert untrained_model.label_space.num_users >= tiny_dataset.num_users

    def test_forward_prompts_aligns_outputs_with_placeholders(self, untrained_model, tiny_dataset):
        trajectory = tiny_dataset.trajectories[0]
        sequence = untrained_model.sequence_from_trajectory(trajectory)
        prompts = [
            untrained_model.prompt_builder.next_hop(sequence),
            untrained_model.prompt_builder.travel_time(sequence),
        ]
        outputs = untrained_model.forward_prompts(prompts)
        assert len(outputs) == 2
        assert outputs[0].task_outputs.shape == (1, untrained_model.config.d_model)
        assert outputs[1].task_outputs.shape == (len(sequence) - 1, untrained_model.config.d_model)
        assert outputs[0].pooled.shape == (untrained_model.config.d_model,)

    def test_forward_prompts_empty_list(self, untrained_model):
        assert untrained_model.forward_prompts([]) == []

    def test_prompt_length_limit_enforced(self, tiny_dataset):
        config = BIGCityConfig.tiny()
        config.max_position = 8
        model = BIGCity.from_dataset(tiny_dataset, config=config)
        long_trajectory = max(tiny_dataset.trajectories, key=len)
        prompt = model.prompt_builder.travel_time(model.sequence_from_trajectory(long_trajectory))
        with pytest.raises(ValueError):
            model.forward_prompts([prompt])

    def test_prompt_loss_is_finite_and_differentiable(self, untrained_model, tiny_dataset):
        sequence = untrained_model.sequence_from_trajectory(tiny_dataset.trajectories[0])
        prompts = [
            untrained_model.prompt_builder.next_hop(sequence),
            untrained_model.prompt_builder.classification(sequence, target="user"),
        ]
        loss, breakdown = untrained_model.prompt_loss(prompts)
        assert np.isfinite(loss.item())
        assert breakdown["count"] >= 2
        loss.backward()
        grads = [p.grad for p in untrained_model.trainable_parameters() if p.grad is not None]
        assert grads

    def test_masked_reconstruction_loss_components(self, untrained_model, tiny_dataset):
        sequence = untrained_model.sequence_from_trajectory(tiny_dataset.trajectories[2])
        prompt = untrained_model.prompt_builder.masked_reconstruction(sequence, 0.4, rng=np.random.default_rng(0))
        _, breakdown = untrained_model.prompt_loss([prompt])
        assert breakdown["clas"] > 0
        assert breakdown["reg"] > 0
        assert breakdown["tim"] > 0

    def test_without_prompts_config_omits_text_tokens(self, tiny_dataset):
        config = BIGCityConfig.tiny()
        config.use_prompts = False
        model = BIGCity.from_dataset(tiny_dataset, config=config)
        sequence = model.sequence_from_trajectory(tiny_dataset.trajectories[0])
        prompt = model.prompt_builder.next_hop(sequence)
        st_tokens = model.tokenizer.encode_batch([prompt.sequence])[0]
        _, _, [(task_positions, span)] = model._assemble_prompt_batch([prompt], [st_tokens], None)
        assert span[0] == 0  # no instruction prefix
        assert task_positions == [len(prompt.sequence)]

    def test_traffic_normalisation_roundtrip(self, untrained_model):
        values = np.array([[30.0, 2.0, 1.0], [60.0, 0.0, 5.0]])
        restored = untrained_model.denormalise_traffic(untrained_model.normalise_traffic(values))
        assert np.allclose(restored, values)


class TestBIGCityInference:
    def test_predict_next_hop_returns_segment_ids(self, trained_model, tiny_dataset):
        trajectories = [t for t in tiny_dataset.test_trajectories if len(t) >= 3][:4]
        rankings = trained_model.predict_next_hop(trajectories, top_k=5)
        assert len(rankings) == 4
        for ranking in rankings:
            assert len(ranking) == 5
            assert all(0 <= s < tiny_dataset.network.num_segments for s in ranking)

    def test_estimate_travel_time_positive(self, trained_model, tiny_dataset):
        estimates = trained_model.estimate_travel_time(tiny_dataset.test_trajectories[:4])
        assert estimates.shape == (4,)
        assert np.all(estimates >= 0)

    def test_classify_trajectory_user_range(self, trained_model, tiny_dataset):
        predictions = trained_model.classify_trajectory(tiny_dataset.test_trajectories[:4], target="user")
        assert np.all((predictions >= 0) & (predictions < trained_model.label_space.num_users))

    def test_classification_scores_sum_to_one(self, trained_model, tiny_dataset):
        scores = trained_model.classification_scores(tiny_dataset.test_trajectories[:3], target="pattern")
        assert scores.shape == (3, 2)
        assert np.allclose(scores.sum(axis=1), 1.0)

    def test_trajectory_embeddings_shape_and_determinism(self, trained_model, tiny_dataset):
        trajectories = tiny_dataset.test_trajectories[:5]
        a = trained_model.trajectory_embeddings(trajectories)
        b = trained_model.trajectory_embeddings(trajectories)
        assert a.shape == (5, trained_model.config.d_model)
        assert np.allclose(a, b)

    def test_recover_trajectory_output_length(self, trained_model, tiny_dataset):
        trajectory = max(tiny_dataset.test_trajectories, key=len)
        kept = [0, len(trajectory) // 2, len(trajectory) - 1]
        recovered = trained_model.recover_trajectories_batch([trajectory], [kept])[0]
        assert recovered.shape == (len(trajectory) - len(kept),)
        assert np.all((recovered >= 0) & (recovered < tiny_dataset.network.num_segments))

    def test_predict_traffic_state_shape(self, trained_model):
        prediction = trained_model.predict_traffic_states_batch([(1, 4, 4, 3)])[0]
        assert prediction.shape == (3, 3)

    def test_impute_traffic_state_shape(self, trained_model):
        imputed = trained_model.impute_traffic_states_batch([(2, 4, 8, [1, 5])], traffic_override=None)[0]
        assert imputed.shape == (2, 3)

    def test_parameter_summary_consistency(self, trained_model):
        summary = trained_model.parameter_summary()
        assert summary["trainable"] <= summary["total"]
        assert summary["backbone_trainable"] <= summary["backbone_total"]

    def test_model_without_traffic_states(self, tiny_dataset_no_traffic):
        model = BIGCity.from_dataset(tiny_dataset_no_traffic, config=BIGCityConfig.tiny())
        trajectory = tiny_dataset_no_traffic.trajectories[0]
        prompt = model.prompt_builder.classification(model.sequence_from_trajectory(trajectory), target="pattern")
        loss, _ = model.prompt_loss([prompt])
        assert np.isfinite(loss.item())
        with pytest.raises(RuntimeError):
            model.sequence_from_traffic(0, 0, 4)


def _stacked_prompt_batch(model, prompts, st_token_list, static_cache):
    """Gradient oracle: every prompt row its own tape node, stacked twice.

    The per-row formulation the merged ``_assemble_prompt_batch`` replaced:
    a ``__getitem__`` node per text and ST-token row, a ``Tensor`` sum per
    anchored placeholder, then one ``Tensor.stack`` per prompt and one over
    the batch.  Placeholders with equal partial anchors share one encoded
    partial token, as in the merged assembly.
    """
    rows_list, layouts = [], []
    partials = {}
    for prompt, st_tokens in zip(prompts, st_token_list):
        rows = []
        if model.config.use_prompts:
            text = model.backbone.embed_text(model.text_tokenizer.encode(prompt.instruction))
            rows.extend(text[index] for index in range(text.shape[0]))
        data_start = len(rows)
        masked = set(prompt.mask_positions)
        rows.extend(
            model.mask_token if position in masked else st_tokens[position]
            for position in range(st_tokens.shape[0])
        )
        data_stop = len(rows)
        task_positions = []
        anchors = prompt.anchors or (None,) * len(prompt.placeholders)
        for kind, anchor in zip(prompt.placeholders, anchors):
            task_positions.append(len(rows))
            token = model.clas_token if kind == CLAS else model.reg_token
            if anchor is not None and anchor.kind == "data":
                token = token + st_tokens[anchor.position]
            elif anchor is not None:
                key = (anchor.segment_id, anchor.timestamp)
                if key not in partials:
                    tokens, _ = model.tokenizer.encode_partials([key], static_cache=static_cache)
                    partials[key] = tokens.reshape(model.config.d_model)
                token = token + partials[key]
            rows.append(token)
        rows_list.append(rows)
        layouts.append((task_positions, (data_start, data_stop)))
    max_length = max(len(rows) for rows in rows_list)
    zero_row = Tensor(np.zeros(model.config.d_model))
    batch = Tensor.stack(
        [Tensor.stack(rows + [zero_row] * (max_length - len(rows)), axis=0) for rows in rows_list], axis=0
    )
    padding_mask = np.asarray([[index >= len(rows) for index in range(max_length)] for rows in rows_list])
    return batch, padding_mask, layouts


def _merged_prompt_batch(model, prompts, st_token_list, static_cache):
    return model._assemble_prompt_batch(prompts, st_token_list, static_cache)


def _generated_prompts(builder, model, dataset, rng):
    """Prompts of every ``PromptBuilder`` template on seeded random inputs.

    Trajectory prompts cut at random lengths, recovery with random kept sets
    (masked endpoints included), masked reconstruction of both modalities
    (partial anchors with and without a segment), traffic windows of random
    length, horizon and mask.
    """
    trajectories = [t for t in dataset.trajectories if len(t) >= 5]
    traffic = dataset.traffic_states
    prompts = []
    for round_index in range(3):
        trajectory = trajectories[int(rng.integers(len(trajectories)))]
        sequence = model.sequence_from_trajectory(trajectory)
        cut = int(rng.integers(3, len(sequence) + 1))
        kept = np.sort(rng.choice(len(sequence), size=int(rng.integers(1, len(sequence))), replace=False))
        prompts += [
            builder.next_hop(sequence.slice(0, cut)),
            builder.travel_time(sequence),
            builder.classification(sequence, target=str(rng.choice(["user", "pattern"]))),
            builder.similarity(sequence.slice(0, cut)),
            builder.recovery(sequence, kept),
            builder.masked_reconstruction(sequence, float(rng.uniform(0.2, 0.6)), rng=rng),
        ]
        length = int(rng.integers(2, traffic.num_slices // 2))
        segment = int(rng.integers(traffic.num_segments))
        start = int(rng.integers(0, traffic.num_slices - length))
        history = model.sequence_from_traffic(segment, start, length)
        horizon = 1 if round_index == 0 else int(rng.integers(2, 4))
        targets = rng.standard_normal((horizon, traffic.num_channels))
        # The first round masks the whole window, so no ST token is kept.
        num_masked = length if round_index == 0 else int(rng.integers(1, length + 1))
        masked = rng.choice(length, size=num_masked, replace=False)
        prompts += [
            builder.traffic_prediction(history, targets, multi_step=horizon > 1),
            builder.traffic_imputation(history, masked),
            builder.masked_reconstruction(history, float(rng.uniform(0.2, 0.6)), rng=rng),
        ]
    assert {prompt.task for prompt in prompts} == set(TaskType)
    rng.shuffle(prompts)
    return prompts


class TestMergedPromptAssembly:
    """The one prompt assembly against the stacked per-row oracle, on generated prompts."""

    @staticmethod
    def _assemble(model, prompts, assemble):
        static = model.tokenizer.static_representations()
        st_token_list = model.tokenizer.encode_batch(
            [prompt.sequence for prompt in prompts],
            time_feature_masks=[prompt.time_feature_mask for prompt in prompts],
            static=static,
        )
        return assemble(model, prompts, st_token_list, static)

    @staticmethod
    def _model(dataset, seed, use_prompts, prompts=None):
        """A fresh model whose ``max_position`` is the longest prompt's length."""
        config = BIGCityConfig.tiny(seed=seed)
        config.use_prompts = use_prompts
        model = BIGCity.from_dataset(dataset, config=config)
        if prompts is not None:
            _, padding_mask, _ = TestMergedPromptAssembly._assemble(model, prompts, _merged_prompt_batch)
            config.max_position = padding_mask.shape[1]
            model = BIGCity.from_dataset(dataset, config=config)
        return model

    @pytest.mark.parametrize("seed", range(4))
    @pytest.mark.parametrize("use_prompts", [True, False])
    def test_forward_equals_oracle_and_gradients_match(self, tiny_dataset, seed, use_prompts):
        rng = np.random.default_rng(seed)
        model = self._model(tiny_dataset, seed, use_prompts)
        prompts = _generated_prompts(model.prompt_builder, model, tiny_dataset, rng)
        model = self._model(tiny_dataset, seed, use_prompts, prompts)
        # The text embeddings are frozen outside stage 1's backbone pre-training.
        model.backbone.llm.unfreeze()
        weights = rng.standard_normal((len(prompts), model.config.max_position, model.config.d_model))
        grads, outputs = {}, {}
        for name, assemble in (("merged", _merged_prompt_batch), ("stacked", _stacked_prompt_batch)):
            model.zero_grad()
            batch, padding_mask, layouts = self._assemble(model, prompts, assemble)
            (batch * Tensor(weights)).sum().backward()
            grads[name] = {key: p.grad.copy() for key, p in model.named_parameters() if p.grad is not None}
            outputs[name] = (batch.data, padding_mask, layouts)
        (merged, merged_mask, merged_layouts), (stacked, stacked_mask, stacked_layouts) = outputs.values()
        np.testing.assert_array_equal(merged, stacked)
        np.testing.assert_array_equal(merged_mask, stacked_mask)
        assert merged_layouts == stacked_layouts
        assert merged_mask.shape[1] == model.config.max_position
        assert grads["merged"].keys() == grads["stacked"].keys()
        # The two assemblies sum gradients in different orders.  Some
        # gradients are rounding noise around an exact zero (a GAT's
        # source-attention term cancels in its softmax), so the bound is
        # relative to the largest gradient entry of the batch.
        scale = max(np.abs(grad).max() for grad in grads["stacked"].values())
        for key, expected in grads["stacked"].items():
            np.testing.assert_allclose(grads["merged"][key], expected, rtol=1e-12, atol=1e-12 * scale, err_msg=key)
        assert {"mask_token", "clas_token", "reg_token"} <= grads["merged"].keys()
        assert any(key.startswith("tokenizer.static_gat") for key in grads["merged"])
        assert use_prompts == ("backbone.llm.token_embedding.weight" in grads["merged"])

    @pytest.mark.parametrize("fused", [True, False])
    @pytest.mark.parametrize("seed", range(2))
    def test_no_grad_forward_equals_oracle(self, tiny_dataset, seed, fused):
        """The serving path under ``no_grad``: the memoised tokenizer, and the uncached one inside ``reference_kernels()``."""
        rng = np.random.default_rng(100 + seed)
        model = self._model(tiny_dataset, seed, True)
        prompts = _generated_prompts(model.prompt_builder, model, tiny_dataset, rng)
        with contextlib.nullcontext() if fused else reference_kernels(), no_grad():
            merged, merged_mask, _ = self._assemble(model, prompts, _merged_prompt_batch)
            stacked, stacked_mask, _ = self._assemble(model, prompts, _stacked_prompt_batch)
        assert not merged.requires_grad
        np.testing.assert_array_equal(merged.data, stacked.data)
        np.testing.assert_array_equal(merged_mask, stacked_mask)

    def test_max_position_edge(self, tiny_dataset):
        rng = np.random.default_rng(7)
        model = self._model(tiny_dataset, 0, True)
        prompts = _generated_prompts(model.prompt_builder, model, tiny_dataset, rng)
        model = self._model(tiny_dataset, 0, True, prompts)
        assert len(model.forward_prompts(prompts)) == len(prompts)
        model.config.max_position -= 1
        with pytest.raises(ValueError, match="max_position"):
            model.forward_prompts(prompts)


class TestSharedPartialTokens:
    """A masked unit's [CLAS] and [REG] share one encoded partial ST token."""

    @staticmethod
    def _run(model, prompts):
        model.zero_grad()
        loss, _ = model.prompt_loss(prompts)
        loss.backward()
        grads = {key: p.grad.copy() for key, p in model.named_parameters() if p.grad is not None}
        with no_grad():
            outputs = model.forward_prompts(prompts)
        return float(loss.data), grads, [(o.task_outputs.data, o.pooled.data) for o in outputs]

    def test_one_encode_per_anchor_with_the_same_answers_and_gradients(self, tiny_dataset, monkeypatch):
        model = BIGCity.from_dataset(tiny_dataset, config=BIGCityConfig.tiny(seed=0))
        rng = np.random.default_rng(0)
        prompts = [
            model.prompt_builder.masked_reconstruction(model.sequence_from_trajectory(trajectory), 0.3, rng=rng)
            for trajectory in tiny_dataset.train_trajectories[:8]
        ]
        units = [(a.segment_id, a.timestamp) for p in prompts for a in p.anchors if a.kind == "partial"]
        assert len(set(units)) < len(units)

        tokenizer = model.tokenizer
        encode_partials = tokenizer.encode_partials
        calls = []

        def counted(units, static_cache=None):
            tokens, rows = encode_partials(units, static_cache=static_cache)
            calls.append((len(units), tokens.shape[0]))
            return tokens, rows

        monkeypatch.setattr(tokenizer, "encode_partials", counted)
        shared = self._run(model, prompts)
        # One stacked pass per forward (the loss and the no-grad pass), one
        # row per distinct anchor.
        assert calls == [(len(units), len(set(units)))] * 2

        # The reference encodes one partial token per placeholder, each in
        # its own pass.
        def one_per_placeholder(units, static_cache=None):
            tokens = [encode_partials([unit], static_cache=static_cache)[0] for unit in units]
            return Tensor.concat(tokens, axis=0), np.arange(len(units))

        monkeypatch.setattr(tokenizer, "encode_partials", one_per_placeholder)
        reference = self._run(model, prompts)
        assert shared[0] == reference[0]
        for (task, pooled), (ref_task, ref_pooled) in zip(shared[2], reference[2]):
            np.testing.assert_array_equal(task, ref_task)
            np.testing.assert_array_equal(pooled, ref_pooled)
        # Sharing only reorders the gradient sums.  Some gradients are
        # rounding noise around an exact zero (a GAT's source-attention
        # term cancels in its softmax), so the bound is relative to the
        # largest gradient entry.
        assert shared[1].keys() == reference[1].keys()
        scale = max(np.abs(grad).max() for grad in reference[1].values())
        for key, expected in reference[1].items():
            np.testing.assert_allclose(shared[1][key], expected, rtol=1e-12, atol=1e-12 * scale, err_msg=key)


def _edge_prompts(prompts):
    """Variants of ``prompts`` that take every skip path of the loss: no
    valid classification target, too few targets, empty regression targets,
    missing or too few regression and timestamp targets."""
    from dataclasses import replace

    variants = []
    for prompt in prompts:
        num_clas, num_reg = prompt.placeholders.count(CLAS), prompt.placeholders.count(REG)
        if num_clas:
            variants.append(replace(prompt, classification_targets=(-1,) * num_clas))
        if num_clas > 1:
            variants.append(replace(prompt, classification_targets=prompt.classification_targets[:-1]))
        if num_reg and prompt.regression_targets:
            variants.append(replace(prompt, regression_targets=prompt.regression_targets[:-1]))
            variants.append(replace(prompt, regression_targets=(np.zeros(0),) * num_reg))
        if num_reg and prompt.timestamp_targets:
            variants.append(replace(prompt, timestamp_targets=prompt.timestamp_targets[:-1]))
    return variants


class TestFamilyBatchedLoss:
    """``prompt_loss`` (one head and loss call per family) against the per-prompt oracle.

    The oracle's per-prompt loop is the loss of earlier versions: with the
    fused kernels every number must match it bit for bit, so training
    follows the same trajectory it followed before the batching.
    """

    @staticmethod
    def _pool(model, dataset, rng):
        from repro.core.training import TrainingConfig, assemble_stage1_prompts, assemble_stage2_prompts

        config = TrainingConfig(max_trajectories=6, traffic_sequences_per_epoch=3)
        stage1 = assemble_stage1_prompts(dataset, dataset.traffic_states, model.prompt_builder, config, rng)
        stage2 = assemble_stage2_prompts(
            dataset, dataset.traffic_states, model.prompt_builder, config, tuple(TaskType), rng
        )
        generated = _generated_prompts(model.prompt_builder, model, dataset, rng)
        pool = stage1 + stage2 + generated
        return pool + _edge_prompts(pool)

    @staticmethod
    def _batches(pool, rng):
        def pick(candidates, size):
            return [candidates[int(i)] for i in rng.choice(len(candidates), size=size, replace=False)]

        clas_only = [p for p in pool if p.placeholders and set(p.placeholders) == {CLAS}]
        reg_only = [p for p in pool if p.placeholders and set(p.placeholders) == {REG}]
        return [
            *(pick(pool, int(rng.integers(2, 12))) for _ in range(4)),
            pick(pool, 1),
            pick(clas_only, 6),
            pick(reg_only, 6),
            [p for p in pool if p.task is TaskType.SIMILARITY],
        ]

    @staticmethod
    def _run(model, batch, loss_fn, monkeypatch):
        heads = {name: [] for name in ("classification_logits", "regression_prediction", "timestamp_prediction")}
        for name, recorded in heads.items():
            method = getattr(GeneralTaskHeads, name)

            def recording(self, tokens, *args, _method=method, _recorded=recorded, **kwargs):
                out = _method(self, tokens, *args, **kwargs)
                _recorded.append(out.data)
                return out

            monkeypatch.setattr(GeneralTaskHeads, name, recording)
        model.zero_grad()
        loss, breakdown = loss_fn(batch)
        if loss.requires_grad:
            loss.backward()
        monkeypatch.undo()
        grads = {key: p.grad.copy() for key, p in model.named_parameters() if p.grad is not None}
        # Per-prompt head calls concatenate, in call order, to the batched call's rows.
        outputs = {name: np.concatenate(arrays) for name, arrays in heads.items() if arrays}
        return loss, breakdown, grads, outputs

    @pytest.mark.parametrize("seed", range(3))
    @pytest.mark.parametrize("fused", [True, False])
    def test_generated_batches_match_the_per_prompt_oracle(self, tiny_dataset, seed, fused, monkeypatch):
        from repro.eval.perfbench import reference_prompt_loss

        rng = np.random.default_rng(200 + seed)
        model = TestMergedPromptAssembly._model(tiny_dataset, seed, True)
        pool = self._pool(model, tiny_dataset, rng)
        model = TestMergedPromptAssembly._model(tiny_dataset, seed, True, pool)
        model.train()
        model.backbone.llm.unfreeze()
        for batch in self._batches(pool, rng):
            with contextlib.nullcontext() if fused else reference_kernels():
                loss, breakdown, grads, outputs = self._run(model, batch, model.prompt_loss, monkeypatch)
                ref_loss, ref_breakdown, ref_grads, ref_outputs = self._run(
                    model, batch, lambda prompts: reference_prompt_loss(model, prompts), monkeypatch
                )
            assert outputs.keys() == ref_outputs.keys()
            for name in outputs:
                np.testing.assert_array_equal(outputs[name], ref_outputs[name], err_msg=name)
            assert loss.requires_grad == ref_loss.requires_grad
            assert breakdown.keys() == ref_breakdown.keys()
            assert grads.keys() == ref_grads.keys()
            if fused:
                # The training kernels: the same arithmetic in the same order.
                assert float(loss.data) == float(ref_loss.data)
                assert breakdown == ref_breakdown
                for key in grads:
                    np.testing.assert_array_equal(grads[key], ref_grads[key], err_msg=key)
                continue
            # The composed cross-entropy takes its mean as a sum times 1/n,
            # the batched loss as a division: the last bits may differ.
            np.testing.assert_allclose(float(loss.data), float(ref_loss.data), rtol=1e-12, atol=0.0)
            for key in breakdown:
                np.testing.assert_allclose(breakdown[key], ref_breakdown[key], rtol=1e-12, atol=0.0, err_msg=key)
            scale = max((float(np.abs(g).max()) for g in ref_grads.values()), default=0.0)
            for key in grads:
                np.testing.assert_allclose(grads[key], ref_grads[key], rtol=1e-12, atol=1e-12 * scale, err_msg=key)

    def test_one_head_and_loss_call_per_family(self, untrained_model, tiny_dataset, monkeypatch):
        from repro.nn import losses

        rng = np.random.default_rng(0)
        prompts = [
            untrained_model.prompt_builder.masked_reconstruction(
                untrained_model.sequence_from_trajectory(trajectory), 0.4, rng=rng
            )
            for trajectory in tiny_dataset.train_trajectories[:6]
        ]
        calls = []
        for owner, name in [
            (GeneralTaskHeads, "classification_logits"),
            (GeneralTaskHeads, "regression_prediction"),
            (GeneralTaskHeads, "timestamp_prediction"),
            (losses, "cross_entropy"),
        ]:
            method = getattr(owner, name)

            def counted(*args, _method=method, _name=name, **kwargs):
                calls.append(_name)
                return _method(*args, **kwargs)

            monkeypatch.setattr(owner, name, counted)
        _, breakdown = untrained_model.prompt_loss(prompts)
        assert sorted(calls) == sorted(
            ["classification_logits", "regression_prediction", "timestamp_prediction", "cross_entropy"]
        )
        assert breakdown["count"] == 3 * len(prompts)
