"""The spatiotemporal tokenizer (Sec. IV-B).

The tokenizer turns ST-unit sequences into ST tokens through four modules:

* **static feature encoder** — a GAT over the road network's static features
  (Eq. 4), producing ``H^(s)``;
* **dynamic feature encoder** — a GAT over the dynamic road network whose node
  features are the concatenated traffic-state history window (Eq. 5),
  producing ``H^(d)_t`` for a given time slice ``t``;
* **fusion encoder** — a cross-attention over all segments that fuses static
  and dynamic representations into ``s_{i,t}`` capturing long-range
  dependencies (Eq. 6–7);
* **temporal integration** — an MLP combining the fused spatial
  representation with the timestamp features and the inter-sample interval
  ``delta tau`` into the final ST token (Eq. 8).

**Pass structure.**  A forward in grad mode encodes all of its ST tokens
in a few batched tape nodes.  The static GAT runs once.  The history windows of
every time slice the batch touches are stacked into one ``(S, N, F)``
array, and the dynamic GAT and its FFN run once over that leading slice
axis, with the static part broadcast over it.  This is the pre-fusion
``(S, N, fused_dim)`` table.  The fusion attention then runs only for the
distinct ``(slice, segment)`` pairs the batch's ST tokens read (about 70
of a stage-1 batch's ≈1,800 rows on ``xa_like``), as one tape node whose
output is a ``(K, fused_dim)`` table.  Each sequence pulls its rows out of
that table with one gather and runs the token MLP once.  The partial ST
tokens of a batch (Fig. 3) run the token MLP once over a ``(k, 1, in)``
stack of their distinct units.

The stacking is chosen so that every forward value equals the per-slice,
per-row formulation bit for bit.  NumPy runs a stacked ``(S, N, F) @ (F,
H)`` product as one BLAS call per slice, each equal to the 2-D product of
that slice, and a ``(k, 1, in)`` stack as k one-row products.
Concatenating rows of different sequences into one GEMM, or padding them
into one, changes the bits of some rows, because the BLAS kernel a row
goes through depends on the other rows.  So the token MLP stays one call
per sequence, while partial tokens, each a single row, stack.  For the
same reason each fusion row's query projection, scores and weighted sum
are that row's own one-row product (:class:`~repro.nn.attention.CrossAttentionPool`):
a fused row has the same bits whichever other rows are computed with it,
so fusing only the rows read, filling the memo with every row of a slice
and the per-slice reference all give the same tokens.  The one-row
products differ from the N-row GEMMs of earlier versions at rounding
level (relative 1e-12 and below).  Only the order of gradient sums
differs from the per-slice loop, which survives as
``repro.eval.perfbench.reference_tokenizer``.

**Memo.**  While no gradient can reach the tokenizer (inference under
``no_grad``, or a frozen tokenizer as in stage 2), the static and fused
representations are constants of the weights and the registered traffic,
so the tokenizer memoises them across forward passes: the static tensor,
and one ``(num_slices, N, fused_dim)`` array with a mask of the slices it
holds.  A request computes only the slices no earlier call computed and
writes them into the array, and its gathers index the array directly.  A
fill keeps no tape, so it runs one slice per pass and fuses all N rows of
the slice with the same per-row function as the grad path (about twice
the time of one N-row GEMM pass, paid once per slice): a batched fill only
raised a long-running server's peak memory.  Every weight writer in the package (optimisers,
``load_state_dict``, transfer) assigns a new ``Parameter.data`` array; the
memo is dropped when any of those arrays or the registered traffic
changes.  An in-place write into a
parameter array is not detected.
"""

from __future__ import annotations

import mmap
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.core.config import BIGCityConfig
from repro.core.st_unit import STUnitSequence
from repro.data.timeutils import TIMESTAMP_FEATURE_DIM, TimeAxis, timestamp_features_batch
from repro.data.traffic_state import TrafficStateSeries
from repro.nn import functional as F
from repro.nn.attention import CrossAttentionPool
from repro.nn.gat import GAT, attention_blocked
from repro.nn.layers import MLP, Embedding, Linear
from repro.nn.module import Module, WeightMemo
from repro.nn.tensor import Tensor, is_grad_enabled
from repro.roadnet.network import RoadNetwork


def _mapped_empty(shape: Tuple[int, ...], dtype: np.dtype) -> np.ndarray:
    """An uninitialised array on its own anonymous memory mapping.

    The memo spans every time slice while a process may touch a few.  A
    mapping's pages become resident only when written, whereas ``np.empty``
    may take a heap block that is resident in full (measured: 1 MB more
    peak RSS on the ``navigation`` workload).  The mapping is released
    with the array.
    """
    size = int(np.prod(shape)) * np.dtype(dtype).itemsize
    return np.frombuffer(mmap.mmap(-1, size), dtype=dtype).reshape(shape)


class SpatioTemporalTokenizer(Module):
    """Encode ST-unit sequences into ST-token sequences."""

    def __init__(
        self,
        network: RoadNetwork,
        time_axis: TimeAxis,
        config: Optional[BIGCityConfig] = None,
        traffic_states: Optional[TrafficStateSeries] = None,
    ) -> None:
        super().__init__()
        self.config = config or BIGCityConfig()
        self.network = network
        self.time_axis = time_axis
        rng = np.random.default_rng(self.config.seed)

        hidden = self.config.hidden_dim
        self._static_features = network.static_features
        self._adjacency = network.adjacency.astype(bool)
        #: the GAT heads' attention mask, built once for every forward
        self._blocked = attention_blocked(self._adjacency)

        if self.config.use_static_encoder:
            self.static_gat = GAT(
                in_features=network.static_feature_dim,
                hidden_features=hidden,
                out_features=hidden,
                num_layers=self.config.gat_layers,
                num_heads=self.config.gat_heads,
                rng=rng,
            )
            self.static_ffn = Linear(hidden, hidden, rng=rng)
            # Definition 1 lists the road ID among the static attributes; a
            # learnable per-segment embedding carries that identity alongside
            # the GAT-encoded topology/attribute features.
            self.segment_id_embedding = Embedding(network.num_segments, hidden, rng=rng, std=0.5)
        else:
            self.static_gat = None
            self.static_ffn = None
            self.segment_id_embedding = None

        #: static (key ``"static"``) and per-slice fused representations,
        #: kept for the weights they were computed with.
        self._memo = WeightMemo(self)
        self._traffic_normalised: Optional[np.ndarray] = None
        self._traffic_mean: Optional[np.ndarray] = None
        self._traffic_std: Optional[np.ndarray] = None
        self.num_channels = 0
        if self.config.use_dynamic_encoder and traffic_states is not None:
            self.num_channels = traffic_states.num_channels
            window = self.config.history_window
            self.dynamic_gat = GAT(
                in_features=self.num_channels * (window + 1),
                hidden_features=hidden,
                out_features=hidden,
                num_layers=self.config.gat_layers,
                num_heads=self.config.gat_heads,
                rng=rng,
            )
            self.dynamic_ffn = Linear(hidden, hidden, rng=rng)
            self.set_traffic_states(traffic_states)
        else:
            self.dynamic_gat = None
            self.dynamic_ffn = None

        fused_dim = hidden * (int(self.has_static_encoder) + int(self.has_dynamic_encoder))
        self._fused_dim = fused_dim
        if self.config.use_fusion:
            self.fusion = CrossAttentionPool(fused_dim, rng=rng)
        else:
            self.fusion = None

        token_input = fused_dim + TIMESTAMP_FEATURE_DIM + 1  # + delta tau
        self.token_mlp = MLP(
            in_features=token_input,
            hidden_features=[2 * self.config.d_model],
            out_features=self.config.d_model,
            rng=rng,
        )

    # ------------------------------------------------------------------
    # Properties
    # ------------------------------------------------------------------
    @property
    def has_static_encoder(self) -> bool:
        return self.static_gat is not None

    @property
    def has_dynamic_encoder(self) -> bool:
        return self.dynamic_gat is not None

    @property
    def d_model(self) -> int:
        return self.config.d_model

    @property
    def fused_dim(self) -> int:
        return self._fused_dim

    # ------------------------------------------------------------------
    # Traffic-state plumbing
    # ------------------------------------------------------------------
    def set_traffic_states(self, traffic_states: TrafficStateSeries) -> None:
        """Register (and z-score) the traffic tensor used by the dynamic encoder."""
        values = traffic_states.values
        mean = values.reshape(-1, values.shape[-1]).mean(axis=0)
        std = values.reshape(-1, values.shape[-1]).std(axis=0)
        std = np.where(std < 1e-9, 1.0, std)
        self._traffic_mean = mean
        self._traffic_std = std
        self._traffic_normalised = (values - mean) / std
        self._memo.clear()

    def _normalised_traffic(self, traffic_override: Optional[np.ndarray]) -> np.ndarray:
        if traffic_override is not None:
            return (traffic_override - self._traffic_mean) / self._traffic_std
        if self._traffic_normalised is None:
            raise RuntimeError("the dynamic encoder is enabled but no traffic states were registered")
        return self._traffic_normalised

    def _dynamic_window_features(self, slices: np.ndarray, traffic: np.ndarray) -> np.ndarray:
        """Concatenated history windows ``~e^(d)_t``, ``(S, num_segments, F)`` (Eq. 5).

        Row ``(s, i)`` holds segment ``i``'s traffic at slices ``t - window
        .. t`` for ``t = slices[s]``, zeros before slice 0.
        """
        window = self.config.history_window
        num_segments, _, channels = traffic.shape
        padded = np.concatenate([np.zeros((num_segments, window, channels)), traffic], axis=1)
        steps = np.asarray(slices, dtype=np.int64)[:, None] + np.arange(window + 1)
        return padded[:, steps].transpose(1, 0, 2, 3).reshape(len(steps), num_segments, (window + 1) * channels)

    # ------------------------------------------------------------------
    # Spatial representations
    # ------------------------------------------------------------------
    def _live_memo(self) -> Optional[Dict[str, object]]:
        """The representation memo, or ``None`` while a gradient can reach the tokenizer.

        The memo is emptied first when a parameter array differs from the
        ones its entries were computed with (``set_traffic_states`` empties
        it too).
        """
        if is_grad_enabled() and any(p.requires_grad for p in self.cached_parameters()):
            return None
        return self._memo.get(dict)

    def static_representations(self) -> Optional[Tensor]:
        """``H^(s)``: static representation of every segment (Eq. 4).

        The GAT encodes the attribute/topology features; the road-ID
        embedding (part of the static attributes per Definition 1) is added
        so that every segment keeps a distinguishable identity.
        """
        if not self.has_static_encoder:
            return None
        memo = self._live_memo()
        if memo is not None and "static" in memo:
            return memo["static"]
        features = Tensor(self._static_features)
        encoded = self.static_ffn(self.static_gat(features, self._adjacency, self._blocked))
        identity = self.segment_id_embedding(np.arange(self.network.num_segments))
        static = encoded + identity
        if memo is not None:
            memo["static"] = static
        return static

    def _dynamic_pass(self, slices: np.ndarray, normalised: np.ndarray) -> Tensor:
        """``H^(d)_t`` of every segment for each slice: ``(S, num_segments, hidden)`` (Eq. 5)."""
        window_features = Tensor(self._dynamic_window_features(slices, normalised))
        return self.dynamic_ffn(self.dynamic_gat(window_features, self._adjacency, self._blocked))

    def dynamic_representations(self, slice_index: int, *, normalised: Optional[np.ndarray] = None) -> Optional[Tensor]:
        """``H^(d)_t``: dynamic representation of every segment at one slice (Eq. 5).

        ``normalised`` is a z-scored traffic tensor, the registered one by
        default.  Forwards encode all their slices in one batched pass; this
        one-slice form equals that pass's row of the slice bit for bit.
        """
        if not self.has_dynamic_encoder:
            return None
        if normalised is None:
            normalised = self._normalised_traffic(None)
        dynamic = self._dynamic_pass(np.asarray([slice_index]), normalised)
        return dynamic.reshape(*dynamic.shape[1:])

    def _pre_fusion(self, slots: np.ndarray, traffic_override: Optional[np.ndarray], static: Optional[Tensor]) -> Tensor:
        """The fusion's input for ``slots`` in one batched pass: ``(S, num_segments, fused_dim)``.

        Every slice's dynamic GAT and FFN run as one op over a leading slice
        axis, with the static part broadcast over it.
        """
        if static is None:
            static = self.static_representations()
        if not self.has_dynamic_encoder:
            return static.reshape(1, *static.shape)
        h = self._dynamic_pass(slots, self._normalised_traffic(traffic_override))
        if static is None:
            return h
        return Tensor.concat([static.broadcast_to(h.shape[:2] + static.shape[1:]), h], axis=-1)

    def _fuse(self, slots: np.ndarray, traffic_override: Optional[np.ndarray], static: Optional[Tensor]) -> Tensor:
        """Every fused row of ``slots``: ``(S, num_segments, fused_dim)``."""
        h = self._pre_fusion(slots, traffic_override, static)
        return self.fusion(h) if self.fusion is not None else h

    def _memo_table(self, memo: Dict[str, object], slots: np.ndarray, static: Optional[Tensor]) -> Tensor:
        """The memo's ``(num_slices, num_segments, fused_dim)`` array, its rows of ``slots`` filled first.

        A fill keeps no tape, so it runs one slice per pass and holds one
        slice's attention at a time: a batched fill raised the serving
        workloads' peak memory and saved them no time.
        """
        entry = memo.get("fused")
        missing = np.unique(slots if entry is None else slots[~entry[1][slots]])
        num_slots = self.time_axis.num_slices if self.has_dynamic_encoder else 1
        for slot in missing:
            computed = self._fuse(np.asarray([slot]), None, static).data[0]
            if entry is None:
                # Threads sharing the model keep the first array stored.
                entry = memo.setdefault(
                    "fused",
                    (_mapped_empty((num_slots,) + computed.shape, computed.dtype), np.zeros(num_slots, dtype=bool)),
                )
            # A slice's row is written before its filled flag is set.
            entry[0][slot] = computed
            entry[1][slot] = True
        return Tensor(entry[0])

    def _slots(self, slices: Sequence[int]) -> np.ndarray:
        """The fused table's slice row of each slice (one row serves all without a dynamic encoder)."""
        slots = np.asarray(slices, dtype=np.int64)
        return slots if self.has_dynamic_encoder else np.zeros_like(slots)

    def _spatial_table(
        self,
        slices: Sequence[int],
        segments: np.ndarray,
        traffic_override: Optional[np.ndarray] = None,
        static: Optional[Tensor] = None,
    ) -> Tuple[Tensor, np.ndarray, np.ndarray]:
        """Fused spatial representations ``s_{i, t}`` of ``(slices[k], segments[k])`` pairs.

        Returns ``(table, first, second)``: pair ``k``'s row is ``table[first[k],
        second[k]]``.  With a live memo (and no ``traffic_override``) the
        table is the memo's array of every slice, its missing slices filled
        first, so a hit copies nothing.  Otherwise the pre-fusion table of
        the distinct slices is computed in one batched pass and the fusion
        runs for the distinct pairs only, as a ``(K, 1, fused_dim)`` table.
        The static part is computed once, or taken from ``static``.
        """
        slots = self._slots(slices)
        memo = self._live_memo() if traffic_override is None else None
        if memo is not None:
            return self._memo_table(memo, slots, static), slots, segments
        unique, slot_rows = np.unique(slots, return_inverse=True)
        h = self._pre_fusion(unique, traffic_override, static)
        if self.fusion is None:
            return h, slot_rows.reshape(-1), segments
        pairs, pair_rows = np.unique(slot_rows.reshape(-1) * h.shape[1] + segments, return_inverse=True)
        fused = self.fusion(h, pairs // h.shape[1], pairs % h.shape[1])
        return fused.reshape(len(pairs), 1, fused.shape[-1]), pair_rows.reshape(-1), np.zeros_like(segments)

    # ------------------------------------------------------------------
    # Token construction
    # ------------------------------------------------------------------
    def encode_batch(
        self,
        sequences: Sequence[STUnitSequence],
        time_feature_masks: Optional[Sequence[Optional[np.ndarray]]] = None,
        traffic_override: Optional[np.ndarray] = None,
        static: Optional[Tensor] = None,
    ) -> List[Tensor]:
        """Encode ST-unit sequences into ``(L_i, d_model)`` ST tokens (Eq. 8), one batched pass over their slices.

        Returns a list of ``(L_i, d_model)`` tensors (ragged; padding is the
        caller's concern because the downstream prompt assembly interleaves
        these tokens with text and task tokens).  ``time_feature_masks``
        holds an optional boolean ``(L_i,)`` array per sequence; where
        ``True`` the timestamp features and the interval are zeroed (the "ST
        token without temporal features" variant of the TTE prompt template,
        Fig. 3b).  ``traffic_override`` replaces the traffic tensor (the
        imputation task uses it so that masked cells do not leak through the
        dynamic encoder).  ``static`` passes a
        ``static_representations()`` tensor the caller also uses elsewhere,
        so one forward runs the static GAT once.  Each sequence pulls its
        spatial rows from the slice table with one gather and runs the
        token MLP once.
        """
        if not sequences:
            return []
        slices = [self.time_axis.slice_of(t) for sequence in sequences for t in sequence.timestamps]
        segments = np.concatenate([np.asarray(sequence.segment_ids, dtype=np.int64) for sequence in sequences])
        table, first, second = self._spatial_table(slices, segments, traffic_override, static)
        outputs = []
        stop = 0
        for index, sequence in enumerate(sequences):
            start, stop = stop, stop + len(sequence)
            spatial = F.gather_rows(table, first[start:stop], second[start:stop])
            mask = None if time_feature_masks is None else time_feature_masks[index]
            temporal = Tensor(self._temporal_features(sequence, mask))
            outputs.append(self.token_mlp(Tensor.concat([spatial, temporal], axis=-1)))
        return outputs

    def _temporal_features(self, sequence: STUnitSequence, time_feature_mask: Optional[np.ndarray]) -> np.ndarray:
        """Timestamp features and interval of every unit, ``(L, TIMESTAMP_FEATURE_DIM + 1)``."""
        time_feats = sequence.time_features(self.time_axis.slice_seconds)
        intervals = sequence.time_intervals() / self.time_axis.slice_seconds
        if time_feature_mask is not None:
            mask = np.asarray(time_feature_mask, dtype=bool)
            time_feats = np.where(mask[:, None], 0.0, time_feats)
            intervals = np.where(mask, 0.0, intervals)
        return np.concatenate([time_feats, intervals[:, None]], axis=1)

    def encode_partials(
        self,
        units: Sequence[Tuple[Optional[int], Optional[float]]],
        static_cache: Optional[Tensor] = None,
    ) -> Tuple[Tensor, np.ndarray]:
        """Encode *partially known* ``(segment_id, timestamp)`` ST-units into tokens.

        This realises the partially filled ST tokens annotated in Fig. 3 of
        the paper: the spatial part uses only the static representation of the
        segment (never the traffic state), or zeros when the segment is
        unknown (``None``); the temporal part uses the timestamp features, or
        zeros when the time is unknown.  ``static_cache`` can pass a
        pre-computed ``static_representations()`` tensor.

        Returns ``(tokens, rows)``: ``tokens`` is ``(k, d_model)``, one row
        per distinct unit, and ``rows[i]`` is the row of ``units[i]``, so
        equal units share one row (whose gradient sums over every use).
        The token MLP runs once over the ``(k, 1, in)`` stack: each unit is
        its own one-row product, so a token's bits never depend on the
        other units.
        """
        distinct: Dict[Tuple[Optional[int], Optional[float]], int] = {}
        rows = np.asarray([distinct.setdefault(unit, len(distinct)) for unit in units], dtype=np.int64)
        count, fused_dim = len(distinct), self.fused_dim
        # The dynamic part and the interval are never known: zeros.
        inputs = np.zeros((count, 1, fused_dim + TIMESTAMP_FEATURE_DIM + 1))
        timed = [row for row, (_, timestamp) in enumerate(distinct) if timestamp is not None]
        timestamps = [timestamp for _, timestamp in distinct if timestamp is not None]
        inputs[timed, 0, fused_dim:-1] = timestamp_features_batch(timestamps, self.time_axis.slice_seconds)
        known = [row for row, (segment_id, _) in enumerate(distinct) if segment_id is not None]
        if known and self.has_static_encoder:
            static = static_cache if static_cache is not None else self.static_representations()
            hidden = static.shape[-1]
            segments = np.asarray([unit[0] for unit in distinct if unit[0] is not None], dtype=np.int64)
            spatial = F.scatter_rows(np.zeros((1, count, hidden), dtype=static.dtype), [(static, 0, np.asarray(known), segments)])
            x = Tensor.concat([spatial.reshape(count, 1, hidden), Tensor(inputs[..., hidden:])], axis=-1)
        else:
            x = Tensor(inputs)
        tokens = self.token_mlp(x)
        return tokens.reshape(count, self.d_model), rows

    def forward(self, sequence: STUnitSequence) -> Tensor:
        return self.encode_batch([sequence])[0]
