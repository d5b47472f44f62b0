"""Low-Rank Adaptation (LoRA) of linear layers.

BIGCity keeps the GPT-2 backbone frozen and learns only low-rank update
matrices attached to the query/key/value projections and the feed-forward
layers of each transformer block (Sec. V-B).  :func:`attach_lora` rewrites a
built backbone in place, replacing selected :class:`~repro.nn.layers.Linear`
modules with :class:`LoRALinear` wrappers that share the frozen base weight.
"""

from __future__ import annotations

from typing import Iterable, List, Optional, Sequence, Tuple

import numpy as np

from repro.nn import functional as F
from repro.nn import init
from repro.nn.layers import Linear
from repro.nn.module import Module, Parameter, WeightMemo
from repro.nn.tensor import Tensor, is_grad_enabled


class LoRALinear(Module):
    """A frozen linear layer plus a trainable low-rank update.

    Computes ``y = x @ (W + (alpha / r) * B A).T + b`` where ``W`` and ``b``
    are frozen and only ``A`` (``r x in``) and ``B`` (``out x r``) are
    trained.  ``B`` is initialised to zero so the wrapped layer starts out
    exactly equal to the base layer.

    In grad mode the update runs unmerged, ``base(x) + (x A.T B.T) * scale``,
    as one tape node, so gradients reach ``A`` and ``B``; this is the
    training path and the equality oracle of the merged one.  Under :func:`~repro.nn.no_grad` the
    layer serves ``x @ W_merged.T + b`` in one linear call (LoRA's own
    deployment form, Hu et al. 2021, Sec. 4).  ``W_merged`` is memoised in
    a :class:`~repro.nn.module.WeightMemo`, so it is rebuilt after any write
    that reassigns a weight's ``.data`` (optimisers, ``load_state_dict``,
    transfer).  An in-place write into a weight
    array is not seen.  Merged and unmerged outputs differ only in
    summation order.
    """

    def __init__(
        self,
        base: Linear,
        rank: int = 8,
        alpha: float = 16.0,
        rng: Optional[np.random.Generator] = None,
    ) -> None:
        super().__init__()
        if rank < 1:
            raise ValueError("LoRA rank must be >= 1")
        rng = rng or np.random.default_rng()
        self.in_features = base.in_features
        self.out_features = base.out_features
        self.rank = rank
        self.alpha = alpha
        self.scaling = alpha / rank
        self.base = base
        self.base.freeze()
        self.lora_a = Parameter(init.normal((rank, base.in_features), std=0.02, rng=rng))
        self.lora_b = Parameter(init.zeros((base.out_features, rank)))
        #: ``W_merged`` for the no-grad path; see :meth:`_merged`.
        self._merged_memo = WeightMemo(self)

    def forward(self, x: Tensor) -> Tensor:
        if is_grad_enabled():
            return self.forward_unmerged(x)
        return F.linear(x, self._merged(), self.base.bias)

    def inference_weights(self) -> Tuple[np.ndarray, Optional[np.ndarray]]:
        """The ``(W_merged, bias)`` arrays a no-grad forward applies."""
        bias = self.base.bias
        return self._merged().data, None if bias is None else bias.data

    def forward_unmerged(self, x: Tensor) -> Tensor:
        """``base(x) + (x A.T B.T) * scale``: the training path, and the merged path's oracle.

        One tape node (:func:`~repro.nn.functional.lora_linear`); inside
        :func:`repro.eval.perfbench.reference_kernels` the composed chain of
        tape ops.
        """
        return F.lora_linear(x, self.base.weight, self.base.bias, self.lora_a, self.lora_b, self.scaling)

    def merged_weight(self) -> np.ndarray:
        """Return the effective weight ``W + scaling * B A`` as an array."""
        return self.base.weight.data + self.scaling * (self.lora_b.data @ self.lora_a.data)

    def _merged(self) -> Tensor:
        """The memoised ``Tensor(merged_weight())``, rebuilt when its stamp is stale."""
        return self._merged_memo.get(lambda: Tensor(self.merged_weight()))

    def __repr__(self) -> str:
        return (
            f"LoRALinear(in={self.in_features}, out={self.out_features}, "
            f"rank={self.rank}, alpha={self.alpha})"
        )


_DEFAULT_TARGETS = ("q_proj", "k_proj", "v_proj", "fc_in", "fc_out")


def attach_lora(
    module: Module,
    rank: int = 8,
    alpha: float = 16.0,
    target_names: Sequence[str] = _DEFAULT_TARGETS,
    coverage: float = 1.0,
    rng: Optional[np.random.Generator] = None,
) -> List[str]:
    """Attach LoRA adapters to matching linear sub-modules of ``module``.

    Parameters
    ----------
    module:
        Root module (typically the GPT-2 backbone).
    rank:
        Low-rank dimension ``r`` (the paper sweeps 4/8/16/32 and picks 8).
    alpha:
        LoRA scaling numerator.
    target_names:
        Attribute names whose :class:`Linear` children should be wrapped.
        The defaults cover attention Q/K/V and the feed-forward layers, as
        in the paper.
    coverage:
        Fraction ``n`` of transformer blocks to adapt (the paper sweeps
        1, 1/2, 1/3).  Blocks are counted from the top (closest to the
        output), which is where adaptation matters most.
    rng:
        Random generator for the ``A`` matrices.

    Returns
    -------
    list of str
        Qualified names of the wrapped linear layers.
    """
    if not 0.0 < coverage <= 1.0:
        raise ValueError("coverage must be in (0, 1]")
    rng = rng or np.random.default_rng()

    blocks = _find_blocks(module)
    if blocks:
        num_adapted = max(1, int(round(len(blocks) * coverage)))
        adapted_blocks = set(id(b) for b in blocks[-num_adapted:])
    else:
        adapted_blocks = None

    wrapped: List[str] = []
    for qualified_name, owner in _owners_of_target_linears(module, target_names):
        if adapted_blocks is not None and not _within(owner_chain=qualified_name, module=module, allowed=adapted_blocks, blocks=blocks):
            continue
        attr = qualified_name.rsplit(".", 1)[-1]
        base = getattr(owner, attr)
        if isinstance(base, LoRALinear):
            continue
        setattr(owner, attr, LoRALinear(base, rank=rank, alpha=alpha, rng=rng))
        wrapped.append(qualified_name)
    return wrapped


def lora_parameters(module: Module) -> List[Parameter]:
    """All trainable LoRA parameters below ``module``."""
    params: List[Parameter] = []
    for name, param in module.named_parameters():
        if ".lora_a" in name or ".lora_b" in name or name.endswith("lora_a") or name.endswith("lora_b"):
            params.append(param)
    return params


def mark_only_lora_trainable(module: Module) -> Tuple[int, int]:
    """Freeze every parameter except LoRA matrices.

    Returns ``(trainable_count, total_count)`` of parameter entries.
    """
    total = 0
    trainable = 0
    for name, param in module.named_parameters():
        total += param.size
        is_lora = "lora_a" in name or "lora_b" in name
        param.requires_grad = is_lora
        if is_lora:
            trainable += param.size
    return trainable, total


# ----------------------------------------------------------------------
# Internal helpers
# ----------------------------------------------------------------------
def _find_blocks(module: Module) -> List[Module]:
    from repro.nn.transformer import TransformerBlock

    return [m for m in module.modules() if isinstance(m, TransformerBlock)]


def _owners_of_target_linears(module: Module, target_names: Sequence[str]) -> Iterable[Tuple[str, Module]]:
    """Yield ``(qualified_name, owner_module)`` for every matching Linear."""
    targets = set(target_names)
    for name, owner in module.named_modules():
        for attr, child in list(owner._modules.items()):
            if attr in targets and isinstance(child, Linear):
                qualified = f"{name}.{attr}" if name else attr
                yield qualified, owner


def _within(owner_chain: str, module: Module, allowed: set, blocks: List[Module]) -> bool:
    """Check whether the linear at ``owner_chain`` lives inside an adapted block."""
    block_names = {}
    for name, mod in module.named_modules():
        if id(mod) in {id(b) for b in blocks}:
            block_names[name] = id(mod)
    for block_name, block_id in block_names.items():
        if block_name and owner_chain.startswith(block_name + "."):
            return block_id in allowed
    # Linears outside any transformer block (e.g. task heads) are never
    # adapted through the coverage mechanism.
    return False
