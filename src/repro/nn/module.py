"""Module / parameter containers mirroring the ``torch.nn.Module`` contract."""

from __future__ import annotations

import operator
from collections import OrderedDict
from typing import Callable, Dict, Iterable, Iterator, List, Optional, Tuple

import numpy as np

from repro.nn.tensor import Tensor

#: Bumped whenever any module registers a parameter or a sub-module, so a
#: cached parameter list (:meth:`Module.cached_parameters`) can tell that the
#: tree below it may have changed, e.g. by ``attach_lora`` after build.
_STRUCTURE_VERSION = 0


def _structure_changed() -> None:
    global _STRUCTURE_VERSION
    _STRUCTURE_VERSION += 1


class Parameter(Tensor):
    """A tensor that is registered as a trainable parameter of a module."""

    def __init__(self, data, requires_grad: bool = True, name: Optional[str] = None) -> None:
        super().__init__(data, requires_grad=requires_grad, name=name)


class Module:
    """Base class for all neural-network modules.

    Sub-classes register :class:`Parameter` and :class:`Module` instances as
    attributes; ``parameters()``, ``state_dict()`` and ``train()/eval()``
    traverse the registration tree automatically.
    """

    def __init__(self) -> None:
        self._parameters: "OrderedDict[str, Parameter]" = OrderedDict()
        self._modules: "OrderedDict[str, Module]" = OrderedDict()
        self._buffers: "OrderedDict[str, np.ndarray]" = OrderedDict()
        self.training = True

    # ------------------------------------------------------------------
    # Attribute registration
    # ------------------------------------------------------------------
    def __setattr__(self, name: str, value) -> None:
        if isinstance(value, Parameter):
            self.__dict__.setdefault("_parameters", OrderedDict())[name] = value
            _structure_changed()
        elif isinstance(value, Module):
            self.__dict__.setdefault("_modules", OrderedDict())[name] = value
            _structure_changed()
        object.__setattr__(self, name, value)

    def register_buffer(self, name: str, value: np.ndarray) -> None:
        """Register a non-trainable array that is part of the module state."""
        self._buffers[name] = np.asarray(value)
        object.__setattr__(self, name, self._buffers[name])

    def add_module(self, name: str, module: "Module") -> None:
        self._modules[name] = module
        _structure_changed()
        object.__setattr__(self, name, module)

    # ------------------------------------------------------------------
    # Traversal
    # ------------------------------------------------------------------
    def named_parameters(self, prefix: str = "") -> Iterator[Tuple[str, Parameter]]:
        for name, param in self._parameters.items():
            yield (f"{prefix}{name}", param)
        for name, module in self._modules.items():
            yield from module.named_parameters(prefix=f"{prefix}{name}.")

    def parameters(self) -> List[Parameter]:
        return [p for _, p in self.named_parameters()]

    def cached_parameters(self) -> List[Parameter]:
        """:meth:`parameters`, kept until a parameter or module is registered anywhere.

        For per-call checks on a hot path; the list must not be mutated.
        """
        cached = self.__dict__.get("_parameter_cache")
        if cached is None or cached[0] != _STRUCTURE_VERSION:
            cached = (_STRUCTURE_VERSION, self.parameters())
            object.__setattr__(self, "_parameter_cache", cached)
        return cached[1]

    def trainable_parameters(self) -> List[Parameter]:
        return [p for p in self.parameters() if p.requires_grad]

    def named_modules(self, prefix: str = "") -> Iterator[Tuple[str, "Module"]]:
        yield (prefix.rstrip("."), self)
        for name, module in self._modules.items():
            yield from module.named_modules(prefix=f"{prefix}{name}.")

    def modules(self) -> Iterator["Module"]:
        for _, module in self.named_modules():
            yield module

    def children(self) -> Iterator["Module"]:
        return iter(self._modules.values())

    def num_parameters(self, trainable_only: bool = False) -> int:
        params = self.trainable_parameters() if trainable_only else self.parameters()
        return int(sum(p.size for p in params))

    # ------------------------------------------------------------------
    # State management
    # ------------------------------------------------------------------
    def state_dict(self, prefix: str = "") -> Dict[str, np.ndarray]:
        state: Dict[str, np.ndarray] = {}
        for name, param in self._parameters.items():
            state[f"{prefix}{name}"] = param.data.copy()
        for name, buffer in self._buffers.items():
            state[f"{prefix}{name}"] = np.asarray(buffer).copy()
        for name, module in self._modules.items():
            state.update(module.state_dict(prefix=f"{prefix}{name}."))
        return state

    def load_state_dict(self, state: Dict[str, np.ndarray], strict: bool = True) -> None:
        own = self.state_dict()
        missing = [k for k in own if k not in state]
        unexpected = [k for k in state if k not in own]
        if strict and (missing or unexpected):
            raise KeyError(f"state dict mismatch: missing={missing}, unexpected={unexpected}")
        self._load(state, prefix="")

    def _load(self, state: Dict[str, np.ndarray], prefix: str) -> None:
        for name, param in self._parameters.items():
            key = f"{prefix}{name}"
            if key in state:
                value = np.asarray(state[key])
                if value.shape != param.data.shape:
                    raise ValueError(f"shape mismatch for {key}: {value.shape} vs {param.data.shape}")
                param.data = value.astype(param.data.dtype, copy=True)
        for name in list(self._buffers):
            key = f"{prefix}{name}"
            if key in state:
                self._buffers[name] = np.asarray(state[key]).copy()
                object.__setattr__(self, name, self._buffers[name])
        for name, module in self._modules.items():
            module._load(state, prefix=f"{prefix}{name}.")

    # ------------------------------------------------------------------
    # Modes and gradient helpers
    # ------------------------------------------------------------------
    def train(self, mode: bool = True) -> "Module":
        self.training = mode
        for module in self._modules.values():
            module.train(mode)
        return self

    def eval(self) -> "Module":
        return self.train(False)

    def zero_grad(self) -> None:
        for param in self.parameters():
            param.grad = None

    def freeze(self) -> "Module":
        """Mark every parameter of this module as non-trainable."""
        for param in self.parameters():
            param.requires_grad = False
        return self

    def unfreeze(self) -> "Module":
        for param in self.parameters():
            param.requires_grad = True
        return self

    # ------------------------------------------------------------------
    # Call protocol
    # ------------------------------------------------------------------
    def forward(self, *args, **kwargs):
        raise NotImplementedError

    def __call__(self, *args, **kwargs):
        return self.forward(*args, **kwargs)

    def __repr__(self) -> str:
        lines = [self.__class__.__name__ + "("]
        for name, module in self._modules.items():
            sub = repr(module).replace("\n", "\n  ")
            lines.append(f"  ({name}): {sub}")
        lines.append(")")
        return "\n".join(lines) if len(lines) > 2 else f"{self.__class__.__name__}()"


_DATA = operator.attrgetter("data")


class WeightMemo:
    """A value computed from a module's weights, kept while they are unchanged.

    The value is stamped on the identity of every parameter array below
    the module.  Optimisers, ``load_state_dict`` and transfer reassign a
    weight's ``.data``, which the stamp sees; an in-place write into a
    weight array is not seen.  The stamp holds the arrays themselves, so
    their ids cannot be recycled by a later allocation while the memo is
    alive.
    """

    __slots__ = ("_module", "_entry")

    def __init__(self, module: Module) -> None:
        self._module = module
        #: ``(stamp, value)``, replaced in one assignment so a concurrent
        #: reader never pairs a new stamp with an old value.
        self._entry: Optional[Tuple[List, object]] = None

    def get(self, build: Callable[[], object]):
        """The memoised value, rebuilt by ``build()`` when its stamp is stale."""
        arrays = list(map(_DATA, self._module.cached_parameters()))
        entry = self._entry
        if entry is not None:
            old_arrays, value = entry
            if len(old_arrays) == len(arrays) and all(map(operator.is_, old_arrays, arrays)):
                return value
        value = build()
        self._entry = (arrays, value)
        return value

    def clear(self) -> None:
        """Drop the value; the next :meth:`get` rebuilds it."""
        self._entry = None


class ModuleList(Module):
    """An indexable list of sub-modules."""

    def __init__(self, modules: Optional[Iterable[Module]] = None) -> None:
        super().__init__()
        self._items: List[Module] = []
        for module in modules or []:
            self.append(module)

    def append(self, module: Module) -> "ModuleList":
        self.add_module(str(len(self._items)), module)
        self._items.append(module)
        return self

    def __getitem__(self, index: int) -> Module:
        return self._items[index]

    def __iter__(self) -> Iterator[Module]:
        return iter(self._items)

    def __len__(self) -> int:
        return len(self._items)

    def forward(self, *args, **kwargs):  # pragma: no cover - containers are not called
        raise RuntimeError("ModuleList is a container and cannot be called")


class Sequential(Module):
    """Chain modules, feeding each output into the next module."""

    def __init__(self, *modules: Module) -> None:
        super().__init__()
        self._items: List[Module] = []
        for module in modules:
            self.add_module(str(len(self._items)), module)
            self._items.append(module)

    def __getitem__(self, index: int) -> Module:
        return self._items[index]

    def __len__(self) -> int:
        return len(self._items)

    def __iter__(self) -> Iterator[Module]:
        return iter(self._items)

    def forward(self, x):
        for module in self._items:
            x = module(x)
        return x
