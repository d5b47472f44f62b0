"""Reverse-mode automatic differentiation on top of NumPy arrays.

The :class:`Tensor` class wraps a ``numpy.ndarray`` and records the operations
applied to it so that gradients can be computed with :meth:`Tensor.backward`.
The design follows the classic tape-based approach: every operation returns a
new tensor holding a closure that knows how to push gradients back to its
parents, and ``backward`` walks the graph in reverse topological order.

Only the operations needed by the rest of the library are implemented, but
they cover the usual deep-learning workload: broadcasting arithmetic, matrix
multiplication, reductions, indexing, concatenation, common activations and
shape manipulation.

**Dtypes.**  Parameters (:mod:`repro.nn.init`) and activations are
float64.  A tensor keeps the dtype of the array it wraps, except that
float16 is promoted to float32; gradients follow each tensor's own dtype,
and ``sum``/``mean`` over float32 data accumulate in float64 and cast back.
"""

from __future__ import annotations

import contextlib
import threading
from typing import Callable, Iterable, List, Optional, Sequence, Tuple, Union

import numpy as np

ArrayLike = Union[np.ndarray, float, int, list, tuple, "Tensor"]

#: Grad mode is *per-thread*: the serving layer runs inference ticks on
#: worker threads concurrently with each other (multi-replica pools) and
#: with whatever the main thread is doing, so a process-wide flag would let
#: one thread's ``no_grad()`` exit re-enable grad mid-rollout on another.
_GRAD_STATE = threading.local()

_FUSED_ENABLED = True


def is_grad_enabled() -> bool:
    """Return ``True`` when operations record gradient information (this thread)."""
    return getattr(_GRAD_STATE, "enabled", True)


@contextlib.contextmanager
def no_grad():
    """Context manager disabling graph construction (inference mode).

    The flag is thread-local: disabling grad on a serving worker never
    affects a training loop or another tick running concurrently.
    """
    previous = is_grad_enabled()
    _GRAD_STATE.enabled = False
    try:
        yield
    finally:
        _GRAD_STATE.enabled = previous


def fused_enabled() -> bool:
    """Return ``True`` when the fused fast-path kernels are active."""
    return _FUSED_ENABLED


@contextlib.contextmanager
def fused_kernels(enabled: bool = True):
    """Context manager selecting the fused or the composed (legacy) engine path.

    The composed path records every softmax / layer-norm / attention step as
    separate tape nodes exactly like the original engine; the fused path
    collapses each of those patterns into a single node with an analytic
    backward.  Both produce the same values and gradients (see
    ``tests/test_nn_fused.py``), so this switch exists for A/B benchmarking
    and for debugging suspected kernel issues.
    """
    global _FUSED_ENABLED
    previous = _FUSED_ENABLED
    _FUSED_ENABLED = bool(enabled)
    try:
        yield
    finally:
        _FUSED_ENABLED = previous


def _unbroadcast(grad: np.ndarray, shape: Tuple[int, ...]) -> np.ndarray:
    """Sum ``grad`` so that it matches ``shape`` (undo NumPy broadcasting)."""
    if grad.shape == shape:
        return grad
    # Remove leading broadcast dimensions.
    while grad.ndim > len(shape):
        grad = grad.sum(axis=0)
    # Sum over axes that were broadcast from size one.
    for axis, size in enumerate(shape):
        if size == 1 and grad.shape[axis] != 1:
            grad = grad.sum(axis=axis, keepdims=True)
    return grad.reshape(shape)


def _as_array(value: ArrayLike, dtype=None) -> np.ndarray:
    if isinstance(value, Tensor):
        value = value.data
    array = np.asarray(value, dtype=dtype)
    if array.dtype == np.float16:
        array = array.astype(np.float32)
    return array


def _grad_dtype(data: np.ndarray) -> np.dtype:
    """Dtype gradients of ``data`` accumulate in (its own dtype for floats)."""
    return data.dtype if data.dtype.kind == "f" else np.dtype(np.float64)


_FLOAT16 = np.dtype(np.float16)


def _wrap(data) -> "Tensor":
    """Wrap an op's output array as a graph-free tensor, skipping ``__init__``.

    An op output is already a numeric ndarray, or a NumPy scalar from a full
    reduction, so only the construction rules that can change it run here:
    scalars become 0-d arrays and float16 is promoted to float32.  The
    tensor holds what ``Tensor(data)`` would hold; the constructor's dtype
    validation is skipped.
    """
    if type(data) is not np.ndarray:
        data = np.asarray(data)
    if data.dtype == _FLOAT16:
        data = data.astype(np.float32)
    out = Tensor.__new__(Tensor)
    out.data = data
    out.requires_grad = False
    out.grad = None
    out._backward = None
    out._parents = ()
    out.name = None
    return out


def apply_op(
    data: np.ndarray,
    parents: Sequence["Tensor"],
    backward: Callable[[np.ndarray], None],
) -> "Tensor":
    """Create a tensor recorded as ONE tape node over ``parents``.

    Every op of the engine ends here: the :class:`Tensor` methods and the
    fused kernels in :mod:`repro.nn.functional`, which run an arbitrary
    composite computation (attention, layer-norm, cross-entropy, ...) as
    plain NumPy and register a single ``backward`` closure that pushes
    gradients to every parent via ``Tensor._accumulate`` instead of
    recording 5-10 intermediate nodes with full-size temporaries.

    ``parents`` are the op's tensor inputs.  The output array is wrapped
    without re-validation (see :func:`_wrap`).  Under :func:`no_grad` the
    tensor is returned before ``parents`` is looked at, so inference records
    nothing; in grad mode the node joins the tape when any parent requires
    grad.
    """
    out = _wrap(data)
    if not is_grad_enabled():
        return out
    for parent in parents:
        if parent.requires_grad:
            out.requires_grad = True
            out._parents = tuple(parents)
            out._backward = backward
            break
    return out


class Tensor:
    """A NumPy-backed tensor with reverse-mode automatic differentiation."""

    __slots__ = ("data", "grad", "requires_grad", "_backward", "_parents", "name")

    def __init__(
        self,
        data: ArrayLike,
        requires_grad: bool = False,
        dtype=None,
        name: Optional[str] = None,
    ) -> None:
        self.data = _as_array(data, dtype=dtype)
        if self.data.dtype.kind not in "fiub":
            raise TypeError(f"unsupported dtype {self.data.dtype!r}")
        self.requires_grad = bool(requires_grad) and is_grad_enabled()
        self.grad: Optional[np.ndarray] = None
        self._backward: Optional[Callable[[np.ndarray], None]] = None
        self._parents: Tuple["Tensor", ...] = ()
        self.name = name

    # ------------------------------------------------------------------
    # Basic properties
    # ------------------------------------------------------------------
    @property
    def shape(self) -> Tuple[int, ...]:
        return self.data.shape

    @property
    def ndim(self) -> int:
        return self.data.ndim

    @property
    def size(self) -> int:
        return self.data.size

    @property
    def dtype(self):
        return self.data.dtype

    @property
    def T(self) -> "Tensor":
        return self.transpose()

    def __len__(self) -> int:
        return len(self.data)

    def __repr__(self) -> str:
        grad_flag = ", requires_grad=True" if self.requires_grad else ""
        return f"Tensor(shape={self.shape}, dtype={self.data.dtype}{grad_flag})"

    def numpy(self) -> np.ndarray:
        """Return the underlying array (no copy)."""
        return self.data

    def item(self) -> float:
        return float(self.data.reshape(-1)[0]) if self.data.size == 1 else float(self.data)

    def detach(self) -> "Tensor":
        """Return a tensor sharing data but detached from the graph."""
        return Tensor(self.data, requires_grad=False)

    def copy(self) -> "Tensor":
        return Tensor(self.data.copy(), requires_grad=self.requires_grad)

    def zero_grad(self) -> None:
        self.grad = None

    # ------------------------------------------------------------------
    # Graph plumbing
    # ------------------------------------------------------------------
    @staticmethod
    def _ensure(value: ArrayLike) -> "Tensor":
        return value if isinstance(value, Tensor) else Tensor(value)

    def _accumulate(self, grad: np.ndarray) -> None:
        """Accumulate a gradient that other code may still hold (it is copied first)."""
        dtype = self.data.dtype
        grad = _unbroadcast(np.asarray(grad, dtype=dtype if dtype.kind == "f" else np.float64), self.data.shape)
        if self.grad is None:
            self.grad = grad.copy()
        else:
            self.grad += grad

    def _accumulate_owned(self, grad: np.ndarray) -> None:
        """Accumulate a gradient buffer whose ownership transfers to this tensor.

        The fused kernels, and every op whose backward computes a fresh
        array for a parent, hand in buffers that nothing else references, so
        the defensive copy of :meth:`_accumulate` (and its re-broadcast
        check) would be pure overhead; the buffer is adopted directly on
        first accumulation and added in place afterwards.  A buffer whose
        shape or dtype differs from the tensor's takes the copying path.
        Ops that pass the incoming gradient itself on use
        :meth:`_accumulate_passed`.
        """
        if grad.shape != self.data.shape or grad.dtype != self.data.dtype:
            self._accumulate(grad)
            return
        if self.grad is None:
            self.grad = grad
        else:
            self.grad += grad

    def _accumulate_passed(self, grad: np.ndarray) -> bool:
        """Accumulate the consumer's own gradient buffer, or a view of it.

        Pass-through ops (add, reshape, transpose, concat, stack, ...) hand
        their incoming gradient on unchanged.  That buffer belongs to a node
        whose backward has already run, so an intermediate tensor adopts it
        and sums every later gradient into it in place: each node's gradient
        is summed once, into one buffer.  A leaf keeps a private copy, since
        its ``.grad`` outlives the backward (optimisers and
        ``clip_grad_norm`` read and rescale it).  An op hands one buffer to
        at most one parent this way; any other parent that receives the same
        array takes :meth:`_accumulate`, or an in-place add through one
        parent would change the other's gradient.  Returns whether the
        buffer was adopted.
        """
        if (
            self.grad is not None
            or self._backward is None
            or grad.shape != self.data.shape
            or grad.dtype != self.data.dtype
            or not grad.flags.writeable
        ):
            self._accumulate(grad)
            return False
        self.grad = grad
        return True

    def backward(self, grad: Optional[ArrayLike] = None) -> None:
        """Backpropagate from this tensor.

        Parameters
        ----------
        grad:
            Gradient of the final objective with respect to this tensor. If
            omitted, the tensor must be a scalar and the gradient defaults to
            one.
        """
        if not self.requires_grad:
            raise RuntimeError("called backward on a tensor that does not require grad")
        if grad is None:
            if self.data.size != 1:
                raise RuntimeError("grad must be provided for non-scalar tensors")
            grad = np.ones_like(self.data, dtype=_grad_dtype(self.data))
        grad = _as_array(grad, dtype=_grad_dtype(self.data))

        # Iterative topological sort to avoid recursion limits on deep graphs.
        topo: List[Tensor] = []
        visited = set()
        stack: List[Tuple[Tensor, bool]] = [(self, False)]
        while stack:
            node, processed = stack.pop()
            if processed:
                topo.append(node)
                continue
            if id(node) in visited:
                continue
            visited.add(id(node))
            stack.append((node, True))
            for parent in node._parents:
                if parent.requires_grad and id(parent) not in visited:
                    stack.append((parent, False))

        self._accumulate(grad)
        for node in reversed(topo):
            if node._backward is None or node.grad is None:
                continue
            node._backward(node.grad)

    # ------------------------------------------------------------------
    # Arithmetic
    # ------------------------------------------------------------------
    def __add__(self, other: ArrayLike) -> "Tensor":
        other = self._ensure(other)
        data = self.data + other.data

        def backward(grad: np.ndarray) -> None:
            # The buffer goes to one parent only: ``x + x`` must not adopt it twice.
            adopted = self.requires_grad and self._accumulate_passed(grad)
            if other.requires_grad:
                if adopted:
                    other._accumulate(grad)
                else:
                    other._accumulate_passed(grad)

        return apply_op(data, (self, other), backward)

    __radd__ = __add__

    def __neg__(self) -> "Tensor":
        data = -self.data

        def backward(grad: np.ndarray) -> None:
            if self.requires_grad:
                self._accumulate_owned(-grad)

        return apply_op(data, (self,), backward)

    def __sub__(self, other: ArrayLike) -> "Tensor":
        other = self._ensure(other)
        data = self.data - other.data

        def backward(grad: np.ndarray) -> None:
            if self.requires_grad:
                self._accumulate_passed(grad)
            if other.requires_grad:
                other._accumulate_owned(-grad)

        return apply_op(data, (self, other), backward)

    def __rsub__(self, other: ArrayLike) -> "Tensor":
        return self._ensure(other).__sub__(self)

    def __mul__(self, other: ArrayLike) -> "Tensor":
        other = self._ensure(other)
        data = self.data * other.data

        def backward(grad: np.ndarray) -> None:
            if self.requires_grad:
                self._accumulate_owned(grad * other.data)
            if other.requires_grad:
                other._accumulate_owned(grad * self.data)

        return apply_op(data, (self, other), backward)

    __rmul__ = __mul__

    def __truediv__(self, other: ArrayLike) -> "Tensor":
        other = self._ensure(other)
        data = self.data / other.data

        def backward(grad: np.ndarray) -> None:
            if self.requires_grad:
                self._accumulate_owned(grad / other.data)
            if other.requires_grad:
                other._accumulate_owned(-grad * self.data / (other.data**2))

        return apply_op(data, (self, other), backward)

    def __rtruediv__(self, other: ArrayLike) -> "Tensor":
        return self._ensure(other).__truediv__(self)

    def __pow__(self, exponent: float) -> "Tensor":
        if isinstance(exponent, Tensor):
            raise TypeError("tensor exponents are not supported")
        data = self.data**exponent

        def backward(grad: np.ndarray) -> None:
            if self.requires_grad:
                self._accumulate_owned(grad * exponent * self.data ** (exponent - 1))

        return apply_op(data, (self,), backward)

    def __matmul__(self, other: ArrayLike) -> "Tensor":
        return self.matmul(other)

    def matmul(self, other: ArrayLike) -> "Tensor":
        other = self._ensure(other)
        data = self.data @ other.data

        def backward(grad: np.ndarray) -> None:
            a, b = self.data, other.data
            if self.requires_grad:
                if b.ndim == 1:
                    grad_a = np.expand_dims(grad, -1) * b
                elif a.ndim == 1:
                    grad_a = grad @ np.swapaxes(b, -1, -2)
                else:
                    grad_a = grad @ np.swapaxes(b, -1, -2)
                self._accumulate_owned(_unbroadcast(grad_a, a.shape))
            if other.requires_grad:
                if a.ndim == 1:
                    grad_b = np.outer(a, grad) if b.ndim == 2 else a * grad
                elif b.ndim == 1:
                    grad_b = (np.swapaxes(a, -1, -2) @ np.expand_dims(grad, -1))[..., 0]
                else:
                    grad_b = np.swapaxes(a, -1, -2) @ grad
                other._accumulate_owned(_unbroadcast(grad_b, b.shape))

        return apply_op(data, (self, other), backward)

    # ------------------------------------------------------------------
    # Reductions
    # ------------------------------------------------------------------
    def sum(self, axis: Optional[Union[int, Tuple[int, ...]]] = None, keepdims: bool = False) -> "Tensor":
        if self.data.dtype == np.float32:
            # Float32 reductions (losses, norms) accumulate in float64 and
            # cast back, so long sums keep full precision.
            data = self.data.sum(axis=axis, keepdims=keepdims, dtype=np.float64).astype(np.float32)
        else:
            data = self.data.sum(axis=axis, keepdims=keepdims)

        def backward(grad: np.ndarray) -> None:
            if not self.requires_grad:
                return
            grad_full = grad
            if axis is not None and not keepdims:
                axes = (axis,) if isinstance(axis, int) else tuple(axis)
                for ax in sorted(a % self.data.ndim for a in axes):
                    grad_full = np.expand_dims(grad_full, ax)
            full = np.empty(self.data.shape, dtype=_grad_dtype(self.data))
            full[...] = grad_full
            self._accumulate_owned(full)

        return apply_op(data, (self,), backward)

    def mean(self, axis: Optional[Union[int, Tuple[int, ...]]] = None, keepdims: bool = False) -> "Tensor":
        if axis is None:
            count = self.data.size
        else:
            axes = (axis,) if isinstance(axis, int) else tuple(axis)
            count = int(np.prod([self.data.shape[a] for a in axes]))
        return self.sum(axis=axis, keepdims=keepdims) * (1.0 / count)

    def var(self, axis: Optional[int] = None, keepdims: bool = False) -> "Tensor":
        mean = self.mean(axis=axis, keepdims=True)
        centered = self - mean
        return (centered * centered).mean(axis=axis, keepdims=keepdims)

    def max(self, axis: Optional[int] = None, keepdims: bool = False) -> "Tensor":
        data = self.data.max(axis=axis, keepdims=keepdims)

        def backward(grad: np.ndarray) -> None:
            if not self.requires_grad:
                return
            if axis is None:
                mask = (self.data == self.data.max()).astype(_grad_dtype(self.data))
                mask /= mask.sum()
                self._accumulate_owned(mask * grad)
            else:
                expanded_max = self.data.max(axis=axis, keepdims=True)
                mask = (self.data == expanded_max).astype(_grad_dtype(self.data))
                mask /= mask.sum(axis=axis, keepdims=True)
                grad_full = grad if keepdims else np.expand_dims(grad, axis)
                self._accumulate_owned(mask * grad_full)

        return apply_op(data, (self,), backward)

    # ------------------------------------------------------------------
    # Elementwise functions
    # ------------------------------------------------------------------
    def exp(self) -> "Tensor":
        data = np.exp(self.data)

        def backward(grad: np.ndarray) -> None:
            if self.requires_grad:
                self._accumulate_owned(grad * data)

        return apply_op(data, (self,), backward)

    def log(self) -> "Tensor":
        data = np.log(self.data)

        def backward(grad: np.ndarray) -> None:
            if self.requires_grad:
                self._accumulate_owned(grad / self.data)

        return apply_op(data, (self,), backward)

    def sqrt(self) -> "Tensor":
        data = np.sqrt(self.data)

        def backward(grad: np.ndarray) -> None:
            if self.requires_grad:
                self._accumulate_owned(grad * 0.5 / np.maximum(data, 1e-12))

        return apply_op(data, (self,), backward)

    def abs(self) -> "Tensor":
        data = np.abs(self.data)

        def backward(grad: np.ndarray) -> None:
            if self.requires_grad:
                self._accumulate_owned(grad * np.sign(self.data))

        return apply_op(data, (self,), backward)

    def tanh(self) -> "Tensor":
        data = np.tanh(self.data)

        def backward(grad: np.ndarray) -> None:
            if self.requires_grad:
                self._accumulate_owned(grad * (1.0 - data**2))

        return apply_op(data, (self,), backward)

    def sigmoid(self) -> "Tensor":
        data = 1.0 / (1.0 + np.exp(-self.data))

        def backward(grad: np.ndarray) -> None:
            if self.requires_grad:
                self._accumulate_owned(grad * data * (1.0 - data))

        return apply_op(data, (self,), backward)

    def relu(self) -> "Tensor":
        mask = (self.data > 0).astype(self.data.dtype)
        data = self.data * mask

        def backward(grad: np.ndarray) -> None:
            if self.requires_grad:
                self._accumulate_owned(grad * mask)

        return apply_op(data, (self,), backward)

    def leaky_relu(self, negative_slope: float = 0.2) -> "Tensor":
        mask = (self.data > 0).astype(self.data.dtype)
        slope = mask + (1.0 - mask) * negative_slope
        data = self.data * slope

        def backward(grad: np.ndarray) -> None:
            if self.requires_grad:
                self._accumulate_owned(grad * slope)

        return apply_op(data, (self,), backward)

    def gelu(self) -> "Tensor":
        """Gaussian error linear unit (tanh approximation, as in GPT-2)."""
        c = np.sqrt(2.0 / np.pi)
        x = self.data
        inner = c * (x + 0.044715 * x**3)
        tanh_inner = np.tanh(inner)
        data = 0.5 * x * (1.0 + tanh_inner)

        def backward(grad: np.ndarray) -> None:
            if not self.requires_grad:
                return
            sech2 = 1.0 - tanh_inner**2
            d_inner = c * (1.0 + 3 * 0.044715 * x**2)
            d = 0.5 * (1.0 + tanh_inner) + 0.5 * x * sech2 * d_inner
            self._accumulate_owned(grad * d)

        return apply_op(data, (self,), backward)

    def clip(self, low: float, high: float) -> "Tensor":
        data = np.clip(self.data, low, high)
        mask = ((self.data >= low) & (self.data <= high)).astype(_grad_dtype(self.data))

        def backward(grad: np.ndarray) -> None:
            if self.requires_grad:
                self._accumulate_owned(grad * mask)

        return apply_op(data, (self,), backward)

    # ------------------------------------------------------------------
    # Shape manipulation
    # ------------------------------------------------------------------
    def reshape(self, *shape) -> "Tensor":
        if len(shape) == 1 and isinstance(shape[0], (tuple, list)):
            shape = tuple(shape[0])
        data = self.data.reshape(shape)
        original_shape = self.data.shape

        def backward(grad: np.ndarray) -> None:
            if self.requires_grad:
                self._accumulate_passed(grad.reshape(original_shape))

        return apply_op(data, (self,), backward)

    def transpose(self, *axes) -> "Tensor":
        if not axes:
            axes = tuple(reversed(range(self.data.ndim)))
        elif len(axes) == 1 and isinstance(axes[0], (tuple, list)):
            axes = tuple(axes[0])
        data = self.data.transpose(axes)

        def backward(grad: np.ndarray) -> None:
            if self.requires_grad:
                self._accumulate_passed(grad.transpose(np.argsort(axes)))

        return apply_op(data, (self,), backward)

    def broadcast_to(self, shape: Tuple[int, ...]) -> "Tensor":
        """A read-only broadcast view; the backward sums the broadcast axes."""
        data = np.broadcast_to(self.data, shape)

        def backward(grad: np.ndarray) -> None:
            if self.requires_grad:
                self._accumulate_passed(_unbroadcast(grad, self.data.shape))

        return apply_op(data, (self,), backward)

    def swapaxes(self, axis1: int, axis2: int) -> "Tensor":
        axes = list(range(self.data.ndim))
        axes[axis1], axes[axis2] = axes[axis2], axes[axis1]
        return self.transpose(*axes)

    def __getitem__(self, index) -> "Tensor":
        if isinstance(index, Tensor):
            index = index.data
        data = self.data[index]

        def backward(grad: np.ndarray) -> None:
            if self.requires_grad:
                full = np.zeros_like(self.data, dtype=_grad_dtype(self.data))
                np.add.at(full, index, grad)
                self._accumulate_owned(full)

        return apply_op(data, (self,), backward)

    def index_select(self, indices: np.ndarray, axis: int = 0) -> "Tensor":
        """Gather rows along ``axis`` (used for embedding lookups)."""
        indices = np.asarray(indices)
        data = np.take(self.data, indices, axis=axis)

        def backward(grad: np.ndarray) -> None:
            if not self.requires_grad:
                return
            full = np.zeros_like(self.data, dtype=_grad_dtype(self.data))
            if axis == 0:
                flat_idx = indices.reshape(-1)
                flat_grad = grad.reshape(-1, *self.data.shape[1:]) if indices.ndim else grad
                np.add.at(full, flat_idx, flat_grad)
            else:
                moved = np.moveaxis(full, axis, 0)
                grad_moved = np.moveaxis(grad, axis, 0)
                np.add.at(moved, indices.reshape(-1), grad_moved)
                full = np.moveaxis(moved, 0, axis)
            self._accumulate_owned(full)

        return apply_op(data, (self,), backward)

    def pad_last_dims(self, pad_width: Sequence[Tuple[int, int]]) -> "Tensor":
        """Zero-pad the trailing dimensions of the tensor."""
        full_pad = [(0, 0)] * (self.data.ndim - len(pad_width)) + list(pad_width)
        data = np.pad(self.data, full_pad)
        slices = tuple(slice(p[0], p[0] + s) for p, s in zip(full_pad, self.data.shape))

        def backward(grad: np.ndarray) -> None:
            if self.requires_grad:
                self._accumulate(grad[slices])

        return apply_op(data, (self,), backward)

    # ------------------------------------------------------------------
    # Composite helpers
    # ------------------------------------------------------------------
    def softmax(self, axis: int = -1) -> "Tensor":
        # One output buffer: shift, exponentiate and normalise in place.
        data = self.data - self.data.max(axis=axis, keepdims=True)
        np.exp(data, out=data)
        data /= data.sum(axis=axis, keepdims=True)

        def backward(grad: np.ndarray) -> None:
            if not self.requires_grad:
                return
            dot = (grad * data).sum(axis=axis, keepdims=True)
            self._accumulate_owned(data * (grad - dot))

        return apply_op(data, (self,), backward)

    def log_softmax(self, axis: int = -1) -> "Tensor":
        shifted = self.data - self.data.max(axis=axis, keepdims=True)
        logsumexp = np.log(np.exp(shifted).sum(axis=axis, keepdims=True))
        data = shifted - logsumexp
        softmax = np.exp(data)

        def backward(grad: np.ndarray) -> None:
            if not self.requires_grad:
                return
            grad_sum = grad.sum(axis=axis, keepdims=True)
            self._accumulate_owned(grad - softmax * grad_sum)

        return apply_op(data, (self,), backward)

    def masked_fill(self, mask: ArrayLike, value: float) -> "Tensor":
        mask_arr = _as_array(mask).astype(bool)
        data = np.where(mask_arr, value, self.data)

        def backward(grad: np.ndarray) -> None:
            if self.requires_grad:
                self._accumulate_owned(np.where(mask_arr, 0.0, grad))

        return apply_op(data, (self,), backward)

    # ------------------------------------------------------------------
    # Static constructors and combinators
    # ------------------------------------------------------------------
    @staticmethod
    def concat(tensors: Sequence["Tensor"], axis: int = -1) -> "Tensor":
        tensors = [Tensor._ensure(t) for t in tensors]
        data = np.concatenate([t.data for t in tensors], axis=axis)
        sizes = [t.data.shape[axis] for t in tensors]

        def backward(grad: np.ndarray) -> None:
            offset = 0
            for tensor, size in zip(tensors, sizes):
                if tensor.requires_grad:
                    slicer = [slice(None)] * grad.ndim
                    slicer[axis] = slice(offset, offset + size)
                    tensor._accumulate_passed(grad[tuple(slicer)])
                offset += size

        return apply_op(data, tensors, backward)

    @staticmethod
    def stack(tensors: Sequence["Tensor"], axis: int = 0) -> "Tensor":
        tensors = [Tensor._ensure(t) for t in tensors]
        data = np.stack([t.data for t in tensors], axis=axis)

        def backward(grad: np.ndarray) -> None:
            moved = np.moveaxis(grad, axis, 0)
            for i, tensor in enumerate(tensors):
                if tensor.requires_grad:
                    tensor._accumulate_passed(moved[i])

        return apply_op(data, tensors, backward)

    @staticmethod
    def zeros(shape, requires_grad: bool = False, dtype=None) -> "Tensor":
        return Tensor(np.zeros(shape, dtype=dtype or np.float64), requires_grad=requires_grad)

    @staticmethod
    def ones(shape, requires_grad: bool = False, dtype=None) -> "Tensor":
        return Tensor(np.ones(shape, dtype=dtype or np.float64), requires_grad=requires_grad)

    @staticmethod
    def randn(*shape, requires_grad: bool = False, scale: float = 1.0, rng: Optional[np.random.Generator] = None) -> "Tensor":
        rng = rng or np.random.default_rng()
        return Tensor(rng.standard_normal(shape) * scale, requires_grad=requires_grad)

    @staticmethod
    def arange(*args, dtype=None) -> "Tensor":
        return Tensor(np.arange(*args, dtype=dtype or np.float64))
