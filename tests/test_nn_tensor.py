"""Tests for the autograd engine (repro.nn.tensor)."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.nn import no_grad
from repro.nn import functional as F
from repro.nn.optim import clip_grad_norm
from repro.nn.tensor import Tensor, _wrap, fused_kernels


def numeric_gradient(fn, x: np.ndarray, eps: float = 1e-6) -> np.ndarray:
    """Central-difference gradient of a scalar function of an array."""
    grad = np.zeros_like(x, dtype=np.float64)
    flat = x.reshape(-1)
    grad_flat = grad.reshape(-1)
    for i in range(flat.size):
        plus = x.copy().reshape(-1)
        minus = x.copy().reshape(-1)
        plus[i] += eps
        minus[i] -= eps
        grad_flat[i] = (fn(plus.reshape(x.shape)) - fn(minus.reshape(x.shape))) / (2 * eps)
    return grad


def analytic_gradient(expr, x: np.ndarray) -> np.ndarray:
    t = Tensor(x, requires_grad=True)
    out = expr(t)
    out.backward()
    return t.grad


class TestConstruction:
    def test_wraps_lists_and_scalars(self):
        assert Tensor([1.0, 2.0]).shape == (2,)
        assert Tensor(3.0).shape == ()

    def test_dtype_preserved_for_floats(self):
        assert Tensor(np.ones(3, dtype=np.float32)).dtype == np.float32

    def test_rejects_object_dtype(self):
        with pytest.raises(TypeError):
            Tensor(np.array(["a", "b"], dtype=object))

    def test_repr_mentions_shape_and_grad_flag(self):
        text = repr(Tensor(np.zeros((2, 3)), requires_grad=True))
        assert "(2, 3)" in text and "requires_grad" in text

    def test_detach_shares_data_but_drops_grad(self):
        t = Tensor([1.0, 2.0], requires_grad=True)
        d = t.detach()
        assert not d.requires_grad
        assert np.shares_memory(d.data, t.data)

    def test_float32_sum_accumulates_in_float64(self):
        # 1 + 2**24 ulps: a naive float32 running sum would stall.
        big = Tensor(np.full(2**12, np.float32(1.0)) * np.float32(2048.0))
        tiny = Tensor(np.full(2**12, np.float32(2.0 ** -13)))
        total = Tensor.concat([big, tiny], axis=0).sum()
        assert total.dtype == np.float32
        expected = 2**12 * 2048.0 + 2**12 * 2.0 ** -13
        assert float(total.item()) == pytest.approx(expected, rel=1e-7)

    def test_zeros_ones_arange_constructors(self):
        assert np.all(Tensor.zeros((2, 2)).data == 0)
        assert np.all(Tensor.ones((2, 2)).data == 1)
        assert np.array_equal(Tensor.arange(4).data, np.arange(4, dtype=np.float64))

    def test_item_returns_python_float(self):
        assert isinstance(Tensor(np.array([2.5])).item(), float)


class TestArithmetic:
    def test_add_and_radd(self):
        t = Tensor([1.0, 2.0])
        assert np.allclose((t + 1.0).data, [2.0, 3.0])
        assert np.allclose((1.0 + t).data, [2.0, 3.0])

    def test_subtract_and_rsub(self):
        t = Tensor([1.0, 2.0])
        assert np.allclose((t - 1.0).data, [0.0, 1.0])
        assert np.allclose((3.0 - t).data, [2.0, 1.0])

    def test_multiply_divide(self):
        t = Tensor([2.0, 4.0])
        assert np.allclose((t * 2.0).data, [4.0, 8.0])
        assert np.allclose((t / 2.0).data, [1.0, 2.0])
        assert np.allclose((8.0 / t).data, [4.0, 2.0])

    def test_pow_and_neg(self):
        t = Tensor([2.0, 3.0])
        assert np.allclose((t**2).data, [4.0, 9.0])
        assert np.allclose((-t).data, [-2.0, -3.0])

    def test_broadcast_add_gradients(self):
        a = Tensor(np.ones((3, 4)), requires_grad=True)
        b = Tensor(np.ones((4,)), requires_grad=True)
        (a + b).sum().backward()
        assert a.grad.shape == (3, 4)
        assert b.grad.shape == (4,)
        assert np.allclose(b.grad, 3.0)

    def test_add_gradient_accumulates_over_reuse(self):
        a = Tensor([1.0], requires_grad=True)
        out = a + a
        out.backward(np.array([1.0]))
        assert np.allclose(a.grad, [2.0])

    def test_matmul_2d(self):
        a = Tensor(np.arange(6, dtype=float).reshape(2, 3), requires_grad=True)
        b = Tensor(np.arange(12, dtype=float).reshape(3, 4), requires_grad=True)
        out = a @ b
        out.sum().backward()
        assert out.shape == (2, 4)
        assert a.grad.shape == (2, 3)
        assert b.grad.shape == (3, 4)

    def test_matmul_batched_against_numpy(self):
        rng = np.random.default_rng(0)
        a = rng.standard_normal((2, 3, 4))
        b = rng.standard_normal((2, 4, 5))
        out = Tensor(a) @ Tensor(b)
        assert np.allclose(out.data, a @ b)

    def test_matmul_vector_rhs_gradient(self):
        rng = np.random.default_rng(1)
        a = rng.standard_normal((3, 4))
        v = rng.standard_normal(4)

        def f(x):
            with no_grad():
                return float((Tensor(a) @ Tensor(x)).sum().data)

        g = analytic_gradient(lambda t: (Tensor(a) @ t).sum(), v)
        assert np.allclose(g, numeric_gradient(f, v), atol=1e-6)


class TestReductions:
    def test_sum_axis_keepdims(self):
        t = Tensor(np.ones((2, 3)))
        assert t.sum().data == 6.0
        assert t.sum(axis=0).shape == (3,)
        assert t.sum(axis=1, keepdims=True).shape == (2, 1)

    def test_mean_and_var(self):
        data = np.array([[1.0, 2.0], [3.0, 4.0]])
        t = Tensor(data)
        assert np.allclose(t.mean().data, data.mean())
        assert np.allclose(t.var(axis=1).data, data.var(axis=1))

    def test_sum_gradient_broadcasts_back(self):
        t = Tensor(np.ones((2, 3)), requires_grad=True)
        t.sum(axis=1).sum().backward()
        assert np.allclose(t.grad, np.ones((2, 3)))

    def test_max_gradient_flows_to_argmax(self):
        t = Tensor(np.array([[1.0, 5.0, 2.0]]), requires_grad=True)
        t.max(axis=1).sum().backward()
        assert np.allclose(t.grad, [[0.0, 1.0, 0.0]])

    def test_mean_axis_tuple(self):
        t = Tensor(np.ones((2, 3, 4)))
        assert t.mean(axis=(0, 2)).shape == (3,)


class TestElementwise:
    @pytest.mark.parametrize(
        "name",
        ["exp", "log", "sqrt", "tanh", "sigmoid", "relu", "gelu", "abs"],
    )
    def test_unary_gradients_match_numerics(self, name):
        rng = np.random.default_rng(hash(name) % 2**31)
        x = rng.uniform(0.2, 1.5, size=(3, 3))  # positive domain works for log/sqrt

        def expr(t):
            return getattr(t, name)().sum()

        def f(arr):
            with no_grad():
                return float(getattr(Tensor(arr), name)().sum().data)

        assert np.allclose(analytic_gradient(expr, x), numeric_gradient(f, x), atol=1e-5)

    def test_relu_zeroes_negatives(self):
        assert np.allclose(Tensor([-1.0, 2.0]).relu().data, [0.0, 2.0])

    def test_leaky_relu_slope(self):
        out = Tensor([-2.0, 2.0]).leaky_relu(0.1)
        assert np.allclose(out.data, [-0.2, 2.0])

    def test_clip_gradient_masks_out_of_range(self):
        t = Tensor(np.array([-1.0, 0.5, 2.0]), requires_grad=True)
        t.clip(0.0, 1.0).sum().backward()
        assert np.allclose(t.grad, [0.0, 1.0, 0.0])

    def test_sigmoid_range(self):
        out = Tensor(np.linspace(-10, 10, 7)).sigmoid().data
        assert np.all((out > 0) & (out < 1))


class TestSoftmaxAndMasking:
    def test_softmax_rows_sum_to_one(self):
        out = Tensor(np.random.default_rng(0).standard_normal((4, 6))).softmax(axis=-1)
        assert np.allclose(out.data.sum(axis=-1), 1.0)

    def test_softmax_gradient_matches_numeric(self):
        rng = np.random.default_rng(3)
        x = rng.standard_normal((2, 4))
        weights = rng.standard_normal((2, 4))

        def expr(t):
            return (t.softmax(axis=-1) * weights).sum()

        def f(arr):
            with no_grad():
                return float((Tensor(arr).softmax(axis=-1) * weights).sum().data)

        assert np.allclose(analytic_gradient(expr, x), numeric_gradient(f, x), atol=1e-6)

    def test_log_softmax_is_log_of_softmax(self):
        x = np.random.default_rng(4).standard_normal((3, 5))
        assert np.allclose(Tensor(x).log_softmax().data, np.log(Tensor(x).softmax().data))

    def test_masked_fill_blocks_gradient(self):
        t = Tensor(np.ones((2, 2)), requires_grad=True)
        mask = np.array([[True, False], [False, False]])
        t.masked_fill(mask, -5.0).sum().backward()
        assert np.allclose(t.grad, (~mask).astype(float))

    def test_masked_fill_sets_value(self):
        out = Tensor(np.zeros((2, 2))).masked_fill(np.eye(2, dtype=bool), 9.0)
        assert np.allclose(np.diag(out.data), 9.0)


class TestShapeOps:
    def test_reshape_roundtrip_gradient(self):
        t = Tensor(np.arange(6.0), requires_grad=True)
        t.reshape(2, 3).sum().backward()
        assert t.grad.shape == (6,)

    def test_transpose_default_reverses_axes(self):
        t = Tensor(np.zeros((2, 3, 4)))
        assert t.transpose().shape == (4, 3, 2)
        assert t.T.shape == (4, 3, 2)

    def test_transpose_gradient(self):
        t = Tensor(np.random.default_rng(0).standard_normal((2, 3)), requires_grad=True)
        t.transpose().sum().backward()
        assert t.grad.shape == (2, 3)
        # A permutation that is not its own inverse: the backward must undo it.
        t = Tensor(np.random.default_rng(0).standard_normal((2, 3, 4)), requires_grad=True)
        weights = np.arange(24.0).reshape(3, 4, 2)
        (t.transpose(1, 2, 0) * weights).sum().backward()
        np.testing.assert_array_equal(t.grad, weights.transpose(2, 0, 1))

    def test_swapaxes(self):
        t = Tensor(np.zeros((2, 3, 4)))
        assert t.swapaxes(0, 1).shape == (3, 2, 4)

    def test_getitem_int_and_slice(self):
        t = Tensor(np.arange(12.0).reshape(3, 4), requires_grad=True)
        t[1].sum().backward()
        expected = np.zeros((3, 4))
        expected[1] = 1.0
        assert np.allclose(t.grad, expected)

    def test_getitem_fancy_index_gradient_accumulates(self):
        t = Tensor(np.arange(4.0), requires_grad=True)
        t[np.array([0, 0, 2])].sum().backward()
        assert np.allclose(t.grad, [2.0, 0.0, 1.0, 0.0])

    def test_index_select_matches_take(self):
        t = Tensor(np.arange(12.0).reshape(4, 3))
        idx = np.array([[0, 1], [2, 3]])
        assert t.index_select(idx).shape == (2, 2, 3)

    def test_index_select_gradient(self):
        t = Tensor(np.arange(6.0).reshape(3, 2), requires_grad=True)
        t.index_select(np.array([2, 2, 0])).sum().backward()
        assert np.allclose(t.grad, [[1.0, 1.0], [0.0, 0.0], [2.0, 2.0]])

    def test_concat_and_stack_gradients(self):
        a = Tensor(np.ones((2, 2)), requires_grad=True)
        b = Tensor(np.ones((2, 3)), requires_grad=True)
        Tensor.concat([a, b], axis=1).sum().backward()
        assert a.grad.shape == (2, 2) and b.grad.shape == (2, 3)
        c = Tensor(np.ones(3), requires_grad=True)
        Tensor.stack([c, c], axis=0).sum().backward()
        assert np.allclose(c.grad, 2.0)

    def test_pad_last_dims(self):
        t = Tensor(np.ones((2, 3)), requires_grad=True)
        padded = t.pad_last_dims([(1, 2)])
        assert padded.shape == (2, 6)
        padded.sum().backward()
        assert np.allclose(t.grad, np.ones((2, 3)))


class TestBackwardSemantics:
    def test_backward_requires_scalar_or_grad(self):
        t = Tensor(np.ones(3), requires_grad=True)
        with pytest.raises(RuntimeError):
            (t * 2).backward()

    def test_backward_on_non_grad_tensor_raises(self):
        with pytest.raises(RuntimeError):
            Tensor(np.ones(3)).backward()

    def test_no_grad_disables_graph(self):
        with no_grad():
            t = Tensor(np.ones(3), requires_grad=True)
            out = (t * 2).sum()
        assert not out.requires_grad

    def test_no_grad_is_thread_local(self):
        # A serving worker's no_grad() must not bleed into other threads:
        # while this thread holds grad off, a sibling thread still records
        # gradients, and its exit does not re-enable grad here.
        import threading

        from repro.nn import is_grad_enabled

        sibling_saw = {}

        def sibling():
            sibling_saw["enabled"] = is_grad_enabled()
            with no_grad():
                pass
            sibling_saw["after_exit"] = is_grad_enabled()

        with no_grad():
            worker = threading.Thread(target=sibling)
            worker.start()
            worker.join()
            assert not is_grad_enabled()  # sibling's exit did not flip us back
        assert sibling_saw == {"enabled": True, "after_exit": True}

    def test_zero_grad_resets(self):
        t = Tensor(np.ones(3), requires_grad=True)
        (t * 2).sum().backward()
        t.zero_grad()
        assert t.grad is None

    def test_deep_chain_does_not_hit_recursion_limit(self):
        t = Tensor(np.ones(4), requires_grad=True)
        out = t
        for _ in range(2000):
            out = out + 1.0
        out.sum().backward()
        assert np.allclose(t.grad, 1.0)

    def test_diamond_graph_accumulates_once_per_path(self):
        t = Tensor(np.array([2.0]), requires_grad=True)
        a = t * 3.0
        b = t * 4.0
        (a + b).backward(np.array([1.0]))
        assert np.allclose(t.grad, [7.0])



# ----------------------------------------------------------------------
# Pass-through gradients: intermediates adopt their consumer's buffer.
# ----------------------------------------------------------------------
def _copying_passed(self, grad):
    """``Tensor._accumulate_passed`` as the copying path (the oracle)."""
    self._accumulate(grad)
    return False


#: Graphs whose nodes receive the same gradient buffer more than once or
#: through several pass-through consumers: ``leaves -> output``.
_ALIASING_GRAPHS = {
    "leaf_plus_itself": lambda a, b: (a + a) * b,
    "intermediate_plus_itself": lambda a, b: _twice(a * b) + _twice(_twice(a.exp())),
    "add_chain_into_leaf": lambda a, b: ((a + b) + b) + a,
    "diamond": lambda a, b: _diamond(a.tanh(), b),
    "shared_through_reshape": lambda a, b: _shared_reshape(a * 2.0) + b,
    "shared_through_concat": lambda a, b: _shared_concat(a * b),
    "shared_through_stack": lambda a, b: _shared_stack(a.exp(), b),
    "broadcast_and_sum": lambda a, b: (a * 2.0).sum(axis=0, keepdims=True).broadcast_to((3, 4)) + (a - b),
}


def _twice(h):
    return h + h


def _diamond(h, b):
    left = h.reshape(4, 3).transpose().reshape(3, 4)
    right = h * b
    return left + right + h


def _shared_reshape(h):
    return h.reshape(12).reshape(3, 4) + h.reshape(4, 3).reshape(3, 4) + h


def _shared_concat(h):
    joined = Tensor.concat([h, h, h.reshape(3, 4)], axis=0)
    return joined[:3] + joined[3:6] * 2.0 + joined[6:] + h


def _shared_stack(h, b):
    stacked = Tensor.stack([h, h, h + b], axis=1)
    return stacked.sum(axis=1) + stacked[:, 0] + h


def _graph_grads(name, passed=None):
    rng = np.random.default_rng(0)
    a = Tensor(rng.standard_normal((3, 4)), requires_grad=True)
    b = Tensor(rng.standard_normal((3, 4)), requires_grad=True)
    out = _ALIASING_GRAPHS[name](a, b)
    if passed is not None:
        original = Tensor._accumulate_passed
        Tensor._accumulate_passed = passed
    try:
        out.backward(rng.standard_normal(out.shape))
    finally:
        if passed is not None:
            Tensor._accumulate_passed = original
    return out, (a, b)


def _intermediates(out):
    nodes, stack, seen = [], [out], set()
    while stack:
        node = stack.pop()
        if id(node) in seen or node._backward is None:
            continue
        seen.add(id(node))
        nodes.append(node)
        stack.extend(node._parents)
    return nodes


class TestGradientBufferAliasing:
    @pytest.mark.parametrize("name", sorted(_ALIASING_GRAPHS))
    def test_adopted_buffers_give_the_copying_gradients_bit_for_bit(self, name):
        _, adopted = _graph_grads(name)
        _, copied = _graph_grads(name, passed=_copying_passed)
        for leaf, reference in zip(adopted, copied):
            assert reference.grad is not None
            np.testing.assert_array_equal(leaf.grad, reference.grad)

    @pytest.mark.parametrize("name", sorted(_ALIASING_GRAPHS))
    def test_leaf_gradients_are_private(self, name):
        out, leaves = _graph_grads(name)
        nodes = [node for node in _intermediates(out) if node.grad is not None]
        for leaf in leaves:
            others = [other.grad for other in leaves if other is not leaf] + [node.grad for node in nodes]
            assert not any(np.shares_memory(leaf.grad, other) for other in others)

    @pytest.mark.parametrize("name", sorted(_ALIASING_GRAPHS))
    def test_rescaling_a_leaf_changes_no_other_buffer(self, name):
        out, (a, b) = _graph_grads(name)
        nodes = [node for node in _intermediates(out) if node.grad is not None]
        before = [b.grad.copy()] + [node.grad.copy() for node in nodes]
        clip_grad_norm([a], 1e-3)
        a.grad *= 0.5
        after = [b.grad] + [node.grad for node in nodes]
        for old, new in zip(before, after):
            np.testing.assert_array_equal(old, new)

    def test_sum_of_a_leaf_owns_its_gradient(self):
        a = Tensor(np.ones((2, 3)), requires_grad=True)
        a.sum().backward()
        a.grad += 1.0
        np.testing.assert_array_equal(a.grad, np.full((2, 3), 2.0))


class TestPropertyBased:
    @given(
        st.integers(min_value=1, max_value=4),
        st.integers(min_value=1, max_value=4),
        st.integers(min_value=0, max_value=2**31 - 1),
    )
    @settings(max_examples=25, deadline=None)
    def test_composite_expression_gradient(self, rows, cols, seed):
        """Gradient of a random composite expression matches finite differences."""
        rng = np.random.default_rng(seed)
        x = rng.uniform(-1.0, 1.0, size=(rows, cols))
        w = rng.uniform(-1.0, 1.0, size=(cols, 3))

        def expr(t):
            return ((t @ Tensor(w)).tanh() * 2.0 + 0.5).sigmoid().sum()

        def f(arr):
            with no_grad():
                return float(((Tensor(arr) @ Tensor(w)).tanh() * 2.0 + 0.5).sigmoid().sum().data)

        assert np.allclose(analytic_gradient(expr, x), numeric_gradient(f, x), atol=1e-5)

    @given(st.integers(min_value=1, max_value=6), st.integers(min_value=0, max_value=2**31 - 1))
    @settings(max_examples=25, deadline=None)
    def test_softmax_is_shift_invariant(self, cols, seed):
        rng = np.random.default_rng(seed)
        x = rng.standard_normal((2, cols))
        shifted = x + rng.uniform(-100, 100)
        assert np.allclose(Tensor(x).softmax().data, Tensor(shifted).softmax().data, atol=1e-9)

    @given(st.integers(min_value=0, max_value=2**31 - 1))
    @settings(max_examples=25, deadline=None)
    def test_unbroadcast_sum_rule(self, seed):
        """d/db sum(a + b) equals the number of broadcast copies of b."""
        rng = np.random.default_rng(seed)
        rows = int(rng.integers(1, 5))
        a = Tensor(rng.standard_normal((rows, 3)))
        b = Tensor(rng.standard_normal((3,)), requires_grad=True)
        (a + b).sum().backward()
        assert np.allclose(b.grad, rows)


# ----------------------------------------------------------------------
# The no-grad fast path: inference must hold exactly what the tape holds.
# ----------------------------------------------------------------------
def _seeded_inputs(seed: int) -> dict:
    """Seeded float64 inputs shared by both grad modes of one op case."""
    rng = np.random.default_rng(seed)
    return {
        "x": rng.standard_normal((2, 3, 4)),
        "y": rng.standard_normal((3, 4)),
        "pos": rng.uniform(0.5, 2.0, size=(2, 3, 4)),
        "w": rng.standard_normal((4, 5)),
        "v": rng.standard_normal(4),
        "bias": rng.standard_normal(5),
        "gamma": rng.uniform(0.5, 1.5, size=4),
        "mask": rng.random((2, 3, 4)) < 0.3,
        "ints": rng.integers(0, 100, size=(3, 4)).astype(np.int8),
        "targets": rng.integers(0, 4, size=6),
        "square": rng.standard_normal((4, 4)),
        "lora_a": rng.standard_normal((2, 4)),
        "lora_b": rng.standard_normal((5, 2)),
    }


def _inputs_in(dtype: str, seed: int) -> dict:
    """``_seeded_inputs`` with every float64 array cast to ``dtype``."""
    return {
        key: value.astype(dtype) if value.dtype == np.float64 else value
        for key, value in _seeded_inputs(seed).items()
    }


#: Every op of the engine as ``name -> fn(leaf, inputs)``; ``leaf`` turns an
#: array into an input tensor that requires grad in grad mode.
_OPS = {
    "add": lambda leaf, a: leaf(a["x"]) + leaf(a["y"]),
    "radd": lambda leaf, a: 2.5 + leaf(a["x"]),
    "neg": lambda leaf, a: -leaf(a["x"]),
    "sub": lambda leaf, a: leaf(a["x"]) - leaf(a["y"]),
    "rsub": lambda leaf, a: 1.0 - leaf(a["x"]),
    "mul": lambda leaf, a: leaf(a["x"]) * leaf(a["y"]),
    "rmul": lambda leaf, a: 0.3 * leaf(a["x"]),
    "truediv": lambda leaf, a: leaf(a["x"]) / leaf(a["pos"]),
    "rtruediv": lambda leaf, a: 1.0 / leaf(a["pos"]),
    "pow": lambda leaf, a: leaf(a["pos"]) ** 1.5,
    "matmul": lambda leaf, a: leaf(a["x"]) @ leaf(a["w"]),
    "matmul_vector": lambda leaf, a: leaf(a["x"]).matmul(leaf(a["v"])),
    "sum_all": lambda leaf, a: leaf(a["x"]).sum(),
    "sum_axis": lambda leaf, a: leaf(a["x"]).sum(axis=1, keepdims=True),
    "mean_axes": lambda leaf, a: leaf(a["x"]).mean(axis=(0, 2)),
    "mean_all": lambda leaf, a: leaf(a["x"]).mean(),
    "var": lambda leaf, a: leaf(a["x"]).var(axis=-1),
    "max_all": lambda leaf, a: leaf(a["x"]).max(),
    "max_axis": lambda leaf, a: leaf(a["x"]).max(axis=1),
    "exp": lambda leaf, a: leaf(a["x"]).exp(),
    "log": lambda leaf, a: leaf(a["pos"]).log(),
    "sqrt": lambda leaf, a: leaf(a["pos"]).sqrt(),
    "abs": lambda leaf, a: leaf(a["x"]).abs(),
    "tanh": lambda leaf, a: leaf(a["x"]).tanh(),
    "sigmoid": lambda leaf, a: leaf(a["x"]).sigmoid(),
    "relu": lambda leaf, a: leaf(a["x"]).relu(),
    "leaky_relu": lambda leaf, a: leaf(a["x"]).leaky_relu(0.1),
    "gelu": lambda leaf, a: leaf(a["x"]).gelu(),
    "clip": lambda leaf, a: leaf(a["x"]).clip(-0.5, 0.5),
    "reshape": lambda leaf, a: leaf(a["x"]).reshape(6, 4),
    "transpose": lambda leaf, a: leaf(a["x"]).transpose(2, 0, 1),
    "T": lambda leaf, a: leaf(a["x"]).T,
    "swapaxes": lambda leaf, a: leaf(a["x"]).swapaxes(0, 2),
    "getitem_slice": lambda leaf, a: leaf(a["x"])[:, 1:],
    "getitem_fancy": lambda leaf, a: leaf(a["x"])[np.array([1, 0, 1])],
    "index_select": lambda leaf, a: leaf(a["x"]).index_select(np.array([2, 0]), axis=1),
    "pad_last_dims": lambda leaf, a: leaf(a["x"]).pad_last_dims([(1, 2)]),
    "softmax": lambda leaf, a: leaf(a["x"]).softmax(axis=1),
    "log_softmax": lambda leaf, a: leaf(a["x"]).log_softmax(),
    "masked_fill": lambda leaf, a: leaf(a["x"]).masked_fill(a["mask"], -1e9),
    "concat": lambda leaf, a: Tensor.concat([leaf(a["x"]), leaf(a["pos"])], axis=1),
    "stack": lambda leaf, a: Tensor.stack([leaf(a["x"]), leaf(a["pos"])], axis=1),
    "fused_linear": lambda leaf, a: F.fused_linear(leaf(a["x"]), leaf(a["w"].T), leaf(a["bias"])),
    "fused_layer_norm": lambda leaf, a: F.fused_layer_norm(leaf(a["x"]), leaf(a["gamma"]), leaf(a["v"])),
    "fused_gelu": lambda leaf, a: F.fused_gelu(leaf(a["x"])),
    "attention": lambda leaf, a: F.scaled_dot_product_attention(
        leaf(a["x"][:, None]), leaf(a["pos"][:, None]), leaf(a["x"][:, None]), is_causal=True
    ),
    "gather_rows": lambda leaf, a: F.gather_rows(leaf(a["x"]), [0, 1, 1], [2, 0, 1]),
    "cross_entropy": lambda leaf, a: F.fused_cross_entropy(leaf(a["x"]).reshape(6, 4), a["targets"]),
    "cross_entropy_sum": lambda leaf, a: F.fused_cross_entropy(
        leaf(a["x"]).reshape(6, 4), a["targets"], reduction="sum"
    ),
    "cross_entropy_rows": lambda leaf, a: F.fused_cross_entropy(
        leaf(a["x"]).reshape(6, 4), a["targets"], reduction="none"
    ),
    "broadcast_to": lambda leaf, a: leaf(a["v"]).broadcast_to((2, 3, 4)),
    # A padding-style mask that never hides a row's own key: the general
    # (not block-causal) attention kernel.
    "attention_masked": lambda leaf, a: F.scaled_dot_product_attention(
        leaf(a["x"][:, None]),
        leaf(a["pos"][:, None]),
        leaf(a["y"][None, None]),
        mask=a["mask"][:, None, :, :3] & ~np.eye(3, dtype=bool),
    ),
    "gelu_composed": lambda leaf, a: F.gelu_composed(leaf(a["x"])),
    "mlp": lambda leaf, a: F.mlp(leaf(a["x"]), [(leaf(a["w"].T), leaf(a["bias"])), (leaf(a["w"]), leaf(a["v"]))]),
    "mlp_composed": lambda leaf, a: _mlp_composed(leaf(a["x"]), leaf(a["w"].T), leaf(a["bias"]), leaf(a["w"]), leaf(a["v"])),
    "mlp_groups": lambda leaf, a: F.mlp(
        leaf(a["y"]), [(leaf(a["w"].T), leaf(a["bias"])), (leaf(a["w"]), leaf(a["v"]))], groups=[(0, 1), (1, 3)]
    ),
    "layer_norm_composed": lambda leaf, a: F.layer_norm_composed(leaf(a["x"]), leaf(a["gamma"]), leaf(a["v"])),
    "lora_linear": lambda leaf, a: F.lora_linear(
        leaf(a["x"]), leaf(a["w"].T), leaf(a["bias"]), leaf(a["lora_a"]), leaf(a["lora_b"]), 1.5
    ),
    "lora_linear_composed": lambda leaf, a: F.lora_linear_composed(
        leaf(a["x"]), leaf(a["w"].T), leaf(a["bias"]), leaf(a["lora_a"]), leaf(a["lora_b"]), 1.5
    ),
    "cross_attention_rows": lambda leaf, a: F.cross_attention_rows(
        leaf(a["x"]), leaf(a["square"]), leaf(a["v"]), np.array([0, 1, 1, 0]), np.array([2, 0, 2, 1]), 0.5
    ),
    "cross_attention_rows_composed": lambda leaf, a: F.cross_attention_rows_composed(
        leaf(a["x"]), leaf(a["square"]), leaf(a["v"]), np.array([0, 1, 1, 0]), np.array([2, 0, 2, 1]), 0.5
    ),
    "graph_attention": lambda leaf, a: F.graph_attention(
        leaf(a["x"][..., :1]), leaf(a["pos"][..., 1:2]), a["mask"][0, :, :3] & ~np.eye(3, dtype=bool), 0.2
    ),
    "graph_attention_composed": lambda leaf, a: F.graph_attention_composed(
        leaf(a["x"][..., :1]), leaf(a["pos"][..., 1:2]), a["mask"][0, :, :3] & ~np.eye(3, dtype=bool), 0.2
    ),
    # Overlapping pieces, a shared source and a broadcast 1-D source.
    "scatter_rows": lambda leaf, a: _scatter(leaf(a["y"]), leaf(a["v"]), a["x"].dtype),
    # Dtype rules: float64 data meeting a float32 tensor (NumPy promotes it
    # to float64), a float16 input, and an op whose NumPy result is float16
    # (sqrt of int8), promoted to float32.
    "float32_with_float64_array": lambda leaf, a: leaf(a["x"].astype(np.float32)) + a["y"],
    "float32_with_float64_tensor": lambda leaf, a: leaf(a["x"].astype(np.float32))
    * Tensor(a["y"], dtype=np.float64),
    "float16_input": lambda leaf, a: leaf(a["x"].astype(np.float16)) * 3.0,
    "float16_result": lambda leaf, a: leaf(a["ints"]).sqrt(),
}


def _mlp_composed(x: Tensor, w1: Tensor, b1: Tensor, w2: Tensor, b2: Tensor) -> Tensor:
    """Linear → GELU → linear as the composed per-op tape (the oracle of ``F.mlp``)."""
    with fused_kernels(False):
        return F.linear(F.gelu(F.linear(x, w1, b1)), w2, b2)


def _scatter(rows: Tensor, vector: Tensor, dtype) -> Tensor:
    pieces = [(rows, 0, [0, 2], [1, 0]), (rows, 1, slice(0, 2), slice(1, 3)), (vector, 1, [1, 2], None)]
    return F.scatter_rows(np.zeros((2, 3, 4), dtype=dtype), pieces)


class TestNoGradFastPath:
    # The engine is dtype-generic: float32 data stays float32 through every
    # op (NumPy's promotion rules), so the fast path must match the tape on
    # float32 inputs as well as on float64 ones.
    @pytest.mark.parametrize("dtype", ["float64", "float32"])
    @pytest.mark.parametrize("name", sorted(_OPS))
    def test_no_grad_output_equals_grad_mode_bit_for_bit(self, name, dtype):
        op = _OPS[name]
        taped = op(lambda array: Tensor(array, requires_grad=True), _inputs_in(dtype, 7))
        with no_grad():
            fast = op(lambda array: Tensor(array, requires_grad=True), _inputs_in(dtype, 7))
        assert type(fast.data) is np.ndarray
        assert fast.dtype == taped.dtype and fast.shape == taped.shape
        np.testing.assert_array_equal(fast.data, taped.data)
        assert not fast.requires_grad and fast._parents == () and fast._backward is None
        assert taped.requires_grad and taped._parents

    @pytest.mark.parametrize("dtype", ["float64", "float32"])
    def test_wrap_holds_what_the_constructor_holds(self, dtype):
        rng = np.random.default_rng(3)
        base = rng.standard_normal((3, 5)).astype(dtype)
        outputs = [
            base,
            base.astype(np.float32),
            base.astype(np.float16),
            base[:, ::2],
            base.T,
            (base * 100).astype(np.int8),
            (base * 100).astype(np.int64),
            base > 0,
            np.asarray(1.5),
            np.float64(1.5),
            np.float32(1.5),
            np.float16(1.5),
            np.int64(3),
        ]
        for raw in outputs:
            wrapped, constructed = _wrap(raw), Tensor(raw)
            assert wrapped.dtype == constructed.dtype, raw
            assert type(wrapped.data) is np.ndarray
            np.testing.assert_array_equal(wrapped.data, constructed.data)
            assert np.shares_memory(wrapped.data, raw) == np.shares_memory(constructed.data, raw)
            assert (wrapped.requires_grad, wrapped.grad, wrapped._parents, wrapped.name) == (
                False,
                None,
                (),
                None,
            )


# ----------------------------------------------------------------------
# Every op's backward against central differences of its own forward.
# ----------------------------------------------------------------------
#: Cases whose output is float32/float16 or whose only input is an integer
#: array: central differences at float64 step sizes cannot resolve them.
_NOT_DIFFERENTIABLE_IN_FLOAT64 = {
    "float32_with_float64_array",
    "float32_with_float64_tensor",
    "float16_input",
    "float16_result",
}


def _run_op(op, inputs, override=None):
    """Run ``op`` once; ``override = (leaf_index, array)`` replaces one leaf's data."""
    leaves = []

    def leaf(array):
        if override is not None and override[0] == len(leaves):
            array = override[1]
        tensor = Tensor(np.array(array, dtype=np.float64), requires_grad=True)
        leaves.append(tensor)
        return tensor

    return op(leaf, inputs), leaves


class TestOpGradientsMatchFiniteDifferences:
    @pytest.mark.parametrize("name", sorted(set(_OPS) - _NOT_DIFFERENTIABLE_IN_FLOAT64))
    def test_backward_matches_central_differences(self, name):
        op, inputs, eps = _OPS[name], _seeded_inputs(11), 1e-6
        out, leaves = _run_op(op, inputs)
        weights = np.random.default_rng(5).standard_normal(out.shape)
        out.backward(weights)
        assert leaves, name
        for index, leaf in enumerate(leaves):
            base = leaf.data
            numeric = np.zeros(base.size)
            for flat in range(base.size):
                bumped = []
                for sign in (1.0, -1.0):
                    moved = base.copy().reshape(-1)
                    moved[flat] += sign * eps
                    with no_grad():
                        bumped.append(_run_op(op, inputs, (index, moved.reshape(base.shape)))[0].data)
                # Difference the outputs first: masked_fill's -1e9 cells cancel exactly.
                numeric[flat] = float(np.sum((bumped[0] - bumped[1]) * weights)) / (2 * eps)
            analytic = np.zeros_like(base) if leaf.grad is None else leaf.grad
            np.testing.assert_allclose(analytic, numeric.reshape(base.shape), rtol=1e-5, atol=1e-6, err_msg=f"{name} leaf {index}")
