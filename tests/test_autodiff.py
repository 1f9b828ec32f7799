import functools
import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import modkernel.autodiff as ad
from modkernel import proxies
from modkernel.errors import ContractError, DimensionError
from modkernel.kernels import FeatureMap, gram_tensor
from modkernel.training import ArchitectureSpec, TwoModuleModel

from oracles import (central_difference, gram_pair_sum_reference,
                     masked_chain_reference, naive_matmul,
                     topological_order_reference)


def _leaf(arr):
    return ad.Tensor(np.asarray(arr, dtype=np.float64), requires_grad=True)


class TestAffine:
    def test_identity_weights(self):
        out = ad.affine(ad.constant([[1.0, 2.0]]), ad.constant(np.eye(2)),
                        ad.constant([0.0, 0.0]))
        np.testing.assert_array_equal(out.data, [[1.0, 2.0]])

    def test_hand_arithmetic(self):
        out = ad.affine(ad.constant([[1.0, 1.0]]),
                        ad.constant([[2.0], [3.0]]), ad.constant([1.0]))
        np.testing.assert_array_equal(out.data, [[6.0]])

    def test_matches_naive_matmul(self):
        rng = np.random.default_rng(42)
        x = rng.standard_normal((3, 4))
        W = rng.standard_normal((4, 2))
        b = rng.standard_normal(2)
        out = ad.affine(ad.constant(x), ad.constant(W), ad.constant(b))
        np.testing.assert_allclose(out.data, naive_matmul(x, W) + b,
                                   rtol=0, atol=1e-12)

    def test_shape_mismatch(self):
        with pytest.raises(DimensionError):
            ad.affine(ad.constant([[1.0, 2.0]]), ad.constant([[1.0]]),
                      ad.constant([0.0]))


class TestElementwise:
    def test_relu(self):
        out = ad.elementwise(ad.constant([-1.0, 0.0, 2.0]), "relu")
        np.testing.assert_array_equal(out.data, [0.0, 0.0, 2.0])

    def test_tanh_odd(self):
        assert ad.elementwise(ad.constant([0.0]), "tanh").data[0] == 0.0

    def test_sigmoid_origin(self):
        assert ad.elementwise(ad.constant([0.0]), "sigmoid").data[0] == 0.5

    def test_unknown_kind(self):
        with pytest.raises(ContractError):
            ad.elementwise(ad.constant([1.0]), "softsign")

    def test_relu_gradient_at_zero_is_zero(self):
        x = _leaf([0.0, -1.0, 3.0])
        ad.backward(ad.tensor_sum(ad.relu(x)))
        np.testing.assert_array_equal(x.grad, [0.0, 0.0, 1.0])


class TestUnitNormalize:
    def test_three_four_five(self):
        out = ad.unit_normalize(ad.constant([[3.0, 4.0]]))
        np.testing.assert_allclose(out.data, [[0.6, 0.8]], rtol=0, atol=1e-15)

    def test_zero_row_stays_zero(self):
        out = ad.unit_normalize(ad.constant([[0.0, 0.0]]), epsilon=1e-12)
        np.testing.assert_array_equal(out.data, [[0.0, 0.0]])

    def test_row_norms_are_one(self):
        rng = np.random.default_rng(11)
        out = ad.unit_normalize(ad.constant(rng.standard_normal((20, 5))))
        np.testing.assert_allclose(np.linalg.norm(out.data, axis=1), 1.0,
                                   rtol=0, atol=1e-12)

    def test_requires_positive_epsilon(self):
        with pytest.raises(ContractError):
            ad.unit_normalize(ad.constant([[1.0, 0.0]]), epsilon=0.0)


class TestBackward:
    def test_linear_loss_gradient_structure(self):
        # loss = sum(x @ W) with x fixed: dW[i, j] = sum_n x[n, i]
        rng = np.random.default_rng(0)
        x = rng.standard_normal((4, 3))
        W = _leaf(rng.standard_normal((3, 2)))
        ad.backward(ad.tensor_sum(ad.matmul(ad.constant(x), W)))
        expected = np.outer(x.sum(axis=0), np.ones(2))
        np.testing.assert_allclose(W.grad, expected, rtol=1e-12, atol=1e-12)

    def test_constant_loss_zero_grads(self):
        W = _leaf([[1.0, 2.0]])
        ad.backward(ad.tensor_sum(W * 0.0))
        np.testing.assert_array_equal(W.grad, [[0.0, 0.0]])

    def test_nonscalar_loss_rejected(self):
        W = _leaf([[1.0, 2.0]])
        with pytest.raises(ContractError):
            ad.backward(W)

    def test_composite_net_matches_finite_differences(self):
        rng = np.random.default_rng(3)
        x = rng.standard_normal((5, 4))
        W1 = rng.standard_normal((4, 6)) * 0.7
        b1 = rng.standard_normal(6) * 0.1
        W2 = rng.standard_normal((6, 3)) * 0.7
        b2 = rng.standard_normal(3) * 0.1
        y = rng.integers(0, 3, 5)

        def run(w1_arr):
            h = ad.affine(ad.constant(x), ad.Tensor(w1_arr), ad.constant(b1))
            h = ad.relu(h)
            h = ad.unit_normalize(ad.tanh(ad.affine(
                h, ad.constant(W2), ad.constant(b2))))
            probs = ad.affine(h, ad.constant(np.eye(3)), ad.constant(np.zeros(3)))
            return ad.cross_entropy_logits(probs, y)

        W1_t = _leaf(W1)
        h = ad.affine(ad.constant(x), W1_t, ad.constant(b1))
        h = ad.relu(h)
        h = ad.unit_normalize(ad.tanh(ad.affine(h, ad.constant(W2),
                                                ad.constant(b2))))
        probs = ad.affine(h, ad.constant(np.eye(3)), ad.constant(np.zeros(3)))
        ad.backward(ad.cross_entropy_logits(probs, y))
        fd = central_difference(lambda w: run(w).item(), W1)
        np.testing.assert_allclose(W1_t.grad, fd, rtol=1e-5, atol=1e-8)

    def test_backward_twice_with_zeroing_is_deterministic(self):
        rng = np.random.default_rng(5)
        W = _leaf(rng.standard_normal((3, 3)))

        def build():
            return ad.tensor_sum(ad.square(ad.tanh(W)))

        ad.backward(build())
        first = W.grad.copy()
        W.zero_grad()
        ad.backward(build())
        np.testing.assert_array_equal(first, W.grad)

    def test_gradients_accumulate_without_zeroing(self):
        W = _leaf([[2.0]])
        ad.backward(ad.tensor_sum(ad.square(W)))
        ad.backward(ad.tensor_sum(ad.square(W)))
        np.testing.assert_allclose(W.grad, [[8.0]], rtol=0, atol=1e-15)

    def test_diamond_reuse_accumulates_both_paths(self):
        # z feeds both factors of the product, through two paths.
        z = _leaf([[0.1, 0.2], [0.3, 0.4]])
        K = ad.matmul(ad.exp(z), ad.tanh(z))
        ad.backward(ad.tensor_sum(K))
        fd = central_difference(
            lambda arr: float((np.exp(arr) @ np.tanh(arr)).sum()), z.data)
        np.testing.assert_allclose(z.grad, fd, rtol=1e-7, atol=1e-9)


class TestOpGradients:
    """Central finite differences for each primitive, a few seeds each.

    The acceptance suite repeats this for 100 seeds.
    """

    @pytest.mark.parametrize("seed", range(5))
    def test_primitives(self, seed):
        rng = np.random.default_rng(seed)
        check_all_op_gradients(rng)


def check_all_op_gradients(rng, rtol=1e-5, atol=1e-8):
    """Shared by the unit test above and the acceptance suite."""
    x = rng.standard_normal((3, 4)) * 0.8
    w = rng.standard_normal((4, 2)) * 0.8
    b = rng.standard_normal(2) * 0.5
    m = rng.standard_normal((3, 4))
    labels = rng.integers(0, 2, 3)
    weights = rng.standard_normal((3, 3))
    classes = np.array([0, 1, 0])

    cases = {
        "add": (lambda t: ad.tensor_sum(ad.square(ad.add(t, ad.constant(m)))), x),
        "affine_bias": (lambda t: ad.tensor_sum(ad.square(ad.affine(
            ad.constant(x), ad.constant(w), t))), b),
        "sub": (lambda t: ad.tensor_sum(ad.square(ad.sub(t, ad.constant(m)))), x),
        "neg": (lambda t: ad.tensor_sum(ad.square(ad.neg(t))), x),
        "mul": (lambda t: ad.tensor_sum(ad.mul(t, ad.constant(m))), x),
        "div": (lambda t: ad.tensor_sum(ad.div(t, ad.constant(
            np.abs(m) + 1.0))), x),
        "matmul": (lambda t: ad.tensor_sum(ad.square(
            ad.matmul(t, ad.constant(w)))), x),
        "gram": (lambda t: ad.tensor_sum(ad.mul(
            ad.gram(t), ad.constant(weights))), x),
        "affine": (lambda t: ad.tensor_sum(ad.square(ad.affine(
            ad.constant(x), t, ad.constant(b)))), w),
        "affine_tanh": (lambda t: ad.tensor_sum(ad.square(ad.affine(
            ad.constant(x), t, ad.constant(b), kind="tanh"))), w),
        "relu": (lambda t: ad.tensor_sum(ad.relu(t)), x + 0.05),
        "tanh": (lambda t: ad.tensor_sum(ad.square(ad.tanh(t))), x),
        "sigmoid": (lambda t: ad.tensor_sum(ad.square(
            ad.elementwise(t, "sigmoid"))), x),
        "exp": (lambda t: ad.tensor_sum(ad.exp(t)), x),
        "sqrt": (lambda t: ad.tensor_sum(ad.sqrt(t)), np.abs(x) + 0.5),
        "square": (lambda t: ad.tensor_sum(ad.square(t)), x),
        "softplus": (lambda t: ad.tensor_sum(ad.softplus(t)), x),
        "sum": (lambda t: ad.square(ad.tensor_sum(t)), x),
        "masked_sum": (lambda t: ad.square(ad.masked_sum(t, m > 0)), x),
        "pair_sum_exp": (lambda t: ad.square(ad.pair_sum(
            t, classes, "exp", (0.6, -1.1, 1.7), 0.3)), x[:, :3]),
        "pair_sum_square": (lambda t: ad.square(ad.pair_sum(
            t, classes, "square", (-0.8, 0.5, 2.0), -1.0)), x[:, :3]),
        "unit_normalize": (lambda t: ad.tensor_sum(ad.mul(
            ad.unit_normalize(t), ad.constant(m))), x),
        "unit_normalize_tanh": (lambda t: ad.tensor_sum(ad.mul(
            ad.unit_normalize(t, kind="tanh"), ad.constant(m))), x),
        "cross_entropy": (lambda t: ad.cross_entropy_logits(
            ad.matmul(t, ad.constant(w)), labels), x),
    }
    for K in (1, 3):  # a leading stack axis of K heads
        xs = rng.standard_normal((K, 3, 4)) * 0.8
        ws = rng.standard_normal((K, 4, 2)) * 0.8
        bs = rng.standard_normal((K, 2)) * 0.5
        per_head = ad.constant(rng.standard_normal(K))
        cases[f"affine_stack_{K}_weight"] = (
            lambda t, xs=xs, bs=bs: ad.tensor_sum(ad.square(ad.affine(
                ad.constant(xs), t, ad.constant(bs), kind="tanh"))), ws)
        cases[f"affine_stack_{K}_bias"] = (
            lambda t, xs=xs, ws=ws: ad.tensor_sum(ad.square(ad.affine(
                ad.constant(xs), ad.constant(ws), t))), bs)
        cases[f"cross_entropy_stack_{K}"] = (
            lambda t, ws=ws, bs=bs, per_head=per_head: ad.tensor_sum(ad.mul(
                ad.cross_entropy_logits(ad.affine(
                    t, ad.constant(ws), ad.constant(bs)), labels),
                per_head)), xs)
    for name, (build, value) in cases.items():
        leaf = ad.Tensor(value.copy(), requires_grad=True)
        ad.backward(build(leaf))
        fd = central_difference(
            lambda arr, fn=build: fn(ad.Tensor(arr)).item(), value)
        np.testing.assert_allclose(
            leaf.grad, fd, rtol=rtol, atol=atol,
            err_msg=f"gradient mismatch for op {name}")


def _hexes(arr):
    return [float.hex(float(v)) for v in np.ravel(arr)]


def _sigmoid_reference(z):
    """The sigmoid as the autodiff module writes it, each side of 0."""
    ez = np.exp(np.minimum(z, 0.0))
    return np.where(z >= 0, 1.0 / (1.0 + np.exp(-np.maximum(z, 0.0))),
                    ez / (1.0 + ez))


def _pull(out, g, *leaves):
    """The gradients one node's rule gives its operands for the node
    gradient g, each operand holding no gradient before."""
    for leaf in leaves:
        leaf.grad = None
    out._backward(g)
    return [leaf.grad for leaf in leaves]


class TestElementwiseBuilders:
    """The nodes built by ad._binary and ad._unary: one shape rule for the
    four binary ops, and the value and every gradient with the bits of a
    numpy expression in the association order of the rule it replaced."""

    BINARY = ("add", "sub", "mul", "div")
    # Each operand's shape; a size-1 operand sums its gradient down.
    SHAPES = [((3, 4), (3, 4)), ((), (3, 4)), ((3, 4), ()),
              ((1,), (3, 4)), ((3, 4), (1, 1))]

    @pytest.mark.parametrize("op", BINARY)
    @pytest.mark.parametrize("shapes", [((3, 4), (4,)), ((4,), (3, 4)),
                                        ((3, 4), (3, 1)), ((2, 3), (3, 2)),
                                        ((3,), (4,))])
    def test_shapes_that_do_not_conform_raise_naming_the_op(self, op,
                                                            shapes):
        a, b = (_leaf(np.ones(shape)) for shape in shapes)
        with pytest.raises(DimensionError, match=f"^{op}: "):
            getattr(ad, op)(a, b)

    @pytest.mark.parametrize("op", BINARY)
    @pytest.mark.parametrize("shapes", SHAPES)
    def test_binary_bits(self, op, shapes):
        rng = np.random.default_rng(len(op) + 7 * sum(map(len, shapes)))
        a_data, b_data = (rng.standard_normal(shape) for shape in shapes)
        b_data = np.abs(b_data) + 0.5
        g = rng.standard_normal(np.broadcast_shapes(*shapes))

        def down(v, shape):
            return v if shape == g.shape else v.sum()

        value, grad_a, grad_b = {
            "add": (a_data + b_data, g, g),
            "sub": (a_data - b_data, g, None),
            "mul": (a_data * b_data, g * b_data, g * a_data),
            "div": (a_data / b_data, g / b_data,
                    -g * a_data / (b_data * b_data)),
        }[op]
        want_b = (-down(g, shapes[1]) if grad_b is None
                  else down(grad_b, shapes[1]))
        a, b = _leaf(a_data), _leaf(b_data)
        out = getattr(ad, op)(a, b)
        assert _hexes(out.data) == _hexes(value)
        got_a, got_b = _pull(out, g, a, b)
        assert got_a.shape == shapes[0] and got_b.shape == shapes[1]
        assert _hexes(got_a) == _hexes(down(grad_a, shapes[0]))
        assert _hexes(got_b) == _hexes(want_b)
        assert not any(np.shares_memory(grad, g) for grad in (got_a, got_b))

    @pytest.mark.parametrize("name", ["neg", "exp", "sqrt", "square",
                                      "softplus", "relu", "tanh", "sigmoid",
                                      "gram", "tensor_sum", "masked_sum"])
    def test_unary_bits(self, name):
        rng = np.random.default_rng(len(name))
        x_data = rng.standard_normal((5, 4)) * 2.0
        if name == "sqrt":
            x_data = np.abs(x_data)
        mask = rng.random((5, 4)) < 0.5
        y = {"exp": np.exp(x_data), "sqrt": np.sqrt(np.abs(x_data)),
             "relu": np.maximum(x_data, 0.0), "tanh": np.tanh(x_data),
             "sigmoid": _sigmoid_reference(x_data)}.get(name)
        build, value, local = {
            "neg": (ad.neg, -x_data, lambda g: -g),
            "exp": (ad.exp, y, lambda g: g * y),
            "sqrt": (ad.sqrt, y, lambda g: g * 0.5 / y),
            "square": (ad.square, x_data * x_data,
                       lambda g: g * 2.0 * x_data),
            "softplus": (ad.softplus, np.maximum(x_data, 0.0) + np.log1p(
                np.exp(-np.abs(x_data))),
                lambda g: g * _sigmoid_reference(x_data)),
            "relu": (ad.relu, y, lambda g: g * (y > 0)),
            "tanh": (ad.tanh, y, lambda g: g * (1.0 - y * y)),
            "sigmoid": (lambda t: ad.elementwise(t, "sigmoid"), y,
                        lambda g: g * (y * (1.0 - y))),
            "gram": (ad.gram, x_data @ x_data.T,
                     lambda g: g @ x_data + (x_data.T @ g).T),
            "tensor_sum": (ad.tensor_sum, x_data.sum(),
                           lambda g: np.full(x_data.shape, g)),
            "masked_sum": (lambda t: ad.masked_sum(t, mask),
                           np.multiply(x_data, mask).sum(),
                           lambda g: np.multiply(g, mask)),
        }[name]
        self._check_unary(build, x_data, value, local, rng)

    def test_stacked_masked_sum_bits(self):
        rng = np.random.default_rng(3)
        x_data = rng.standard_normal((2, 5, 4))
        mask = rng.random((5, 4)) < 0.5
        self._check_unary(lambda t: ad.masked_sum(t, mask), x_data,
                          np.multiply(x_data, mask).sum(axis=(1, 2)),
                          lambda g: np.multiply(g[:, None, None], mask), rng)

    @staticmethod
    def _check_unary(build, x_data, value, local, rng):
        x = _leaf(x_data)
        out = build(x)
        assert out.data.shape == np.shape(value)
        assert _hexes(out.data) == _hexes(value)
        g = rng.standard_normal(out.data.shape)
        (got,) = _pull(out, g, x)
        assert got.shape == x_data.shape
        assert _hexes(got) == _hexes(local(g))


class TestStackAxis:
    """A leading stack axis of K on affine and cross_entropy_logits: with
    d and C at least 2, each slice of the values and gradients has the
    bits of the 2-D nodes on that slice."""

    @settings(max_examples=40, deadline=None, derandomize=True,
              database=None)
    @given(K=st.integers(1, 4), n=st.integers(1, 70), d=st.integers(2, 5),
           C=st.integers(2, 6), kind=st.sampled_from([None, "tanh"]),
           seed=st.integers(0, 2 ** 32 - 1))
    def test_slices_have_the_bits_of_the_2d_nodes(self, K, n, d, C, kind,
                                                  seed):
        rng = np.random.default_rng(seed)
        x, W, b = (rng.standard_normal(shape)
                   for shape in ((K, n, d), (K, d, C), (K, C)))
        labels = rng.integers(0, C, n)
        stacked = [_leaf(a) for a in (x, W, b)]
        logits = ad.affine(*stacked, kind=kind)
        losses = ad.cross_entropy_logits(logits, labels)
        assert losses.shape == (K,)
        ad.backward(ad.tensor_sum(losses))
        for k in range(K):
            leaves = [_leaf(a[k]) for a in (x, W, b)]
            logits_k = ad.affine(*leaves, kind=kind)
            loss_k = ad.cross_entropy_logits(logits_k, labels)
            ad.backward(loss_k)
            assert _hexes(logits.data[k]) == _hexes(logits_k.data)
            assert _hexes(losses.data[k]) == _hexes(loss_k.data)
            for whole, leaf in zip(stacked, leaves):
                assert _hexes(whole.grad[k]) == _hexes(leaf.grad)

    def test_mismatched_stacks_rejected(self):
        x, W, b = np.ones((2, 5, 3)), np.ones((2, 3, 4)), np.ones((2, 4))
        for args in ((x, np.ones((3, 3, 4)), b), (x, W, np.ones((3, 4))),
                     (x, W[0], b[0]), (x[0], W, b), (x, W, b[0]),
                     (np.ones((1, 2, 5, 3)), W[None], b[None])):
            with pytest.raises(DimensionError):
                ad.affine(*map(ad.constant, args))
        with pytest.raises(DimensionError):
            ad.cross_entropy_logits(ad.constant(np.ones((1, 2, 5, 3))),
                                    np.zeros(5, dtype=np.int64))
        with pytest.raises(DimensionError):
            ad.cross_entropy_logits(ad.constant(np.ones((2, 5, 3))),
                                    np.zeros(4, dtype=np.int64))


def _narrow_values(rng, shape, special_share):
    """Random magnitudes across 10^-8 to 10^8 of either sign, with a share
    of NaN, +-inf, +-0.0 and subnormals."""
    values = rng.choice([-1.0, 1.0], shape) * 10.0 ** rng.uniform(-8, 8, shape)
    specials = np.array([np.nan, np.inf, -np.inf, 0.0, -0.0,
                         5e-324, -5e-324, 2.2e-308, -1.1e-310])
    picked = rng.random(shape) < special_share
    values[picked] = rng.choice(specials, int(picked.sum()))
    return values


class TestRowwise:
    """ad._rowwise, which takes narrow rows one column at a time once there
    are enough of them, against numpy's own call: the same bytes, but for
    the sign of a NaN maximum."""

    @settings(max_examples=150, deadline=None, derandomize=True,
              database=None)
    @given(width=st.integers(1, 16), stack=st.sampled_from([(), (1,), (3,)]),
           n=st.one_of(st.integers(1, 40), st.integers(200, 4000)),
           special_share=st.sampled_from([0.0, 0.05, 0.3, 0.8]),
           negative_zero_row=st.booleans(), seed=st.integers(0, 2 ** 32 - 1))
    def test_has_the_bytes_of_numpy(self, width, stack, n, special_share,
                                    negative_zero_row, seed):
        rng = np.random.default_rng(seed)
        x = _narrow_values(rng, stack + (n, width), special_share)
        if negative_zero_row:
            x[..., 0, :] = -0.0
        column = _narrow_values(rng, stack + (n, 1), special_share)
        row = _narrow_values(rng, stack + (1, width), special_share)
        with np.errstate(all="ignore"):
            sums = ad._rowwise(np.add, x)
            assert sums.tobytes() == np.add.reduce(
                x, axis=-1, keepdims=True).tobytes()
            maxima = ad._rowwise(np.maximum, x)
            want = np.maximum.reduce(x, axis=-1, keepdims=True)
            nan_rows = np.isnan(want)
            np.testing.assert_array_equal(np.isnan(maxima), nan_rows)
            assert maxima[~nan_rows].tobytes() == want[~nan_rows].tobytes()
            for ufunc in (np.add, np.subtract, np.multiply, np.divide):
                for y in (column, row):
                    want = ufunc(x, y)
                    assert ad._rowwise(ufunc, x, y).tobytes() == want.tobytes()
                    inplace = x.copy()
                    ad._rowwise(ufunc, inplace, y, out=inplace)
                    assert inplace.tobytes() == want.tobytes()


class TestNarrowRowGradients:
    """Central finite differences of the nodes that take narrow rows one
    column at a time, at widths on both sides of ad.NARROW_WIDTH and at row
    counts on both sides of the column path."""

    ROWS = st.one_of(st.integers(1, 6), st.integers(1000, 4000))

    @settings(max_examples=60, deadline=None, derandomize=True,
              database=None)
    @given(width=st.integers(1, 9), n=ROWS,
           kind=st.sampled_from([None, "relu", "tanh", "sigmoid"]),
           zero_rows=st.booleans(), seed=st.integers(0, 2 ** 32 - 1))
    def test_unit_normalize(self, width, n, kind, zero_rows, seed):
        """Entries stay 0.1 clear of relu's kink, so relu makes its zero
        rows from negative ones.  Zero rows take an epsilon of 1e-3, so the
        finite-difference steps stay on the floor, where the map is
        linear."""
        rng = np.random.default_rng(seed)
        x = rng.choice([-1.0, 1.0], (n, width)) * rng.uniform(0.1, 2.0,
                                                              (n, width))
        epsilon = 1e-12
        if zero_rows:
            zero = rng.random(n) < 0.5
            x[zero] = -np.abs(x[zero]) if kind == "relu" else 0.0
            epsilon = 1e-3
        m = ad.constant(rng.standard_normal((n, width)))

        def build(t):
            return ad.tensor_sum(ad.mul(ad.unit_normalize(t, epsilon, kind),
                                        m))

        self._check(build, x, rng)

    @settings(max_examples=60, deadline=None, derandomize=True,
              database=None)
    @given(width=st.integers(1, 9), n=ROWS,
           stack=st.sampled_from([(), (1,), (3,)]),
           seed=st.integers(0, 2 ** 32 - 1))
    def test_cross_entropy_logits(self, width, n, stack, seed):
        rng = np.random.default_rng(seed)
        logits = rng.standard_normal(stack + (n, width)) * 3.0
        labels = rng.integers(0, width, n)
        per_head = ad.constant(rng.standard_normal(stack))

        def build(t):
            return ad.tensor_sum(ad.mul(ad.cross_entropy_logits(t, labels),
                                        per_head))

        self._check(build, logits, rng)

    @staticmethod
    def _check(build, value, rng, entries=40):
        """The gradient at up to ``entries`` entries, drawn at random."""
        leaf = _leaf(value)
        ad.backward(build(leaf))
        for i in rng.choice(value.size, min(value.size, entries),
                            replace=False):
            bump = np.zeros(value.shape)
            bump.flat[i] = 1e-5
            fd = (build(ad.Tensor(value + bump)).item()
                  - build(ad.Tensor(value - bump)).item()) / 2e-5
            np.testing.assert_allclose(leaf.grad.flat[i], fd, rtol=1e-5,
                                       atol=1e-8, err_msg=f"entry {i}")


class TestSgdMomentum:
    def test_plain_step(self):
        p = _leaf([0.0])
        opt = ad.SgdMomentum([p], learning_rate=0.1, momentum=0.0)
        ad.sgd_step([p], [np.array([1.0])], opt)
        np.testing.assert_allclose(p.data, [-0.1], rtol=0, atol=1e-15)

    def test_momentum_recurrence(self):
        p = _leaf([0.0])
        opt = ad.SgdMomentum([p], learning_rate=1.0, momentum=0.9)
        for _ in range(2):
            p.grad[...] = 1.0
            opt.step()
        np.testing.assert_allclose(p.data, [-2.9], rtol=0, atol=1e-12)

    def test_zero_grad_zero_velocity_is_identity(self):
        p = _leaf([3.0])
        opt = ad.SgdMomentum([p], learning_rate=0.5, momentum=0.9)
        opt.zero_grad()
        opt.step()
        np.testing.assert_array_equal(p.data, [3.0])

    def test_bad_momentum_rejected(self):
        p = _leaf([0.0])
        with pytest.raises(ContractError):
            ad.SgdMomentum([p], learning_rate=0.1, momentum=1.0)


class TestGraph:
    def test_topological_order_visits_once(self):
        x = _leaf([1.0, 2.0])
        y = ad.square(x)
        z = ad.add(y, y)
        order = ad.topological_order(ad.tensor_sum(z))
        assert len(order) == len({id(t) for t in order})
        assert order.index(x) < order.index(y) < order.index(z)

    def test_grad_present_iff_requires_grad(self):
        assert _leaf([1.0]).grad is not None
        assert ad.constant([1.0]).grad is None

    def test_constant_parents_never_receive_gradients(self):
        rng = np.random.default_rng(3)
        x = ad.constant(rng.standard_normal((4, 3)))
        xt = ad.constant(rng.standard_normal((2, 2)))
        m = ad.constant(rng.standard_normal((4, 2)) ** 2 + 1.0)
        W = _leaf(rng.standard_normal((3, 2)))
        b = _leaf(rng.standard_normal(2))
        h = ad.affine(x, W, b)
        terms = [ad.mul(m, h), ad.div(h, m),
                 ad.div(m, ad.add(ad.square(h), m)), ad.matmul(x, W),
                 ad.matmul(h, xt), ad.sub(m, h)]
        loss = ad.tensor_sum(functools.reduce(ad.add, terms))
        ad.backward(loss)
        for const in (x, xt, m):
            assert const.grad is None
        assert W.grad is not None and b.grad is not None
        order = ad.topological_order(loss)
        assert all(t.requires_grad for t in order)
        assert not any(t is const for t in order for const in (x, xt, m))

    def test_gradients_alias_no_other_buffer(self):
        rng = np.random.default_rng(4)
        W = _leaf(rng.standard_normal((3, 3)))
        b = _leaf(rng.standard_normal(3))
        x = ad.constant(rng.standard_normal((5, 3)))
        h = ad.affine(x, W, b)           # bias broadcast: b gets g summed
        s = ad.add(h, h)                 # both parents get g itself
        t = ad.sub(s, h)                 # so does the first parent here
        k = ad.gram(t)
        loss = ad.tensor_sum(ad.mul(k, ad.constant(np.ones((5, 5)))))
        ad.backward(loss)
        order = ad.topological_order(loss)
        grads = [node.grad for node in order if node.grad is not None]
        before = [g.copy() for g in grads]
        for i, g in enumerate(grads):
            g += 1.0
            for j, other in enumerate(grads):
                if j != i:
                    np.testing.assert_array_equal(other, before[j])
            g[...] = before[i]
            for node in order:
                assert not np.shares_memory(g, node.data)


class TestTopologicalOrder:
    """The walk fixes the order in which gradients accumulate, and with it
    their bits: it must list the nodes exactly as the stack-based
    reference does."""

    @settings(max_examples=300, deadline=None, derandomize=True,
              database=None)
    @given(st.lists(st.tuples(st.integers(0, 5), st.integers(0, 99),
                              st.integers(0, 99)), min_size=1, max_size=30))
    def test_matches_the_stack_walk_on_random_graphs(self, steps):
        # Operands are drawn from every node so far, so parents are shared,
        # diamonds form, constants feed ops, and an op can take one node
        # twice (a + a).
        nodes = [_leaf(np.ones((2, 2))), ad.constant(np.full((2, 2), 0.5))]
        biases = [_leaf(np.ones(2)), ad.constant(np.ones(2))]
        for op, i, j in steps:
            a, b = nodes[i % len(nodes)], nodes[j % len(nodes)]
            if op == 0:
                nodes.append(ad.add(a, b))
            elif op == 1:
                nodes.append(ad.mul(a, b))
            elif op == 2:
                nodes.append(ad.square(a))
            elif op == 3:
                nodes.append(ad.affine(a, b, biases[i % 2]))
            elif op == 4:
                nodes.append(ad.constant(np.ones((2, 2))))
            else:
                nodes.append(_leaf(np.ones((2, 2))))
        root = ad.tensor_sum(functools.reduce(ad.add, nodes[-3:]))
        got = ad.topological_order(root)
        want = topological_order_reference(root)
        assert [id(t) for t in got] == [id(t) for t in want]

    # len(topological_order(loss)) of one width-24, batch-64 stage-1 step
    # per proxy: 4 parameters, the two affine layers, the link and the
    # gram node, then the proxy's own nodes and the negated loss.
    STAGE1_NODES = {"al-neo": 15, "cts-neo": 11, "nmse-neo": 11, "al": 14,
                    "utal": 14, "cts": 12, "nmse": 15}

    def test_step_graphs_keep_their_node_counts(self):
        rng = np.random.default_rng(0)
        model = TwoModuleModel(ArchitectureSpec(
            input_dim=12, hidden_widths=(24,), latent_dim=2, num_classes=2))
        X = rng.standard_normal((64, 12))
        y = np.arange(64) % 2
        part = proxies.partition_pairs(y)
        alpha, beta = model.link.bounds()
        for kind, count in self.STAGE1_NODES.items():
            K = gram_tensor(model.link, model.pre_link(ad.constant(X)))
            loss = ad.neg(proxies.proxy_tensor(kind, K, part, alpha, beta))
            assert len(ad.topological_order(loss)) == count, kind
        logits = ad.affine(ad.constant(model.link_features_np(X)),
                           model.output_weight, model.output_bias)
        loss = ad.cross_entropy_logits(logits, y)
        assert len(ad.topological_order(loss)) == 4


def _transpose(a):
    """The transpose node the gram node replaced, kept as the reference."""
    return ad._unary(a, a.data.T, lambda g: np.array(g.T))


class TestFusedNodes:
    """Each fused node against the graph of separate nodes it replaces:
    the same value and the same gradient everywhere, bit for bit."""

    @staticmethod
    def _twin_leaves(rng, shapes):
        arrays = [rng.standard_normal(shape) for shape in shapes]
        return [_leaf(a) for a in arrays], [_leaf(a) for a in arrays]

    @staticmethod
    def _assert_bitwise(outs, nodes, leaves):
        assert outs[0].data.tobytes() == outs[1].data.tobytes()
        for out in outs:
            ad.backward(out)
        for group in (nodes, leaves):
            for first, second in zip(*group):
                assert first.grad.tobytes() == second.grad.tobytes()

    @pytest.mark.parametrize("seed", range(3))
    def test_gram_equals_matmul_with_transpose(self, seed):
        rng = np.random.default_rng(seed)
        mask = rng.random((9, 9)) < 0.5
        X = ad.constant(rng.standard_normal((9, 4)))
        fused, plain = self._twin_leaves(rng, [(4, 3), (3,)])
        h_fused, h_plain = ad.affine(X, *fused), ad.affine(X, *plain)
        outs = [ad.square(ad.masked_sum(ad.exp(K), mask)) for K in
                (ad.gram(h_fused), ad.matmul(h_plain, _transpose(h_plain)))]
        self._assert_bitwise(outs, ([h_fused], [h_plain]), (fused, plain))

    @pytest.mark.parametrize("kind, stack", [
        pytest.param(kind, stack, id=kind + ("-stacked" if stack else ""))
        for stack in ((), (2,)) for kind in sorted(ad._ELEMENTWISE)])
    def test_affine_with_kind_equals_affine_then_elementwise(self, kind,
                                                             stack):
        """The nonlinearity applied in the product's buffer gives the
        value and gradient bits of a separate elementwise node."""
        rng = np.random.default_rng(7)
        weights = ad.constant(rng.standard_normal(stack + (6, 3)))
        fused, plain = self._twin_leaves(
            rng, [stack + (6, 5), stack + (5, 3), stack + (3,)])
        outs = [ad.tensor_sum(ad.mul(ad.affine(*fused, kind=kind), weights)),
                ad.tensor_sum(ad.mul(ad.elementwise(ad.affine(*plain), kind),
                                     weights))]
        self._assert_bitwise(outs, ([], []), (fused, plain))

    @pytest.mark.parametrize("kind", ["relu", "tanh", "sigmoid"])
    def test_unit_normalize_with_kind_equals_elementwise_then_normalize(
            self, kind):
        rng = np.random.default_rng(8)
        weights = ad.constant(rng.standard_normal((6, 3)))
        fused, plain = self._twin_leaves(rng, [(6, 3)])
        for leaf in fused + plain:
            leaf.data[0] = 0.0      # a zero row takes the epsilon floor
        outs = [ad.tensor_sum(ad.mul(ad.unit_normalize(fused[0], kind=kind),
                                     weights)),
                ad.tensor_sum(ad.mul(ad.unit_normalize(
                    ad.elementwise(plain[0], kind)), weights))]
        self._assert_bitwise(outs, ([], []), (fused, plain))

    def test_gram_needs_a_matrix(self):
        with pytest.raises(DimensionError):
            ad.gram(_leaf(np.ones(3)))


class TestMaskedSum:
    def _case(self, seed):
        rng = np.random.default_rng(seed)
        x = rng.standard_normal((5, 5))
        mask = rng.random((5, 5)) < 0.5
        return x, mask

    @pytest.mark.parametrize("seed", range(3))
    def test_matches_finite_differences(self, seed):
        x, mask = self._case(seed)
        leaf = _leaf(x)

        def build(t):
            return ad.square(ad.masked_sum(ad.exp(t), mask))

        ad.backward(build(leaf))
        fd = central_difference(lambda arr: build(ad.Tensor(arr)).item(), x)
        np.testing.assert_allclose(leaf.grad, fd, rtol=1e-5, atol=1e-8)

    @pytest.mark.parametrize("seed", range(3))
    def test_bitwise_equal_to_sum_of_masked_product(self, seed):
        x, mask = self._case(seed)
        fused, plain = _leaf(x), _leaf(x)
        out = ad.square(ad.masked_sum(ad.exp(fused), mask))
        ref = ad.square(ad.tensor_sum(ad.mul(ad.exp(plain), ad.constant(mask))))
        assert out.data.tobytes() == ref.data.tobytes()
        ad.backward(out)
        ad.backward(ref)
        assert fused.grad.tobytes() == plain.grad.tobytes()

    def test_shape_mismatch(self):
        with pytest.raises(DimensionError):
            ad.masked_sum(_leaf(np.ones((2, 2))), np.ones((2, 3), dtype=bool))
        with pytest.raises(DimensionError):  # two stack axes
            ad.masked_sum(_leaf(np.ones((2, 2, 2))), np.ones(2, dtype=bool))

    @pytest.mark.parametrize("seed", range(3))
    def test_stack_sums_each_slice(self, seed):
        """With one more leading axis than the mask, one sum per slice,
        each with the value and gradient bits of the unstacked node."""
        rng = np.random.default_rng(seed)
        x = rng.standard_normal((3, 7, 1))
        mask = rng.random((7, 1)) < 0.5
        weights = ad.constant(rng.standard_normal(3))
        stacked = _leaf(x)
        sums = ad.masked_sum(ad.exp(stacked), mask)
        ad.backward(ad.tensor_sum(ad.mul(sums, weights)))
        for k in range(3):
            leaf = _leaf(x[k])
            out = ad.masked_sum(ad.exp(leaf), mask)
            ad.backward(ad.mul(out, ad.constant(weights.data[k])))
            assert sums.data[k].tobytes() == out.data.tobytes()
            assert stacked.grad[k].tobytes() == leaf.grad.tobytes()


class TestPairSum:
    """ad.pair_sum against finite differences, against the masked-sum
    chains it replaces, and against exact sums."""

    MAPS = [("identity", 0.0), ("square", 0.0), ("exp", 0.0),
            ("square", -1.0)]
    WEIGHTS = (0.7, -1.3, 0.4)

    @staticmethod
    def _classes(rng, b, labels):
        pool = ["cat", "dog", "emu"] if labels == "str" else ["one"]
        return proxies.partition_pairs(rng.choice(pool, b)).classes

    @pytest.mark.parametrize("labels", ["str", "single-class"])
    @pytest.mark.parametrize("b", [1, 2, 127, 128, 129, 300])
    def test_matches_finite_differences(self, b, labels):
        """Every map and pair type: diagonal entries, random entries and a
        random direction, by central differences."""
        rng = np.random.default_rng(b)
        classes = self._classes(rng, b, labels)
        x = rng.uniform(-1.0, 1.0, (b, b))
        cells = {(0, 0), (b - 1, b - 1), (b // 2, b // 2)}
        cells |= {tuple(c) for c in rng.integers(0, b, (9, 2))}
        direction = rng.standard_normal((b, b))
        step = 1e-5
        for kind, shift in self.MAPS:
            def value(arr):
                return ad.pair_sum(ad.constant(arr), classes, kind,
                                   self.WEIGHTS, shift).item() * 0.37

            leaf = _leaf(x)
            ad.backward(ad.pair_sum(leaf, classes, kind, self.WEIGHTS,
                                    shift) * 0.37)
            for i, j in sorted(cells):
                bump = np.zeros((b, b))
                bump[i, j] = step
                fd = (value(x + bump) - value(x - bump)) / (2 * step)
                assert leaf.grad[i, j] == pytest.approx(
                    fd, rel=1e-5, abs=1e-6), (kind, shift, i, j)
            fd = (value(x + step * direction)
                  - value(x - step * direction)) / (2 * step)
            assert float((leaf.grad * direction).sum()) == pytest.approx(
                fd, rel=1e-5, abs=1e-6), (kind, shift)

    @pytest.mark.parametrize("b", [1, 2, 64, 127, 128])
    @pytest.mark.parametrize("kind, beta", [("exp", 0.0), ("square", -1.0)])
    def test_one_block_has_the_bits_of_the_masked_chain(self, kind, beta, b):
        """Up to one block, the inter-class sum that cts-neo and nmse-neo
        read has the value and the gradient of the masked-sum chain, bit
        for bit, divided by the count as the proxies divide it."""
        assert b <= ad.PAIR_SUM_BLOCK_ROWS
        rng = np.random.default_rng(b)
        part = proxies.partition_pairs(rng.integers(0, 3, b))
        x = rng.uniform(-1.0, 1.0, (b, b))
        fused, plain = _leaf(x), _leaf(x)
        count = -float(max(part.num_negatives, 1))
        out = ad.pair_sum(fused, part.classes, kind, shift=beta) / count
        inter_class = part.classes[:, None] != part.classes[None, :]
        ref = masked_chain_reference(plain, inter_class, kind, beta) / count
        assert out.data.tobytes() == ref.data.tobytes()
        ad.backward(out)
        ad.backward(ref)
        assert fused.grad.tobytes() == plain.grad.tobytes()

    @pytest.mark.parametrize("n", [129, 600])
    def test_blocked_sums_match_exact_sums(self, n):
        rng = np.random.default_rng(n)
        classes = proxies.partition_pairs(rng.integers(0, 4, n)).classes
        x = rng.uniform(-1.0, 1.0, (n, n))
        same = classes[:, None] == classes[None, :]
        diagonal = np.eye(n, dtype=bool)
        for kind, shift in self.MAPS:
            mapped = {"identity": x, "square": (x - shift) ** 2,
                      "exp": np.exp(x)}[kind]
            for weights, pairs in (((1.0, 0.0, 0.0), ~same),
                                   ((0.0, 1.0, 0.0), same),
                                   ((0.0, 0.0, 1.0), diagonal)):
                got = ad.pair_sum(ad.constant(x), classes, kind, weights,
                                  shift).item()
                want = math.fsum(mapped[pairs].tolist())
                assert got == pytest.approx(want, rel=1e-13), (kind, weights)

    def test_rejects_a_mismatched_shape_and_an_unknown_map(self):
        with pytest.raises(DimensionError):
            ad.pair_sum(_leaf(np.ones((2, 3))), np.array([0, 1]))
        with pytest.raises(DimensionError):
            ad.pair_sum(_leaf(np.ones((3, 3))), np.array([0, 1]))
        with pytest.raises(ContractError):
            ad.pair_sum(_leaf(np.ones((2, 2))), np.array([0, 1]), "log")


class TestGramPairSum:
    """The three sums of ad.gram_pair_sums, from feature moments and from
    its fallback, against exact sums over the gram matrix."""

    MAPS = [(kind, shift) for kind in ad.PAIR_MAPS for shift in (0.0, -1.0)]
    WEIGHTS = TestPairSum.WEIGHTS

    @pytest.mark.parametrize("labels", ["str", "single-class"])
    @pytest.mark.parametrize("d", [1, 2, 5])
    @pytest.mark.parametrize("n", [1, 2, 127, 128, 129, 300, 600])
    def test_matches_the_gram_matrix(self, n, d, labels):
        rng = np.random.default_rng(10 * n + d)
        names = rng.choice(["cat", "dog", "emu"] if labels == "str"
                           else ["one"], n)
        part = proxies.partition_pairs(names)
        order = np.argsort(part.classes, kind="stable")
        feats = rng.uniform(-1.0, 1.0, (n, d))
        for kind, shift in self.MAPS:
            got = ad.weighted_pair_sum(self.WEIGHTS, ad.gram_pair_sums(
                feats, part.classes, order, kind, shift))
            want = gram_pair_sum_reference(feats, names, kind, self.WEIGHTS,
                                           shift)
            assert got == pytest.approx(want, rel=1e-13), (kind, shift)

    def test_rejects_mismatched_features_and_an_unknown_map(self):
        with pytest.raises(DimensionError):
            ad.gram_pair_sums(np.ones(3), np.array([0, 1, 0]),
                              np.array([0, 2, 1]))
        with pytest.raises(DimensionError):
            ad.gram_pair_sums(np.ones((3, 2)), np.array([0, 1]),
                              np.array([0, 1]))
        with pytest.raises(ContractError):
            ad.gram_pair_sums(np.ones((200, 2)), np.zeros(200, dtype=int),
                              np.arange(200), "log")

    @pytest.mark.parametrize("d", [1, 2, 3, 5])
    @pytest.mark.parametrize("kind", ad.PAIR_MAPS)
    @settings(max_examples=20, deadline=None, derandomize=True,
              database=None)
    @given(data=st.data())
    def test_match_exact_sums(self, kind, d, data):
        """Rows of a tanh or relu link, some exactly zero, or rows scaled
        off the unit sphere, in 1 to n classes.  The bound is 1e-13 times
        the sum of the absolute values of the terms: relative for k^2,
        (k - shift)^2 and e^k, and absolute for sums of k, which cancel."""
        n = data.draw(st.integers(2, 600), label="n")
        num_classes = data.draw(st.integers(1, n), label="classes")
        link = data.draw(st.sampled_from(["tanh", "relu"]), label="link")
        zero_share = data.draw(st.sampled_from([0.0, 0.1, 0.5]),
                               label="zero rows")
        scaled = data.draw(st.booleans(), label="scaled")
        shift = data.draw(st.sampled_from([0.0, -1.0]), label="shift")
        rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1),
                                              label="seed"))
        pre = rng.standard_normal((n, d))
        zero = rng.random(n) < zero_share
        pre[zero] = 0.0 if link == "tanh" else -np.abs(pre[zero])
        feats = FeatureMap(link).apply(pre)
        if scaled:
            feats *= rng.uniform(0.5, 2.0, (n, 1))
        labels = rng.permutation(np.arange(n) % num_classes)
        part = proxies.partition_pairs(labels)
        got = ad.gram_pair_sums(feats, part.classes,
                                np.argsort(part.classes, kind="stable"),
                                kind, shift)
        f = {"identity": lambda t: t, "square": np.square, "exp": np.exp}[kind]
        terms = np.abs(f(feats @ feats.T - shift))
        same = labels[:, None] == labels[None, :]
        for i, pairs in enumerate((~same, same, np.eye(n, dtype=bool))):
            want = gram_pair_sum_reference(feats, labels, kind,
                                           tuple(np.eye(3)[i]), shift)
            assert abs(got[i] - want) <= 1e-13 * terms[pairs].sum(), (
                i, got[i], want)

    @pytest.mark.parametrize("d, scale, blocked", [
        (1, 1.0, False), (2, 1.0, False), (2, 1.0 + 1e-9, True),
        (3, 1.0, True)])
    def test_only_e_k_off_the_series_reads_kernel_rows(self, monkeypatch, d,
                                                       scale, blocked):
        """e^k of unit or zero rows of at most two columns takes the
        series; wider rows or another norm take the blocked reader, which
        no other map uses."""
        calls = []
        reader = ad._blocked_pair_sums
        monkeypatch.setattr(ad, "_blocked_pair_sums",
                            lambda *args: calls.append(args[1]) or reader(*args))
        rng = np.random.default_rng(d)
        feats = FeatureMap("relu").apply(rng.standard_normal((300, d))) * scale
        part = proxies.partition_pairs(rng.integers(0, 4, 300))
        order = np.argsort(part.classes, kind="stable")
        for kind in ad.PAIR_MAPS:
            ad.gram_pair_sums(feats, part.classes, order, kind, -1.0)
        assert calls == (["exp"] if blocked else [])

    def test_zero_rows_count_as_e_to_the_zero(self):
        """A pair with a zero row adds e^0 = 1, not I_0(1): all-zero
        features sum e^k to the pair counts, exactly."""
        labels = np.arange(10) % 3
        part = proxies.partition_pairs(labels)
        got = ad.gram_pair_sums(np.zeros((10, 2)), part.classes,
                                np.argsort(part.classes, kind="stable"),
                                "exp")
        assert got == (66.0, 34.0, 10.0)

    def test_series_coefficients_reproduce_e_to_the_cosine(self):
        """I_0(1) + 2 sum_m I_m(1) cos(m t) is e^{cos t} to float64."""
        t = np.linspace(-np.pi, np.pi, 1001)
        m = np.arange(1, ad.SERIES_ORDERS + 1)
        series = ad._BESSEL_I[0] + 2.0 * (np.cos(np.outer(t, m))
                                          @ ad._BESSEL_I[1:])
        np.testing.assert_allclose(series, np.exp(np.cos(t)), rtol=1e-14)
