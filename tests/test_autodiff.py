import functools

import numpy as np
import pytest

import modkernel.autodiff as ad
from modkernel.errors import ContractError, DimensionError

from oracles import central_difference, naive_matmul


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
        # K = z z^T uses z twice; d(sum K)/dz = 2 * n * z-ish structure
        z = _leaf([[1.0, 2.0], [3.0, 4.0]])
        K = ad.matmul(z, ad.transpose(z))
        ad.backward(ad.tensor_sum(K))
        fd = central_difference(
            lambda arr: float((arr @ arr.T).sum()), z.data)
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

    cases = {
        "add": (lambda t: ad.tensor_sum(ad.square(ad.add(t, ad.constant(m)))), x),
        "add_bias": (lambda t: ad.tensor_sum(ad.square(
            ad.add(ad.constant(x[:, :2]), t))), b),
        "sub": (lambda t: ad.tensor_sum(ad.square(ad.sub(t, ad.constant(m)))), x),
        "neg": (lambda t: ad.tensor_sum(ad.square(ad.neg(t))), x),
        "mul": (lambda t: ad.tensor_sum(ad.mul(t, ad.constant(m))), x),
        "div": (lambda t: ad.tensor_sum(ad.div(t, ad.constant(
            np.abs(m) + 1.0))), x),
        "matmul": (lambda t: ad.tensor_sum(ad.square(
            ad.matmul(t, ad.constant(w)))), x),
        "transpose": (lambda t: ad.tensor_sum(ad.square(ad.transpose(t))), x),
        "affine": (lambda t: ad.tensor_sum(ad.square(ad.affine(
            ad.constant(x), t, ad.constant(b)))), w),
        "relu": (lambda t: ad.tensor_sum(ad.relu(t)), x + 0.05),
        "tanh": (lambda t: ad.tensor_sum(ad.square(ad.tanh(t))), x),
        "sigmoid": (lambda t: ad.tensor_sum(ad.square(ad.sigmoid(t))), x),
        "exp": (lambda t: ad.tensor_sum(ad.exp(t)), x),
        "log": (lambda t: ad.tensor_sum(ad.log(t)), np.abs(x) + 0.5),
        "sqrt": (lambda t: ad.tensor_sum(ad.sqrt(t)), np.abs(x) + 0.5),
        "square": (lambda t: ad.tensor_sum(ad.square(t)), x),
        "softplus": (lambda t: ad.tensor_sum(ad.softplus(t)), x),
        "sum": (lambda t: ad.square(ad.tensor_sum(t)), x),
        "mean": (lambda t: ad.square(ad.tensor_mean(t)), x),
        "diagonal_sum": (lambda t: ad.square(ad.diagonal_sum(t)), x[:, :3]),
        "unit_normalize": (lambda t: ad.tensor_sum(ad.mul(
            ad.unit_normalize(t), ad.constant(m))), x),
        "cross_entropy": (lambda t: ad.cross_entropy_logits(
            ad.matmul(t, ad.constant(w)), labels), x),
    }
    for name, (build, value) in cases.items():
        leaf = ad.Tensor(value.copy(), requires_grad=True)
        ad.backward(build(leaf))
        fd = central_difference(
            lambda arr, fn=build: fn(ad.Tensor(arr)).item(), value)
        np.testing.assert_allclose(
            leaf.grad, fd, rtol=rtol, atol=atol,
            err_msg=f"gradient mismatch for op {name}")


class TestSgdMomentum:
    def test_plain_step(self):
        p = _leaf([0.0])
        state = ad.SgdMomentumState.for_params([p], learning_rate=0.1,
                                               momentum=0.0)
        ad.sgd_step([p], [np.array([1.0])], state)
        np.testing.assert_allclose(p.data, [-0.1], rtol=0, atol=1e-15)

    def test_momentum_recurrence(self):
        p = _leaf([0.0])
        state = ad.SgdMomentumState.for_params([p], learning_rate=1.0,
                                               momentum=0.9)
        ad.sgd_step([p], [np.array([1.0])], state)
        ad.sgd_step([p], [np.array([1.0])], state)
        np.testing.assert_allclose(p.data, [-2.9], rtol=0, atol=1e-12)

    def test_zero_grad_zero_velocity_is_identity(self):
        p = _leaf([3.0])
        state = ad.SgdMomentumState.for_params([p], learning_rate=0.5,
                                               momentum=0.9)
        ad.sgd_step([p], [np.array([0.0])], state)
        np.testing.assert_array_equal(p.data, [3.0])

    def test_bad_momentum_rejected(self):
        p = _leaf([0.0])
        with pytest.raises(ContractError):
            ad.SgdMomentumState.for_params([p], learning_rate=0.1, momentum=1.0)


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
        xt = ad.constant(rng.standard_normal((3, 4)))
        m = ad.constant(rng.standard_normal((4, 2)) ** 2 + 1.0)
        W = _leaf(rng.standard_normal((3, 2)))
        b = _leaf(rng.standard_normal(2))
        h = ad.affine(x, W, b)
        terms = [ad.mul(m, h), ad.div(h, m),
                 ad.div(m, ad.add(ad.square(h), m)), ad.matmul(x, W),
                 ad.transpose(ad.matmul(ad.transpose(W), xt)), ad.sub(m, h)]
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
        t = ad.transpose(ad.sub(s, h))   # a view of g passes through
        k = ad.matmul(t, ad.transpose(t))
        loss = ad.tensor_sum(ad.mul(k, ad.constant(np.ones((3, 3)))))
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

    def test_row_blocks_add_up_to_the_masked_total(self):
        rng = np.random.default_rng(3)
        rows = 2 * ad.MASKED_SUM_BLOCK_ROWS + 5
        x = rng.standard_normal((rows, 4))
        mask = rng.random((rows, 4)) < 0.5
        fused, plain = _leaf(x), _leaf(x)
        out = ad.masked_sum(fused, mask)
        ref = ad.tensor_sum(ad.mul(plain, ad.constant(mask)))
        assert out.item() == pytest.approx(ref.item(), rel=1e-13)
        ad.backward(out)
        ad.backward(ref)
        assert fused.grad.tobytes() == plain.grad.tobytes()

    def test_shape_mismatch(self):
        with pytest.raises(DimensionError):
            ad.masked_sum(_leaf(np.ones((2, 2))), np.ones((2, 3), dtype=bool))


class TestDiagonalSum:
    def test_is_the_trace(self):
        x = np.arange(9.0).reshape(3, 3)
        assert ad.diagonal_sum(ad.constant(x)).item() == 12.0

    def test_needs_a_square_matrix(self):
        with pytest.raises(DimensionError):
            ad.diagonal_sum(_leaf(np.ones((2, 3))))
