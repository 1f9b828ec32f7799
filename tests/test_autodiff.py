import functools
import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import modkernel.autodiff as ad
from modkernel import proxies
from modkernel.errors import ContractError, DimensionError
from modkernel.kernels import gram_tensor
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
        "add_bias": (lambda t: ad.tensor_sum(ad.square(
            ad.add(ad.constant(x[:, :2]), t))), b),
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
        "sigmoid": (lambda t: ad.tensor_sum(ad.square(ad.sigmoid(t))), x),
        "exp": (lambda t: ad.tensor_sum(ad.exp(t)), x),
        "log": (lambda t: ad.tensor_sum(ad.log(t)), np.abs(x) + 0.5),
        "sqrt": (lambda t: ad.tensor_sum(ad.sqrt(t)), np.abs(x) + 0.5),
        "square": (lambda t: ad.tensor_sum(ad.square(t)), x),
        "softplus": (lambda t: ad.tensor_sum(ad.softplus(t)), x),
        "sum": (lambda t: ad.square(ad.tensor_sum(t)), x),
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
    def rule(g):
        ad._accumulate_view(a, g.T)

    return ad._make(a.data.T, (a,), rule)


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

    @pytest.mark.parametrize("kind", ["relu", "tanh", "sigmoid"])
    def test_affine_with_kind_equals_affine_then_elementwise(self, kind):
        rng = np.random.default_rng(7)
        weights = ad.constant(rng.standard_normal((6, 3)))
        fused, plain = self._twin_leaves(rng, [(6, 5), (5, 3), (3,)])
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
        ref = masked_chain_reference(plain, part.neg_mask, kind, beta) / count
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
    """ad.gram_pair_sum against pair_sum of the gram matrix up to one
    block, and against exact sums beyond."""

    MAPS = [(kind, shift) for kind in ad.PAIR_MAPS for shift in (0.0, -1.0)]
    WEIGHTS = TestPairSum.WEIGHTS

    @pytest.mark.parametrize("labels", ["str", "single-class"])
    @pytest.mark.parametrize("d", [1, 2, 5])
    @pytest.mark.parametrize("n", [1, 2, 127, 128, 129, 300, 600])
    def test_matches_the_gram_matrix(self, n, d, labels):
        rng = np.random.default_rng(10 * n + d)
        names = rng.choice(["cat", "dog", "emu"] if labels == "str"
                           else ["one"], n)
        classes = proxies.partition_pairs(names).classes
        feats = rng.uniform(-1.0, 1.0, (n, d))
        for kind, shift in self.MAPS:
            got = ad.gram_pair_sum(feats, classes, kind, self.WEIGHTS, shift)
            assert not got.requires_grad
            if n <= ad.PAIR_SUM_BLOCK_ROWS:
                want = ad.pair_sum(ad.constant(feats @ feats.T), classes,
                                   kind, self.WEIGHTS, shift)
                assert got.data.tobytes() == want.data.tobytes(), (kind, shift)
            else:
                want = gram_pair_sum_reference(feats, names, kind,
                                               self.WEIGHTS, shift)
                assert got.item() == pytest.approx(want, rel=1e-13), (kind,
                                                                      shift)

    def test_rejects_mismatched_features_and_an_unknown_map(self):
        with pytest.raises(DimensionError):
            ad.gram_pair_sum(np.ones(3), np.array([0, 1, 0]))
        with pytest.raises(DimensionError):
            ad.gram_pair_sum(np.ones((3, 2)), np.array([0, 1]))
        with pytest.raises(ContractError):
            ad.gram_pair_sum(np.ones((200, 2)), np.zeros(200, dtype=int),
                             "log")
