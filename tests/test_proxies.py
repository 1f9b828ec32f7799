import tracemalloc

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st
from hypothesis.extra.numpy import arrays

import modkernel.autodiff as ad
from modkernel import proxies
from modkernel.errors import (ConfigurationError, DegenerateBatchError,
                              UndefinedProxyError)
from modkernel.kernels import FeatureMap, gram_tensor, kernel_matrix

from oracles import central_difference, proxy_reference, proxy_references


def sym_kernel(rng, n, lo=-1.0, hi=1.0):
    """Random symmetric matrix with unit diagonal and entries in [lo, hi]."""
    K = rng.uniform(lo, hi, (n, n))
    K = (K + K.T) / 2.0
    np.fill_diagonal(K, 1.0)
    return K


def ideal_kernel(labels, alpha=1.0, beta=-1.0):
    """alpha on equal-label pairs and the diagonal, beta elsewhere."""
    labels = np.asarray(labels)
    return np.where(labels[:, None] == labels[None, :], alpha, beta)


def value(kind, K, labels, alpha=1.0, beta=-1.0):
    return proxies.proxy_value(kind, K, proxies.partition_pairs(labels),
                               alpha, beta)


class TestPartition:
    def test_two_distinct(self):
        part = proxies.partition_pairs(["+", "-"])
        assert set(part.negatives) == {(0, 1), (1, 0)}
        assert part.positives == ()

    def test_two_equal(self):
        part = proxies.partition_pairs(["+", "+"])
        assert part.negatives == ()
        assert set(part.positives) == {(0, 1), (1, 0)}

    def test_three_labels_exhaustive(self):
        labels = [0, 1, 1]
        part = proxies.partition_pairs(labels)
        # independent enumeration over all ordered pairs
        neg, pos = set(), set()
        for i in range(3):
            for j in range(3):
                if i == j:
                    continue
                (neg if labels[i] != labels[j] else pos).add((i, j))
        assert set(part.negatives) == neg and len(part.negatives) == 4
        assert set(part.positives) == pos and len(part.positives) == 2

    def test_partition_covers_all_ordered_pairs(self):
        rng = np.random.default_rng(0)
        labels = rng.integers(0, 3, 7)
        part = proxies.partition_pairs(labels)
        n = len(labels)
        assert len(part.negatives) + len(part.positives) + n == n * n
        assert all((j, i) in part.negatives for i, j in part.negatives)

    def test_symmetric_masks(self):
        part = proxies.partition_pairs([0, 1, 0, 2])
        np.testing.assert_array_equal(part.neg_mask, part.neg_mask.T)
        assert all((j, i) in part.positives for i, j in part.positives)

    @pytest.mark.parametrize("labels, negatives, positives", [
        ([2, 0, 2, 1, 0, 2], 22, 8),
        (["b", "a", "b", "b"], 6, 6),
        ([5, 5, 5], 0, 6),
        ([7], 0, 0),
    ], ids=["int", "str", "one-class", "n=1"])
    def test_boolean_masks_and_counts(self, labels, negatives, positives):
        part = proxies.partition_pairs(labels)
        arr = np.asarray(labels)
        same = arr[:, None] == arr[None, :]
        assert part.neg_mask.dtype == bool
        np.testing.assert_array_equal(part.neg_mask, ~same)
        assert set(part.positives) == set(map(tuple, np.argwhere(
            same & ~np.eye(len(labels), dtype=bool))))
        assert (part.num_negatives, part.num_positives) == (negatives, positives)
        assert part.num_negatives == len(part.negatives)
        assert part.num_positives == len(part.positives)
        # The class-size formula: sum of squared sizes counts the ordered
        # equal-label pairs, the diagonal included.
        distinct, sizes = np.unique(arr, return_counts=True)
        np.testing.assert_array_equal(distinct[part.classes], arr)
        np.testing.assert_array_equal(part.counts, sizes)
        same = int(sizes @ sizes)
        assert (negatives, positives) == (arr.size ** 2 - same, same - arr.size)


class TestPinnedValues:
    """Every proxy on a seeded 600-point kernel, to the last bit: any
    change in the proxies' arithmetic or summation order moves them."""

    EXPECTED = {
        "al-neo": "-0x1.c2b48e19cfad6p-20",
        "cts-neo": "-0x1.161cf295a2237p+0",
        "nmse-neo": "-0x1.2ac3dc493ed9dp+0",
        "al": "0x1.3605bc310afeap-8",
        "utal": "0x1.5f5110ae3a661p-11",
        "cts": "0x1.5569101d8fd3cp-2",
        "nmse": "-0x1.2a0dfcf20f0a2p+0",
    }

    def test_values_are_bit_exact_and_leave_the_kernel_alone(self):
        rng = np.random.default_rng(600)
        K = sym_kernel(rng, 600)
        labels = rng.integers(0, 3, 600)
        part = proxies.partition_pairs(labels)
        before = K.copy()
        got = {kind: proxies.proxy_value(kind, K, part, 1.0, -1.0).hex()
               for kind in proxies.PROXY_KINDS}
        assert got == self.EXPECTED
        np.testing.assert_array_equal(K, before)


class TestAgainstReference:
    """Blocked values, from the kernel matrix and from the features, against
    the exact-sum reference on link-feature kernels: relative for the
    proxies of order one, absolute for al and utal, whose values of about
    1e-4 come from cancelling sums."""

    ABSOLUTE = ("al", "utal")

    @pytest.mark.parametrize("n", [600, 3000])
    def test_blocked_values_match_exact_sums(self, n):
        rng = np.random.default_rng(n)
        feats = FeatureMap("tanh").apply(rng.standard_normal((n, 2)))
        K = feats @ feats.T
        labels = rng.integers(0, 3, n)
        part = proxies.partition_pairs(labels)
        want = proxy_references(K, labels, 1.0, -1.0)
        for kind in proxies.PROXY_KINDS:
            for got in (proxies.proxy_value(kind, K, part, 1.0, -1.0),
                        proxies.feature_proxy_value(kind, feats, part, 1.0,
                                                    -1.0)):
                if kind in self.ABSOLUTE:
                    assert got == pytest.approx(want[kind], rel=0,
                                                abs=1e-13), kind
                else:
                    assert got == pytest.approx(want[kind], rel=1e-13), kind


class TestProxyMemory:
    N = 1000

    @pytest.mark.parametrize("kind", proxies.PROXY_KINDS)
    def test_peak_besides_the_kernel_under_a_quarter_of_it(self, kind):
        """Besides K, a proxy value holds arrays of one block of rows and
        the class vector, never an n-by-n temporary."""
        rng = np.random.default_rng(1)
        K = kernel_matrix(FeatureMap("tanh"), rng.standard_normal((self.N, 2)))
        part = proxies.partition_pairs(rng.integers(0, 2, self.N))
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            tracemalloc.reset_peak()
            proxies.proxy_value(kind, K, part, 1.0, -1.0)
            peak = tracemalloc.get_traced_memory()[1] - before
        finally:
            tracemalloc.stop()
        assert peak < 0.25 * K.nbytes, f"{kind}: peak {peak} bytes"


class TestFeatureRouteErrors:
    """Past one block of rows, the proxies read from the features raise the
    typed errors they raise on the kernel matrix."""

    @pytest.mark.parametrize("n", [129, 300])
    def test_orthogonal_inter_class_features_fail_al_neo(self, n):
        """Inter-class kernel values are exactly 0, and so is their
        blocked sum of squares."""
        labels = np.arange(n) % 2
        feats = np.zeros((n, 2))
        feats[np.arange(n), labels] = np.random.default_rng(n).uniform(
            0.5, 2.0, n)
        part = proxies.partition_pairs(labels)
        with pytest.raises(DegenerateBatchError, match="all zero"):
            proxies.feature_proxy_value("al-neo", feats, part, 1.0, -1.0)
        with pytest.raises(DegenerateBatchError, match="all zero"):
            proxies.proxy_value("al-neo", feats @ feats.T, part, 1.0, -1.0)

    @pytest.mark.parametrize("n", [129, 300])
    @pytest.mark.parametrize("kind", ["al", "utal"])
    def test_zero_features_have_no_alignment(self, kind, n):
        part = proxies.partition_pairs(np.arange(n) % 3)
        with pytest.raises(DegenerateBatchError, match="norm 0"):
            proxies.feature_proxy_value(kind, np.zeros((n, 2)), part, 1.0,
                                        -1.0)


class TestAlNeo:
    def test_all_beta_attains_inverse_sqrt(self):
        # |N| = 4 ordered inter-class pairs; all kernel values at -1
        part = proxies.partition_pairs([0, 1, 1])
        assert len(part.negatives) == 4
        assert value("al-neo", ideal_kernel([0, 1, 1]), [0, 1, 1]) == \
            pytest.approx(0.5)

    def test_all_plus_one_is_negative_half(self):
        assert value("al-neo", np.ones((3, 3)), [0, 1, 1]) == \
            pytest.approx(-0.5)

    def test_scale_invariance(self):
        rng = np.random.default_rng(1)
        K = sym_kernel(rng, 4)
        v1 = value("al-neo", K, [0, 0, 1, 1])
        v2 = value("al-neo", 0.37 * K, [0, 0, 1, 1])
        assert v1 == pytest.approx(v2, abs=1e-12)

    def test_beta_zero_is_undefined(self):
        with pytest.raises(UndefinedProxyError):
            value("al-neo", np.eye(2), [0, 1], beta=0.0)

    def test_zero_denominator(self):
        with pytest.raises(DegenerateBatchError):
            value("al-neo", np.eye(2), [0, 1])


class TestCtsNeo:
    def test_all_beta(self):
        labels = [0, 1, 0, 1]
        assert value("cts-neo", ideal_kernel(labels), labels) == \
            pytest.approx(-np.exp(-1.0))

    def test_all_zero(self):
        assert value("cts-neo", np.eye(2), [0, 1]) == pytest.approx(-1.0)

    def test_matches_direct_loop(self):
        rng = np.random.default_rng(2)
        part = proxies.partition_pairs([0, 0, 1, 1])
        K = sym_kernel(rng, 4)
        direct = -np.mean([np.exp(K[i, j]) for i, j in part.negatives])
        assert proxies.proxy_value("cts-neo", K, part, 1.0, -1.0) == \
            pytest.approx(direct, abs=1e-12)


class TestNmseNeo:
    def test_exact_target_is_zero(self):
        assert value("nmse-neo", ideal_kernel([0, 1, 1]), [0, 1, 1]) == 0.0

    def test_all_zero_kernels(self):
        assert value("nmse-neo", np.eye(2), [0, 1]) == pytest.approx(-1.0)

    def test_matches_direct_loop(self):
        rng = np.random.default_rng(3)
        part = proxies.partition_pairs([0, 1, 2, 0])
        K = sym_kernel(rng, 4)
        direct = -np.mean([(K[i, j] + 1.0) ** 2 for i, j in part.negatives])
        assert proxies.proxy_value("nmse-neo", K, part, 1.0, -1.0) == \
            pytest.approx(direct, abs=1e-12)


class TestAlignment:
    def test_self_alignment(self):
        labels = [0, 1, 1, 2]
        assert value("al", ideal_kernel(labels), labels) == pytest.approx(1.0)

    def test_scale_invariance(self):
        rng = np.random.default_rng(5)
        K = sym_kernel(rng, 3)
        assert value("al", 3.7 * K, [0, 1, 1]) == pytest.approx(
            value("al", K, [0, 1, 1]), abs=1e-12)

    def test_hand_frobenius_case(self):
        assert value("al", np.eye(2), ["+", "-"], beta=0.0) == \
            pytest.approx(1.0)

    def test_zero_norm_rejected(self):
        with pytest.raises(DegenerateBatchError):
            value("al", np.zeros((2, 2)), [0, 1])


class TestUtal:
    def test_equal_upper_triangles(self):
        labels = [0, 1, 1, 0]
        K = ideal_kernel(labels) * 0.4
        np.fill_diagonal(K, 7.0)  # diagonal must not matter
        assert value("utal", K, labels) == pytest.approx(1.0)

    def test_two_by_two_is_sign(self):
        K = np.array([[1.0, 0.8], [0.8, 1.0]])
        assert value("utal", K, [0, 1]) == pytest.approx(-1.0)

    def test_matches_cosine_oracle(self):
        rng = np.random.default_rng(7)
        labels = [0, 1, 0, 2]
        K, Kstar = sym_kernel(rng, 4), ideal_kernel(labels)
        iu = np.triu_indices(4, 1)
        u, v = K[iu], Kstar[iu]
        expected = float(u @ v / (np.linalg.norm(u) * np.linalg.norm(v)))
        assert value("utal", K, labels) == pytest.approx(expected, abs=1e-12)


class TestCts:
    def test_equal_kernel_values_give_pair_fraction(self):
        part = proxies.partition_pairs([0, 0, 1, 1])
        K = np.full((4, 4), 0.3)
        expected = len(part.positives) / (len(part.positives)
                                          + len(part.negatives))
        assert proxies.proxy_value("cts", K, part, 1.0, -1.0) == \
            pytest.approx(expected, abs=1e-12)

    def test_three_point_enumeration(self):
        assert value("cts", np.zeros((3, 3)), ["+", "+", "-"]) == \
            pytest.approx(1.0 / 3.0)

    def test_monotone_in_separation(self):
        labels = [0, 0, 1, 1]
        values = [value("cts", ideal_kernel(labels, 1.0, 1.0 - gap), labels)
                  for gap in (0.0, 0.5, 1.0, 1.5, 2.0)]
        assert all(a < b for a, b in zip(values, values[1:]))

    def test_needs_both_pair_types(self):
        with pytest.raises(DegenerateBatchError):
            value("cts", np.eye(2), [0, 1])
        with pytest.raises(DegenerateBatchError):
            value("cts", np.eye(2), [0, 0])


class TestNmse:
    def test_exact_target(self):
        labels = [0, 1, 0]
        assert value("nmse", ideal_kernel(labels), labels) == 0.0

    def test_hand_two_point_case(self):
        assert value("nmse", np.eye(2), ["+", "-"]) == pytest.approx(-0.5)

    def test_unit_diagonal_contributes_nothing(self):
        K = np.array([[1.0, 0.2], [0.2, 1.0]])
        off_only = -((0.2 + 1.0) ** 2 * 2) / 4.0
        assert value("nmse", K, [0, 1]) == pytest.approx(off_only, abs=1e-12)


class TestSharedProperties:
    KINDS = proxies.PROXY_KINDS

    def test_relabeling_invariance(self):
        rng = np.random.default_rng(8)
        labels = np.array([0, 1, 1, 2, 0])
        renamed = np.array([7, 4, 4, 9, 7])
        K = sym_kernel(rng, 5)
        for kind in self.KINDS:
            a = proxies.proxy_value(kind, K, proxies.partition_pairs(labels),
                                    1.0, -1.0)
            b = proxies.proxy_value(kind, K, proxies.partition_pairs(renamed),
                                    1.0, -1.0)
            assert a == pytest.approx(b, abs=1e-12), kind

    def test_alignment_family_bounded(self):
        rng = np.random.default_rng(9)
        part = proxies.partition_pairs([0, 0, 1, 1, 2])
        for _ in range(100):
            K = sym_kernel(rng, 5)
            for kind in ("al", "utal"):
                v = proxies.proxy_value(kind, K, part, 1.0, -1.0)
                assert -1.0 - 1e-12 <= v <= 1.0 + 1e-12

    def test_nmse_family_nonpositive_and_zero_iff_target(self):
        rng = np.random.default_rng(10)
        labels = [0, 1, 1, 0]
        Kstar = ideal_kernel(labels)
        assert value("nmse", Kstar, labels) == 0.0
        assert value("nmse-neo", Kstar, labels) == 0.0
        for _ in range(50):
            K = sym_kernel(rng, 4)
            if not np.allclose(K, Kstar, atol=1e-12):
                assert value("nmse", K, labels) < 0.0
            assert value("nmse-neo", K, labels) <= 0.0

    def test_neo_maxima_never_exceeded_by_perturbations(self):
        rng = np.random.default_rng(11)
        part = proxies.partition_pairs([0, 0, 1, 1, 2, 2])
        n_neg = len(part.negatives)
        maxima = {"al-neo": 1.0 / np.sqrt(n_neg), "cts-neo": -np.exp(-1.0),
                  "nmse-neo": 0.0}
        for _ in range(500):
            K = sym_kernel(rng, 6)
            for kind, best in maxima.items():
                v = proxies.proxy_value(kind, K, part, 1.0, -1.0)
                assert v <= best + 1e-12, kind

    def test_proxy_value_matches_loop_oracle(self):
        rng = np.random.default_rng(12)
        fmap = FeatureMap("tanh")
        for n in (2, 5, 17, 40):
            labels = rng.integers(0, 3, n)
            labels[:2] = (0, 1)
            part = proxies.partition_pairs(labels)
            feats = fmap.apply(rng.standard_normal((n, 2)))
            for K in (sym_kernel(rng, n), feats @ feats.T):
                for kind in self.KINDS:
                    if proxies.is_degenerate_for(kind, part):
                        continue
                    got = proxies.proxy_value(kind, K, part, 1.0, -1.0)
                    want = proxy_reference(kind, K, list(labels), 1.0, -1.0)
                    assert got == pytest.approx(want, abs=1e-12), (kind, n)

    @settings(max_examples=300, deadline=None, derandomize=True,
              database=None)
    @given(st.integers(2, 4).flatmap(lambda d: st.tuples(
        arrays(np.float64, st.tuples(st.integers(3, 24), st.just(d)),
               elements=st.floats(-1.0, 1.0, allow_subnormal=False)),
        st.lists(st.integers(0, 3), min_size=24, max_size=24))))
    def test_unit_feature_grams_stay_within_analytic_bounds(self, case):
        raw, label_pool = case
        norms = np.linalg.norm(raw, axis=1, keepdims=True)
        assume(bool(np.all(norms > 1e-3)))
        feats = raw / norms
        n = feats.shape[0]
        labels = np.array([0, 1, 0] + label_pool[:n - 3])
        part = proxies.partition_pairs(labels)
        K = feats @ feats.T
        off_diagonal = ~np.eye(n, dtype=bool)
        spread, n_neg = 4.0, part.num_negatives
        bounds = {"al-neo": (-n_neg ** -0.5, n_neg ** -0.5),
                  "cts-neo": (-np.e, -np.exp(-1.0)), "nmse-neo": (-spread, 0.0),
                  "al": (-1.0, 1.0), "utal": (-1.0, 1.0), "cts": (0.0, 1.0),
                  "nmse": (-spread, 0.0)}
        # The pairs whose kernel values make up the norm each cosine
        # divides by; a cosine of all-zero values is undefined.
        norm_pairs = {"al-neo": part.neg_mask, "utal": off_diagonal}
        for kind, (lo, hi) in bounds.items():
            try:
                v = proxies.proxy_value(kind, K, part, 1.0, -1.0)
            except DegenerateBatchError:
                assert np.square(K[norm_pairs[kind]]).sum() <= 1e-12, kind
                continue
            assert lo - 1e-12 <= v <= hi + 1e-12, (kind, v)

    @pytest.mark.parametrize("kind", proxies.PROXY_KINDS)
    def test_gradients_match_finite_differences(self, kind):
        check_proxy_gradient(kind, np.random.default_rng(13))

    def test_unknown_kind_rejected(self):
        with pytest.raises(ConfigurationError):
            proxies.validate_proxy_kind("mmd")

    def test_unknown_kind_rejected_by_proxy_value(self):
        part = proxies.partition_pairs([0, 1, 1])
        with pytest.raises(ConfigurationError, match="mmd"):
            proxies.proxy_value("mmd", np.eye(3), part, 1.0, -1.0)

    def test_degenerate_batches(self):
        no_positives = proxies.partition_pairs([0, 1])
        no_negatives = proxies.partition_pairs([2, 2, 2])
        for kind in proxies.PROXY_KINDS:
            assert proxies.is_degenerate_for(kind, no_positives) == (kind == "cts")
            assert proxies.is_degenerate_for(kind, no_negatives)
            assert not proxies.is_degenerate_for(
                kind, proxies.partition_pairs([0, 0, 1]))

    def test_neo_requires_nonzero_beta(self):
        with pytest.raises(ConfigurationError):
            proxies.validate_proxy_for_bounds("nmse-neo", beta=0.0)
        proxies.validate_proxy_for_bounds("al", beta=0.0)


def check_proxy_gradient(kind, rng, rtol=1e-5, atol=1e-8):
    """Finite differences through feature map + gram + proxy; shared with
    the acceptance suite."""
    labels = np.array([0, 1, 1, 2, 0, 2])
    part = proxies.partition_pairs(labels)
    acts = rng.standard_normal((6, 3))
    fmap = FeatureMap("tanh")

    def value(arr):
        K = gram_tensor(fmap, ad.Tensor(arr))
        return proxies.proxy_tensor(kind, K, part, 1.0, -1.0).item()

    leaf = ad.Tensor(acts, requires_grad=True)
    out = proxies.proxy_tensor(kind, gram_tensor(fmap, leaf), part, 1.0, -1.0)
    ad.backward(out)
    fd = central_difference(value, acts)
    np.testing.assert_allclose(leaf.grad, fd, rtol=rtol, atol=atol,
                               err_msg=f"gradient mismatch for proxy {kind}")
