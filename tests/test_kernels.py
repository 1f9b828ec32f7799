import numpy as np
import pytest

from modkernel.errors import ConfigurationError, DimensionError
from modkernel.kernels import (FeatureMap, kernel_bounds, kernel_eval,
                               kernel_matrix, rkhs_distance_sq)

from oracles import jacobi_eigenvalues


def spec_for(kind):
    return FeatureMap(kind)


class TestKernelBounds:
    def test_relu(self):
        assert kernel_bounds("relu") == (1.0, 0.0)

    def test_tanh(self):
        assert kernel_bounds("tanh") == (1.0, -1.0)

    def test_sigmoid(self):
        assert kernel_bounds("sigmoid") == (1.0, 0.0)

    def test_unsupported(self):
        with pytest.raises(ConfigurationError):
            kernel_bounds("gelu")


class TestKernelEval:
    def test_self_kernel_is_one(self):
        rng = np.random.default_rng(2)
        for kind in ("relu", "tanh", "sigmoid"):
            spec = spec_for(kind)
            for _ in range(10)                :
                u = rng.standard_normal(4) + 0.3
                assert kernel_eval(spec, u, u) == pytest.approx(1.0, abs=1e-12)

    def test_tanh_antipodal_pair(self):
        spec = spec_for("tanh")
        u = np.array([1.7, 0.0, 0.0])
        assert kernel_eval(spec, u, -u) == pytest.approx(-1.0, abs=1e-12)

    def test_relu_disjoint_supports(self):
        spec = spec_for("relu")
        assert kernel_eval(spec, np.array([1.0, -1.0]),
                           np.array([-1.0, 1.0])) == 0.0

    def test_dimension_mismatch(self):
        with pytest.raises(DimensionError):
            kernel_eval(spec_for("tanh"), np.ones(3), np.ones(4))


class TestKernelMatrix:
    def test_single_row(self):
        M = kernel_matrix(spec_for("tanh"), [[1.0, 2.0]])
        np.testing.assert_allclose(M, [[1.0]], rtol=0, atol=1e-12)

    def test_duplicated_rows(self):
        M = kernel_matrix(spec_for("relu"), [[1.0, 2.0], [1.0, 2.0]])
        assert M[0, 1] == pytest.approx(1.0, abs=1e-12)

    def test_matches_entrywise_oracle_exactly(self):
        rng = np.random.default_rng(7)
        spec = spec_for("tanh")
        X = rng.standard_normal((5, 3))
        M = kernel_matrix(spec, X)
        for i in range(5):
            for j in range(5):
                assert M[i, j] == kernel_eval(spec, X[i], X[j])

    def test_symmetry_exact(self):
        rng = np.random.default_rng(8)
        M = kernel_matrix(spec_for("sigmoid"), rng.standard_normal((7, 4)))
        np.testing.assert_array_equal(M, M.T)

    # Sizes on either side of 128 and 256 rows, and one large batch.
    @pytest.mark.parametrize("n", [1, 127, 128, 129, 255, 256, 257, 3000])
    def test_mirrors_upper_triangle_exactly_at_block_edges(self, n):
        rng = np.random.default_rng(n)
        spec = spec_for("tanh")
        X = rng.standard_normal((n, 5))
        M = kernel_matrix(spec, X)
        feats = spec.apply(X)
        np.testing.assert_array_equal(M, feats @ feats.T)
        np.testing.assert_array_equal(M, M.T)

    def test_psd_against_jacobi_oracle(self):
        rng = np.random.default_rng(9)
        for kind in ("relu", "tanh", "sigmoid"):
            spec = spec_for(kind)
            for _ in range(25):
                n = int(rng.integers(2, 9))
                M = kernel_matrix(spec, rng.standard_normal((n, 3)))
                eigs = jacobi_eigenvalues(M)
                assert eigs[0] >= -1e-8

    def test_bounded_in_declared_range(self):
        # 10^4 random inputs per nonlinearity, evaluated on random pairs
        rng = np.random.default_rng(10)
        for kind in ("relu", "tanh", "sigmoid"):
            spec = spec_for(kind)
            X = rng.standard_normal((10_000, 4)) * 3.0
            feats = spec.apply(X)
            pairs = rng.integers(0, 10_000, (10_000, 2))
            values = np.einsum("ij,ij->i", feats[pairs[:, 0]], feats[pairs[:, 1]])
            alpha, beta = spec.bounds()
            assert values.min() >= beta - 1e-9
            assert values.max() <= alpha + 1e-9

    def test_cauchy_schwarz(self):
        rng = np.random.default_rng(12)
        spec = spec_for("tanh")
        for _ in range(200):
            u, v = rng.standard_normal((2, 5))
            k_uv = kernel_eval(spec, u, v)
            bound = np.sqrt(kernel_eval(spec, u, u) * kernel_eval(spec, v, v))
            assert abs(k_uv) <= bound + 1e-12


class TestRkhsDistance:
    def test_identical_inputs(self):
        assert rkhs_distance_sq(spec_for("tanh"), np.ones(3),
                                np.ones(3)) == pytest.approx(0.0, abs=1e-12)

    def test_two_minus_two_k_identity(self):
        rng = np.random.default_rng(13)
        spec = spec_for("tanh")
        for _ in range(100):
            u, v = rng.standard_normal((2, 4))
            d2 = rkhs_distance_sq(spec, u, v)
            k = kernel_eval(spec, u, v)
            assert d2 == pytest.approx(2.0 - 2.0 * k, abs=1e-12)

    def test_matches_explicit_feature_difference(self):
        rng = np.random.default_rng(14)
        for kind in ("relu", "tanh", "sigmoid"):
            spec = spec_for(kind)
            for _ in range(50):
                u, v = rng.standard_normal((2, 5))
                direct = float(np.sum((spec.apply(u) - spec.apply(v)) ** 2))
                assert rkhs_distance_sq(spec, u, v) == pytest.approx(
                    direct, abs=1e-12)


class TestFeatureMap:
    def test_bad_nonlinearity(self):
        with pytest.raises(ConfigurationError):
            FeatureMap("swish")
