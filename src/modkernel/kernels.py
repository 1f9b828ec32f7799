"""Feature maps, their induced kernels, kernel bounds, and RKHS distances.

A feature map here is an elementwise nonlinearity followed by unit
normalization.  Its kernel is always evaluated through the explicit
features (an inner product of feature vectors), never through a
center-based expansion, which keeps evaluation linear in sample size.

All operations are pure.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import autodiff as ad
from .errors import ConfigurationError, DimensionError

# (sup k, inf k) for the unit-normalized feature map of each nonlinearity.
_KERNEL_BOUNDS = {
    "relu": (1.0, 0.0),
    "tanh": (1.0, -1.0),
    "sigmoid": (1.0, 0.0),
}

NONLINEARITIES = tuple(_KERNEL_BOUNDS)


def kernel_bounds(nonlinearity: str) -> tuple[float, float]:
    """Supremum and infimum of the induced kernel, assuming normalization.

    The infimum 0 for relu and sigmoid is an infimum only: sigmoid features
    are strictly positive, so exactly orthogonal pairs are unreachable.
    """
    try:
        return _KERNEL_BOUNDS[nonlinearity]
    except KeyError:
        raise ConfigurationError(
            f"unsupported nonlinearity: {nonlinearity!r}") from None


@dataclass(frozen=True)
class FeatureMap:
    """Elementwise nonlinearity plus row-wise unit normalization.

    The kernel it induces is the inner product of feature vectors; its sup
    and inf are ``bounds()``.
    """

    nonlinearity: str = "tanh"
    epsilon: float = 1e-12

    def __post_init__(self):
        kernel_bounds(self.nonlinearity)  # rejects unknown nonlinearities
        if self.epsilon <= 0:
            raise ConfigurationError("epsilon must be positive")

    def apply(self, U) -> np.ndarray:
        """Map a batch (n-by-d) or a single vector into feature space."""
        U = np.asarray(U, dtype=np.float64)
        single = U.ndim == 1
        rows = U.reshape(1, -1) if single else U
        feats = self.apply_tensor(ad.constant(rows)).data
        return feats[0] if single else feats

    def apply_tensor(self, x: ad.Tensor) -> ad.Tensor:
        """Differentiable version of ``apply`` for n-by-d activations."""
        return ad.unit_normalize(x, self.epsilon, kind=self.nonlinearity)

    def bounds(self) -> tuple[float, float]:
        return kernel_bounds(self.nonlinearity)


def kernel_eval(fmap: FeatureMap, u, v) -> float:
    """Inner product of the two feature vectors."""
    u = np.asarray(u, dtype=np.float64)
    v = np.asarray(v, dtype=np.float64)
    if u.shape != v.shape or u.ndim != 1:
        raise DimensionError(f"kernel_eval: {u.shape} vs {v.shape}")
    return float(fmap.apply(u) @ fmap.apply(v))


def kernel_matrix(fmap: FeatureMap, X) -> np.ndarray:
    """Symmetric n-by-n matrix of pairwise kernel values over a batch.

    Allocates one n-by-n array, the product of the features with their
    transpose.  numpy computes a product of a matrix with its own
    transpose as a symmetric rank-k update (BLAS ``syrk``) and fills the
    other triangle from the one it computed, so the result is exactly
    symmetric.
    """
    X = np.asarray(X, dtype=np.float64)
    if X.ndim != 2 or X.shape[0] < 1:
        raise DimensionError(f"kernel_matrix expects n-by-d batch, got {X.shape}")
    feats = fmap.apply(X)
    return feats @ feats.T


def rkhs_distance_sq(fmap: FeatureMap, u, v) -> float:
    """Squared feature-space distance, k(u,u) + k(v,v) - 2 k(u,v)."""
    return (kernel_eval(fmap, u, u) + kernel_eval(fmap, v, v)
            - 2.0 * kernel_eval(fmap, u, v))


def gram_tensor(feature_map: FeatureMap, activations: ad.Tensor) -> ad.Tensor:
    """Differentiable kernel matrix of a batch of pre-feature activations."""
    feats = feature_map.apply_tensor(activations)
    return ad.gram(feats)
