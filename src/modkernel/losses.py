"""Decomposable classification risks and their built-in instantiations.

A decomposable loss splits the empirical risk of a scalar-score binary
classifier into a nonincreasing per-example term on the positive class, a
nondecreasing term on the negative class, and a weight-norm penalty:

    risk = (1/n) sum_{i in I+} ell_plus(score_i)
         + (1/n) sum_{j in I-} ell_minus(score_j)
         + lambda * g(|w|)

Three concrete instantiations are provided: two-class softmax
cross-entropy, tanh + squared error, and hinge.

Each loss is defined once, as a pair of graph builders over a score
tensor.  Training minimizes ``risk_tensor`` over those graphs; the plain
values (``ell_plus``, ``ell_minus``, ``risk``), which the theorem oracle
reads, run the same graphs on constants.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import autodiff as ad
from .errors import ConfigurationError, ContractError, DimensionError

# kind -> (ell_plus, ell_minus), each a graph builder over a score tensor.
_TERMS = {
    "xe2": (lambda s: ad.softplus(ad.neg(s)), ad.softplus),
    "tanh-mse": (lambda s: ad.square(1.0 - ad.tanh(s)),
                 lambda s: ad.square(1.0 + ad.tanh(s))),
    "hinge": (lambda s: ad.relu(1.0 - s), lambda s: ad.relu(1.0 + s)),
}

LOSS_KINDS = tuple(_TERMS)


def _identity(x):
    return x


@dataclass(frozen=True)
class DecomposableLoss:
    """The (ell_plus, ell_minus, g, lambda) quadruple of a decomposable risk.

    ``plus_term`` and ``minus_term`` build ell_plus and ell_minus,
    entrywise, as graphs over a score tensor.  ell_plus must be
    nonincreasing and ell_minus and g nondecreasing.
    """

    kind: str
    plus_term: callable
    minus_term: callable
    g: callable = _identity
    lam: float = 0.0

    def ell_plus(self, t) -> np.ndarray:
        return self.plus_term(ad.constant(t)).data

    def ell_minus(self, t) -> np.ndarray:
        return self.minus_term(ad.constant(t)).data


def make_loss(kind: str, lam: float = 0.0, g=None) -> DecomposableLoss:
    kind = kind.replace("_", "-")
    if lam < 0:
        raise ConfigurationError("lambda must be nonnegative")
    if kind not in _TERMS:
        raise ConfigurationError(
            f"unknown loss kind {kind!r}; expected one of {LOSS_KINDS}")
    return DecomposableLoss(kind, *_TERMS[kind],
                            g if g is not None else _identity, lam)


def _data_term(loss: DecomposableLoss, scores: ad.Tensor,
               positive: np.ndarray) -> ad.Tensor:
    """(1/n) (sum of ell_plus over ``positive`` + sum of ell_minus over
    the rest), for a boolean mask with one entry per score; for a
    K-by-n-by-1 stack of scores, one value per slice."""
    positive = np.asarray(positive, dtype=bool).ravel()
    n = positive.shape[0]
    shape = scores.shape[1:] if scores.data.ndim == 3 else scores.shape
    if math.prod(shape) != n:
        raise DimensionError("scores do not align with the positive mask")
    positive = positive.reshape(shape)
    return (ad.masked_sum(loss.plus_term(scores), positive)
            + ad.masked_sum(loss.minus_term(scores), ~positive)) / float(n)


def risk(loss: DecomposableLoss, scores, positive: np.ndarray,
         w_norm: float = 0.0) -> float:
    """The three-term decomposed empirical risk.  ``positive`` is a boolean
    array marking I+, one entry per score; I- is its complement.

    Scores must be finite: both terms are evaluated at every score and
    masked, so an infinite score would turn the masked-out term into NaN.
    """
    scores = np.asarray(scores, dtype=np.float64).ravel()
    if not np.isfinite(scores).all():
        raise ContractError("risk needs finite scores")
    data = _data_term(loss, ad.constant(scores), positive).item()
    return data + loss.lam * float(loss.g(w_norm))


def risk_tensor(loss: DecomposableLoss, scores: ad.Tensor,
                positive: np.ndarray) -> ad.Tensor:
    """Differentiable data term of the decomposed risk over a score tensor.

    ``positive`` is a boolean array marking I+.  Training sets no weight
    penalty, so a loss with lambda > 0 is rejected; the penalty stays on
    the plain ``risk`` path.
    """
    if loss.lam > 0.0:
        raise ConfigurationError(
            "the differentiable risk has no weight penalty; lambda must be 0")
    return _data_term(loss, scores, positive)
