"""Decomposable classification risks and their built-in instantiations.

A decomposable loss splits the empirical risk of a scalar-score binary
classifier into a nonincreasing per-example term on the positive class, a
nondecreasing term on the negative class, and a weight-norm penalty:

    risk = (1/n) sum_{i in I+} ell_plus(score_i)
         + (1/n) sum_{j in I-} ell_minus(score_j)
         + lambda * g(|w|)

Three concrete instantiations are provided (two-class softmax
cross-entropy, tanh + squared error, hinge), plus the standard multiclass
softmax cross-entropy used when training multiclass output modules.

Each loss is defined once, as a pair of graph builders over a score
tensor.  Training minimizes ``risk_tensor`` over those graphs; the plain
values (``ell_plus``, ``ell_minus``, ``risk``, ``multiclass_xe``), which
the theorem oracle and the monotonicity audit read, run the same graphs
on constants.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

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
    nonincreasing and ell_minus and g nondecreasing;
    ``monotonicity_audit`` verifies this numerically on a grid.
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


def multiclass_xe(logits, labels) -> float:
    """Mean softmax cross-entropy of n-by-C logits against integer labels."""
    logits = np.asarray(logits, dtype=np.float64)
    if logits.ndim != 2 or logits.shape[1] < 2:
        raise DimensionError(f"expected n-by-C logits with C >= 2, got {logits.shape}")
    return ad.cross_entropy_logits(ad.constant(logits), labels).item()


@dataclass
class MonotonicityReport:
    """Outcome of sweeping a loss quadruple over a sorted grid."""

    grid_points: int
    violations: list = field(default_factory=list)

    @property
    def passed(self) -> bool:
        return not self.violations


def monotonicity_audit(loss: DecomposableLoss, grid,
                       slack: float = 1e-12) -> MonotonicityReport:
    """Check ell_plus nonincreasing and ell_minus, g nondecreasing on
    consecutive grid pairs; violations are reported, never raised."""
    grid = np.asarray(grid, dtype=np.float64)
    if grid.ndim != 1 or grid.shape[0] < 2 or np.any(np.diff(grid) < 0):
        raise ConfigurationError("grid must be a sorted list of >= 2 reals")
    report = MonotonicityReport(grid_points=grid.shape[0])
    sweeps = (("ell_plus", loss.ell_plus(grid), -1.0),
              ("ell_minus", loss.ell_minus(grid), 1.0),
              ("g", [loss.g(t) for t in grid], 1.0))
    for name, values, direction in sweeps:
        values = np.asarray(values, dtype=np.float64)
        for t1, t2, v1, v2 in zip(grid, grid[1:], values, values[1:]):
            # Negation is exact: -v1 > -v2 + slack is v1 < v2 - slack.
            if direction * v1 > direction * v2 + slack:
                report.violations.append((name, float(t1), float(t2),
                                          float(v1), float(v2)))
    return report
