"""Pairwise proxy objectives over the kernel matrices of labeled batches.

Each objective is a scalar function of the batch kernel matrix meant to be
*maximized* by the input module.  Each is defined once, by ``_proxy``,
over the weighted pair sums it reads; the entry points only choose where
those sums come from:

- ``proxy_tensor``: ``ad.pair_sum`` of a kernel tensor, the differentiable
  graph training descends;
- ``proxy_value``: the same over a precomputed constant kernel matrix;
- ``feature_proxy_value``: ``ad.gram_pair_sums`` of frozen features F, for
  the kernel F F^T.  Scoring takes this route: its sums come from moments
  of F, so it forms no kernel rows and holds nothing larger than F.

Pairs are ordered: both (i, j) and (j, i) are enumerated.  The sums are of
K, K^2, (K - beta)^2 or e^K over the inter-class pairs, the intra-class
pairs and the diagonal, at most two per proxy.  The sums over the strict
upper triangle and against the ideal kernel follow from those in closed
form for a symmetric K, so no n-by-n target matrix or pair mask is built.

All functions here are pure and safe for concurrent evaluation.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cache, partial

import numpy as np

from . import autodiff as ad
from .errors import ConfigurationError, DegenerateBatchError, UndefinedProxyError

PROXY_KINDS = ("al-neo", "cts-neo", "nmse-neo", "al", "utal", "cts", "nmse")

# Negative-only objectives read inter-class pairs exclusively.
NEO_KINDS = ("al-neo", "cts-neo", "nmse-neo")


@dataclass(frozen=True)
class PairPartition:
    """Ordered index pairs of a labeled batch, split by label agreement.

    ``classes`` gives each example the index of its label among the
    sorted distinct labels, and ``counts`` the size of each class.  The
    negatives are the ordered pairs (i, j) with distinct labels, the
    positives those with i != j and equal labels; with the diagonal they
    partition all n^2 ordered pairs.  Only their counts are kept.
    """

    n: int
    classes: np.ndarray = field(repr=False)
    counts: np.ndarray = field(repr=False)
    num_negatives: int
    num_positives: int


def partition_pairs(labels) -> PairPartition:
    labels = np.asarray(labels)
    if labels.ndim != 1 or labels.shape[0] < 1:
        raise DegenerateBatchError(f"need a 1-D label list, got {labels.shape}")
    n = labels.shape[0]
    # np.unique's inverse and counts, in half its time on a training batch.
    ordered = np.sort(labels)
    distinct = ordered[np.concatenate(([True], ordered[1:] != ordered[:-1]))]
    classes = np.searchsorted(distinct, labels)
    counts = np.bincount(classes)
    # Equal-label ordered pairs, the diagonal included: sum of squared sizes.
    same = int(counts @ counts)
    return PairPartition(n=n, classes=classes, counts=counts,
                         num_negatives=n * n - same, num_positives=same - n)


def validate_proxy_kind(kind: str) -> str:
    if kind not in PROXY_KINDS:
        raise ConfigurationError(
            f"unknown proxy kind {kind!r}; expected one of {PROXY_KINDS}")
    return kind


def validate_proxy_for_bounds(kind: str, beta: float) -> None:
    """Negative-only proxies are reserved for kernels with beta != 0."""
    validate_proxy_kind(kind)
    if kind in NEO_KINDS and beta == 0.0:
        raise ConfigurationError(
            f"proxy {kind!r} is undefined for kernel infimum 0; "
            "use one of 'al', 'utal', 'cts', 'nmse'")


def is_degenerate_for(kind: str, part: PairPartition) -> bool:
    """Whether the batch lacks a pair type the proxy reads: every proxy
    needs an inter-class pair, and cts an intra-class one as well."""
    return part.num_negatives == 0 or (kind == "cts" and part.num_positives == 0)


def _proxy(kind: str, pairs, part: PairPartition, alpha: float,
           beta: float) -> ad.Tensor:
    """The value of any proxy for kernel supremum ``alpha`` and infimum
    ``beta``, from ``pairs(f, weights, shift)``: the weighted sums of a
    map f of the kernel over (inter-class, intra-class, diagonal) pairs,
    as ``ad.pair_sum`` takes them.

    The negative-only proxies, over the inter-class pairs N:
    al-neo = beta sum_N k / (|beta| |N| sqrt(sum_N k^2)),
    cts-neo = -mean_N e^k and nmse-neo = -mean_N (k - beta)^2.
    The full proxies compare K with the ideal kernel K*, alpha on
    intra-class pairs and the diagonal and beta on N: al is the cosine of
    K and K* under the Frobenius inner product, utal the same over the
    strict upper triangles, nmse = -mean (k - k*)^2 over all n^2 pairs,
    and cts = sum_P e^k / sum_{N u P} e^k over the off-diagonal pairs.
    """
    validate_proxy_kind(kind)
    num_neg = float(part.num_negatives)
    if kind == "al-neo" and beta == 0.0:
        raise UndefinedProxyError(
            "al-neo is undefined for beta = 0; use 'al' or 'utal'")
    if is_degenerate_for(kind, part):
        raise DegenerateBatchError(
            f"{kind} needs both pair types in the batch" if kind == "cts"
            else f"{kind} needs at least one inter-class pair")

    if kind == "al-neo":
        sq = pairs("square")
        if sq.item() <= 0.0:
            raise DegenerateBatchError(
                "al-neo: inter-class kernel values are all zero")
        num = pairs("identity") * beta
        return num / (ad.sqrt(sq) * (abs(beta) * num_neg))
    # sum / -count has the bits of -(sum / count), with one node less.
    if kind == "cts-neo":
        return pairs("exp") / -num_neg
    if kind == "nmse-neo":
        return pairs("square", shift=beta) / -num_neg
    if kind == "cts":
        return pairs("exp", (0.0, 1.0, -1.0)) / pairs("exp", (1.0, 1.0, -1.0))

    # al, utal and nmse: <K, K*> and |K|^2 over every pair, or for utal over
    # the off-diagonal ones (twice the strict upper triangle), and |K*|^2.
    diagonal = -1.0 if kind == "utal" else 0.0
    inner = pairs("identity", (beta, alpha, alpha * diagonal))
    sq = pairs("square", (1.0, 1.0, diagonal))
    same_pairs = (part.num_positives if kind == "utal"
                  else part.n * part.n - part.num_negatives)
    ideal_sq = alpha * alpha * same_pairs + beta * beta * num_neg
    if kind == "nmse":
        return (sq - inner * 2.0 + ideal_sq) / -float(part.n * part.n)
    if ideal_sq == 0.0 or sq.item() <= 0.0:
        raise DegenerateBatchError(f"{kind}: the kernel or its ideal has norm 0")
    return inner / (ad.sqrt(sq) * np.sqrt(ideal_sq))


def proxy_tensor(kind: str, K: ad.Tensor, part: PairPartition,
                 alpha: float, beta: float) -> ad.Tensor:
    """The differentiable value of a proxy over a symmetric kernel tensor."""
    return _proxy(kind, partial(ad.pair_sum, K, part.classes), part, alpha,
                  beta)


def proxy_value(kind: str, K: np.ndarray, part: PairPartition,
                alpha: float, beta: float) -> float:
    """Evaluate any proxy by name on a precomputed symmetric kernel matrix."""
    return proxy_tensor(kind, ad.constant(K), part, alpha, beta).item()


def feature_proxy_value(kind: str, feats: np.ndarray, part: PairPartition,
                        alpha: float, beta: float) -> float:
    """Evaluate any proxy by name on the kernel feats @ feats.T of n-by-d
    features, without forming the n-by-n kernel.  The three sums of each
    map are taken once, so cts reads both of its e^k sums from one pass."""
    # The one class sort of a value; numpy radix-sorts indices of up to 16 bits.
    order = np.argsort(part.classes.astype(
        np.min_scalar_type(part.counts.shape[0] - 1)), kind="stable")
    sums = cache(partial(ad.gram_pair_sums, feats, part.classes, order))

    def pairs(f, weights=(1.0, 0.0, 0.0), shift=0.0):
        return ad.constant(ad.weighted_pair_sum(weights, sums(f, shift)))

    return _proxy(kind, pairs, part, alpha, beta).item()
