"""Pairwise proxy objectives over kernel matrices of labeled batches.

Each objective is a scalar function of the batch kernel matrix meant to be
*maximized* by the input module.  Each is defined once, as a graph on
autodiff tensors: training builds it over a gram tensor, and
``proxy_value`` runs the same graph on a constant kernel matrix.  Pairs
are ordered: both (i, j) and (j, i) are enumerated.

A proxy reads K, e^K or K^2 through three sums only: over all pairs, over
the inter-class pairs (``ad.masked_sum`` through the partition's boolean
n-by-n mask) and over the diagonal (``ad.diagonal_sum``).  The sums over
intra-class pairs, over the strict upper triangle and against the ideal
kernel follow from those in closed form for a symmetric K, so no n-by-n
target matrix or second mask is built.

All functions here are pure and safe for concurrent evaluation.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from . import autodiff as ad
from .errors import ConfigurationError, DegenerateBatchError, UndefinedProxyError

PROXY_KINDS = ("al-neo", "cts-neo", "nmse-neo", "al", "utal", "cts", "nmse")

# Negative-only objectives read inter-class pairs exclusively.
NEO_KINDS = ("al-neo", "cts-neo", "nmse-neo")


@dataclass(frozen=True)
class PairPartition:
    """Ordered index pairs of a labeled batch, split by label agreement.

    ``negatives`` holds every (i, j) with distinct labels, ``positives``
    every (i, j), i != j, with equal labels; together with the diagonal
    they partition all ordered pairs.  Pair order is row-major.
    ``neg_mask`` is the boolean n-by-n array marking the negatives.  The
    pair lists are materialized on demand; hot paths use the mask and the
    counts.
    """

    n: int
    neg_mask: np.ndarray = field(default=None, repr=False)
    num_negatives: int = 0
    num_positives: int = 0

    @property
    def negatives(self) -> tuple:
        return tuple(map(tuple, np.argwhere(self.neg_mask)))

    @property
    def positives(self) -> tuple:
        same = ~self.neg_mask
        np.fill_diagonal(same, False)
        return tuple(map(tuple, np.argwhere(same)))


def partition_pairs(labels) -> PairPartition:
    labels = np.asarray(labels)
    if labels.ndim != 1 or labels.shape[0] < 1:
        raise DegenerateBatchError(f"need a 1-D label list, got {labels.shape}")
    n = labels.shape[0]
    neg_mask = labels[:, None] != labels[None, :]
    num_negatives = int(np.count_nonzero(neg_mask))
    # The rest of the n^2 ordered pairs share a label; n of them are the diagonal.
    return PairPartition(n=n, neg_mask=neg_mask, num_negatives=num_negatives,
                         num_positives=n * n - num_negatives - n)


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


def proxy_tensor(kind: str, K: ad.Tensor, part: PairPartition,
                 alpha: float, beta: float) -> ad.Tensor:
    """Build the differentiable value of any proxy over a symmetric kernel
    tensor, for kernel supremum ``alpha`` and infimum ``beta``.

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
    neg = part.neg_mask
    num_neg = float(part.num_negatives)
    if kind == "al-neo" and beta == 0.0:
        raise UndefinedProxyError(
            "al-neo is undefined for beta = 0; use 'al' or 'utal'")
    if is_degenerate_for(kind, part):
        raise DegenerateBatchError(
            f"{kind} needs both pair types in the batch" if kind == "cts"
            else f"{kind} needs at least one inter-class pair")
    if kind == "al-neo":
        sq = ad.masked_sum(ad.square(K), neg)
        if sq.item() <= 0.0:
            raise DegenerateBatchError(
                "al-neo: inter-class kernel values are all zero")
        num = ad.masked_sum(K, neg) * beta
        return num / (ad.sqrt(sq) * (abs(beta) * num_neg))
    # sum / -count has the bits of -(sum / count), with one node less.
    if kind == "cts-neo":
        return ad.masked_sum(ad.exp(K), neg) / -num_neg
    if kind == "nmse-neo":
        return ad.masked_sum(ad.square(K - beta), neg) / -num_neg
    if kind == "cts":
        e = ad.exp(K)
        off_diagonal = ad.tensor_sum(e) - ad.diagonal_sum(e)
        return (off_diagonal - ad.masked_sum(e, neg)) / off_diagonal

    # al, utal and nmse: <K, K*>, |K|^2 and |K*|^2, over every pair, or
    # for utal over the off-diagonal ones (twice the strict upper triangle).
    inter = ad.masked_sum(K, neg)
    same = ad.tensor_sum(K) - inter
    K_sq = ad.square(K)
    sq = ad.tensor_sum(K_sq)
    same_pairs = part.n * part.n - part.num_negatives
    if kind == "utal":
        same = same - ad.diagonal_sum(K)
        sq = sq - ad.diagonal_sum(K_sq)
        same_pairs = part.num_positives
    inner = same * alpha + inter * beta
    ideal_sq = alpha * alpha * same_pairs + beta * beta * num_neg
    if kind == "nmse":
        return (sq - inner * 2.0 + ideal_sq) / -float(part.n * part.n)
    if ideal_sq == 0.0 or sq.item() <= 0.0:
        raise DegenerateBatchError(f"{kind}: the kernel or its ideal has norm 0")
    return inner / (ad.sqrt(sq) * np.sqrt(ideal_sq))


def proxy_value(kind: str, K: np.ndarray, part: PairPartition,
                alpha: float, beta: float) -> float:
    """Evaluate any proxy by name on a precomputed symmetric kernel matrix."""
    return proxy_tensor(kind, ad.constant(K), part, alpha, beta).item()
