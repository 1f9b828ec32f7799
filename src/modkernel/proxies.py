"""Pairwise proxy objectives over kernel matrices of labeled batches.

Each objective is a scalar function of the batch kernel matrix meant to be
*maximized* by the input module.  Every objective exists twice: a plain
numpy evaluator (used for scoring and reports) and a graph builder on
autodiff tensors (used for training), and the two agree to machine
precision.  Pairs are ordered: both (i, j) and (j, i) are enumerated.
A batch's pairs are held as two boolean n-by-n masks; the numpy
evaluators gather the entries they read through them, and the graph
builders sum through them with ``ad.masked_sum``.

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
    ``neg_mask`` and ``pos_mask`` are boolean n-by-n arrays marking them.
    The pair lists are materialized on demand; hot paths use the masks and
    counts.
    """

    n: int
    neg_mask: np.ndarray = field(default=None, repr=False)
    pos_mask: np.ndarray = field(default=None, repr=False)
    num_negatives: int = 0
    num_positives: int = 0

    @property
    def negatives(self) -> tuple:
        return tuple(map(tuple, np.argwhere(self.neg_mask)))

    @property
    def positives(self) -> tuple:
        return tuple(map(tuple, np.argwhere(self.pos_mask)))


def partition_pairs(labels) -> PairPartition:
    labels = np.asarray(labels)
    if labels.ndim != 1 or labels.shape[0] < 1:
        raise DegenerateBatchError(f"need a 1-D label list, got {labels.shape}")
    n = labels.shape[0]
    neg = labels[:, None] != labels[None, :]
    pos = ~neg
    np.fill_diagonal(pos, False)
    _, class_sizes = np.unique(labels, return_counts=True)
    # Ordered equal-label pairs, the diagonal included.
    same = int(class_sizes @ class_sizes)
    return PairPartition(n=n, neg_mask=neg, pos_mask=pos,
                         num_negatives=n * n - same, num_positives=same - n)


def target_kernel_matrix(part: PairPartition, alpha: float,
                         beta: float) -> np.ndarray:
    """The ideal kernel matrix: alpha on intra-class pairs and the
    diagonal, beta on inter-class pairs."""
    return np.where(part.neg_mask, beta, alpha)


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


def required_pair_types(kind: str) -> frozenset:
    validate_proxy_kind(kind)
    return frozenset("NP") if kind == "cts" else frozenset("N")


def is_degenerate_for(kind: str, part: PairPartition) -> bool:
    need = required_pair_types(kind)
    if "N" in need and part.num_negatives == 0:
        return True
    if "P" in need and part.num_positives == 0:
        return True
    return False


# ---------------------------------------------------------------------------
# numpy evaluators
# ---------------------------------------------------------------------------

def al_neo(K: np.ndarray, part: PairPartition, beta: float) -> float:
    """beta * sum_N(k) / (|beta| * |N| * sqrt(sum_N(k^2)))."""
    if beta == 0.0:
        raise UndefinedProxyError(
            "al-neo is undefined for beta = 0; use 'al' or 'utal'")
    if part.num_negatives == 0:
        raise DegenerateBatchError("al-neo needs at least one inter-class pair")
    vals = K[part.neg_mask]
    total = vals.sum()
    denom_sq = float(np.square(vals, out=vals).sum())
    if denom_sq <= 0.0:
        raise DegenerateBatchError(
            "al-neo: inter-class kernel values are all zero")
    return (float(beta * total)
            / (abs(beta) * part.num_negatives * np.sqrt(denom_sq)))


def cts_neo(K: np.ndarray, part: PairPartition) -> float:
    """-(1/|N|) * sum_N exp(k)."""
    if part.num_negatives == 0:
        raise DegenerateBatchError("cts-neo needs at least one inter-class pair")
    vals = K[part.neg_mask]
    return -float(np.exp(vals, out=vals).mean())


def nmse_neo(K: np.ndarray, part: PairPartition, beta: float) -> float:
    """-(1/|N|) * sum_N (k - beta)^2; maximum value 0."""
    if part.num_negatives == 0:
        raise DegenerateBatchError("nmse-neo needs at least one inter-class pair")
    vals = K[part.neg_mask]
    vals -= beta
    return -float(np.square(vals, out=vals).mean())


def alignment(K: np.ndarray, Kstar: np.ndarray) -> float:
    """Cosine of the two matrices under the Frobenius inner product."""
    nk = np.linalg.norm(K)
    ns = np.linalg.norm(Kstar)
    if nk == 0.0 or ns == 0.0:
        raise DegenerateBatchError("alignment: zero Frobenius norm")
    return float((K * Kstar).sum()) / (nk * ns)


def _strict_upper(n: int) -> np.ndarray:
    """Boolean n-by-n mask of the pairs (i, j) with i < j."""
    rows = np.arange(n)
    return rows[:, None] < rows[None, :]


def utal(K: np.ndarray, Kstar: np.ndarray) -> float:
    """Alignment restricted to the strict upper triangles."""
    n = K.shape[0]
    if n < 2:
        raise DegenerateBatchError("utal needs at least two examples")
    upper = _strict_upper(n)
    u, v = K[upper], Kstar[upper]
    nu, nv = np.linalg.norm(u), np.linalg.norm(v)
    if nu == 0.0 or nv == 0.0:
        raise DegenerateBatchError("utal: zero strict-upper-triangle vector")
    return float(u @ v) / (nu * nv)


def cts(K: np.ndarray, part: PairPartition) -> float:
    """sum_P exp(k) / sum_{N u P} exp(k); lies in (0, 1)."""
    if part.num_positives == 0 or part.num_negatives == 0:
        raise DegenerateBatchError("cts needs both pair types in the batch")
    e = np.exp(K)
    masked = e * part.pos_mask
    num = float(masked.sum())
    np.multiply(e, part.pos_mask | part.neg_mask, out=masked)
    return num / float(masked.sum())


def nmse(K: np.ndarray, Kstar: np.ndarray) -> float:
    """-(1/n^2) * sum over all ordered pairs (diagonal included) of
    (k - k_target)^2."""
    n = K.shape[0]
    diff = K - Kstar
    return -float(np.square(diff, out=diff).sum()) / (n * n)


def proxy_value(kind: str, K: np.ndarray, part: PairPartition,
                alpha: float, beta: float) -> float:
    """Evaluate any proxy by name on a precomputed kernel matrix."""
    validate_proxy_kind(kind)
    if kind == "al-neo":
        return al_neo(K, part, beta)
    if kind == "cts-neo":
        return cts_neo(K, part)
    if kind == "nmse-neo":
        return nmse_neo(K, part, beta)
    if kind == "cts":
        return cts(K, part)
    Kstar = target_kernel_matrix(part, alpha, beta)
    if kind == "al":
        return alignment(K, Kstar)
    if kind == "utal":
        return utal(K, Kstar)
    return nmse(K, Kstar)


# ---------------------------------------------------------------------------
# autodiff graph builders (same formulas over a gram tensor)
# ---------------------------------------------------------------------------

def al_neo_tensor(K: ad.Tensor, part: PairPartition, beta: float) -> ad.Tensor:
    if beta == 0.0:
        raise UndefinedProxyError(
            "al-neo is undefined for beta = 0; use 'al' or 'utal'")
    if part.num_negatives == 0:
        raise DegenerateBatchError("al-neo needs at least one inter-class pair")
    count = float(part.num_negatives)
    num = ad.masked_sum(K, part.neg_mask) * beta
    sq = ad.masked_sum(ad.square(K), part.neg_mask)
    if sq.item() <= 0.0:
        raise DegenerateBatchError(
            "al-neo: inter-class kernel values are all zero")
    return num / (ad.sqrt(sq) * (abs(beta) * count))


def cts_neo_tensor(K: ad.Tensor, part: PairPartition) -> ad.Tensor:
    if part.num_negatives == 0:
        raise DegenerateBatchError("cts-neo needs at least one inter-class pair")
    count = float(part.num_negatives)
    return -(ad.masked_sum(ad.exp(K), part.neg_mask) / count)


def nmse_neo_tensor(K: ad.Tensor, part: PairPartition, beta: float) -> ad.Tensor:
    if part.num_negatives == 0:
        raise DegenerateBatchError("nmse-neo needs at least one inter-class pair")
    count = float(part.num_negatives)
    return -(ad.masked_sum(ad.square(K - beta), part.neg_mask) / count)


def alignment_tensor(K: ad.Tensor, Kstar: np.ndarray) -> ad.Tensor:
    ns = np.linalg.norm(Kstar)
    if ns == 0.0:
        raise DegenerateBatchError("alignment: zero Frobenius norm")
    num = ad.tensor_sum(ad.mul(K, ad.constant(Kstar)))
    nk = ad.sqrt(ad.tensor_sum(ad.square(K)))
    if nk.item() == 0.0:
        raise DegenerateBatchError("alignment: zero Frobenius norm")
    return num / (nk * ns)


def utal_tensor(K: ad.Tensor, Kstar: np.ndarray) -> ad.Tensor:
    n = K.shape[0]
    if n < 2:
        raise DegenerateBatchError("utal needs at least two examples")
    upper = _strict_upper(n)
    target = Kstar * upper
    ns = np.linalg.norm(target)
    if ns == 0.0:
        raise DegenerateBatchError("utal: zero strict-upper-triangle vector")
    num = ad.tensor_sum(ad.mul(K, ad.constant(target)))
    nk = ad.sqrt(ad.masked_sum(ad.square(K), upper))
    if nk.item() == 0.0:
        raise DegenerateBatchError("utal: zero strict-upper-triangle vector")
    return num / (nk * ns)


def cts_tensor(K: ad.Tensor, part: PairPartition) -> ad.Tensor:
    if part.num_positives == 0 or part.num_negatives == 0:
        raise DegenerateBatchError("cts needs both pair types in the batch")
    e = ad.exp(K)
    num = ad.masked_sum(e, part.pos_mask)
    den = ad.masked_sum(e, part.pos_mask | part.neg_mask)
    return num / den


def nmse_tensor(K: ad.Tensor, Kstar: np.ndarray) -> ad.Tensor:
    n = K.shape[0]
    diff = K - ad.constant(Kstar)
    return -(ad.tensor_sum(ad.square(diff)) / float(n * n))


def proxy_tensor(kind: str, K: ad.Tensor, part: PairPartition,
                 alpha: float, beta: float) -> ad.Tensor:
    """Build the differentiable value of any proxy over a gram tensor."""
    validate_proxy_kind(kind)
    if kind == "al-neo":
        return al_neo_tensor(K, part, beta)
    if kind == "cts-neo":
        return cts_neo_tensor(K, part)
    if kind == "nmse-neo":
        return nmse_neo_tensor(K, part, beta)
    if kind == "cts":
        return cts_tensor(K, part)
    Kstar = target_kernel_matrix(part, alpha, beta)
    if kind == "al":
        return alignment_tensor(K, Kstar)
    if kind == "utal":
        return utal_tensor(K, Kstar)
    return nmse_tensor(K, Kstar)
