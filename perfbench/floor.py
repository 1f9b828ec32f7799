"""Hand-written numpy references the benchmark checks and times against.

``stage1_gradient`` and ``stage1_floor`` are the stage-one step of the
wide-training problem written out by hand: affine -> relu -> affine ->
tanh -> row normalize -> gram -> cts-neo -> SGD with momentum.  The
gradient is the floor's answer for the correctness check; the timed loop
is the floor a library step is compared with.

``proxy_references`` evaluates a frozen candidate and the seven proxies
straight from their formulas, for checking ``transfer.score_candidate``;
``proxy_bounds`` gives the interval each proxy lies in.
"""

from __future__ import annotations

import numpy as np

EPSILON = 1e-12


def _link(u: np.ndarray) -> np.ndarray:
    t = np.tanh(u)
    return t / np.maximum(np.linalg.norm(t, axis=1, keepdims=True), EPSILON)


def stage1_gradient(params: list, X: np.ndarray, y: np.ndarray) -> tuple:
    """(cts-neo objective, gradients of its negation) for one batch.

    ``params`` is [W1, b1, W2, b2] of a one-hidden-layer relu input module.
    """
    W1, b1, W2, b2 = params
    h = X @ W1 + b1
    r = np.maximum(h, 0.0)
    u = r @ W2 + b2
    t = np.tanh(u)
    norms = np.linalg.norm(t, axis=1, keepdims=True)
    scale = np.maximum(norms, EPSILON)
    f = t / scale
    K = f @ f.T
    neg = y[:, None] != y[None, :]
    count = int(neg.sum())
    if count == 0:
        raise ValueError("batch has no inter-class pair")
    e = np.exp(K)
    objective = -float(e[neg].sum()) / count
    # d(-objective)/dK, then back through K = f f^T.
    gK = np.where(neg, e, 0.0) / count
    gf = (gK + gK.T) @ f
    radial = (gf * f).sum(axis=1, keepdims=True)
    gt = np.where(norms <= EPSILON, gf / EPSILON, (gf - f * radial) / scale)
    gu = gt * (1.0 - t * t)
    gr = gu @ W2.T
    gh = gr * (h > 0)
    grads = [X.T @ gh, gh.sum(axis=0), r.T @ gu, gu.sum(axis=0)]
    return objective, grads


def stage1_floor(params: list, X: np.ndarray, y: np.ndarray, batches,
                 learning_rate: float, momentum: float) -> float:
    """Train a copy of ``params`` over ``batches`` with momentum SGD ascent
    on cts-neo, then evaluate cts-neo on the full data, as a library stage
    one does.  Returns the final full-data objective."""
    params = [p.copy() for p in params]
    velocity = [np.zeros_like(p) for p in params]
    for idx in batches:
        _, grads = stage1_gradient(params, X[idx], y[idx])
        for p, g, v in zip(params, grads, velocity):
            v *= momentum
            v += g
            p -= learning_rate * v
    W1, b1, W2, b2 = params
    f = _link(np.maximum(X @ W1 + b1, 0.0) @ W2 + b2)
    neg = y[:, None] != y[None, :]
    return -float(np.exp((f @ f.T)[neg]).mean())


def proxy_references(layers: list, X: np.ndarray, y: np.ndarray,
                     alpha: float = 1.0, beta: float = -1.0,
                     block: int = 256) -> dict:
    """All seven proxies of a frozen relu stack's tanh link features.

    ``layers`` is a list of (W, b) arrays, relu between layers.  The gram
    matrix is formed a block of rows at a time and only its sums are
    kept, so memory stays at a few blocks whatever n is.
    """
    out = X
    for i, (W, b) in enumerate(layers):
        out = out @ W + b
        if i < len(layers) - 1:
            out = np.maximum(out, 0.0)
    f = _link(out)
    n = y.shape[0]
    s = dict.fromkeys(("neg", "neg_sq", "neg_exp", "neg_dev", "kt", "kk", "tt",
                       "up_kt", "up_kk", "up_tt", "pos_exp", "pair_exp",
                       "dev"), 0.0)
    num_neg = 0
    columns = np.arange(n)
    for i0 in range(0, n, block):
        rows = columns[i0:i0 + block]
        K = f[rows] @ f.T
        same = y[rows, None] == y[None, :]
        off_diagonal = rows[:, None] != columns[None, :]
        upper = rows[:, None] < columns[None, :]
        target = np.where(same, alpha, beta)
        e = np.exp(K)
        v = K[~same]
        num_neg += v.size
        s["neg"] += v.sum()
        s["neg_sq"] += (v * v).sum()
        s["neg_exp"] += np.exp(v).sum()
        s["neg_dev"] += ((v - beta) ** 2).sum()
        kt, kk, tt = K * target, K * K, target * target
        s["kt"] += kt.sum()
        s["kk"] += kk.sum()
        s["tt"] += tt.sum()
        s["up_kt"] += kt[upper].sum()
        s["up_kk"] += kk[upper].sum()
        s["up_tt"] += tt[upper].sum()
        s["pos_exp"] += e[same & off_diagonal].sum()
        s["pair_exp"] += e[off_diagonal].sum()
        s["dev"] += ((K - target) ** 2).sum()
    return {
        "al-neo": beta * s["neg"] / (abs(beta) * num_neg * np.sqrt(s["neg_sq"])),
        "cts-neo": -s["neg_exp"] / num_neg,
        "nmse-neo": -s["neg_dev"] / num_neg,
        "al": s["kt"] / np.sqrt(s["kk"] * s["tt"]),
        "utal": s["up_kt"] / np.sqrt(s["up_kk"] * s["up_tt"]),
        "cts": s["pos_exp"] / s["pair_exp"],
        "nmse": -s["dev"] / (n * n),
    }


def proxy_bounds(kind: str, num_negatives: int,
                 alpha: float = 1.0, beta: float = -1.0) -> tuple:
    """Closed interval every value of the proxy lies in, for kernel values
    in [beta, alpha]."""
    spread = (alpha - beta) ** 2
    return {
        "al-neo": (-num_negatives ** -0.5, num_negatives ** -0.5),
        "cts-neo": (-np.exp(alpha), -np.exp(beta)),
        "nmse-neo": (-spread, 0.0),
        "al": (-1.0, 1.0),
        "utal": (-1.0, 1.0),
        "cts": (0.0, 1.0),
        "nmse": (-spread, 0.0),
    }[kind]
