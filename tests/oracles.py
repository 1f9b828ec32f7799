"""Independent reference implementations the tests check the library against.

Everything here is deliberately naive (explicit loops, textbook formulas)
and shares no code with the package, except ``one_head_stage_two``: it
replays one stage-2 fit on the package's 2-D autodiff nodes, so that the
stacked fit can be held to it bit for bit.
"""

import math
import zlib

import numpy as np


def naive_matmul(A, B):
    A, B = np.asarray(A), np.asarray(B)
    n, k = A.shape
    k2, m = B.shape
    assert k == k2
    out = np.zeros((n, m))
    for i in range(n):
        for j in range(m):
            acc = 0.0
            for t in range(k):
                acc += A[i, t] * B[t, j]
            out[i, j] = acc
    return out


def proxy_references(K, labels, alpha, beta):
    """The seven pairwise proxies by their textbook formulas, as a dict.

    Row by row: an explicit row of the ideal kernel (alpha on equal labels
    and the diagonal, beta elsewhere), explicit inter-class, intra-class
    and strict-upper-triangle selections, and every sum taken exactly
    (``math.fsum``) over the entrywise values of a row, then over rows.
    """
    K = np.asarray(K, dtype=np.float64)
    labels = np.asarray(labels)
    n = labels.shape[0]
    rows = {name: [] for name in (
        "neg", "neg_sq", "neg_exp", "neg_dev", "kt", "kk", "tt", "up_kt",
        "up_kk", "up_tt", "pos_exp", "pair_exp", "dev")}
    num_neg = 0
    for i in range(n):
        k = K[i]
        same = labels == labels[i]
        off_diagonal = np.arange(n) != i
        target = np.where(same, alpha, beta)
        neg = k[~same]
        num_neg += neg.size
        kt, kk, tt = k * target, k * k, target * target
        for name, values in (
                ("neg", neg), ("neg_sq", neg * neg), ("neg_exp", np.exp(neg)),
                ("neg_dev", (neg - beta) ** 2), ("kt", kt), ("kk", kk),
                ("tt", tt), ("up_kt", kt[i + 1:]), ("up_kk", kk[i + 1:]),
                ("up_tt", tt[i + 1:]),
                ("pos_exp", np.exp(k[same & off_diagonal])),
                ("pair_exp", np.exp(k[off_diagonal])),
                ("dev", (k - target) ** 2)):
            rows[name].append(math.fsum(values.tolist()))
    s = {name: math.fsum(sums) for name, sums in rows.items()}
    out = {
        "cts-neo": -s["neg_exp"] / num_neg if num_neg else None,
        "nmse-neo": -s["neg_dev"] / num_neg if num_neg else None,
        "al": s["kt"] / math.sqrt(s["kk"] * s["tt"]),
        "utal": (s["up_kt"] / math.sqrt(s["up_kk"] * s["up_tt"])
                 if s["up_kk"] * s["up_tt"] > 0 else None),
        "cts": s["pos_exp"] / s["pair_exp"] if n > 1 else None,
        "nmse": -s["dev"] / (n * n),
    }
    out["al-neo"] = (beta * s["neg"]
                     / (abs(beta) * num_neg * math.sqrt(s["neg_sq"]))
                     if s["neg_sq"] > 0 else None)
    return out


def proxy_reference(kind, K, labels, alpha, beta):
    """One proxy of ``proxy_references``; raises on an unknown kind."""
    if kind not in ("al-neo", "cts-neo", "nmse-neo", "al", "utal", "cts", "nmse"):
        raise ValueError(f"unknown proxy kind {kind!r}")
    return proxy_references(K, labels, alpha, beta)[kind]


def gram_pair_sum_reference(feats, labels, kind, weights, shift=0.0):
    """w_neg, w_same and w_diag times the exact (``math.fsum``) sums of
    f(k - shift), f in {identity, square, exp}, over the inter-class
    pairs, the intra-class pairs (diagonal included) and the diagonal of
    the gram matrix k = feats feats^T, whose rows are formed one at a
    time."""
    f = {"identity": lambda t: t, "square": lambda t: t * t,
         "exp": np.exp}[kind]
    feats = np.asarray(feats, dtype=np.float64)
    labels = np.asarray(labels)
    terms = []
    for i in range(labels.shape[0]):
        mapped = f(feats @ feats[i] - shift)
        same = labels == labels[i]
        terms += (weights[0] * mapped[~same]).tolist()
        terms += (weights[1] * mapped[same]).tolist()
        terms.append(weights[2] * mapped[i])
    return math.fsum(terms)


def masked_chain_reference(K, neg_mask, kind, beta=0.0):
    """The graph the negative-only proxies built before ``ad.pair_sum``:
    ``masked_sum(exp(K), neg_mask)`` for kind "exp" and
    ``masked_sum(square(K - beta), neg_mask)`` for kind "square".  Unlike
    the rest of this module it is made of the package's own graph ops,
    since it pins down the bits a fused op must keep."""
    import modkernel.autodiff as ad
    if kind == "exp":
        return ad.masked_sum(ad.exp(K), neg_mask)
    return ad.masked_sum(ad.square(K - beta), neg_mask)


def topological_order_reference(root):
    """Nodes reachable from ``root`` through parents that require
    gradients, parents first: the stack-based walk that fixes the order in
    which backward passes accumulate gradients.  It reads only the
    ``_parents`` and ``requires_grad`` attributes of the nodes."""
    order = []
    visited = set()
    stack = [(root, False)]
    while stack:
        node, expanded = stack.pop()
        if expanded:
            order.append(node)
            continue
        if id(node) in visited:
            continue
        visited.add(id(node))
        stack.append((node, True))
        for parent in node._parents:
            if parent.requires_grad and id(parent) not in visited:
                stack.append((parent, False))
    return order


def _softplus(z):
    z = np.asarray(z, dtype=np.float64)
    return np.maximum(z, 0.0) + np.log1p(np.exp(-np.abs(z)))


def loss_terms_reference(kind):
    """(ell_plus, ell_minus) of a built-in decomposable loss, as numpy
    functions of a score array written straight from their formulas."""
    return {
        "xe2": (lambda t: _softplus(-np.asarray(t, float)),
                lambda t: _softplus(np.asarray(t, float))),
        "tanh-mse": (lambda t: (1.0 - np.tanh(t)) ** 2,
                     lambda t: (1.0 + np.tanh(t)) ** 2),
        "hinge": (lambda t: np.maximum(0.0, 1.0 - np.asarray(t, float)),
                  lambda t: np.maximum(0.0, 1.0 + np.asarray(t, float))),
    }[kind]


def central_difference(f, x0, step=1e-5):
    """Gradient of scalar f at x0 (flat array in, flat array out)."""
    x0 = np.asarray(x0, dtype=np.float64)
    grad = np.zeros_like(x0)
    flat = x0.ravel()
    for i in range(flat.size):
        bump = np.zeros_like(flat)
        bump[i] = step
        hi = f((flat + bump).reshape(x0.shape))
        lo = f((flat - bump).reshape(x0.shape))
        grad.ravel()[i] = (hi - lo) / (2.0 * step)
    return grad


def jacobi_eigenvalues(S, sweeps=100, tol=1e-12):
    """Eigenvalues of a small symmetric matrix by cyclic Jacobi rotations."""
    A = np.asarray(S, dtype=np.float64).copy()
    n = A.shape[0]
    for _ in range(sweeps):
        off = 0.0
        for p in range(n - 1):
            for q in range(p + 1, n):
                off = max(off, abs(A[p, q]))
        if off < tol:
            break
        for p in range(n - 1):
            for q in range(p + 1, n):
                if abs(A[p, q]) < tol:
                    continue
                theta = 0.5 * np.arctan2(2.0 * A[p, q], A[q, q] - A[p, p])
                c, s = np.cos(theta), np.sin(theta)
                J = np.eye(n)
                J[p, p] = J[q, q] = c
                J[p, q] = s
                J[q, p] = -s
                A = J.T @ A @ J
    return np.sort(np.diag(A))


def spearman_from_ranks(ranks_a, ranks_b):
    """Classic 1 - 6*sum(d^2)/(n(n^2-1)) for tie-free rankings."""
    ra = np.asarray(ranks_a, dtype=np.float64)
    rb = np.asarray(ranks_b, dtype=np.float64)
    n = ra.shape[0]
    d2 = float(((ra - rb) ** 2).sum())
    return 1.0 - 6.0 * d2 / (n * (n * n - 1))


def nearest_centroid_accuracy(X_train, y_train, X_test, y_test):
    classes = np.unique(y_train)
    centroids = np.stack([X_train[y_train == c].mean(axis=0) for c in classes])
    d = ((X_test[:, None, :] - centroids[None, :, :]) ** 2).sum(axis=2)
    pred = classes[d.argmin(axis=1)]
    return float((pred == y_test).mean())


def average_ranks_reference(values):
    """1-based ranks with ties sharing their mean rank, by a walk over the
    stably sorted values; NaN equals nothing, so each NaN ranks alone."""
    values = np.asarray(values, dtype=np.float64)
    order = np.argsort(values, kind="stable")
    ranks = np.empty(values.shape[0])
    i = 0
    while i < values.shape[0]:
        j = i
        while j + 1 < values.shape[0] and values[order[j + 1]] == values[order[i]]:
            j += 1
        ranks[order[i:j + 1]] = (i + j) / 2.0 + 1.0
        i = j + 1
    return ranks


def one_head_stage_two(feats_train, y_train, feats_test, y_test, width, cfg):
    """One cross-entropy output head of ``width`` logits on n-by-d link
    features, fitted by a plain 2-D loop: the seed-derived init and batch
    order, momentum SGD over the schedule, and a stop once the full-train
    loss has failed to improve by ``plateau_tol`` for ``plateau_patience``
    epochs in a row.  Returns (trace rows, W, b)."""
    from modkernel import autodiff as ad

    def derived_rng(label):
        return np.random.default_rng(
            np.random.SeedSequence([cfg.seed, zlib.crc32(label.encode())]))

    def accuracy(logits, labels):
        return float((logits.argmax(axis=1) == labels).mean())

    dim = feats_train.shape[1]
    init = derived_rng("output-init")
    bound = 1.0 / np.sqrt(dim)
    W = ad.Tensor(init.uniform(-bound, bound, (dim, width)), requires_grad=True)
    b = ad.Tensor(init.uniform(-bound, bound, width), requires_grad=True)
    opt = ad.SgdMomentum([W, b], cfg.lr_schedule[0][0], cfg.momentum)
    order_rng = derived_rng("output-batches")
    rows, best, stale, done = [], np.inf, 0, 0
    n = feats_train.shape[0]
    for lr, epochs in cfg.lr_schedule:
        for _ in range(epochs):
            opt.learning_rate = lr
            order = order_rng.permutation(n)
            for start in range(0, n, cfg.batch_size):
                idx = order[start:start + cfg.batch_size]
                loss = ad.cross_entropy_logits(
                    ad.affine(ad.constant(feats_train[idx]), W, b), y_train[idx])
                opt.zero_grad()
                ad.backward(loss)
                opt.step()
            done += 1
            logits = ad.affine(ad.constant(feats_train), W, b)
            full = ad.cross_entropy_logits(logits, y_train).item()
            stale = stale + 1 if best - full < cfg.plateau_tol else 0
            best = min(best, full)
            stop = stale >= cfg.plateau_patience
            if stop or done % cfg.trace_every == 0 or done == cfg.total_epochs:
                test_logits = feats_test @ W.data + b.data
                rows.append({"stage": "output", "epoch": done, "lr": lr,
                             "objective": full,
                             "train_accuracy": accuracy(logits.data, y_train),
                             "test_accuracy": accuracy(test_logits, y_test),
                             "resamples": 0})
            if stop:
                return rows, W.data, b.data
    return rows, W.data, b.data


# One small config per experiment kind.  Criterion 10 reruns each and
# compares the bytes; tools/artifact_diff.py runs them at two revisions.
SMALL_CONFIGS = {
    "lemma-suite": {
        "experiment": "lemma-suite", "lemma": {"instances": 300, "seed": 5},
    },
    "theorem-oracle": {
        "experiment": "theorem-oracle",
        "theorem": {"instances": ["two-point-hinge-1d"]},
    },
    "sanity-dynamics": {
        "experiment": "sanity-dynamics",
        "dataset": {"kind": "gaussian-blobs", "n": 64, "d": 4,
                    "num_classes": 2, "seed": 3, "split_fraction": 0.75},
        "architecture": {"hidden_widths": [8], "latent_dim": 2},
        "train": {"batch_size": 16, "lr_schedule": [[0.05, 4]], "seed": 1,
                  "proxy": "nmse-neo"},
    },
    "modular-vs-e2e": {
        "experiment": "modular-vs-e2e",
        "dataset": {"kind": "gaussian-blobs", "n": 64, "d": 4,
                    "num_classes": 2, "seed": 3, "split_fraction": 1.0},
        "architecture": {"hidden_widths": [8], "latent_dim": 2},
        "train": {"batch_size": 16, "lr_schedule": [[0.05, 4]], "seed": 1,
                  "proxy": "nmse-neo"},
    },
    "proxy-sweep": {
        "experiment": "proxy-sweep",
        "dataset": {"kind": "gaussian-blobs", "n": 64, "d": 4,
                    "num_classes": 2, "seed": 3, "split_fraction": 0.75},
        "architecture": {"hidden_widths": [8], "latent_dim": 2},
        "train": {"batch_size": 16, "lr_schedule": [[0.05, 4]], "seed": 1,
                  "proxy": "nmse-neo"},
        "sweep": {"checkpoint_epochs": [0, 2, 4]},
    },
    "label-efficiency": {
        "experiment": "label-efficiency",
        "dataset": {"kind": "gaussian-blobs", "n": 80, "d": 4,
                    "num_classes": 2, "seed": 3, "split_fraction": 0.75},
        "architecture": {"hidden_widths": [8], "latent_dim": 2},
        "train": {"batch_size": 16, "lr_schedule": [[0.05, 4]], "seed": 1,
                  "proxy": "nmse-neo"},
        "label_efficiency": {"budgets": [2, 10], "balanced": True,
                             "seed": 2},
    },
    "transferability": {
        "experiment": "transferability",
        "dataset": {"kind": "gaussian-blobs", "n": 240, "d": 6,
                    "num_classes": 4, "seed": 3, "split_fraction": 0.75},
        "architecture": {"hidden_widths": [8], "latent_dim": 2},
        "train": {"batch_size": 16, "lr_schedule": [[0.02, 6]], "seed": 1,
                  "proxy": "nmse-neo"},
        "transfer": {"source_tasks": [[0, 1], [2, 3], [1, 2]],
                     "target_task": [0, 1],
                     "subsample_fraction": 0.5, "seed": 4},
    },
}
