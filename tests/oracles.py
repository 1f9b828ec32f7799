"""Independent reference implementations the tests check the library against.

Everything here is deliberately naive (explicit loops, textbook formulas)
and shares no code with the package.
"""

import math

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


def naive_patch_extract(X, phi, h, w, ci, cj):
    """Receptive-field extraction by raw index arithmetic."""
    H, W, C = X.shape
    r0, c0 = ci - h // 2, cj - w // 2
    values = []
    for c in range(C):
        for dr in range(h):
            for dc in range(w):
                values.append(phi(X[r0 + dr, c0 + dc, c]))
    return np.asarray(values)


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
