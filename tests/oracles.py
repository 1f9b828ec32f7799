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


def proxy_reference(kind, K, labels, alpha, beta):
    """One of the seven pairwise proxies by its textbook formula, looping
    over the ordered pairs: an explicit ideal kernel (alpha on equal labels
    and the diagonal, beta elsewhere) for the full family and an explicit
    strict upper triangle for utal."""
    K = np.asarray(K, dtype=np.float64)
    n = len(labels)
    pairs = [(i, j) for i in range(n) for j in range(n)]
    target = {(i, j): alpha if labels[i] == labels[j] else beta
              for i, j in pairs}
    neg = [(i, j) for i, j in pairs if labels[i] != labels[j]]
    pos = [(i, j) for i, j in pairs if i != j and labels[i] == labels[j]]
    upper = [(i, j) for i, j in pairs if i < j]

    def total(f, over):
        return math.fsum(f(K[i, j], target[i, j]) for i, j in over)

    def cosine(over):
        kt = total(lambda k, t: k * t, over)
        kk = total(lambda k, t: k * k, over)
        tt = total(lambda k, t: t * t, over)
        return kt / math.sqrt(kk * tt)

    if kind == "al-neo":
        return (beta * total(lambda k, t: k, neg)
                / (abs(beta) * len(neg)
                   * math.sqrt(total(lambda k, t: k * k, neg))))
    if kind == "cts-neo":
        return -total(lambda k, t: math.exp(k), neg) / len(neg)
    if kind == "nmse-neo":
        return -total(lambda k, t: (k - beta) ** 2, neg) / len(neg)
    if kind == "al":
        return cosine(pairs)
    if kind == "utal":
        return cosine(upper)
    if kind == "cts":
        return (total(lambda k, t: math.exp(k), pos)
                / total(lambda k, t: math.exp(k), pos + neg))
    if kind == "nmse":
        return -total(lambda k, t: (k - t) ** 2, pairs) / (n * n)
    raise ValueError(f"unknown proxy kind {kind!r}")


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
