"""Minimal reverse-mode automatic differentiation over dense float64 tensors.

The computation graph is implicit: every operation returns a new ``Tensor``
that remembers its parents and a backward rule.  ``backward(loss)`` walks the
graph once in reverse topological order and accumulates gradients with ``+=``
into every tensor that requires them.  Gradients are never zeroed implicitly;
call ``zero_gradients`` between backward passes.

Graph construction and backward are single-threaded per model instance.
Distinct models may live on distinct threads; tensors can be handed between
threads whenever no backward pass is in flight.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import ContractError, DimensionError

ArrayLike = "np.ndarray | list | tuple | float | int"


class Tensor:
    """Dense float64 array with an optional gradient accumulator.

    A tensor constructed with ``requires_grad=True`` (a trainable leaf)
    gets ``grad`` as zeros at once.  Interior nodes built by operations
    start with ``grad = None``; the first accumulation during ``backward``
    sets it to an array no other tensor holds.
    """

    __slots__ = ("data", "grad", "requires_grad", "_parents", "_backward")

    def __init__(self, data, requires_grad: bool = False,
                 _parents: tuple = (), _backward=None):
        arr = np.asarray(data, dtype=np.float64)
        self.data = arr
        self.requires_grad = bool(requires_grad)
        self.grad = np.zeros_like(arr) if self.requires_grad else None
        self._parents = _parents
        self._backward = _backward

    @property
    def shape(self) -> tuple:
        return self.data.shape

    @property
    def size(self) -> int:
        return self.data.size

    def item(self) -> float:
        if self.data.size != 1:
            raise DimensionError(f"item() on tensor of shape {self.shape}")
        return float(self.data.reshape(()))

    def zero_grad(self) -> None:
        if self.grad is not None:
            self.grad.fill(0.0)

    def __repr__(self) -> str:
        return f"Tensor(shape={self.shape}, requires_grad={self.requires_grad})"

    # Operator sugar; non-Tensor operands become constants.
    def __add__(self, other):
        return add(self, _lift(other))

    def __radd__(self, other):
        return add(_lift(other), self)

    def __sub__(self, other):
        return sub(self, _lift(other))

    def __rsub__(self, other):
        return sub(_lift(other), self)

    def __mul__(self, other):
        return mul(self, _lift(other))

    def __rmul__(self, other):
        return mul(_lift(other), self)

    def __truediv__(self, other):
        return div(self, _lift(other))

    def __neg__(self):
        return neg(self)

    def __matmul__(self, other):
        return matmul(self, _lift(other))


def _lift(value) -> Tensor:
    if isinstance(value, Tensor):
        return value
    return _make(np.asarray(value, dtype=np.float64), (), None)


def constant(value) -> Tensor:
    """A tensor that never receives gradients."""
    return Tensor(value)


_new_tensor = object.__new__


def _make(data, parents: tuple, backward_rule) -> Tensor:
    """The node holding an op's float64 result (a numpy scalar, which
    ufuncs return on 0-d arrays, becomes a 0-d array).  It keeps its
    parents and rule only if one of the parents requires gradients."""
    for p in parents:
        if p.requires_grad:
            break
    else:
        parents, backward_rule = (), None
    out = _new_tensor(Tensor)
    out.data = data if type(data) is np.ndarray else np.asarray(data)
    out.grad = None
    out.requires_grad = bool(parents)
    out._parents = parents
    out._backward = backward_rule
    return out


def _accumulate(t: Tensor, grad: np.ndarray) -> None:
    """Add ``grad`` into ``t.grad``.  ``grad`` must be an array the backward
    rule has just allocated: the first accumulation keeps it as ``t.grad``."""
    if not t.requires_grad:
        return
    if t.grad is None:
        t.grad = grad
    else:
        t.grad += grad


def _accumulate_view(t: Tensor, grad: np.ndarray) -> None:
    """``_accumulate`` for a gradient that may alias another buffer (the
    node's own gradient passed through, or a view of it): the first
    accumulation stores a copy."""
    if t.requires_grad and t.grad is None:
        grad = np.array(grad)
    _accumulate(t, grad)


def topological_order(root: Tensor) -> list[Tensor]:
    """Nodes reachable from ``root`` through parent links to tensors that
    require gradients, parents first.

    The returned list is the operation record of the graph: acyclic by
    construction, and a reverse traversal visits every node exactly once.
    Depth first, parents entered last to first; this order fixes the order
    in which gradients accumulate.
    """
    order: list[Tensor] = []
    visited = {root}
    stack = [(root, reversed(root._parents))]
    while stack:
        node, parents = stack[-1]
        for parent in parents:
            if parent.requires_grad and parent not in visited:
                visited.add(parent)
                if parent._parents:
                    stack.append((parent, reversed(parent._parents)))
                    break
                order.append(parent)
        else:
            stack.pop()
            order.append(node)
    return order


def backward(loss: Tensor) -> None:
    """Accumulate d(loss)/d(tensor) into every requires_grad tensor's grad."""
    if loss.data.size != 1:
        raise ContractError(
            f"backward requires a scalar loss, got shape {loss.shape}")
    if not loss.requires_grad:
        return
    order = topological_order(loss)
    if loss.grad is None:
        loss.grad = np.ones(loss.data.shape)
    else:
        loss.grad += 1.0
    for node in reversed(order):
        if node._backward is not None and node.grad is not None:
            node._backward(node.grad)


def zero_gradients(tensors) -> None:
    for t in tensors:
        t.zero_grad()


# ---------------------------------------------------------------------------
# operations
# ---------------------------------------------------------------------------

def add(a: Tensor, b: Tensor) -> Tensor:
    """Elementwise sum; also supports scalars and adding a length-d vector
    to each row of an n-by-d matrix (bias broadcast)."""
    bias_broadcast = (a.data.ndim == 2 and b.data.ndim == 1
                      and a.data.shape[1] == b.data.shape[0])
    if (not bias_broadcast and a.data.shape != b.data.shape
            and a.data.size != 1 and b.data.size != 1):
        raise DimensionError(f"add: {a.shape} vs {b.shape}")
    out_data = a.data + b.data

    def rule(g):
        if bias_broadcast:
            _accumulate_view(a, g)
            if b.requires_grad:
                _accumulate(b, g.sum(axis=0))
        else:
            _accumulate_view(a, _unbroadcast(g, a.data.shape))
            _accumulate_view(b, _unbroadcast(g, b.data.shape))

    return _make(out_data, (a, b), rule)


def sub(a: Tensor, b: Tensor) -> Tensor:
    if a.data.shape != b.data.shape and a.data.size != 1 and b.data.size != 1:
        raise DimensionError(f"sub: {a.shape} vs {b.shape}")
    out_data = a.data - b.data

    def rule(g):
        _accumulate_view(a, _unbroadcast(g, a.data.shape))
        if b.requires_grad:
            _accumulate(b, -_unbroadcast(g, b.data.shape))

    return _make(out_data, (a, b), rule)


def neg(a: Tensor) -> Tensor:
    def rule(g):
        _accumulate(a, -g)

    return _make(-a.data, (a,), rule)


def mul(a: Tensor, b: Tensor) -> Tensor:
    """Elementwise product; either operand may be a scalar."""
    if a.data.shape != b.data.shape and a.data.size != 1 and b.data.size != 1:
        raise DimensionError(f"mul: {a.shape} vs {b.shape}")
    out_data = a.data * b.data

    def rule(g):
        if a.requires_grad:
            _accumulate(a, _unbroadcast(g * b.data, a.data.shape))
        if b.requires_grad:
            _accumulate(b, _unbroadcast(g * a.data, b.data.shape))

    return _make(out_data, (a, b), rule)


def div(a: Tensor, b: Tensor) -> Tensor:
    if a.data.shape != b.data.shape and a.data.size != 1 and b.data.size != 1:
        raise DimensionError(f"div: {a.shape} vs {b.shape}")
    out_data = a.data / b.data

    def rule(g):
        if a.requires_grad:
            _accumulate(a, _unbroadcast(g / b.data, a.data.shape))
        if b.requires_grad:
            _accumulate(b, _unbroadcast(-g * a.data / (b.data * b.data),
                                        b.data.shape))

    return _make(out_data, (a, b), rule)


def _unbroadcast(grad: np.ndarray, shape: tuple) -> np.ndarray:
    """Sum a gradient down to ``shape`` after a scalar broadcast."""
    if grad.shape == shape:
        return grad
    return np.full(shape, grad.sum()) if shape == () else grad.sum().reshape(shape)


def matmul(a: Tensor, b: Tensor) -> Tensor:
    if a.data.ndim != 2 or b.data.ndim != 2 or a.data.shape[1] != b.data.shape[0]:
        raise DimensionError(f"matmul: {a.shape} @ {b.shape}")
    out_data = a.data @ b.data

    def rule(g):
        if a.requires_grad:
            _accumulate(a, g @ b.data.T)
        if b.requires_grad:
            _accumulate(b, a.data.T @ g)

    return _make(out_data, (a, b), rule)


def gram(x: Tensor) -> Tensor:
    """x @ x.T for an n-by-d x; the gradient g @ x + (x.T @ g).T has the
    bits of a matmul of x with its transpose."""
    if x.data.ndim != 2:
        raise DimensionError(f"gram expects an n-by-d matrix, got {x.shape}")
    xd = x.data

    def rule(g):
        grad = g @ xd
        grad += (xd.T @ g).T
        _accumulate(x, grad)

    return _make(xd @ xd.T, (x,), rule)


def affine(x: Tensor, W: Tensor, b: Tensor, kind: str | None = None) -> Tensor:
    """x @ W + b for x: n-by-d_in, W: d_in-by-d_out, b: length d_out; with
    ``kind``, the bits of ``elementwise(affine(x, W, b), kind)`` in one node."""
    xd, Wd, bd = x.data, W.data, b.data
    if (xd.ndim != 2 or Wd.ndim != 2 or bd.ndim != 1
            or xd.shape[1] != Wd.shape[0] or Wd.shape[1] != bd.shape[0]):
        raise DimensionError(
            f"affine: x{x.shape}, W{W.shape}, b{b.shape} do not conform")
    out_data = xd @ Wd + bd
    if kind is not None:
        forward, derivative = _elementwise_pair(kind)
        out_data = forward(out_data)

    def rule(g):
        if kind is not None:
            g = g * derivative(out_data)
        if x.requires_grad:
            _accumulate(x, g @ Wd.T)
        if W.requires_grad:
            _accumulate(W, xd.T @ g)
        if b.requires_grad:
            _accumulate(b, np.add.reduce(g, axis=0))

    return _make(out_data, (x, W, b), rule)


def _sigmoid(z: np.ndarray) -> np.ndarray:
    out = np.empty_like(z)
    pos = z >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-z[pos]))
    ez = np.exp(z[~pos])
    out[~pos] = ez / (1.0 + ez)
    return out


# kind -> (forward map, derivative as a function of the output).
_ELEMENTWISE = {
    "relu": (lambda z: np.maximum(z, 0.0), lambda y: y > 0),
    "tanh": (np.tanh, lambda y: 1.0 - y * y),
    "sigmoid": (_sigmoid, lambda y: y * (1.0 - y)),
}


def elementwise(x: Tensor, kind: str) -> Tensor:
    """Apply a named scalar nonlinearity entrywise.

    The relu derivative at exactly zero is taken to be zero.  The local
    derivative is built inside the backward rule, so a forward-only pass
    never computes it.
    """
    forward, derivative = _elementwise_pair(kind)
    out_data = forward(x.data)

    def rule(g):
        _accumulate(x, g * derivative(out_data))

    return _make(out_data, (x,), rule)


def _elementwise_pair(kind: str) -> tuple:
    try:
        return _ELEMENTWISE[kind]
    except KeyError:
        raise ContractError(f"unsupported elementwise kind: {kind!r}") from None


def relu(x: Tensor) -> Tensor:
    return elementwise(x, "relu")


def tanh(x: Tensor) -> Tensor:
    return elementwise(x, "tanh")


def sigmoid(x: Tensor) -> Tensor:
    return elementwise(x, "sigmoid")


def exp(x: Tensor) -> Tensor:
    out_data = np.exp(x.data)

    def rule(g):
        _accumulate(x, g * out_data)

    return _make(out_data, (x,), rule)


def log(x: Tensor) -> Tensor:
    out_data = np.log(x.data)

    def rule(g):
        _accumulate(x, g / x.data)

    return _make(out_data, (x,), rule)


def sqrt(x: Tensor) -> Tensor:
    out_data = np.sqrt(x.data)

    def rule(g):
        _accumulate(x, g * 0.5 / out_data)

    return _make(out_data, (x,), rule)


def square(x: Tensor) -> Tensor:
    def rule(g):
        _accumulate(x, g * 2.0 * x.data)

    return _make(x.data * x.data, (x,), rule)


def softplus(x: Tensor) -> Tensor:
    """ln(1 + e^x), computed without overflow for large |x|.  Its
    derivative, the sigmoid, is built inside the backward rule."""
    out_data = np.maximum(x.data, 0.0) + np.log1p(np.exp(-np.abs(x.data)))

    def rule(g):
        _accumulate(x, g * _sigmoid(x.data))

    return _make(out_data, (x,), rule)


def tensor_sum(x: Tensor) -> Tensor:
    out_data = np.asarray(x.data.sum())

    def rule(g):
        _accumulate(x, np.broadcast_to(g, x.data.shape).copy())

    return _make(out_data, (x,), rule)


# Rows per block when masked_sum forms its masked product.
MASKED_SUM_BLOCK_ROWS = 256


def masked_sum(x: Tensor, mask: np.ndarray) -> Tensor:
    """Sum of the entries of ``x`` where the boolean ``mask`` is set.

    The masked product is formed and summed one block of
    ``MASKED_SUM_BLOCK_ROWS`` rows at a time, so the forward pass holds no
    float temporary of the size of a large ``x``.  Up to that many rows,
    the value and gradient are, bit for bit, those of
    ``tensor_sum(mul(x, constant(mask)))``, with no float copy of the mask.
    """
    if mask.shape != x.data.shape:
        raise DimensionError(f"masked_sum: {x.shape} vs mask {mask.shape}")
    block = MASKED_SUM_BLOCK_ROWS
    total = 0.0
    for i in range(0, x.data.shape[0], block):
        total += np.multiply(x.data[i:i + block], mask[i:i + block]).sum()

    def rule(g):
        _accumulate(x, np.multiply(g, mask))

    return _make(total, (x,), rule)


# Rows per block when pair_sum maps and sums a large matrix.
PAIR_SUM_BLOCK_ROWS = 128

PAIR_MAPS = ("identity", "square", "exp")


def _pair_map(x: np.ndarray, kind: str, shift: float,
              out: np.ndarray | None = None) -> np.ndarray:
    """f(x - shift) for f in PAIR_MAPS, written into ``out`` (which may be
    x itself) when given, else into one new array of x's size.  The
    identity with no shift returns x."""
    if shift:
        x = out = np.subtract(x, shift, out=out)
    if kind == "square":
        return np.multiply(x, x, out=out)
    if kind == "exp":
        return np.exp(x, out=out)
    return x


def _class_sums(rows: np.ndarray, onehot: np.ndarray, classes: np.ndarray,
                diagonal_offset: int) -> tuple:
    """(inter-class, intra-class, diagonal) sums of a block of rows of a
    square matrix, whose diagonal starts at column ``diagonal_offset``."""
    per_class = rows @ onehot
    own = (np.arange(per_class.shape[0]), classes)
    same = per_class[own].sum()
    per_class[own] = 0.0
    return per_class.sum(), same, np.trace(rows, offset=diagonal_offset)


def _blocked_pair_sums(classes: np.ndarray, kind: str, shift: float,
                       rows) -> list:
    """(inter-class, intra-class, diagonal) sums of f(x - shift) over a
    square matrix x read ``PAIR_SUM_BLOCK_ROWS`` rows at a time.

    ``rows(i0, out)`` returns the rows of x from row i0 on, as many as
    ``out`` has: either a view of x or ``out`` filled with them.  ``out``
    is one buffer of a block of rows, reused for every block; the block is
    mapped into it in place and then meets the n-by-C one-hot class matrix
    in one matrix product.  Nothing of n-by-n size is allocated.
    """
    n = classes.shape[0]
    block = PAIR_SUM_BLOCK_ROWS
    onehot = np.zeros((n, int(classes.max()) + 1))
    onehot[np.arange(n), classes] = 1.0
    buffer = np.empty((min(block, n), n))
    sums = (0.0, 0.0, 0.0)
    for i0 in range(0, n, block):
        out = buffer[:n - i0]
        mapped = _pair_map(rows(i0, out), kind, shift, out)
        sums = [a + b for a, b in zip(sums, _class_sums(
            mapped, onehot, classes[i0:i0 + block], i0))]
    return sums


def _check_pair_map(kind: str) -> None:
    if kind not in PAIR_MAPS:
        raise ContractError(f"unsupported pair map: {kind!r}")


def pair_sum(x: Tensor, classes: np.ndarray, kind: str = "identity",
             weights: tuple = (1.0, 0.0, 0.0), shift: float = 0.0) -> Tensor:
    """Class-weighted sum of a map of a square matrix over its index pairs.

    With f(t) = kind(t - shift) and ``weights`` (w_neg, w_same, w_diag),
    the value is w_neg sum_{c_i != c_j} f(x_ij) + w_same sum_{c_i = c_j}
    f(x_ij) + w_diag sum_i f(x_ii) for the class indices ``classes``
    (0 .. C-1, one per row).  The same-class sum includes the diagonal.

    A matrix of at most ``PAIR_SUM_BLOCK_ROWS`` rows is summed through its
    boolean same-class mask: with weights (1, 0, 0), the value and the
    gradient have the bits of ``masked_sum`` of the mapped matrix over the
    inter-class mask.  A larger one is read by the blocked reader, which
    maps one block of rows at a time into one reused buffer, so the
    forward pass holds nothing of n-by-n size but x.  The backward pass
    weighs the same-class mask (kept from the forward pass for one block,
    built for more) and then applies f'.
    """
    xd = x.data
    n = classes.shape[0]
    if xd.shape != (n, n):
        raise DimensionError(f"pair_sum: {x.shape} vs {n} class indices")
    _check_pair_map(kind)
    w_neg, w_same, w_diag = weights
    same = fx = None
    if n <= PAIR_SUM_BLOCK_ROWS:
        same = classes[:, None] == classes[None, :]
        fx = _pair_map(xd, kind, shift)
        sums = (np.multiply(fx, ~same).sum() if w_neg else 0.0,
                np.multiply(fx, same).sum() if w_same else 0.0,
                np.trace(fx) if w_diag else 0.0)
    else:
        sums = _blocked_pair_sums(classes, kind, shift,
                                  lambda i0, out: xd[i0:i0 + out.shape[0]])
    out_data = sum(w * s for w, s in zip(weights, sums) if w)

    def rule(g):
        mask = same if same is not None else classes[:, None] == classes[None, :]
        grad = np.where(mask, g * w_same, g * w_neg)
        if w_diag:
            grad.flat[::n + 1] += g * w_diag
        if kind == "square":
            grad *= 2.0
            grad *= xd - shift if shift else xd
        elif kind == "exp":
            grad *= fx if fx is not None else _pair_map(xd, kind, shift)
        _accumulate(x, grad)

    return _make(np.float64(out_data), (x,), rule)


def gram_pair_sum(feats: np.ndarray, classes: np.ndarray,
                  kind: str = "identity", weights: tuple = (1.0, 0.0, 0.0),
                  shift: float = 0.0) -> Tensor:
    """``pair_sum`` of the gram matrix feats @ feats.T of n-by-d features,
    forward only, as a constant.

    Up to ``PAIR_SUM_BLOCK_ROWS`` rows it is ``pair_sum`` of the constant
    gram matrix, bit for bit.  A larger gram matrix is never formed: the
    blocked reader fills its buffer with the product of a block of
    features and the transpose of all of them, so the sums hold the
    features, one block of gram rows and the one-hot class matrix.
    """
    feats = np.asarray(feats, dtype=np.float64)
    n = classes.shape[0]
    if feats.ndim != 2 or feats.shape[0] != n:
        raise DimensionError(
            f"gram_pair_sum: features {feats.shape} vs {n} class indices")
    if n <= PAIR_SUM_BLOCK_ROWS:
        return pair_sum(constant(feats @ feats.T), classes, kind, weights,
                        shift)
    _check_pair_map(kind)
    sums = _blocked_pair_sums(classes, kind, shift, lambda i0, out: np.matmul(
        feats[i0:i0 + out.shape[0]], feats.T, out=out))
    return _make(np.float64(sum(w * s for w, s in zip(weights, sums) if w)),
                 (), None)


def unit_normalize(x: Tensor, epsilon: float = 1e-12,
                   kind: str | None = None) -> Tensor:
    """Divide each row by max(its Euclidean norm, epsilon).

    The epsilon floor keeps zero rows (reachable early in relu training)
    at zero instead of erroring.  With ``kind``, the bits of
    ``unit_normalize(elementwise(x, kind), epsilon)`` in one node.
    """
    if epsilon <= 0:
        raise ContractError("unit_normalize requires epsilon > 0")
    if x.data.ndim != 2:
        raise DimensionError(f"unit_normalize expects n-by-d input, got {x.shape}")
    if kind is None:
        t = x.data
    else:
        forward, derivative = _elementwise_pair(kind)
        t = forward(x.data)
    # The bits of np.linalg.norm(t, axis=1, keepdims=True), without its wrapper.
    norms = np.sqrt(np.add.reduce(t * t, axis=1, keepdims=True))
    scale = np.maximum(norms, epsilon)
    out_data = t / scale

    def rule(g):
        # Above the floor: d(x/|x|) pulls out the radial component.
        # At or below the floor the map is linear with constant 1/epsilon.
        radial = np.add.reduce(g * out_data, axis=1, keepdims=True)
        floored = norms <= epsilon
        gx = np.where(floored, g / epsilon, (g - out_data * radial) / scale)
        _accumulate(x, gx if kind is None else gx * derivative(t))

    return _make(out_data, (x,), rule)


def cross_entropy_logits(logits: Tensor, labels: np.ndarray) -> Tensor:
    """Mean softmax cross-entropy of n-by-C logits against integer labels.

    The softmax the backward rule needs is built inside it, so a
    forward-only pass never computes it.
    """
    if logits.data.ndim != 2:
        raise DimensionError(f"cross_entropy_logits expects n-by-C, got {logits.shape}")
    labels = np.asarray(labels, dtype=np.int64)
    n, C = logits.data.shape
    if labels.shape != (n,):
        raise DimensionError(f"labels shape {labels.shape} does not match n={n}")
    # ufunc reductions give the bits of .max(), .sum() and .mean().
    row_max = np.maximum.reduce(logits.data, axis=1, keepdims=True)
    exps = np.exp(logits.data - row_max)
    row_sums = np.add.reduce(exps, axis=1, keepdims=True)
    lse = np.log(row_sums[:, 0]) + row_max[:, 0]
    rows = np.arange(n)
    picked = logits.data[rows, labels]
    out_data = np.add.reduce(lse - picked) / n

    def rule(g):
        gz = exps / row_sums
        gz[rows, labels] -= 1.0
        _accumulate(logits, g * gz / n)

    return _make(out_data, (logits,), rule)


# ---------------------------------------------------------------------------
# SGD with momentum
# ---------------------------------------------------------------------------

@dataclass
class SgdMomentumState:
    """Per-parameter velocity plus the step hyperparameters.

    Update: v <- momentum * v + grad; p <- p - learning_rate * v.
    """

    learning_rate: float
    momentum: float = 0.0
    velocity: list = field(default_factory=list)

    @classmethod
    def for_params(cls, params, learning_rate: float,
                   momentum: float = 0.0) -> "SgdMomentumState":
        if not 0.0 <= momentum < 1.0:
            raise ContractError(f"momentum must be in [0, 1), got {momentum}")
        if learning_rate <= 0:
            raise ContractError("learning_rate must be positive")
        return cls(learning_rate=learning_rate, momentum=momentum,
                   velocity=[np.zeros_like(p.data) for p in params])


def sgd_step(params, grads, state: SgdMomentumState) -> None:
    if len(state.velocity) != len(params):
        raise ContractError("optimizer state does not match parameter list")
    momentum, learning_rate = state.momentum, state.learning_rate
    for p, g, v in zip(params, grads, state.velocity):
        data = p.data
        if v.shape != data.shape:
            raise ContractError("velocity shape does not match parameter")
        v *= momentum
        v += g
        data -= learning_rate * v


class SgdMomentum:
    """Convenience wrapper reading gradients straight off the parameters."""

    def __init__(self, params, learning_rate: float, momentum: float = 0.0):
        self.params = list(params)
        self.state = SgdMomentumState.for_params(
            self.params, learning_rate, momentum)

    @property
    def learning_rate(self) -> float:
        return self.state.learning_rate

    @learning_rate.setter
    def learning_rate(self, value: float) -> None:
        self.state.learning_rate = value

    def step(self) -> None:
        grads = [p.grad for p in self.params]
        sgd_step(self.params, grads, self.state)

    def zero_grad(self) -> None:
        zero_gradients(self.params)
