"""Minimal reverse-mode automatic differentiation over dense float64 tensors.

The computation graph is implicit: every operation returns a new ``Tensor``
that remembers its parents and a backward rule.  ``backward(loss)`` walks the
graph once in reverse topological order and accumulates gradients with ``+=``
into every tensor that requires them.  Gradients are never zeroed implicitly;
call ``zero_gradients`` between backward passes.

The elementwise nodes are built by ``_binary`` and ``_unary`` from each
op's value and local gradient; ``matmul``, ``affine``, ``pair_sum``,
``unit_normalize`` and ``cross_entropy_logits`` write their own rules.

Graph construction and backward are single-threaded per model instance.
Distinct models may live on distinct threads; tensors can be handed between
threads whenever no backward pass is in flight.
"""

from __future__ import annotations

import numpy as np

from .errors import ContractError, DimensionError


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

def _binary(name: str, a: Tensor, b: Tensor, value, grad_a,
            grad_b) -> Tensor:
    """The node of the ufunc ``value`` on ``a`` and ``b`` of equal shapes,
    or one of size 1, whose gradient is summed down.  ``grad_a(g)`` and
    ``grad_b(g)`` are the operands' gradients at the node's gradient g; None
    passes g through, copied on its first accumulation."""
    if a.data.shape != b.data.shape and a.data.size != 1 and b.data.size != 1:
        raise DimensionError(f"{name}: {a.shape} vs {b.shape}")

    def rule(g):
        for t, grad in ((a, grad_a), (b, grad_b)):
            if t.requires_grad:
                local = _unbroadcast(g if grad is None else grad(g),
                                     t.data.shape)
                _accumulate(t, np.array(local) if local is g and t.grad is None
                            else local)

    return _make(value(a.data, b.data), (a, b), rule)


def _unary(x: Tensor, value: np.ndarray, grad) -> Tensor:
    """The node of an op on ``x`` alone; ``grad(g)``, a new array, is the
    gradient of ``x`` at the node's gradient g."""
    return _make(value, (x,), lambda g: _accumulate(x, grad(g)))


def add(a: Tensor, b: Tensor) -> Tensor:
    """Elementwise sum; either operand may be a scalar.  A bias row goes
    through ``affine``."""
    return _binary("add", a, b, np.add, None, None)


def sub(a: Tensor, b: Tensor) -> Tensor:
    return _binary("sub", a, b, np.subtract, None,
                   lambda g: -_unbroadcast(g, b.data.shape))


def neg(a: Tensor) -> Tensor:
    return _unary(a, -a.data, np.negative)


def mul(a: Tensor, b: Tensor) -> Tensor:
    """Elementwise product; either operand may be a scalar."""
    return _binary("mul", a, b, np.multiply,
                   lambda g: g * b.data, lambda g: g * a.data)


def div(a: Tensor, b: Tensor) -> Tensor:
    return _binary("div", a, b, np.divide, lambda g: g / b.data,
                   lambda g: -g * a.data / (b.data * b.data))


# Rows of 2 to this many entries are reduced one column at a time from 128
# rows per column on, and broadcast from 512; below that numpy's one call
# per row costs less (2-vCPU host, numpy 2.4.6).  numpy's add.reduce sums 8
# or more entries pairwise.
NARROW_WIDTH = 7


def _rowwise(ufunc, x: np.ndarray, y: np.ndarray | None = None,
             out: np.ndarray | None = None) -> np.ndarray:
    """``ufunc.reduce(x, axis=-1, keepdims=True)`` (add or maximum) when
    ``y`` is None, else ``ufunc(x, y, out=out)`` for a ``y`` that is a
    column or a row of x, with numpy's bits.

    numpy makes one inner-loop call per row along a short last axis; for 2
    to ``NARROW_WIDTH`` entries and enough rows this makes one per column.
    numpy sums fewer than 8 entries in order from +0.0, (((+0.0 + x0) +
    x1) + ...), as the column sum does, so a row of -0.0 sums to +0.0.  A
    column maximum is numpy's on every row without NaN, and NaN on the
    others, with a sign bit that may differ.
    """
    width = x.shape[-1]
    if not (2 <= width <= NARROW_WIDTH
            and x.size >= (128 if y is None else 512) * width * width):
        return (ufunc.reduce(x, axis=-1, keepdims=True) if y is None
                else ufunc(x, y, out=out))
    if y is None:
        acc = x[..., :1] + 0.0 if ufunc is np.add else x[..., :1].copy()
        for j in range(1, width):
            ufunc(acc, x[..., j:j + 1], out=acc)
        return acc
    out = np.empty_like(x) if out is None else out
    for j in range(width):  # a column y has one entry per row
        ufunc(x[..., j], y[..., j % y.shape[-1]], out=out[..., j])
    return out


def _unbroadcast(grad: np.ndarray, shape: tuple) -> np.ndarray:
    """Sum a gradient down to ``shape`` after a scalar broadcast."""
    return grad if grad.shape == shape else np.asarray(grad.sum()).reshape(shape)


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
    """x @ x.T for an n-by-d x, or for each slice of a K-by-n-by-d stack;
    the gradient g @ x + (x.T @ g).T has the bits of a matmul of x with
    its transpose."""
    if x.data.ndim not in (2, 3):
        raise DimensionError(f"gram expects n-by-d or K-by-n-by-d, got {x.shape}")
    xd = x.data
    xt = xd.swapaxes(-1, -2)
    return _unary(x, xd @ xt, lambda g: g @ xd + (xt @ g).swapaxes(-1, -2))


def affine(x: Tensor, W: Tensor, b: Tensor, kind: str | None = None) -> Tensor:
    """x @ W + b for x: n-by-d_in, W: d_in-by-d_out, b: length d_out; with
    ``kind``, the bits of ``elementwise(affine(x, W, b), kind)`` in one node.

    A leading stack axis of K on all three (K-by-n-by-d_in, K-by-d_in-by-d_out,
    K-by-d_out) gives K independent maps in one node; each slice of the
    value and the gradients has the bits of its 2-D node when d_in and
    d_out are at least 2.
    """
    xd, Wd, bd = x.data, W.data, b.data
    stack = xd.shape[:-2]
    if (xd.ndim not in (2, 3) or bd.ndim != xd.ndim - 1
            or bd.shape[:-1] != stack
            or Wd.shape != stack + (xd.shape[-1], bd.shape[-1])):
        raise DimensionError(
            f"affine: x{x.shape}, W{W.shape}, b{b.shape} do not conform")
    # One array per layer: the bias and the nonlinearity go into the product.
    out_data = xd @ Wd
    _rowwise(np.add, out_data, bd[..., None, :], out=out_data)
    if kind is not None:
        forward, derivative = _elementwise_pair(kind)
        forward(out_data, out=out_data)

    def rule(g):
        if kind is not None:
            g = g * derivative(out_data)
        if x.requires_grad:
            _accumulate(x, g @ Wd.swapaxes(-1, -2))
        if W.requires_grad:
            _accumulate(W, xd.swapaxes(-1, -2) @ g)
        if b.requires_grad:
            _accumulate(b, np.add.reduce(g, axis=-2))

    return _make(out_data, (x, W, b), rule)


def _sigmoid(z: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
    if out is None:
        out = np.empty_like(z)
    pos = z >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-z[pos]))
    ez = np.exp(z[~pos])
    out[~pos] = ez / (1.0 + ez)
    return out


# kind -> (forward map, derivative as a function of the output).  Each
# forward map takes an ``out=`` buffer, which may be its input.
_ELEMENTWISE = {
    "relu": (lambda z, out=None: np.maximum(z, 0.0, out=out), lambda y: y > 0),
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
    return _unary(x, out_data, lambda g: g * derivative(out_data))


def _elementwise_pair(kind: str) -> tuple:
    try:
        return _ELEMENTWISE[kind]
    except KeyError:
        raise ContractError(f"unsupported elementwise kind: {kind!r}") from None


def relu(x: Tensor) -> Tensor:
    return elementwise(x, "relu")


def tanh(x: Tensor) -> Tensor:
    return elementwise(x, "tanh")


def exp(x: Tensor) -> Tensor:
    out_data = np.exp(x.data)
    return _unary(x, out_data, lambda g: g * out_data)


def sqrt(x: Tensor) -> Tensor:
    out_data = np.sqrt(x.data)
    return _unary(x, out_data, lambda g: g * 0.5 / out_data)


def square(x: Tensor) -> Tensor:
    return _unary(x, x.data * x.data, lambda g: g * 2.0 * x.data)


def softplus(x: Tensor) -> Tensor:
    """ln(1 + e^x), computed without overflow for large |x|.  Its
    derivative, the sigmoid, is built inside the backward rule."""
    out_data = np.maximum(x.data, 0.0) + np.log1p(np.exp(-np.abs(x.data)))
    return _unary(x, out_data, lambda g: g * _sigmoid(x.data))


def tensor_sum(x: Tensor) -> Tensor:
    return _unary(x, np.asarray(x.data.sum()),
                  lambda g: np.full(x.data.shape, g))


def masked_sum(x: Tensor, mask: np.ndarray) -> Tensor:
    """Sum of the entries of ``x`` where the boolean ``mask`` is set; for
    an ``x`` with one more leading (stack) axis than the mask, one sum per
    slice.

    The value and gradient of each slice are, bit for bit, those of
    ``tensor_sum(mul(x, constant(mask)))`` on it, with no float copy of
    the mask.
    """
    stack = x.data.shape[:x.data.ndim - mask.ndim]
    if len(stack) > 1 or x.data.shape[len(stack):] != mask.shape:
        raise DimensionError(f"masked_sum: {x.shape} vs mask {mask.shape}")
    out_data = np.multiply(x.data, mask).sum(axis=tuple(range(len(stack),
                                                              x.data.ndim)))
    return _unary(x, out_data, lambda g: np.multiply(
        g.reshape(stack + (1,) * mask.ndim), mask))


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


def weighted_pair_sum(weights: tuple, sums) -> float:
    """w_neg, w_same and w_diag times the (inter-class, intra-class,
    diagonal) ``sums``, the zero weights skipped."""
    return sum(w * s for w, s in zip(weights, sums) if w)


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
    A K-by-n-by-n stack with K-by-n class indices gives one sum per slice,
    each with the bits of its 2-D node.

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
    n, stack = classes.shape[-1], classes.shape[:-1]
    if xd.shape != classes.shape + (n,) or len(stack) > 1:
        raise DimensionError(f"pair_sum: {x.shape} vs classes {classes.shape}")
    _check_pair_map(kind)
    w_neg, w_same, w_diag = weights
    same = fx = None
    if n <= PAIR_SUM_BLOCK_ROWS:
        same = classes[..., :, None] == classes[..., None, :]
        fx = _pair_map(xd, kind, shift)
        sums = (np.multiply(fx, ~same).sum(axis=(-2, -1)) if w_neg else 0.0,
                np.multiply(fx, same).sum(axis=(-2, -1)) if w_same else 0.0,
                np.trace(fx, axis1=-2, axis2=-1) if w_diag else 0.0)
    else:
        sums = np.transpose([_blocked_pair_sums(
            c, kind, shift, lambda i0, out, m=m: m[i0:i0 + out.shape[0]])
            for m, c in zip(xd.reshape(-1, n, n), classes.reshape(-1, n))]
        ).reshape((3,) + stack)
    out_data = weighted_pair_sum(weights, sums)
    fx = fx if kind == "exp" else None  # only e^k's backward reads it

    def rule(g):
        mask = (same if same is not None
                else classes[..., :, None] == classes[..., None, :])
        g_each = g[..., None, None]  # one value per slice
        # np.where's bits in a fraction of its time on a stack: a same-class
        # g * w_same = +-0.0 is 0.0 * (g * w_neg) for w_neg of its sign.
        if w_same == 0.0 and np.signbit(w_same) == np.signbit(w_neg):
            grad = np.multiply(~mask, g_each * w_neg)
        else:
            grad = np.where(mask, g_each * w_same, g_each * w_neg)
        if w_diag:
            grad.reshape(stack + (n * n,))[..., ::n + 1] += g_each[..., 0] * w_diag
        if kind == "square":
            grad *= 2.0
            grad *= xd - shift if shift else xd
        elif kind == "exp":
            grad *= fx if fx is not None else _pair_map(xd, kind, shift)
        _accumulate(x, grad)

    return _make(np.asarray(out_data, dtype=np.float64), (x,), rule)


# Orders of the Jacobi-Anger series e^{cos t} = I_0(1) + 2 sum_{m >= 1}
# I_m(1) cos(m t) that the e^k sums read; I_17(1) < 3e-20 is below
# float64 resolution.
SERIES_ORDERS = 16


def _bessel_i_at_one(orders: int) -> np.ndarray:
    """I_m(1) for m = 0 .. orders, from the power series
    sum_k 1 / (k! (k + m)! 2^(2k + m)), of which 20 terms reach float64."""
    factorial = np.concatenate(([1.0], np.cumprod(np.arange(1.0, orders + 20))))
    k = np.arange(20)[:, None]
    m = np.arange(orders + 1)
    return (1.0 / (factorial[k] * factorial[k + m] * 2.0 ** (2 * k + m))).sum(
        axis=0)


_BESSEL_I = _bessel_i_at_one(SERIES_ORDERS)

# Series orders whose powers z^m and class sums are held at a time.
SERIES_BLOCK = 4

# The e^k series needs each feature row to be zero or of unit norm, this
# close to 1.
UNIT_NORM_TOLERANCE = 1e-12


def _class_pair_sums(class_sums: np.ndarray, axis: int = 0) -> np.ndarray:
    """For the class sums s of p row moments, real or complex, classes
    along ``axis`` (0, or 1 for p-by-C), the sums of Re(conj(s_c) s_c')
    over the ordered pairs of distinct classes (row 0) and of equal
    classes (row 1), per moment.  The distinct pairs are taken as
    2 sum_c Re(conj(s_c) sum_{c' < c} s_c'), never as a difference of two
    larger sums."""
    head = (slice(None),) * axis
    earlier = np.cumsum(class_sums[head + (slice(-1),)], axis=axis)
    conj = class_sums.conj()
    inter = (conj[head + (slice(1, None),)] * earlier).real
    return np.stack((2.0 * np.add.reduce(inter, axis=axis),
                     np.add.reduce((conj * class_sums).real, axis=axis)))


def _square_pair_sums(rows: np.ndarray, starts: np.ndarray) -> np.ndarray:
    """(inter-class, intra-class) sums of k^2 from the class gram matrices
    G_c, one row a of their entries (a, b >= a) at a time: k_ij^2 =
    <f_i f_i^T, f_j f_j^T>, whose off-diagonal entries count twice."""
    sums = np.zeros(2)
    for a in range(rows.shape[1]):
        pairs = _class_pair_sums(np.add.reduceat(
            _rowwise(np.multiply, rows[:, a:], rows[:, a:a + 1]), starts))
        sums += pairs[:, 0] + 2.0 * pairs[:, 1:].sum(axis=1)
    return sums


def _series_pair_sums(rows: np.ndarray, starts: np.ndarray,
                      counts: np.ndarray, unit: np.ndarray) -> np.ndarray:
    """(inter-class, intra-class) sums of e^k for rows of at most two
    columns, each zero or a unit vector z = e^{i t}, by the Jacobi-Anger
    series: a pair of unit rows has e^{cos(t_i - t_j)} = I_0(1) + 2 sum_m
    I_m(1) Re(conj(z_i^m) z_j^m), and a pair with a zero row e^0 = 1.
    The powers z^m = z^{m-1} z of ``SERIES_BLOCK`` orders fill the rows of
    one reused buffer and are class-summed in one call."""
    z = rows[:, 0] + (1j * rows[:, 1] if rows.shape[1] == 2 else 0j)
    unit_pairs = _class_pair_sums(np.add.reduceat(unit, starts)[:, None])[:, 0]
    all_pairs = _class_pair_sums(counts[:, None].astype(np.float64))[:, 0]
    sums = _BESSEL_I[0] * unit_pairs + (all_pairs - unit_pairs)
    powers = np.empty((SERIES_BLOCK, z.shape[0]), dtype=z.dtype)
    for m0 in range(1, SERIES_ORDERS + 1, SERIES_BLOCK):
        block = powers[:SERIES_ORDERS + 1 - m0]
        if m0 == 1:
            block[0] = z
        else:  # z^(m0 - 1) is the last row of the previous, full block
            np.multiply(powers[-1], z, out=block[0])
        for j in range(1, block.shape[0]):
            np.multiply(block[j - 1], z, out=block[j])
        pairs = _class_pair_sums(np.add.reduceat(block, starts, axis=1), 1)
        for term in ((2.0 * _BESSEL_I[m0:m0 + block.shape[0]]) * pairs).T:
            sums += term
    return sums


def _series_applies(width: int, sq_norms: np.ndarray) -> bool:
    norms = np.sqrt(sq_norms)
    return width in (1, 2) and bool(np.all(
        (norms == 0.0) | (np.abs(norms - 1.0) <= UNIT_NORM_TOLERANCE)))


def gram_pair_sums(feats: np.ndarray, classes: np.ndarray,
                   order: np.ndarray, kind: str = "identity",
                   shift: float = 0.0) -> tuple:
    """(inter-class, intra-class, diagonal) sums of f(k - shift), f in
    ``PAIR_MAPS``, over the gram matrix k = feats @ feats.T of n-by-d
    features, forward only and without its rows.

    With the rows grouped by class in ``order``, the stable order of
    ``classes`` (a stable argsort), s_c the sum of class c's rows
    and G_c their gram matrix F_c^T F_c, the pairs of classes c and c'
    sum k to <s_c, s_c'> and k^2 to <G_c, G_c'>; k - shift and
    (k - shift)^2 expand into those and the pair counts.  For e^k, rows
    of at most two columns that are zero or of unit norm follow the
    Jacobi-Anger series in ``SERIES_ORDERS`` class sums of z^m.  The inter-class sums add up
    each class against the classes before it, so an inter-class set of
    exactly orthogonal rows sums k^2 to exactly 0.  The cost is O(n d^2),
    or O(n) per series order, in arrays of O(n d) floats, or for the
    series O(n + C) per order of a block, for C classes.

    e^k of wider rows, or of a row of another norm, falls back to the
    blocked reader, whose buffer takes one block of features times the
    transpose of all of them.
    """
    feats = np.asarray(feats, dtype=np.float64)
    n = classes.shape[0]
    if feats.ndim != 2 or feats.shape[0] != n or n < 1:
        raise DimensionError(
            f"gram_pair_sums: features {feats.shape} vs {n} class indices")
    _check_pair_map(kind)
    sq_norms = _rowwise(np.add, feats * feats)[:, 0]
    if kind == "exp" and not _series_applies(feats.shape[1], sq_norms):
        return tuple(_blocked_pair_sums(
            classes, kind, shift, lambda i0, out: np.matmul(
                feats[i0:i0 + out.shape[0]], feats.T, out=out)))
    counts = np.bincount(classes)
    counts = counts[counts > 0]  # reduceat reads an empty run as one row
    starts = np.cumsum(counts) - counts
    rows = feats.take(order, axis=0)
    if kind == "exp":
        sums = _series_pair_sums(rows, starts, counts, (sq_norms.take(
            order) != 0.0).astype(np.float64))
        if shift:
            sums *= np.exp(-shift)
    elif kind == "square" and not shift:
        sums = _square_pair_sums(rows, starts)
    else:
        linear = _class_pair_sums(np.add.reduceat(rows, starts)).sum(axis=1)
        same = float(counts @ counts)
        pair_counts = np.array([n * n - same, same])
        if kind == "identity":
            sums = linear - shift * pair_counts
        else:  # (k - shift)^2 = k^2 - 2 shift k + shift^2
            sums = (_square_pair_sums(rows, starts) - 2.0 * shift * linear
                    + shift * shift * pair_counts)
    return sums[0], sums[1], _pair_map(sq_norms, kind, shift).sum()


def unit_normalize(x: Tensor, epsilon: float = 1e-12,
                   kind: str | None = None) -> Tensor:
    """Divide each row by max(its Euclidean norm, epsilon).

    The epsilon floor keeps zero rows (reachable early in relu training)
    at zero instead of erroring.  With ``kind``, the bits of
    ``unit_normalize(elementwise(x, kind), epsilon)`` in one node.  By
    ``_rowwise``'s rule the norms have the bits of ``np.linalg.norm``, and
    each slice of a K-by-n-by-d stack the bits of its 2-D node.
    """
    if epsilon <= 0:
        raise ContractError("unit_normalize requires epsilon > 0")
    if x.data.ndim not in (2, 3):
        raise DimensionError(f"unit_normalize expects 2-D or 3-D input, got {x.shape}")
    if kind is None:
        t = x.data
    else:
        forward, derivative = _elementwise_pair(kind)
        t = forward(x.data)
    norms = np.sqrt(_rowwise(np.add, t * t))
    scale = np.maximum(norms, epsilon)
    # Only the backward reads t, so a forward-only node divides in place.
    out_data = _rowwise(np.divide, t, scale, out=None if kind is None
                        or x.requires_grad else t)

    def rule(g):
        # Above the floor: d(x/|x|) pulls out the radial component.
        # At or below the floor the map is linear with constant 1/epsilon.
        radial = _rowwise(np.add, g * out_data)
        gx = np.where(norms <= epsilon, g / epsilon, _rowwise(
            np.divide, g - _rowwise(np.multiply, out_data, radial), scale))
        _accumulate(x, gx if kind is None else gx * derivative(t))

    return _make(out_data, (x,), rule)


def cross_entropy_logits(logits: Tensor, labels: np.ndarray) -> Tensor:
    """Mean softmax cross-entropy of n-by-C logits against integer labels;
    for a K-by-n-by-C stack, one mean per slice against the same labels,
    each with the bits of its 2-D node.

    The softmax the backward rule needs is built inside it, so a
    forward-only pass never computes it.  Its row maxima, sums and
    quotients keep numpy's bits by ``_rowwise``'s rule.
    """
    ld = logits.data
    if ld.ndim not in (2, 3):
        raise DimensionError(
            f"cross_entropy_logits expects n-by-C or K-by-n-by-C, got {logits.shape}")
    labels = np.asarray(labels, dtype=np.int64)
    n = ld.shape[-2]
    if labels.shape != (n,):
        raise DimensionError(f"labels shape {labels.shape} does not match n={n}")
    # ufunc reductions give the bits of .max(), .sum() and .mean().
    row_max = _rowwise(np.maximum, ld)
    exps = np.exp(_rowwise(np.subtract, ld, row_max))
    row_sums = _rowwise(np.add, exps)
    lse = np.log(row_sums[..., 0]) + row_max[..., 0]
    # Each row's label entry, in every slice.
    pick = (slice(None),) * (ld.ndim - 2) + (np.arange(n), labels)
    out_data = np.add.reduce(lse - ld[pick], axis=-1) / n

    def rule(g):
        gz = _rowwise(np.divide, exps, row_sums)
        gz[pick] -= 1.0
        view = gz.T  # g holds one value per slice: the view's last axis
        view *= g
        gz /= n
        _accumulate(logits, gz)

    return _make(out_data, (logits,), rule)


# ---------------------------------------------------------------------------
# SGD with momentum
# ---------------------------------------------------------------------------

def sgd_step(params, grads, state: "SgdMomentum") -> None:
    """v <- momentum * v + grad; p <- p - learning_rate * v, in place, for
    each parameter and its velocity in ``state.velocity``."""
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
    """SGD with momentum over a parameter list, reading the gradients
    straight off the parameters; it holds the step hyperparameters and one
    velocity per parameter."""

    def __init__(self, params, learning_rate: float, momentum: float = 0.0):
        if not 0.0 <= momentum < 1.0:
            raise ContractError(f"momentum must be in [0, 1), got {momentum}")
        if learning_rate <= 0:
            raise ContractError("learning_rate must be positive")
        self.params = list(params)
        self.learning_rate = learning_rate
        self.momentum = momentum
        self.velocity = [np.zeros_like(p.data) for p in self.params]

    def step(self) -> None:
        sgd_step(self.params, [p.grad for p in self.params], self)

    def zero_grad(self) -> None:
        zero_gradients(self.params)

    def rows(self, run) -> "SgdMomentum":
        """The optimizer of the entries ``run`` of the leading (stack) axis:
        new leaves that view the parameters and views of the velocities."""
        sub = SgdMomentum([], self.learning_rate, self.momentum)
        sub.params = [Tensor(p.data[run], requires_grad=True)
                      for p in self.params]
        sub.velocity = [v[run] for v in self.velocity]
        return sub

    def select(self, index) -> None:
        """Keep the entries ``index`` of the leading (stack) axis of every
        parameter, with their gradients and velocities."""
        for p in self.params:
            p.data = p.data[index]
            p.grad = p.grad[index]
        self.velocity = [v[index] for v in self.velocity]
