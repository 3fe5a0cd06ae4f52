"""Dense float64 tensors with reverse-mode automatic differentiation.

Define-by-run: every primitive records its parents and a vector-Jacobian
closure on the tensor it creates. Creation order is a valid topological
order, so the backward pass is a single reverse sweep over the recorded
sequence (the tape). Broadcasting is deliberately restricted to
scalar-with-anything and trailing-vector bias; every other shape mismatch
is an error so the gradient rules stay auditable.
"""

from __future__ import annotations

import itertools

import numpy as np

_SEQ = itertools.count()


class ShapeError(ValueError):
    """Operand shapes violate an operation's contract."""


class GraphError(RuntimeError):
    """Backward-pass contract violation (non-scalar root, repeated call)."""


def _as_array(x) -> np.ndarray:
    return np.asarray(x, dtype=np.float64)


def _check_elementwise(sa: tuple, sb: tuple, op: str) -> None:
    if sa == sb or sa == () or sb == ():
        return
    # trailing-vector bias: [..., d] with [d]
    if len(sb) == 1 and len(sa) > 1 and sa[-1] == sb[0]:
        return
    if len(sa) == 1 and len(sb) > 1 and sb[-1] == sa[0]:
        return
    # keepdims-reduction pattern: same rank, every extent equal or 1
    if len(sa) == len(sb) and all(a == b or a == 1 or b == 1 for a, b in zip(sa, sb)):
        return
    raise ShapeError(f"{op}: incompatible shapes {sa} and {sb}")


def _unbroadcast(g: np.ndarray, shape: tuple) -> np.ndarray:
    """Reduce an output gradient back to an operand's (smaller) shape."""
    if g.shape == shape:
        return g
    if shape == ():
        return np.asarray(g.sum())
    if len(shape) == 1 and g.ndim > 1:
        return g.reshape(-1, shape[0]).sum(axis=0)
    axes = tuple(i for i, (gs, ss) in enumerate(zip(g.shape, shape)) if ss == 1 and gs != 1)
    return g.sum(axis=axes, keepdims=True)


class Tensor:
    """A dense float64 array plus an optional gradient.

    Tensors produced by primitives carry vjp closures back to their
    parents; leaves created by the user carry none. Data and gradients
    are values: parameter updates rebind ``.data``, the backward sweep
    rebinds ``.grad``, and a ``.grad`` may be a read-only view another
    tensor shares, so nothing writes into either in place.
    """

    __slots__ = ("data", "grad", "requires_grad", "_vjps", "_seq", "_backward_done")

    def __init__(self, data, requires_grad: bool = False):
        self.data = _as_array(data)
        self.grad: np.ndarray | None = None
        self.requires_grad = bool(requires_grad)
        self._vjps: list = []
        self._seq = next(_SEQ)
        self._backward_done = False

    # -- basic introspection ------------------------------------------------

    @property
    def shape(self) -> tuple:
        return self.data.shape

    @property
    def ndim(self) -> int:
        return self.data.ndim

    @property
    def size(self) -> int:
        return self.data.size

    def item(self) -> float:
        if self.data.size != 1:
            raise ShapeError(f"item() needs a single element, shape is {self.shape}")
        return float(self.data.reshape(()))

    def __repr__(self) -> str:
        flag = ", requires_grad=True" if self.requires_grad else ""
        return f"Tensor(shape={self.shape}{flag})"

    # -- graph construction ---------------------------------------------------

    @staticmethod
    def _result(data: np.ndarray, vjps) -> "Tensor":
        out = Tensor(data)
        live = [(p, fn) for p, fn in vjps if p.requires_grad]
        if live:
            out._vjps = live
            out.requires_grad = True
        return out

    def backward(self) -> None:
        """Accumulate dL/dx on every reachable tensor, root must be scalar.

        A parent's first contribution becomes its ``.grad`` (copied to C
        order if it is a strided view); later ones are added out of place.
        A second call on the same root is rejected; rebuild the graph (or
        clear gradients and rerun the forward pass) instead of reusing it.
        """
        if self.data.size != 1:
            raise GraphError(f"backward root must be scalar, got shape {self.shape}")
        if self._backward_done:
            raise GraphError("backward already ran for this root; reset the graph first")
        self._backward_done = True
        tape = ComputationTape.trace(self)
        self.grad = np.ones_like(self.data)
        for node in reversed(tape.nodes):
            g = node.grad
            if g is None:
                continue
            for parent, fn in node._vjps:
                contrib = fn(g)
                if parent.grad is None:
                    parent.grad = contrib if contrib.flags.c_contiguous else contrib.copy()
                else:
                    parent.grad = parent.grad + contrib

    # -- operator sugar -------------------------------------------------------

    def _coerce(self, other) -> "Tensor":
        return other if isinstance(other, Tensor) else Tensor(other)

    def __add__(self, other):
        return add(self, self._coerce(other))

    def __radd__(self, other):
        return add(self._coerce(other), self)

    def __sub__(self, other):
        return sub(self, self._coerce(other))

    def __rsub__(self, other):
        return sub(self._coerce(other), self)

    def __mul__(self, other):
        return mul(self, self._coerce(other))

    def __rmul__(self, other):
        return mul(self._coerce(other), self)

    def __truediv__(self, other):
        return div(self, self._coerce(other))

    def __rtruediv__(self, other):
        return div(self._coerce(other), self)

    def __neg__(self):
        return neg(self)

    def __matmul__(self, other):
        return matmul(self, self._coerce(other))

    def __getitem__(self, key):
        return getitem(self, key)

    def reshape(self, *shape):
        if len(shape) == 1 and isinstance(shape[0], (tuple, list)):
            shape = tuple(shape[0])
        return reshape(self, shape)

    def transpose(self, axes=None):
        return transpose(self, axes)

    def sum(self, axis=None, keepdims=False):
        return tsum(self, axis=axis, keepdims=keepdims)

    def mean(self, axis=None, keepdims=False):
        return tmean(self, axis=axis, keepdims=keepdims)


class ComputationTape:
    """Ordered record of the op nodes reachable from a backward root.

    Nodes are sorted by creation sequence, which is a topological order by
    construction: a primitive's parents always exist before its output.
    """

    def __init__(self, nodes: list[Tensor]):
        self.nodes = nodes

    @classmethod
    def trace(cls, root: Tensor) -> "ComputationTape":
        seen: set[int] = set()
        nodes: list[Tensor] = []
        stack = [root]
        while stack:
            t = stack.pop()
            if id(t) in seen:
                continue
            seen.add(id(t))
            nodes.append(t)
            for parent, _ in t._vjps:
                stack.append(parent)
        nodes.sort(key=lambda t: t._seq)
        return cls(nodes)


# -- elementwise arithmetic ----------------------------------------------------


def add(a: Tensor, b: Tensor) -> Tensor:
    _check_elementwise(a.shape, b.shape, "add")
    return Tensor._result(
        a.data + b.data,
        [(a, lambda g: _unbroadcast(g, a.shape)), (b, lambda g: _unbroadcast(g, b.shape))],
    )


def sub(a: Tensor, b: Tensor) -> Tensor:
    _check_elementwise(a.shape, b.shape, "sub")
    return Tensor._result(
        a.data - b.data,
        [(a, lambda g: _unbroadcast(g, a.shape)), (b, lambda g: _unbroadcast(-g, b.shape))],
    )


def mul(a: Tensor, b: Tensor) -> Tensor:
    _check_elementwise(a.shape, b.shape, "mul")
    return Tensor._result(
        a.data * b.data,
        [
            (a, lambda g: _unbroadcast(g * b.data, a.shape)),
            (b, lambda g: _unbroadcast(g * a.data, b.shape)),
        ],
    )


def div(a: Tensor, b: Tensor) -> Tensor:
    _check_elementwise(a.shape, b.shape, "div")
    return Tensor._result(
        a.data / b.data,
        [
            (a, lambda g: _unbroadcast(g / b.data, a.shape)),
            (b, lambda g: _unbroadcast(-g * a.data / (b.data * b.data), b.shape)),
        ],
    )


def neg(a: Tensor) -> Tensor:
    return Tensor._result(-a.data, [(a, lambda g: -g)])


# -- nonlinearities ------------------------------------------------------------


def tanh(a: Tensor) -> Tensor:
    t = np.tanh(a.data)
    return Tensor._result(t, [(a, lambda g: g * (1.0 - t * t))])


def sigmoid(a: Tensor) -> Tensor:
    x = a.data
    e = np.exp(-np.abs(x))
    s = np.where(x >= 0, 1.0 / (1.0 + e), e / (1.0 + e))
    return Tensor._result(s, [(a, lambda g: g * s * (1.0 - s))])


def relu(a: Tensor) -> Tensor:
    mask = a.data > 0
    return Tensor._result(np.where(mask, a.data, 0.0), [(a, lambda g: g * mask)])


def sqrt(a: Tensor) -> Tensor:
    r = np.sqrt(a.data)
    return Tensor._result(r, [(a, lambda g: g * 0.5 / r)])


def square(a: Tensor) -> Tensor:
    return Tensor._result(a.data * a.data, [(a, lambda g: g * 2.0 * a.data)])


def clamp_min(a: Tensor, floor: float) -> Tensor:
    """max(a, floor); gradient is zero wherever the clamp is active."""
    mask = a.data > floor
    return Tensor._result(np.where(mask, a.data, floor), [(a, lambda g: g * mask)])


# -- linear algebra --------------------------------------------------------------


def matmul(a: Tensor, b: Tensor) -> Tensor:
    """Matrix product.

    Supported forms: [m,k] @ [k,n]; batched [..., m, k] @ [k, n] (shared
    right weight); [B..., m, k] @ [B..., k, n] with identical batch dims.
    """
    if a.ndim < 2 or b.ndim < 2:
        raise ShapeError(f"matmul: operands must be at least 2-D, got {a.shape} @ {b.shape}")
    if b.ndim == 2:
        if a.shape[-1] != b.shape[0]:
            raise ShapeError(f"matmul: inner extents disagree for {a.shape} @ {b.shape}")
        k, n = b.shape

        def db(g, a=a):
            return a.data.reshape(-1, k).T @ g.reshape(-1, n)

        return Tensor._result(
            np.matmul(a.data, b.data),
            [(a, lambda g: np.matmul(g, b.data.T)), (b, db)],
        )
    if a.ndim == b.ndim and a.shape[:-2] == b.shape[:-2]:
        if a.shape[-1] != b.shape[-2]:
            raise ShapeError(f"matmul: inner extents disagree for {a.shape} @ {b.shape}")
        return Tensor._result(
            np.matmul(a.data, b.data),
            [
                (a, lambda g: np.matmul(g, np.swapaxes(b.data, -1, -2))),
                (b, lambda g: np.matmul(np.swapaxes(a.data, -1, -2), g)),
            ],
        )
    raise ShapeError(f"matmul: unsupported operand shapes {a.shape} @ {b.shape}")


# -- reductions ------------------------------------------------------------------


def _norm_axes(axis, ndim: int) -> tuple:
    if axis is None:
        return tuple(range(ndim))
    if isinstance(axis, int):
        axis = (axis,)
    return tuple(a % ndim for a in axis)


def tsum(a: Tensor, axis=None, keepdims: bool = False) -> Tensor:
    axes = _norm_axes(axis, a.ndim)

    def vjp(g):
        if not keepdims:
            for ax in sorted(axes):
                g = np.expand_dims(g, ax)
        return np.broadcast_to(g, a.shape)

    return Tensor._result(a.data.sum(axis=axes or None, keepdims=keepdims), [(a, vjp)])


def tmean(a: Tensor, axis=None, keepdims: bool = False) -> Tensor:
    axes = _norm_axes(axis, a.ndim)
    count = int(np.prod([a.shape[ax] for ax in axes])) if axes else a.size
    if count == 0:
        raise ShapeError(f"mean over empty axes {axis} of shape {a.shape}")

    def vjp(g):
        if not keepdims:
            for ax in sorted(axes):
                g = np.expand_dims(g, ax)
        return np.broadcast_to(g, a.shape) / count

    return Tensor._result(a.data.mean(axis=axes or None, keepdims=keepdims), [(a, vjp)])


# -- softmax ---------------------------------------------------------------------


def softmax(a: Tensor, axis: int = -1) -> Tensor:
    """Softmax along one axis, computed with max-subtraction for stability."""
    ax = axis % a.ndim if a.ndim else 0
    if a.ndim == 0 or a.shape[ax] == 0:
        raise ShapeError(f"softmax: empty axis {axis} of shape {a.shape}")
    s = a.data - a.data.max(axis=ax, keepdims=True)
    np.exp(s, out=s)
    s /= s.sum(axis=ax, keepdims=True)

    def vjp(g):
        return s * (g - (g * s).sum(axis=ax, keepdims=True))

    return Tensor._result(s, [(a, vjp)])


# -- shape manipulation ------------------------------------------------------------


def reshape(a: Tensor, shape: tuple) -> Tensor:
    return Tensor._result(a.data.reshape(shape), [(a, lambda g: g.reshape(a.shape))])


def transpose(a: Tensor, axes=None) -> Tensor:
    if axes is None:
        axes = tuple(reversed(range(a.ndim)))
    inverse = np.argsort(axes)
    return Tensor._result(a.data.transpose(axes), [(a, lambda g: g.transpose(inverse))])


def getitem(a: Tensor, key) -> Tensor:
    """a[key] for keys that select each element at most once (ints, slices)."""
    data = a.data[key]

    def vjp(g):
        z = np.zeros_like(a.data)
        z[key] = g
        return z

    return Tensor._result(np.array(data), [(a, vjp)])


def concat(tensors: list[Tensor], axis: int = 0) -> Tensor:
    if not tensors:
        raise ShapeError("concat of zero tensors")
    ax = axis % tensors[0].ndim
    sizes = [t.shape[ax] for t in tensors]
    offsets = np.cumsum([0] + sizes)
    vjps = []
    for i, t in enumerate(tensors):
        lo, hi = offsets[i], offsets[i + 1]

        def vjp(g, lo=lo, hi=hi):
            sl = [slice(None)] * g.ndim
            sl[ax] = slice(lo, hi)
            return g[tuple(sl)]

        vjps.append((t, vjp))
    return Tensor._result(np.concatenate([t.data for t in tensors], axis=ax), vjps)


# -- gather / scatter (2-D, along axis 1) ----------------------------------------


def take_rows(a: Tensor, idx: np.ndarray) -> Tensor:
    """Gather a[i, idx[i, j]] -> out[i, j] for a 2-D tensor; indices unique per row."""
    if a.ndim != 2 or idx.ndim != 2 or idx.shape[0] != a.shape[0]:
        raise ShapeError(f"take_rows: need [N,M] data and [N,k] indices, got {a.shape}, {idx.shape}")

    def vjp(g):
        z = np.zeros_like(a.data)
        np.put_along_axis(z, idx, g, axis=1)
        return z

    return Tensor._result(np.take_along_axis(a.data, idx, axis=1), [(a, vjp)])


def scatter_rows(vals: Tensor, idx: np.ndarray, width: int) -> Tensor:
    """Inverse of take_rows: place vals[i, j] at out[i, idx[i, j]], zeros elsewhere.

    Indices must be unique per row (they are arg-top-k positions here).
    """
    if vals.ndim != 2 or idx.shape != vals.shape:
        raise ShapeError(f"scatter_rows: need matching [N,k] shapes, got {vals.shape}, {idx.shape}")
    out = np.zeros((vals.shape[0], width))
    np.put_along_axis(out, idx, vals.data, axis=1)
    return Tensor._result(out, [(vals, lambda g: np.take_along_axis(g, idx, axis=1))])
