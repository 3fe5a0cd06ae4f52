"""Dense float64 tensors with reverse-mode automatic differentiation.

Define-by-run: every primitive records, on the tensor it creates, its
parents and one vector-Jacobian closure that returns the gradient of
each parent. Creation order is a valid topological order, so the
backward pass is a single reverse sweep over the recorded sequence (the
tape). Broadcasting is deliberately restricted to
scalar-with-anything and trailing-vector bias; every other shape mismatch
is an error so the gradient rules stay auditable.
"""

from __future__ import annotations

import itertools
import math

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

    A tensor produced by a primitive is a tape node: it keeps its parents
    and one vjp closure that maps the output gradient to one gradient per
    parent, in parent order (``None`` for a parent that needs none).
    Leaves created by the user have neither. Data and gradients are
    values: parameter updates rebind ``.data``, the backward sweep rebinds
    ``.grad``, and a ``.grad`` may be a read-only view another tensor
    shares, so nothing writes into either in place.
    """

    __slots__ = ("data", "grad", "requires_grad", "_parents", "_vjp", "_seq", "_backward_done")

    def __init__(self, data, requires_grad: bool = False):
        self.data = _as_array(data)
        self.grad: np.ndarray | None = None
        self.requires_grad = bool(requires_grad)
        self._parents: tuple = ()
        self._vjp = None
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
    def _result(data: np.ndarray, parents: tuple, vjp) -> "Tensor":
        """A node over ``parents``; it keeps them and ``vjp`` only if one needs a gradient.

        Fused ops outside this module (a conv layer, the loss terms) make
        their one node here too."""
        out = Tensor(data)
        if any(p.requires_grad for p in parents):
            out._parents, out._vjp = parents, vjp
            out.requires_grad = True
        return out

    def backward(self) -> None:
        """Accumulate dL/dx on every reachable tensor, root must be scalar.

        Each node's vjp runs once; its gradients go to the parents that
        require one, in parent order. A parent's first contribution
        becomes its ``.grad`` (copied to C order if it is a strided view);
        later ones are added out of place. A second call on the same root
        is rejected; rebuild the graph (or clear gradients and rerun the
        forward pass) instead of reusing it.
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
            if g is None or node._vjp is None:
                continue
            for parent, contrib in zip(node._parents, node._vjp(g)):
                if not parent.requires_grad:
                    continue
                if parent.grad is None:
                    parent.grad = contrib if contrib.flags.c_contiguous else contrib.copy()
                else:
                    parent.grad = parent.grad + contrib


class ComputationTape:
    """Ordered record of the op nodes reachable from a backward root.

    Only parents that require a gradient are followed. Nodes are sorted by
    creation sequence, which is a topological order by construction: a
    primitive's parents always exist before its output.
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
            stack.extend(p for p in t._parents if p.requires_grad)
        nodes.sort(key=lambda t: t._seq)
        return cls(nodes)


# -- elementwise arithmetic ----------------------------------------------------


def add(a: Tensor, b: Tensor) -> Tensor:
    _check_elementwise(a.shape, b.shape, "add")
    return Tensor._result(a.data + b.data, (a, b), lambda g: (_unbroadcast(g, a.shape), _unbroadcast(g, b.shape)))


def sub(a: Tensor, b: Tensor) -> Tensor:
    _check_elementwise(a.shape, b.shape, "sub")
    return Tensor._result(a.data - b.data, (a, b), lambda g: (_unbroadcast(g, a.shape), _unbroadcast(-g, b.shape)))


def mul(a: Tensor, b: Tensor) -> Tensor:
    _check_elementwise(a.shape, b.shape, "mul")
    return Tensor._result(
        a.data * b.data,
        (a, b),
        lambda g: (_unbroadcast(g * b.data, a.shape), _unbroadcast(g * a.data, b.shape)),
    )


def div(a: Tensor, b: Tensor) -> Tensor:
    _check_elementwise(a.shape, b.shape, "div")
    return Tensor._result(
        a.data / b.data,
        (a, b),
        lambda g: (_unbroadcast(g / b.data, a.shape), _unbroadcast(-g * a.data / (b.data * b.data), b.shape)),
    )


def neg(a: Tensor) -> Tensor:
    return Tensor._result(-a.data, (a,), lambda g: (-g,))


# -- nonlinearities ------------------------------------------------------------


def tanh(a: Tensor) -> Tensor:
    t = np.tanh(a.data)
    return Tensor._result(t, (a,), lambda g: (g * (1.0 - t * t),))


def sigmoid(a: Tensor) -> Tensor:
    x = a.data
    e = np.exp(-np.abs(x))
    s = np.where(x >= 0, 1.0 / (1.0 + e), e / (1.0 + e))
    return Tensor._result(s, (a,), lambda g: (g * s * (1.0 - s),))


def relu(a: Tensor) -> Tensor:
    mask = a.data > 0
    return Tensor._result(np.where(mask, a.data, 0.0), (a,), lambda g: (g * mask,))


def sqrt(a: Tensor) -> Tensor:
    r = np.sqrt(a.data)
    return Tensor._result(r, (a,), lambda g: (g * 0.5 / r,))


def square(a: Tensor) -> Tensor:
    return Tensor._result(a.data * a.data, (a,), lambda g: (g * 2.0 * a.data,))


def clamp_min(a: Tensor, floor: float) -> Tensor:
    """max(a, floor); gradient is zero wherever the clamp is active."""
    mask = a.data > floor
    return Tensor._result(np.where(mask, a.data, floor), (a,), lambda g: (g * mask,))


# -- linear algebra --------------------------------------------------------------


def matmul(a: Tensor, b: Tensor) -> Tensor:
    """Matrix product.

    Supported forms: [m,k] @ [k,n]; batched [..., m, k] @ [k, n] (shared
    right weight); [B..., m, k] @ [B..., k, n] with identical batch dims.
    An operand that needs no gradient gets none computed.
    """
    if a.ndim < 2 or b.ndim < 2:
        raise ShapeError(f"matmul: operands must be at least 2-D, got {a.shape} @ {b.shape}")
    if b.ndim == 2:
        if a.shape[-1] != b.shape[0]:
            raise ShapeError(f"matmul: inner extents disagree for {a.shape} @ {b.shape}")
        k, n = b.shape

        def vjp(g):
            return (np.matmul(g, b.data.T) if a.requires_grad else None,
                    a.data.reshape(-1, k).T @ g.reshape(-1, n) if b.requires_grad else None)

        return Tensor._result(np.matmul(a.data, b.data), (a, b), vjp)
    if a.ndim == b.ndim and a.shape[:-2] == b.shape[:-2]:
        if a.shape[-1] != b.shape[-2]:
            raise ShapeError(f"matmul: inner extents disagree for {a.shape} @ {b.shape}")

        def vjp(g):
            return (np.matmul(g, np.swapaxes(b.data, -1, -2)) if a.requires_grad else None,
                    np.matmul(np.swapaxes(a.data, -1, -2), g) if b.requires_grad else None)

        return Tensor._result(np.matmul(a.data, b.data), (a, b), vjp)
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
        return (np.broadcast_to(g, a.shape),)

    return Tensor._result(a.data.sum(axis=axes or None, keepdims=keepdims), (a,), vjp)


def tmean(a: Tensor, axis=None, keepdims: bool = False) -> Tensor:
    axes = _norm_axes(axis, a.ndim)
    count = int(np.prod([a.shape[ax] for ax in axes])) if axes else a.size
    if count == 0:
        raise ShapeError(f"mean over empty axes {axis} of shape {a.shape}")

    def vjp(g):
        if not keepdims:
            for ax in sorted(axes):
                g = np.expand_dims(g, ax)
        return (np.broadcast_to(g, a.shape) / count,)

    return Tensor._result(a.data.mean(axis=axes or None, keepdims=keepdims), (a,), vjp)


# -- softmax ---------------------------------------------------------------------

# Softmax runs keys-major: over the columns of a C-contiguous [keys, rows]
# array, down its contiguous key rows, in blocks of this many columns so
# that every pass over a block stays in cache.
_BLOCK_COLS = 1 << 13


def _col_blocks(x: np.ndarray):
    """Consecutive column blocks (views) of a 2-D array."""
    return (x[:, lo : lo + _BLOCK_COLS] for lo in range(0, x.shape[1], _BLOCK_COLS))


def _key_max(x: np.ndarray) -> np.ndarray:
    """x.max(axis=0) for a 2-D x, by elementwise maxima over its rows."""
    m = x[0].copy()
    for row in x[1:]:
        np.maximum(m, row, out=m)
    return m


def _key_sum(x: np.ndarray, identity: bool = True) -> np.ndarray:
    """x.sum(axis=0) for an x of two or more dimensions, byte for byte the
    row sums numpy takes of x.T.

    Replays numpy's pairwise order down the rows of x, one elementwise add
    over all columns at a time: below 8 rows a sequential sum; up to 128,
    eight accumulators combined as a fixed tree, then the leftover rows in
    sequence; above 128, the sum of the two halves split at a multiple of
    8. With ``identity`` all of it is added to numpy's identity +0.0
    (which turns a -0.0 sum into +0.0); without, the sum starts from x's
    first row, as it does in a reduction that seeds with its first element.
    """
    n = len(x)
    if n > 128:
        half = n // 2 - n // 2 % 8
        r = _key_sum(x[:half], identity)
        r += _key_sum(x[half:], identity)
        return r
    if n < 8:
        r, rest = x[0] + 0.0 if identity else x[0].copy(), x[1:]
    else:
        a = [x[j] + x[j + 8] if n >= 16 else x[j] for j in range(8)]
        for i in range(16, n - n % 8, 8):
            for j in range(8):
                a[j] += x[i + j]
        r, rest = (a[0] + a[1]) + (a[2] + a[3]), x[n - n % 8 :]
        r += (a[4] + a[5]) + (a[6] + a[7])
        if identity:
            r += 0.0
    for row in rest:
        r += row
    return r


def _segment_sums(x: np.ndarray, first: np.ndarray) -> np.ndarray:
    """np.add.reduceat(x, first, axis=0) byte for byte, for ascending
    segment starts ``first`` with first[0] == 0.

    reduceat seeds each segment's sum with its first row and adds numpy's
    pairwise sum of the other rows, itself seeded with their first row (so
    a segment of -0.0 sums to -0.0). The segments of each distinct length
    are stacked, [length, segments, ...], and replayed at once.
    """
    lengths = np.diff(first, append=len(x))
    out = np.empty((len(first),) + x.shape[1:])
    for length in np.unique(lengths):
        segs = np.flatnonzero(lengths == length)
        rows = x[first[segs] + np.arange(length)[:, None]]
        out[segs] = rows[0] if length == 1 else rows[0] + _key_sum(rows[1:], identity=False)
    return out


def _softmax_keys(x: np.ndarray, scale=None) -> None:
    """In place: each column of the C-contiguous 2-D x becomes softmax(scale * column)."""
    for b in _col_blocks(x):
        if scale is not None:
            b *= scale
        b -= _key_max(b)
        np.exp(b, out=b)
        b /= _key_sum(b)


def _softmax_vjp_keys(s: np.ndarray, g: np.ndarray, out: np.ndarray, scale=None) -> None:
    """out = s * (g - colsum(g * s)) * scale for softmax columns s; out may be g itself."""
    for sb, gb, ob in zip(_col_blocks(s), _col_blocks(g), _col_blocks(out)):
        np.subtract(gb, _key_sum(gb * sb), out=ob)
        ob *= sb
        if scale is not None:
            ob *= scale


def softmax(a: Tensor) -> Tensor:
    """Softmax along the last axis, computed with max-subtraction for stability.

    The rows are transposed to keys-major for the key-row helpers, and the
    result and gradient back to a's C-order layout.
    """
    if a.ndim == 0 or a.shape[-1] == 0:
        raise ShapeError(f"softmax: empty last axis of shape {a.shape}")
    width = a.shape[-1]
    s = a.data.reshape(-1, width).T.copy()
    _softmax_keys(s)

    def vjp(g):
        out = np.empty_like(s)
        _softmax_vjp_keys(s, g.reshape(-1, width).T, out)
        return (np.ascontiguousarray(out.T).reshape(a.shape),)

    return Tensor._result(np.ascontiguousarray(s.T).reshape(a.shape), (a,), vjp)


def attention(q: Tensor, k: Tensor, v: Tensor, heads: int) -> tuple[Tensor, np.ndarray]:
    """Multi-head scaled dot-product attention over already-projected q/k/v.

    Inputs are [N, L, d]; returns (out [N, L, d], probs [N, heads, L, L]),
    the probabilities as a plain array, possibly a strided view. Scale is
    1/sqrt(d/heads). One tape node: the backward is the closed form from
    the saved probabilities, dV = P^T dO, dP = dO V^T,
    dS = P * (dP - rowsum(dP * P)) * scale, dQ = dS K, dK = dS^T Q, with
    dS computed once for q and k.

    Scores, probabilities and dS live keys-major, [L, N*heads*L]: the
    products k q^T and v dO^T write that layout themselves, and the
    softmax and its vjp run down contiguous key rows. Values and
    gradients match the composed split-heads graph byte for byte. While
    a head is wider than 1 and every product sums fewer than 16 terms
    (1 < d/heads < 16 and L < 16), the score operands are NN and the
    other products read the keys-major buffers through views; outside
    that range those layouts change OpenBLAS's summation order, so the
    products run on the composed graph's own operand layouts instead.
    """
    if not (q.ndim == 3 and q.shape == k.shape == v.shape):
        raise ShapeError(f"attention: need equal [N, L, d] q/k/v, got {q.shape}, {k.shape}, {v.shape}")
    n, length, d = q.shape
    if heads < 1 or d % heads:
        raise ShapeError(f"attention: width {d} does not split into {heads} heads")
    dh = d // heads
    scale = np.asarray(1.0 / math.sqrt(d / heads))
    views = 1 < dh < 16 and length < 16

    def split(x):  # [N, L, d] -> [N, heads, L, dh] view
        return x.reshape(n, length, heads, dh).transpose(0, 2, 1, 3)

    def keys_major(a, b):  # (a @ b)^T per head, written into a fresh [L, N*heads*L] array
        out = np.empty((length, n * heads * length))
        np.matmul(a, b, out=out.reshape(length, n, heads, length).transpose(1, 2, 0, 3))
        return out

    def by_query(x):  # [L, N*heads*L] -> [N, heads, L, L], per (stock, head) the transpose
        x = x.reshape(length, n, heads, length).transpose(1, 2, 3, 0)
        return x if views else np.ascontiguousarray(x)

    def merged(a, b):  # a @ b, written head by head into a fresh [N, L, d] array
        out = np.empty((n, length, d))
        np.matmul(a, b, out=split(out))
        return out

    qh, kh, vh = split(q.data), split(k.data), split(v.data)
    q_t = qh.swapaxes(-1, -2)
    st = keys_major(kh, np.ascontiguousarray(q_t) if views else q_t)
    _softmax_keys(st, scale)
    p = by_query(st)

    def vjp(g):
        d_out = np.ascontiguousarray(split(g))
        d_out_t = d_out.swapaxes(-1, -2)
        dv = merged(np.swapaxes(p, -1, -2), d_out)
        dst = keys_major(vh, np.ascontiguousarray(d_out_t) if views else d_out_t)
        del d_out, d_out_t
        _softmax_vjp_keys(st, dst, dst, scale)
        ds = by_query(dst)
        dq = merged(ds, kh)
        dk = np.matmul(q_t, ds).transpose(0, 3, 1, 2).reshape(n, length, d)
        return dq, dk, dv

    return Tensor._result(merged(p, vh), (q, k, v), vjp), p


def routed_attention(x: Tensor, rows: np.ndarray, wq: Tensor, wk: Tensor, wv: Tensor, heads: int) -> Tensor:
    """Inner-group self-attention plus residual, at chosen query vectors only.

    x is [N, G, E, d]: per item, G groups of E vectors. rows is [N, k],
    flat indices g*E + e, unique per item. Query (i, j) is the vector
    x[i, g, e]; it attends over the keys and values x[i, g] with group
    g's projections wq[g], wk[g], wv[g] ([G, d, d]) and heads of width
    d/heads at scale 1/sqrt(d/heads). Returns [N, k, d], the query plus
    its attention output: row e of x[i, g] + attention(x[i, g] wq[g],
    x[i, g] wk[g], x[i, g] wv[g]) in exact arithmetic.

    Nothing is projected densely. Per head h, u_h = wk_h (q wq)_h makes
    the scores x[i, g] u_h, and the output is (p_h^T x[i, g]) wv_h. The
    head slices of wk and wv enter as block-diagonal matrices, so that
    x -> u and the mix -> output are one 2-D product per group, over the
    queries sorted by group. Scores, probabilities and dS live
    keys-major, [E, M*heads] with M = N*k, as in ``attention``. One tape
    node; its vjp returns the gradients of x, wq, wk and wv.
    """
    n, g, e, d = x.shape
    if not (wq.shape == wk.shape == wv.shape == (g, d, d)):
        raise ShapeError(f"routed_attention: need [{g}, {d}, {d}] projections, got {wq.shape}, {wk.shape}, {wv.shape}")
    if rows.ndim != 2 or rows.shape[0] != n:
        raise ShapeError(f"routed_attention: need [{n}, k] query rows, got {rows.shape}")
    if heads < 1 or d % heads:
        raise ShapeError(f"routed_attention: width {d} does not split into {heads} heads")
    k = rows.shape[1]
    m = n * k
    scale = np.asarray(1.0 / math.sqrt(d / heads))
    head_of = np.arange(d) // (d // heads) == np.arange(heads)[:, None]  # [heads, d]: t in head h
    # b_k[j][t, c*heads + h] = wk[j][c, t] and c_v[j][h*d + c, t] = wv[j][c, t] where t is in head h
    b_k = (wk.data.transpose(0, 2, 1)[..., None] * head_of.T[None, :, None, :]).reshape(g, d, d * heads)
    c_v = (wv.data[:, None] * head_of[None, :, None, :]).reshape(g, heads * d, d)
    qk = np.matmul(wq.data, b_k)  # [G, d, d*heads]: x -> u

    group = rows.reshape(-1) // e
    order = np.argsort(group, kind="stable")  # by (group, item); an item's block stays contiguous
    bounds = np.searchsorted(group[order], np.arange(g + 1))
    segs = [(j, slice(lo, hi)) for j, (lo, hi) in enumerate(zip(bounds[:-1], bounds[1:])) if lo < hi]
    item = order // k
    block = item * g + group[order]  # into x as [N*G, E, d]
    query = item * (g * e) + rows.reshape(-1)[order]  # into x as [N*G*E, d]
    xq = np.take(x.data.reshape(n * g * e, d), query, axis=0)  # [M, d]
    o = np.take(x.data.reshape(n * g, e * d), block, axis=0).reshape(m, e, d)  # [M, E, d]

    def keys_major(a, b):  # a @ b for [M, E, *] @ [M, *, heads], written into a fresh [E, M*heads] array
        out = np.empty((e, m * heads))
        np.matmul(a, b, out=out.reshape(e, m, heads).transpose(1, 0, 2))
        return out

    def by_query(s):  # [E, M*heads] -> [M, E, heads] view
        return s.reshape(e, m, heads).transpose(1, 0, 2)

    u = np.empty((m, d * heads))
    for j, s in segs:
        np.matmul(xq[s], qk[j], out=u[s])
    u = u.reshape(m, d, heads)
    st = keys_major(o, u)
    _softmax_keys(st, scale)
    mixed = np.matmul(by_query(st).transpose(0, 2, 1), o).reshape(m, heads * d)
    out = xq.copy()
    for j, s in segs:
        out[s] += mixed[s] @ c_v[j]
    y = np.empty((m, d))
    y[order] = out

    def vjp(gy):
        gs = gy.reshape(m, d)[order]
        dxq = gs.copy()
        d_mixed = np.empty((m, heads * d))
        d_cv = np.zeros((g, heads * d, d))
        for j, s in segs:
            np.matmul(gs[s], c_v[j].T, out=d_mixed[s])
            d_cv[j] = mixed[s].T @ gs[s]
        d_mixed = d_mixed.reshape(m, heads, d)
        do = np.matmul(by_query(st), d_mixed)
        dst = keys_major(o, d_mixed.transpose(0, 2, 1))
        _softmax_vjp_keys(st, dst, dst, scale)
        ds = by_query(dst)
        do += np.matmul(ds, u.transpose(0, 2, 1))
        du = np.matmul(o.transpose(0, 2, 1), ds).reshape(m, d * heads)
        d_qk = np.zeros((g, d, d * heads))
        for j, s in segs:
            dxq[s] += du[s] @ qk[j].T
            d_qk[j] = xq[s].T @ du[s]
        d_bk = np.matmul(wq.data.transpose(0, 2, 1), d_qk).reshape(g, d, d, heads)
        dwk = (d_bk * head_of.T[None, :, None, :]).sum(axis=3).transpose(0, 2, 1)
        dwv = (d_cv.reshape(g, heads, d, d) * head_of[None, :, None, :]).sum(axis=1)
        dx = np.zeros((n * g, e, d))
        first = np.flatnonzero(np.r_[True, block[1:] != block[:-1]])  # an item's queries in a group are adjacent
        dx[block[first]] = _segment_sums(do, first)
        dx = dx.reshape(n * g * e, d)
        dx[query] += dxq
        return dx.reshape(x.shape), np.matmul(d_qk, b_k.transpose(0, 2, 1)), dwk, dwv

    return Tensor._result(y.reshape(n, k, d), (x, wq, wk, wv), vjp)


# -- shape manipulation ------------------------------------------------------------


def reshape(a: Tensor, shape: tuple) -> Tensor:
    return Tensor._result(a.data.reshape(shape), (a,), lambda g: (g.reshape(a.shape),))


def transpose(a: Tensor, axes=None) -> Tensor:
    if axes is None:
        axes = tuple(reversed(range(a.ndim)))
    inverse = np.argsort(axes)
    return Tensor._result(a.data.transpose(axes), (a,), lambda g: (g.transpose(inverse),))


def getitem(a: Tensor, key) -> Tensor:
    """a[key] for keys that select each element at most once (ints, slices).

    A basic slice is a view of a's data, which is safe because data are
    values that nothing writes into.
    """

    def vjp(g):
        z = np.zeros_like(a.data)
        z[key] = g
        return (z,)

    return Tensor._result(a.data[key], (a,), vjp)


def concat(tensors: list[Tensor], axis: int = 0) -> Tensor:
    if not tensors:
        raise ShapeError("concat of zero tensors")
    ax = axis % tensors[0].ndim
    cuts = np.cumsum([t.shape[ax] for t in tensors])[:-1]
    return Tensor._result(np.concatenate([t.data for t in tensors], axis=ax), tuple(tensors),
                          lambda g: np.split(g, cuts, axis=ax))


# -- gather (2-D, along axis 1) -------------------------------------------------


def take_rows(a: Tensor, idx: np.ndarray) -> Tensor:
    """Gather a[i, idx[i, j]] -> out[i, j] for a 2-D tensor; indices unique per row."""
    if a.ndim != 2 or idx.ndim != 2 or idx.shape[0] != a.shape[0]:
        raise ShapeError(f"take_rows: need [N,M] data and [N,k] indices, got {a.shape}, {idx.shape}")

    def vjp(g):
        z = np.zeros_like(a.data)
        np.put_along_axis(z, idx, g, axis=1)
        return (z,)

    return Tensor._result(np.take_along_axis(a.data, idx, axis=1), (a,), vjp)


# -- selection -------------------------------------------------------------------
#
# Not a tape op: the partition that both the gate's top-k and the
# portfolio legs of the metrics use.


def top_k_mask(x: np.ndarray, k: int) -> np.ndarray:
    """[S, N] mask of the k largest entries per row: the first k positions
    of a stable argsort of -x, so ties go to the lower index and NaN ranks
    last. Found by partition, not by a sort."""
    kth = -np.partition(-x, k - 1, axis=1)[:, k - 1, None]
    above = x > kth
    tied = x == kth
    undefined = np.isnan(kth)  # fewer than k numbers in the row: the NaNs are the ties
    if undefined.any():
        nan = np.isnan(x)
        above |= undefined & ~nan
        tied |= undefined & nan
    if np.count_nonzero(above) + np.count_nonzero(tied) > k * len(x):  # some row has spare ties
        tied &= np.cumsum(tied, axis=1) <= k - above.sum(axis=1, keepdims=True)
    return above | tied
