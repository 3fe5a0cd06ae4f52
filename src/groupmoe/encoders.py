"""Cross-sectional stock encoders: window [N, T, D] -> hidden state [N, d_h].

All three variants act strictly per stock; stocks only interact later,
through the per-day loss. That makes every encoder equivariant to a
permutation of the stock rows.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import tensor as T
from .nn import LayerNorm, Linear, ParamStore, uniform_init
from .tensor import Tensor


class EncoderConfigError(ValueError):
    pass


@dataclass
class EncoderConfig:
    kind: str = "conv"  # conv | recurrent | attention
    d_h: int = 32
    depth: int = 2
    heads: int = 4  # attention kind only
    kernel: int = 3  # conv kind only

    def validate(self) -> list[str]:
        problems = []
        if self.kind not in ("conv", "recurrent", "attention"):
            problems.append(f"encoder.kind must be conv|recurrent|attention, got {self.kind!r}")
        if self.d_h < 1:
            problems.append(f"encoder.d_h must be >= 1, got {self.d_h}")
        if self.depth < 1:
            problems.append(f"encoder.depth must be >= 1, got {self.depth}")
        if self.kind == "attention" and (self.heads < 1 or self.d_h % max(self.heads, 1) != 0):
            problems.append(f"encoder.d_h ({self.d_h}) must be divisible by heads ({self.heads})")
        if self.kind == "conv" and self.kernel < 1:
            problems.append(f"encoder.kernel must be >= 1, got {self.kernel}")
        return problems


def _steps(lo: int, count: int, t_len: int):
    """Key of ``count`` steps two apart from position ``lo`` of a [N, L, C]
    array. A single step of a longer window is an int index, so that its
    products are 2-D; a one-step window keeps the full-sequence [N, 1, C]."""
    if count == 1 and t_len > 1:
        return np.s_[:, lo, :]
    return np.s_[:, lo : lo + 2 * count - 1 : 2, :]


class ConvEncoder:
    """Causal dilated temporal convolutions with residual connections.

    Dilation doubles per layer; the final step's activations feed a linear
    projection to d_h. Each layer computes only the steps the layers above
    read (the receptive-field pruning of Fast WaveNet, Paine et al. 2016,
    arXiv:1611.09482), with the bytes of the full-sequence forward on days
    of two or more stocks. A one-stock day's single-row products are
    matrix-vector products and round differently. From depth 2 on,
    gradients differ from the full sequence's by rounding: the top step's
    input gradient is one 2-D product, not per-stock ones.
    """

    def __init__(self, cfg: EncoderConfig, n_features: int, window: int, rng: np.random.Generator):
        if cfg.kernel > window:
            raise EncoderConfigError(f"conv kernel {cfg.kernel} exceeds window length {window}")
        self.cfg = cfg
        self.window = window
        self.store = ParamStore("encoder.")
        self.layers = []
        c_in = n_features
        for i in range(cfg.depth):
            w = self.store.add(f"conv{i}.W", uniform_init(rng, cfg.kernel * c_in, (cfg.kernel, c_in, cfg.d_h)))
            b = self.store.add(f"conv{i}.b", np.zeros(cfg.d_h))
            down = None
            if c_in != cfg.d_h:
                down = self.store.add(f"conv{i}.down", uniform_init(rng, c_in, (c_in, cfg.d_h)))
            self.layers.append((w, b, down))
            c_in = cfg.d_h
        self.out = Linear(self.store, "out", cfg.d_h, cfg.d_h, rng)

    def named_parameters(self):
        return self.store.named_parameters()

    def step_counts(self, t_len: int) -> list[int]:
        """Steps each layer computes: the ones the layers above read.

        The top layer computes step T-1 only. Layer i (dilation 2**i)
        reads layer i-1 at t - j*2**i (j < kernel) for each step t it
        computes, so layer i-1 computes the steps >= 0 of the arithmetic
        progression that ends at T-1 with step 2**i and covers them.
        """
        kernel = self.cfg.kernel
        counts = [1]
        for i in range(len(self.layers) - 1, 0, -1):
            counts.insert(0, min(2 * counts[0] + kernel - 2, (t_len - 1) // 2**i + 1))
        return counts

    def __call__(self, windows: Tensor) -> Tensor:
        """The top layer's state at step T-1, through a linear projection."""
        t_len = windows.shape[1]
        x = windows
        for (w, b, down), count in zip(self.layers, self.step_counts(t_len)):
            x = conv_layer(x, w, b, down, count, t_len)
        if x.ndim == 3:  # a one-step window: [N, 1, d_h]
            x = T.getitem(x, np.s_[:, 0, :])
        return self.out(x)


def conv_operands(x: np.ndarray, kernel: int, count: int, t_len: int):
    """(input as [N, L, C], padded input, tap keys, residual key) of a conv layer.

    A layer's input ([N, L, C], or [N, C] for the single step T-1) holds
    the steps spaced by the layer's dilation, ending at T-1; the padded
    input has zeros in front where they would fall before step 0. Tap j
    reads ``count`` positions two apart from ``j`` before the earliest
    computed step, and the residual the input's last ``count`` positions
    two apart, so every operand is a view.
    """
    n = x.shape[0]
    if x.ndim == 2:  # the layer below computed step T-1 only: this dilation reaches before step 0
        x = x.reshape(n, 1, x.shape[1])
    pad = 2 * (count - 1) + kernel - x.shape[1]
    xp = np.concatenate([np.zeros((n, pad, x.shape[2])), x], axis=1) if pad > 0 else x
    first = xp.shape[1] - 2 * count + 1  # position of the earliest computed step
    taps = [_steps(first - j, count, t_len) for j in range(kernel)]
    return x, xp, taps, _steps(x.shape[1] - 2 * count + 1, count, t_len)


def conv_layer(x: Tensor, w: Tensor, b: Tensor, down: Tensor | None, count: int, t_len: int) -> Tensor:
    """One causal dilated conv layer as one tape node: relu(sum_j tap_j @ w[j]
    + b) plus the residual, through ``down`` where the widths differ.

    Forward and vjp run the products, sums and masks of the composed graph
    (padding concat, tap and weight slices, matmuls, adds, relu, residual)
    in its order, so values and gradients keep its bytes. Where the
    composed backward adds one zeros-plus-slice array per slice, this one
    adds into one buffer that starts at +0.0: with two or more taps every
    entry of the composed sum has passed through an add with a zero,
    which turns -0.0 into +0.0 as the buffer does (with one tap the two
    could differ only at a -0.0 entry of a matrix product, which sums from
    +0.0 and so yields none). Without padding the residual's gradient
    reaches the input first, with padding after the padded input's.
    """
    kernel, c_in, width = w.shape
    x3, xp, taps, res_key = conv_operands(x.data, kernel, count, t_len)
    pad = xp.shape[1] - x3.shape[1]
    acc = None
    for j, key in enumerate(taps):
        tap = np.matmul(xp[key], w.data[j])
        acc = tap if acc is None else acc + tap
    pre = acc + b.data
    mask = pre > 0
    res = x3[res_key]
    out = np.where(mask, pre, 0.0) + (res if down is None else np.matmul(res, down.data))

    def vjp(g):
        g_pre = g * mask
        gw = np.zeros_like(w.data)
        for j, key in enumerate(taps):
            gw[j] += xp[key].reshape(-1, c_in).T @ g_pre.reshape(-1, width)
        grads = [None, gw, g_pre.reshape(-1, width).sum(axis=0)]
        if down is not None:
            grads.append(res.reshape(-1, down.shape[0]).T @ g.reshape(-1, width))
        if x.requires_grad:
            g_res = g if down is None else np.matmul(g, down.data.T)
            gxp = np.zeros(xp.shape)
            gx = gxp[:, pad:]
            if pad == 0:
                gx[res_key] += g_res
            for j in reversed(range(kernel)):
                gxp[taps[j]] += np.matmul(g_pre, w.data[j].T)
            if pad > 0:
                gx[res_key] += g_res
            grads[0] = gx.reshape(x.shape)
        return grads

    return Tensor._result(out, (x, w, b) if down is None else (x, w, b, down), vjp)


class RecurrentEncoder:
    """Stacked gated recurrence (input/forget/output gates, cell state)."""

    def __init__(self, cfg: EncoderConfig, n_features: int, window: int, rng: np.random.Generator):
        self.cfg = cfg
        self.store = ParamStore("encoder.")
        self.layers = []
        c_in = n_features
        h = cfg.d_h
        for i in range(cfg.depth):
            wx = self.store.add(f"cell{i}.Wx", uniform_init(rng, c_in, (c_in, 4 * h)))
            wh = self.store.add(f"cell{i}.Wh", uniform_init(rng, h, (h, 4 * h)))
            b = self.store.add(f"cell{i}.b", np.zeros(4 * h))
            self.layers.append((wx, wh, b))
            c_in = h
        self.out = Linear(self.store, "out", h, cfg.d_h, rng)

    def named_parameters(self):
        return self.store.named_parameters()

    def __call__(self, windows: Tensor) -> Tensor:
        n, t_len, _ = windows.shape
        h_dim = self.cfg.d_h
        seq = [T.getitem(windows, np.s_[:, u, :]) for u in range(t_len)]
        for wx, wh, b in self.layers:
            h = Tensor(np.zeros((n, h_dim)))
            c = Tensor(np.zeros((n, h_dim)))
            outs = []
            for x_t in seq:
                gates = T.add(T.add(T.matmul(x_t, wx), T.matmul(h, wh)), b)
                i_g = T.sigmoid(T.getitem(gates, np.s_[:, 0:h_dim]))
                f_g = T.sigmoid(T.getitem(gates, np.s_[:, h_dim : 2 * h_dim]))
                g_g = T.tanh(T.getitem(gates, np.s_[:, 2 * h_dim : 3 * h_dim]))
                o_g = T.sigmoid(T.getitem(gates, np.s_[:, 3 * h_dim : 4 * h_dim]))
                c = T.add(T.mul(f_g, c), T.mul(i_g, g_g))
                h = T.mul(o_g, T.tanh(c))
                outs.append(h)
            seq = outs
        return self.out(seq[-1])


class AttentionEncoder:
    """Per-stock temporal self-attention with learned positional embedding,
    feed-forward sublayer, and layer normalization; post-norm blocks."""

    def __init__(self, cfg: EncoderConfig, n_features: int, window: int, rng: np.random.Generator):
        if cfg.d_h % cfg.heads != 0:
            raise EncoderConfigError(f"d_h {cfg.d_h} not divisible by heads {cfg.heads}")
        self.cfg = cfg
        self.window = window
        self.store = ParamStore("encoder.")
        self.in_proj = Linear(self.store, "in", n_features, cfg.d_h, rng)
        self.pos = self.store.add("pos", uniform_init(rng, cfg.d_h, (window, cfg.d_h)))
        self.blocks = []
        for i in range(cfg.depth):
            blk = {
                "q": Linear(self.store, f"blk{i}.q", cfg.d_h, cfg.d_h, rng),
                "k": Linear(self.store, f"blk{i}.k", cfg.d_h, cfg.d_h, rng),
                "v": Linear(self.store, f"blk{i}.v", cfg.d_h, cfg.d_h, rng),
                "o": Linear(self.store, f"blk{i}.o", cfg.d_h, cfg.d_h, rng),
                "ln1": LayerNorm(self.store, f"blk{i}.ln1", cfg.d_h),
                "ff1": Linear(self.store, f"blk{i}.ff1", cfg.d_h, 2 * cfg.d_h, rng),
                "ff2": Linear(self.store, f"blk{i}.ff2", 2 * cfg.d_h, cfg.d_h, rng),
                "ln2": LayerNorm(self.store, f"blk{i}.ln2", cfg.d_h),
            }
            self.blocks.append(blk)
        self.out = Linear(self.store, "out", cfg.d_h, cfg.d_h, rng)
        self.last_attention: np.ndarray | None = None

    def named_parameters(self):
        return self.store.named_parameters()

    def __call__(self, windows: Tensor) -> Tensor:
        n, t_len, _ = windows.shape
        if t_len != self.window:
            raise EncoderConfigError(f"batch window {t_len} != configured window {self.window}")
        x = T.add(self.in_proj(windows), T.reshape(self.pos, (1, t_len, self.cfg.d_h)))
        for blk in self.blocks:
            attended, self.last_attention = T.attention(blk["q"](x), blk["k"](x), blk["v"](x), self.cfg.heads)
            x = blk["ln1"](T.add(x, blk["o"](attended)))
            ff = blk["ff2"](T.relu(blk["ff1"](x)))
            x = blk["ln2"](T.add(x, ff))
        return self.out(T.getitem(x, np.s_[:, -1, :]))


_KINDS = {"conv": ConvEncoder, "recurrent": RecurrentEncoder, "attention": AttentionEncoder}


def build_encoder(cfg: EncoderConfig, n_features: int, window: int, rng: np.random.Generator):
    problems = cfg.validate()
    if problems:
        raise EncoderConfigError("; ".join(problems))
    return _KINDS[cfg.kind](cfg, n_features, window, rng)
