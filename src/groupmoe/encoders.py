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


@dataclass
class HiddenStates:
    z: Tensor  # [N_t, d_h]; row i belongs to the batch's stock_ids[i]
    day: str


class ConvEncoder:
    """Causal dilated temporal convolutions with residual connections.

    Dilation doubles per layer; the final step's activations feed a linear
    projection to d_h.
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
            self.layers.append((w, b, down, 2**i))
            c_in = cfg.d_h
        self.out = Linear(self.store, "out", cfg.d_h, cfg.d_h, rng)

    def named_parameters(self):
        return self.store.named_parameters()

    def __call__(self, windows: Tensor) -> Tensor:
        n, t_len, _ = windows.shape
        x = windows
        for w, b, down, dilation in self.layers:
            kernel = w.shape[0]
            pad = (kernel - 1) * dilation
            xp = T.concat([Tensor(np.zeros((n, pad, x.shape[2]))), x], axis=1) if pad else x
            acc = None
            for j in range(kernel):
                lo = pad - j * dilation
                tap = T.matmul(T.getitem(xp, np.s_[:, lo : lo + t_len, :]), T.getitem(w, j))
                acc = tap if acc is None else T.add(acc, tap)
            y = T.relu(T.add(acc, b))
            res = x if down is None else T.matmul(x, down)
            x = T.add(y, res)
        return self.out(T.getitem(x, np.s_[:, -1, :]))


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
