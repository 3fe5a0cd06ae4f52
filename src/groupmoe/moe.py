"""Grouped mixture-of-experts head over a shared encoder state.

Per stock: a linear gate maps the encoder state to one logit per
(group, expert) slot; the top-k logits (flat across groups, ties to the
lowest index) are softmax-normalized and all other weights are exactly
zero. Every slot applies its own affine expert to the same state; the
G*E experts form one weight bank applied with a single matmul. Within
each group the expert vectors attend to each other (multi-head
self-attention plus a residual), then a shared linear readout turns a
slot's vector into a scalar and the gate weights combine them into the
final prediction. The forward attends from, and reads out, only the k
selected slots; the per-slot analysis (``expert_outputs``) runs every
slot.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import tensor as T
from .encoders import HiddenStates, build_encoder
from .metrics import top_k_mask
from .nn import Linear, ParamStore, uniform_init
from .panel import DayBatch, PanelError
from .tensor import Tensor


class MoEConfigError(ValueError):
    pass


class NumericalError(RuntimeError):
    """A non-finite loss, gradient or prediction; names the day."""


@dataclass
class MoEConfig:
    groups: int = 7
    experts_per_group: int = 9
    top_k: int = 8
    d_e: int = 16
    agg_heads: int = 4
    inner_attention: bool = True  # off = mixture of isolated experts

    @property
    def n_slots(self) -> int:
        return self.groups * self.experts_per_group

    def validate(self) -> list[str]:
        problems = []
        if self.groups < 1 or self.experts_per_group < 1:
            problems.append(f"moe: groups ({self.groups}) and experts_per_group ({self.experts_per_group}) must be >= 1")
        if not (1 <= self.top_k <= max(self.n_slots, 1)):
            problems.append(f"moe.top_k ({self.top_k}) must be in [1, {self.n_slots}]")
        if self.d_e < 1 or self.d_e % max(self.agg_heads, 1) != 0:
            problems.append(f"moe.d_e ({self.d_e}) must be positive and divisible by agg_heads ({self.agg_heads})")
        return problems


@dataclass
class RoutingDecision:
    logits: Tensor  # [N, G, E]
    selected: np.ndarray  # [N, k] flat slot indices, ascending
    selected_weights: Tensor  # [N, k]; the gate weights of the selected slots, summing to 1
    weights: Tensor  # [N, G, E]; the same weights in place, exact zeros elsewhere


def top_k_indices(logits: np.ndarray, k: int) -> np.ndarray:
    """Arg-top-k per row over flattened logits, ties to the lowest index
    and NaN last; [N, k] indices, ascending per row."""
    return (np.flatnonzero(top_k_mask(logits, k)) % logits.shape[1]).reshape(-1, k)


def route_from_logits(flat: Tensor, k: int) -> tuple[np.ndarray, Tensor]:
    """Top-k selection plus softmax over the selected logits only.

    Returns (selected indices [N, k], weights [N, n_slots]) where the
    unselected positions hold exact zeros.
    """
    n_slots = flat.shape[1]
    if not (1 <= k <= n_slots):
        raise MoEConfigError(f"top_k {k} out of range [1, {n_slots}]")
    selected = top_k_indices(flat.data, k)
    normed = T.softmax(T.take_rows(flat, selected))
    return selected, T.scatter_rows(normed, selected, n_slots)


class MoEHead:
    def __init__(self, cfg: MoEConfig, d_h: int, rng: np.random.Generator):
        problems = cfg.validate()
        if problems:
            raise MoEConfigError("; ".join(problems))
        self.cfg = cfg
        self.store = ParamStore("moe.")
        g, e, d_e = cfg.groups, cfg.experts_per_group, cfg.d_e
        self.gate = Linear(self.store, "gate", d_h, g * e, rng)
        # slot s = j*E + k (group j, expert k) owns bank columns
        # [s*d_e, (s+1)*d_e); the draws are made slot by slot, as for
        # per-slot weights, so a seed gives the same initial values
        slots = uniform_init(rng, d_h, (g * e, d_h, d_e))
        self.expert_W = self.store.add("experts.W", slots.transpose(1, 0, 2).reshape(d_h, g * e * d_e))
        self.expert_b = self.store.add("experts.b", np.zeros(g * e * d_e))
        # drawn even with inner attention off, so that a seed gives the
        # readout the same initial values either way
        wq, wk, wv = uniform_init(rng, d_e, (g, 3, d_e, d_e)).transpose(1, 0, 2, 3)
        if cfg.inner_attention:
            self.Wq = self.store.add("agg.Wq", wq.copy())  # [G, d_e, d_e], one per group
            self.Wk = self.store.add("agg.Wk", wk.copy())
            self.Wv = self.store.add("agg.Wv", wv.copy())
        self.readout = Linear(self.store, "readout", d_e, 1, rng)
        self.last_attention: np.ndarray | None = None  # [G, N, heads, E, E]

    def named_parameters(self):
        return self.store.named_parameters()

    # -- routing ---------------------------------------------------------------

    def gate_forward(self, z: HiddenStates) -> RoutingDecision:
        cfg = self.cfg
        n = z.z.shape[0]
        flat = self.gate(z.z)  # [N, G*E]
        selected, weights = route_from_logits(flat, cfg.top_k)
        shape3 = (n, cfg.groups, cfg.experts_per_group)
        return RoutingDecision(
            logits=T.reshape(flat, shape3),
            selected=selected,
            selected_weights=T.take_rows(weights, selected),
            weights=T.reshape(weights, shape3),
        )

    # -- experts ------------------------------------------------------------------

    def run_experts(self, z: HiddenStates) -> Tensor:
        """[N, G, E, d_e]: one independent affine map per slot on the shared state."""
        cfg = self.cfg
        out = T.add(T.matmul(z.z, self.expert_W), self.expert_b)  # [N, G*E*d_e]
        return T.reshape(out, (z.z.shape[0], cfg.groups, cfg.experts_per_group, cfg.d_e))

    def aggregate(self, raw: Tensor) -> Tensor:
        """Mix each group's expert vectors by self-attention; residual added.

        Attention runs over all E experts of a group, for every group at
        once; selection only masks contributions later, at combination time.
        """
        if not self.cfg.inner_attention:
            return raw
        n, g, e, d_e = raw.shape
        o = T.reshape(T.transpose(raw, (1, 0, 2, 3)), (g, n * e, d_e))
        q, k, v = (T.reshape(T.matmul(o, w), (g * n, e, d_e)) for w in (self.Wq, self.Wk, self.Wv))
        mixed, probs = T.attention(q, k, v, self.cfg.agg_heads)
        self.last_attention = probs.reshape(g, n, *probs.shape[1:])
        return T.add(raw, T.transpose(T.reshape(mixed, (g, n, e, d_e)), (1, 0, 2, 3)))

    def readout_slots(self, mixed: Tensor) -> Tensor:
        """Shared scalar readout per slot: [N, G, E, d_e] -> [N, G, E]."""
        n, g, e, d_e = mixed.shape
        return T.reshape(self.readout(T.reshape(mixed, (n * g * e, d_e))), (n, g, e))

    def expert_outputs(self, z: HiddenStates) -> Tensor:
        """[N, G, E] readouts of experts, inner-group mixing and readout: every slot, gate aside."""
        return self.readout_slots(self.aggregate(self.run_experts(z)))

    def __call__(self, z: HiddenStates) -> tuple[Tensor, RoutingDecision, Tensor]:
        """(prediction [N], routing decision, readouts of the selected slots [N, k]).

        Only the k selected slots of each stock attend, over their own
        group's E expert vectors, and are read out; the other slots enter
        only as keys and values. In exact arithmetic this is the
        gate-weighted sum of ``expert_outputs``.
        """
        cfg = self.cfg
        decision = self.gate_forward(z)
        n, k = decision.selected.shape
        raw = self.run_experts(z)
        if cfg.inner_attention:
            mixed = T.routed_attention(raw, decision.selected, self.Wq, self.Wk, self.Wv, cfg.agg_heads)
        else:
            cols = decision.selected[:, :, None] * cfg.d_e + np.arange(cfg.d_e)
            mixed = T.take_rows(T.reshape(raw, (n, -1)), cols.reshape(n, -1))
        # one 2-D product, as in readout_slots: a batch of [k, d_e] products sums in another order
        readout = T.reshape(self.readout(T.reshape(mixed, (n * k, cfg.d_e))), (n, k))
        return T.tsum(T.mul(decision.selected_weights, readout), axis=1), decision, readout


class Forecaster:
    """Encoder plus MoE head; the full per-day forward pass."""

    def __init__(self, encoder_cfg, moe_cfg: MoEConfig, n_features: int, window: int, seed: int = 0):
        root = np.random.SeedSequence(seed)
        enc_rng, moe_rng = (np.random.default_rng(s) for s in root.spawn(2))
        self.encoder_cfg = encoder_cfg
        self.moe_cfg = moe_cfg
        self.n_features = n_features
        self.window = window
        self.encoder = build_encoder(encoder_cfg, n_features, window, enc_rng)
        self.head = MoEHead(moe_cfg, encoder_cfg.d_h, moe_rng)

    def named_parameters(self) -> list[tuple[str, Tensor]]:
        return self.encoder.named_parameters() + self.head.named_parameters()

    def zero_grad(self) -> None:
        for _, p in self.named_parameters():
            p.grad = None

    def state_arrays(self) -> dict[str, np.ndarray]:
        return {name: p.data.copy() for name, p in self.named_parameters()}

    def load_state_arrays(self, state: dict[str, np.ndarray]) -> None:
        for name, p in self.named_parameters():
            if name not in state:
                raise KeyError(f"missing parameter {name} in state")
            arr = np.asarray(state[name], dtype=np.float64)
            if arr.shape != p.data.shape:
                raise ValueError(f"parameter {name}: shape {arr.shape} != {p.data.shape}")
            p.data = arr.copy()

    def encode(self, batch: DayBatch) -> HiddenStates:
        """The encoder state of a day; a non-finite window value is a
        PanelError, also at a step the encoder does not read."""
        if batch.n_stocks == 0:
            raise ValueError(f"empty batch for day {batch.day}")
        _finite(batch.windows, batch, "window", PanelError)
        return HiddenStates(z=self.encoder(Tensor(batch.windows)), day=batch.day)

    def forward(self, batch: DayBatch) -> tuple[Tensor, RoutingDecision, Tensor]:
        return self.head(self.encode(batch))

    def predict(self, batch: DayBatch) -> np.ndarray:
        """[N] predictions; a non-finite one is a NumericalError."""
        with np.errstate(all="ignore"):  # an overflow shows as the non-finite output
            y_hat, _, _ = self.forward(batch)
        return _finite(y_hat.data.copy(), batch, "prediction")

    def predict_per_slot(self, batch: DayBatch) -> np.ndarray:
        """[N, G, E] readouts, each slot's own prediction (per-expert
        analysis); the gate, top-k and combination are not run. A
        non-finite readout is a NumericalError."""
        with np.errstate(all="ignore"):
            readout = self.head.expert_outputs(self.encode(batch))
        return _finite(readout.data.copy(), batch, "slot readout")


def _finite(values: np.ndarray, batch: DayBatch, what: str, error: type = NumericalError) -> np.ndarray:
    """``values`` ([N, ...], row i for the batch's stock i) if all are finite."""
    finite = np.isfinite(values)
    if not finite.all():
        row = int(np.argmin(finite.reshape(len(values), -1).all(axis=1)))
        raise error(f"day {batch.day}: {what} for stock {batch.stock_ids[row]} is not finite")
    return values
