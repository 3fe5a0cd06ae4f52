"""Directional finite-difference validation of the full training gradient.

For every parameter tensor: draw a fixed random unit direction v, compare
the analytic directional derivative <dL/dp, v> against the central
difference (L(p + eps v) - L(p - eps v)) / (2 eps) of the total loss on a
small random day set. One report row per parameter group.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .encoders import EncoderConfig
from .moe import Forecaster, MoEConfig
from .objective import LossWeights
from .panel import DayBatch
from .tensor import Tensor
from .train import day_loss

# The checked model: every encoder kind over a small grouped head, on a
# few random days, so that finite differences stay cheap.
KINDS = ("conv", "recurrent", "attention")
MOE = MoEConfig(groups=3, experts_per_group=3, top_k=2, d_e=8, agg_heads=4)
D_H, WINDOW, N_FEATURES, N_DAYS, N_STOCKS = 16, 5, 4, 2, 8
EPS = 1e-5
TOLERANCE = 1e-4


@dataclass
class GradCheckRow:
    group: str
    analytic: float
    numeric: float
    rel_err: float
    passed: bool


def _random_batches(rng: np.random.Generator) -> list[DayBatch]:
    return [DayBatch(day=f"d{t:03d}",
                     windows=rng.uniform(-1, 1, (N_STOCKS, WINDOW, N_FEATURES)),
                     labels=rng.normal(scale=0.02, size=N_STOCKS),
                     stock_ids=[f"s{i:03d}" for i in range(N_STOCKS)])
            for t in range(N_DAYS)]


def check_model(model: Forecaster, batches: list[DayBatch], weights: LossWeights,
                seed: int = 0) -> list[GradCheckRow]:
    """One row per parameter group."""

    def loss_value() -> Tensor:
        return day_loss(model, batches, weights)[0]

    model.zero_grad()
    loss_value().backward()
    grads = {name: p.grad if p.grad is not None else np.zeros_like(p.data) for name, p in model.named_parameters()}

    rng = np.random.default_rng(seed)
    rows = []
    for name, p in model.named_parameters():
        v = rng.normal(size=p.data.shape)
        v /= np.sqrt((v * v).sum())
        analytic = float((grads[name] * v).sum())
        base = p.data
        p.data = base + EPS * v
        hi = loss_value().item()
        p.data = base - EPS * v
        lo = loss_value().item()
        p.data = base
        numeric = (hi - lo) / (2 * EPS)
        # the floor sits well above central-difference roundoff noise
        # (~1e-11 for O(1) losses at eps 1e-5), so structurally-zero
        # directional derivatives compare as zero instead of as noise
        denom = max(abs(analytic), abs(numeric), 1e-6)
        err = abs(analytic - numeric) / denom
        rows.append(GradCheckRow(group=name, analytic=analytic, numeric=numeric,
                                 rel_err=err, passed=err < TOLERANCE))
    return rows


def run_gradcheck(seed: int = 0, weights: LossWeights | None = None) -> dict[str, list[GradCheckRow]]:
    """Finite-difference validation for each encoder kind; returns rows per kind."""
    weights = weights or LossWeights()
    report = {}
    for kind in KINDS:
        enc_cfg = EncoderConfig(kind=kind, d_h=D_H, depth=2, heads=4, kernel=3)
        model = Forecaster(enc_cfg, MOE, n_features=N_FEATURES, window=WINDOW, seed=seed)
        batches = _random_batches(np.random.default_rng(seed + 1))
        report[kind] = check_model(model, batches, weights, seed=seed + 2)
    return report
