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

DEFAULT_TOLERANCE = 1e-4


@dataclass
class GradCheckRow:
    group: str
    analytic: float
    numeric: float
    rel_err: float
    passed: bool


def _random_batches(rng: np.random.Generator, n_days: int, n_stocks: int, window: int, d: int):
    out = []
    for t in range(n_days):
        out.append(
            DayBatch(
                day=f"d{t:03d}",
                windows=rng.uniform(-1, 1, (n_stocks, window, d)),
                labels=rng.normal(scale=0.02, size=n_stocks),
                stock_ids=[f"s{i:03d}" for i in range(n_stocks)],
            )
        )
    return out


def check_model(model: Forecaster, batches: list[DayBatch], weights: LossWeights,
                eps: float = 1e-5, tolerance: float = DEFAULT_TOLERANCE,
                seed: int = 0, corrupt: str | None = None) -> list[GradCheckRow]:
    """One row per parameter group; ``corrupt`` perturbs that group's
    analytic gradient (negative-control hook for tests)."""

    def loss_value() -> Tensor:
        return day_loss(model, batches, weights)[0]

    model.zero_grad()
    loss_value().backward()
    grads = {}
    for name, p in model.named_parameters():
        g = p.grad if p.grad is not None else np.zeros_like(p.data)
        if corrupt is not None and name == corrupt:
            g = g + 0.1 * (np.abs(g).max() + 1.0)
        grads[name] = g

    rng = np.random.default_rng(seed)
    rows = []
    for name, p in model.named_parameters():
        v = rng.normal(size=p.data.shape)
        v /= np.sqrt((v * v).sum())
        analytic = float((grads[name] * v).sum())
        base = p.data
        p.data = base + eps * v
        hi = loss_value().item()
        p.data = base - eps * v
        lo = loss_value().item()
        p.data = base
        numeric = (hi - lo) / (2 * eps)
        # the floor sits well above central-difference roundoff noise
        # (~1e-11 for O(1) losses at eps 1e-5), so structurally-zero
        # directional derivatives compare as zero instead of as noise
        denom = max(abs(analytic), abs(numeric), 1e-6)
        err = abs(analytic - numeric) / denom
        rows.append(GradCheckRow(group=name, analytic=analytic, numeric=numeric,
                                 rel_err=err, passed=err < tolerance))
    return rows


def run_gradcheck(kinds: tuple[str, ...] = ("conv", "recurrent", "attention"),
                  groups: int = 3, experts_per_group: int = 3, top_k: int = 2,
                  d_h: int = 16, d_e: int = 8, window: int = 5, n_features: int = 4,
                  n_days: int = 2, n_stocks: int = 8, seed: int = 0,
                  weights: LossWeights | None = None, tolerance: float = DEFAULT_TOLERANCE,
                  corrupt: str | None = None) -> dict[str, list[GradCheckRow]]:
    """Finite-difference validation for each encoder kind; returns rows per kind."""
    weights = weights or LossWeights()
    report = {}
    for kind in kinds:
        enc_cfg = EncoderConfig(kind=kind, d_h=d_h, depth=2, heads=4, kernel=3)
        moe_cfg = MoEConfig(groups=groups, experts_per_group=experts_per_group,
                            top_k=top_k, d_e=d_e, agg_heads=4)
        model = Forecaster(enc_cfg, moe_cfg, n_features=n_features, window=window, seed=seed)
        batches = _random_batches(np.random.default_rng(seed + 1), n_days, n_stocks, window, n_features)
        report[kind] = check_model(model, batches, weights, tolerance=tolerance,
                                   seed=seed + 2, corrupt=corrupt)
    return report
