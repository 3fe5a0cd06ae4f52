"""Training losses.

Expert loss: negative mean daily cross-sectional Pearson correlation
between predictions and labels (population statistics, equal weight per
day). Router loss: summed squared deviation of each stock's gate logits
from their own mean, pushing the router away from degenerate spiky
allocations. The total is their weighted combination.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass

import numpy as np

from . import tensor as T
from .tensor import Tensor

log = logging.getLogger(__name__)

# lower clamp on the per-day variances; keeps degenerate days bounded
# without disturbing healthy days (exactness of the +-1 endpoints and
# affine invariance would not survive an additive guard)
VAR_EPS = 1e-8


@dataclass
class LossWeights:
    alpha: float = 2e-3  # router loss coefficient
    beta: float = 1.0  # expert loss coefficient

    def validate(self) -> list[str]:
        problems = []
        if self.alpha < 0:
            problems.append(f"loss.alpha must be >= 0, got {self.alpha}")
        if self.beta <= 0:
            problems.append(f"loss.beta must be > 0, got {self.beta}")
        return problems


@dataclass
class LossBreakdown:
    expert_loss: float
    router_loss: float
    total: float


def daily_ic_tensor(pred: Tensor, label: np.ndarray) -> Tensor:
    """Differentiable per-day Pearson correlation; labels are constants."""
    n = label.shape[0]
    label_c = label - label.mean()
    pred_c = T.sub(pred, T.tmean(pred))
    cov = T.tmean(T.mul(pred_c, T.Tensor(label_c)))
    var_p = T.clamp_min(T.tmean(T.square(pred_c)), VAR_EPS)
    var_y = max(float(np.mean(label_c * label_c)), VAR_EPS)
    return T.div(cov, T.sqrt(T.mul(var_p, T.Tensor(var_y))))


def expert_loss(preds: list[Tensor], labels: list[np.ndarray]) -> Tensor:
    """Negative mean daily IC over the batch of days.

    Days with fewer than two stocks cannot define a cross-sectional
    correlation; they are skipped with a warning.
    """
    if len(preds) != len(labels):
        raise ValueError(f"{len(preds)} prediction days vs {len(labels)} label days")
    terms = []
    for pred, label in zip(preds, labels):
        if label.shape[0] < 2:
            log.warning("skipping day with %d stock(s) in expert loss", label.shape[0])
            continue
        terms.append(daily_ic_tensor(pred, label))
    if not terms:
        raise ValueError("no day with >= 2 stocks; expert loss undefined")
    acc = terms[0]
    for t in terms[1:]:
        acc = T.add(acc, t)
    return T.neg(T.div(acc, T.Tensor(float(len(terms)))))


def router_loss(logits_by_day: list[Tensor]) -> Tensor:
    """Sum over days, stocks of squared deviation of the G*E logits from
    their per-stock mean. Summed, not averaged; the small alpha carries
    the scale."""
    total = None
    for h in logits_by_day:
        n = h.shape[0]
        flat = T.reshape(h, (n, -1))
        centered = T.sub(flat, T.tmean(flat, axis=1, keepdims=True))
        term = T.tsum(T.square(centered))
        total = term if total is None else T.add(total, term)
    if total is None:
        raise ValueError("router loss needs at least one day of logits")
    return total


def total_loss(expert: Tensor, router: Tensor, weights: LossWeights) -> tuple[Tensor, LossBreakdown]:
    total = T.add(T.mul(T.Tensor(weights.beta), expert), T.mul(T.Tensor(weights.alpha), router))
    breakdown = LossBreakdown(
        expert_loss=expert.item(),
        router_loss=router.item(),
        total=total.item(),
    )
    return total, breakdown
