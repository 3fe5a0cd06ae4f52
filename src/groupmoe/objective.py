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


def _pearson(pred: np.ndarray, label: np.ndarray):
    """(IC, vjp) of one day, the population Pearson correlation of pred with
    the constant label.

    Both halves run the arithmetic of the composed graph (centre, mean
    product, clamped variances, sqrt, divide) op for op, so the value and
    the gradient keep its bytes: pred_c's gradient is the square's term
    plus the covariance's, and pred's is the centring's term plus the
    mean's broadcast, in the order a backward sweep adds them.
    """
    n = label.shape[0]
    label_c = label - label.mean()
    pred_c = pred - pred.mean(axis=(0,))
    cov = (pred_c * label_c).mean(axis=(0,))
    var_raw = (pred_c * pred_c).mean(axis=(0,))
    active = var_raw > VAR_EPS  # the clamp passes no gradient where it holds
    var_y = np.asarray(max(float(np.mean(label_c * label_c)), VAR_EPS))
    s = np.sqrt(np.where(active, var_raw, VAR_EPS) * var_y)

    def vjp(g):
        g_var = -g * cov / (s * s) * 0.5 / s * var_y * active
        g_pc = g_var / n * 2.0 * pred_c + g / s / n * label_c
        return g_pc + (-g_pc).sum() / n

    return cov / s, vjp


def daily_ic_tensor(pred: Tensor, label: np.ndarray) -> Tensor:
    """Differentiable per-day Pearson correlation; labels are constants. One tape node."""
    ic, vjp = _pearson(pred.data, label)
    return Tensor._result(ic, (pred,), lambda g: (vjp(g),))


def expert_loss(preds: list[Tensor], labels: list[np.ndarray]) -> Tensor:
    """Negative mean daily IC over the batch of days, as one tape node.

    Days with fewer than two stocks cannot define a cross-sectional
    correlation; they are skipped with a warning.
    """
    if len(preds) != len(labels):
        raise ValueError(f"{len(preds)} prediction days vs {len(labels)} label days")
    days, terms, vjps = [], [], []
    for pred, label in zip(preds, labels):
        if label.shape[0] < 2:
            log.warning("skipping day with %d stock(s) in expert loss", label.shape[0])
            continue
        ic, vjp = _pearson(pred.data, label)
        days.append(pred)
        terms.append(ic)
        vjps.append(vjp)
    if not terms:
        raise ValueError("no day with >= 2 stocks; expert loss undefined")
    acc = terms[0]
    for t in terms[1:]:
        acc = acc + t
    count = np.asarray(float(len(terms)))

    def vjp(g):
        g_day = -g / count
        return tuple(day_vjp(g_day) for day_vjp in vjps)

    return Tensor._result(-(acc / count), tuple(days), vjp)


def router_loss(logits_by_day: list[Tensor]) -> Tensor:
    """Sum over days, stocks of squared deviation of the G*E logits from
    their per-stock mean. Summed, not averaged; the small alpha carries
    the scale. One tape node; value and gradients keep the bytes of the
    composed centre, square and sum."""
    if not logits_by_day:
        raise ValueError("router loss needs at least one day of logits")
    centered, total = [], None
    for h in logits_by_day:
        flat = h.data.reshape(h.shape[0], -1)
        c = flat - flat.mean(axis=(1,), keepdims=True)
        term = (c * c).sum(axis=(0, 1))
        centered.append(c)
        total = term if total is None else total + term

    def vjp(g):
        grads = []
        for h, c in zip(logits_by_day, centered):
            g_c = g * 2.0 * c
            grads.append((g_c + (-g_c).sum(axis=1, keepdims=True) / c.shape[1]).reshape(h.shape))
        return tuple(grads)

    return Tensor._result(total, tuple(logits_by_day), vjp)


def total_loss(expert: Tensor, router: Tensor, weights: LossWeights) -> tuple[Tensor, LossBreakdown]:
    """beta * expert + alpha * router, one tape node, and its breakdown."""
    beta, alpha = np.asarray(weights.beta, dtype=np.float64), np.asarray(weights.alpha, dtype=np.float64)
    total = Tensor._result(beta * expert.data + alpha * router.data, (expert, router),
                           lambda g: (g * beta, g * alpha))
    breakdown = LossBreakdown(
        expert_loss=expert.item(),
        router_loss=router.item(),
        total=total.item(),
    )
    return total, breakdown
