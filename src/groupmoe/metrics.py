"""Ranking metrics, portfolio construction, and the daily backtester.

Conventions: population statistics throughout; 252 trading days per year;
the excess benchmark is the equal-weight mean return of each day's
tradable universe; a None value is the explicit "undefined" marker for
degenerate days (fewer than two stocks, zero variance, all ties) and is
excluded from aggregation with its count reported.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .panel import DayBatch

TRADING_DAYS = 252


class InsufficientDataError(ValueError):
    pass


@dataclass
class RankingReport:
    ic: float
    rank_ic: float
    icir: float | None
    rank_icir: float | None
    ic_series: list[float | None]
    rank_ic_series: list[float | None]
    n_undefined: int = 0

    def row(self) -> dict:
        return {
            "IC": self.ic,
            "ICIR": self.icir,
            "RankIC": self.rank_ic,
            "RankICIR": self.rank_icir,
        }


@dataclass
class PortfolioReport:
    ar: float
    ir: float | None
    excess_series: list[float]
    turnover_series: list[float]
    mode: str
    fraction: float

    def row(self) -> dict:
        return {"AR": self.ar, "IR": self.ir}


@dataclass
class EvalReport:
    subset: str
    ranking: RankingReport
    portfolio: PortfolioReport

    def row(self) -> dict:
        out = {"subset": self.subset}
        out.update(self.ranking.row())
        out.update(self.portfolio.row())
        return out


# -- daily correlations -----------------------------------------------------


def daily_ic(pred: np.ndarray, label: np.ndarray) -> float | None:
    """Population Pearson correlation for one day; None when degenerate
    (fewer than two stocks, or no variance in either series)."""
    pred = np.asarray(pred, dtype=np.float64)
    label = np.asarray(label, dtype=np.float64)
    if pred.shape != label.shape or pred.ndim != 1:
        raise ValueError(f"daily_ic: shapes {pred.shape} vs {label.shape}")
    if pred.shape[0] < 2:
        return None
    pc = pred - pred.mean()
    lc = label - label.mean()
    vp = float((pc * pc).mean())
    vl = float((lc * lc).mean())
    if vp == 0.0 or vl == 0.0:
        return None
    return float((pc * lc).mean() / math.sqrt(vp * vl))


def average_ranks(x: np.ndarray) -> np.ndarray:
    """1-based ranks; tied values all receive the mean of their ranks."""
    x = np.asarray(x)
    n = x.shape[0]
    order = np.argsort(x, kind="stable")
    sorted_x = x[order]
    # A run of ties starts wherever a sorted value differs from the one
    # before it; NaN equals nothing, so every NaN is a run of its own.
    starts = np.flatnonzero(np.concatenate(([True], sorted_x[1:] != sorted_x[:-1])))
    ends = np.append(starts[1:], n) - 1
    ranks = np.empty(n, dtype=np.float64)
    ranks[order] = np.repeat((starts + ends) / 2.0 + 1.0, ends - starts + 1)
    return ranks


def daily_rank_ic(pred: np.ndarray, label: np.ndarray) -> float | None:
    """Spearman correlation: Pearson of mean-rank transforms."""
    return daily_ic(average_ranks(pred), average_ranks(label))


def aggregate_ranking(ic_series: list[float | None], rank_ic_series: list[float | None]) -> RankingReport:
    """Means and mean/std ratios over the valid days of both series."""
    valid_ic = [v for v in ic_series if v is not None]
    valid_rank = [v for v in rank_ic_series if v is not None]
    if len(valid_ic) < 2 or len(valid_rank) < 2:
        raise InsufficientDataError(
            f"need >= 2 valid days, got {len(valid_ic)} IC / {len(valid_rank)} RankIC"
        )

    def ratio(series):
        arr = np.asarray(series)
        std = float(arr.std())
        return None if std == 0.0 else float(arr.mean() / std)

    n_undef = sum(v is None for v in ic_series) + sum(v is None for v in rank_ic_series)
    return RankingReport(
        ic=float(np.mean(valid_ic)),
        rank_ic=float(np.mean(valid_rank)),
        icir=ratio(valid_ic),
        rank_icir=ratio(valid_rank),
        ic_series=list(ic_series),
        rank_ic_series=list(rank_ic_series),
        n_undefined=n_undef,
    )


# -- portfolios --------------------------------------------------------------


def build_portfolio(pred: np.ndarray, mode: str = "long_only", fraction: float = 0.05) -> np.ndarray:
    """Equal-weight position vector over the day's stocks.

    Long leg: top ceil(fraction*N) by prediction (ties to the lower
    index, i.e. the lexicographically first stock id), weights 1/n_long.
    long_short adds a -1/n_short leg on the bottom ceil(fraction*N); the
    legs are financed independently and sum to +1 / -1.
    """
    if mode not in ("long_only", "long_short"):
        raise ValueError(f"unknown portfolio mode {mode!r}")
    pred = np.asarray(pred, dtype=np.float64)
    n = pred.shape[0]
    if n == 0:
        raise ValueError("empty day: cannot build a portfolio")
    n_leg = math.ceil(fraction * n)
    order = np.argsort(-pred, kind="stable")
    weights = np.zeros(n)
    weights[order[:n_leg]] += 1.0 / n_leg
    if mode == "long_short":
        order_asc = np.argsort(pred, kind="stable")
        weights[order_asc[:n_leg]] -= 1.0 / n_leg
    return weights


def backtest(
    batches: list[DayBatch],
    predictions: list[np.ndarray],
    mode: str = "long_only",
    fraction: float = 0.05,
) -> PortfolioReport:
    """Daily-rebalanced portfolio over a DayBatch stream.

    ``predictions`` holds one array per batch, aligned to its stocks.
    Labels already carry the one-day execution lag, so no extra shift
    happens here. Excess is versus the equal-weight universe mean; no
    transaction costs.
    """
    if len(predictions) != len(batches):
        raise ValueError(f"{len(predictions)} prediction days vs {len(batches)} batches")
    excess, turnover = [], []
    prev: dict[str, float] = {}
    for batch, pred in zip(batches, predictions):
        pred = np.asarray(pred)
        if pred.shape[0] != batch.n_stocks:
            raise ValueError(
                f"day {batch.day}: {pred.shape[0]} predictions for {batch.n_stocks} stocks"
            )
        w = build_portfolio(pred, mode=mode, fraction=fraction)
        ret = float(w @ batch.labels)
        bench = float(batch.labels.mean())
        excess.append(ret - bench)
        book = dict(zip(batch.stock_ids, w))
        names = set(book) | set(prev)
        # fsum: correctly rounded, so the set's hash order cannot reach the bytes
        turnover.append(0.5 * math.fsum(abs(book.get(s, 0.0) - prev.get(s, 0.0)) for s in names))
        prev = book
    if not excess:
        raise InsufficientDataError("backtest needs at least one day")
    arr = np.asarray(excess)
    ar = float(arr.mean() * TRADING_DAYS)
    std = float(arr.std())
    ir = None if std == 0.0 else ar / (std * math.sqrt(TRADING_DAYS))
    return PortfolioReport(
        ar=ar, ir=ir, excess_series=excess, turnover_series=turnover, mode=mode, fraction=fraction
    )


# -- whole-model evaluation -----------------------------------------------------


def ranking_for_predictions(predictions: list[np.ndarray], batches: list[DayBatch]) -> RankingReport:
    """Aggregate IC and RankIC over the days of a stream."""
    days = list(zip(predictions, batches))
    ic_series = [daily_ic(p, b.labels) for p, b in days]
    rank_series = [daily_rank_ic(p, b.labels) for p, b in days]
    return aggregate_ranking(ic_series, rank_series)


def evaluate_model(model, batches: list[DayBatch], mode: str = "long_only", fraction: float = 0.05) -> EvalReport:
    predictions = [model.predict(b) for b in batches]
    return EvalReport(
        subset="all",
        ranking=ranking_for_predictions(predictions, batches),
        portfolio=backtest(batches, predictions=predictions, mode=mode, fraction=fraction),
    )


def per_expert_report(model, batches: list[DayBatch], mode: str = "long_only",
                      fraction: float = 0.05) -> list[list[PortfolioReport]]:
    """[G][E] grid of backtests, each slot's readout used alone as the signal."""
    slot_preds = [model.predict_per_slot(b) for b in batches]  # [N, G, E] per day
    g, e = slot_preds[0].shape[1], slot_preds[0].shape[2]
    grid = []
    for j in range(g):
        row = []
        for k in range(e):
            preds = [sp[:, j, k] for sp in slot_preds]
            row.append(backtest(batches, predictions=preds, mode=mode, fraction=fraction))
        grid.append(row)
    return grid


def subset_batches(batches: list[DayBatch], panel, tag: str) -> list[DayBatch]:
    """Restrict every batch to the stocks whose membership equals ``tag``."""
    if panel.membership is None:
        raise ValueError("panel has no membership tags")
    out = []
    s_idx = {s: i for i, s in enumerate(panel.stocks)}
    for b in batches:
        d = panel.day_index(b.day)
        keep = [i for i, s in enumerate(b.stock_ids) if str(panel.membership[s_idx[s], d]) == tag]
        if len(keep) < 2:
            continue
        out.append(
            DayBatch(
                day=b.day,
                windows=b.windows[keep],
                labels=b.labels[keep],
                stock_ids=[b.stock_ids[i] for i in keep],
            )
        )
    return out


def discrete_mutual_information(a: np.ndarray, b: np.ndarray) -> float:
    """MI in nats between two discrete label arrays of equal length."""
    a = np.asarray(a)
    b = np.asarray(b)
    if a.shape != b.shape:
        raise ValueError("mutual information needs equal-length labels")
    n = a.shape[0]
    mi = 0.0
    for av in np.unique(a):
        for bv in np.unique(b):
            p_ab = np.mean((a == av) & (b == bv))
            if p_ab == 0.0:
                continue
            p_a = np.mean(a == av)
            p_b = np.mean(b == bv)
            mi += p_ab * math.log(p_ab / (p_a * p_b))
    return mi
