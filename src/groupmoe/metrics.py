"""Ranking metrics, portfolio construction, and the daily backtester.

Conventions: population statistics throughout; 252 trading days per year;
the excess benchmark is the equal-weight mean return of each day's
tradable universe; a None value is the explicit "undefined" marker for
degenerate days (fewer than two stocks, zero variance, all ties) and is
excluded from aggregation with its count reported.
"""

from __future__ import annotations

import math
from collections import Counter
from dataclasses import dataclass

import numpy as np

from .panel import DayBatch
from .tensor import top_k_mask

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


def _weights(signals: np.ndarray, mode: str, fraction: float, day: str | None) -> np.ndarray:
    """[S, N] positions, row s built from signal s as ``build_portfolio`` says.

    Each leg is picked for every row at once by ``top_k_mask``; a day is named
    in the errors when ``day`` is given.
    """
    where = "" if day is None else f"day {day}: "
    if mode not in ("long_only", "long_short"):
        raise ValueError(f"unknown portfolio mode {mode!r}")
    if not 0.0 < fraction <= 1.0:
        raise ValueError(f"{where}portfolio fraction {fraction!r} is outside (0, 1]")
    n_signals, n = signals.shape
    if n == 0:
        raise ValueError(f"{where}empty day: cannot build a portfolio")
    finite = np.isfinite(signals).all(axis=1)
    if not finite.all():
        raise ValueError(f"{where}signal {int(np.argmin(finite))} has a non-finite value")
    n_leg = math.ceil(fraction * n)
    weights = np.zeros((n_signals, n))
    weights[top_k_mask(signals, n_leg)] += 1.0 / n_leg
    if mode == "long_short":
        weights[top_k_mask(-signals, n_leg)] -= 1.0 / n_leg
    return weights


def build_portfolio(pred: np.ndarray, mode: str = "long_only", fraction: float = 0.05) -> np.ndarray:
    """Equal-weight position vector over the day's stocks.

    Long leg: top ceil(fraction*N) by prediction (ties to the lower
    index, i.e. the lexicographically first stock id), weights 1/n_long.
    long_short adds a -1/n_short leg on the bottom ceil(fraction*N); the
    legs are financed independently and sum to +1 / -1. ``fraction``
    must lie in (0, 1] and every prediction must be finite.
    """
    return _weights(np.asarray(pred, dtype=np.float64)[None], mode, fraction, None)[0]


def backtest_signals(
    batches: list[DayBatch],
    signals: list[np.ndarray],
    mode: str = "long_only",
    fraction: float = 0.05,
) -> list[PortfolioReport]:
    """Daily-rebalanced portfolios of S signals over one DayBatch stream.

    ``signals`` holds one [S, N] array per batch, row s holding signal s
    for the batch's stocks; report s is the backtest of row s alone.
    Labels already carry the one-day execution lag, so no extra shift
    happens here. Excess is versus the equal-weight universe mean; no
    transaction costs. Turnover is half the absolute change of the
    positions over the union of two consecutive days' stocks.
    """
    if len(signals) != len(batches):
        raise ValueError(f"{len(signals)} signal days vs {len(batches)} batches")
    if not batches:
        raise InsufficientDataError("a backtest needs at least one day")
    n_signals = len(signals[0])
    excess, turnover = [], []
    prev_cols: dict[str, int] = {}
    prev_w = np.zeros((n_signals, 0))
    for batch, sig in zip(batches, signals):
        sig = np.asarray(sig, dtype=np.float64)
        if sig.shape != (n_signals, batch.n_stocks):
            raise ValueError(f"day {batch.day}: signals of shape {sig.shape} for"
                             f" {n_signals} signals over {batch.n_stocks} stocks")
        cols = dict(zip(batch.stock_ids, range(batch.n_stocks)))
        if len(cols) != batch.n_stocks:
            repeated = next(s for s, c in Counter(batch.stock_ids).items() if c > 1)
            raise ValueError(f"day {batch.day}: stock id {repeated!r} appears more than once")
        w = _weights(sig, mode, fraction, batch.day)
        bench = float(batch.labels.mean())
        # one 1-D dot per signal: a matrix-vector product sums in another order
        excess.append([float(row @ batch.labels) - bench for row in w])
        # yesterday's stocks keep their columns; today's new ones follow
        union = dict(prev_cols)
        at = [union.setdefault(s, len(union)) for s in batch.stock_ids]
        change = np.zeros((n_signals, len(union)))
        change[:, at] = w
        change[:, : len(prev_cols)] -= prev_w
        # fsum: correctly rounded, so no order of the stocks can reach the bytes
        turnover.append([0.5 * math.fsum(row) for row in np.abs(change).tolist()])
        prev_cols, prev_w = cols, w
    return [_report(list(ex), list(to), mode, fraction) for ex, to in zip(zip(*excess), zip(*turnover))]


def _report(excess: list[float], turnover: list[float], mode: str, fraction: float) -> PortfolioReport:
    arr = np.asarray(excess)
    ar = float(arr.mean() * TRADING_DAYS)
    std = float(arr.std())
    ir = None if std == 0.0 else ar / (std * math.sqrt(TRADING_DAYS))
    return PortfolioReport(
        ar=ar, ir=ir, excess_series=excess, turnover_series=turnover, mode=mode, fraction=fraction
    )


def backtest(
    batches: list[DayBatch],
    predictions: list[np.ndarray],
    mode: str = "long_only",
    fraction: float = 0.05,
) -> PortfolioReport:
    """``backtest_signals`` of one signal: ``predictions`` holds one array
    per batch, aligned to its stocks."""
    return backtest_signals(batches, [np.asarray(p)[None] for p in predictions], mode, fraction)[0]


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
    slots = [model.predict_per_slot(b) for b in batches]  # [N, G, E] per day
    # each day's [G*E, N] view has slot j*E + k in row j*E + k
    reports = backtest_signals(batches, [s.reshape(len(s), -1).T for s in slots], mode, fraction)
    e = slots[0].shape[2]
    return [reports[j : j + e] for j in range(0, len(reports), e)]


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
