"""Stock panel data model: ingestion, labels, day slicing, temporal splits.

A panel is a dense (stock, day) grid of prices and feature vectors with
missing observations held as NaN, never silent zeros. Day identifiers are
opaque strings ordered lexicographically (ISO dates recommended). Labels
follow the two-day-forward return convention: the label of day t is the
relative price move from t+1 to t+2, so execution happens at t+1 prices.
"""

from __future__ import annotations

import bisect
import csv
import io
import json
import math
from array import array
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np


class PanelError(ValueError):
    """Malformed input data (bad rows, duplicate keys, bad prices)."""


class ConfigError(ValueError):
    """Invalid split or schema configuration."""


class InsufficientHistoryError(ValueError):
    """Requested day has fewer prior days than the window needs."""


@dataclass
class StockPanel:
    """Dense feature/price panel indexed by (stock, day).

    features: [n_stocks, n_days, n_features], prices: [n_stocks, n_days];
    NaN marks a missing observation. membership optionally tags each
    (stock, day) cell with a benchmark-subset label for per-subset reports.
    """

    stocks: list[str]
    days: list[str]
    features: np.ndarray
    prices: np.ndarray
    membership: np.ndarray | None = None

    def __post_init__(self):
        n, d = len(self.stocks), len(self.days)
        if self.features.shape[:2] != (n, d) or self.prices.shape != (n, d):
            raise PanelError(
                f"index mismatch: {n} stocks x {d} days vs features {self.features.shape},"
                f" prices {self.prices.shape}"
            )
        if any(a >= b for a, b in zip(self.days, self.days[1:])):
            raise PanelError("days must be strictly increasing")

    @property
    def n_features(self) -> int:
        return self.features.shape[2]

    def observed(self) -> np.ndarray:
        """Boolean [n_stocks, n_days]: price and full feature vector present."""
        return _observed(self.prices, self.features)

    def day_index(self, day: str) -> int:
        t = bisect.bisect_left(self.days, day)
        if t == len(self.days) or self.days[t] != day:
            raise KeyError(f"day {day!r} not in panel")
        return t


def _observed(prices: np.ndarray, features: np.ndarray) -> np.ndarray:
    return ~(np.isnan(prices) | np.isnan(features).any(axis=2))


@dataclass
class DayBatch:
    """One cross-section: complete feature windows plus labels for day t."""

    day: str
    windows: np.ndarray  # [N_t, T, D]
    labels: np.ndarray  # [N_t]
    stock_ids: list[str]

    def __post_init__(self):
        if self.windows.shape[0] != len(self.stock_ids) or self.labels.shape != (len(self.stock_ids),):
            raise PanelError("DayBatch row count mismatch")
        if not np.all(np.isfinite(self.labels)):
            raise PanelError(f"non-finite label in batch for day {self.day}")

    @property
    def n_stocks(self) -> int:
        return len(self.stock_ids)


@dataclass
class SplitSpec:
    """Half-open [start, end) day-identifier intervals, train < val < test."""

    train: tuple[str, str]
    validation: tuple[str, str]
    test: tuple[str, str]

    def validate(self) -> list[str]:
        problems = []
        for name, (lo, hi) in (("train", self.train), ("validation", self.validation), ("test", self.test)):
            if lo >= hi:
                problems.append(f"split.{name}: empty or inverted interval [{lo}, {hi})")
        if self.train[1] > self.validation[0]:
            problems.append("split: train overlaps or follows validation")
        if self.validation[1] > self.test[0]:
            problems.append("split: validation overlaps or follows test")
        return problems


@dataclass
class NormStats:
    """Per-feature z-score statistics, fitted on the train interval only."""

    mean: np.ndarray
    std: np.ndarray

    def to_dict(self) -> dict:
        return {"mean": self.mean.tolist(), "std": self.std.tolist()}

    @classmethod
    def from_dict(cls, d: dict) -> "NormStats":
        return cls(np.asarray(d["mean"], dtype=np.float64), np.asarray(d["std"], dtype=np.float64))


def slice_day(panel: StockPanel, day: str, window: int) -> DayBatch:
    """Cross-section for one day: stocks with complete windows and labels.

    The window covers the ``window`` days ending at t inclusive; t must
    have at least ``window`` prior days. Stocks are ordered by identifier.
    """
    t = panel.day_index(day)
    if t < window:
        raise InsufficientHistoryError(
            f"day {day!r} at index {t} has fewer than {window} prior days"
        )
    lo = t - window + 1
    if t + 2 >= len(panel.days):  # the label horizon lies past the panel: no stock has a label
        return DayBatch(day=day, windows=np.empty((0, window, panel.n_features)), labels=np.empty(0), stock_ids=[])
    complete = _observed(panel.prices[:, lo : t + 1], panel.features[:, lo : t + 1]).all(axis=1)
    order = _id_order(panel.stocks)
    p1, p2 = panel.prices[order, t + 1], panel.prices[order, t + 2]
    return _day_batch(panel, t, window, complete[order] & ~(np.isnan(p1) | np.isnan(p2)), p1, p2, order)


def _id_order(stocks: list[str]) -> np.ndarray:
    return np.argsort(np.asarray(stocks, dtype=object), kind="stable")


def _day_batch(panel: StockPanel, t: int, window: int, keep: np.ndarray, p1: np.ndarray, p2: np.ndarray,
               order: np.ndarray) -> DayBatch:
    """Batch for day index t. Rows follow ``order``, the stocks' identifier
    order, and so do ``keep`` (whole window observed, both label prices
    present) and the label prices ``p1`` and ``p2`` (at t + 1 and t + 2);
    a kept stock whose base price p1 is not positive is an error."""
    bad = np.flatnonzero(keep & (p1 <= 0))
    if bad.size:
        raise PanelError(f"non-positive price {p1[bad[0]]} of stock {panel.stocks[order[bad[0]]]}"
                         f" on day {panel.days[t + 1]} (label of day {panel.days[t]})")
    rows = order[keep]
    return DayBatch(day=panel.days[t], windows=panel.features[rows, t - window + 1 : t + 1],
                    labels=((p2[keep] - p1[keep]) / p1[keep]).astype(np.float64, copy=False),
                    stock_ids=[panel.stocks[s] for s in rows.tolist()])


def _boundary_index(days: list[str], ident: str) -> int:
    """Number of panel days strictly before ``ident``."""
    return bisect.bisect_left(days, ident)


def _split_days(days: list[str], interval: tuple[str, str], window: int) -> range:
    """Indices t of the eligible batch days of ``interval`` (see days_in_split)."""
    start, end = interval
    end_idx = _boundary_index(days, end)
    return range(max(_boundary_index(days, start), window), min(end_idx - 1, len(days) - 2))


def days_in_split(panel: StockPanel, interval: tuple[str, str], window: int) -> list[str]:
    """Eligible batch days: in [start, end), enough history, and label
    horizon t+2 not reaching past the interval's end boundary."""
    return [panel.days[t] for t in _split_days(panel.days, interval, window)]


def split(panel: StockPanel, spec: SplitSpec, window: int) -> tuple[list[DayBatch], list[DayBatch], list[DayBatch]]:
    """Slice the panel into train/validation/test DayBatch streams."""
    problems = spec.validate()
    if problems:
        raise ConfigError("; ".join(problems))
    # seen[:, i] counts the observed days before index i, so a stock's
    # window ending at t is complete when seen[:, t+1] - seen[:, t+1-window]
    # equals the window length.
    obs = panel.observed()
    seen = np.zeros((obs.shape[0], obs.shape[1] + 1), dtype=np.int64)
    np.cumsum(obs, axis=1, out=seen[:, 1:])
    order = _id_order(panel.stocks)
    streams = []
    for interval in (spec.train, spec.validation, spec.test):
        days = _split_days(panel.days, interval, window)  # every day's label horizon lies inside the panel
        ts = np.arange(days.start, days.stop)
        # the label prices and masks of all the stream's days at once, [days, stocks in identifier order]
        p1, p2 = panel.prices[order, (ts + 1)[:, None]], panel.prices[order, (ts + 2)[:, None]]
        complete = (seen[:, ts + 1] - seen[:, ts + 1 - window] == window).T[:, order]
        keep = complete & ~(np.isnan(p1) | np.isnan(p2))
        batches = [_day_batch(panel, t, window, k, a, b, order) for t, k, a, b in zip(ts.tolist(), keep, p1, p2)]
        streams.append([b for b in batches if b.n_stocks > 0])
    return streams[0], streams[1], streams[2]


def fit_normalization(panel: StockPanel, train_interval: tuple[str, str]) -> NormStats:
    """Per-feature mean/std over observed train-interval cells."""
    lo, hi = train_interval
    cols = [i for i, d in enumerate(panel.days) if lo <= d < hi]
    if not cols:
        raise ConfigError(f"no panel days inside train interval [{lo}, {hi})")
    block = panel.features[:, cols, :]  # [n_stocks, n_train_days, D]
    flat = block.reshape(-1, panel.n_features)
    ok = ~np.isnan(flat).any(axis=1)
    if not ok.any():
        raise ConfigError("train interval has no fully observed feature rows")
    sample = flat[ok]
    with np.errstate(over="ignore", invalid="ignore"):  # an overflow shows as a non-finite statistic
        mean = sample.mean(axis=0)
        std = sample.std(axis=0)
    bad = np.flatnonzero(~(np.isfinite(mean) & np.isfinite(std)))
    if bad.size:
        i = int(bad[0])
        raise ConfigError(f"feature f_{i}: train-interval mean {mean[i]} and std {std[i]} are not both finite;"
                          " its values are too large to normalize")
    std = np.where(std < 1e-12, 1.0, std)
    return NormStats(mean=mean, std=std)


def apply_normalization(panel: StockPanel, stats: NormStats) -> StockPanel:
    if stats.mean.shape[0] != panel.n_features:
        raise ConfigError(
            f"normalization is for {stats.mean.shape[0]} features, panel has {panel.n_features}"
        )
    with np.errstate(over="ignore"):  # an overflow shows as an infinite value; NaN stays "missing"
        features = (panel.features - stats.mean) / stats.std
    # fmin and fmax skip NaN, and two reductions allocate no panel-sized mask
    lo, hi = (op.reduce(features, axis=None, initial=0.0) for op in (np.fmin, np.fmax))
    if np.isinf(lo) or np.isinf(hi):
        s, t, f = np.argwhere(np.isinf(features))[0].tolist()
        raise PanelError(f"feature f_{f} of stock {panel.stocks[s]} on day {panel.days[t]}: the value"
                         f" {float(panel.features[s, t, f])!r} normalizes to {float(features[s, t, f])}")
    return StockPanel(
        stocks=panel.stocks,
        days=panel.days,
        features=features,
        prices=panel.prices,
        membership=panel.membership,
    )


# -- CSV interchange ------------------------------------------------------------
#
# Long format, UTF-8, mandatory header: stock_id,day,price,f_0,...,f_{D-1}.
# Missing values are empty fields; a non-finite literal (inf, -inf, nan,
# or one that overflows, such as 1e999) is refused. A sidecar
# <name>.meta.json records the feature count, day range, and stock count.


# An empty field parses to a NaN with its own payload, which no float
# literal produces, so a missing value and a "nan" literal stay apart.
_EMPTY_BITS = np.uint64(0x7FF8_0000_0000_E117)
_EMPTY = float(_EMPTY_BITS.view(np.float64))


def load_csv(path: str | Path) -> StockPanel:
    path = Path(path)
    with open(path, newline="", encoding="utf-8") as fh:
        reader = csv.reader(fh)
        try:
            header = next(reader)
        except StopIteration:
            raise PanelError(f"{path}: empty file, header row is mandatory") from None
        if header[:3] != ["stock_id", "day", "price"]:
            raise PanelError(f"{path}: header must start with stock_id,day,price, got {header[:3]}")
        feat_cols = header[3:]
        if feat_cols != [f"f_{i}" for i in range(len(feat_cols))]:
            raise PanelError(f"{path}: feature columns must be f_0..f_{{D-1}}, got {feat_cols}")
        d_feat = len(feat_cols)

        # values holds each row's price and features back to back, with
        # _EMPTY for an empty field; keys and lines hold the rows' (stock,
        # day) keys and line numbers in file order.
        values = array("d")
        keys: dict[tuple[str, str], None] = {}
        lines = array("q")
        for row in reader:
            lineno = reader.line_num  # the last physical line of the row
            if not row:
                continue
            if len(row) != 3 + d_feat:
                raise PanelError(f"{path}:{lineno}: expected {3 + d_feat} fields, got {len(row)}")
            stock, day = row[0], row[1]
            if not stock or not day:
                raise PanelError(f"{path}:{lineno}: empty stock_id or day")
            try:
                values.fromlist([float(v) if v != "" else _EMPTY for v in row[2:]])
            except ValueError as e:
                raise PanelError(f"{path}:{lineno}: {e}") from None
            key = (stock, day)
            if key in keys:
                raise PanelError(f"{path}:{lineno}: duplicate (stock, day) key {key}")
            keys[key] = None
            lines.append(lineno)

    stocks = sorted({k[0] for k in keys})
    days = sorted({k[1] for k in keys})
    s_idx = {s: i for i, s in enumerate(stocks)}
    d_idx = {d: i for i, d in enumerate(days)}
    si = np.fromiter((s_idx[s] for s, _ in keys), dtype=np.intp, count=len(keys))
    di = np.fromiter((d_idx[d] for _, d in keys), dtype=np.intp, count=len(keys))
    cells = np.frombuffer(values, dtype=np.float64).reshape(len(keys), 1 + d_feat)
    literal = ~np.isfinite(cells)
    literal &= cells.view(np.uint64) != _EMPTY_BITS
    if literal.any():
        r, c = np.argwhere(literal)[0]
        raise PanelError(f"{path}:{lines[r]}: column {header[2 + c]} holds the non-finite value {float(cells[r, c])!r};"
                         " a missing value is an empty field")
    features = np.full((len(stocks), len(days), d_feat), np.nan)
    prices = np.full((len(stocks), len(days)), np.nan)
    prices[si, di] = cells[:, 0]
    features[si, di] = cells[:, 1:]
    for a in (prices, features):  # the empty fields' NaNs become numpy's own
        a[np.isnan(a)] = np.nan
    return StockPanel(stocks=stocks, days=days, features=features, prices=prices)


def save_csv(panel: StockPanel, path: str | Path) -> None:
    """Write the panel plus its sidecar metadata file."""
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    d_feat = panel.n_features
    # The bytes of csv.writer's default dialect: ids and days quoted by
    # csv itself, numbers as repr, a missing value as an empty field.
    days = [_csv_field(d) for d in panel.days]
    # A stock-day is written unless its price and every feature are missing.
    present = ~(np.isnan(panel.prices) & np.isnan(panel.features).all(axis=2))
    with open(path, "w", newline="", encoding="utf-8") as fh:
        fh.write(",".join(["stock_id", "day", "price"] + [f"f_{i}" for i in range(d_feat)]) + "\r\n")
        for s, stock in enumerate(panel.stocks):
            cols = np.flatnonzero(present[s])
            block = np.concatenate((panel.prices[s, cols, None], panel.features[s, cols]), axis=1, dtype=np.float64)
            cells = block.tolist()
            rows = [",".join(map(repr, vals)) for vals in cells]
            for r in np.flatnonzero(np.isnan(block).any(axis=1)).tolist():
                rows[r] = ",".join("" if math.isnan(v) else repr(v) for v in cells[r])
            head = _csv_field(stock) + ","
            fh.write("".join(f"{head}{days[d]},{row}\r\n" for d, row in zip(cols.tolist(), rows)))
    meta = {
        "n_features": d_feat,
        "first_day": panel.days[0],
        "last_day": panel.days[-1],
        "n_stocks": len(panel.stocks),
    }
    sidecar(path).write_text(json.dumps(meta, indent=2, sort_keys=True) + "\n", encoding="utf-8")


def _csv_field(text: str) -> str:
    """One string field as csv.writer writes it (quoted where it must be)."""
    buf = io.StringIO()
    csv.writer(buf).writerow([text, ""])
    return buf.getvalue()[:-3]


def sidecar(csv_path: str | Path) -> Path:
    p = Path(csv_path)
    return p.with_suffix(p.suffix + ".meta.json")
