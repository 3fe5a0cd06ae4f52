"""The benchmark's three workloads and the loop that times them.

Each workload builds its inputs from the workload seed, sets up
``SETUP_REPEATS`` times (``setup_s`` is the median), then repeats rounds of
work until the time budget is spent, timing every per-day operation and
every whole pass. Every output is checked; an operation that raises or a
check that fails counts as a failed operation.

The library is measured from outside, through its public calls. A traced
run first repeats untraced rounds for a third of the budget, then traced
rounds, in which spans recorded here wrap each call into a layer; the
difference between the two segments is the tracing overhead.
"""

from __future__ import annotations

import bisect
import contextlib
import hashlib
import math
import resource
import tempfile
import time
from collections import defaultdict
from dataclasses import dataclass, replace
from pathlib import Path

import numpy as np

from groupmoe import encoders as EN
from groupmoe import metrics as ME
from groupmoe import objective as OB
from groupmoe import panel as P
from groupmoe import synth as SY
from groupmoe import tensor as T
from groupmoe import train as TR
from groupmoe.encoders import EncoderConfig
from groupmoe.moe import Forecaster, MoEConfig
from groupmoe.objective import LossWeights

from tracing import Tracer

WINDOW = 5
NOISE_SIGMA = 0.3
SETUP_REPEATS = 5
MIN_DAY_SAMPLES = 100  # so that p90 has at least ten samples above it
FORWARD_PARTS = ("gate_forward", "run_experts", "aggregate", "readout_slots", "combine")

# per-layer metric -> (span whose self time it reports, scale to the unit, unit)
LAYER_TIMES = {
    "tensor.backward_ms": ("tensor.backward", 1e3, "ms"),
    "encoders.forward_ms": ("encoders.forward", 1e3, "ms"),
    "moe.gate_ms": ("moe.gate", 1e3, "ms"),
    "moe.experts_ms": ("moe.experts", 1e3, "ms"),
    "moe.agg_ms": ("moe.agg", 1e3, "ms"),
    "moe.readout_ms": ("moe.readout", 1e3, "ms"),
    "objective.loss_ms": ("objective.loss", 1e3, "ms"),
    "train.adam_ms": ("train.adam", 1e3, "ms"),
    "train.step_self_ms": ("train.step", 1e3, "ms"),
    "train.validation_ms": ("train.validation", 1e3, "ms"),
    "train.checkpoint_save_ms": ("train.checkpoint_save", 1e3, "ms"),
    "train.checkpoint_load_ms": ("train.checkpoint_load", 1e3, "ms"),
    "panel.save_csv_s": ("panel.save_csv", 1.0, "s"),
    "panel.load_csv_s": ("panel.load_csv", 1.0, "s"),
    "panel.normalize_s": ("panel.normalize", 1.0, "s"),
    "panel.split_s": ("panel.split", 1.0, "s"),
    "panel.slice_day_ms": ("panel.slice_day", 1e3, "ms"),
    "metrics.ranking_ms": ("metrics.ranking", 1e3, "ms"),
    "metrics.backtest_ms": ("metrics.backtest", 1e3, "ms"),
    "metrics.per_expert_s": ("metrics.per_expert", 1.0, "s"),
    "synth.generate_s": ("synth.generate", 1.0, "s"),
}


def span(tr: Tracer | None, name: str):
    return contextlib.nullcontext() if tr is None else tr.span(name)


class Checks:
    """Attempted operations and checks, and the ones that failed."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []

    def ok(self, passed: bool, what: str) -> bool:
        self.attempted += 1
        if not passed:
            self.failed += 1
            self.problems.append(what)
        return passed


def split_spec(n_days: int, val_start: float, test_start: float) -> P.SplitSpec:
    def day(frac):
        return f"d{round(frac * n_days):04d}"

    return P.SplitSpec((day(0), day(val_start)), (day(val_start), day(test_start)),
                       (day(test_start), f"d{n_days:04d}"))


def params_hash(model: Forecaster) -> str:
    h = hashlib.sha256()
    for name, p in model.named_parameters():
        h.update(name.encode())
        h.update(np.ascontiguousarray(p.data).tobytes())
    return h.hexdigest()[:16]


def valid_prediction(pred: np.ndarray, batch: P.DayBatch) -> bool:
    return pred.shape == (batch.n_stocks,) and bool(np.isfinite(pred).all())


# -- the model, layer by layer ---------------------------------------------------


def layered(model: Forecaster) -> bool:
    """True while the model exposes the forward pieces the trace spans wrap."""
    head = getattr(model, "head", None)
    return hasattr(EN, "HiddenStates") and all(hasattr(head, m) for m in FORWARD_PARTS)


def traced_forward(model: Forecaster, batch: P.DayBatch, tr: Tracer):
    """Forecaster.forward rebuilt from its pieces, one span per layer.

    Returns (prediction tensor, routing decision). A model without the
    pieces runs whole under one "forward" span, and its layer spans are
    reported absent.
    """
    if not layered(model):
        with tr.span("forward"):
            y_hat, decision, _ = model.forward(batch)
        return y_hat, decision
    head = model.head
    with tr.span("encoders.forward"):
        z = EN.HiddenStates(z=model.encoder(T.Tensor(batch.windows)), day=batch.day)
    with tr.span("moe.gate"):
        decision = head.gate_forward(z)
    with tr.span("moe.experts"):
        raw = head.run_experts(z)
    with tr.span("moe.agg"):
        mixed = head.aggregate(raw)
    with tr.span("moe.readout"):
        y_hat = head.combine(decision.weights, head.readout_slots(mixed))
    tr.count("moe.slots_selected", decision.selected.size)
    tr.count("moe.slots_computed", math.prod(raw.shape[:3]))
    return y_hat, decision


def same_forward(model: Forecaster, batch: P.DayBatch) -> bool:
    """The layer-by-layer composition reproduces Forecaster.forward bit for bit."""
    y_layers, _ = traced_forward(model, batch, Tracer())
    y_model, _, _ = model.forward(batch)
    return y_layers.data.tobytes() == y_model.data.tobytes()


def predict(model: Forecaster, batch: P.DayBatch, tr: Tracer | None) -> np.ndarray:
    if tr is None:
        return model.predict(batch)
    with tr.span("predict"):
        return traced_forward(model, batch, tr)[0].data.copy()


def traced_step(model, optimizer, batch, weights, tr: Tracer) -> None:
    """train.step for one day, rebuilt from its layers."""
    with tr.span("train.step"):
        y_hat, decision = traced_forward(model, batch, tr)
        with tr.span("objective.loss"):
            total, parts = OB.total_loss(OB.expert_loss([y_hat], [batch.labels]),
                                         OB.router_loss([decision.logits]), weights)
        if not np.isfinite(parts.total):
            raise TR.NumericalError(f"non-finite loss {parts.total} on day(s) {[batch.day]}")
        model.zero_grad()
        with tr.span("tensor.backward"):
            total.backward()
        for name, p in model.named_parameters():
            if p.grad is not None and not np.all(np.isfinite(p.grad)):
                raise TR.NumericalError(f"non-finite gradient in {name} on day(s) {[batch.day]}")
        with tr.span("train.adam"):
            optimizer.step()
    tr.count("tensor.graph_nodes", len(T.ComputationTape.trace(total).nodes))
    tr.count("train.steps")


# -- workloads -------------------------------------------------------------------


class Workload:
    name = ""
    day_op = ""  # sample series behind day_ms_p90
    pass_op = ""  # sample series behind pass_s_max
    series: dict[str, str] = {}  # every sample series and the unit it is printed in
    SIZE: dict = {}
    min_rounds = 1

    def __init__(self, seed: int, size: dict, tracer: Tracer | None):
        self.seed, self.size = seed, size
        self.tr = tracer  # the tracer while set-up and traced rounds run, else None
        self.samples: dict[str, list[float]] = defaultdict(list)
        self.checks = Checks()
        self.model: Forecaster | None = None
        self.rows = 0
        self.dropped_share = 0.0

    def generate(self, n_styles: int) -> P.StockPanel:
        cfg = SY.SynthConfig(n_stocks=self.size["n_stocks"], n_days=self.size["n_days"],
                             n_features=self.size["n_features"], n_styles=n_styles,
                             noise_sigma=NOISE_SIGMA, seed=self.seed)
        with span(self.tr, "synth.generate"):
            panel, _ = SY.generate(cfg)
        return panel

    def normalize(self, panel: P.StockPanel, interval) -> tuple[P.NormStats, P.StockPanel]:
        with span(self.tr, "panel.normalize"):
            stats = P.fit_normalization(panel, interval)
            return stats, P.apply_normalization(panel, stats)

    def timed(self, series: str, seconds: float) -> None:
        self.samples[series].append(seconds)

    def rounds(self, until: float, min_rounds: int, min_samples: int) -> int:
        done = 0
        while (done < min_rounds or time.perf_counter() < until
               or len(self.samples[self.day_op]) < min_samples):
            self.round()
            done += 1
        return done

    def after_setup(self) -> None:
        pass

    def round(self) -> None:
        raise NotImplementedError

    def finish(self) -> None:
        pass

    def notes(self) -> list[str]:
        return []


class DeskTrain(Workload):
    """The default model trained on a 3-style synthetic desk panel, one epoch per round.

    At 50 stocks per day, per-node Python overhead dominates: the work is
    in the backward sweep, inner-group attention and the Adam update.
    """

    name = "desk_train"
    day_op, pass_op = "train_step", "epoch"
    series = {"train_step": "ms", "predict_day": "ms", "epoch": "s"}
    # min_val_ic: the validation IC the model must reach after VAL_IC_EPOCHS
    # epochs at this size (0.73-0.75 measured over seeds 1-3).
    SIZE = {"n_stocks": 50, "n_days": 300, "n_features": 8, "min_val_ic": 0.5}
    VAL_IC_EPOCHS = 2
    REPLAY_DAYS = 16
    min_rounds = VAL_IC_EPOCHS

    def __init__(self, seed, size, tmp, tracer):
        super().__init__(seed, size, tracer)
        spec = split_spec(size["n_days"], 0.70, 0.85)
        _, normed = self.normalize(self.generate(n_styles=3), spec.train)
        with span(self.tr, "panel.split"):
            self.train_b, self.val_b, _ = P.split(normed, spec, WINDOW)
        self.cfg = TR.TrainConfig(seed=seed)
        self.weights = LossWeights()
        self.model, self.optimizer, self.order_rng = self.fresh()
        self.epochs = 0
        self.val_ic = math.nan
        self.hash_at_val = ""

    def fresh(self):
        """A seeded model, its optimizer, and train.train's day-shuffle stream."""
        model = Forecaster(EncoderConfig(), MoEConfig(), n_features=self.size["n_features"],
                           window=WINDOW, seed=self.cfg.seed)
        optimizer = TR.Adam(model.named_parameters(), lr=self.cfg.lr)
        return model, optimizer, np.random.default_rng(np.random.SeedSequence(self.cfg.seed).spawn(1)[0])

    def step(self, model, optimizer, batch, tr: Tracer | None) -> None:
        if tr is None:
            TR.step(model, [batch], optimizer, self.cfg, self.weights)
        else:
            traced_step(model, optimizer, batch, self.weights, tr)

    def round(self) -> None:
        t_epoch = time.perf_counter()
        for i in self.order_rng.permutation(len(self.train_b)):
            batch = self.train_b[i]
            err = None
            t0 = time.perf_counter()
            try:
                self.step(self.model, self.optimizer, batch, self.tr)
            except TR.NumericalError as e:
                err = e
            else:
                self.timed("train_step", time.perf_counter() - t0)
            self.checks.ok(err is None, f"train.step on {batch.day}: {err}")
        if self.tr is not None:
            self.checks.ok(same_forward(self.model, self.val_b[0]),
                           "layer-by-layer forward differs from Forecaster.forward")
        ics = []
        with span(self.tr, "train.validation"):
            for batch in self.val_b:
                t0 = time.perf_counter()
                pred = predict(self.model, batch, self.tr)
                self.timed("predict_day", time.perf_counter() - t0)
                if self.checks.ok(valid_prediction(pred, batch), f"prediction for {batch.day}") \
                        and batch.n_stocks >= 2:
                    ic = ME.daily_ic(pred, batch.labels)
                    if ic is not None:
                        ics.append(ic)
        self.timed("epoch", time.perf_counter() - t_epoch)
        self.epochs += 1
        if self.epochs == self.VAL_IC_EPOCHS:
            self.val_ic = float(np.mean(ics)) if ics else math.nan
            self.hash_at_val = params_hash(self.model)

    def finish(self) -> None:
        floor = self.size["min_val_ic"]
        self.checks.ok(self.val_ic >= floor,
                       f"val_ic {self.val_ic} after {self.VAL_IC_EPOCHS} epochs is below {floor}")
        # Same seed, same bytes: train.train and this benchmark's own step
        # loop (traced in a traced run) must reach identical parameters.
        days = self.train_b[: self.REPLAY_DAYS]
        reference, _, _ = self.fresh()
        TR.train(reference, days, self.val_b, replace(self.cfg, max_epochs=1, patience=1), self.weights)
        own, optimizer, order = self.fresh()
        tr = None if self.tr is None else Tracer()
        for i in order.permutation(len(days)):
            self.step(own, optimizer, days[i], tr)
        self.checks.ok(params_hash(own) == params_hash(reference),
                       "train.train and the benchmark's step loop end with different parameters")

    def notes(self) -> list[str]:
        return [f"val_ic {self.val_ic!r} after {self.VAL_IC_EPOCHS} epochs (floor {self.size['min_val_ic']})",
                f"params_sha256 {self.hash_at_val} after {self.VAL_IC_EPOCHS} epochs; {self.epochs} epochs run"]


class WideEval(Workload):
    """A seeded default model, saved and reloaded, evaluated over the test days of a
    wide universe: forward only, at a large cross-section."""

    name = "wide_eval"
    day_op, pass_op = "predict_day", "eval"
    series = {"predict_day": "ms", "eval": "s"}
    SIZE = {"n_stocks": 800, "n_days": 40, "n_features": 158}
    MODE, FRACTION = "long_only", 0.05

    def __init__(self, seed, size, tmp, tracer):
        super().__init__(seed, size, tracer)
        spec = split_spec(size["n_days"], 0.2, 0.3)
        norm, normed = self.normalize(self.generate(n_styles=3), spec.train)
        with span(self.tr, "panel.split"):
            _, _, self.test_b = P.split(normed, spec, WINDOW)
        self.built = Forecaster(EncoderConfig(), MoEConfig(), n_features=size["n_features"],
                                window=WINDOW, seed=seed)
        path = tmp / "checkpoint.npz"
        with span(self.tr, "train.checkpoint_save"):
            TR.save_checkpoint(self.built, path, norm=norm)
        with span(self.tr, "train.checkpoint_load"):
            self.model, _ = TR.load_checkpoint(path)
        self.first_report = None

    def after_setup(self) -> None:
        for batch in self.test_b[:2]:
            self.checks.ok(self.model.predict(batch).tobytes() == self.built.predict(batch).tobytes(),
                           f"reloaded checkpoint predicts {batch.day} unlike the in-memory model")
        self.built = None

    def evaluate(self):
        if self.tr is None:
            return (ME.evaluate_model(self.model, self.test_b, mode=self.MODE, fraction=self.FRACTION),
                    ME.per_expert_report(self.model, self.test_b, mode=self.MODE, fraction=self.FRACTION))
        tr = self.tr
        with tr.span("metrics.evaluate"):
            preds = [predict(self.model, b, tr) for b in self.test_b]
            with tr.span("metrics.ranking"):
                ranking = ME.ranking_for_predictions(preds, self.test_b)
            with tr.span("metrics.backtest"):
                portfolio = ME.backtest(self.test_b, predictions=preds, mode=self.MODE, fraction=self.FRACTION)
        with tr.span("metrics.per_expert"):
            grid = ME.per_expert_report(self.model, self.test_b, mode=self.MODE, fraction=self.FRACTION)
        return ME.EvalReport(subset="all", ranking=ranking, portfolio=portfolio), grid

    def round(self) -> None:
        preds = []
        for batch in self.test_b:
            t0 = time.perf_counter()
            pred = predict(self.model, batch, self.tr)
            self.timed("predict_day", time.perf_counter() - t0)
            self.checks.ok(valid_prediction(pred, batch), f"prediction for {batch.day}")
            preds.append(pred)
        if self.tr is not None:
            self.checks.ok(same_forward(self.model, self.test_b[0]),
                           "layer-by-layer forward differs from Forecaster.forward")
        t0 = time.perf_counter()
        report, grid = self.evaluate()
        self.timed("eval", time.perf_counter() - t0)
        cfg = self.model.moe_cfg
        self.checks.ok(len(grid) == cfg.groups
                       and all(len(row) == cfg.experts_per_group for row in grid)
                       and all(math.isfinite(r.ar) for row in grid for r in row),
                       "per_expert_report is not a G x E grid of finite reports")
        key = (report.row(), report.ranking.ic_series, report.ranking.rank_ic_series,
               report.portfolio.excess_series, report.portfolio.turnover_series)
        if self.first_report is None:
            self.first_report = key
            self.checks.ok(self.matches_reference(report, preds),
                           "evaluate_model disagrees with the reference IC / excess return")
        else:
            self.checks.ok(key == self.first_report, "evaluate_model changed between identical passes")

    def matches_reference(self, report, preds) -> bool:
        """Daily IC and long-only excess return, computed directly with numpy."""
        if len(report.ranking.ic_series) != len(self.test_b):
            return False
        for pred, batch, ic, excess in zip(preds, self.test_b, report.ranking.ic_series,
                                           report.portfolio.excess_series):
            top = np.argsort(-pred, kind="stable")[: math.ceil(self.FRACTION * len(pred))]
            if ic is None or abs(ic - np.corrcoef(pred, batch.labels)[0, 1]) > 1e-9:
                return False
            if abs(excess - (batch.labels[top].mean() - batch.labels.mean())) > 1e-12:
                return False
        return True


class PanelIngest(Workload):
    """A synthetic panel with seeded missingness written to CSV, then loaded,
    normalized and split: panel code only, no model."""

    name = "panel_ingest"
    day_op, pass_op = "slice_day", "write_and_ingest"
    series = {"slice_day": "ms", "panel_write": "s", "ingest": "s", "write_and_ingest": "s"}
    SIZE = {"n_stocks": 300, "n_days": 600, "n_features": 16}
    # Missingness rates, drawn from the workload seed.
    NAN_CELL_RATE = 0.001  # single feature cells
    NAN_PRICE_RATE = 0.005  # price missing, features present
    ABSENT_RATE = 0.01  # whole stock-day absent: no CSV row
    SLICES_PER_ROUND = 60

    def __init__(self, seed, size, tmp, tracer):
        super().__init__(seed, size, tracer)
        panel = self.generate(n_styles=1)
        rng = np.random.default_rng([seed, 1])
        features, prices = panel.features, panel.prices
        features[rng.random(features.shape) < self.NAN_CELL_RATE] = np.nan
        prices[rng.random(prices.shape) < self.NAN_PRICE_RATE] = np.nan
        absent = rng.random(prices.shape) < self.ABSENT_RATE
        features[absent] = np.nan
        prices[absent] = np.nan
        self.panel = P.StockPanel(stocks=panel.stocks, days=panel.days, features=features, prices=prices)
        self.rows = int((~(np.isnan(prices) & np.isnan(features).all(axis=2))).sum())
        self.spec = split_spec(size["n_days"], 0.70, 0.85)
        self.csv = tmp / "panel.csv"
        self.slice_rng = np.random.default_rng([seed, 2])

    def round(self) -> None:
        t0 = time.perf_counter()
        with span(self.tr, "panel.save_csv"):
            P.save_csv(self.panel, self.csv)
        t1 = time.perf_counter()
        with span(self.tr, "panel.load_csv"):
            loaded = P.load_csv(self.csv)
        _, normed = self.normalize(loaded, self.spec.train)
        with span(self.tr, "panel.split"):
            streams = P.split(normed, self.spec, WINDOW)
        t2 = time.perf_counter()
        self.timed("panel_write", t1 - t0)
        self.timed("ingest", t2 - t1)
        self.timed("write_and_ingest", t2 - t0)

        self.checks.ok(count_rows(self.csv) == self.rows, f"save_csv did not write {self.rows} rows")
        self.checks.ok(same_panel(loaded, self.panel), "load_csv(save_csv(panel)) differs from the panel")
        expected, eligible = reference_split(normed, self.spec)
        self.checks.ok(all(same_stream(s, e, normed) for s, e in zip(streams, expected)),
                       "split differs from the reference split")
        kept = sum(len(rows) for stream in expected for rows, _ in stream.values())
        self.dropped_share = 1.0 - kept / (len(normed.stocks) * eligible)

        by_day = {b.day: b for stream in streams for b in stream}
        days = sorted(by_day)
        for i in self.slice_rng.choice(len(days), size=min(self.SLICES_PER_ROUND, len(days)), replace=False):
            t0 = time.perf_counter()
            with span(self.tr, "panel.slice_day"):
                batch = P.slice_day(normed, days[i], WINDOW)
            self.timed("slice_day", time.perf_counter() - t0)
            self.checks.ok(same_batch(batch, by_day[days[i]]), f"slice_day({days[i]}) differs from split")

    def notes(self) -> list[str]:
        return [f"split dropped {self.dropped_share!r} of eligible stock-days",
                f"csv rows {self.rows}"]


def count_rows(path: Path) -> int:
    with open(path, "rb") as fh:
        return sum(chunk.count(b"\n") for chunk in iter(lambda: fh.read(1 << 20), b"")) - 1


def same_panel(a: P.StockPanel, b: P.StockPanel) -> bool:
    """Equal indices, and equal price and feature bytes (NaN included)."""
    return (a.stocks == b.stocks and a.days == b.days
            and a.prices.shape == b.prices.shape and a.features.shape == b.features.shape
            and a.prices.tobytes() == b.prices.tobytes() and a.features.tobytes() == b.features.tobytes())


def same_batch(a: P.DayBatch, b: P.DayBatch) -> bool:
    return (a.day == b.day and a.stock_ids == b.stock_ids
            and a.windows.tobytes() == b.windows.tobytes() and a.labels.tobytes() == b.labels.tobytes())


def reference_split(panel: P.StockPanel, spec: P.SplitSpec):
    """panel.split recomputed with array operations.

    Returns, per stream, {day: (kept stock rows in id order, labels)}, and
    the number of eligible days. A day is eligible when it lies in the
    interval, has WINDOW prior days, and its label horizon t+2 does not
    pass the interval's end; a stock is kept when its whole window is
    observed and both forward prices exist.
    """
    obs = ~(np.isnan(panel.prices) | np.isnan(panel.features).any(axis=2))
    seen = np.concatenate([np.zeros((obs.shape[0], 1), dtype=np.int64), np.cumsum(obs, axis=1)], axis=1)
    order = np.argsort(np.asarray(panel.stocks, dtype=object), kind="stable")
    n_days = len(panel.days)
    streams, eligible = [], 0
    for lo, hi in (spec.train, spec.validation, spec.test):
        end = bisect.bisect_left(panel.days, hi)
        stream = {}
        for t, day in enumerate(panel.days):
            if not lo <= day < hi or t < WINDOW or t + 2 > end or t + 2 >= n_days:
                continue
            eligible += 1
            p1, p2 = panel.prices[:, t + 1], panel.prices[:, t + 2]
            keep = (seen[:, t + 1] - seen[:, t + 1 - WINDOW] == WINDOW) & ~np.isnan(p1) & ~np.isnan(p2)
            rows = order[keep[order]]
            if rows.size:
                stream[day] = (rows, (p2[rows] - p1[rows]) / p1[rows])
        streams.append(stream)
    return streams, eligible


def same_stream(stream: list[P.DayBatch], expected: dict, panel: P.StockPanel) -> bool:
    if [b.day for b in stream] != list(expected):
        return False
    for b in stream:
        rows, labels = expected[b.day]
        t = panel.day_index(b.day)
        if (b.stock_ids != [panel.stocks[i] for i in rows] or b.labels.tobytes() != labels.tobytes()
                or b.windows.tobytes() != panel.features[rows, t - WINDOW + 1 : t + 1].tobytes()):
            return False
    return True


WORKLOADS = {cls.name: cls for cls in (DeskTrain, WideEval, PanelIngest)}


# -- one run ---------------------------------------------------------------------


@dataclass
class Result:
    metrics: dict[str, tuple[float, str]]  # name -> (value, unit)
    attempted: int
    failed: int
    lines: list[str]  # human-readable report


def percentile_ms(samples: list[float], q: float) -> float:
    return float(np.percentile(samples, q)) * 1e3


def run(name: str, seed: int, seconds: float, trace: bool, workdir: Path, size: dict | None = None) -> Result:
    cls = WORKLOADS[name]
    tracer = Tracer() if trace else None
    workdir.mkdir(parents=True, exist_ok=True)
    with tempfile.TemporaryDirectory(dir=workdir) as tmp:
        setup_s = []
        work = None
        for _ in range(SETUP_REPEATS):
            work = None  # release the previous set-up before building the next
            t0 = time.perf_counter()
            work = cls(seed, size or cls.SIZE, Path(tmp), tracer)
            setup_s.append(time.perf_counter() - t0)
        work.after_setup()
        start = time.perf_counter()
        baseline = None
        if trace:
            work.tr = None
            done = work.rounds(until=start + seconds / 3, min_rounds=1, min_samples=0)
            baseline, work.samples = work.samples, defaultdict(list)
            work.tr = tracer
            work.rounds(until=start + seconds, min_rounds=max(1, cls.min_rounds - done), min_samples=0)
        else:
            work.rounds(until=start + seconds, min_rounds=cls.min_rounds, min_samples=MIN_DAY_SAMPLES)
        work.finish()

    # The bounded figures are tails: on a shared host whose speed switches
    # between a fast and a ~1.6x slower state every few seconds, medians
    # follow the share of time spent in each state, while p90 and the
    # slowest pass sit in the slow state in almost every run. Medians are
    # printed, not bounded.
    day, whole = work.samples[cls.day_op], work.samples[cls.pass_op]
    end_to_end = {
        "day_ms_p90": (percentile_ms(day, 90), "ms"),
        "pass_s_max": (max(whole), "s"),
        "setup_s": (float(np.median(setup_s)), "s"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
    }
    lines = [f"{key} = {value!r} {unit}" for key, (value, unit) in end_to_end.items()]
    lines[0] += f"  ({cls.day_op}_ms_p90, n={len(day)})"
    lines[1] += f"  (slowest {cls.pass_op}, n={len(whole)})"
    lines[2] += f"  (median of {len(setup_s)} set-ups)"
    for series, unit in cls.series.items():
        values = work.samples[series]
        if unit == "ms":
            lines.append(f"{series}_ms_p50 = {percentile_ms(values, 50)!r} ms, "
                         f"{series}_ms_p90 = {percentile_ms(values, 90)!r} ms (n={len(values)})")
        else:
            lines.append(f"{series}_s = {float(np.median(values))!r} s median, "
                         f"{max(values)!r} s max (n={len(values)})")
    lines += work.notes()
    checks = work.checks
    lines.append(f"failed_share = {checks.failed / checks.attempted!r} "
                 f"({checks.failed} of {checks.attempted} operations and checks)")
    lines += [f"FAILED: {p}" for p in checks.problems[:10]]

    metrics = end_to_end
    if trace:
        metrics = layer_metrics(work, tracer, baseline)
        absent = [] if work.model is None or layered(work.model) else \
            ["encoders.forward_ms", "moe.gate_ms", "moe.experts_ms", "moe.agg_ms", "moe.readout_ms"]
        idle = [k for k, (v, _) in metrics.items() if v == 0 and k not in absent]
        lines.append(f"absent layer spans: {absent}")
        lines.append(f"layers this workload does not exercise (reported as 0): {idle}")
        tracer.write(workdir / f"trace-{name}-seed{seed}.json")
    return Result(metrics=metrics, attempted=checks.attempted, failed=checks.failed, lines=lines)


def layer_metrics(work: Workload, tracer: Tracer, baseline: dict) -> dict[str, tuple[float, str]]:
    out = {}
    self_times = tracer.self_times()
    for metric, (span_name, scale, unit) in LAYER_TIMES.items():
        total, n = self_times.get(span_name, (0.0, 0))
        out[metric] = (total / n * scale if n else 0.0, unit)
    counts = tracer.counts
    steps = counts.get("train.steps", 0)
    computed = counts.get("moe.slots_computed", 0)
    params = [name for name, _ in work.model.named_parameters()] if work.model is not None else []
    traced_day = np.median(work.samples[work.day_op])
    untraced_day = np.median(baseline[work.day_op])
    out.update({
        "tensor.graph_nodes": (counts.get("tensor.graph_nodes", 0) / steps if steps else 0.0, "count"),
        "moe.param_tensors": (float(sum(name.startswith("moe.") for name in params)), "count"),
        "moe.slot_use_ratio": (counts.get("moe.slots_selected", 0) / computed if computed else 0.0, "ratio"),
        "train.param_tensors": (float(len(params)), "count"),
        "panel.csv_rows": (float(work.rows), "count"),
        "panel.dropped_share": (work.dropped_share, "ratio"),
        "trace.overhead_pct": (float(100.0 * (traced_day / untraced_day - 1.0)), "%"),
    })
    return out
