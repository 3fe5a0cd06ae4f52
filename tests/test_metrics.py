import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from groupmoe import metrics as M
from groupmoe.encoders import EncoderConfig
from groupmoe.moe import Forecaster, MoEConfig
from groupmoe.panel import DayBatch


def pearson_oracle(a, b):
    # textbook population formula, written out
    n = len(a)
    ma = sum(a) / n
    mb = sum(b) / n
    cov = sum((x - ma) * (y - mb) for x, y in zip(a, b)) / n
    va = sum((x - ma) ** 2 for x in a) / n
    vb = sum((y - mb) ** 2 for y in b) / n
    return cov / math.sqrt(va * vb)


def mean_ranks_oracle(x):
    # brute force: rank of v = average position of equal values, 1-based
    out = []
    for v in x:
        positions = [i + 1 for i, u in enumerate(sorted(x)) if u == v]
        out.append(sum(positions) / len(positions))
    return out


# -- daily_ic ------------------------------------------------------------------


def test_daily_ic_perfect_and_inverted():
    assert M.daily_ic(np.array([1.0, 2, 3]), np.array([1.0, 2, 3])) == pytest.approx(1.0)
    assert M.daily_ic(np.array([1.0, 2, 3]), np.array([3.0, 2, 1])) == pytest.approx(-1.0)


def test_daily_ic_half_case():
    got = M.daily_ic(np.array([1.0, 2, 3]), np.array([2.0, 1, 3]))
    assert got == pytest.approx(0.5, abs=1e-12)
    assert got == pytest.approx(pearson_oracle([1, 2, 3], [2, 1, 3]), abs=1e-12)


def test_daily_ic_degenerate_marker():
    assert M.daily_ic(np.array([1.0, 1.0, 1.0]), np.array([1.0, 2, 3])) is None


@pytest.mark.parametrize("n", [0, 1])
def test_daily_ic_fewer_than_two_stocks_is_undefined(n):
    pred, label = np.arange(n, dtype=np.float64), np.arange(n, dtype=np.float64)
    assert M.daily_ic(pred, label) is None
    assert M.daily_rank_ic(pred, label) is None


def test_daily_ic_affine_invariance_and_sign(rng):
    a = rng.normal(size=20)
    b = rng.normal(size=20)
    base = M.daily_ic(a, b)
    assert abs(M.daily_ic(2.5 * a + 3, b) - base) < 1e-10
    assert abs(M.daily_ic(a, 0.1 * b - 7) - base) < 1e-10
    assert abs(M.daily_ic(-a, b) + base) < 1e-10


def test_daily_ic_random_against_oracle(rng):
    for _ in range(200):
        n = int(rng.integers(2, 30))
        a = rng.normal(size=n)
        b = rng.normal(size=n)
        assert abs(M.daily_ic(a, b) - pearson_oracle(list(a), list(b))) < 1e-10


# -- daily_rank_ic -----------------------------------------------------------------


def test_rank_ic_monotone_transforms():
    label = np.array([1.0, 4.0, 9.0])
    assert M.daily_rank_ic(np.array([10.0, 20.0, 30.0]), label) == pytest.approx(1.0)
    assert M.daily_rank_ic(np.exp(label), label) == pytest.approx(1.0)
    # strictly increasing function of pred leaves the value unchanged exactly
    pred = np.array([0.3, -1.2, 0.8, 0.1])
    lab = np.array([1.0, 0.0, 2.0, 5.0])
    assert M.daily_rank_ic(pred, lab) == M.daily_rank_ic(np.tanh(pred) * 3 + 1, lab)


def test_rank_ic_tie_case_matches_mean_rank_oracle():
    pred = np.array([1.0, 1.0, 2.0])
    label = np.array([1.0, 2.0, 3.0])
    want = pearson_oracle(mean_ranks_oracle([1.0, 1.0, 2.0]), mean_ranks_oracle([1.0, 2.0, 3.0]))
    assert M.daily_rank_ic(pred, label) == pytest.approx(want, abs=1e-12)


def test_rank_ic_all_tied_marker():
    assert M.daily_rank_ic(np.array([2.0, 2.0, 2.0]), np.array([1.0, 2.0, 3.0])) is None


def test_average_ranks_random_against_oracle(rng):
    for _ in range(200):
        n = int(rng.integers(2, 15))
        x = rng.integers(0, 5, size=n).astype(float)  # force ties
        assert np.allclose(M.average_ranks(x), mean_ranks_oracle(list(x)))


def average_ranks_loop(x):
    """The tie-walking loop average_ranks used to run, kept as an oracle."""
    x = np.asarray(x)
    n = x.shape[0]
    order = np.argsort(x, kind="stable")
    ranks = np.empty(n, dtype=np.float64)
    sorted_x = x[order]
    i = 0
    while i < n:
        j = i
        while j + 1 < n and sorted_x[j + 1] == sorted_x[i]:
            j += 1
        ranks[order[i : j + 1]] = (i + j) / 2.0 + 1.0
        i = j + 1
    return ranks


def test_average_ranks_bit_identical_to_loop(rng):
    nan = np.nan
    cases = [
        [], [7.0], [3.0, 3.0, 3.0, 3.0], [2.0, 1.0, 2.0, 0.0, 1.0, 2.0],
        [nan], [nan, nan], [1.0, nan, 1.0, nan, -1.0], [0.0, -0.0, 0.0, 5.0],
        [np.inf, -np.inf, np.inf, 1.0, nan],
    ]
    cases += [rng.integers(0, 4, size=int(rng.integers(0, 40))).astype(float) for _ in range(100)]
    cases += [np.where(rng.random(30) < 0.2, nan, rng.normal(size=30)) for _ in range(20)]
    cases += [rng.integers(-3, 3, size=25)]
    for x in cases:
        x = np.asarray(x)
        got, want = M.average_ranks(x), average_ranks_loop(x)
        assert got.dtype == want.dtype and got.shape == want.shape
        assert got.tobytes() == want.tobytes(), x


# -- aggregate_ranking ----------------------------------------------------------------


def test_aggregate_constant_series_undefined_icir():
    rep = M.aggregate_ranking([0.05, 0.05], [0.05, 0.05])
    assert rep.icir is None and rep.rank_icir is None
    assert rep.ic == pytest.approx(0.05)


def test_aggregate_symmetric_series():
    rep = M.aggregate_ranking([0.1, -0.1], [0.1, -0.1])
    assert rep.ic == pytest.approx(0.0)
    assert rep.icir == pytest.approx(0.0)


def test_aggregate_random_against_two_pass_oracle(rng):
    series = list(rng.normal(size=30))
    rep = M.aggregate_ranking(series, series)
    mean = sum(series) / 30
    var = sum((v - mean) ** 2 for v in series) / 30
    assert abs(rep.ic - mean) < 1e-12
    assert abs(rep.icir - mean / math.sqrt(var)) < 1e-10


def test_aggregate_insufficient_days():
    with pytest.raises(M.InsufficientDataError):
        M.aggregate_ranking([0.1], [0.1])
    with pytest.raises(M.InsufficientDataError):
        M.aggregate_ranking([0.1, None], [0.1, 0.2])


def test_aggregate_counts_undefined():
    rep = M.aggregate_ranking([0.1, None, 0.2], [0.3, 0.1, None])
    assert rep.n_undefined == 2


# -- build_portfolio ------------------------------------------------------------------


def test_portfolio_hundred_stocks_long_only(rng):
    pred = rng.normal(size=100)
    w = M.build_portfolio(pred, "long_only", 0.05)
    assert np.count_nonzero(w) == 5
    assert np.allclose(w[w > 0], 0.2)
    assert w.sum() == pytest.approx(1.0, abs=1e-12)


def test_portfolio_ten_stocks_long_short(rng):
    pred = rng.normal(size=10)
    w = M.build_portfolio(pred, "long_short", 0.05)
    assert np.isclose(w.max(), 1.0) and np.isclose(w.min(), -1.0)
    assert np.count_nonzero(w) == 2
    assert w[np.argmax(pred)] == 1.0 and w[np.argmin(pred)] == -1.0


def test_portfolio_matches_sort_oracle(rng):
    for _ in range(200):
        n = int(rng.integers(1, 60))
        frac = float(rng.uniform(0.02, 0.3))
        pred = np.round(rng.normal(size=n), 1)  # rounding forces ties
        w = M.build_portfolio(pred, "long_short", frac)
        n_leg = math.ceil(frac * n)
        order = sorted(range(n), key=lambda i: (-pred[i], i))
        longs = set(order[:n_leg])
        order_asc = sorted(range(n), key=lambda i: (pred[i], i))
        shorts = set(order_asc[:n_leg])
        want = np.zeros(n)
        for i in longs:
            want[i] += 1.0 / n_leg
        for i in shorts:
            want[i] -= 1.0 / n_leg
        assert np.allclose(w, want, atol=1e-12)
        longsum = w[w > 0].sum() if (longs - shorts) else None
        if longs.isdisjoint(shorts):
            assert abs(w[list(longs)].sum() - 1.0) < 1e-12
            assert abs(w[list(shorts)].sum() + 1.0) < 1e-12


def test_portfolio_tie_break_by_position():
    w = M.build_portfolio(np.array([1.0, 1.0, 1.0, 0.0]), "long_only", 0.25)
    assert w.tolist() == [1.0, 0.0, 0.0, 0.0]


def test_portfolio_empty_day_rejected():
    with pytest.raises(ValueError):
        M.build_portfolio(np.array([]), "long_only")


# -- backtest --------------------------------------------------------------------------


def ledger_batches():
    # 3 stocks x 4 days, labels chosen for hand computation
    days = ["d1", "d2", "d3", "d4"]
    labels = [
        np.array([0.02, -0.01, 0.03]),
        np.array([-0.02, 0.01, 0.00]),
        np.array([0.05, 0.04, -0.03]),
        np.array([0.00, 0.02, 0.01]),
    ]
    preds = [
        np.array([0.5, 0.1, 0.9]),  # long C
        np.array([0.2, 0.2, 0.2]),  # three-way tie -> long A
        np.array([0.9, 0.8, 0.1]),  # long A
        np.array([0.1, 0.9, 0.5]),  # long B
    ]
    batches = [
        DayBatch(day=d, windows=np.zeros((3, 2, 1)), labels=y, stock_ids=["A", "B", "C"])
        for d, y in zip(days, labels)
    ]
    return batches, preds


def test_backtest_hand_ledger_long_only():
    batches, preds = ledger_batches()
    rep = M.backtest(batches, predictions=preds, mode="long_only", fraction=0.05)
    # day 1: hold C: ret 0.03, mean 0.04/3 -> excess 0.03 - 0.0133.. = 1/60
    # day 2: tie -> hold A: ret -0.02, mean -1/300 -> excess -1/60
    # day 3: hold A: ret 0.05, mean 0.02 -> excess 0.03
    # day 4: hold B: ret 0.02, mean 0.01 -> excess 0.01
    want = [1 / 60, -1 / 60, 3 / 100, 1 / 100]
    assert np.allclose(rep.excess_series, want, atol=1e-15)
    assert rep.ar == pytest.approx(252 * 0.01, abs=1e-12)
    var = ((1 / 150) ** 2 + (2 / 75) ** 2 + (1 / 50) ** 2 + 0.0) / 4
    assert rep.ir == pytest.approx(252 * 0.01 / (math.sqrt(var) * math.sqrt(252)), abs=1e-10)
    # turnover: establish C (1.0); C->A (1.0); A->A (0.0); A->B (1.0)
    assert np.allclose(rep.turnover_series, [0.5, 1.0, 0.0, 1.0])



TURNOVER_SCRIPT = """
import numpy as np
from groupmoe import metrics as M
from groupmoe.panel import DayBatch
rng = np.random.default_rng(0)
batches, preds = [], []
for d in range(30):
    n = int(rng.integers(30, 61))
    ids = [f"s{j}" for j in rng.choice(80, n, replace=False)]
    batches.append(DayBatch(day=f"d{d:02d}", windows=np.zeros((n, 1, 1)), labels=rng.normal(size=n),
                            stock_ids=ids))
    preds.append(rng.normal(size=n))
print(np.array(M.backtest(batches, preds).turnover_series).tobytes().hex())
"""


def test_backtest_turnover_bytes_independent_of_hash_seed():
    # the turnover sums run over a set of stock ids, whose order follows string hashing
    src = str(Path(M.__file__).resolve().parents[1])
    out = []
    for seed in ("0", "1", "2"):
        env = dict(os.environ, PYTHONHASHSEED=seed, PYTHONPATH=src)
        proc = subprocess.run([sys.executable, "-c", TURNOVER_SCRIPT], env=env, capture_output=True,
                              text=True, timeout=120, check=True)
        out.append(proc.stdout)
    assert out[0] == out[1] == out[2]


def test_backtest_hand_ledger_long_short():
    batches, preds = ledger_batches()
    rep = M.backtest(batches, predictions=preds, mode="long_short", fraction=0.05)
    # short leg: day1 B (-(-0.01)), day2 A (tie: lowest pred index first
    # ascending -> A), day3 C, day4 A
    # day1: +0.03 - (-0.01) = 0.04; day2: A long and A short cancel -> 0.0
    # day3: 0.05 - (-0.03) = 0.08; day4: 0.02 - 0.00 = 0.02
    rets = [0.04, 0.0, 0.08, 0.02]
    mean = [0.04 / 3, -1 / 300, 0.02, 0.01]
    want = [r - m for r, m in zip(rets, mean)]
    assert np.allclose(rep.excess_series, want, atol=1e-15)


def test_backtest_oracle_foresight_positive_ar(rng):
    batches = []
    for t in range(12):
        y = rng.normal(scale=0.02, size=20)
        batches.append(DayBatch(day=f"d{t:02d}", windows=np.zeros((20, 2, 1)), labels=y,
                                stock_ids=[f"s{i:02d}" for i in range(20)]))
    rep = M.backtest(batches, predictions=[b.labels for b in batches], mode="long_only")
    assert rep.ar > 0


def test_backtest_constant_predictions_deterministic(rng):
    batches = []
    for t in range(6):
        y = rng.normal(scale=0.02, size=10)
        batches.append(DayBatch(day=f"d{t}", windows=np.zeros((10, 2, 1)), labels=y,
                                stock_ids=[f"s{i}" for i in range(10)]))
    preds = [np.zeros(10) for _ in batches]
    rep1 = M.backtest(batches, predictions=preds)
    rep2 = M.backtest(batches, predictions=preds)
    assert rep1.excess_series == rep2.excess_series
    # ties resolve to the id-ordered head of the list
    first_day_ret = batches[0].labels[0] - batches[0].labels.mean()
    assert rep1.excess_series[0] == pytest.approx(first_day_ret)


def test_backtest_misaligned_predictions_rejected(rng):
    batches, preds = ledger_batches()
    with pytest.raises(ValueError):
        M.backtest(batches, predictions=[p[:2] for p in preds])
    with pytest.raises(ValueError):
        M.backtest(batches, predictions=preds[:2])


# -- the matrix backtester against the per-signal loop -----------------------------


def portfolio_oracle(pred, mode, fraction):
    """The 1-D build_portfolio of before the matrix backtester."""
    n = pred.shape[0]
    n_leg = math.ceil(fraction * n)
    weights = np.zeros(n)
    weights[np.argsort(-pred, kind="stable")[:n_leg]] += 1.0 / n_leg
    if mode == "long_short":
        weights[np.argsort(pred, kind="stable")[:n_leg]] -= 1.0 / n_leg
    return weights


@pytest.mark.parametrize("mode", ["long_only", "long_short"])
@pytest.mark.parametrize("fraction", [0.05, 0.1, 0.25, 0.5, 0.9, 1.0])
def test_weights_bytes_equal_stable_argsort(rng, mode, fraction):
    # rows of few distinct values (heavy ties), with +0.0 and -0.0 mixed in,
    # and rows whose leg boundary falls inside a run of exact ties
    heavy = rng.integers(-2, 3, size=(40, 37)).astype(np.float64)
    heavy[heavy == 0] = np.where(rng.random(int((heavy == 0).sum())) < 0.5, -0.0, 0.0)
    n = 20
    boundary = np.tile(np.arange(n, dtype=np.float64), (8, 1))
    n_leg = math.ceil(fraction * n)
    for row in boundary:  # each leg's last value repeated on both sides of its edge
        high, low = np.sort(row)[::-1][n_leg - 1], np.sort(row)[n_leg - 1]
        spots = rng.choice(n, size=6, replace=False)
        row[spots[:3]], row[spots[3:]] = high, low
        rng.shuffle(row)
    for signals in (heavy, boundary, rng.normal(size=(5, 801)), np.zeros((3, 7)), rng.normal(size=(2, 1))):
        got = M._weights(signals, mode, fraction, None)
        want = np.array([portfolio_oracle(row, mode, fraction) for row in signals])
        assert got.tobytes() == want.tobytes()


def backtest_oracle(batches, predictions, mode, fraction):
    """The per-signal loop backtest used to run: one portfolio per day and a
    dict/set book for turnover. Returns (excess, turnover, ar, ir)."""
    excess, turnover = [], []
    prev = {}
    for batch, pred in zip(batches, predictions):
        w = portfolio_oracle(np.asarray(pred, dtype=np.float64), mode, fraction)
        excess.append(float(w @ batch.labels) - float(batch.labels.mean()))
        book = dict(zip(batch.stock_ids, w))
        names = set(book) | set(prev)
        turnover.append(0.5 * math.fsum(abs(book.get(s, 0.0) - prev.get(s, 0.0)) for s in names))
        prev = book
    arr = np.asarray(excess)
    ar = float(arr.mean() * 252)
    std = float(arr.std())
    return excess, turnover, ar, None if std == 0.0 else ar / (std * math.sqrt(252))


def assert_same_report(rep, want):
    excess, turnover, ar, ir = want
    assert np.asarray(rep.excess_series).tobytes() == np.asarray(excess).tobytes()
    assert np.asarray(rep.turnover_series).tobytes() == np.asarray(turnover).tobytes()
    assert all(type(v) is float for v in rep.excess_series + rep.turnover_series)
    assert np.float64(rep.ar).tobytes() == np.float64(ar).tobytes()
    assert (rep.ir is None and ir is None) or np.float64(rep.ir).tobytes() == np.float64(ir).tobytes()


def shifting_universe(rng, n_signals):
    """Days whose stock sets gain, lose, share no ids with, or reorder the day
    before, with rounded (tied) signals; returns (batches, [S, N] per day)."""
    universes = [
        [f"s{i:02d}" for i in range(10)],
        [f"s{i:02d}" for i in range(15)],  # gains five
        [f"s{i:02d}" for i in range(3, 12)],  # loses some
        [f"t{i:02d}" for i in range(7)],  # shares none
        [f"t{i:02d}" for i in (6, 2, 0, 5, 1, 3, 4)],  # same set, other order
        [f"t{i:02d}" for i in range(4)] + [f"s{i:02d}" for i in range(20, 29)],  # some of each
        ["u0"],  # a single stock
    ]
    batches, signals = [], []
    for d, ids in enumerate(universes):
        n = len(ids)
        batches.append(DayBatch(day=f"d{d}", windows=np.zeros((n, 1, 1)),
                                labels=rng.normal(scale=0.02, size=n), stock_ids=ids))
        signals.append(np.round(rng.normal(size=(n_signals, n)), 1))
    return batches, signals


@pytest.mark.parametrize("n_signals", [1, 64])
@pytest.mark.parametrize("mode,fraction", [("long_only", 0.05), ("long_short", 0.05), ("long_only", 0.3),
                                           ("long_only", 1.0), ("long_short", 1.0), ("long_short", 0.7)])
def test_backtest_signals_bytes_equal_per_signal_loop(rng, n_signals, mode, fraction):
    batches, signals = shifting_universe(rng, n_signals)
    reports = M.backtest_signals(batches, signals, mode=mode, fraction=fraction)
    assert len(reports) == n_signals
    for s, rep in enumerate(reports):
        rows = [sig[s] for sig in signals]
        want = backtest_oracle(batches, rows, mode, fraction)
        assert_same_report(rep, want)
        assert rep.mode == mode and rep.fraction == fraction
        assert_same_report(M.backtest(batches, rows, mode=mode, fraction=fraction), want)


@pytest.mark.parametrize("mode", ["long_only", "long_short"])
def test_build_portfolio_bytes_equal_one_dimensional_sort(rng, mode):
    for _ in range(100):
        n = int(rng.integers(1, 60))
        fraction = float(rng.uniform(0.01, 1.0))
        pred = np.round(rng.normal(size=n), 1)
        assert M.build_portfolio(pred, mode, fraction).tobytes() == portfolio_oracle(pred, mode, fraction).tobytes()


def test_backtest_signals_empty_stream_rejected():
    with pytest.raises(M.InsufficientDataError):
        M.backtest_signals([], [])


def test_backtest_signals_rejects_misshaped_day(rng):
    batches, signals = shifting_universe(rng, 3)
    signals[2] = signals[2][:2]
    with pytest.raises(ValueError, match="day d2"):
        M.backtest_signals(batches, signals)


@pytest.mark.parametrize("fraction", [0.0, -0.1, 1.5, float("nan")])
def test_portfolio_fraction_outside_unit_interval_rejected(fraction):
    batches, preds = ledger_batches()
    with pytest.raises(ValueError, match="fraction"):
        M.build_portfolio(preds[0], "long_only", fraction)
    with pytest.raises(ValueError, match="day d1.*fraction"):
        M.backtest(batches, preds, fraction=fraction)
    with pytest.raises(ValueError, match="day d1.*fraction"):
        M.backtest_signals(batches, [np.stack([p, -p]) for p in preds], fraction=fraction)


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_portfolio_non_finite_signal_rejected(bad):
    batches, preds = ledger_batches()
    preds[2] = preds[2].copy()
    preds[2][1] = bad
    with pytest.raises(ValueError, match="non-finite"):
        M.build_portfolio(preds[2], "long_only")
    with pytest.raises(ValueError, match="day d3.*non-finite"):
        M.backtest(batches, preds, mode="long_short")
    with pytest.raises(ValueError, match="day d3: signal 1 .*non-finite"):
        M.backtest_signals(batches, [np.stack([np.zeros(len(p)), p]) for p in preds])


def test_backtest_repeated_stock_id_rejected():
    batches, preds = ledger_batches()
    batches[1].stock_ids = ["A", "B", "A"]
    with pytest.raises(ValueError, match="day d2.*'A'"):
        M.backtest(batches, preds)
    with pytest.raises(ValueError, match="day d2.*'A'"):
        M.backtest_signals(batches, [p[None] for p in preds])


# -- model-based evaluation ----------------------------------------------------------


def tiny_model(g=1, e=1, k=1):
    enc = EncoderConfig(kind="conv", d_h=6, depth=1, heads=2, kernel=2)
    moe = MoEConfig(groups=g, experts_per_group=e, top_k=k, d_e=4, agg_heads=2)
    return Forecaster(enc, moe, n_features=3, window=4, seed=0)


def rand_batches(rng, n_days=6, n=14):
    out = []
    for t in range(n_days):
        out.append(DayBatch(day=f"d{t:02d}", windows=rng.normal(size=(n, 4, 3)),
                            labels=rng.normal(scale=0.02, size=n),
                            stock_ids=[f"s{i:02d}" for i in range(n)]))
    return out


def test_per_expert_grid_shape(rng):
    model = tiny_model(g=2, e=3, k=2)
    batches = rand_batches(rng)
    grid = M.per_expert_report(model, batches)
    assert len(grid) == 2 and all(len(row) == 3 for row in grid)


def test_per_expert_single_slot_equals_full_model(rng):
    model = tiny_model(g=1, e=1, k=1)
    batches = rand_batches(rng)
    grid = M.per_expert_report(model, batches)
    full = M.backtest(batches, predictions=[model.predict(b) for b in batches])
    assert np.allclose(grid[0][0].excess_series, full.excess_series, atol=1e-12)


@pytest.mark.parametrize("mode", ["long_only", "long_short"])
def test_per_expert_report_bytes_equal_per_slot_oracle(rng, mode):
    model = tiny_model(g=2, e=3, k=2)
    batches = rand_batches(rng)
    grid = M.per_expert_report(model, batches, mode=mode, fraction=0.2)
    slots = [model.predict_per_slot(b) for b in batches]
    for j in range(2):
        for k in range(3):
            assert_same_report(grid[j][k], backtest_oracle(batches, [s[:, j, k] for s in slots], mode, 0.2))


def test_predict_per_slot_bytes_equal_forward_readout(rng):
    model = tiny_model(g=2, e=3, k=2)
    for batch in rand_batches(rng, n_days=3):
        got = model.predict_per_slot(batch)
        want = model.forward(batch)[2].data
        assert got.shape == want.shape == (batch.n_stocks, 2, 3)
        assert got.tobytes() == want.tobytes()


def test_per_expert_report_empty_stream_rejected():
    with pytest.raises(M.InsufficientDataError):
        M.per_expert_report(tiny_model(g=2, e=3, k=2), [])


def test_evaluate_model_bundles_reports(rng):
    model = tiny_model(g=2, e=2, k=2)
    batches = rand_batches(rng)
    report = M.evaluate_model(model, batches, mode="long_only")
    assert set(report.row()) == {"subset", "IC", "ICIR", "RankIC", "RankICIR", "AR", "IR"}


# -- subsets and mutual information -----------------------------------------------


def test_subset_batches_filters_by_tag(rng):
    from groupmoe.synth import SynthConfig, generate
    from groupmoe.panel import SplitSpec, split

    panel, truth = generate(SynthConfig(n_stocks=20, n_days=30, n_features=4, n_styles=2, seed=3))
    spec = SplitSpec(train=(panel.days[0], panel.days[18]), validation=(panel.days[18], panel.days[24]),
                     test=(panel.days[24], panel.days[29]))
    _, _, test_b = split(panel, spec, window=5)
    sub = M.subset_batches(test_b, panel, "0")
    style0 = {panel.stocks[i] for i in range(20) if truth.styles[i, 0] == 0}
    for b in sub:
        assert set(b.stock_ids) <= style0


def test_mutual_information_basics(rng):
    a = np.array([0, 0, 1, 1, 2, 2] * 10)
    assert M.discrete_mutual_information(a, a) == pytest.approx(math.log(3), abs=1e-12)
    b = rng.integers(0, 3, size=60)
    mi = M.discrete_mutual_information(a, b)
    assert 0 <= mi < 0.2
    # independence -> 0 exactly when counts are balanced
    c = np.array([0, 1] * 30)
    d = np.array([0] * 30 + [1] * 30)
    assert M.discrete_mutual_information(c, d) == pytest.approx(0.0, abs=1e-12)
