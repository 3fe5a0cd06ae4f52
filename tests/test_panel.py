import math
import warnings

import numpy as np
import pytest

from groupmoe import panel as P


def make_panel(n_stocks=3, n_days=12, d=2, seed=0):
    rng = np.random.default_rng(seed)
    stocks = [f"s{i}" for i in range(n_stocks)]
    days = [f"d{i:03d}" for i in range(n_days)]
    features = rng.normal(size=(n_stocks, n_days, d))
    prices = 100.0 * np.exp(rng.normal(scale=0.01, size=(n_stocks, n_days)).cumsum(axis=1))
    return P.StockPanel(stocks=stocks, days=days, features=features, prices=prices)


# -- compute_label ------------------------------------------------------------


def test_label_basic_cases():
    prices = np.array([90.0, 100.0, 105.0])
    assert P.compute_label(prices, 0) == pytest.approx(0.05)
    assert P.compute_label(np.array([90.0, 100.0, 100.0]), 0) == 0.0
    assert P.compute_label(np.array([90.0, 80.0, 76.0]), 0) == pytest.approx(-0.05)


def test_label_missing_forward_price():
    assert P.compute_label(np.array([100.0, 100.0, np.nan]), 0) is None
    assert P.compute_label(np.array([100.0, 100.0]), 0) is None


def test_label_nonpositive_base_price():
    with pytest.raises(P.PanelError, match="at index 1, the base of the label of index 0"):
        P.compute_label(np.array([1.0, 0.0, 1.0]), 0)


def test_label_sign_flips_with_reversed_move():
    up = P.compute_label(np.array([1.0, 100.0, 103.0]), 0)
    dn = P.compute_label(np.array([1.0, 100.0, 97.0]), 0)
    assert up == -dn != 0


# -- slice_day -----------------------------------------------------------------


def test_slice_day_drops_incomplete_windows():
    panel = make_panel(n_stocks=3, n_days=12)
    t = 6
    panel.features[1, t - 2, 0] = np.nan  # hole inside s1's window
    batch = P.slice_day(panel, panel.days[t], window=5)
    assert batch.stock_ids == ["s0", "s2"]
    assert batch.windows.shape == (2, 5, 2)


def test_slice_day_insufficient_history():
    panel = make_panel(n_days=12)
    with pytest.raises(P.InsufficientHistoryError):
        P.slice_day(panel, panel.days[4], window=5)
    # first eligible index is exactly the window length
    batch = P.slice_day(panel, panel.days[5], window=5)
    assert batch.n_stocks == 3


def test_slice_day_matches_completeness_scan():
    rng = np.random.default_rng(3)
    panel = make_panel(n_stocks=10, n_days=20, seed=3)
    holes = rng.random(panel.prices.shape) < 0.15
    panel.prices[holes] = np.nan
    t, window = 10, 5
    batch = P.slice_day(panel, panel.days[t], window)
    # independent completeness scan, stock by stock
    expected = 0
    for s in range(10):
        win_ok = all(
            not math.isnan(panel.prices[s, u]) and not np.isnan(panel.features[s, u]).any()
            for u in range(t - window + 1, t + 1)
        )
        label_ok = not math.isnan(panel.prices[s, t + 1]) and not math.isnan(panel.prices[s, t + 2])
        expected += int(win_ok and label_ok)
    assert batch.n_stocks == expected


def test_slice_day_deterministic():
    panel = make_panel()
    a = P.slice_day(panel, panel.days[8], 5)
    b = P.slice_day(panel, panel.days[8], 5)
    assert a.stock_ids == b.stock_ids
    assert a.windows.tobytes() == b.windows.tobytes()
    assert a.labels.tobytes() == b.labels.tobytes()


# -- split -----------------------------------------------------------------------


def days_spec(days, tr, va, te):
    return P.SplitSpec(train=(days[tr[0]], days[tr[1]]), validation=(days[va[0]], days[va[1]]), test=(days[te[0]], days[te[1]]))


def test_split_horizon_arithmetic():
    # train ends at day index 100: last batch must be day 98 (prices at 99, 100)
    panel = make_panel(n_stocks=2, n_days=140, seed=1)
    spec = days_spec(panel.days, (0, 100), (100, 120), (120, 139))
    train, val, test = P.split(panel, spec, window=5)
    assert train[-1].day == panel.days[98]
    assert val[0].day == panel.days[100]
    assert test[-1].day == panel.days[137]  # needs prices at 138, 139


def test_split_empty_validation_rejected():
    panel = make_panel(n_days=20)
    spec = P.SplitSpec(train=(panel.days[0], panel.days[10]), validation=(panel.days[10], panel.days[10]), test=(panel.days[10], panel.days[19]))
    with pytest.raises(P.ConfigError):
        P.split(panel, spec, window=5)


def test_split_overlap_rejected():
    panel = make_panel(n_days=20)
    spec = days_spec(panel.days, (0, 12), (10, 15), (15, 19))
    with pytest.raises(P.ConfigError):
        P.split(panel, spec, window=5)


def test_split_leakage_audit():
    # one-day gap between intervals: every train label source stays strictly
    # before the validation start
    panel = make_panel(n_stocks=4, n_days=60, seed=2)
    spec = days_spec(panel.days, (0, 30), (31, 45), (46, 59))
    train, val, _ = P.split(panel, spec, window=5)
    val_start_idx = 31
    max_source = max(panel.day_index(b.day) + 2 for b in train)
    assert max_source < val_start_idx
    # adjacent case: sources never pass the boundary day itself
    spec2 = days_spec(panel.days, (0, 30), (30, 45), (45, 59))
    train2, _, _ = P.split(panel, spec2, window=5)
    assert max(panel.day_index(b.day) + 2 for b in train2) <= 30


# -- CSV round trip -----------------------------------------------------------------


def test_csv_round_trip(tmp_path):
    panel = make_panel(n_stocks=2, n_days=3)
    path = tmp_path / "panel.csv"
    P.save_csv(panel, path)
    loaded = P.load_csv(path)
    assert loaded.stocks == panel.stocks
    assert loaded.days == panel.days
    assert np.array_equal(loaded.features, panel.features)
    assert np.array_equal(loaded.prices, panel.prices)
    # second trip is bit-exact
    path2 = tmp_path / "again.csv"
    P.save_csv(loaded, path2)
    assert path.read_text() == path2.read_text()


def test_csv_well_formed_counts(tmp_path):
    panel = make_panel(n_stocks=2, n_days=3)
    path = tmp_path / "p.csv"
    P.save_csv(panel, path)
    text = path.read_text().strip().splitlines()
    assert len(text) == 1 + 6  # header + 2 stocks x 3 days


def test_csv_duplicate_key_rejected(tmp_path):
    path = tmp_path / "dup.csv"
    path.write_text(
        "stock_id,day,price,f_0\n"
        "s1,d1,100.0,0.5\n"
        "s1,d1,101.0,0.6\n"
    )
    with pytest.raises(P.PanelError) as e:
        P.load_csv(path)
    assert "s1" in str(e.value) and "d1" in str(e.value)


def test_csv_malformed_row_names_line(tmp_path):
    path = tmp_path / "bad.csv"
    path.write_text(
        "stock_id,day,price,f_0\n"
        "s1,d1,100.0,0.5\n"
        "s2,d1,oops,0.5\n"
    )
    with pytest.raises(P.PanelError) as e:
        P.load_csv(path)
    assert ":3:" in str(e.value)


def test_csv_missing_values_roundtrip(tmp_path):
    panel = make_panel(n_stocks=2, n_days=3)
    panel.prices[0, 1] = np.nan
    panel.features[1, 2, 0] = np.nan
    path = tmp_path / "gaps.csv"
    P.save_csv(panel, path)
    loaded = P.load_csv(path)
    assert math.isnan(loaded.prices[0, 1])
    assert math.isnan(loaded.features[1, 2, 0])
    obs = loaded.observed()
    assert not obs[0, 1] and not obs[1, 2]
    assert obs.sum() == 4


# -- normalization -------------------------------------------------------------------


def test_normalization_train_only_stats():
    panel = make_panel(n_stocks=4, n_days=30, seed=5)
    stats = P.fit_normalization(panel, (panel.days[0], panel.days[20]))
    block = panel.features[:, :20, :].reshape(-1, 2)
    assert np.allclose(stats.mean, block.mean(axis=0))
    assert np.allclose(stats.std, block.std(axis=0))
    normed = P.apply_normalization(panel, stats)
    z = normed.features[:, :20, :].reshape(-1, 2)
    assert np.allclose(z.mean(axis=0), 0, atol=1e-12)
    assert np.allclose(z.std(axis=0), 1, atol=1e-12)


def test_normalization_refuses_overflowing_feature_without_warning():
    # 1e308 is finite, but its variance overflows
    panel = make_panel(n_stocks=4, n_days=30, seed=5)
    panel.features[2, 3, 1] = 1e308
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(P.ConfigError, match="feature f_1: .* not both finite"):
            P.fit_normalization(panel, (panel.days[0], panel.days[20]))


def test_normalization_constant_feature_keeps_unit_std():
    panel = make_panel(n_stocks=4, n_days=30, seed=5)
    panel.features[:, :, 0] = 3.0
    stats = P.fit_normalization(panel, (panel.days[0], panel.days[20]))
    assert stats.std[0] == 1.0 and stats.mean[0] == 3.0


def test_normalization_feature_count_guard():
    panel = make_panel()
    stats = P.NormStats(mean=np.zeros(5), std=np.ones(5))
    with pytest.raises(P.ConfigError):
        P.apply_normalization(panel, stats)


# -- day lookups -------------------------------------------------------------------


def test_day_index_unknown_day_raises_keyerror():
    panel = make_panel(n_days=5)
    assert [panel.day_index(d) for d in panel.days] == list(range(5))
    for day in ("a", "d00", "d0025", "zzz"):  # before, prefix, between, after
        with pytest.raises(KeyError) as e:
            panel.day_index(day)
        assert e.value.args[0] == f"day {day!r} not in panel"


# -- split against a per-stock loop --------------------------------------------------


def slice_day_loop(panel, day, window):
    """The per-stock loop slice_day used to run, kept as an oracle."""
    t = panel.days.index(day)
    lo = t - window + 1
    obs = panel.observed()
    order = np.argsort(np.asarray(panel.stocks, dtype=object), kind="stable")
    rows, labels, ids = [], [], []
    for s in order:
        if not obs[s, lo : t + 1].all():
            continue
        y = P.compute_label(panel.prices[s], t)
        if y is None:
            continue
        rows.append(panel.features[s, lo : t + 1, :])
        labels.append(y)
        ids.append(panel.stocks[s])
    windows = np.stack(rows) if rows else np.empty((0, window, panel.n_features))
    return P.DayBatch(day=day, windows=windows, labels=np.asarray(labels, dtype=np.float64), stock_ids=ids)


def assert_same_batch(a, b):
    assert a.day == b.day
    assert a.stock_ids == b.stock_ids
    assert a.windows.shape == b.windows.shape and a.windows.dtype == b.windows.dtype
    assert a.windows.tobytes() == b.windows.tobytes()
    assert a.labels.dtype == b.labels.dtype and a.labels.tobytes() == b.labels.tobytes()


@pytest.mark.parametrize("window", [1, 5])
def test_split_matches_per_stock_loop(window):
    rng = np.random.default_rng(11)
    panel = make_panel(n_stocks=12, n_days=70, d=3, seed=11)
    panel.stocks = ["s7", "b", "s10", "a2", "s1", "zz", "c", "s2", "a10", "m", "s0", "y"]
    panel.prices[rng.random(panel.prices.shape) < 0.08] = np.nan
    panel.features[rng.random(panel.features.shape) < 0.02] = np.nan
    panel.prices[3, 20:] = np.nan  # a stock that stops trading
    spec = days_spec(panel.days, (0, 40), (41, 55), (55, 69))
    streams = P.split(panel, spec, window)
    for stream, interval in zip(streams, (spec.train, spec.validation, spec.test)):
        expected = [slice_day_loop(panel, d, window) for d in P.days_in_split(panel, interval, window)]
        expected = [b for b in expected if b.n_stocks > 0]
        assert len(stream) == len(expected) > 0
        for got, want in zip(stream, expected):
            assert_same_batch(got, want)
            assert_same_batch(P.slice_day(panel, got.day, window), want)
    assert any(b.n_stocks < 12 for s in streams for b in s)


def test_nonpositive_base_price_raises_only_for_kept_stock():
    window, t = 5, 10
    spec = days_spec([f"d{i:03d}" for i in range(20)], (0, 14), (14, 17), (17, 19))
    for price in (0.0, -3.0):
        panel = make_panel(n_stocks=3, n_days=20)
        panel.prices[1, t + 1] = price
        for call in (lambda: P.slice_day(panel, panel.days[t], window), lambda: P.split(panel, spec, window)):
            with pytest.raises(P.PanelError) as e:
                call()
            assert str(e.value) == f"non-positive price {price} of stock s1 on day d011 (label of day d010)"
    # with a hole in its day-t window, stock 1 is dropped from day t before
    # its label is formed, so the bad base price raises nothing
    panel = make_panel(n_stocks=3, n_days=20)
    panel.prices[1, t + 1] = 0.0
    panel.features[1, t, 0] = np.nan
    assert P.slice_day(panel, panel.days[t], window).stock_ids == ["s0", "s2"]
    train, _, _ = P.split(panel, spec, window)
    assert [b.stock_ids for b in train if b.day == panel.days[t]] == [["s0", "s2"]]
    # nor when its label is undefined because p[t+2] is missing
    panel = make_panel(n_stocks=3, n_days=20)
    panel.prices[1, t + 1] = 0.0
    panel.prices[1, t + 2] = np.nan
    assert P.slice_day(panel, panel.days[t], window).stock_ids == ["s0", "s2"]
    train, _, _ = P.split(panel, spec, window)
    assert [b.stock_ids for b in train if b.day == panel.days[t]] == [["s0", "s2"]]


# -- CSV writer bytes ------------------------------------------------------------------


GOLDEN_CSV = (
    "stock_id,day,price,f_0,f_1\r\n"
    '"a,""b",d1,1e-05,0.1,-2.0\r\n'
    '"a,""b",d2,,3.0,1.5\r\n'
    '"a,""b",d3,2.5,-0.0,1e-07\r\n'
    "s2,d1,1e+16,0.30000000000000004,2.0\r\n"
    "s2,d2,3.0,,0.25\r\n"
)


def test_csv_golden_bytes_and_round_trip(tmp_path):
    nan = np.nan
    panel = P.StockPanel(
        stocks=['a,"b', "s2"],
        days=["d1", "d2", "d3"],
        features=np.array([[[0.1, -2.0], [3.0, 1.5], [-0.0, 1e-07]],
                           [[0.1 + 0.2, 2.0], [nan, 0.25], [nan, nan]]]),
        prices=np.array([[1e-05, nan, 2.5], [1e16, 3.0, nan]]),  # s2 is absent on d3
    )
    path = tmp_path / "golden.csv"
    P.save_csv(panel, path)
    assert path.read_bytes() == GOLDEN_CSV.encode()
    loaded = P.load_csv(path)
    assert loaded.stocks == panel.stocks and loaded.days == panel.days
    assert loaded.prices.tobytes() == panel.prices.tobytes()
    assert loaded.features.tobytes() == panel.features.tobytes()


def test_csv_golden_bytes_quoted_ids_and_days(tmp_path):
    # ids and days that csv must quote: a quote alone, a comma, a line break
    panel = P.StockPanel(
        stocks=['q"', "x\ny"],
        days=["2024-01-02", "2024-01-03,pm"],
        features=np.array([[[1.0], [np.nan]], [[-0.5], [2.0]]]),
        prices=np.array([[10.0, 11.0], [np.nan, 12.5]]),
    )
    path = tmp_path / "quoted.csv"
    P.save_csv(panel, path)
    assert path.read_bytes() == (
        "stock_id,day,price,f_0\r\n"
        '"q""",2024-01-02,10.0,1.0\r\n'
        '"q""","2024-01-03,pm",11.0,\r\n'
        '"x\ny",2024-01-02,,-0.5\r\n'
        '"x\ny","2024-01-03,pm",12.5,2.0\r\n'
    ).encode()
    loaded = P.load_csv(path)
    assert loaded.stocks == panel.stocks and loaded.days == panel.days
    assert loaded.prices.tobytes() == panel.prices.tobytes()
    assert loaded.features.tobytes() == panel.features.tobytes()


# -- degenerate CSV input -------------------------------------------------------------------


def test_csv_truncated_last_row_names_line(tmp_path):
    path = tmp_path / "cut.csv"
    path.write_text("stock_id,day,price,f_0,f_1\ns1,d1,100.0,0.5,1.0\ns1,d2,101.0,0.5,1.0\ns1,d3,102.0")
    with pytest.raises(P.PanelError) as e:
        P.load_csv(path)
    assert str(e.value) == f"{path}:4: expected 5 fields, got 3"


def test_csv_non_finite_literal_names_physical_line(tmp_path):
    # the quoted id spans lines 2-3, so the inf sits on line 4
    path = tmp_path / "inf.csv"
    path.write_bytes(b'stock_id,day,price,f_0\r\n"a\r\nb",d1,1.0,2.0\r\ns2,d1,1.0,inf\r\n')
    with pytest.raises(P.PanelError) as e:
        P.load_csv(path)
    assert str(e.value) == f"{path}:4: column f_0 holds the non-finite value inf; a missing value is an empty field"


def test_csv_empty_stock_id_names_line(tmp_path):
    path = tmp_path / "anon.csv"
    path.write_text("stock_id,day,price,f_0\ns1,d1,100.0,0.5\n\n,d2,101.0,0.5\n")
    with pytest.raises(P.PanelError) as e:
        P.load_csv(path)
    assert str(e.value) == f"{path}:4: empty stock_id or day"
