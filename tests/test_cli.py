import csv
import hashlib
import json
import warnings

import numpy as np
import pytest
import yaml

from groupmoe import cli
from groupmoe import encoders as EN
from groupmoe import metrics as ME
from groupmoe import panel as P
from groupmoe import tensor as T
from groupmoe import train as TR
from groupmoe.config import RunConfig, load_config, save_config
from groupmoe.train import load_checkpoint

from conftest import rewrite_archive, rewrite_meta


def sha(path):
    return hashlib.sha256(path.read_bytes()).hexdigest()


def write_config(tmp_path, **overrides):
    base = {
        "data": str(tmp_path / "out" / "panel.csv"),
        "output": str(tmp_path / "out"),
        "window": 4,
        "encoder": {"kind": "conv", "d_h": 6, "depth": 1, "kernel": 2, "heads": 2},
        "moe": {"groups": 2, "experts_per_group": 2, "top_k": 2, "d_e": 4, "agg_heads": 2},
        "train": {"max_epochs": 2, "lr": 1e-3, "patience": 5, "seed": 0},
        "loss": {"alpha": 2e-3, "beta": 1.0},
        "split": {"train": ["d0000", "d0026"], "validation": ["d0026", "d0033"], "test": ["d0033", "d0039"]},
        "portfolio": {"mode": "long_only", "fraction": 0.1},
        "synth": {"n_stocks": 12, "n_days": 40, "n_features": 3, "n_styles": 1, "noise_sigma": 0.3, "seed": 0},
    }
    for key, val in overrides.items():
        if isinstance(val, dict) and isinstance(base.get(key), dict):
            base[key].update(val)
        else:
            base[key] = val
    path = tmp_path / "run.yaml"
    path.write_text(yaml.safe_dump(base))
    return path


# -- gen ---------------------------------------------------------------------


def test_gen_deterministic_checksums(tmp_path):
    cfg = write_config(tmp_path)
    assert cli.main(["gen", "--config", str(cfg)]) == 0
    first = (sha(tmp_path / "out" / "panel.csv"), sha(tmp_path / "out" / "truth.json"))
    assert cli.main(["gen", "--config", str(cfg)]) == 0
    second = (sha(tmp_path / "out" / "panel.csv"), sha(tmp_path / "out" / "truth.json"))
    assert first == second


def test_gen_creates_missing_output_dir(tmp_path):
    cfg = write_config(tmp_path, output=str(tmp_path / "deep" / "nested" / "dir"))
    assert cli.main(["gen", "--config", str(cfg)]) == 0
    assert (tmp_path / "deep" / "nested" / "dir" / "panel.csv").exists()


def test_gen_unwritable_output_fails_with_message(tmp_path, capsys):
    blocker = tmp_path / "not_a_dir"
    blocker.write_text("file in the way")
    cfg = write_config(tmp_path, output=str(blocker / "sub"))
    assert cli.main(["gen", "--config", str(cfg)]) != 0
    assert capsys.readouterr().err.strip()


def test_gen_output_loads_back(tmp_path):
    cfg = write_config(tmp_path)
    assert cli.main(["gen", "--config", str(cfg)]) == 0
    panel = P.load_csv(tmp_path / "out" / "panel.csv")
    assert len(panel.stocks) == 12
    assert len(panel.days) == 40
    assert panel.n_features == 3


def test_gen_seed_flag_changes_output(tmp_path):
    cfg = write_config(tmp_path)
    assert cli.main(["gen", "--config", str(cfg)]) == 0
    a = sha(tmp_path / "out" / "panel.csv")
    assert cli.main(["gen", "--config", str(cfg), "--seed", "99"]) == 0
    assert sha(tmp_path / "out" / "panel.csv") != a


# -- train ----------------------------------------------------------------------


def test_train_rejects_zero_epochs_listing_all_violations(tmp_path, capsys):
    cfg = write_config(tmp_path, train={"max_epochs": 0, "lr": -1.0})
    assert cli.main(["train", "--config", str(cfg)]) == 1
    err = capsys.readouterr().err
    assert "max_epochs" in err and "lr" in err  # every violation, not just the first


def test_train_writes_checkpoint_that_reloads(tmp_path):
    cfg = write_config(tmp_path)
    assert cli.main(["gen", "--config", str(cfg)]) == 0
    assert cli.main(["train", "--config", str(cfg)]) == 0
    out = tmp_path / "out"
    assert (out / "log.jsonl").exists()
    assert (out / "curves.csv").exists()
    model, meta = load_checkpoint(out / "checkpoint.npz")
    assert meta["n_features"] == 3
    assert meta["normalization"] is not None
    rows = (out / "curves.csv").read_text().splitlines()
    assert rows[0] == "epoch,train_loss,expert_loss,router_loss,val_ic"
    assert len(rows) == 3


def test_train_batch_days_key_is_config_error(tmp_path, capsys):
    cfg = write_config(tmp_path, train={"batch_days": 2})
    assert cli.main(["train", "--config", str(cfg)]) == 1
    assert "unknown key(s) ['batch_days']" in capsys.readouterr().err


MISTYPED_CONFIG = [
    ("train.lr", "train: {lr: 5e-4}"),  # PyYAML reads a float without a dot as a string
    ("window", "window: abc"),
    ("encoder.d_h", "encoder: {d_h: '32'}"),
    ("moe.top_k", "moe: {top_k: 2.5}"),
    ("train.max_epochs", "train: {max_epochs: true}"),
    ("portfolio.fraction", "portfolio: {fraction: '0.1'}"),
    ("moe.inner_attention", "moe: {inner_attention: 1}"),
]


@pytest.mark.parametrize("entry,text", MISTYPED_CONFIG, ids=[m[0] for m in MISTYPED_CONFIG])
def test_train_mistyped_config_value_is_config_error(tmp_path, capsys, entry, text):
    cfg = write_config(tmp_path, **yaml.safe_load(text))
    assert cli.main(["train", "--config", str(cfg)]) == 1
    errors = [line for line in capsys.readouterr().err.splitlines() if line.startswith("config error:")]
    assert len(errors) == 1 and f"'{entry}'" in errors[0]


def test_train_lists_every_mistyped_config_value(tmp_path, capsys):
    text = "\n".join(t for _, t in MISTYPED_CONFIG[:3]) + "\nportfolio: {fraction: '0.1', mode: long_short}"
    cfg = write_config(tmp_path, **yaml.safe_load(text))
    assert cli.main(["train", "--config", str(cfg)]) == 1
    err = capsys.readouterr().err
    for entry in ("train.lr", "window", "encoder.d_h", "portfolio.fraction"):
        assert f"config error: '{entry}' is " in err


def test_isolated_experts_config_trains_and_evaluates(tmp_path):
    cfg = write_config(tmp_path, moe={"inner_attention": False})
    assert cli.main(["gen", "--config", str(cfg)]) == 0
    assert cli.main(["train", "--config", str(cfg)]) == 0
    assert cli.main(["eval", "--config", str(cfg)]) == 0


def test_train_missing_data_is_data_error(tmp_path, capsys):
    cfg = write_config(tmp_path, data=str(tmp_path / "nope.csv"))
    assert cli.main(["train", "--config", str(cfg)]) == 2
    assert "not found" in capsys.readouterr().err


def test_train_determinism_bit_identical_checkpoints(tmp_path):
    cfg = write_config(tmp_path)
    assert cli.main(["gen", "--config", str(cfg)]) == 0
    hashes = []
    for run in ("a", "b"):
        out = tmp_path / f"run_{run}"
        assert cli.main(["train", "--config", str(cfg), "--out", str(out)]) == 0
        hashes.append((sha(out / "checkpoint.npz"), sha(out / "curves.csv")))
    assert hashes[0] == hashes[1]


def epochs_logged(out):
    """The epoch column of log.jsonl and of curves.csv in ``out``."""
    log = [json.loads(line)["epoch"] for line in (out / "log.jsonl").read_text().splitlines()]
    curves = [int(row["epoch"]) for row in csv.DictReader((out / "curves.csv").read_text().splitlines())]
    return log, curves


def resume_to_four_epochs(tmp_path):
    """Train 2 epochs into <tmp>/out, resume that run to 4; returns the 4-epoch config."""
    cfg2 = write_config(tmp_path, train={"max_epochs": 2, "lr": 1e-3, "seed": 4})
    assert cli.main(["gen", "--config", str(cfg2)]) == 0
    assert cli.main(["train", "--config", str(cfg2)]) == 0
    cfg4 = tmp_path / "run4.yaml"
    raw = yaml.safe_load(cfg2.read_text())
    raw["train"]["max_epochs"] = 4
    cfg4.write_text(yaml.safe_dump(raw))
    out = tmp_path / "out"
    assert cli.main(["train", "--config", str(cfg4), "--resume", str(out / "train_state.npz")]) == 0
    return cfg2, cfg4


def test_train_resume_continues_epochs(tmp_path):
    cfg2, _ = resume_to_four_epochs(tmp_path)
    out = tmp_path / "out"
    assert epochs_logged(out) == ([0, 1, 2, 3], [0, 1, 2, 3])
    # a fresh run into the same directory starts both records afresh
    assert cli.main(["train", "--config", str(cfg2)]) == 0
    assert epochs_logged(out) == ([0, 1], [0, 1])


def test_train_resume_writes_straight_run_bytes(tmp_path):
    _, cfg4 = resume_to_four_epochs(tmp_path)
    straight = tmp_path / "straight"
    assert cli.main(["train", "--config", str(cfg4), "--out", str(straight)]) == 0
    for name in ("checkpoint.npz", "train_state.npz", "curves.csv"):
        assert sha(tmp_path / "out" / name) == sha(straight / name), name


# -- eval / backtest -----------------------------------------------------------------


@pytest.fixture
def trained(tmp_path):
    cfg = write_config(tmp_path)
    assert cli.main(["gen", "--config", str(cfg)]) == 0
    assert cli.main(["train", "--config", str(cfg)]) == 0
    return cfg, tmp_path / "out"


def test_eval_twice_identical_tables(trained, capsys):
    cfg, out = trained
    assert cli.main(["eval", "--config", str(cfg)]) == 0
    table1 = capsys.readouterr().out
    report1 = sha(out / "eval_report.json")
    assert cli.main(["eval", "--config", str(cfg)]) == 0
    assert capsys.readouterr().out == table1
    assert sha(out / "eval_report.json") == report1
    for col in ("IC", "ICIR", "RankIC", "RankICIR", "AR", "IR"):
        assert col in table1


def test_eval_matches_metrics_module(trained):
    cfg_path, out = trained
    assert cli.main(["eval", "--config", str(cfg_path)]) == 0
    rows = json.loads((out / "eval_report.json").read_text())
    cfg = load_config(cfg_path)
    model, meta = load_checkpoint(out / "checkpoint.npz")
    panel = P.load_csv(cfg.data)
    panel = P.apply_normalization(panel, P.NormStats.from_dict(meta["normalization"]))
    _, _, test_b = P.split(panel, cfg.split, meta["window"])
    want = ME.evaluate_model(model, test_b, mode="long_only", fraction=0.1)
    assert rows[0]["IC"] == pytest.approx(want.ranking.ic, abs=1e-12)
    assert rows[0]["AR"] == pytest.approx(want.portfolio.ar, abs=1e-12)


def test_eval_expert_grid_row_count(tmp_path):
    # 7 groups of 9 experts -> 63 grid rows
    cfg = write_config(
        tmp_path,
        moe={"groups": 7, "experts_per_group": 9, "top_k": 8, "d_e": 4, "agg_heads": 2},
        train={"max_epochs": 1, "lr": 1e-3},
    )
    assert cli.main(["gen", "--config", str(cfg)]) == 0
    assert cli.main(["train", "--config", str(cfg)]) == 0
    assert cli.main(["eval", "--config", str(cfg), "--experts"]) == 0
    rows = (tmp_path / "out" / "expert_grid.csv").read_text().splitlines()
    assert rows[0] == "group,expert,AR,IR"
    assert len(rows) == 1 + 63


def test_eval_refuses_mismatched_features(trained, tmp_path, capsys):
    cfg_path, out = trained
    # regenerate the panel with a different feature count
    cfg_bad = write_config(tmp_path, synth={"n_features": 5}, output=str(tmp_path / "other"),
                           data=str(tmp_path / "other" / "panel.csv"))
    assert cli.main(["gen", "--config", str(cfg_bad)]) == 0
    raw = yaml.safe_load((tmp_path / "run.yaml").read_text())
    raw["data"] = str(tmp_path / "other" / "panel.csv")
    mixed = tmp_path / "mixed.yaml"
    mixed.write_text(yaml.safe_dump(raw))
    assert cli.main(["eval", "--config", str(mixed), "--checkpoint", str(out / "checkpoint.npz")]) == 2
    assert "refus" in capsys.readouterr().err


def test_train_resume_from_checkpoint_is_data_error(trained, capsys):
    cfg, out = trained
    assert cli.main(["train", "--config", str(cfg), "--resume", str(out / "checkpoint.npz")]) == 2
    err = capsys.readouterr().err
    assert "checkpoint.npz" in err and "train_state" in err


def test_eval_train_state_as_checkpoint_is_data_error(trained, capsys):
    cfg, out = trained
    assert cli.main(["eval", "--config", str(cfg), "--checkpoint", str(out / "train_state.npz")]) == 2
    err = capsys.readouterr().err
    assert "train_state.npz" in err and "model" in err


def test_eval_checkpoint_missing_parameter_is_data_error(trained, capsys):
    cfg, out = trained
    rewrite_archive(out / "checkpoint.npz", lambda a: a.pop("param/moe.readout.b"))
    assert cli.main(["eval", "--config", str(cfg)]) == 2
    err = capsys.readouterr().err
    assert "checkpoint.npz" in err and "param/moe.readout.b" in err


def test_eval_checkpoint_misshaped_parameter_is_data_error(trained, capsys):
    cfg, out = trained

    def widen(arrays):
        arrays["param/moe.gate.W"] = np.zeros(arrays["param/moe.gate.W"].shape + (1,))

    rewrite_archive(out / "checkpoint.npz", widen)
    assert cli.main(["eval", "--config", str(cfg)]) == 2
    err = capsys.readouterr().err
    assert "checkpoint.npz" in err and "param/moe.gate.W" in err and "shape" in err


def test_train_resume_missing_adam_entry_is_data_error(trained, capsys):
    cfg, out = trained
    rewrite_archive(out / "train_state.npz", lambda a: a.pop("adam_m/moe.readout.b"))
    assert cli.main(["train", "--config", str(cfg), "--resume", str(out / "train_state.npz")]) == 2
    err = capsys.readouterr().err
    assert "train_state.npz" in err and "adam_m/moe.readout.b" in err


NOT_FLOAT64 = [("str", lambda a: np.full(a.shape, "x")), ("complex", lambda a: a + 1j)]


@pytest.mark.parametrize("convert", [c for _, c in NOT_FLOAT64], ids=[n for n, _ in NOT_FLOAT64])
def test_eval_checkpoint_non_float64_parameter_is_data_error(trained, capsys, convert):
    cfg, out = trained
    key = "param/moe.readout.b"
    rewrite_archive(out / "checkpoint.npz", lambda a: a.update({key: convert(a[key])}))
    assert cli.main(["eval", "--config", str(cfg)]) == 2
    err = capsys.readouterr().err
    assert "checkpoint.npz" in err and key in err and "float64" in err


def test_train_resume_string_adam_entry_is_data_error(trained, capsys):
    cfg, out = trained
    key = "adam_m/moe.readout.b"
    rewrite_archive(out / "train_state.npz", lambda a: a.update({key: np.full(a[key].shape, "x")}))
    assert cli.main(["train", "--config", str(cfg), "--resume", str(out / "train_state.npz")]) == 2
    err = capsys.readouterr().err
    assert "train_state.npz" in err and key in err and "float64" in err


@pytest.mark.parametrize("value", [np.nan, np.inf], ids=["nan", "inf"])
def test_eval_checkpoint_non_finite_parameter_is_data_error(trained, capsys, value):
    cfg, out = trained
    key = "param/moe.readout.b"
    rewrite_archive(out / "checkpoint.npz", lambda a: a.update({key: np.full(a[key].shape, value)}))
    assert cli.main(["eval", "--config", str(cfg)]) == 2
    err = capsys.readouterr().err
    assert "checkpoint.npz" in err and key in err and "non-finite" in err


@pytest.mark.parametrize("prefix", ["param/", "best/", "adam_m/", "adam_v/"])
def test_train_resume_non_finite_entry_is_data_error(trained, capsys, prefix):
    cfg, out = trained
    key = prefix + "moe.gate.W"

    def poison(arrays):
        arrays[key] = arrays[key].copy()
        arrays[key][0, 0] = -np.inf

    rewrite_archive(out / "train_state.npz", poison)
    assert cli.main(["train", "--config", str(cfg), "--resume", str(out / "train_state.npz")]) == 2
    err = capsys.readouterr().err
    assert "train_state.npz" in err and key in err and "non-finite" in err


def test_eval_checkpoint_extra_encoder_key_is_data_error(trained, capsys):
    cfg, out = trained
    rewrite_meta(out / "checkpoint.npz", lambda m: m["encoder"].update(dropout=0.1))
    assert cli.main(["eval", "--config", str(cfg)]) == 2
    err = capsys.readouterr().err
    assert "checkpoint.npz" in err and "'encoder'" in err and "dropout" in err


def test_eval_checkpoint_missing_moe_section_is_data_error(trained, capsys):
    cfg, out = trained
    rewrite_meta(out / "checkpoint.npz", lambda m: m.pop("moe"))
    assert cli.main(["eval", "--config", str(cfg)]) == 2
    err = capsys.readouterr().err
    assert "checkpoint.npz" in err and "'moe'" in err


def test_eval_checkpoint_string_n_features_is_data_error(trained, capsys):
    cfg, out = trained
    rewrite_meta(out / "checkpoint.npz", lambda m: m.update(n_features="3"))
    assert cli.main(["eval", "--config", str(cfg)]) == 2
    err = capsys.readouterr().err
    assert "checkpoint.npz" in err and "'n_features'" in err and "int" in err


def test_eval_checkpoint_infinite_normalization_is_data_error(trained, capsys):
    cfg, out = trained
    rewrite_meta(out / "checkpoint.npz", lambda m: m["normalization"]["std"].__setitem__(1, float("inf")))
    assert b"Infinity" in (out / "checkpoint.npz").read_bytes()
    assert cli.main(["eval", "--config", str(cfg)]) == 2
    err = capsys.readouterr().err
    assert "checkpoint.npz" in err and "'normalization.std'" in err and "finite" in err


def test_train_resume_without_optimizer_t_is_data_error(trained, capsys):
    cfg, out = trained
    rewrite_meta(out / "train_state.npz", lambda m: m.pop("optimizer_t"))
    assert cli.main(["train", "--config", str(cfg), "--resume", str(out / "train_state.npz")]) == 2
    err = capsys.readouterr().err
    assert "train_state.npz" in err and "'optimizer_t'" in err


def keep_one_stock(cfg_path, days):
    """Blank every stock's price but the first one's on ``days`` of the configured panel."""
    data = load_config(cfg_path).data
    panel = P.load_csv(data)
    for day in days:
        panel.prices[1:, panel.day_index(day)] = np.nan
    P.save_csv(panel, data)


def test_eval_single_stock_days_are_undefined(trained):
    cfg, out = trained
    # a missing price on d0037 drops the other stocks from test days
    # d0035 (label), d0036 (label) and d0037 (window); d0033-d0034 keep all
    keep_one_stock(cfg, ["d0037"])
    assert cli.main(["eval", "--config", str(cfg)]) == 0
    rows = list(csv.DictReader((out / "eval_daily.csv").read_text().splitlines()))
    assert [r["day"] for r in rows if r["ic"] == ""] == ["d0035", "d0036", "d0037"]
    assert all(r["ic"] != "" for r in rows[:2])


def test_eval_every_day_single_stock_is_data_error(trained, capsys):
    cfg, _ = trained
    keep_one_stock(cfg, ["d0035", "d0036", "d0037", "d0038", "d0039"])
    assert cli.main(["eval", "--config", str(cfg)]) == 2
    assert "need >= 2 valid days" in capsys.readouterr().err


def test_train_skips_single_stock_days(tmp_path):
    cfg = write_config(tmp_path)
    assert cli.main(["gen", "--config", str(cfg)]) == 0
    keep_one_stock(cfg, ["d0010"])  # train days d0008-d0013 keep one stock
    assert cli.main(["train", "--config", str(cfg)]) == 0
    load_checkpoint(tmp_path / "out" / "checkpoint.npz")


@pytest.mark.parametrize("blanked,message", [
    (range(26), "train stream has no day with two or more stocks"),
    (range(26, 33), "validation stream has no day with a defined IC"),
], ids=["train", "validation"])
def test_train_single_stock_stream_is_data_error(tmp_path, capsys, monkeypatch, blanked, message):
    cfg = write_config(tmp_path)
    assert cli.main(["gen", "--config", str(cfg)]) == 0
    keep_one_stock(cfg, [f"d{t:04d}" for t in blanked])  # every day of that period keeps one stock
    steps, real_step = [], TR.step
    monkeypatch.setattr(TR, "step", lambda *args: steps.append(args) or real_step(*args))
    assert cli.main(["train", "--config", str(cfg)]) == 2
    assert message in capsys.readouterr().err
    # refused before the first epoch: no training step ran, no epoch was logged
    assert steps == []
    log = tmp_path / "out" / "log.jsonl"
    assert not log.exists() or log.read_text() == ""


def test_train_truncated_csv_row_is_data_error(tmp_path, capsys):
    data = tmp_path / "cut.csv"
    data.write_text("stock_id,day,price,f_0\ns1,d0000,100.0,0.5\ns1,d0001,101.0")
    cfg = write_config(tmp_path, data=str(data))
    assert cli.main(["train", "--config", str(cfg)]) == 2
    assert f"{data}:3: expected 4 fields, got 3" in capsys.readouterr().err


@pytest.mark.parametrize("literal,column", [("inf", "f_1"), ("-inf", "price"), ("nan", "f_0"), ("1e999", "f_2")])
def test_train_non_finite_csv_literal_is_data_error(tmp_path, capsys, literal, column):
    cfg = write_config(tmp_path)
    assert cli.main(["gen", "--config", str(cfg)]) == 0
    data = tmp_path / "out" / "panel.csv"
    lines = data.read_bytes().decode().split("\r\n")
    fields = lines[5].split(",")
    fields[["stock_id", "day", "price", "f_0", "f_1", "f_2"].index(column)] = literal
    lines[5] = ",".join(fields)
    data.write_bytes("\r\n".join(lines).encode())
    assert cli.main(["train", "--config", str(cfg)]) == 2
    err = capsys.readouterr().err
    assert f"{data}:6: column {column} holds the non-finite value" in err
    assert not (tmp_path / "out" / "log.jsonl").exists()


def set_cell(cfg_path, stock, day, column, value):
    """Write ``value`` into one cell (column "price" or a feature index) of the configured panel."""
    data = load_config(cfg_path).data
    panel = P.load_csv(data)
    s, t = panel.stocks.index(stock), panel.day_index(day)
    if column == "price":
        panel.prices[s, t] = value
    else:
        panel.features[s, t, column] = value
    P.save_csv(panel, data)


def test_train_overflowing_train_feature_is_config_error(tmp_path, capsys):
    # 1e308 passes load_csv; the train-period variance of f_1 overflows
    cfg = write_config(tmp_path)
    assert cli.main(["gen", "--config", str(cfg)]) == 0
    set_cell(cfg, "s0003", "d0005", 1, 1e308)
    assert cli.main(["train", "--config", str(cfg)]) == 2
    err = capsys.readouterr().err
    assert "feature f_1" in err and "RuntimeWarning" not in err
    assert not (tmp_path / "out" / "checkpoint.npz").exists()


def test_eval_feature_normalizing_to_inf_is_data_error(trained, capsys):
    # 1.7e308 passes load_csv; over f_2's train std (about 0.91) it normalizes to inf
    cfg, out = trained
    set_cell(cfg, "s0003", "d0035", 2, 1.7e308)
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        assert cli.main(["eval", "--config", str(cfg)]) == 2
    assert caught == []
    err = capsys.readouterr().err
    assert "feature f_2 of stock s0003 on day d0035: the value 1.7e+308 normalizes to inf" in err
    assert not (out / "eval_report.json").exists()


@pytest.mark.parametrize("command", ["eval", "backtest"])
def test_eval_non_finite_prediction_is_numerical_error(trained, capsys, command):
    # a finite 1e308 passes load_csv, and the forward overflows on the
    # test days whose window holds it (d0035-d0038 at window 4)
    cfg, out = trained
    set_cell(cfg, "s0003", "d0035", 0, 1e308)
    assert cli.main([command, "--config", str(cfg)]) == 3
    err = capsys.readouterr().err
    assert "numerical failure: day d0035: prediction for stock s0003 is not finite" in err
    assert not (out / "eval_report.json").exists() and not (out / "backtest.json").exists()


@pytest.mark.parametrize("price", [0.0, -5.0], ids=["zero", "negative"])
def test_eval_non_positive_price_names_stock_and_day(trained, capsys, price):
    # the label of day t divides by the price of day t+1
    cfg, _ = trained
    set_cell(cfg, "s0007", "d0036", "price", price)
    assert cli.main(["eval", "--config", str(cfg)]) == 2
    err = capsys.readouterr().err
    assert f"non-positive price {price} of stock s0007 on day d0036 (label of day d0035)" in err


def test_backtest_command(trained, capsys):
    cfg, out = trained
    assert cli.main(["backtest", "--config", str(cfg), "--mode", "long_short"]) == 0
    assert "AR" in capsys.readouterr().out
    payload = json.loads((out / "backtest.json").read_text())
    assert payload["mode"] == "long_short"
    assert len(payload["excess_series"]) == len(payload["days"])


# -- gradcheck --------------------------------------------------------------------------


def test_gradcheck_passes_and_reports_groups(tmp_path, capsys):
    cfg = write_config(tmp_path)
    assert cli.main(["gradcheck", "--config", str(cfg)]) == 0
    out = capsys.readouterr().out
    assert "conv" in out and "recurrent" in out and "attention" in out
    assert "rel_err" in out
    assert "passed" in out


def test_gradcheck_corrupted_gradient_fails(tmp_path, capsys, monkeypatch):
    # negative control: relu (the attention encoder's feed-forward) and the
    # conv layer node, each with its gradients scaled by 1.5; the recurrent
    # encoder uses neither and still passes
    def bad_relu(a):
        mask = a.data > 0
        return T.Tensor._result(np.where(mask, a.data, 0.0), (a,), lambda g: (1.5 * g * mask,))

    conv_layer = EN.conv_layer

    def bad_conv_layer(*args):
        out = conv_layer(*args)
        vjp = out._vjp
        out._vjp = lambda g: [None if d is None else 1.5 * d for d in vjp(g)]
        return out

    monkeypatch.setattr(T, "relu", bad_relu)
    monkeypatch.setattr(EN, "conv_layer", bad_conv_layer)
    cfg = write_config(tmp_path)
    assert cli.main(["gradcheck", "--config", str(cfg)]) == 3
    out = capsys.readouterr().out
    assert "[FAIL] conv" in out and "[FAIL] attention" in out and "[ok] recurrent" in out


# -- config -----------------------------------------------------------------------------


def test_config_round_trip(tmp_path):
    cfg = load_config(write_config(tmp_path))
    path2 = tmp_path / "resaved.yaml"
    save_config(cfg, path2)
    again = load_config(path2)
    assert again == cfg


def test_config_defaults_match_reference_hyperparameters():
    cfg = RunConfig.from_dict({})
    assert cfg.train.lr == 5e-4
    assert cfg.loss.alpha == 2e-3
    assert cfg.loss.beta == 1.0
    assert cfg.window == 5
    assert cfg.train.max_epochs == 60
    assert cfg.moe.top_k == 8
    assert cfg.moe.groups == 7
    assert cfg.moe.experts_per_group == 9


def test_config_unknown_section_rejected(tmp_path):
    path = tmp_path / "bad.yaml"
    path.write_text(yaml.safe_dump({"nonsense": 1, "train": {"max_epochs": 0}}))
    from groupmoe.config import RunConfigError

    with pytest.raises(RunConfigError) as e:
        load_config(path)
    assert len(e.value.problems) == 2
