import hashlib
import json

import numpy as np
import pytest
import yaml

from groupmoe import cli
from groupmoe import metrics as ME
from groupmoe import panel as P
from groupmoe.config import RunConfig, load_config, save_config
from groupmoe.train import load_checkpoint


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


def test_train_resume_continues_epochs(tmp_path):
    cfg2 = write_config(tmp_path, train={"max_epochs": 2, "lr": 1e-3, "seed": 4})
    assert cli.main(["gen", "--config", str(cfg2)]) == 0
    assert cli.main(["train", "--config", str(cfg2)]) == 0
    cfg4 = tmp_path / "run4.yaml"
    raw = yaml.safe_load((tmp_path / "run.yaml").read_text())
    raw["train"]["max_epochs"] = 4
    cfg4.write_text(yaml.safe_dump(raw))
    out = tmp_path / "out"
    assert cli.main(["train", "--config", str(cfg4), "--resume", str(out / "train_state.npz")]) == 0
    rows = [json.loads(line) for line in (out / "log.jsonl").read_text().splitlines()]
    assert [r["epoch"] for r in rows] == [0, 1, 2, 3]


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


def test_gradcheck_corrupted_gradient_fails(tmp_path, capsys):
    cfg = write_config(tmp_path)
    assert cli.main(["gradcheck", "--config", str(cfg), "--corrupt", "moe.gate.W"]) == 3
    assert "FAIL" in capsys.readouterr().out


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
