"""Command-line pipeline: gen, train, eval, backtest, gradcheck.

Every command takes --config; flags override file values. All randomness
flows from the seeds in the config (or --seed), so re-running a command
with identical inputs reproduces its outputs bit for bit (timestamps in
the training log aside).

Exit codes: 0 success, 1 usage/config, 2 data, 3 numerical failure.
"""

from __future__ import annotations

import argparse
import csv
import json
import sys
from pathlib import Path

import numpy as np

from . import metrics as ME
from . import panel as P
from . import synth as SY
from . import train as TR
from .config import RunConfig, RunConfigError, load_config, save_config
from .gradcheck import run_gradcheck
from .moe import Forecaster
from .panel import NormStats, PanelError
from .train import CheckpointError, NumericalError

EXIT_OK, EXIT_CONFIG, EXIT_DATA, EXIT_NUMERIC = 0, 1, 2, 3


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="groupmoe", description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("--config", help="YAML run configuration")
        p.add_argument("--seed", type=int, help="override training and generator seeds")
        p.add_argument("--out", help="override the output directory")

    p_gen = sub.add_parser("gen", help="generate a synthetic panel CSV plus truth sidecar")
    common(p_gen)

    p_train = sub.add_parser("train", help="train a model; writes checkpoint, log, curves")
    common(p_train)
    p_train.add_argument("--resume", help="train-state archive to continue from")

    for name, txt in (("eval", "ranking + portfolio tables for a checkpoint"),
                      ("backtest", "portfolio table only")):
        p_cmd = sub.add_parser(name, help=txt)
        common(p_cmd)
        p_cmd.add_argument("--checkpoint", help="checkpoint path (default <out>/checkpoint.npz)")
        p_cmd.add_argument("--mode", choices=["long_only", "long_short"], help="portfolio mode override")
        if name == "eval":
            p_cmd.add_argument("--experts", action="store_true",
                               help="also write the per-expert portfolio grid")

    common(sub.add_parser("gradcheck", help="finite-difference validation of every parameter group"))
    return parser


def _load_run_config(args) -> RunConfig:
    cfg = load_config(args.config) if args.config else RunConfig.from_dict({})
    if args.seed is not None:
        cfg.train.seed = args.seed
        cfg.synth.seed = args.seed
    if getattr(args, "out", None):
        cfg.output = args.out
    if getattr(args, "mode", None):
        cfg.portfolio.mode = args.mode
    return cfg


def _out_dir(cfg: RunConfig) -> Path:
    out = Path(cfg.output)
    out.mkdir(parents=True, exist_ok=True)
    return out


def _require_split(cfg: RunConfig) -> None:
    if cfg.split is None:
        raise RunConfigError(["section 'split' is required for this command"])


def _load_panel(cfg: RunConfig) -> P.StockPanel:
    path = Path(cfg.data)
    if not path.exists():
        raise PanelError(f"data file not found: {path}")
    return P.load_csv(path)


# -- commands -----------------------------------------------------------------


def cmd_gen(args) -> int:
    cfg = _load_run_config(args)
    out = _out_dir(cfg)
    panel, truth = SY.generate(cfg.synth)
    P.save_csv(panel, out / "panel.csv")
    SY.save_truth(truth, out / "truth.json")
    save_config(cfg, out / "run_config.yaml")
    print(f"wrote {out / 'panel.csv'} ({len(panel.stocks)} stocks x {len(panel.days)} days,"
          f" {panel.n_features} features, {cfg.synth.n_styles} style(s))")
    return EXIT_OK


def cmd_train(args) -> int:
    cfg = _load_run_config(args)
    _require_split(cfg)
    out = _out_dir(cfg)
    panel = _load_panel(cfg)
    norm = P.fit_normalization(panel, cfg.split.train)
    normed = P.apply_normalization(panel, norm)
    train_b, val_b, _ = P.split(normed, cfg.split, cfg.window)
    if not train_b or not val_b:
        raise PanelError("train or validation stream is empty after slicing")

    model = Forecaster(cfg.encoder, cfg.moe, n_features=panel.n_features,
                       window=cfg.window, seed=cfg.train.seed)
    resume = TR.load_train_state(args.resume, model) if getattr(args, "resume", None) else None
    state, history = TR.train(model, train_b, val_b, cfg.train, cfg.loss,
                              log_path=out / "log.jsonl", resume=resume)

    model.load_state_arrays(state.best_params)
    TR.save_checkpoint(model, out / "checkpoint.npz", norm=norm)
    TR.save_train_state(out / "train_state.npz", state, model)
    # a resumed run continues its curves, as train() continues its log
    with open(out / "curves.csv", "w" if resume is None else "a", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        if fh.tell() == 0:
            writer.writerow(["epoch", "train_loss", "expert_loss", "router_loss", "val_ic"])
        for row in history:
            writer.writerow([row["epoch"], repr(float(row["train_loss"])), repr(float(row["expert_loss"])),
                             repr(float(row["router_loss"])), repr(float(row["val_ic"]))])
    print(f"trained {state.epoch} epoch(s); best val IC {state.best_val_ic:.6f}"
          f" at epoch {state.best_epoch}; checkpoint {out / 'checkpoint.npz'}")
    return EXIT_OK


def _load_eval_inputs(cfg: RunConfig, args):
    _require_split(cfg)
    checkpoint = getattr(args, "checkpoint", None) or Path(cfg.output) / "checkpoint.npz"
    model, meta = TR.load_checkpoint(checkpoint)
    panel = _load_panel(cfg)
    if meta["n_features"] != panel.n_features:
        raise CheckpointError(
            f"checkpoint expects {meta['n_features']} features with matching normalization,"
            f" panel has {panel.n_features}: refusing to evaluate"
        )
    if meta["normalization"] is not None:
        panel = P.apply_normalization(panel, NormStats.from_dict(meta["normalization"]))
    _, _, test_b = P.split(panel, cfg.split, meta["window"])
    if not test_b:
        raise PanelError("test stream is empty after slicing")
    return model, test_b


def _format_table(rows: list[dict]) -> str:
    cols = ["subset", "IC", "ICIR", "RankIC", "RankICIR", "AR", "IR"]
    cols = [c for c in cols if any(c in r for r in rows)]
    lines = ["  ".join(f"{c:>10}" for c in cols)]
    for r in rows:
        cells = []
        for c in cols:
            v = r.get(c)
            if isinstance(v, float):
                cells.append(f"{v:>10.6f}")
            else:
                cells.append(f"{str(v) if v is not None else 'undef':>10}")
        lines.append("  ".join(cells))
    return "\n".join(lines)


def cmd_eval(args) -> int:
    cfg = _load_run_config(args)
    out = _out_dir(cfg)
    model, test_b = _load_eval_inputs(cfg, args)
    report = ME.evaluate_model(model, test_b, mode=cfg.portfolio.mode, fraction=cfg.portfolio.fraction)
    rows = [report.row()]
    print(_format_table(rows))
    (out / "eval_report.json").write_text(json.dumps(rows, indent=2, sort_keys=True) + "\n", encoding="utf-8")
    with open(out / "eval_daily.csv", "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(["day", "ic", "rank_ic", "excess_return", "turnover"])
        for b, ic, ric, ex, to in zip(test_b, report.ranking.ic_series, report.ranking.rank_ic_series,
                                      report.portfolio.excess_series, report.portfolio.turnover_series):
            writer.writerow([b.day, _cell(ic), _cell(ric), repr(ex), repr(to)])

    if getattr(args, "experts", False):
        grid = ME.per_expert_report(model, test_b, mode=cfg.portfolio.mode, fraction=cfg.portfolio.fraction)
        with open(out / "expert_grid.csv", "w", newline="", encoding="utf-8") as fh:
            writer = csv.writer(fh)
            writer.writerow(["group", "expert", "AR", "IR"])
            for j, row in enumerate(grid):
                for k, rep in enumerate(row):
                    writer.writerow([j, k, repr(rep.ar), _cell(rep.ir)])
        n = sum(len(row) for row in grid)
        print(f"per-expert grid: {n} slots -> {out / 'expert_grid.csv'}")
    return EXIT_OK


def _cell(v):
    return "" if v is None else repr(v)


def cmd_backtest(args) -> int:
    cfg = _load_run_config(args)
    out = _out_dir(cfg)
    model, test_b = _load_eval_inputs(cfg, args)
    predictions = [model.predict(b) for b in test_b]
    rep = ME.backtest(test_b, predictions, mode=cfg.portfolio.mode, fraction=cfg.portfolio.fraction)
    print(_format_table([{"subset": cfg.portfolio.mode, "AR": rep.ar, "IR": rep.ir}]))
    payload = {"mode": rep.mode, "fraction": rep.fraction, "AR": rep.ar, "IR": rep.ir,
               "excess_series": rep.excess_series, "turnover_series": rep.turnover_series,
               "days": [b.day for b in test_b]}
    (out / "backtest.json").write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n", encoding="utf-8")
    return EXIT_OK


def cmd_gradcheck(args) -> int:
    cfg = _load_run_config(args)
    report = run_gradcheck(seed=cfg.train.seed, weights=cfg.loss)
    worst_overall = 0.0
    failed = False
    for kind, rows in report.items():
        worst = max(r.rel_err for r in rows)
        worst_overall = max(worst_overall, worst)
        status = "ok" if all(r.passed for r in rows) else "FAIL"
        print(f"[{status}] {kind}: {len(rows)} parameter groups, max rel err {worst:.3e}")
        for r in rows:
            marker = " " if r.passed else "!"
            print(f"  {marker} {r.group:<28} rel_err={r.rel_err:.3e}")
        failed = failed or status == "FAIL"
    if failed:
        print("gradient check FAILED", file=sys.stderr)
        return EXIT_NUMERIC
    print(f"gradient check passed (worst rel err {worst_overall:.3e})")
    return EXIT_OK


COMMANDS = {
    "gen": cmd_gen,
    "train": cmd_train,
    "eval": cmd_eval,
    "backtest": cmd_backtest,
    "gradcheck": cmd_gradcheck,
}


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return COMMANDS[args.command](args)
    except RunConfigError as e:
        for problem in e.problems:
            print(f"config error: {problem}", file=sys.stderr)
        return EXIT_CONFIG
    except (PanelError, P.ConfigError, P.InsufficientHistoryError, CheckpointError,
            ME.InsufficientDataError) as e:
        print(f"data error: {e}", file=sys.stderr)
        return EXIT_DATA
    except NumericalError as e:
        print(f"numerical failure: {e}", file=sys.stderr)
        return EXIT_NUMERIC
    except OSError as e:
        print(f"io error: {e}", file=sys.stderr)
        return EXIT_DATA


if __name__ == "__main__":
    sys.exit(main())
