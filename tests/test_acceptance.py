"""Acceptance suite: one test per criterion, each printing a pass line.

Run with `pytest tests/test_acceptance.py -v -s` to see the lines and the
recorded experiment tables. The synthetic experiments (criteria 5-8)
train real models and take a few minutes combined.
"""

import hashlib
import math
import time

import numpy as np
import pytest
import yaml

from groupmoe import cli
from groupmoe import experiments as EX
from groupmoe import metrics as ME
from groupmoe import moe as MOE
from groupmoe import objective as OBJ
from groupmoe import panel as P
from groupmoe import synth as SY
from groupmoe import tensor as T
from groupmoe import train as TR
from groupmoe.config import RunConfig
from groupmoe.gradcheck import run_gradcheck
from groupmoe.objective import LossWeights
from groupmoe.panel import DayBatch


def ok(n, msg):
    print(f"[PASS] criterion {n}: {msg}")


# -- shared expensive fixtures ---------------------------------------------------


@pytest.fixture(scope="module")
def specialization_outcomes():
    return [EX.specialization_run(seed) for seed in range(5)]


# -- 1. gradient integrity --------------------------------------------------------


def test_criterion_1_gradient_integrity():
    t0 = time.perf_counter()
    report = run_gradcheck()
    elapsed = time.perf_counter() - t0
    for kind, rows in report.items():
        bad = [r for r in rows if not r.passed]
        assert not bad, f"{kind}: {[(r.group, r.rel_err) for r in bad]}"
    assert elapsed < 60, f"gradcheck took {elapsed:.1f}s"
    total = sum(len(rows) for rows in report.values())
    worst = max(r.rel_err for rows in report.values() for r in rows)
    ok(1, f"{total} parameter groups across 3 encoders, worst rel err {worst:.2e}, {elapsed:.1f}s")


# -- 2. routing invariants ----------------------------------------------------------


def test_criterion_2_routing_invariants():
    rng = np.random.default_rng(2024)
    checked = 0
    for _ in range(1000):
        g = int(rng.integers(1, 6))
        e = int(rng.integers(1, 6))
        k = int(rng.integers(1, g * e + 1))
        n = int(rng.integers(1, 7))
        logits = np.round(rng.normal(size=(n, g * e)), 1)  # rounding forces ties
        selected, weights = MOE.route_from_logits(T.Tensor(logits), k)
        w = weights.data
        for i in range(n):
            nz = np.flatnonzero(w[i])
            assert len(nz) == k
            assert np.all(w[i][nz] > 0)
            assert abs(w[i][nz].sum() - 1.0) < 1e-9
            brute = sorted(sorted(range(g * e), key=lambda j: (-logits[i, j], j))[:k])
            assert nz.tolist() == brute
        shift_sel, shift_w = MOE.route_from_logits(T.Tensor(logits + 7.25), k)
        assert np.array_equal(shift_sel, selected)
        assert np.max(np.abs(shift_w.data - w)) < 1e-9
        checked += 1
    ok(2, f"{checked} random (G, E, k, logits) instances, all invariants hold")


# -- 3. loss contracts ----------------------------------------------------------------


def test_criterion_3_loss_contracts():
    rng = np.random.default_rng(3)
    # bounds on random inputs
    for _ in range(100):
        labels = [rng.normal(size=int(rng.integers(2, 25))) for _ in range(int(rng.integers(1, 4)))]
        preds = [T.Tensor(rng.normal(size=y.shape)) for y in labels]
        val = OBJ.expert_loss(preds, labels).item()
        assert -1.0 - 1e-12 <= val <= 1.0 + 1e-12
    # endpoints
    labels = [rng.normal(size=10)]
    assert OBJ.expert_loss([T.Tensor(labels[0])], labels).item() == pytest.approx(-1.0, abs=1e-12)
    assert OBJ.expert_loss([T.Tensor(-labels[0])], labels).item() == pytest.approx(1.0, abs=1e-12)
    # per-day positive-affine invariance
    labels = [rng.normal(size=9), rng.normal(size=14)]
    preds = [rng.normal(size=9), rng.normal(size=14)]
    base = OBJ.expert_loss([T.Tensor(p) for p in preds], labels).item()
    scaled = [T.Tensor(0.03 * preds[0] + 5.0), T.Tensor(40.0 * preds[1] - 2.0)]
    assert abs(OBJ.expert_loss(scaled, labels).item() - base) < 1e-9
    # router loss oracle + zero-iff-constant
    for _ in range(50):
        h = rng.normal(size=(int(rng.integers(1, 5)), 2, 3))
        want = 0.0
        for i in range(h.shape[0]):
            m = h[i].mean()
            for j in range(2):
                for k in range(3):
                    want += (h[i, j, k] - m) ** 2
        got = OBJ.router_loss([T.Tensor(h)]).item()
        assert abs(got - want) < 1e-12
        assert got >= 0.0
    assert OBJ.router_loss([T.Tensor(np.full((4, 2, 3), 1.25))]).item() == 0.0
    ok(3, "expert loss bounded/exact at endpoints/affine-invariant; router loss matches oracle")


# -- 4. metric oracles -------------------------------------------------------------------


def test_criterion_4_metric_oracles():
    rng = np.random.default_rng(4)

    def pearson(a, b):
        n = len(a)
        ma, mb = sum(a) / n, sum(b) / n
        cov = sum((x - ma) * (y - mb) for x, y in zip(a, b)) / n
        va = sum((x - ma) ** 2 for x in a) / n
        vb = sum((y - mb) ** 2 for y in b) / n
        return cov / math.sqrt(va * vb)

    def mean_ranks(x):
        return [sum(i + 1 for i, u in enumerate(sorted(x)) if u == v) / sum(1 for u in x if u == v) for v in x]

    for _ in range(200):
        n = int(rng.integers(2, 25))
        a, b = rng.normal(size=n), rng.normal(size=n)
        assert abs(ME.daily_ic(a, b) - pearson(list(a), list(b))) < 1e-10
        at = rng.integers(0, 6, size=n).astype(float)
        bt = rng.integers(0, 6, size=n).astype(float)
        want = None
        ra, rb = mean_ranks(list(at)), mean_ranks(list(bt))
        if len(set(ra)) > 1 and len(set(rb)) > 1:
            want = pearson(ra, rb)
        got = ME.daily_rank_ic(at, bt)
        if want is None:
            assert got is None
        else:
            assert abs(got - want) < 1e-10

    for _ in range(200):
        series = list(rng.normal(size=int(rng.integers(2, 40))))
        rep = ME.aggregate_ranking(series, series)
        mean = sum(series) / len(series)
        var = sum((v - mean) ** 2 for v in series) / len(series)
        assert abs(rep.ic - mean) < 1e-10
        if var > 0:
            assert abs(rep.icir - mean / math.sqrt(var)) < 1e-10

    for _ in range(200):
        n = int(rng.integers(1, 80))
        frac = float(rng.uniform(0.02, 0.4))
        pred = np.round(rng.normal(size=n), 1)
        w = ME.build_portfolio(pred, "long_short", frac)
        n_leg = math.ceil(frac * n)
        longs = sorted(range(n), key=lambda i: (-pred[i], i))[:n_leg]
        shorts = sorted(range(n), key=lambda i: (pred[i], i))[:n_leg]
        want = np.zeros(n)
        for i in longs:
            want[i] += 1.0 / n_leg
        for i in shorts:
            want[i] -= 1.0 / n_leg
        assert np.max(np.abs(w - want)) < 1e-10

    # 3-stock x 4-day hand ledger, long-only top-ceil(0.05*3)=1
    labels = [np.array([0.02, -0.01, 0.03]), np.array([-0.02, 0.01, 0.00]),
              np.array([0.05, 0.04, -0.03]), np.array([0.00, 0.02, 0.01])]
    preds = [np.array([0.5, 0.1, 0.9]), np.array([0.2, 0.2, 0.2]),
             np.array([0.9, 0.8, 0.1]), np.array([0.1, 0.9, 0.5])]
    batches = [DayBatch(day=f"d{i}", windows=np.zeros((3, 2, 1)), labels=y,
                        stock_ids=["A", "B", "C"]) for i, y in enumerate(labels)]
    rep = ME.backtest(batches, predictions=preds, mode="long_only", fraction=0.05)
    assert np.allclose(rep.excess_series, [1 / 60, -1 / 60, 3 / 100, 1 / 100], atol=1e-15)
    assert rep.ar == pytest.approx(2.52, abs=1e-12)
    var = ((1 / 150) ** 2 + (2 / 75) ** 2 + (1 / 50) ** 2) / 4
    assert rep.ir == pytest.approx(2.52 / (math.sqrt(var) * math.sqrt(252)), abs=1e-10)
    ok(4, "200-instance oracle batteries at 1e-10 plus the exact hand ledger")


# -- 5. pipeline sanity (teacher-student) ----------------------------------------------


def test_criterion_5_teacher_student():
    t0 = time.perf_counter()
    panel = SY.teacher_student_panel()  # 50 stocks x 300 days, D=8, noise 0.1
    days = panel.days
    spec = P.SplitSpec(train=(days[0], days[210]), validation=(days[210], days[255]),
                       test=(days[255], days[299]))
    normed = P.apply_normalization(panel, P.fit_normalization(panel, spec.train))
    train_b, val_b, _ = P.split(normed, spec, 5)
    model = MOE.Forecaster(RunConfig().encoder, RunConfig().moe, n_features=8, window=5, seed=0)
    cfg = TR.TrainConfig(max_epochs=20, lr=5e-4, patience=10, seed=0)
    result, _ = TR.train(model, train_b, val_b, cfg, LossWeights())
    elapsed = time.perf_counter() - t0
    assert result.best_val_ic > 0.8, f"val IC {result.best_val_ic:.3f}"
    assert elapsed < 300, f"took {elapsed:.0f}s"
    ok(5, f"val IC {result.best_val_ic:.3f} at epoch {result.best_epoch} "
          f"({result.epochs_run} epochs, {elapsed:.0f}s, defaults incl. lr 5e-4, G=7 E=9 k=8)")


# -- 6. specialization effect --------------------------------------------------------------


def test_criterion_6_specialization(specialization_outcomes):
    outs = specialization_outcomes
    for o in outs:
        print(f"  seed {o.seed}: IC moe {o.ic_moe:.4f} baseline {o.ic_baseline:.4f} "
              f"best slots {o.best_slot_by_style} MI {o.mi_style_vs_slot:.3f} "
              f"vs control {o.mi_shuffled_control:.3f}")
    wins = sum(o.moe_beats_baseline for o in outs)
    slot_wins = sum(o.slots_differ_across_styles for o in outs)
    mi_wins = sum(o.mi_beats_control for o in outs)
    assert wins >= 4, f"moe beat baseline in only {wins}/5 seeds"
    assert slot_wins >= 4, f"distinct best slots in only {slot_wins}/5 seeds"
    assert mi_wins == 5, f"MI beat the shuffled control in only {mi_wins}/5 seeds"
    ok(6, f"(a) {wins}/5 IC wins, (b) {slot_wins}/5 style-distinct best slots, (c) {mi_wins}/5 MI wins")


# -- 7. inner-group attention ablation -------------------------------------------------------


def test_criterion_7_attention_ablation(specialization_outcomes):
    outs = specialization_outcomes
    mean_enabled = float(np.mean([o.ic_moe for o in outs]))
    mean_disabled = float(np.mean([o.ic_isolated for o in outs]))
    print(f"  mean test IC over 5 seeds: inner attention ON {mean_enabled:.4f}, OFF {mean_disabled:.4f}")
    assert mean_disabled <= mean_enabled, (
        f"isolated experts outperformed aggregation: {mean_disabled:.4f} > {mean_enabled:.4f}"
    )
    ok(7, f"disabled mean {mean_disabled:.4f} <= enabled mean {mean_enabled:.4f} (both recorded)")


# -- 8. expert-count scaling -------------------------------------------------------------------


def test_criterion_8_expert_count_scaling():
    t0 = time.perf_counter()
    points = EX.expert_count_sweep(seed=0, top_k=2)
    elapsed = time.perf_counter() - t0
    assert [p.total for p in points] == [4, 9, 16, 36, 63]
    for p in points:
        print(f"  {p.groups}x{p.experts_per_group} = {p.total:>2} experts: IC {p.ic:.4f} ICIR {p.icir:.3f}")
    icirs = [p.icir for p in points]
    assert all(v is not None for v in icirs)
    assert max(icirs) >= icirs[0], f"best ICIR {max(icirs):.3f} below smallest config {icirs[0]:.3f}"
    assert elapsed < 1800, f"sweep took {elapsed:.0f}s"
    ok(8, f"best ICIR {max(icirs):.3f} (n={points[int(np.argmax(icirs))].total}) >= "
          f"smallest-config ICIR {icirs[0]:.3f}; sweep {elapsed:.0f}s")


# -- 9. determinism ------------------------------------------------------------------------------


def test_criterion_9_cli_determinism(tmp_path):
    base = {
        "data": str(tmp_path / "gen" / "panel.csv"),
        "output": str(tmp_path / "gen"),
        "window": 4,
        "encoder": {"kind": "conv", "d_h": 6, "depth": 1, "kernel": 2, "heads": 2},
        "moe": {"groups": 2, "experts_per_group": 2, "top_k": 2, "d_e": 4, "agg_heads": 2},
        "train": {"max_epochs": 2, "lr": 1e-3, "seed": 7},
        "split": {"train": ["d0000", "d0026"], "validation": ["d0026", "d0033"],
                  "test": ["d0033", "d0039"]},
        "synth": {"n_stocks": 12, "n_days": 40, "n_features": 3, "n_styles": 1,
                  "noise_sigma": 0.3, "seed": 7},
    }
    cfg_path = tmp_path / "run.yaml"
    cfg_path.write_text(yaml.safe_dump(base))
    assert cli.main(["gen", "--config", str(cfg_path)]) == 0

    def run(out):
        assert cli.main(["train", "--config", str(cfg_path), "--out", str(out)]) == 0
        assert cli.main(["eval", "--config", str(cfg_path), "--out", str(out),
                         "--checkpoint", str(out / "checkpoint.npz")]) == 0
        h = hashlib.sha256
        return (h((out / "checkpoint.npz").read_bytes()).hexdigest(),
                h((out / "curves.csv").read_bytes()).hexdigest(),
                h((out / "eval_report.json").read_bytes()).hexdigest(),
                h((out / "eval_daily.csv").read_bytes()).hexdigest())

    a = run(tmp_path / "run_a")
    b = run(tmp_path / "run_b")
    assert a == b
    ok(9, "two cmd_train + cmd_eval runs: checkpoint, curves, report, daily series all bit-identical")


# -- 10. hyperparameter fidelity ------------------------------------------------------------------


def test_criterion_10_hyperparameter_snapshot():
    cfg = RunConfig.from_dict({})
    snapshot = {
        "lr": cfg.train.lr,
        "alpha": cfg.loss.alpha,
        "beta": cfg.loss.beta,
        "window": cfg.window,
        "max_epochs": cfg.train.max_epochs,
        "top_k": cfg.moe.top_k,
        "groups": cfg.moe.groups,
        "experts_per_group": cfg.moe.experts_per_group,
    }
    assert snapshot == {
        "lr": 5e-4,
        "alpha": 2e-3,
        "beta": 1.0,
        "window": 5,
        "max_epochs": 60,
        "top_k": 8,
        "groups": 7,
        "experts_per_group": 9,
    }
    ok(10, f"default config snapshot {snapshot}")
