"""Synthetic-market experiment harnesses.

These back the acceptance suite and give a reproducible recipe for the
three desk-scale studies: routing specialization against a matched
single-encoder baseline, the inner-attention ablation, and the
expert-count sweep. The panel family used throughout: three orthogonal
style regimes whose signatures are visible in the features, sized so a
narrow encoder cannot internalize all three regimes on its own.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import metrics as ME
from . import panel as P
from . import synth as SY
from . import train as TR
from .encoders import EncoderConfig
from .moe import Forecaster, MoEConfig
from .objective import LossWeights

SPECIALIZATION_SYNTH = dict(n_stocks=60, n_days=220, n_features=24, n_styles=3, noise_sigma=0.3)
SPECIALIZATION_ENCODER = dict(kind="conv", d_h=12, depth=1, kernel=3, heads=4)
SPECIALIZATION_TRAIN = dict(max_epochs=40, patience=10, lr=2e-3)
WINDOW = 5


def style_panel_streams(seed: int):
    """Generate, normalize, and split one styled panel."""
    panel, truth = SY.generate(SY.SynthConfig(seed=seed, **SPECIALIZATION_SYNTH))
    days = panel.days
    n = len(days)
    cut1, cut2 = int(n * 0.68), int(n * 0.84)
    spec = P.SplitSpec(train=(days[0], days[cut1]), validation=(days[cut1], days[cut2]),
                       test=(days[cut2], days[n - 1]))
    normed = P.apply_normalization(panel, P.fit_normalization(panel, spec.train))
    train_b, val_b, test_b = P.split(normed, spec, WINDOW)
    return normed, truth, train_b, val_b, test_b


def train_variant(seed: int, moe_cfg: MoEConfig, streams,
                  train_kw: dict | None = None) -> tuple[Forecaster, TR.TrainResult]:
    normed, _, train_b, val_b, _ = streams
    enc = EncoderConfig(**SPECIALIZATION_ENCODER)
    tcfg = TR.TrainConfig(seed=seed, **{**SPECIALIZATION_TRAIN, **(train_kw or {})})
    model = Forecaster(enc, moe_cfg, n_features=normed.n_features, window=WINDOW, seed=seed)
    result, _ = TR.train(model, train_b, val_b, tcfg, LossWeights())
    model.load_state_arrays(result.best_state)
    return model, result


@dataclass
class SpecializationOutcome:
    seed: int
    ic_moe: float
    ic_isolated: float
    ic_baseline: float
    best_slot_by_style: list[int]
    mi_style_vs_slot: float
    mi_shuffled_control: float

    @property
    def moe_beats_baseline(self) -> bool:
        return self.ic_moe > self.ic_baseline

    @property
    def slots_differ_across_styles(self) -> bool:
        return len(set(self.best_slot_by_style)) >= 2

    @property
    def mi_beats_control(self) -> bool:
        return self.mi_style_vs_slot > self.mi_shuffled_control


MOE_CFG = MoEConfig(groups=3, experts_per_group=3, top_k=2, d_e=8, agg_heads=2)
ISOLATED_CFG = MoEConfig(groups=3, experts_per_group=3, top_k=2, d_e=8, agg_heads=2,
                         inner_attention=False)
BASELINE_CFG = MoEConfig(groups=1, experts_per_group=1, top_k=1, d_e=8, agg_heads=2,
                         inner_attention=False)


def argmax_slot_by_stock(model: Forecaster, batches) -> tuple[np.ndarray, list[str]]:
    """Per stock: the slot with the highest mean gate weight over the stream."""
    sums: dict[str, np.ndarray] = {}
    for b in batches:
        _, decision, _ = model.forward(b)
        w = decision.weights.data.reshape(b.n_stocks, -1)
        for i, s in enumerate(b.stock_ids):
            sums.setdefault(s, np.zeros(w.shape[1]))
            sums[s] += w[i]
    stocks = sorted(sums)
    slots = np.array([int(np.argmax(sums[s])) for s in stocks])
    return slots, stocks


def specialization_run(seed: int) -> SpecializationOutcome:
    """Train the grouped-MoE model, its isolated-expert ablation, and the
    matched encoder+linear baseline on one styled panel."""
    streams = style_panel_streams(seed)
    normed, truth, _, _, test_b = streams

    model_moe, _ = train_variant(seed, MOE_CFG, streams)
    ic_moe = ME.evaluate_model(model_moe, test_b).ranking.ic
    model_iso, _ = train_variant(seed, ISOLATED_CFG, streams)
    ic_isolated = ME.evaluate_model(model_iso, test_b).ranking.ic
    model_base, _ = train_variant(seed, BASELINE_CFG, streams)
    ic_baseline = ME.evaluate_model(model_base, test_b).ranking.ic

    # best-performing slot per style, by per-expert portfolio AR on the
    # style-restricted stream
    best_slots = []
    for style in range(truth.betas.shape[0]):
        sub = ME.subset_batches(test_b, normed, str(style))
        grid = ME.per_expert_report(model_moe, sub)
        ars = np.array([[rep.ar for rep in row] for row in grid])
        best_slots.append(int(np.argmax(ars)))

    slots, stock_list = argmax_slot_by_stock(model_moe, test_b)
    s_idx = {s: i for i, s in enumerate(normed.stocks)}
    styles = np.array([truth.styles[s_idx[s], 0] for s in stock_list])
    mi = ME.discrete_mutual_information(styles, slots)
    shuffled = np.random.default_rng(seed).permutation(styles)
    mi_control = ME.discrete_mutual_information(shuffled, slots)

    return SpecializationOutcome(
        seed=seed,
        ic_moe=ic_moe,
        ic_isolated=ic_isolated,
        ic_baseline=ic_baseline,
        best_slot_by_style=best_slots,
        mi_style_vs_slot=mi,
        mi_shuffled_control=mi_control,
    )


@dataclass
class SweepPoint:
    groups: int
    experts_per_group: int
    total: int
    ic: float
    icir: float | None


EXPERT_SWEEP = [(2, 2), (3, 3), (4, 4), (6, 6), (7, 9)]  # totals 4, 9, 16, 36, 63
SWEEP_TRAIN = dict(max_epochs=15, patience=5)


def expert_count_sweep(seed: int = 0, top_k: int = 2) -> list[SweepPoint]:
    """Test-set ICIR across total expert counts at fixed k."""
    streams = style_panel_streams(seed)
    _, _, _, _, test_b = streams
    points = []
    for g, e in EXPERT_SWEEP:
        cfg = MoEConfig(groups=g, experts_per_group=e, top_k=top_k, d_e=8, agg_heads=2)
        model, _ = train_variant(seed, cfg, streams, train_kw=SWEEP_TRAIN)
        report = ME.evaluate_model(model, test_b)
        points.append(SweepPoint(groups=g, experts_per_group=e, total=g * e,
                                 ic=report.ranking.ic, icir=report.ranking.icir))
    return points
