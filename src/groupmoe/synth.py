"""Synthetic market generator with controllable style regimes.

Each style s owns a return map beta_s and a feature-space signature mu_s
(mutually orthogonal directions when the feature dimension allows).
Features are x = mu_style + z with z iid standard normal; the label score
is beta_s . z plus Gaussian noise, scaled to daily-return magnitude.
Prices integrate the labels with exact simple returns, so the two-day
forward return of the panel reproduces the generated label bit for bit.

The style signature in the features is what makes specialization
learnable: a router can infer the regime from the window, while the
return-relevant direction differs per regime.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .panel import StockPanel

RETURN_SCALE = 0.02  # unit score -> 2% daily move
SIGNATURE_SCALE = 1.0
LABEL_FLOOR = -0.9  # keeps integrated prices positive; never binds at sane noise
DRIFT_SWITCH_PROB = 0.02


@dataclass
class SynthConfig:
    n_stocks: int = 50
    n_days: int = 300
    n_features: int = 8
    n_styles: int = 1
    noise_sigma: float = 0.1
    seed: int = 0
    style_assignment: str = "static"  # static | per_day_drift

    def validate(self) -> list[str]:
        problems = []
        if self.n_stocks < 1 or self.n_days < 4 or self.n_features < 1:
            problems.append(
                f"synth: need n_stocks >= 1, n_days >= 4, n_features >= 1, got"
                f" {self.n_stocks}/{self.n_days}/{self.n_features}"
            )
        if self.n_styles < 1:
            problems.append(f"synth.n_styles must be >= 1, got {self.n_styles}")
        if self.noise_sigma < 0:
            problems.append(f"synth.noise_sigma must be >= 0, got {self.noise_sigma}")
        if self.style_assignment not in ("static", "per_day_drift"):
            problems.append(f"synth.style_assignment must be static|per_day_drift, got {self.style_assignment!r}")
        return problems


@dataclass
class SynthTruth:
    betas: np.ndarray  # [K, D] effective label maps (score = beta . (x - mu))
    signatures: np.ndarray  # [K, D] per-style feature mean offsets
    styles: np.ndarray  # [n_stocks, n_days] int style labels
    noise_sigma: float
    snr_by_day: np.ndarray  # realized signal variance / noise variance per day

    def to_json(self) -> str:
        return json.dumps(
            {
                "betas": self.betas.tolist(),
                "signatures": self.signatures.tolist(),
                "styles": self.styles.tolist(),
                "noise_sigma": self.noise_sigma,
                "snr_by_day": self.snr_by_day.tolist(),
            },
            sort_keys=True,
        )

    @classmethod
    def from_json(cls, text: str) -> "SynthTruth":
        d = json.loads(text)
        return cls(
            betas=np.asarray(d["betas"], dtype=np.float64),
            signatures=np.asarray(d["signatures"], dtype=np.float64),
            styles=np.asarray(d["styles"], dtype=np.int64),
            noise_sigma=float(d["noise_sigma"]),
            snr_by_day=np.asarray(d["snr_by_day"], dtype=np.float64),
        )


def _orthogonal_directions(rng: np.random.Generator, k: int, d: int) -> np.ndarray:
    """K unit vectors in R^D, mutually orthogonal whenever k <= d."""
    if k <= d:
        raw = rng.normal(size=(d, k))
        q, _ = np.linalg.qr(raw)
        return q[:, :k].T.copy()
    dirs = rng.normal(size=(k, d))
    return dirs / np.linalg.norm(dirs, axis=1, keepdims=True)


def generate(cfg: SynthConfig) -> tuple[StockPanel, SynthTruth]:
    problems = cfg.validate()
    if problems:
        raise ValueError("; ".join(problems))
    root = np.random.SeedSequence(cfg.seed)
    rng_dirs, rng_styles, rng_feat, rng_noise, rng_p0 = (np.random.default_rng(s) for s in root.spawn(5))
    n, days, d, k = cfg.n_stocks, cfg.n_days, cfg.n_features, cfg.n_styles

    u = _orthogonal_directions(rng_dirs, k, d)
    betas = RETURN_SCALE * u
    signatures = np.zeros((k, d))
    if k > 1:
        # signatures orthogonal to each other and (when room allows) to the betas
        extra = _orthogonal_directions(rng_dirs, min(2 * k, d), d)
        signatures = SIGNATURE_SCALE * (extra[k : 2 * k] if 2 * k <= d else extra[:k])

    styles = np.empty((n, days), dtype=np.int64)
    styles[:, 0] = rng_styles.integers(0, k, size=n) if k > 1 else 0
    for t in range(1, days):
        if cfg.style_assignment == "per_day_drift" and k > 1:
            switch = rng_styles.random(n) < DRIFT_SWITCH_PROB
            styles[:, t] = np.where(switch, rng_styles.integers(0, k, size=n), styles[:, t - 1])
        else:
            styles[:, t] = styles[:, 0]

    z = rng_feat.normal(size=(n, days, d))
    features = z + signatures[styles]
    score = np.einsum("ntd,ntd->nt", z, betas[styles])
    noise = RETURN_SCALE * cfg.noise_sigma * rng_noise.normal(size=(n, days))
    labels = np.maximum(score + noise, LABEL_FLOOR)

    # exact simple-return integration: label of day t is the move t+1 -> t+2
    prices = np.empty((n, days))
    prices[:, 0] = 100.0 * np.exp(rng_p0.normal(scale=0.05, size=n))
    if days > 1:
        prices[:, 1] = prices[:, 0]
    for t in range(2, days):
        prices[:, t] = prices[:, t - 1] * (1.0 + labels[:, t - 2])

    signal_var = score.var(axis=0)
    noise_var = (RETURN_SCALE * cfg.noise_sigma) ** 2
    snr = signal_var / noise_var if noise_var > 0 else np.full(days, np.inf)

    panel = StockPanel(
        stocks=[f"s{i:04d}" for i in range(n)],
        days=[f"d{t:04d}" for t in range(days)],
        features=features,
        prices=prices,
        membership=styles.astype(object) if k > 1 else None,
    )
    truth = SynthTruth(
        betas=betas,
        signatures=signatures,
        styles=styles,
        noise_sigma=cfg.noise_sigma,
        snr_by_day=snr,
    )
    return panel, truth


def teacher_student_panel(cfg: SynthConfig | None = None) -> StockPanel:
    """Single-style panel every encoder + linear head should crack."""
    if cfg is None:
        cfg = SynthConfig()
    if cfg.n_styles != 1:
        raise ValueError("teacher-student panel requires n_styles == 1")
    panel, _ = generate(cfg)
    return panel


def save_truth(truth: SynthTruth, path: str | Path) -> None:
    Path(path).write_text(truth.to_json() + "\n", encoding="utf-8")


def load_truth(path: str | Path) -> SynthTruth:
    return SynthTruth.from_json(Path(path).read_text(encoding="utf-8"))
