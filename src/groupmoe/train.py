"""Training loop: seeded day shuffling, adaptive-moment updates,
validation-IC early stopping, and checkpoint round-trips.

One gradient step consumes ``batch_days`` whole trading days (default 1):
the IC loss is cross-sectional, so days are atomic. Validation runs at
the end of every epoch; the parameters with the best validation IC so
far are retained and written as the final checkpoint.
"""

from __future__ import annotations

import json
import time
import zipfile
from dataclasses import asdict, dataclass, field
from pathlib import Path

import numpy as np

from . import tensor as T
from .encoders import EncoderConfig
from .metrics import daily_ic
from .moe import Forecaster, MoEConfig
from .objective import LossBreakdown, LossWeights, expert_loss, router_loss, total_loss
from .panel import DayBatch, NormStats

CHECKPOINT_VERSION = 2


class NumericalError(RuntimeError):
    """Non-finite loss or gradient; aborts training with a diagnostic."""


class CheckpointError(ValueError):
    pass


@dataclass
class TrainConfig:
    max_epochs: int = 60
    lr: float = 5e-4
    patience: int = 10
    batch_days: int = 1
    seed: int = 0

    def validate(self) -> list[str]:
        problems = []
        if self.max_epochs < 1:
            problems.append(f"train.max_epochs must be >= 1, got {self.max_epochs}")
        if self.lr <= 0:
            problems.append(f"train.lr must be > 0, got {self.lr}")
        if self.patience < 1:
            problems.append(f"train.patience must be >= 1, got {self.patience}")
        if self.batch_days < 1:
            problems.append(f"train.batch_days must be >= 1, got {self.batch_days}")
        return problems


class Adam:
    """Adaptive-moment optimizer, decay 0.9/0.999, eps 1e-8, bias-corrected."""

    def __init__(self, params: list[tuple[str, T.Tensor]], lr: float,
                 beta1: float = 0.9, beta2: float = 0.999, eps: float = 1e-8):
        self.params = params
        self.lr = lr
        self.beta1, self.beta2, self.eps = beta1, beta2, eps
        self.t = 0
        self.m = {name: np.zeros_like(p.data) for name, p in params}
        self.v = {name: np.zeros_like(p.data) for name, p in params}

    def step(self) -> None:
        self.t += 1
        for name, p in self.params:
            if p.grad is None:
                continue
            g = p.grad
            m = self.m[name] = self.beta1 * self.m[name] + (1 - self.beta1) * g
            v = self.v[name] = self.beta2 * self.v[name] + (1 - self.beta2) * g * g
            m_hat = m / (1 - self.beta1**self.t)
            v_hat = v / (1 - self.beta2**self.t)
            p.data = p.data - self.lr * m_hat / (np.sqrt(v_hat) + self.eps)

    def state(self) -> dict:
        return {"t": self.t, "m": self.m, "v": self.v}

    def load_state(self, state: dict) -> None:
        self.t = int(state["t"])
        self.m = {k: np.asarray(v, dtype=np.float64) for k, v in state["m"].items()}
        self.v = {k: np.asarray(v, dtype=np.float64) for k, v in state["v"].items()}


def day_loss(model: Forecaster, batches: list[DayBatch], weights: LossWeights) -> tuple[T.Tensor, LossBreakdown]:
    """Forward pass over whole days plus the weighted expert and router loss."""
    preds, labels, logits = [], [], []
    for batch in batches:
        y_hat, decision, _ = model.forward(batch)
        preds.append(y_hat)
        labels.append(batch.labels)
        logits.append(decision.logits)
    return total_loss(expert_loss(preds, labels), router_loss(logits), weights)


def step(model: Forecaster, day_batches: list[DayBatch], optimizer: Adam,
         cfg: TrainConfig, weights: LossWeights) -> LossBreakdown:
    """One gradient step over a list of whole days."""
    if not day_batches:
        raise ValueError("step needs at least one day batch")
    total, breakdown = day_loss(model, day_batches, weights)
    if not np.isfinite(breakdown.total):
        days = [b.day for b in day_batches]
        raise NumericalError(f"non-finite loss {breakdown.total} on day(s) {days}")
    model.zero_grad()
    total.backward()
    for name, p in model.named_parameters():
        if p.grad is not None and not np.all(np.isfinite(p.grad)):
            days = [b.day for b in day_batches]
            raise NumericalError(f"non-finite gradient in {name} on day(s) {days}")
    optimizer.step()
    return breakdown


def validation_ic(model: Forecaster, batches: list[DayBatch]) -> float:
    """Mean daily IC over the validation stream (undefined days excluded)."""
    vals = []
    for b in batches:
        if b.n_stocks < 2:
            continue
        v = daily_ic(model.predict(b), b.labels)
        if v is not None:
            vals.append(v)
    if not vals:
        raise ValueError("validation stream has no day with a defined IC")
    return float(np.mean(vals))


@dataclass
class TrainResult:
    best_state: dict
    best_val_ic: float
    best_epoch: int
    epochs_run: int
    history: list[dict] = field(default_factory=list)


def train(model: Forecaster, train_batches: list[DayBatch], val_batches: list[DayBatch],
          cfg: TrainConfig, weights: LossWeights, log_path: str | Path | None = None,
          resume: dict | None = None) -> tuple[TrainResult, dict]:
    """Run the full loop; returns the best-validation-IC parameters.

    ``resume`` is a train-state dict from ``load_train_state``; epoch
    numbering, optimizer moments, and the shuffle rng continue from it.
    """
    problems = cfg.validate() + weights.validate()
    if problems:
        raise ValueError("; ".join(problems))
    if not train_batches or not val_batches:
        raise ValueError("train and validation streams must be nonempty")

    optimizer = Adam(model.named_parameters(), lr=cfg.lr)
    rng = np.random.default_rng(np.random.SeedSequence(cfg.seed).spawn(1)[0])
    start_epoch = 0
    best_state = model.state_arrays()
    best_val_ic = -np.inf
    best_epoch = -1
    epochs_since_best = 0
    history: list[dict] = []

    if resume is not None:
        model.load_state_arrays(resume["params"])
        optimizer.load_state(resume["optimizer"])
        rng.bit_generator.state = resume["rng_state"]
        start_epoch = int(resume["epoch"])
        best_state = resume["best_params"]
        best_val_ic = float(resume["best_val_ic"])
        best_epoch = int(resume["best_epoch"])
        epochs_since_best = int(resume["epochs_since_best"])

    log_fh = open(log_path, "a", encoding="utf-8") if log_path else None
    epoch = start_epoch
    try:
        for epoch in range(start_epoch, cfg.max_epochs):
            t0 = time.perf_counter()
            order = rng.permutation(len(train_batches))
            sums = np.zeros(3)
            n_steps = 0
            for lo in range(0, len(order), cfg.batch_days):
                chunk = [train_batches[i] for i in order[lo : lo + cfg.batch_days]]
                bd = step(model, chunk, optimizer, cfg, weights)
                sums += (bd.total, bd.expert_loss, bd.router_loss)
                n_steps += 1
            val_ic = validation_ic(model, val_batches)
            row = {
                "epoch": epoch,
                "train_loss": sums[0] / n_steps,
                "expert_loss": sums[1] / n_steps,
                "router_loss": sums[2] / n_steps,
                "val_ic": val_ic,
                "wall_ms": (time.perf_counter() - t0) * 1e3,
            }
            history.append(row)
            if log_fh:
                log_fh.write(json.dumps(row) + "\n")
                log_fh.flush()
            if val_ic > best_val_ic:
                best_val_ic = val_ic
                best_epoch = epoch
                best_state = model.state_arrays()
                epochs_since_best = 0
            else:
                epochs_since_best += 1
                if epochs_since_best >= cfg.patience:
                    epoch += 1
                    break
        else:
            epoch = cfg.max_epochs
    finally:
        if log_fh:
            log_fh.close()

    return TrainResult(
        best_state=best_state,
        best_val_ic=float(best_val_ic),
        best_epoch=best_epoch,
        epochs_run=epoch,
        history=history,
    ), {
        "params": model.state_arrays(),
        "optimizer": optimizer.state(),
        "rng_state": rng.bit_generator.state,
        "epoch": epoch,
        "best_params": best_state,
        "best_val_ic": float(best_val_ic),
        "best_epoch": best_epoch,
        "epochs_since_best": epochs_since_best,
    }


# -- archives --------------------------------------------------------------------
#
# Checkpoints and train states are npz archives of named arrays plus one
# JSON metadata entry that records the format version and the archive kind
# ("model" or "train_state"), so one file is never read as the other.


def _write_archive(path: str | Path, kind: str, meta: dict, arrays: dict[str, np.ndarray]) -> None:
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    meta = {"version": CHECKPOINT_VERSION, "kind": kind, **meta}
    blob = json.dumps(meta, sort_keys=True).encode()
    with open(path, "wb") as fh:
        np.savez(fh, __meta__=np.frombuffer(blob, dtype=np.uint8), **arrays)


def _read_archive(path: str | Path, kind: str) -> tuple[dict, dict[str, np.ndarray]]:
    """(meta, arrays) of an archive of the given kind at the supported version."""
    try:
        with np.load(path, allow_pickle=False) as npz:
            if "__meta__" not in npz:
                raise CheckpointError(f"{path}: not a {kind} archive (no metadata entry)")
            meta = json.loads(bytes(npz["__meta__"]).decode())
            arrays = {k: npz[k] for k in npz.files if k != "__meta__"}
    except (zipfile.BadZipFile, OSError, ValueError, KeyError, EOFError) as e:
        if isinstance(e, CheckpointError):
            raise
        raise CheckpointError(f"{path}: unreadable {kind} archive ({e})") from None
    version = meta.get("version") if isinstance(meta, dict) else None
    if version != CHECKPOINT_VERSION:
        raise CheckpointError(f"{path}: archive version {version} != supported {CHECKPOINT_VERSION}")
    if meta.get("kind") != kind:
        raise CheckpointError(f"{path}: is a {meta.get('kind')} archive, expected a {kind} archive")
    return meta, arrays


def _section(arrays: dict[str, np.ndarray], prefix: str) -> dict[str, np.ndarray]:
    return {k[len(prefix):]: v for k, v in arrays.items() if k.startswith(prefix)}


# -- checkpoints -------------------------------------------------------------
#
# A model checkpoint holds every parameter under "param/<path>"; its
# metadata adds both configs, the window length, the feature count, and
# the normalization statistics.


def save_checkpoint(model: Forecaster, path: str | Path, norm: NormStats | None = None) -> None:
    meta = {
        "encoder": asdict(model.encoder_cfg),
        "moe": asdict(model.moe_cfg),
        "window": model.window,
        "n_features": model.n_features,
        "normalization": norm.to_dict() if norm is not None else None,
    }
    arrays = {f"param/{name}": p.data for name, p in model.named_parameters()}
    _write_archive(path, "model", meta, arrays)


def load_checkpoint(path: str | Path, expect_encoder: EncoderConfig | None = None,
                    expect_moe: MoEConfig | None = None) -> tuple[Forecaster, dict]:
    """Rebuild the model from a checkpoint; optional config guards."""
    meta, arrays = _read_archive(path, "model")
    enc_cfg = EncoderConfig(**meta["encoder"])
    moe_cfg = MoEConfig(**meta["moe"])
    if expect_encoder is not None and asdict(expect_encoder) != asdict(enc_cfg):
        raise CheckpointError(
            f"{path}: checkpoint encoder config {asdict(enc_cfg)} does not match requested {asdict(expect_encoder)}"
        )
    if expect_moe is not None and asdict(expect_moe) != asdict(moe_cfg):
        raise CheckpointError(
            f"{path}: checkpoint moe config {asdict(moe_cfg)} does not match requested {asdict(expect_moe)}"
        )
    model = Forecaster(enc_cfg, moe_cfg, n_features=meta["n_features"], window=meta["window"], seed=0)
    model.load_state_arrays(_section(arrays, "param/"))
    return model, meta


# -- resume state ---------------------------------------------------------------


def save_train_state(path: str | Path, state: dict, model: Forecaster) -> None:
    """Separate archive with everything needed to continue training."""
    meta = {
        "encoder": asdict(model.encoder_cfg),
        "moe": asdict(model.moe_cfg),
        "epoch": state["epoch"],
        "best_val_ic": state["best_val_ic"],
        "best_epoch": state["best_epoch"],
        "epochs_since_best": state["epochs_since_best"],
        "optimizer_t": state["optimizer"]["t"],
        "rng_state": state["rng_state"],
    }
    sections = {"param/": state["params"], "best/": state["best_params"],
                "adam_m/": state["optimizer"]["m"], "adam_v/": state["optimizer"]["v"]}
    arrays = {prefix + name: arr for prefix, named in sections.items() for name, arr in named.items()}
    _write_archive(path, "train_state", meta, arrays)


def load_train_state(path: str | Path, model: Forecaster) -> dict:
    meta, arrays = _read_archive(path, "train_state")
    if meta["encoder"] != asdict(model.encoder_cfg) or meta["moe"] != asdict(model.moe_cfg):
        raise CheckpointError(f"{path}: train state was written for a different model configuration")
    return {
        "params": _section(arrays, "param/"),
        "best_params": _section(arrays, "best/"),
        "optimizer": {"t": int(meta["optimizer_t"]), "m": _section(arrays, "adam_m/"),
                      "v": _section(arrays, "adam_v/")},
        "rng_state": meta["rng_state"],
        "epoch": int(meta["epoch"]),
        "best_val_ic": float(meta["best_val_ic"]),
        "best_epoch": int(meta["best_epoch"]),
        "epochs_since_best": int(meta["epochs_since_best"]),
    }

