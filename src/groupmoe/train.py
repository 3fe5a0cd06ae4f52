"""Training loop: seeded day shuffling, adaptive-moment updates,
validation-IC early stopping, and checkpoint round-trips.

One gradient step consumes one whole trading day, in a seeded shuffle
order: the IC loss is cross-sectional, so days are atomic. Validation
runs at the end of every epoch; the parameters with the best validation
IC so far are retained and written as the final checkpoint.
"""

from __future__ import annotations

import json
import math
import time
import types
import zipfile
from dataclasses import MISSING, asdict, dataclass, fields, is_dataclass
from pathlib import Path
from typing import get_args, get_origin, get_type_hints

import numpy as np

from . import tensor as T
from .encoders import EncoderConfig, EncoderConfigError
from .metrics import InsufficientDataError, daily_ic
from .moe import Forecaster, MoEConfig, MoEConfigError, NumericalError
from .objective import LossBreakdown, LossWeights, expert_loss, router_loss, total_loss
from .panel import DayBatch, NormStats

CHECKPOINT_VERSION = 2


class CheckpointError(ValueError):
    pass


@dataclass
class TrainConfig:
    max_epochs: int = 60
    lr: float = 5e-4
    patience: int = 10
    seed: int = 0

    def validate(self) -> list[str]:
        problems = []
        if self.max_epochs < 1:
            problems.append(f"train.max_epochs must be >= 1, got {self.max_epochs}")
        if self.lr <= 0:
            problems.append(f"train.lr must be > 0, got {self.lr}")
        if self.patience < 1:
            problems.append(f"train.patience must be >= 1, got {self.patience}")
        return problems


class Adam:
    """Adaptive-moment optimizer, decay 0.9/0.999, eps 1e-8, bias-corrected."""

    BETA1, BETA2, EPS = 0.9, 0.999, 1e-8

    def __init__(self, params: list[tuple[str, T.Tensor]], lr: float):
        self.params = params
        self.lr = lr
        self.t = 0
        self.m = {name: np.zeros_like(p.data) for name, p in params}
        self.v = {name: np.zeros_like(p.data) for name, p in params}

    def step(self) -> None:
        self.t += 1
        for name, p in self.params:
            if p.grad is None:
                continue
            g = p.grad
            m = self.m[name] = self.BETA1 * self.m[name] + (1 - self.BETA1) * g
            v = self.v[name] = self.BETA2 * self.v[name] + (1 - self.BETA2) * g * g
            m_hat = m / (1 - self.BETA1**self.t)
            v_hat = v / (1 - self.BETA2**self.t)
            p.data = p.data - self.lr * m_hat / (np.sqrt(v_hat) + self.EPS)


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
        v = daily_ic(model.predict(b), b.labels)
        if v is not None:
            vals.append(v)
    if not vals:
        raise InsufficientDataError("validation stream has no day with a defined IC")
    return float(np.mean(vals))


@dataclass
class TrainState:
    """Everything a run needs to go on; the fields are exactly the entries
    of a train-state archive. ``epoch`` counts the finished epochs. The
    four maps from parameter name to array are the archive sections whose
    prefixes ``SECTIONS`` gives; the other fields are its metadata."""

    epoch: int
    best_val_ic: float
    best_epoch: int
    epochs_since_best: int
    optimizer_t: int
    rng_state: dict
    params: dict[str, np.ndarray]
    best_params: dict[str, np.ndarray]
    adam_m: dict[str, np.ndarray]
    adam_v: dict[str, np.ndarray]


SECTIONS = {"params": "param/", "best_params": "best/", "adam_m": "adam_m/", "adam_v": "adam_v/"}


def train(model: Forecaster, train_batches: list[DayBatch], val_batches: list[DayBatch],
          cfg: TrainConfig, weights: LossWeights, log_path: str | Path | None = None,
          resume: TrainState | None = None) -> tuple[TrainState, list[dict]]:
    """Train until ``cfg.max_epochs`` epochs are finished or the last
    ``cfg.patience`` epochs did not raise the best validation IC; returns
    the run's state and one history row per epoch trained by this call.
    Train days with fewer than two stocks define no IC and are skipped.

    ``resume`` (from ``load_train_state``) is continued in place: epoch
    numbering, optimizer moments, and the shuffle rng go on from it, and a
    run that is already finished trains nothing. ``log_path`` is started
    afresh for a new run and appended to for a resumed one.
    """
    problems = cfg.validate() + weights.validate()
    if problems:
        raise ValueError("; ".join(problems))
    train_batches = [b for b in train_batches if b.n_stocks >= 2]  # a one-stock day defines no IC
    if not train_batches:
        raise InsufficientDataError("train stream has no day with two or more stocks")
    if not any(b.n_stocks >= 2 for b in val_batches):
        raise InsufficientDataError("validation stream has no day with a defined IC (none has two or more stocks)")

    optimizer = Adam(model.named_parameters(), lr=cfg.lr)
    rng = np.random.default_rng(np.random.SeedSequence(cfg.seed).spawn(1)[0])
    if resume is None:
        state = TrainState(epoch=0, best_val_ic=-np.inf, best_epoch=-1, epochs_since_best=0, optimizer_t=0,
                           rng_state=rng.bit_generator.state, params=model.state_arrays(),
                           best_params=model.state_arrays(), adam_m=optimizer.m, adam_v=optimizer.v)
    else:
        state = resume
        model.load_state_arrays(state.params)
        optimizer.t, optimizer.m, optimizer.v = state.optimizer_t, state.adam_m, state.adam_v
        rng.bit_generator.state = state.rng_state
    history: list[dict] = []

    log_fh = open(log_path, "w" if resume is None else "a", encoding="utf-8") if log_path else None
    try:
        while state.epoch < cfg.max_epochs and state.epochs_since_best < cfg.patience:
            t0 = time.perf_counter()
            order = rng.permutation(len(train_batches))
            sums = np.zeros(3)
            for i in order:
                bd = step(model, [train_batches[i]], optimizer, cfg, weights)
                sums += (bd.total, bd.expert_loss, bd.router_loss)
            n_steps = len(order)
            val_ic = validation_ic(model, val_batches)
            row = {
                "epoch": state.epoch,
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
            if val_ic > state.best_val_ic:
                state.best_val_ic, state.best_epoch, state.best_params = val_ic, state.epoch, model.state_arrays()
                state.epochs_since_best = 0
            else:
                state.epochs_since_best += 1
            state.epoch += 1
    finally:
        if log_fh:
            log_fh.close()

    state.params, state.optimizer_t, state.rng_state = model.state_arrays(), optimizer.t, rng.bit_generator.state
    return state, history


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
        with open(path, "rb") as fh, np.load(fh, allow_pickle=False) as npz:
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


def _section(path: str | Path, arrays: dict[str, np.ndarray], prefix: str,
             model: Forecaster) -> dict[str, np.ndarray]:
    """The arrays under ``prefix``, which must hold exactly the model's
    parameter names, each a finite float64 array of the model's shape."""
    section = {k[len(prefix):]: v for k, v in arrays.items() if k.startswith(prefix)}
    shapes = {name: p.data.shape for name, p in model.named_parameters()}
    for name, shape in shapes.items():
        if name not in section:
            raise CheckpointError(f"{path}: missing parameter {prefix}{name}")
        if section[name].dtype != np.float64:
            raise CheckpointError(f"{path}: parameter {prefix}{name} has dtype {section[name].dtype},"
                                  " expected float64")
        if section[name].shape != shape:
            raise CheckpointError(f"{path}: parameter {prefix}{name} has shape {section[name].shape},"
                                  f" the model needs {shape}")
        if not np.isfinite(section[name]).all():
            raise CheckpointError(f"{path}: parameter {prefix}{name} has a non-finite value")
    unknown = sorted(section.keys() - shapes.keys())
    if unknown:
        raise CheckpointError(f"{path}: unknown parameter {prefix}{unknown[0]}")
    return section


def _is_a(value, kind) -> bool:
    """isinstance for JSON and YAML values against a field annotation: a
    bool is not a number, an int is a float, ``X | None`` is either, and
    ``tuple[str, str]`` is a sequence of two strings. A config section
    (a dataclass) is read by a ``config_problems`` call of its own."""
    if isinstance(kind, types.UnionType):
        return any(_is_a(value, k) for k in get_args(kind))
    if get_origin(kind) is tuple:
        args = get_args(kind)
        return isinstance(value, (list, tuple)) and len(value) == len(args) and all(map(_is_a, value, args))
    if is_dataclass(kind):
        return True
    if isinstance(value, bool) and kind is not bool:
        return False
    return isinstance(value, (int, float) if kind is float else kind)


def _kind_name(kind) -> str:
    if isinstance(kind, types.UnionType):
        return " or ".join(_kind_name(k) for k in get_args(kind))
    return str(kind) if get_origin(kind) else kind.__name__


def _label(section: str, key: str) -> str:
    return f"{section}.{key}" if section else key


def config_problems(cls, raw, section: str = "") -> list[str]:
    """Every way ``raw`` fails to spell the config dataclass ``cls``: it is
    not a mapping, it has a key that is no field or lacks a field without
    a default, or a value is not of its field's annotated type. Entries
    are named ``section.key``; the top level of a run config has no
    section. Run configs and archive metadata are both read through here."""
    where = repr(section) if section else "the config"
    if not isinstance(raw, dict):
        return [f"{where} must be a mapping, got {raw!r}"]
    kinds = get_type_hints(cls)
    problems = []
    unknown = [k for k in raw if k not in kinds]
    if unknown:
        problems.append(f"{where} has unknown key(s) {unknown}")
    for f in fields(cls):
        if f.name not in raw and f.default is MISSING and f.default_factory is MISSING:
            problems.append(f"{_label(section, f.name)!r} is missing")
    for name, kind in kinds.items():
        if name in raw and not _is_a(raw[name], kind):
            problems.append(f"{_label(section, name)!r} is {raw[name]!r}, expected {_kind_name(kind)}")
    return problems


def _meta(path: str | Path, meta: dict, key: str, kind):
    """meta[key], which must exist and be a ``kind``."""
    if key not in meta:
        raise CheckpointError(f"{path}: metadata has no {key!r} entry")
    if not _is_a(meta[key], kind):
        raise CheckpointError(f"{path}: metadata {key!r} is {meta[key]!r}, expected {_kind_name(kind)}")
    return meta[key]


def _meta_config(path: str | Path, meta: dict, key: str, cls):
    """The config dataclass ``cls`` from meta[key], read as a run config
    section is; an archive records every field, so none may be missing."""
    if key not in meta:
        raise CheckpointError(f"{path}: metadata has no {key!r} entry")
    section = meta[key]
    problems = (config_problems(cls, section, key)
                or [f"{_label(key, f.name)!r} is missing" for f in fields(cls) if f.name not in section])
    if problems:
        raise CheckpointError(f"{path}: metadata {'; '.join(problems)}")
    return cls(**section)


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


def load_checkpoint(path: str | Path) -> tuple[Forecaster, dict]:
    """Rebuild the model from a checkpoint."""
    meta, arrays = _read_archive(path, "model")
    enc_cfg = _meta_config(path, meta, "encoder", EncoderConfig)
    moe_cfg = _meta_config(path, meta, "moe", MoEConfig)
    n_features, window = _meta(path, meta, "n_features", int), _meta(path, meta, "window", int)
    norm = _meta(path, meta, "normalization", dict | None)
    if norm is not None:
        for key in ("mean", "std"):
            stats = norm.get(key)
            if not (isinstance(stats, list) and len(stats) == n_features
                    and all(_is_a(v, float) and math.isfinite(v) for v in stats)):
                raise CheckpointError(
                    f"{path}: metadata 'normalization.{key}' must be a list of {n_features} finite numbers")
    try:
        model = Forecaster(enc_cfg, moe_cfg, n_features=n_features, window=window, seed=0)
    except (EncoderConfigError, MoEConfigError) as e:
        raise CheckpointError(f"{path}: metadata describes no valid model ({e})") from None
    model.load_state_arrays(_section(path, arrays, "param/", model))
    return model, meta


# -- resume state ---------------------------------------------------------------


def save_train_state(path: str | Path, state: TrainState, model: Forecaster) -> None:
    """Separate archive with everything needed to continue training."""
    meta = {"encoder": asdict(model.encoder_cfg), "moe": asdict(model.moe_cfg)}
    arrays = {}
    for f in fields(TrainState):
        value = getattr(state, f.name)
        if f.name in SECTIONS:
            arrays.update((SECTIONS[f.name] + name, arr) for name, arr in value.items())
        else:
            meta[f.name] = value
    _write_archive(path, "train_state", meta, arrays)


def load_train_state(path: str | Path, model: Forecaster) -> TrainState:
    meta, arrays = _read_archive(path, "train_state")
    if (_meta_config(path, meta, "encoder", EncoderConfig) != model.encoder_cfg
            or _meta_config(path, meta, "moe", MoEConfig) != model.moe_cfg):
        raise CheckpointError(f"{path}: train state was written for a different model configuration")
    state = TrainState(**{name: _section(path, arrays, SECTIONS[name], model) if name in SECTIONS
                          else kind(_meta(path, meta, name, kind))
                          for name, kind in get_type_hints(TrainState).items()})
    try:
        np.random.PCG64(0).state = state.rng_state
    except (TypeError, ValueError, KeyError) as e:
        raise CheckpointError(f"{path}: metadata 'rng_state' is not a PCG64 state ({e!r})") from None
    return state
