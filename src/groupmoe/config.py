"""Run configuration: one YAML file with sections mirroring the module
configs. Command-line flags override file values (flag > file > default).

Defaults pin the reference hyperparameters: lr 5e-4, loss weights
alpha 2e-3 / beta 1, window length 5, 60 max epochs, top-8 routing over
7 groups of 9 experts.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass, field, is_dataclass
from pathlib import Path
from typing import get_args, get_type_hints

import yaml

from .encoders import EncoderConfig
from .moe import MoEConfig
from .objective import LossWeights
from .panel import SplitSpec
from .synth import SynthConfig
from .train import TrainConfig, _is_a, config_problems


class RunConfigError(ValueError):
    """Carries every violation found, not just the first."""

    def __init__(self, problems: list[str]):
        self.problems = problems
        super().__init__("\n".join(problems))


@dataclass
class PortfolioConfig:
    mode: str = "long_only"
    fraction: float = 0.05

    def validate(self) -> list[str]:
        problems = []
        if self.mode not in ("long_only", "long_short"):
            problems.append(f"portfolio.mode must be long_only|long_short, got {self.mode!r}")
        if not (0 < self.fraction <= 1):
            problems.append(f"portfolio.fraction must be in (0, 1], got {self.fraction}")
        return problems


@dataclass
class RunConfig:
    data: str = "panel.csv"
    output: str = "runs/default"
    window: int = 5
    encoder: EncoderConfig = field(default_factory=EncoderConfig)
    moe: MoEConfig = field(default_factory=MoEConfig)
    train: TrainConfig = field(default_factory=TrainConfig)
    loss: LossWeights = field(default_factory=LossWeights)
    split: SplitSpec | None = None
    portfolio: PortfolioConfig = field(default_factory=PortfolioConfig)
    synth: SynthConfig = field(default_factory=SynthConfig)

    def validate(self) -> list[str]:
        problems = []
        if self.window < 1:
            problems.append(f"window must be >= 1, got {self.window}")
        problems += self.encoder.validate()
        problems += self.moe.validate()
        problems += self.train.validate()
        problems += self.loss.validate()
        problems += self.portfolio.validate()
        problems += self.synth.validate()
        if self.split is not None:
            problems += self.split.validate()
        return problems

    def to_dict(self) -> dict:
        d = asdict(self)
        if self.split is not None:
            d["split"] = {name: list(interval) for name, interval in d["split"].items()}
        return d

    @classmethod
    def from_dict(cls, d) -> "RunConfig":
        """Read a run config; RunConfigError lists every violation found.

        A section is built only when it reads cleanly, so the others are
        still validated; YAML has no tuples, so a sequence becomes one.
        """
        problems = config_problems(cls, d)
        if not isinstance(d, dict):
            raise RunConfigError(problems)
        values = {}
        for name, kind in get_type_hints(cls).items():
            value = d.get(name)
            section = next((k for k in (kind, *get_args(kind)) if is_dataclass(k)), None)
            if section is None:
                if name in d and _is_a(value, kind):
                    values[name] = value
            elif value is not None:
                found = config_problems(section, value, name)
                problems += found
                if not found:
                    values[name] = section(**{k: tuple(v) if isinstance(v, list) else v for k, v in value.items()})
        cfg = cls(**values)
        problems += cfg.validate()
        if problems:
            raise RunConfigError(problems)
        return cfg


def load_config(path: str | Path) -> RunConfig:
    try:
        raw = yaml.safe_load(Path(path).read_text(encoding="utf-8"))
    except FileNotFoundError:
        raise RunConfigError([f"config file not found: {path}"]) from None
    except yaml.YAMLError as e:
        raise RunConfigError([f"config file {path} is not valid YAML: {e}"]) from None
    return RunConfig.from_dict({} if raw is None else raw)


def save_config(cfg: RunConfig, path: str | Path) -> None:
    Path(path).parent.mkdir(parents=True, exist_ok=True)
    Path(path).write_text(yaml.safe_dump(cfg.to_dict(), sort_keys=True), encoding="utf-8")
