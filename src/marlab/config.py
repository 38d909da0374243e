"""Run configuration: a strict JSON schema resolved into dataclasses.

Unknown keys are rejected everywhere so a typo in a hyperparameter name
fails loudly instead of silently running defaults.  The resolved config is
written verbatim into every run directory; re-running from that file
reproduces the run bit-exactly on the same build.
"""

from __future__ import annotations

import dataclasses
import json
from dataclasses import dataclass, field
from pathlib import Path

from .comm import CommSettings
from .errors import ConfigError
from .learner import TrainConfig


@dataclass(frozen=True)
class EnvSpec:
    name: str = "cue_passing"
    params: dict = field(default_factory=dict)


@dataclass(frozen=True)
class ExploreSettings:
    k: int = 1
    temperature: float = 0.0


@dataclass(frozen=True)
class RunConfig:
    env: EnvSpec = field(default_factory=EnvSpec)
    mixer: str = "vdn"
    comm: CommSettings = field(default_factory=CommSettings)
    exploration: ExploreSettings = field(default_factory=ExploreSettings)
    train: TrainConfig = field(default_factory=TrainConfig)
    seeds: tuple = (1, 2, 3, 4, 5)
    total_env_steps: int = 50_000
    out_dir: str = "runs/run"

    def __post_init__(self):
        if self.mixer not in ("vdn", "qmix"):
            raise ConfigError(f"mixer must be 'vdn' or 'qmix', got {self.mixer!r}")
        if not self.seeds:
            raise ConfigError("need at least one seed")
        if not all(isinstance(s, int) and not isinstance(s, bool) for s in self.seeds):
            raise ConfigError(f"seeds must be integers, got {list(self.seeds)}")
        if self.total_env_steps < 1:
            raise ConfigError("total_env_steps must be positive")


def _build(cls, data: dict, where: str):
    if not isinstance(data, dict):
        raise ConfigError(f"{where}: expected an object, got {type(data).__name__}")
    fields = {f.name: f for f in dataclasses.fields(cls)}
    unknown = set(data) - set(fields)
    if unknown:
        raise ConfigError(f"{where}: unknown keys {sorted(unknown)}")
    kwargs = {}
    for name, value in data.items():
        if name == "env":
            value = _build(EnvSpec, value, f"{where}.env")
        elif name == "comm":
            value = _build(CommSettings, value, f"{where}.comm")
        elif name == "exploration":
            value = _build(ExploreSettings, value, f"{where}.exploration")
        elif name == "train":
            value = _build(TrainConfig, value, f"{where}.train")
        elif name == "seeds":
            if not isinstance(value, list):
                raise ConfigError(f"{where}.seeds: expected a list, got {value!r}")
            value = tuple(value)
        kwargs[name] = value
    try:
        return cls(**kwargs)
    except TypeError as exc:
        raise ConfigError(f"{where}: {exc}") from exc


def run_config_from_dict(data: dict) -> RunConfig:
    return _build(RunConfig, data, "config")


def load_run_config(path) -> RunConfig:
    try:
        data = json.loads(Path(path).read_text())
    except json.JSONDecodeError as exc:
        raise ConfigError(f"{path}: invalid JSON ({exc})") from exc
    return run_config_from_dict(data)


def run_config_to_dict(cfg: RunConfig) -> dict:
    out = dataclasses.asdict(cfg)
    out["seeds"] = list(cfg.seeds)
    return out


def save_run_config(cfg: RunConfig, path):
    Path(path).write_text(json.dumps(run_config_to_dict(cfg), indent=2) + "\n")
