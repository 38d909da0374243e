"""Run configuration: a strict JSON schema resolved into dataclasses.

Unknown keys are rejected everywhere so a typo in a hyperparameter name
fails loudly instead of silently running defaults.  The resolved config is
written verbatim into every run directory; re-running from that file
reproduces the run bit-exactly on the same build.
"""

from __future__ import annotations

import dataclasses
import inspect
import json
from dataclasses import dataclass, field
from pathlib import Path

from .comm import CommSettings
from .envs import env_class
from .errors import ConfigError
from .learner import TrainConfig


# JSON types a field or env parameter accepts, by its annotation
_JSON_TYPES = {"int": (int,), "float": (int, float), "bool": (bool,), "str": (str,),
               "dict": (dict,)}


def _check_type(where: str, annotation, value):
    """Reject a value of the wrong JSON type, such as 2.5 for an int or "no" for a bool.

    The annotation is the string form that `from __future__ import annotations`
    leaves on dataclass fields and constructor parameters.
    """
    kinds = _JSON_TYPES.get(annotation)
    if kinds is None:
        return
    # bool is an int subclass, but true is not a count and 1 is not a switch
    if not isinstance(value, kinds) or (isinstance(value, bool) and bool not in kinds):
        raise ConfigError(f"{where}: expected {annotation}, got {value!r}")


@dataclass(frozen=True)
class EnvSpec:
    """An environment by name; params must be arguments its constructor takes."""

    name: str = "cue_passing"
    params: dict = field(default_factory=dict)

    def __post_init__(self):
        accepted = inspect.signature(env_class(self.name)).parameters
        unknown = set(self.params) - set(accepted)
        if unknown:
            raise ConfigError(f"env {self.name!r}: unknown params {sorted(unknown)}, "
                              f"it takes {sorted(accepted)}")
        for key, value in self.params.items():
            _check_type(f"env.params.{key}", accepted[key].annotation, value)


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
        _check_type(f"{where}.{name}", fields[name].type, value)
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
