"""Run configuration: a strict JSON schema resolved into dataclasses.

Unknown keys are rejected everywhere so a typo in a hyperparameter name
fails loudly instead of silently running defaults.  The resolved config is
written verbatim into every run directory; re-running from that file
reproduces the run bit-exactly on the same build.

Config files, command-line flags and sweep cells (patch_run_config) all
become a RunConfig through run_config_from_dict and its checks.
"""

from __future__ import annotations

import dataclasses
import inspect
import json
import sys
import typing
from dataclasses import dataclass, field
from pathlib import Path

from .comm import CommSettings
from .envs import env_class
from .errors import ConfigError
from .exploration import ExplorationConfig
from .learner import TrainConfig
from .mixers import MIXERS


# JSON types a field or env parameter accepts, by its annotated type
_JSON_TYPES = {int: (int,), float: (int, float), bool: (bool,), str: (str,), dict: (dict,)}


def check_type(where: str, annotation, value):
    """value in its field's type: a float field's integer as that float.  Reject
    a value of the wrong JSON type, such as 2.5 for an int or "no" for a bool,
    and the NaN and Infinity that Python's JSON reader accepts for a float."""
    kinds = _JSON_TYPES.get(annotation)
    if kinds is None:
        return value
    # bool is an int subclass, but true is not a count and 1 is not a switch
    if not isinstance(value, kinds) or (isinstance(value, bool) and bool not in kinds):
        raise ConfigError(f"{where}: expected {annotation.__name__}, got {value!r}")
    # NaN, inf and an integer no float holds
    if annotation is float and not abs(value) <= sys.float_info.max:
        raise ConfigError(f"{where}: expected a finite number, got {value!r}")
    return float(value) if annotation is float else value


def check_seed(where: str, seed):
    """A seed keys every random stream (rng.stream), which takes integers >= 0."""
    if not isinstance(seed, int) or isinstance(seed, bool) or seed < 0:
        raise ConfigError(f"{where}: expected an integer >= 0, got {seed!r}")


@dataclass(frozen=True)
class EnvSpec:
    """An environment by name; params must be arguments its constructor takes."""

    name: str = "cue_passing"
    params: dict = field(default_factory=dict)

    def __post_init__(self):
        cls = env_class(self.name)
        accepted = inspect.signature(cls, eval_str=True).parameters
        unknown = set(self.params) - set(accepted)
        if unknown:
            raise ConfigError(f"env {self.name!r}: unknown params {sorted(unknown)}, "
                              f"it takes {sorted(accepted)}")
        for key, value in self.params.items():
            check_type(f"env.params.{key}", accepted[key].annotation, value)
        cls(**self.params)  # the constructor's value checks, before any output


@dataclass(frozen=True)
class RunConfig:
    env: EnvSpec = field(default_factory=EnvSpec)
    mixer: str = "vdn"
    comm: CommSettings = field(default_factory=CommSettings)
    exploration: ExplorationConfig = field(default_factory=ExplorationConfig)
    train: TrainConfig = field(default_factory=TrainConfig)
    seeds: tuple = (1, 2, 3, 4, 5)
    total_env_steps: int = 50_000
    out_dir: str = "runs/run"

    def __post_init__(self):
        if self.mixer not in MIXERS:
            raise ConfigError(f"mixer must be one of {MIXERS}, got {self.mixer!r}")
        if not self.seeds:
            raise ConfigError("need at least one seed")
        for seed in self.seeds:
            check_seed("seeds", seed)
        if len(set(self.seeds)) != len(self.seeds):
            raise ConfigError(f"seeds repeat a seed: {list(self.seeds)}")
        if self.total_env_steps < 1:
            raise ConfigError("total_env_steps must be positive")
        if "\0" in self.out_dir:   # no file system path can hold one
            raise ConfigError(f"out_dir contains a NUL character: {self.out_dir!r}")
        if self.comm.enabled and self.train.hidden_dim % self.comm.heads != 0:
            raise ConfigError(f"train.hidden_dim {self.train.hidden_dim} is the comm width and "
                              f"must be a multiple of comm.heads {self.comm.heads}")


def _build(cls, data: dict, where: str):
    """A `cls` from a JSON object: dataclass-typed fields recurse, tuples take lists."""
    if not isinstance(data, dict):
        raise ConfigError(f"{where}: expected an object, got {type(data).__name__}")
    types = typing.get_type_hints(cls)
    unknown = set(data) - set(types)
    if unknown:
        raise ConfigError(f"{where}: unknown keys {sorted(unknown)}")
    kwargs = {}
    for name, value in data.items():
        kind, path = types[name], f"{where}.{name}"
        if dataclasses.is_dataclass(kind):
            value = _build(kind, value, path)
        elif kind is tuple:
            if not isinstance(value, list):
                raise ConfigError(f"{path}: expected a list, got {value!r}")
            value = tuple(value)
        else:
            value = check_type(path, kind, value)
        kwargs[name] = value
    return cls(**kwargs)


def run_config_from_dict(data: dict) -> RunConfig:
    return _build(RunConfig, data, "config")


def read_json(path):
    """The JSON value in a file; a file that cannot be read or parsed is a ConfigError."""
    try:
        return json.loads(Path(path).read_text())
    except OSError as exc:
        raise ConfigError(f"{path}: cannot read ({exc.strerror or exc})") from exc
    except UnicodeDecodeError as exc:
        raise ConfigError(f"{path}: not utf-8 text ({exc.reason})") from exc
    except json.JSONDecodeError as exc:
        raise ConfigError(f"{path}: invalid JSON ({exc})") from exc
    except ValueError as exc:   # an integer literal longer than int() reads
        raise ConfigError(f"{path}: unreadable number ({exc})") from exc


def load_run_config(path) -> RunConfig:
    return run_config_from_dict(read_json(path))


def run_config_to_dict(cfg: RunConfig) -> dict:
    out = dataclasses.asdict(cfg)
    out["seeds"] = list(cfg.seeds)
    return out


def differing_keys(a, b, path: str = "config") -> list[str]:
    """Dotted paths at which two JSON values differ, objects compared key by key."""
    if not (isinstance(a, dict) and isinstance(b, dict)):
        return [] if a == b else [path]
    return [diff for key in sorted(set(a) | set(b))
            for diff in differing_keys(a.get(key), b.get(key), f"{path}.{key}")]


def _merge(base: dict, patch: dict) -> dict:
    out = dict(base)
    for key, value in patch.items():
        if isinstance(value, dict) and isinstance(out.get(key), dict):
            value = _merge(out[key], value)
        out[key] = value
    return out


def patch_run_config(cfg: RunConfig, patch: dict) -> RunConfig:
    """cfg with a patch merged in (objects key by key), checked like a config file."""
    return run_config_from_dict(_merge(run_config_to_dict(cfg), patch))


def save_run_config(cfg: RunConfig, path):
    Path(path).write_text(json.dumps(run_config_to_dict(cfg), indent=2) + "\n")
