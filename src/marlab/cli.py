"""Command line entry point: train, sweep, check, and eval subcommands.

Run configurations are JSON files validated against the full schema (any
unknown key aborts).  The resolved configuration is copied into the output
directory of every run.  The MARLAB_OUT environment variable, when set,
becomes the root that relative output directories resolve against.
"""

from __future__ import annotations

import argparse
import errno
import itertools
import json
import os
import sys
from pathlib import Path

import numpy as np

from .checks import FAULTS, run_checks
from .config import (check_seed, load_run_config, patch_run_config, read_json,
                     run_config_from_dict)
from .envs import make_env
from .errors import ConfigError, MarlabError
from .mixers import MIXERS
from .netsim import Topology, centralized_traffic, distributed_traffic
from .nn import load_checkpoint
from .runner import build_team_for_env, evaluate, train_all_seeds, write_csv


def resolve_out_dir(path: str) -> Path:
    root = os.environ.get("MARLAB_OUT")
    p = Path(path)
    if root and not p.is_absolute():
        return Path(root) / p
    return p


def _overrides(args) -> dict:
    """The train flags as a patch for patch_run_config."""
    patch = {"comm": {}, "exploration": {}}
    for flag, key in (("seed", "seeds"), ("out", "out_dir"),
                      ("total_steps", "total_env_steps"), ("mixer", "mixer")):
        if getattr(args, flag) is not None:
            patch[key] = getattr(args, flag)
    if args.comm is not None:
        patch["comm"]["enabled"] = args.comm == "mactas"
    if args.no_residual:
        patch["comm"]["residual"] = False
    for flag in ("k", "temperature"):
        if getattr(args, flag) is not None:
            patch["exploration"][flag] = getattr(args, flag)
    return patch


def cmd_train(args) -> int:
    config = patch_run_config(load_run_config(args.config), _overrides(args))
    out_dir = resolve_out_dir(config.out_dir)
    results = train_all_seeds(config, out_dir, resume=args.resume,
                              workers=args.workers)
    for seed in config.seeds:
        last = results[seed][-1]
        print(f"seed {seed}: env_step {last['env_step']} "
              f"return {last['mean_test_return']:.4f} "
              f"success {last['success_rate']:.4f}")
    print(f"artifacts in {out_dir}")
    return 0


# sweepable keys and the config section each lives in
GRID_KEYS = {"num_layers": "comm", "ffn_dim": "comm", "dropout": "comm",
             "temperature": "exploration"}


def curve_auc(steps: np.ndarray, returns: np.ndarray) -> float:
    """Area under the test-return curve by the trapezoid rule; 0 for one point."""
    return float(np.trapezoid(returns, steps))


def summarize_cell(results: dict[int, list[dict]]) -> dict:
    aucs, finals, final_success = [], [], []
    for rows in results.values():
        steps = np.array([r["env_step"] for r in rows], dtype=float)
        rets = np.array([r["mean_test_return"] for r in rows], dtype=float)
        aucs.append(curve_auc(steps, rets))
        finals.append(rows[-1]["mean_test_return"])
        final_success.append(rows[-1]["success_rate"])
    return {
        "auc": float(np.mean(aucs)),
        "final_return": float(np.mean(finals)),
        "final_success": float(np.mean(final_success)),
    }


def cmd_sweep(args) -> int:
    spec = read_json(args.config)
    if not isinstance(spec, dict) or set(spec) - {"base", "grid"}:
        raise ConfigError(f"{args.config}: expected an object with keys 'base' and 'grid'")
    base = run_config_from_dict(spec.get("base", {}))
    grid = spec.get("grid", {})
    if not isinstance(grid, dict) or not all(isinstance(v, list) for v in grid.values()):
        raise ConfigError(f"grid: expected an object of value lists, got {grid!r}")
    unknown = set(grid) - set(GRID_KEYS)
    if unknown:
        raise ConfigError(f"grid allows {sorted(GRID_KEYS)}, got unknown {sorted(unknown)}")
    for key, values in grid.items():
        if any(v in values[:i] for i, v in enumerate(values)):   # by ==: 0 repeats 0.0
            raise ConfigError(f"grid.{key} repeats a value: {values}")
    grid = {k: v for k, v in grid.items() if v}
    if not grid:
        raise ConfigError("empty sweep grid")
    out_dir = resolve_out_dir(args.out if args.out else base.out_dir)

    # every cell is checked before the first one trains
    keys = sorted(grid)
    cells = []
    for values in itertools.product(*(grid[k] for k in keys)):
        cell = dict(zip(keys, values))
        tag = "_".join(f"{k}{v}" for k, v in cell.items())
        patch = {"out_dir": str(out_dir / f"cell_{tag}")}
        for key, value in cell.items():
            patch.setdefault(GRID_KEYS[key], {})[key] = value
        cells.append((cell, tag, patch_run_config(base, patch)))

    out_dir.mkdir(parents=True, exist_ok=True)
    summary = []
    for cell, tag, cell_cfg in cells:
        print(f"sweep cell {tag}")
        results = train_all_seeds(cell_cfg, out_dir / f"cell_{tag}",
                                  workers=args.workers)
        summary.append({**cell, **summarize_cell(results)})

    write_csv(out_dir / "summary.csv", list(summary[0]), summary)
    (out_dir / "summary.json").write_text(json.dumps(summary, indent=2))
    print(f"sweep summary in {out_dir / 'summary.csv'}")
    return 0


def _check_out_path(out) -> None:
    """Refuse an --out that is a directory or whose parent is not one before
    any work is done, with the OSError that writing it at the end would raise."""
    if out is not None and (Path(out).is_dir() or not Path(out).parent.is_dir()):
        code = (errno.EISDIR if Path(out).is_dir() else
                errno.ENOTDIR if Path(out).parent.exists() else errno.ENOENT)
        raise OSError(code, os.strerror(code), out)


def cmd_check(args) -> int:
    _check_out_path(args.out)
    report = run_checks(seed=args.seed, fault=args.inject_fault)
    text = json.dumps(report, indent=2)
    if args.out:
        Path(args.out).write_text(text)
    print(text)
    return 0 if report["passed"] else 1


def cmd_eval(args) -> int:
    check_seed("--seed", args.seed)
    _check_out_path(args.out)
    run_dir = Path(args.run)
    config_path = run_dir / "config.json"
    if not config_path.exists():
        config_path = run_dir.parent / "config.json"
    config = load_run_config(config_path)
    if not config.comm.enabled and (args.topology or args.deploy):
        raise ConfigError(f"--topology and --deploy need a run trained with comm; "
                          f"{config_path} has comm disabled")
    topology = Topology.from_json(args.topology) if args.topology else None
    env = make_env(config.env.name, config.env.params)
    team = build_team_for_env(config, env, seed=args.seed)
    load_checkpoint(run_dir / "checkpoint.bin", team.parameters())

    mean_return, success_rate, steps = evaluate(
        env, team, args.episodes, args.seed, test_point=0,
        comm_mask=topology.reachable if topology is not None else None)
    row = {
        "episodes": args.episodes,
        "mean_return": mean_return,
        "success_rate": success_rate,
        "env_steps": steps,
    }
    if args.deploy:
        width = team.comm.model_dim
        if args.deploy == "centralized":
            per_step = centralized_traffic(env.n_agents, width)
        else:
            per_step = distributed_traffic(topology or Topology.full(env.n_agents),
                                           team.comm.settings.num_layers, width)
        row["comm_messages"] = per_step.messages * steps
        row["comm_floats"] = per_step.floats_transferred * steps
        row["comm_rounds"] = per_step.rounds * steps
    if args.out:
        write_csv(args.out, list(row), [row])
    print(json.dumps(row, indent=2))
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="marlab",
        description="Multi-agent Q-learning lab with transformer communication")
    sub = parser.add_subparsers(dest="command", required=True)

    p_train = sub.add_parser("train", help="train over the configured seeds")
    p_train.add_argument("--config", required=True)
    p_train.add_argument("--seed", type=int, nargs="+", default=None,
                         help="override the config's seed list")
    p_train.add_argument("--out", default=None, help="override output directory")
    p_train.add_argument("--total-steps", type=int, default=None)
    p_train.add_argument("--mixer", choices=MIXERS, default=None)
    p_train.add_argument("--comm", choices=["mactas", "none"], default=None,
                         help="enable or disable the communication stack")
    p_train.add_argument("--no-residual", action="store_true",
                         help="feed the q-head the increment alone")
    p_train.add_argument("--k", type=int, default=None)
    p_train.add_argument("--temperature", type=float, default=None)
    p_train.add_argument("--workers", type=int, default=1)
    p_train.add_argument("--resume", action="store_true",
                         help="continue each seed from its last test-point snapshot")
    p_train.set_defaults(fn=cmd_train)

    p_sweep = sub.add_parser("sweep", help="grid sweep over comm shape and temperature")
    p_sweep.add_argument("--config", required=True,
                         help="JSON with 'base' run config and 'grid'")
    p_sweep.add_argument("--out", default=None)
    p_sweep.add_argument("--workers", type=int, default=1)
    p_sweep.set_defaults(fn=cmd_sweep)

    p_check = sub.add_parser("check", help="run the invariant suite")
    p_check.add_argument("--seed", type=int, default=0)
    p_check.add_argument("--inject-fault", choices=list(FAULTS), default="none")
    p_check.add_argument("--out", default=None, help="write the JSON report here")
    p_check.set_defaults(fn=cmd_check)

    p_eval = sub.add_parser("eval", help="greedy evaluation of a trained run")
    p_eval.add_argument("--run", required=True,
                        help="seed directory holding checkpoint.bin")
    p_eval.add_argument("--episodes", type=int, default=32)
    p_eval.add_argument("--seed", type=int, default=0)
    p_eval.add_argument("--topology", default=None,
                        help="JSON reachability file restricting communication")
    p_eval.add_argument("--deploy", choices=["centralized", "distributed"],
                        default=None, help="count communication traffic")
    p_eval.add_argument("--out", default=None, help="write a metrics CSV row here")
    p_eval.set_defaults(fn=cmd_eval)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.fn(args)
    except (MarlabError, OSError) as exc:   # OSError: an output path that cannot be written
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
