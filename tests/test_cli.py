"""Command-line interface: subcommands, overrides, reports, artifacts."""

import json
import os
import shutil
import sys
from concurrent.futures.process import BrokenProcessPool

import numpy as np
import pytest

from marlab.cli import curve_auc, main
from marlab.config import differing_keys, load_run_config
from marlab.envs import make_env
from marlab.netsim import Topology, centralized_traffic, distributed_traffic
from marlab.nn import load_records, write_records
from marlab.nn.serialize import read_records
from marlab.runner import build_team_for_env, evaluate, train_one_seed


def assert_one_line_error(capsys, *fragments):
    err = capsys.readouterr().err
    assert len(err.strip().splitlines()) == 1, err
    for fragment in fragments:
        assert fragment in err


def write_toy_config(tmp_path, **overrides):
    cfg = {
        "env": {"name": "cue_passing", "params": {"n_agents": 2, "num_cues": 2}},
        "mixer": "vdn",
        "comm": {"enabled": True, "num_layers": 1, "ffn_dim": 8, "heads": 2,
                 "dropout": 0.1},
        "train": {"batch_size": 4, "buffer_capacity": 50, "anneal_steps": 100,
                  "hidden_dim": 8, "test_interval": 40, "test_episodes": 4,
                  "target_update_interval": 10},
        "seeds": [1],
        "total_env_steps": 40,
        "out_dir": str(tmp_path / "run"),
    }
    cfg.update(overrides)
    path = tmp_path / "config.json"
    path.write_text(json.dumps(cfg))
    return path


def set_entry(array, index, value):
    array = array.copy()
    array[index] = value
    return array


# each damage to a resumed buffer.npz, as (the array named, an edit of the
# arrays) on a cue_passing run of 2 agents and 2 cues, whose episodes are 2 steps
BUFFER_DAMAGE = {
    "an action past the last": ("actions", lambda a: {**a, "actions": set_entry(
        a["actions"], (0, 0, 0), 7)}),
    "a negative action": ("actions", lambda a: {**a, "actions": set_entry(
        a["actions"], (0, 1, 1), -5)}),
    "an action taken that is not available": ("actions", lambda a: {**a, "avail": set_entry(
        a["avail"], (0, 0, 0, a["actions"][0, 0, 0]), False)}),
    "a NaN reward": ("rewards", lambda a: {**a, "rewards": set_entry(
        a["rewards"], (3, 1), np.nan)}),
    "no action available": ("avail", lambda a: {**a, "avail": np.zeros_like(a["avail"])}),
    "no action available after the last step": ("avail", lambda a: {**a, "avail": set_entry(
        a["avail"], (2, 2, 1), False)}),
    "an infinite observation after the last step": ("obs", lambda a: {**a, "obs": set_entry(
        a["obs"], (4, 2, 0, 1), np.inf)}),
    "a NaN state": ("states", lambda a: {**a, "states": set_entry(a["states"], (1, 0, 0), np.nan)}),
    "an extra obs column": ("obs", lambda a: {**a, "obs": np.concatenate(
        [a["obs"], a["obs"][..., :1]], axis=-1)}),
    "a state column short": ("states", lambda a: {**a, "states": a["states"][..., :-1]}),
    "a third agent": ("actions", lambda a: {**a, **{key: np.concatenate(
        [a[key], a[key][:, :, :1]], axis=2) for key in ("obs", "avail", "actions")}}),
    "an extra action": ("avail", lambda a: {**a, "avail": np.concatenate(
        [a["avail"], a["avail"][..., :1]], axis=-1)}),
    # finite in float64, but past float32's range: an overflow in the training cast
    "an observation float32 cannot hold": ("obs", lambda a: {**a, "obs": set_entry(
        a["obs"], (2, 1, 1, 0), 1e39)}),
    "a state float32 cannot hold": ("states", lambda a: {**a, "states": set_entry(
        a["states"], (5, 2, 0), -1e39)}),
    "a reward float32 cannot hold": ("rewards", lambda a: {**a, "rewards": set_entry(
        a["rewards"], (6, 0), 1e39)}),
}


def write_snapshot_config(seed_dir):
    """A bare seed directory whose snapshot holds only the toy config.json."""
    (seed_dir / "state").mkdir(parents=True)
    return write_toy_config(seed_dir.parent).rename(seed_dir / "state" / "config.json")


class TestTrainCommand:
    def test_train_writes_artifacts(self, tmp_path, capsys):
        cfg = write_toy_config(tmp_path)
        assert main(["train", "--config", str(cfg)]) == 0
        out = tmp_path / "run"
        assert (out / "config.json").exists()
        assert (out / "metrics.csv").exists()
        assert (out / "seed_1" / "state" / "params.bin").exists()
        assert (out / "seed_1" / "state" / "config.json").exists()
        assert "seed 1" in capsys.readouterr().out

    def test_a_finished_seed_directory_holds_its_metrics_and_last_snapshot_alone(self,
                                                                                 tmp_path):
        cfg = write_toy_config(tmp_path)
        seed_dir = tmp_path / "run" / "seed_1"
        for flags in ([], ["--resume", "--total-steps", "80"]):
            assert main(["train", "--config", str(cfg), *flags]) == 0
            assert sorted(p.name for p in seed_dir.iterdir()) == ["metrics.csv", "state"]

    def test_overrides_are_recorded_in_resolved_config(self, tmp_path):
        cfg = write_toy_config(tmp_path)
        out = tmp_path / "alt"
        assert main(["train", "--config", str(cfg), "--out", str(out),
                     "--mixer", "qmix", "--comm", "none", "--no-residual",
                     "--k", "2", "--temperature", "0.33",
                     "--seed", "7"]) == 0
        resolved = load_run_config(out / "config.json")
        assert resolved.mixer == "qmix"
        assert resolved.comm.enabled is False
        assert resolved.comm.residual is False
        assert resolved.exploration.k == 2
        assert resolved.exploration.temperature == 0.33
        assert resolved.seeds == (7,)

    def test_nul_in_out_dir_is_a_one_line_error(self, tmp_path, capsys):
        cfg = write_toy_config(tmp_path, out_dir=str(tmp_path / "run\u0000x"))
        assert main(["train", "--config", str(cfg)]) == 2
        assert_one_line_error(capsys, "out_dir", "NUL")
        assert sorted(p.name for p in tmp_path.iterdir()) == ["config.json"]

    def test_invalid_config_exits_nonzero(self, tmp_path, capsys):
        path = tmp_path / "bad.json"
        path.write_text(json.dumps({"mixer": "qplex"}))
        assert main(["train", "--config", str(path)]) == 2
        assert "error" in capsys.readouterr().err

    @pytest.mark.skipif(not hasattr(sys, "get_int_max_str_digits"),
                        reason="this Python reads integer literals of any length")
    def test_an_integer_literal_too_long_to_read_is_a_one_line_error(self, tmp_path, capsys):
        path = tmp_path / "config.json"
        digits = sys.get_int_max_str_digits() + 1
        path.write_text('{"total_env_steps": 1' + "0" * (digits - 1) + "}")
        assert main(["train", "--config", str(path), "--out", str(tmp_path / "run")]) == 2
        assert_one_line_error(capsys, str(path), "unreadable number")
        assert not (tmp_path / "run").exists()

    @pytest.mark.parametrize("overrides, flags", [
        ({"exploration": {"k": 0}}, []),
        ({"train": {"epsilon_start": 1.5}}, []),
        ({}, ["--k", "0"]),
        ({}, ["--temperature", "-1"]),
    ])
    def test_bad_exploration_rejected_before_any_output(self, tmp_path, capsys,
                                                        overrides, flags):
        cfg = write_toy_config(tmp_path, **overrides)
        assert main(["train", "--config", str(cfg), *flags]) == 2
        assert len(capsys.readouterr().err.strip().splitlines()) == 1
        assert not (tmp_path / "run").exists()

    @pytest.mark.parametrize("payoff, fragment", [
        ([[1, "x"], [0, 1]], "finite numbers"),   # raw ValueError from float("x")
        ([[1, 2], [3]], "differ in length"),      # raw ValueError, inhomogeneous shape
        ([[]], "2-D table"),                      # failed after output: no available action
        (5, "2-D table"),                         # failed after output
        ([[1, True], [0, 1]], "finite numbers"),
    ])
    def test_malformed_payoff_rejected_before_any_output(self, tmp_path, capsys,
                                                         payoff, fragment):
        cfg = write_toy_config(tmp_path, env={"name": "matrix_game",
                                              "params": {"payoff": payoff}})
        assert main(["train", "--config", str(cfg)]) == 2
        assert_one_line_error(capsys, "payoff", fragment)
        assert not (tmp_path / "run").exists()

    def test_resume_with_missing_optimizer_record_is_a_one_line_error(self, tmp_path, capsys):
        cfg = write_toy_config(tmp_path)
        assert main(["train", "--config", str(cfg)]) == 0
        capsys.readouterr()
        opt = tmp_path / "run" / "seed_1" / "state" / "optimizer.bin"
        records = read_records(opt)
        write_records(opt, records[:-1])
        assert main(["train", "--config", str(cfg), "--resume"]) == 2
        err = capsys.readouterr().err
        assert len(err.strip().splitlines()) == 1
        assert records[-1][0] in err and str(opt) in err

    @pytest.mark.parametrize("flags, keys", [
        (["--k", "2", "--temperature", "0.5"],        # resumed under the new settings
         ["config.exploration.k", "config.exploration.temperature"]),
        (["--mixer", "qmix"], ["config.mixer"]),      # "missing parameter" after rewriting
    ])
    def test_resume_refuses_a_changed_config(self, tmp_path, capsys, flags, keys):
        cfg = write_toy_config(tmp_path)
        assert main(["train", "--config", str(cfg)]) == 0
        capsys.readouterr()
        run = tmp_path / "run"
        before = {p: p.read_bytes() for p in run.rglob("*") if p.is_file()}
        assert main(["train", "--config", str(cfg), "--resume", *flags]) == 2
        assert_one_line_error(capsys, "cannot resume", *keys)
        assert {p: p.read_bytes() for p in run.rglob("*") if p.is_file()} == before

    @pytest.mark.parametrize("overrides, flags", [({"seeds": [-3]}, []), ({}, ["--seed", "-3"])])
    def test_negative_seed_rejected_before_any_output(self, tmp_path, capsys, overrides, flags):
        # a raw ValueError from the random streams, after config.json was written
        cfg = write_toy_config(tmp_path, **overrides)
        assert main(["train", "--config", str(cfg), *flags]) == 2
        assert_one_line_error(capsys, "seeds: expected an integer >= 0, got -3")
        assert not (tmp_path / "run").exists()

    @pytest.mark.parametrize("overrides, flags", [({"seeds": [1, 1]}, []),
                                                  ({}, ["--seed", "1", "1"])])
    def test_repeated_seed_rejected_before_any_output(self, tmp_path, capsys, overrides, flags):
        # trained seed 1 twice and wrote each of its rows twice into metrics.csv
        cfg = write_toy_config(tmp_path, **overrides)
        assert main(["train", "--config", str(cfg), *flags]) == 2
        assert_one_line_error(capsys, "seeds repeat", "[1, 1]")
        assert not (tmp_path / "run").exists()

    @pytest.mark.parametrize("name", ["progress.json", "buffer.npz"])
    @pytest.mark.parametrize("keep", [0.0, 0.01, 0.5, 0.99])
    def test_resume_from_a_truncated_snapshot_is_a_one_line_error(self, tmp_path, capsys,
                                                                   name, keep):
        # JSONDecodeError and zipfile.BadZipFile tracebacks
        cfg = write_toy_config(tmp_path)
        assert main(["train", "--config", str(cfg)]) == 0
        capsys.readouterr()
        path = tmp_path / "run" / "seed_1" / "state" / name
        blob = path.read_bytes()
        path.write_bytes(blob[: int(keep * len(blob))])
        run = tmp_path / "run"
        before = {p: p.read_bytes() for p in run.rglob("*") if p.is_file()}
        assert main(["train", "--config", str(cfg), "--resume"]) == 2
        assert_one_line_error(capsys, str(path))
        assert {p: p.read_bytes() for p in run.rglob("*") if p.is_file()} == before

    @pytest.mark.parametrize("key", ["env_step", "rows"])
    def test_resume_from_progress_without_a_counter_is_a_one_line_error(self, tmp_path,
                                                                        capsys, key):
        # a KeyError traceback
        cfg = write_toy_config(tmp_path)
        assert main(["train", "--config", str(cfg)]) == 0
        capsys.readouterr()
        path = tmp_path / "run" / "seed_1" / "state" / "progress.json"
        progress = json.loads(path.read_text())
        del progress[key]
        path.write_text(json.dumps(progress))
        run = tmp_path / "run"
        before = {p: p.read_bytes() for p in run.rglob("*") if p.is_file()}
        assert main(["train", "--config", str(cfg), "--resume"]) == 2
        assert_one_line_error(capsys, str(path), repr(key))
        assert {p: p.read_bytes() for p in run.rglob("*") if p.is_file()} == before

    def test_resume_from_progress_with_a_mistyped_counter_is_a_one_line_error(self, tmp_path,
                                                                              capsys):
        # a TypeError traceback
        cfg = write_toy_config(tmp_path)
        assert main(["train", "--config", str(cfg)]) == 0
        capsys.readouterr()
        path = tmp_path / "run" / "seed_1" / "state" / "progress.json"
        progress = json.loads(path.read_text())
        progress["train_steps"] = "5"
        path.write_text(json.dumps(progress))
        assert main(["train", "--config", str(cfg), "--resume"]) == 2
        assert_one_line_error(capsys, str(path), "train_steps")

    @pytest.mark.parametrize("damage", ["missing key", "count past the rows",
                                        "an episode without steps"])
    def test_resume_from_a_buffer_with_bad_arrays_is_a_one_line_error(self, tmp_path, capsys,
                                                                      damage):
        # a KeyError or IndexError traceback from ReplayBuffer.from_state_arrays,
        # or a zero-step episode that EpisodeRecord refuses
        cfg = write_toy_config(tmp_path, mixer="qmix")
        assert main(["train", "--config", str(cfg)]) == 0
        capsys.readouterr()
        path = tmp_path / "run" / "seed_1" / "state" / "buffer.npz"
        with np.load(path) as data:
            arrays = {key: data[key] for key in data.files}
        if damage == "missing key":
            del arrays["lengths"]
        elif damage == "count past the rows":
            arrays["count"] = np.array(len(arrays["lengths"]) + 1)
        else:
            arrays["lengths"][0] = 0
        np.savez(path, **arrays)
        run = tmp_path / "run"
        before = {p: p.read_bytes() for p in run.rglob("*") if p.is_file()}
        assert main(["train", "--config", str(cfg), "--resume"]) == 2
        assert_one_line_error(capsys, str(path), "damaged")
        assert {p: p.read_bytes() for p in run.rglob("*") if p.is_file()} == before

    @pytest.mark.parametrize("damage, array", [("float actions", "actions"),
                                               ("count past the capacity", "count"),
                                               ("a length past the padded steps", "lengths"),
                                               ("float avail", "avail")])
    def test_resume_from_a_buffer_it_would_repair_is_a_one_line_error(self, tmp_path, capsys,
                                                                      damage, array):
        # each loaded without an error: the truncated actions, the newest 50
        # episodes, an episode cut to the 2 padded steps, 0.5 as available
        cfg = write_toy_config(tmp_path)   # buffer_capacity 50, 2-step episodes
        assert main(["train", "--config", str(cfg)]) == 0
        capsys.readouterr()
        path = tmp_path / "run" / "seed_1" / "state" / "buffer.npz"
        with np.load(path) as data:
            arrays = {key: data[key] for key in data.files}
        assert arrays["rewards"].shape == (20, 2)
        if damage == "float actions":
            arrays["actions"] = arrays["actions"] + 0.7
        elif damage == "count past the capacity":
            arrays = {key: np.concatenate([value] * 3) if value.ndim else np.array(60)
                      for key, value in arrays.items()}
        elif damage == "a length past the padded steps":
            arrays["lengths"][0] = 5
        else:
            arrays["avail"] = np.where(arrays["avail"], 0.5, 0.0)
        np.savez(path, **arrays)
        run = tmp_path / "run"
        before = {p: p.read_bytes() for p in run.rglob("*") if p.is_file()}
        assert main(["train", "--config", str(cfg), "--resume"]) == 2
        assert_one_line_error(capsys, str(path), "damaged", f"ContractError: {array}")
        assert {p: p.read_bytes() for p in run.rglob("*") if p.is_file()} == before

    @pytest.mark.parametrize("damage", sorted(BUFFER_DAMAGE))
    def test_resume_from_a_buffer_the_env_cannot_have_written_is_a_one_line_error(
            self, tmp_path, capsys, damage):
        # unchecked, an action out of range was an IndexError traceback, an
        # extra obs column an error from the first affine naming no file, and
        # the rest trained on: a NaN reward into a NaN loss in metrics.csv.
        # A longer resume once rewrote the run's config.json before the refusal
        array, edit = BUFFER_DAMAGE[damage]
        cfg = write_toy_config(tmp_path, mixer="qmix")
        assert main(["train", "--config", str(cfg)]) == 0
        capsys.readouterr()
        path = tmp_path / "run" / "seed_1" / "state" / "buffer.npz"
        with np.load(path) as data:
            arrays = {key: data[key] for key in data.files}
        assert arrays["actions"].shape == (20, 2, 2) and set(arrays["lengths"]) == {2}
        np.savez(path, **edit(arrays))
        run = tmp_path / "run"
        before = {p: p.read_bytes() for p in run.rglob("*") if p.is_file()}
        assert main(["train", "--config", str(cfg), "--resume", "--total-steps", "80"]) == 2
        assert_one_line_error(capsys, str(path), "damaged", f"ContractError: {array}")
        assert {p: p.read_bytes() for p in run.rglob("*") if p.is_file()} == before

    @pytest.mark.parametrize("name", ["config.json", "progress.json", "params.bin",
                                      "target.bin", "optimizer.bin", "buffer.npz"])
    def test_resume_from_a_snapshot_missing_a_file_is_a_one_line_error(self, tmp_path, capsys,
                                                                        name):
        # without progress.json the seed started over, with exit 0
        cfg = write_toy_config(tmp_path)
        assert main(["train", "--config", str(cfg)]) == 0
        capsys.readouterr()
        path = tmp_path / "run" / "seed_1" / "state" / name
        path.unlink()
        run = tmp_path / "run"
        before = {p: p.read_bytes() if p.is_file() else None for p in run.rglob("*")}
        assert main(["train", "--config", str(cfg), "--resume", "--total-steps", "80"]) == 2
        assert_one_line_error(capsys, str(path))
        assert {p: p.read_bytes() if p.is_file() else None for p in run.rglob("*")} == before

    @pytest.mark.parametrize("edit", [{"rows": []}, {"env_step": 2000}, {"episode_idx": 10**30}],
                             ids=["no rows", "env_step past the rows", "episode_idx past env_step"])
    def test_resume_from_progress_at_odds_with_its_rows_is_a_one_line_error(self, tmp_path,
                                                                            capsys, edit):
        # each resumed with exit 0, writing test rows the run never had (no
        # rows, env_step 2000) or keying rollouts by episodes it never played
        cfg = write_toy_config(tmp_path)
        assert main(["train", "--config", str(cfg)]) == 0
        capsys.readouterr()
        path = tmp_path / "run" / "seed_1" / "state" / "progress.json"
        path.write_text(json.dumps({**json.loads(path.read_text()), **edit}))
        run = tmp_path / "run"
        before = {p: p.read_bytes() for p in run.rglob("*") if p.is_file()}
        assert main(["train", "--config", str(cfg), "--resume", "--total-steps", "80"]) == 2
        assert_one_line_error(capsys, str(path), *edit)
        assert {p: p.read_bytes() for p in run.rglob("*") if p.is_file()} == before

    def test_a_copied_run_resumes_at_its_new_path_as_it_does_in_place(self, tmp_path):
        # the copy was refused: "config differs from ... in config.out_dir"
        cfg = write_toy_config(tmp_path)
        assert main(["train", "--config", str(cfg)]) == 0
        run, moved = tmp_path / "run", tmp_path / "moved"
        shutil.copytree(run, moved)
        assert main(["train", "--config", str(cfg), "--out", str(moved), "--resume",
                     "--total-steps", "80"]) == 0
        assert main(["train", "--config", str(cfg), "--resume", "--total-steps", "80"]) == 0
        files = sorted(p.relative_to(run) for p in run.rglob("*") if p.is_file())
        assert files == sorted(p.relative_to(moved) for p in moved.rglob("*") if p.is_file())
        assert {"metrics.csv", "params.bin", "progress.json"} <= {name.name for name in files}
        for name in files:
            here, there = (run / name).read_bytes(), (moved / name).read_bytes()
            if name.name == "config.json":
                assert differing_keys(json.loads(here), json.loads(there)) == \
                    ["config.out_dir"], name
                assert json.loads(there)["out_dir"] == str(moved)
            else:
                assert here == there, name

    def test_resume_may_extend_total_steps(self, tmp_path):
        cfg = write_toy_config(tmp_path)
        assert main(["train", "--config", str(cfg)]) == 0
        assert main(["train", "--config", str(cfg), "--resume", "--total-steps", "80"]) == 0
        assert load_run_config(tmp_path / "run" / "config.json").total_env_steps == 80

    def test_comm_heads_not_dividing_hidden_dim_rejected_before_any_output(self, tmp_path,
                                                                           capsys):
        comm = {"enabled": True, "num_layers": 1, "ffn_dim": 8, "heads": 3, "dropout": 0.1}
        cfg = write_toy_config(tmp_path, comm=comm)   # toy hidden_dim is 8
        assert main(["train", "--config", str(cfg)]) == 2
        assert_one_line_error(capsys, "heads")
        assert not (tmp_path / "run").exists()
        sweep = tmp_path / "sweep.json"
        sweep.write_text(json.dumps({"base": json.loads(cfg.read_text()),
                                     "grid": {"num_layers": [1]}}))
        assert main(["sweep", "--config", str(sweep), "--out", str(tmp_path / "sw")]) == 2
        assert_one_line_error(capsys, "heads")
        assert not (tmp_path / "sw").exists()

    def test_missing_config_file_is_a_one_line_error(self, tmp_path, capsys):
        path = tmp_path / "missing.json"
        assert main(["train", "--config", str(path)]) == 2   # FileNotFoundError
        assert_one_line_error(capsys, str(path))

    def test_config_that_is_a_directory_is_a_one_line_error(self, tmp_path, capsys):
        assert main(["train", "--config", str(tmp_path)]) == 2   # IsADirectoryError
        assert_one_line_error(capsys, str(tmp_path))

    def test_non_finite_lr_is_a_one_line_error(self, tmp_path, capsys):
        cfg = write_toy_config(tmp_path, train={"lr": float("nan")})
        assert "NaN" in cfg.read_text()
        assert main(["train", "--config", str(cfg)]) == 2   # trained with nan losses
        assert_one_line_error(capsys, "lr")
        assert not (tmp_path / "run").exists()

    def test_non_finite_temperature_flag_is_a_one_line_error(self, tmp_path, capsys):
        cfg = write_toy_config(tmp_path)
        assert main(["train", "--config", str(cfg), "--temperature", "nan"]) == 2
        assert_one_line_error(capsys, "temperature")
        assert not (tmp_path / "run").exists()

    def test_explore_flag_is_a_usage_error(self, tmp_path, capsys):
        cfg = write_toy_config(tmp_path)
        with pytest.raises(SystemExit) as exc:
            main(["train", "--config", str(cfg), "--explore", "eps"])
        assert exc.value.code == 2
        assert "--explore" in capsys.readouterr().err
        assert not (tmp_path / "run").exists()

    def test_a_dead_worker_is_a_one_line_error_and_resume_continues(self, tmp_path,
                                                                      capsys, monkeypatch):
        # the fake trains the first seed, then breaks as a real pool does when
        # a worker is killed (by the OOM killer, say); it starts no process
        class BreakingExecutor:
            def __init__(self, max_workers, mp_context):
                pass

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                return False

            def map(self, fn, *jobs):
                yield fn(*(job[0] for job in jobs))
                raise BrokenProcessPool("a process in the pool was terminated abruptly")

        config = str(write_toy_config(tmp_path, seeds=[1, 2]))
        with monkeypatch.context() as patch:
            patch.setattr("concurrent.futures.ProcessPoolExecutor", BreakingExecutor)
            assert main(["train", "--config", config, "--workers", "2"]) == 2
        assert_one_line_error(capsys, "worker process died", "--resume")
        assert (tmp_path / "run" / "seed_1" / "state").is_dir()
        assert main(["train", "--config", config, "--resume"]) == 0
        assert main(["train", "--config", config, "--out", str(tmp_path / "whole")]) == 0
        for name in ("metrics.csv", "seed_2/state/params.bin"):
            assert (tmp_path / "run" / name).read_bytes() == \
                (tmp_path / "whole" / name).read_bytes()

    @pytest.mark.parametrize("command", ["train", "sweep"])
    @pytest.mark.parametrize("workers", ["0", "-2"])
    def test_workers_below_one_is_a_one_line_error(self, tmp_path, capsys, command, workers):
        path = write_toy_config(tmp_path)
        if command == "sweep":
            base = json.loads(path.read_text())
            path = tmp_path / "sweep.json"
            path.write_text(json.dumps({"base": base, "grid": {"num_layers": [1]}}))
        assert main([command, "--config", str(path), "--workers", workers]) == 2
        assert_one_line_error(capsys, f"--workers must be >= 1, got {workers}")
        assert not (tmp_path / "run").exists()

    def test_output_root_env_var(self, tmp_path, monkeypatch):
        monkeypatch.setenv("MARLAB_OUT", str(tmp_path / "root"))
        cfg = write_toy_config(tmp_path, out_dir="rel_run")
        assert main(["train", "--config", str(cfg)]) == 0
        assert (tmp_path / "root" / "rel_run" / "metrics.csv").exists()


class TestUnwritableOutput:
    """An --out whose parent is a regular file, or that is a directory: one
    line and exit 2, not a traceback."""

    def blocker(self, tmp_path):
        path = tmp_path / "blocker"
        path.write_text("a file, not a directory")
        return path

    def test_train(self, tmp_path, capsys):
        out = self.blocker(tmp_path) / "run"
        assert main(["train", "--config", str(write_toy_config(tmp_path)),
                     "--out", str(out)]) == 2   # raw NotADirectoryError
        assert_one_line_error(capsys, "Not a directory", str(out))

    def test_sweep(self, tmp_path, capsys):
        base = json.loads(write_toy_config(tmp_path).read_text())
        path = tmp_path / "sweep.json"
        path.write_text(json.dumps({"base": base, "grid": {"num_layers": [1]}}))
        out = self.blocker(tmp_path) / "sweepout"
        assert main(["sweep", "--config", str(path), "--out", str(out)]) == 2
        assert_one_line_error(capsys, "Not a directory", str(out))
        assert not (tmp_path / "run").exists()

    @staticmethod
    def refuse_work(monkeypatch, name):
        """--out is checked before the work: calling `name` fails the test."""
        def work(*args, **kwargs):
            pytest.fail(f"{name} ran before --out was checked")
        monkeypatch.setattr(f"marlab.cli.{name}", work)

    def test_check(self, tmp_path, capsys, monkeypatch):
        self.refuse_work(monkeypatch, "run_checks")
        out = self.blocker(tmp_path) / "report.json"
        assert main(["check", "--seed", "0", "--out", str(out)]) == 2
        assert_one_line_error(capsys, "Not a directory", str(out))
        assert main(["check", "--seed", "0", "--out", str(tmp_path)]) == 2
        assert_one_line_error(capsys, "Is a directory", str(tmp_path))

    def test_eval(self, tmp_path, capsys, monkeypatch):
        assert main(["train", "--config", str(write_toy_config(tmp_path))]) == 0
        capsys.readouterr()  # drop training output
        self.refuse_work(monkeypatch, "evaluate")
        out = self.blocker(tmp_path) / "eval.csv"
        assert main(["eval", "--run", str(tmp_path / "run" / "seed_1"),
                     "--episodes", "2", "--out", str(out)]) == 2
        assert_one_line_error(capsys, "Not a directory", str(out))
        assert main(["eval", "--run", str(tmp_path / "run" / "seed_1"),
                     "--episodes", "2", "--out", str(tmp_path)]) == 2
        assert_one_line_error(capsys, "Is a directory", str(tmp_path))


class TestCheckCommand:
    def test_clean_build_passes(self, tmp_path, capsys):
        report_path = tmp_path / "report.json"
        code = main(["check", "--seed", "0", "--out", str(report_path)])
        assert code == 0
        report = json.loads(report_path.read_text())
        assert report["passed"] is True
        assert all(c["passed"] for c in report["checks"].values())

    def test_qmix_positivity_fault_detected(self, tmp_path, capsys):
        code = main(["check", "--seed", "0", "--inject-fault", "qmix-signed"])
        out = capsys.readouterr().out
        assert code == 1
        report = json.loads(out)
        assert report["checks"]["qmix_monotonicity"]["passed"] is False

    def test_negative_seed_is_a_one_line_error(self, tmp_path, capsys):
        report = tmp_path / "report.json"
        assert main(["check", "--seed", "-1", "--out", str(report)]) == 2   # raw ValueError
        assert_one_line_error(capsys, "seed: expected an integer >= 0, got -1")
        assert not report.exists()

    def test_comm_zero_init_fault_detected(self, capsys):
        code = main(["check", "--seed", "0", "--inject-fault", "comm-hot-init"])
        report = json.loads(capsys.readouterr().out)
        assert code == 1
        assert report["checks"]["comm_zero_init_passthrough"]["passed"] is False


class TestEvalCommand:
    def test_eval_after_train(self, tmp_path, capsys):
        cfg = write_toy_config(tmp_path)
        main(["train", "--config", str(cfg)])
        capsys.readouterr()  # drop training output
        code = main(["eval", "--run", str(tmp_path / "run" / "seed_1"),
                     "--episodes", "4"])
        assert code == 0
        row = json.loads(capsys.readouterr().out)
        assert row["episodes"] == 4
        assert 0.0 <= row["success_rate"] <= 1.0

    def test_eval_of_a_seed_directory_trained_alone(self, tmp_path, capsys):
        # train_one_seed writes no config.json beside its seed directory, and
        # eval read the config there: a one-line error
        cfg = write_toy_config(tmp_path)
        assert main(["train", "--config", str(cfg)]) == 0
        train_one_seed(load_run_config(cfg), 1, tmp_path / "alone" / "seed_1")
        assert not (tmp_path / "alone" / "config.json").exists()
        capsys.readouterr()
        rows = []
        for run in ("run", "alone"):
            assert main(["eval", "--run", str(tmp_path / run / "seed_1"), "--episodes", "3"]) == 0
            rows.append(capsys.readouterr().out)
        assert rows[0] == rows[1]

    def test_eval_of_a_seed_directory_whose_save_stopped_between_its_renames(self, tmp_path,
                                                                              capsys):
        # save_state renames state/ to state.old/, then state.new/ to state/;
        # eval reads state.old/ and, as a training process may be saving,
        # moves nothing
        assert main(["train", "--config", str(write_toy_config(tmp_path))]) == 0
        seed_dir = tmp_path / "run" / "seed_1"
        capsys.readouterr()
        rows = []
        for stopped in (False, True):
            if stopped:
                (seed_dir / "state").rename(seed_dir / "state.old")
            before = {p: p.read_bytes() if p.is_file() else None for p in seed_dir.rglob("*")}
            assert main(["eval", "--run", str(seed_dir), "--deploy", "distributed"]) == 0
            rows.append(capsys.readouterr().out)
            assert {p: p.read_bytes() if p.is_file() else None
                    for p in seed_dir.rglob("*")} == before
        assert rows[0] == rows[1]
        assert sorted(p.name for p in seed_dir.iterdir()) == ["metrics.csv", "state.old"]

    def test_eval_with_negative_seed_is_a_one_line_error(self, tmp_path, capsys):
        cfg = write_toy_config(tmp_path)
        main(["train", "--config", str(cfg)])
        capsys.readouterr()
        out = tmp_path / "eval.csv"
        assert main(["eval", "--run", str(tmp_path / "run" / "seed_1"), "--seed", "-1",
                     "--out", str(out)]) == 2   # raw ValueError
        assert_one_line_error(capsys, "--seed: expected an integer >= 0, got -1")
        assert not out.exists()

    @pytest.mark.parametrize("keep", [5, 20, -3])
    def test_eval_of_truncated_checkpoint_is_a_one_line_error(self, tmp_path, capsys, keep):
        cfg = write_toy_config(tmp_path)
        main(["train", "--config", str(cfg)])
        capsys.readouterr()
        ckpt = tmp_path / "run" / "seed_1" / "state" / "params.bin"
        ckpt.write_bytes(ckpt.read_bytes()[:keep])
        assert main(["eval", "--run", str(tmp_path / "run" / "seed_1")]) == 2
        err = capsys.readouterr().err
        assert len(err.strip().splitlines()) == 1
        assert str(ckpt) in err and "truncated at byte" in err

    def test_eval_of_run_without_checkpoint_is_a_one_line_error(self, tmp_path, capsys):
        write_toy_config(tmp_path)   # the run directory's parent's config.json is not read
        seed_dir = tmp_path / "seed_1"
        seed_dir.mkdir()
        assert main(["eval", "--run", str(seed_dir)]) == 2   # FileNotFoundError
        assert_one_line_error(capsys, str(seed_dir / "state" / "config.json"))

    @pytest.mark.parametrize("text", [
        None,                              # FileNotFoundError
        "{not json",                       # JSONDecodeError
        json.dumps({"n": 2}),              # KeyError
    ])
    def test_eval_with_bad_topology_file_is_a_one_line_error(self, tmp_path, capsys, text):
        write_snapshot_config(tmp_path / "seed_1")
        topo_path = tmp_path / "topo.json"
        if text is not None:
            topo_path.write_text(text)
        assert main(["eval", "--run", str(tmp_path / "seed_1"),
                     "--topology", str(topo_path)]) == 2
        assert_one_line_error(capsys, str(topo_path))

    def test_eval_with_a_topology_for_another_team_size_is_a_one_line_error(self, tmp_path,
                                                                            capsys):
        # 2 agents, no params.bin: refused before the team
        config = write_snapshot_config(tmp_path / "seed_1")
        topo_path = tmp_path / "topo.json"
        topo_path.write_text(json.dumps({"reachable": np.eye(3, dtype=int).tolist()}))
        assert main(["eval", "--run", str(tmp_path / "seed_1"),
                     "--topology", str(topo_path)]) == 2
        assert_one_line_error(capsys, str(topo_path), "3 agents", str(config), "has 2")

    def test_eval_with_deployment_traffic(self, tmp_path, capsys):
        cfg = write_toy_config(tmp_path)
        main(["train", "--config", str(cfg)])
        capsys.readouterr()  # drop training output
        out_csv = tmp_path / "eval.csv"
        code = main(["eval", "--run", str(tmp_path / "run" / "seed_1"),
                     "--episodes", "2", "--deploy", "centralized",
                     "--out", str(out_csv)])
        assert code == 0
        row = json.loads(capsys.readouterr().out)
        # 2 agents, hidden width 8: 2*2*8 floats per env step
        assert row["comm_floats"] == 2 * 2 * 8 * row["env_steps"]
        header = out_csv.read_text().splitlines()[0]
        assert "comm_messages" in header

    @pytest.mark.parametrize("flags, header", [
        ([], "episodes,mean_return,success_rate,env_steps"),
        (["--deploy", "distributed"], "episodes,mean_return,success_rate,env_steps,"
                                      "comm_messages,comm_floats,comm_rounds"),
    ])
    def test_eval_out_row_keeps_its_header_order(self, tmp_path, capsys, flags, header):
        main(["train", "--config", str(write_toy_config(tmp_path))])
        capsys.readouterr()  # drop training output
        out_csv = tmp_path / "eval.csv"
        assert main(["eval", "--run", str(tmp_path / "run" / "seed_1"),
                     "--episodes", "2", "--out", str(out_csv), *flags]) == 0
        row = json.loads(capsys.readouterr().out)
        lines = out_csv.read_text().splitlines()
        assert lines[0] == header
        assert lines[1:] == [",".join(str(v) for v in row.values())]

    def test_eval_with_topology_restriction(self, tmp_path, capsys):
        cfg = write_toy_config(tmp_path)
        main(["train", "--config", str(cfg)])
        topo = {"n": 2, "reachable": [[1, 0], [0, 1]]}
        topo_path = tmp_path / "topo.json"
        topo_path.write_text(json.dumps(topo))
        capsys.readouterr()  # drop training output
        code = main(["eval", "--run", str(tmp_path / "run" / "seed_1"),
                     "--episodes", "2", "--topology", str(topo_path),
                     "--deploy", "distributed"])
        assert code == 0
        row = json.loads(capsys.readouterr().out)
        assert row["comm_messages"] == 0  # nobody hears anybody

    def test_eval_without_episodes_is_a_one_line_error(self, tmp_path, capsys):
        cfg = write_toy_config(tmp_path)
        main(["train", "--config", str(cfg)])
        capsys.readouterr()  # drop training output
        assert main(["eval", "--run", str(tmp_path / "run" / "seed_1"),
                     "--episodes", "0"]) == 2
        assert "test episode" in capsys.readouterr().err

    @pytest.mark.parametrize("flags", [
        ["--deploy", "centralized"],
        ["--topology", "TOPO"],
        ["--topology", "TOPO", "--deploy", "distributed"],
    ])
    def test_comm_flags_on_a_run_without_comm_are_a_one_line_error(self, tmp_path,
                                                                   capsys, flags):
        cfg = write_toy_config(tmp_path, mixer="qmix", comm={"enabled": False})
        assert main(["train", "--config", str(cfg)]) == 0
        topo_path = tmp_path / "topo.json"
        topo_path.write_text(json.dumps({"reachable": [[1, 0], [0, 1]]}))
        capsys.readouterr()  # drop training output
        flags = [str(topo_path) if f == "TOPO" else f for f in flags]
        assert main(["eval", "--run", str(tmp_path / "run" / "seed_1"),
                     "--episodes", "2", *flags]) == 2   # exited 0, no comm_* field
        assert_one_line_error(capsys, "comm disabled")

    @pytest.mark.parametrize("deploy", ["centralized", "distributed"])
    def test_eval_is_evaluate_plus_netsim_traffic(self, tmp_path, capsys, deploy):
        comm = {"enabled": True, "num_layers": 2, "ffn_dim": 8, "heads": 2, "dropout": 0.1}
        cfg = write_toy_config(tmp_path, comm=comm)
        main(["train", "--config", str(cfg)])
        capsys.readouterr()  # drop training output
        seed_dir = tmp_path / "run" / "seed_1"
        assert main(["eval", "--run", str(seed_dir), "--episodes", "3",
                     "--seed", "4", "--deploy", deploy]) == 0
        row = json.loads(capsys.readouterr().out)

        config = load_run_config(tmp_path / "run" / "config.json")
        env = make_env(config.env.name, config.env.params)
        team = build_team_for_env(config, env, seed=4)
        load_records(seed_dir / "state" / "params.bin",
                     ((p.name, p.data) for p in team.parameters()))
        mean_return, success, steps = evaluate(env, team, 3, seed=4, test_point=0)
        assert (row["mean_return"], row["success_rate"], row["env_steps"]) == \
            (mean_return, success, steps)
        # 2 agents, width 8, 2 layers
        per_step = (centralized_traffic(2, 8) if deploy == "centralized"
                    else distributed_traffic(Topology.full(2), 2, 8))
        assert (row["comm_messages"], row["comm_floats"], row["comm_rounds"]) == \
            (per_step.messages * steps, per_step.floats_transferred * steps,
             per_step.rounds * steps)


class TestSweepCommand:
    def test_auc_trapezoid_hand_case(self):
        # three-point curve: trapezoids (0.0+0.5)/2*10 + (0.5+1.0)/2*10
        steps = np.array([0.0, 10.0, 20.0])
        rets = np.array([0.0, 0.5, 1.0])
        assert abs(curve_auc(steps, rets) - (2.5 + 7.5)) < 1e-12

    def test_single_cell_sweep_matches_train(self, tmp_path):
        base = json.loads(write_toy_config(tmp_path).read_text())
        base.pop("out_dir")
        sweep_spec = {"base": base, "grid": {"num_layers": [1]}}
        sweep_path = tmp_path / "sweep.json"
        sweep_path.write_text(json.dumps(sweep_spec))
        assert main(["sweep", "--config", str(sweep_path),
                     "--out", str(tmp_path / "sweepout")]) == 0
        summary = json.loads((tmp_path / "sweepout" / "summary.json").read_text())
        assert len(summary) == 1

        cell_csv = tmp_path / "sweepout" / "cell_num_layers1" / "metrics.csv"
        main(["train", "--config", str(write_toy_config(tmp_path)),
              "--out", str(tmp_path / "plain")])
        assert cell_csv.read_bytes() == (tmp_path / "plain" / "metrics.csv").read_bytes()

    def test_grid_covers_cartesian_product(self, tmp_path):
        base = json.loads(write_toy_config(tmp_path).read_text())
        base.pop("out_dir")
        base["total_env_steps"] = 40
        sweep_spec = {"base": base,
                      "grid": {"num_layers": [1, 2], "dropout": [0.0, 0.1]}}
        path = tmp_path / "sweep.json"
        path.write_text(json.dumps(sweep_spec))
        assert main(["sweep", "--config", str(path),
                     "--out", str(tmp_path / "grid")]) == 0
        summary = json.loads((tmp_path / "grid" / "summary.json").read_text())
        assert len(summary) == 4
        combos = {(c["num_layers"], c["dropout"]) for c in summary}
        assert combos == {(1, 0.0), (1, 0.1), (2, 0.0), (2, 0.1)}
        for layers, dropout in combos:
            cell = tmp_path / "grid" / f"cell_dropout{dropout}_num_layers{layers}"
            comm = load_run_config(cell / "config.json").comm
            assert (comm.num_layers, comm.dropout) == (layers, dropout)
        csv_lines = (tmp_path / "grid" / "summary.csv").read_text().splitlines()
        assert csv_lines[0] == "dropout,num_layers,auc,final_return,final_success"
        assert csv_lines[1:] == [",".join(str(v) for v in cell.values()) for cell in summary]

    @pytest.mark.parametrize("grid, shown", [
        ({"num_layers": [1, 1]}, "grid.num_layers repeats a value: [1, 1]"),
        ({"dropout": [0.1, 0, 0.0]}, "grid.dropout repeats a value: [0.1, 0, 0.0]"),
    ])
    def test_repeated_grid_value_rejected_before_any_cell_trains(self, tmp_path, capsys,
                                                                 grid, shown):
        # trained the same cell twice into one directory and listed it twice
        base = json.loads(write_toy_config(tmp_path).read_text())
        path = tmp_path / "sweep.json"
        path.write_text(json.dumps({"base": base, "grid": grid}))
        out = tmp_path / "sweepout"
        assert main(["sweep", "--config", str(path), "--out", str(out)]) == 2
        assert_one_line_error(capsys, shown)
        assert not out.exists() and not (tmp_path / "run").exists()

    def test_empty_grid_rejected(self, tmp_path, capsys):
        path = tmp_path / "sweep.json"
        path.write_text(json.dumps({"base": {}, "grid": {}}))
        assert main(["sweep", "--config", str(path)]) == 2
        assert "grid" in capsys.readouterr().err

    def test_invalid_later_cell_rejected_before_any_cell_trains(self, tmp_path, capsys):
        base = json.loads(write_toy_config(tmp_path).read_text())
        path = tmp_path / "sweep.json"
        path.write_text(json.dumps({"base": base, "grid": {"num_layers": [1, 0]}}))
        out = tmp_path / "sweepout"
        assert main(["sweep", "--config", str(path), "--out", str(out)]) == 2
        assert "num_layers" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("grid", [
        {"num_layers": 5},          # TypeError from list(5)
        {"num_layers": [1.7]},      # trained 1 layer, labelled 1.7
        {"num_layers": [True]},     # trained 1 layer, labelled True
        {"dropout": ["x"]},         # ValueError from float("x")
        {"temperature": [-0.5]},
        5,
    ])
    def test_malformed_grid_is_a_one_line_error(self, tmp_path, capsys, grid):
        base = json.loads(write_toy_config(tmp_path).read_text())
        path = tmp_path / "sweep.json"
        path.write_text(json.dumps({"base": base, "grid": grid}))
        out = tmp_path / "sweepout"
        assert main(["sweep", "--config", str(path), "--out", str(out)]) == 2
        assert len(capsys.readouterr().err.strip().splitlines()) == 1
        assert not out.exists()

    def test_missing_sweep_file_is_a_one_line_error(self, tmp_path, capsys):
        path = tmp_path / "missing.json"
        assert main(["sweep", "--config", str(path)]) == 2   # FileNotFoundError
        assert_one_line_error(capsys, str(path))

    @pytest.mark.parametrize("text", ["{not json", "5"])
    def test_sweep_file_that_is_not_a_json_object_is_a_one_line_error(self, tmp_path,
                                                                      capsys, text):
        path = tmp_path / "sweep.json"
        path.write_text(text)
        assert main(["sweep", "--config", str(path)]) == 2
        err = capsys.readouterr().err
        assert len(err.strip().splitlines()) == 1 and str(path) in err
