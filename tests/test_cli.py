"""Command-line interface: subcommands, overrides, reports, artifacts."""

import json
import os
from concurrent.futures.process import BrokenProcessPool

import numpy as np
import pytest

from marlab.cli import curve_auc, main
from marlab.config import load_run_config
from marlab.envs import make_env
from marlab.netsim import Topology, centralized_traffic, distributed_traffic
from marlab.nn import load_checkpoint, read_records, write_records
from marlab.runner import build_team_for_env, evaluate


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


class TestTrainCommand:
    def test_train_writes_artifacts(self, tmp_path, capsys):
        cfg = write_toy_config(tmp_path)
        assert main(["train", "--config", str(cfg)]) == 0
        out = tmp_path / "run"
        assert (out / "config.json").exists()
        assert (out / "metrics.csv").exists()
        assert (out / "seed_1" / "checkpoint.bin").exists()
        assert (out / "seed_1" / "checkpoint.json").exists()
        assert "seed 1" in capsys.readouterr().out

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
        for name in ("metrics.csv", "seed_2/checkpoint.bin"):
            assert (tmp_path / "run" / name).read_bytes() == \
                (tmp_path / "whole" / name).read_bytes()

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
        ckpt = tmp_path / "run" / "seed_1" / "checkpoint.bin"
        ckpt.write_bytes(ckpt.read_bytes()[:keep])
        assert main(["eval", "--run", str(tmp_path / "run" / "seed_1")]) == 2
        err = capsys.readouterr().err
        assert len(err.strip().splitlines()) == 1
        assert str(ckpt) in err and "truncated at byte" in err

    def test_eval_of_run_without_checkpoint_is_a_one_line_error(self, tmp_path, capsys):
        write_toy_config(tmp_path)   # the run directory's parent holds config.json
        seed_dir = tmp_path / "seed_1"
        seed_dir.mkdir()
        assert main(["eval", "--run", str(seed_dir)]) == 2   # FileNotFoundError
        assert_one_line_error(capsys, str(seed_dir / "checkpoint.bin"))

    @pytest.mark.parametrize("text", [
        None,                              # FileNotFoundError
        "{not json",                       # JSONDecodeError
        json.dumps({"n": 2}),              # KeyError
    ])
    def test_eval_with_bad_topology_file_is_a_one_line_error(self, tmp_path, capsys, text):
        write_toy_config(tmp_path)
        topo_path = tmp_path / "topo.json"
        if text is not None:
            topo_path.write_text(text)
        assert main(["eval", "--run", str(tmp_path / "seed_1"),
                     "--topology", str(topo_path)]) == 2
        assert_one_line_error(capsys, str(topo_path))

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
        load_checkpoint(seed_dir / "checkpoint.bin", team.parameters())
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
