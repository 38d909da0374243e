"""Config schema, training runs, resumption, and CSV determinism."""

import collections
import contextlib
import dataclasses
import io
import json
import shutil
import tempfile
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import marlab.learner
import marlab.nn.serialize
import marlab.nn.tensor
import marlab.runner
from marlab.cli import main
from marlab.config import (
    CommSettings,
    EnvSpec,
    ExplorationConfig,
    RunConfig,
    _build,
    load_run_config,
    patch_run_config,
    run_config_from_dict,
    run_config_to_dict,
    save_run_config,
)
from marlab.errors import CheckpointError, ConfigError, MarlabError
from marlab.learner import (MAX_TEST_EPISODES, EpisodeRecord, Learner, ReplayBuffer, TrainConfig,
                            epsilon)
from marlab.mixers import MIXERS
from marlab.runner import SeedRun, train_all_seeds, train_one_seed

EARLIER_STATE = Path(__file__).parent / "data" / "earlier_state"


def toy_config(**kw):
    base = dict(
        env=EnvSpec("cue_passing", {"n_agents": 2, "num_cues": 2}),
        mixer="vdn",
        comm=CommSettings(enabled=True, num_layers=1, ffn_dim=8, heads=2, dropout=0.1),
        train=TrainConfig(batch_size=4, buffer_capacity=50, anneal_steps=100,
                          hidden_dim=8, test_interval=40, test_episodes=4,
                          target_update_interval=10),
        seeds=(1,),
        total_env_steps=80,
        out_dir="toy",
    )
    base.update(kw)
    return RunConfig(**base)


class TestConfigSchema:
    def test_roundtrip_through_json(self, tmp_path):
        cfg = toy_config()
        path = tmp_path / "config.json"
        save_run_config(cfg, path)
        assert load_run_config(path) == cfg

    def test_unknown_top_level_key_rejected(self):
        with pytest.raises(ConfigError, match="learning_rate"):
            run_config_from_dict({"learning_rate": 0.1})

    def test_unknown_nested_key_rejected(self):
        with pytest.raises(ConfigError, match="dropuot"):
            run_config_from_dict({"comm": {"dropuot": 0.2}})

    def test_bad_mixer_rejected(self):
        with pytest.raises(ConfigError, match="mixer"):
            run_config_from_dict({"mixer": "qplex"})

    def test_invalid_json_reported(self, tmp_path):
        path = tmp_path / "broken.json"
        path.write_text("{not json")
        with pytest.raises(ConfigError, match="invalid JSON"):
            load_run_config(path)

    def test_defaults_fill_missing_sections(self):
        cfg = run_config_from_dict({"mixer": "qmix"})
        assert cfg.mixer == "qmix"
        assert cfg.train.gamma == 0.99
        assert cfg.seeds == (1, 2, 3, 4, 5)

    @pytest.mark.parametrize("train", [
        {"test_interval": 0},                       # test points never advance
        {"test_episodes": 0},                       # mean over no episodes
        {"buffer_capacity": 8, "batch_size": 16},   # never a full batch
        {"batch_size": 0},                          # empty batch mid-run
        {"target_update_interval": 0},              # modulo by zero
        {"hidden_dim": 0},                          # division by zero in init
        {"lr": -1e-3},
        {"comm_lr": -1e-3},
        {"grad_clip": -1.0},                        # clip_grad_norm never clipped
        {"epsilon_start": 1.5},                     # failed at the first episode
        {"epsilon_finish": -0.1},
        {"epsilon_start": 0.1, "epsilon_finish": 0.5},   # was a ContractError
    ])
    def test_train_settings_that_cannot_run_rejected(self, train):
        with pytest.raises(ConfigError):
            run_config_from_dict({"train": train})

    # each passed load and trained with loss nan at every test point, exit 0
    @pytest.mark.parametrize("key, value", [
        ("rmsprop_eps", 0),
        ("rmsprop_eps", -1),
        ("rmsprop_eps", 1e-50),       # positive, but 0 in the float32 training runs in
        ("rmsprop_decay", 2),
        ("rmsprop_decay", -1),
    ])
    def test_rmsprop_settings_that_train_to_nan_rejected(self, key, value):
        with pytest.raises(ConfigError, match=key):
            run_config_from_dict({"train": {key: value}})

    def test_grad_clip_zero_turns_clipping_off_and_below_zero_is_refused(self):
        assert run_config_from_dict({"train": {"grad_clip": 0}}).train.grad_clip == 0
        with pytest.raises(ConfigError, match="grad_clip must be >= 0"):
            TrainConfig(grad_clip=-1.0)

    def test_anneal_steps_zero_starts_at_the_finish_and_below_zero_is_refused(self):
        train = run_config_from_dict({"train": {"anneal_steps": 0}}).train
        assert epsilon(0, train) == train.epsilon_finish
        with pytest.raises(ConfigError, match="anneal_steps must be >= 0"):   # was no anneal
            TrainConfig(anneal_steps=-5)

    def test_smallest_rmsprop_settings_float32_holds_accepted(self):
        train = run_config_from_dict({"train": {"rmsprop_eps": 1e-44,
                                                "rmsprop_decay": 0}}).train
        assert (train.rmsprop_eps, train.rmsprop_decay) == (1e-44, 0)

    def test_test_episodes_above_the_key_stride_rejected(self):
        # episode 10 000 of test point 0 had the streams of episode 0 of test point 1
        assert marlab.runner._test_episode_key(0, MAX_TEST_EPISODES) == \
            marlab.runner._test_episode_key(1, 0)
        with pytest.raises(ConfigError, match="test_episodes must be <= 10000"):
            run_config_from_dict({"train": {"test_episodes": MAX_TEST_EPISODES + 1}})
        assert run_config_from_dict(
            {"train": {"test_episodes": MAX_TEST_EPISODES}}).train.test_episodes == 10_000

    def test_comm_heads_must_divide_hidden_dim(self):
        # used to pass load and fail in CommStack after the run directory was written
        with pytest.raises(ConfigError, match="heads"):
            run_config_from_dict({"train": {"hidden_dim": 10}, "comm": {"heads": 4}})
        run_config_from_dict({"train": {"hidden_dim": 10},
                              "comm": {"heads": 4, "enabled": False}})

    @pytest.mark.parametrize("params", [
        {"n_agents": 3, "num_cues": 3, "bogus": 1},   # TypeError in CuePassing.__init__
        {"n_agents": 2.5},
        {"num_cues": True},
        {"cheat_obs": "no"},
    ])
    def test_bad_env_params_rejected(self, params):
        with pytest.raises(ConfigError, match="env"):
            run_config_from_dict({"env": {"name": "cue_passing", "params": params}})

    def test_env_params_of_a_parameterless_env_rejected(self):
        with pytest.raises(ConfigError, match="bogus"):
            run_config_from_dict({"env": {"name": "two_step_coop", "params": {"bogus": 1}}})

    @pytest.mark.parametrize("name", ["starcraft", ["cue_passing"]])
    def test_unknown_env_rejected_at_load(self, name):
        with pytest.raises(ConfigError, match="starcraft|expected str"):
            run_config_from_dict({"env": {"name": name}})

    @pytest.mark.parametrize("section, key, value", [
        (None, "total_env_steps", 1.5),          # ran with a float step budget
        ("train", "anneal_steps", 10.5),         # ran silently
        ("train", "target_update_interval", 3.5),
        ("train", "batch_size", 2.5),            # TypeError mid-run
        ("train", "hidden_dim", 8.0),
        ("train", "test_episodes", 2.5),
        ("train", "buffer_capacity", 50.5),
        ("train", "batch_size", True),
        ("comm", "heads", 2.0),
        ("exploration", "k", 1.5),
        ("comm", "enabled", "no"),     # a non-empty string is truthy: comm stayed on
        ("comm", "residual", 0),
        ("train", "lr", True),          # ran with lr 1
        (None, "out_dir", 5),          # TypeError when the run directory is made
    ])
    def test_wrong_json_type_rejected(self, section, key, value):
        data = {key: value} if section is None else {section: {key: value}}
        with pytest.raises(ConfigError, match=key):
            run_config_from_dict(data)

    @pytest.mark.parametrize("section, key", [
        ("train", "lr"),            # trained to exit 0 with nan losses
        ("train", "comm_lr"),
        ("exploration", "temperature"),
        ("train", "grad_clip"),
    ])
    # 10 ** 400, an integer no float holds, was an OverflowError traceback
    @pytest.mark.parametrize("value", [float("nan"), float("inf"), float("-inf"),
                                       pytest.param(10 ** 400, id="10**400")])
    def test_non_finite_float_rejected(self, section, key, value):
        # Python's JSON reader turns NaN and Infinity into these floats
        data = json.loads(json.dumps({section: {key: value}}))
        with pytest.raises(ConfigError, match=f"{key}: expected a finite number"):
            run_config_from_dict(data)

    def test_integer_for_float_field_accepted(self):
        train = run_config_from_dict({"train": {"gamma": 1, "lr": 0}}).train
        assert (train.gamma, train.lr) == (1.0, 0.0)
        assert type(train.gamma) is float and type(train.lr) is float

    def test_matrix_game_payoff_param_accepted(self):
        cfg = run_config_from_dict({"env": {"name": "matrix_game",
                                            "params": {"payoff": [[1, 0], [0, 2]]}}})
        assert cfg.env.params["payoff"] == [[1, 0], [0, 2]]

    # [1, -3] passed load and failed in training with a raw ValueError
    @pytest.mark.parametrize("seeds", [5, "12", ["a"], [1.5], [True], [1, -3]])
    def test_malformed_seeds_rejected(self, seeds):
        with pytest.raises(ConfigError, match="seeds"):
            run_config_from_dict({"seeds": seeds})


    def test_patch_merges_nested_objects_and_checks_values(self):
        cfg = toy_config()
        patched = patch_run_config(cfg, {"comm": {"dropout": 0.2}, "seeds": [7]})
        assert patched == dataclasses.replace(
            cfg, comm=dataclasses.replace(cfg.comm, dropout=0.2), seeds=(7,))
        with pytest.raises(ConfigError, match="num_layers"):
            patch_run_config(cfg, {"comm": {"num_layers": 1.7}})
        with pytest.raises(ConfigError, match="k must be"):
            patch_run_config(cfg, {"exploration": {"k": 0}})

    def test_sections_are_found_by_field_type(self):
        built = _build(Outer, {"part": {"width": 3}, "ids": [1, 2]}, "outer")
        assert built == Outer(part=Inner(width=3), ids=(1, 2))
        with pytest.raises(ConfigError, match="outer.part.width: expected int"):
            _build(Outer, {"part": {"width": 1.5}}, "outer")


@dataclasses.dataclass(frozen=True)
class Inner:
    width: int = 1


@dataclasses.dataclass(frozen=True)
class Outer:
    part: Inner = dataclasses.field(default_factory=Inner)
    ids: tuple = ()


@st.composite
def train_configs(draw):
    unit = st.floats(0, 1)
    batch = draw(st.integers(1, 64))
    eps_finish, eps_start = sorted(draw(st.lists(unit, min_size=2, max_size=2)))
    return TrainConfig(
        gamma=draw(unit), batch_size=batch, lr=draw(unit), comm_lr=draw(unit),
        rmsprop_decay=draw(unit),
        # every eps that stays above 0 in float32, up to its largest value
        rmsprop_eps=draw(st.floats(float(np.finfo(np.float32).smallest_subnormal) / 2,
                                   float(np.finfo(np.float32).max), exclude_min=True)),
        epsilon_start=eps_start, epsilon_finish=eps_finish,
        anneal_steps=draw(st.integers(1, 10**6)), grad_clip=draw(st.floats(0, 100)),
        target_update_interval=draw(st.integers(1, 1000)),
        test_interval=draw(st.integers(1, 10**5)), test_episodes=draw(st.integers(1, 64)),
        buffer_capacity=batch + draw(st.integers(0, 1000)),
        hidden_dim=draw(st.integers(1, 256)))


env_specs = st.one_of(
    # the env constructor's checks run at load: a team needs two agents
    st.builds(EnvSpec, st.just("cue_passing"), st.fixed_dictionaries({}, optional={
        "n_agents": st.integers(2, 6), "num_cues": st.integers(1, 6),
        "cheat_obs": st.booleans()})),
    st.builds(EnvSpec, st.just("two_step_coop")),
    st.builds(EnvSpec, st.just("matrix_game"), st.fixed_dictionaries({}, optional={
        "payoff": st.lists(st.lists(st.integers(-20, 20), min_size=2, max_size=2),
                           min_size=2, max_size=2)})),
)

@st.composite
def run_configs(draw):
    train = draw(train_configs())
    # the comm stack's width is hidden_dim, which its heads must divide
    heads = draw(st.sampled_from([h for h in range(1, 9) if train.hidden_dim % h == 0]))
    return draw(st.builds(
        RunConfig,
        env=env_specs,
        mixer=st.sampled_from(MIXERS),
        comm=st.builds(CommSettings, enabled=st.booleans(), num_layers=st.integers(1, 4),
                       ffn_dim=st.integers(1, 512), heads=st.just(heads),
                       dropout=st.floats(0, 1, exclude_max=True), residual=st.booleans()),
        exploration=st.builds(ExplorationConfig, k=st.integers(1, 10),
                              temperature=st.floats(0, 100)),
        train=st.just(train),
        seeds=st.lists(st.integers(0, 2**64), min_size=1, max_size=5, unique=True).map(tuple),
        total_env_steps=st.integers(1, 10**9),
        # a NUL character is rejected at load: no file system path can hold one
        out_dir=st.text(st.characters(exclude_characters="\0"), max_size=20),
    ))


@settings(max_examples=100, deadline=None)
@given(cfg=run_configs())
def test_config_round_trips_through_json_and_empty_patch(cfg):
    assert run_config_from_dict(json.loads(json.dumps(run_config_to_dict(cfg)))) == cfg
    assert patch_run_config(cfg, {}) == cfg


def small_budget(cfg: RunConfig) -> RunConfig:
    """cfg with its run, batch and model sizes clamped; every other value kept."""
    t, comm = cfg.train, cfg.comm
    batch = min(t.batch_size, 3)
    train = dataclasses.replace(
        t, test_interval=min(t.test_interval, 6), test_episodes=min(t.test_episodes, 2),
        batch_size=batch, buffer_capacity=max(batch, min(t.buffer_capacity, 3)),
        hidden_dim=comm.heads * max(1, min(t.hidden_dim, 16) // comm.heads))
    comm = dataclasses.replace(comm, num_layers=min(comm.num_layers, 2),
                               ffn_dim=min(comm.ffn_dim, 8))
    return dataclasses.replace(cfg, train=train, comm=comm,
                               total_env_steps=min(cfg.total_env_steps, 12))


# accepted configs such as lr=1.0 with grad_clip=0 genuinely diverge and overflow
@pytest.mark.filterwarnings("ignore::RuntimeWarning")
@settings(max_examples=100, deadline=None)
@given(cfg=run_configs().map(small_budget))
def test_every_accepted_config_trains_to_completion(cfg):
    with tempfile.TemporaryDirectory() as out_dir:
        rows = train_one_seed(cfg, cfg.seeds[0], out_dir)
        lines = (Path(out_dir) / "metrics.csv").read_text().splitlines()
    assert rows[0]["env_step"] == 0 and len(lines) == len(rows) + 1


def json_slots(obj: dict) -> list[tuple[dict, str]]:
    """Every (object, key) pair of a JSON object, nested objects included."""
    slots = []
    for key, value in obj.items():
        slots.append((obj, key))
        if isinstance(value, dict):
            slots.extend(json_slots(value))
    return slots


# no value here can make a run large: integers stop at 2, and 1.5 and 1e300
# fit only float fields
WRONG_TYPES = ["x", [1], {"a": 1}, None, True]
OUT_OF_RANGE = [-1, -0.5, 1.5, 2, 1e300]


@st.composite
def cli_config_files(draw):
    """A small-budget accepted config as JSON, as drawn or with one key corrupted."""
    data = run_config_to_dict(small_budget(draw(run_configs())))
    slots = json_slots(data)
    corruption = draw(st.sampled_from(["none", "type", "range", "unknown"]))
    if corruption == "unknown":
        obj = draw(st.sampled_from([data] + [o[k] for o, k in slots if isinstance(o[k], dict)]))
        obj["bogus"] = 1
    elif corruption != "none":
        obj, key = draw(st.sampled_from(slots))
        obj[key] = draw(st.sampled_from(WRONG_TYPES if corruption == "type" else OUT_OF_RANGE))
    return data


@pytest.mark.filterwarnings("ignore::RuntimeWarning")   # accepted configs may diverge
@settings(max_examples=25, deadline=None)
@given(data=cli_config_files())
def test_cli_train_exits_0_or_with_one_error_line(data):
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "config.json"
        path.write_text(json.dumps(data))
        err = io.StringIO()
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
            code = main(["train", "--config", str(path), "--out", str(Path(tmp) / "run")])
    lines = err.getvalue().splitlines()
    assert (code, lines) == (0, []) or (
        code == 2 and len(lines) == 1 and lines[0].startswith("error: ")), (code, lines)


# each trained to exit 0, warning "overflow encountered in cast" on stderr:
# float32, which training casts them to, holds them only as inf
@pytest.mark.parametrize("key, value", [("lr", 1e300), ("comm_lr", 1e300),
                                        ("rmsprop_eps", 3.4028235677973366e+38)])
def test_cli_train_refuses_a_setting_that_overflows_float32_in_one_line(
        tmp_path, capsys, key, value):
    data = run_config_to_dict(toy_config(total_env_steps=40))
    data["train"][key] = value
    path = tmp_path / "config.json"
    path.write_text(json.dumps(data))
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)   # as -W error::RuntimeWarning
        code = main(["train", "--config", str(path), "--out", str(tmp_path / "run")])
    lines = capsys.readouterr().err.splitlines()
    assert code == 2 and len(lines) == 1 and lines[0].startswith("error: "), (code, lines)
    assert key in lines[0] and not (tmp_path / "run").exists()


def test_cli_train_refuses_a_payoff_float32_cannot_hold_in_one_line(tmp_path, capsys):
    # trained to exit 0 with a nan loss in every row; with the warnings an
    # error, it ended in an "overflow encountered in cast" traceback in td_loss
    data = run_config_to_dict(toy_config(total_env_steps=40))
    data["env"] = {"name": "matrix_game", "params": {"payoff": [[1e39, 0.0], [0.0, 0.0]]}}
    path = tmp_path / "config.json"
    path.write_text(json.dumps(data))
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)   # as -W error::RuntimeWarning
        code = main(["train", "--config", str(path), "--out", str(tmp_path / "run")])
    lines = capsys.readouterr().err.splitlines()
    assert code == 2 and len(lines) == 1 and lines[0].startswith("error: "), (code, lines)
    assert "payoff[0][0]" in lines[0] and not (tmp_path / "run").exists()


class TestTrainingRun:
    def test_csv_rows_schema_and_test_points(self, tmp_path):
        rows = train_one_seed(toy_config(), seed=1, out_dir=tmp_path / "s1")
        steps = [r["env_step"] for r in rows]
        assert steps == [0, 40, 80]
        csv_text = (tmp_path / "s1" / "metrics.csv").read_text()
        assert csv_text.splitlines()[0] == \
            "seed,env_step,mean_test_return,success_rate,loss,epsilon"

    def test_identical_seed_and_config_bit_identical_csv(self, tmp_path):
        train_one_seed(toy_config(), seed=1, out_dir=tmp_path / "a")
        train_one_seed(toy_config(), seed=1, out_dir=tmp_path / "b")
        a = (tmp_path / "a" / "metrics.csv").read_bytes()
        b = (tmp_path / "b" / "metrics.csv").read_bytes()
        assert a == b

    def test_zero_training_comm_matches_bare_baseline(self, tmp_path):
        # before any gradient step, the zero-initialized communication stack
        # is invisible: first test point identical with and without it
        with_comm = train_one_seed(toy_config(), seed=3, out_dir=tmp_path / "comm")
        bare_cfg = toy_config(comm=CommSettings(enabled=False))
        bare = train_one_seed(bare_cfg, seed=3, out_dir=tmp_path / "bare")
        assert with_comm[0]["mean_test_return"] == bare[0]["mean_test_return"]
        assert with_comm[0]["success_rate"] == bare[0]["success_rate"]

    def test_multi_seed_run_emits_stream_per_seed(self, tmp_path):
        cfg = toy_config(seeds=(1, 2, 3), total_env_steps=40)
        results = train_all_seeds(cfg, tmp_path / "multi")
        assert sorted(results) == [1, 2, 3]
        combined = (tmp_path / "multi" / "metrics.csv").read_text().splitlines()
        seeds_in_csv = [line.split(",")[0] for line in combined[1:]]
        assert seeds_in_csv == ["1", "1", "2", "2", "3", "3"]
        assert (tmp_path / "multi" / "config.json").exists()
        for s in (1, 2, 3):
            assert (tmp_path / "multi" / f"seed_{s}" / "state" / "params.bin").exists()

    def test_seed_resume_refuses_a_changed_config(self, tmp_path):
        train_one_seed(toy_config(), seed=5, out_dir=tmp_path)
        state = tmp_path / "state"
        before = {p: p.read_bytes() for p in tmp_path.rglob("*") if p.is_file()}
        assert load_run_config(state / "config.json") == toy_config()
        changed = toy_config(mixer="qmix", seeds=(5,))
        with pytest.raises(ConfigError, match=r"config\.mixer, config\.seeds"):
            train_one_seed(changed, seed=5, out_dir=tmp_path, resume=True)
        with pytest.raises(ConfigError, match="cannot resume"):
            SeedRun(changed, seed=5, out_dir=tmp_path).load_state()
        assert {p: p.read_bytes() for p in tmp_path.rglob("*") if p.is_file()} == before
        # a longer budget is allowed, as for train_all_seeds
        SeedRun(toy_config(total_env_steps=120), seed=5, out_dir=tmp_path).load_state()

    # QMIX mixes its targets per block of one step's rows (T.per_block); VDN sums them
    @pytest.mark.parametrize("mixer", ["vdn", "qmix"])
    def test_resume_matches_uninterrupted_run(self, tmp_path, monkeypatch, mixer):
        cfg_full = toy_config(total_env_steps=80, mixer=mixer)
        # the episodes the full run's target unroll ran at each train step
        unrolled, original = [], marlab.learner.unroll_team

        def recording(team, batch, ctx=None, first=0):
            if marlab.nn.tensor.grad_enabled():   # the online unroll opens a train step
                unrolled.append(0)
            else:
                unrolled[-1] += len(batch["lengths"])
            return original(team, batch, ctx, first)

        with monkeypatch.context() as patch:
            patch.setattr(marlab.learner, "unroll_team", recording)
            full = train_one_seed(cfg_full, seed=5, out_dir=tmp_path / "full")

        cfg_half = toy_config(total_env_steps=40, mixer=mixer)
        train_one_seed(cfg_half, seed=5, out_dir=tmp_path / "parts")
        at = json.loads((tmp_path / "parts" / "state" / "progress.json").read_text())["train_steps"]
        # the resume lands between two target syncs, where the full run reads
        # target values it cached before that point and the resumed run starts
        # with none
        interval, batch_size = cfg_full.train.target_update_interval, cfg_full.train.batch_size
        assert at % interval and unrolled[at] < batch_size
        resumed = train_one_seed(cfg_full, seed=5, out_dir=tmp_path / "parts",
                                 resume=True)
        assert len(resumed) == len(full)
        assert (tmp_path / "full" / "metrics.csv").read_bytes() == \
            (tmp_path / "parts" / "metrics.csv").read_bytes()
        a = (tmp_path / "full" / "state" / "params.bin").read_bytes()
        b = (tmp_path / "parts" / "state" / "params.bin").read_bytes()
        assert a == b

    def test_worker_processes_match_sequential(self, tmp_path):
        cfg = toy_config(seeds=(1, 2), total_env_steps=40)
        train_all_seeds(cfg, tmp_path / "seq", workers=1)
        train_all_seeds(cfg, tmp_path / "par", workers=2)
        assert (tmp_path / "seq" / "metrics.csv").read_bytes() == \
            (tmp_path / "par" / "metrics.csv").read_bytes()

    def test_a_pool_starts_no_more_processes_than_seeds(self, tmp_path, monkeypatch):
        # this fake executor runs the jobs inline and records its process cap
        started = []

        class InlineExecutor:
            def __init__(self, max_workers, mp_context):
                started.append(max_workers)

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                return False

            def map(self, fn, *jobs):
                return map(fn, *jobs)

        monkeypatch.setattr("concurrent.futures.ProcessPoolExecutor", InlineExecutor)
        cfg = toy_config(seeds=(1, 2), total_env_steps=40)
        train_all_seeds(cfg, tmp_path / "pool", workers=64)
        assert started == [2]
        train_all_seeds(cfg, tmp_path / "seq", workers=1)
        assert (tmp_path / "seq" / "metrics.csv").read_bytes() == \
            (tmp_path / "pool" / "metrics.csv").read_bytes()

    def test_learning_happens_on_easy_task(self, tmp_path):
        # two agents, two cues: communication lets the pair hit near-perfect
        # success quickly; this guards the whole loop end to end
        cfg = toy_config(
            total_env_steps=3000,
            train=TrainConfig(batch_size=16, buffer_capacity=500,
                              anneal_steps=1500, hidden_dim=16,
                              test_interval=1500, test_episodes=16,
                              target_update_interval=100),
        )
        rows = train_one_seed(cfg, seed=1, out_dir=tmp_path / "learn")
        assert rows[-1]["success_rate"] >= 0.75


def add_episodes(run, lengths, seed=0):
    """Synthetic episodes of the given lengths; every other one truncated.
    Each holds what the env allows, as a resumed buffer must: every agent
    has an available action at each step and takes one of them."""
    gen = np.random.default_rng(seed)
    env = run.env
    n, a = env.n_agents, env.n_actions
    for i, t in enumerate(lengths):
        obs = gen.standard_normal((t + 1, n, env.obs_dim))
        states = gen.standard_normal((t + 1, env.state_dim))
        avail = gen.random((t + 1, n, a)) < 0.7
        avail[..., 0] |= ~avail.any(axis=-1)
        run.buffer.add(EpisodeRecord(
            obs=obs, states=states, avail=avail,
            actions=(gen.random((t, n, a)) * avail[:t]).argmax(axis=-1),
            rewards=gen.standard_normal(t),
            terminated=(i % 2 == 0)))


class TestSnapshot:
    def test_buffer_round_trip_mixed_lengths_and_truncation(self, tmp_path):
        run = SeedRun(toy_config(), seed=1, out_dir=tmp_path)
        run.save_state()
        empty = SeedRun(toy_config(), seed=1, out_dir=tmp_path)
        empty.load_state()
        assert len(empty.buffer) == 0

        add_episodes(run, [3, 1, 5, 2, 4])
        run.save_state()
        fresh = SeedRun(toy_config(), seed=1, out_dir=tmp_path)
        fresh.load_state()
        assert len(fresh.buffer) == 5
        for saved, loaded in zip(run.buffer.episodes, fresh.buffer.episodes):
            assert loaded.terminated == saved.terminated
            for key in ("obs", "states", "avail", "actions", "rewards"):
                a, b = getattr(saved, key), getattr(loaded, key)
                assert a.shape == b.shape and np.array_equal(a, b), key

    def test_load_buffer_reads_each_array_once(self, tmp_path, monkeypatch):
        run = SeedRun(toy_config(), seed=1, out_dir=tmp_path)
        add_episodes(run, [2] * 6)
        run.save_state()
        reads = collections.Counter()
        original = np.lib.npyio.NpzFile.__getitem__

        def counting(npz, key):
            reads[key] += 1
            return original(npz, key)

        monkeypatch.setattr(np.lib.npyio.NpzFile, "__getitem__", counting)
        SeedRun(toy_config(), seed=1, out_dir=tmp_path).load_state()
        assert set(run.buffer.state_arrays()) == set(reads)
        assert max(reads.values()) == 1, dict(reads)

    def test_float64_earlier_state_is_refused_in_one_line(self, tmp_path):
        # EARLIER_STATE holds the state/ directory that the float64 snapshot
        # code before pad_batch wrote for
        # train_one_seed(toy_config(total_env_steps=40), seed=5); training
        # now runs in float32, which cannot hold its parameters exactly
        shutil.copytree(EARLIER_STATE, tmp_path / "state")
        save_run_config(toy_config(total_env_steps=40), tmp_path / "state" / "config.json")
        with pytest.raises(CheckpointError) as info:
            train_one_seed(toy_config(), seed=5, out_dir=tmp_path, resume=True)
        message = str(info.value)
        assert len(message.splitlines()) == 1
        assert "params.bin" in message and "'agent.fc_in.weight'" in message
        assert not (tmp_path / "metrics.csv").exists()

    def test_earlier_state_without_its_config_is_refused_in_one_line(self, tmp_path):
        # a snapshot without config.json once resumed unchecked against the config
        shutil.copytree(EARLIER_STATE, tmp_path / "state")
        with pytest.raises(ConfigError) as info:
            train_one_seed(toy_config(), seed=5, out_dir=tmp_path, resume=True)
        message = str(info.value)
        assert len(message.splitlines()) == 1
        assert str(tmp_path / "state" / "config.json") in message
        assert not (tmp_path / "metrics.csv").exists()

    def test_earlier_state_buffer_round_trips_through_load_and_save(self, tmp_path):
        # the padded layout the old snapshot code wrote is the one
        # ReplayBuffer.state_arrays lays out now, key order included
        with np.load(EARLIER_STATE / "buffer.npz") as old:
            arrays = {key: old[key] for key in old.files}
        env = SeedRun(toy_config(), seed=5, out_dir=tmp_path).env
        buffer = ReplayBuffer.from_state_arrays(toy_config().train.buffer_capacity, arrays,
                                                (env.n_agents, env.obs_dim, env.state_dim,
                                                 env.n_actions))
        assert len(buffer) == 20
        np.savez(tmp_path / "buffer.npz", **buffer.state_arrays())
        with np.load(tmp_path / "buffer.npz") as new:
            assert list(arrays) == new.files
            for key in new.files:
                a, b = arrays[key], new[key]
                assert a.dtype == b.dtype and a.shape == b.shape, key
                assert np.array_equal(a, b), key

    def test_next_test_point_comes_from_the_rows(self, tmp_path):
        run = SeedRun(toy_config(), seed=5, out_dir=tmp_path)
        run.run()   # test points at 0, 40 and 80
        assert len(run.rows) == 3 and run.next_test == 120
        run.save_state()
        path = tmp_path / "state" / "progress.json"
        progress = json.loads(path.read_text())
        assert "next_test" not in progress
        progress["next_test"] = 7   # older snapshots stored the counter; it is ignored
        path.write_text(json.dumps(progress))
        loaded = SeedRun(toy_config(), seed=5, out_dir=tmp_path)
        loaded.load_state()
        assert len(loaded.rows) == 3 and loaded.next_test == 120

    def test_a_snapshot_holds_its_six_files_and_resumes_to_the_run_that_wrote_it(
            self, tmp_path):
        run = SeedRun(toy_config(), seed=5, out_dir=tmp_path)
        run.run()
        run.save_state()
        assert sorted(p.name for p in (tmp_path / "state").iterdir()) == sorted([
            "config.json", "params.bin", "target.bin", "optimizer.bin", "buffer.npz",
            "progress.json"])

        def params(r):
            return [(p.name, p.data.copy()) for team in (r.team, r.learner.target)
                    for p in team.parameters()]

        def counters(r):
            return [r.env_step, r.episode_idx, r.learner.train_steps, r.last_loss,
                    *(row[k] for row in r.rows for k in marlab.runner.CSV_FIELDS)]

        fresh = SeedRun(toy_config(), seed=5, out_dir=tmp_path)
        assert run.learner.train_steps > 0 and len(run.buffer) > 0
        assert not all(np.array_equal(a, b) for (_, a), (_, b) in zip(params(fresh), params(run)))
        fresh.load_state()
        for (name, want), (got_name, got) in zip(
                [*params(run), *run.learner.state_arrays().items(),
                 *run.buffer.state_arrays().items()],
                [*params(fresh), *fresh.learner.state_arrays().items(),
                 *fresh.buffer.state_arrays().items()], strict=True):
            assert name == got_name and got.dtype == want.dtype, name
            assert np.array_equal(got, want), name
        assert len(fresh.rows) == len(run.rows)
        assert np.array_equal(counters(fresh), counters(run), equal_nan=True)

    def test_optimizer_step_counts_are_the_train_steps(self, tmp_path):
        run = SeedRun(toy_config(), seed=5, out_dir=tmp_path / "fresh")
        run.run()
        run.save_state()
        assert run.learner.opt_main.step_count == run.learner.opt_comm.step_count \
            == run.learner.train_steps > 0
        progress = json.loads((tmp_path / "fresh" / "state" / "progress.json").read_text())
        assert "opt_main_steps" not in progress and "opt_comm_steps" not in progress
        # snapshots once stored each optimizer's step count too; they still load
        older = SeedRun(toy_config(total_env_steps=40), seed=5, out_dir=tmp_path / "older")
        older.run()
        older.save_state()
        path = tmp_path / "older" / "state" / "progress.json"
        progress = json.loads(path.read_text())
        progress.update(opt_main_steps=17, opt_comm_steps=17)
        path.write_text(json.dumps(progress))
        for out_dir, steps in ((tmp_path / "fresh", run.learner.train_steps),
                               (tmp_path / "older", 17)):
            loaded = SeedRun(toy_config(), seed=5, out_dir=out_dir)
            loaded.load_state()
            assert loaded.learner.train_steps == steps
            assert loaded.learner.opt_main.step_count == steps
            assert loaded.learner.opt_comm.step_count == steps


# each damage to a snapshot's progress.json, and the field its error names
PROGRESS_DAMAGE = {
    "a list": ("object", lambda p: [p]),
    "train_steps a string": ("train_steps", lambda p: {**p, "train_steps": "5"}),
    "train_steps negative": ("train_steps", lambda p: {**p, "train_steps": -1}),
    "train_steps a bool": ("train_steps", lambda p: {**p, "train_steps": True}),
    "env_step null": ("env_step", lambda p: {**p, "env_step": None}),
    "episode_idx a float": ("episode_idx", lambda p: {**p, "episode_idx": 2.5}),
    "last_loss a string": ("last_loss", lambda p: {**p, "last_loss": "x"}),
    "rows a number": ("rows", lambda p: {**p, "rows": 3}),
    "rows of numbers": ("rows", lambda p: {**p, "rows": [1, 2]}),
    "a row without loss": ("rows", lambda p: {**p, "rows": [
        {k: v for k, v in row.items() if k != "loss"} for row in p["rows"]]}),
    "a row with a string loss": ("rows", lambda p: {**p, "rows": [
        {**row, "loss": "x"} for row in p["rows"]]}),
    "a NaN mean_test_return": ("rows[0].mean_test_return", lambda p: {**p, "rows": [
        {**p["rows"][0], "mean_test_return": float("nan")}, *p["rows"][1:]]}),
    "a string success_rate": ("rows[1].success_rate", lambda p: {**p, "rows": [
        p["rows"][0], {**p["rows"][1], "success_rate": "0.25"}]}),
    "a float seed": ("rows[0].seed", lambda p: {**p, "rows": [
        {**p["rows"][0], "seed": 5.0}, *p["rows"][1:]]}),
    "a float env_step": ("rows[1].env_step", lambda p: {**p, "rows": [
        p["rows"][0], {**p["rows"][1], "env_step": 40.0}]}),
    "another seed's row": ("rows[0].seed", lambda p: {**p, "rows": [
        {**p["rows"][0], "seed": 99}, *p["rows"][1:]]}),
    "a row past env_step": ("rows[1].env_step", lambda p: {**p, "rows": [
        p["rows"][0], {**p["rows"][1], "env_step": 12345}]}),
    "a row before its test point": ("rows[1].env_step", lambda p: {**p, "rows": [
        p["rows"][0], {**p["rows"][1], "env_step": 39}]}),
}


@pytest.mark.parametrize("damage", sorted(PROGRESS_DAMAGE))
def test_a_damaged_progress_file_is_a_one_line_checkpoint_error(tmp_path, damage):
    # unchecked, these were a TypeError or KeyError traceback, a ContractError
    # on stream keys, or a value taken as it stood into metrics.csv
    field, edit = PROGRESS_DAMAGE[damage]
    train_one_seed(toy_config(total_env_steps=40), seed=5, out_dir=tmp_path)
    path = tmp_path / "state" / "progress.json"
    path.write_text(json.dumps(edit(json.loads(path.read_text()))))
    with pytest.raises(CheckpointError) as info:
        train_one_seed(toy_config(), seed=5, out_dir=tmp_path, resume=True)
    message = str(info.value)
    assert len(message.splitlines()) == 1
    assert str(path) in message and field in message


def test_a_resume_reads_each_row_by_the_row_table_and_ends_as_the_whole_run(tmp_path):
    # a key the run never writes is dropped, and an epsilon of 1.0 given as 1
    # is read as that float: neither reaches metrics.csv or the next snapshot
    train_one_seed(toy_config(), seed=5, out_dir=tmp_path / "whole")
    parts = tmp_path / "parts"
    train_one_seed(toy_config(total_env_steps=40), seed=5, out_dir=parts)
    path = parts / "state" / "progress.json"
    progress = json.loads(path.read_text())
    assert progress["rows"][0]["epsilon"] == 1.0
    progress["rows"][0].update(epsilon=1, note="kept by hand")
    path.write_text(json.dumps(progress))
    assert '"epsilon": 1,' in path.read_text()
    train_one_seed(toy_config(), seed=5, out_dir=parts, resume=True)
    assert tree_bytes(parts) == tree_bytes(tmp_path / "whole")


def test_a_float_setting_spelled_as_an_integer_runs_and_resumes_as_that_float(tmp_path):
    # "epsilon_finish": 0 stayed an int: every annealed row of metrics.csv read
    # 0, and a resume of that run spelling it 0.0 went on to print 0.0
    def config(finish, total):
        data = run_config_to_dict(toy_config(total_env_steps=total))
        data["train"].update(epsilon_finish=finish, anneal_steps=40)
        return run_config_from_dict(json.loads(json.dumps(data)))

    train_all_seeds(config(0.0, 80), tmp_path / "float")
    assert "0.0\n" in (tmp_path / "float" / "metrics.csv").read_text()
    for first, then in ((0, 0), (0, 0.0), (0.0, 0)):
        out = tmp_path / f"{first}-{then}"
        train_all_seeds(config(first, 40), out)
        train_all_seeds(config(then, 80), out, resume=True)
        assert tree_bytes(out) == tree_bytes(tmp_path / "float"), (first, then)


def _refuse_constant(name):
    raise ValueError(f"{name} is not JSON")


def test_a_snapshot_at_the_first_test_point_is_strict_json_and_resumes_to_the_same_rows(
        tmp_path):
    # the first test point comes before any train step, so its row's loss is NaN
    whole = tmp_path / "whole"
    train_one_seed(toy_config(), seed=5, out_dir=whole)
    first = tmp_path / "first"
    assert np.isnan(train_one_seed(toy_config(total_env_steps=1), seed=5, out_dir=first)[0]["loss"])
    path = first / "state" / "progress.json"
    text = path.read_text()
    progress = json.loads(text, parse_constant=_refuse_constant)
    assert progress["rows"][0]["loss"] is None
    # older snapshots hold a bare NaN there; both resume to the uninterrupted rows
    older = tmp_path / "older"
    shutil.copytree(first, older)
    (older / "state" / "progress.json").write_text(text.replace('"loss": null', '"loss": NaN'))
    for out_dir in (first, older):
        train_one_seed(toy_config(), seed=5, out_dir=out_dir, resume=True)
        assert (out_dir / "metrics.csv").read_bytes() == (whole / "metrics.csv").read_bytes()
        json.loads((out_dir / "state" / "progress.json").read_text(),
                   parse_constant=_refuse_constant)


def test_infinite_losses_survive_a_strict_json_snapshot(tmp_path):
    run = SeedRun(toy_config(total_env_steps=1), seed=5, out_dir=tmp_path)
    run.run()
    run.rows[0]["loss"], run.last_loss = -np.inf, np.inf   # a diverged run's
    run.save_state()
    json.loads((tmp_path / "state" / "progress.json").read_text(),
               parse_constant=_refuse_constant)
    loaded = SeedRun(toy_config(), seed=5, out_dir=tmp_path)
    loaded.load_state()
    assert loaded.rows == run.rows and loaded.last_loss == np.inf


class _Crash(Exception):
    pass


# every call through which save_state writes, renames or deletes a file
SNAPSHOT_WRITES = [(marlab.runner, "write_records"), (marlab.nn.serialize, "write_records"),
                   (Path, "write_text"), (Path, "mkdir"), (Path, "rename"),
                   (np, "savez"), (shutil, "rmtree")]


def crash_in_snapshot(monkeypatch, cfg, out_dir, at: int, env_step: int) -> bool:
    """train_one_seed with a snapshot at every test point, where the `at`-th
    write of the snapshot at env_step raises; True if that write was reached."""
    armed, writes = [False], [0]

    def failing(fn):
        def call(*args, **kwargs):
            if armed[0]:
                writes[0] += 1
                if writes[0] == at:
                    raise _Crash
            return fn(*args, **kwargs)
        return call

    save_state = SeedRun.save_state

    def saving(run):
        armed[0] = run.env_step == env_step
        try:
            save_state(run)
        finally:
            armed[0] = False

    with monkeypatch.context() as patch:
        for owner, name in SNAPSHOT_WRITES:
            patch.setattr(owner, name, failing(getattr(owner, name)))
        patch.setattr(SeedRun, "save_state", saving)
        try:
            train_one_seed(cfg, seed=5, out_dir=out_dir)
        except _Crash:
            return True
    return False


def tree_bytes(root: Path) -> dict:
    return {p.relative_to(root): p.read_bytes() for p in root.rglob("*") if p.is_file()}


def test_a_crash_at_any_write_of_a_snapshot_resumes_exactly_or_refuses(tmp_path, monkeypatch):
    cfg = toy_config(total_env_steps=80)
    train_one_seed(cfg, seed=5, out_dir=tmp_path / "full")
    full = tree_bytes(tmp_path / "full")
    at = 1
    while crash_in_snapshot(monkeypatch, cfg, tmp_path / str(at), at, env_step=40):
        try:
            train_one_seed(cfg, seed=5, out_dir=tmp_path / str(at), resume=True)
        except MarlabError as exc:
            assert len(str(exc).splitlines()) == 1
        else:
            assert tree_bytes(tmp_path / str(at)) == full, f"crash at write {at}"
        at += 1
    assert at > 10   # every file of the snapshot, the renames and the clean-up


def test_a_resume_from_state_old_reads_it_in_place_and_ends_as_the_whole_run(tmp_path):
    # a save that stopped between its renames leaves state.old/ alone; load_state
    # renamed it back to state/, where eval reads it in place
    train_one_seed(toy_config(), seed=5, out_dir=tmp_path / "whole")
    seed_dir = tmp_path / "stopped"
    train_one_seed(toy_config(total_env_steps=40), seed=5, out_dir=seed_dir)
    (seed_dir / "state").rename(seed_dir / "state.old")
    before = tree_bytes(seed_dir)
    SeedRun(toy_config(), seed=5, out_dir=seed_dir).load_state()
    assert sorted(p.name for p in seed_dir.iterdir()) == ["metrics.csv", "state.old"]
    assert tree_bytes(seed_dir) == before
    train_one_seed(toy_config(), seed=5, out_dir=seed_dir, resume=True)
    assert not (seed_dir / "state.old").exists()
    assert tree_bytes(seed_dir) == tree_bytes(tmp_path / "whole")


def test_a_run_that_crashes_resumes_from_its_last_test_point(tmp_path, monkeypatch):
    cfg = toy_config(seeds=(5,), total_env_steps=120)   # test points at 0, 40, 80, 120
    train_all_seeds(cfg, tmp_path / "full")
    full = tree_bytes(tmp_path / "full")
    tests, steps, crash_after = [0], [0], [2]
    test_point, train_step = SeedRun._test_point, Learner.train_step

    def counted_test_point(run):
        test_point(run)
        tests[0] += 1

    def crashing_train_step(learner, buffer):
        if tests[0] == crash_after[0]:
            raise _Crash
        steps[0] += 1
        return train_step(learner, buffer)

    monkeypatch.setattr(SeedRun, "_test_point", counted_test_point)
    monkeypatch.setattr(Learner, "train_step", crashing_train_step)
    with pytest.raises(_Crash):   # at the first train step after the second test point
        train_all_seeds(cfg, tmp_path / "run")
    # a train_one_seed run used to write state/ only after its last step
    progress = json.loads((tmp_path / "run" / "seed_5" / "state" / "progress.json").read_text())
    assert progress["env_step"] == 40 and len(progress["rows"]) == 2

    crash_after[0] = None
    steps[0] = 0
    train_all_seeds(cfg, tmp_path / "run", resume=True)
    resumed, steps[0] = steps[0], 0
    train_all_seeds(cfg, tmp_path / "fresh")
    assert 0 < resumed < steps[0]
    assert tree_bytes(tmp_path / "run") == full
