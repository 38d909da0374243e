"""The benchmark's workloads, their main loops and their correctness gates.

Every workload is a closed loop in one thread: each call into ``marlab``
starts only after the previous one returned.  The amount of work is a
function of the seed and ``--seconds`` only, never of elapsed time, so two
runs with the same arguments do the same work and must give the same
digest.  A run is: set-up (timed elsewhere), input generation, the main
loop, then the closing gates every workload shares (snapshot round trip
and ``run_checks``).

The workloads receive the imported ``marlab`` modules as ``mb``; they call
only public functions and methods.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import math
from pathlib import Path

import numpy as np

from clock import SpeedClock
from layermap import CHECK_NAMES, CHECK_SPANS, CUE, LONG, OPS, RESUME, SPANS
from tracer import Tracer, resolve

TEST_EPISODES = 64        # greedy episodes per test point
SNAPSHOTS = 10            # long_unroll snapshots, evenly over its steps
SYNTHETIC_EPISODES = 256  # long_unroll buffer size


class Gates:
    """Correctness gates of one run; each failure is a failed operation."""

    def __init__(self):
        self.attempted = 0
        self.failures: list[str] = []

    def check(self, name: str, ok: bool, detail: str = "") -> bool:
        self.attempted += 1
        if not ok:
            self.failures.append(f"{name}: {detail}" if detail else name)
        return ok


def digest(obj) -> str:
    """Digest of JSON-able results; floats enter with every digit."""
    text = json.dumps(obj, sort_keys=True, allow_nan=True)
    return hashlib.sha256(text.encode()).hexdigest()[:16]


def check_digests(gates: Gates, name: str, expected: str, actual: str) -> bool:
    return gates.check(name, expected == actual, f"digest {actual} != {expected}")


@dataclasses.dataclass
class Result:
    """What one main loop did, as spans of raw clock marks."""

    clock: SpeedClock
    items: list = dataclasses.field(default_factory=list)      # digested output
    main: tuple = (0.0, 0.0)
    excluded: list = dataclasses.field(default_factory=list)   # gate work inside main
    env_steps: int = 0
    train: list = dataclasses.field(default_factory=list)
    losses: list = dataclasses.field(default_factory=list)
    snapshot: list = dataclasses.field(default_factory=list)
    resume: list = dataclasses.field(default_factory=list)

    @property
    def train_steps(self) -> int:
        return len(self.train)

    def seconds(self, spans) -> list[float]:
        return [self.clock.duration(a, b) for a, b in spans]

    def wall_s(self) -> float:
        return self.seconds([self.main])[0] - sum(self.seconds(self.excluded))


# -- shared gates ---------------------------------------------------------

def _same_arrays(xs, ys) -> bool:
    xs, ys = list(xs), list(ys)
    return len(xs) == len(ys) and all(
        x.shape == y.shape and np.array_equal(x, y) for x, y in zip(xs, ys))


def state_mismatches(a, b) -> list[str]:
    """Parts of SeedRun ``b`` that differ from SeedRun ``a``."""
    out = []
    if not _same_arrays((p.data for p in a.team.parameters()),
                        (p.data for p in b.team.parameters())):
        out.append("params")
    if not _same_arrays((p.data for p in a.learner.target.parameters()),
                        (p.data for p in b.learner.target.parameters())):
        out.append("target params")
    for attr in ("opt_main", "opt_comm"):
        oa, ob = getattr(a.learner, attr), getattr(b.learner, attr)
        if (oa is None) != (ob is None):
            out.append(attr)
        elif oa is not None:
            sa, sb = oa.state_arrays(), ob.state_arrays()
            if (sorted(sa) != sorted(sb) or oa.step_count != ob.step_count
                    or not _same_arrays((sa[k] for k in sorted(sa)),
                                        (sb[k] for k in sorted(sb)))):
                out.append(attr)
    ea, eb = a.buffer.episodes, b.buffer.episodes
    fields = ("obs", "states", "avail", "actions", "rewards")
    if len(ea) != len(eb) or any(
            x.terminated != y.terminated
            or not _same_arrays((getattr(x, f) for f in fields),
                                (getattr(y, f) for f in fields))
            for x, y in zip(ea, eb)):
        out.append("buffer")
    counters = ("env_step", "episode_idx", "next_test")
    if (any(getattr(a, c) != getattr(b, c) for c in counters)
            or a.learner.train_steps != b.learner.train_steps
            or digest([a.last_loss, a.rows]) != digest([b.last_loss, b.rows])):
        out.append("counters")
    return out


def resume_into_fresh(mb, run, result: Result, gates: Gates):
    """Load the latest snapshot of ``run`` into a fresh SeedRun and compare."""
    fresh = mb.runner.SeedRun(run.config, run.seed, run.out_dir)
    t0 = result.clock()
    fresh.load_state()
    result.resume.append((t0, result.clock()))
    bad = state_mismatches(run, fresh)
    gates.check("resume", not bad, "differs in " + ", ".join(bad))


def snapshot(run, result: Result):
    t0 = result.clock()
    type(run).save_state(run)
    result.snapshot.append((t0, result.clock()))


def check_suite(mb, seed: int, gates: Gates, clock, fault: str = "none",
                marks: bool = True) -> tuple:
    """Run the invariant suite as a gate; returns its span.

    With ``marks`` the clock also marks the boundaries between the suite's
    checks, so its speed correction can follow the host inside the suite.
    """
    table = mb.checks.CHECKS
    rows = list(table)
    if marks:
        table[:] = [(name, _marked(fn, clock)) for name, fn in rows]
    try:
        t0 = clock()
        report = mb.checks.run_checks(seed, fault=fault)
        span = (t0, clock())
    finally:
        table[:] = rows
    failed = [name for name, r in report["checks"].items() if not r["passed"]]
    gates.check("run_checks", report["passed"] and not failed,
                "failed " + ", ".join(failed))
    return span


def _marked(fn, clock):
    def call(*args, **kwargs):
        clock()
        try:
            return fn(*args, **kwargs)
        finally:
            clock()
    return call


def check_losses(gates: Gates, losses: list):
    gates.check("finite_losses", bool(losses) and all(math.isfinite(x) for x in losses),
                f"{len(losses)} losses, non-finite or none")


# -- workloads ------------------------------------------------------------

class CueRun:
    """cue_passing (n=3, m=3) through SeedRun.run, a snapshot at every test
    point.  With ``resume_each`` every snapshot is also loaded into a fresh
    SeedRun and compared with the run that saved it."""

    def __init__(self, mixer: str, comm: bool, resume_each: bool, success_gate: bool):
        self.mixer = mixer
        self.comm = comm
        self.resume_each = resume_each
        self.success_gate = success_gate

    def config(self, mb, seed: int, seconds: int, out_dir: Path):
        interval = 10 * max(seconds, 12)   # even: episodes are 2 steps long
        total = 10 * interval
        c = mb.config
        train = mb.learner.TrainConfig(
            batch_size=32, hidden_dim=64, anneal_steps=total // 2,
            test_interval=interval, test_episodes=TEST_EPISODES,
            target_update_interval=200)
        return c.RunConfig(env=c.EnvSpec("cue_passing", {"n_agents": 3, "num_cues": 3}),
                           mixer=self.mixer, comm=c.CommSettings(enabled=self.comm),
                           train=train, seeds=(seed,), total_env_steps=total,
                           out_dir=str(out_dir))

    def build(self, mb, seed, seconds, out_dir):
        return mb.runner.SeedRun(self.config(mb, seed, seconds, out_dir), seed, out_dir)

    def make_inputs(self, mb, run):
        return None   # the environment draws its own episodes from the seed

    def main(self, mb, run, seconds: int, gates: Gates, clock: SpeedClock) -> Result:
        result = Result(clock)
        learner = run.learner

        # instance attributes shadow the methods SeedRun.run looks up; the
        # class lookup at call time keeps any tracer wrapper in the path
        def train_step(buffer):
            t0 = clock()
            out = type(learner).train_step(learner, buffer)
            if out is not None:
                result.train.append((t0, clock()))
                result.losses.append(out["loss"])
            return out

        def save_state():
            snapshot(run, result)
            if self.resume_each:
                # resuming a second SeedRun is the benchmark's work, not the run's
                t0 = clock()
                resume_into_fresh(mb, run, result, gates)
                result.excluded.append((t0, clock()))

        learner.train_step = train_step
        run.save_state = save_state
        try:
            t0 = clock()
            rows = run.run(snapshot_interval=1)
            result.main = (t0, clock())
        finally:
            del learner.train_step
            del run.save_state
        result.items = [dict(r) for r in rows]
        result.env_steps = run.env_step
        return result

    def prefix_items(self, mb, run, seconds, inputs, out_dir):
        """Rows of a fresh run that stops at the first test interval."""
        cfg = run.config
        short = dataclasses.replace(cfg, total_env_steps=cfg.train.test_interval)
        return [dict(r) for r in mb.runner.SeedRun(short, run.seed, out_dir).run()]

    def close(self, mb, run, result: Result, gates: Gates):
        check_losses(gates, result.losses)
        if not self.resume_each:
            resume_into_fresh(mb, run, result, gates)
        if self.success_gate:
            blind = mb.envs.blind_optimum(run.env)
            success = result.items[-1]["success_rate"]
            gates.check("success_above_blind_optimum", success > blind,
                        f"greedy success {success} <= {blind}")


class LongUnroll:
    """Training only, on synthetic n=5 episodes of 10 to 20 steps with QMIX
    and comm on: the recurrent unroll and 160-row comm sets dominate.

    No env runs, so its env steps are those in the batches it trains on."""

    def config(self, mb, seed, seconds, out_dir):
        c = mb.config
        train = mb.learner.TrainConfig(batch_size=32, hidden_dim=64,
                                       target_update_interval=20)
        return c.RunConfig(env=c.EnvSpec("cue_passing", {"n_agents": 5, "num_cues": 3}),
                           mixer="qmix", comm=c.CommSettings(enabled=True), train=train,
                           seeds=(seed,), total_env_steps=1, out_dir=str(out_dir))

    @staticmethod
    def train_steps(seconds: int) -> int:
        return 5 * seconds

    def build(self, mb, seed, seconds, out_dir):
        return mb.runner.SeedRun(self.config(mb, seed, seconds, out_dir), seed, out_dir)

    def make_inputs(self, mb, run):
        env = run.env
        gen = np.random.default_rng([run.seed, 0x10])
        n, a = env.n_agents, env.n_actions
        episodes = []
        for _ in range(SYNTHETIC_EPISODES):
            t = int(gen.integers(10, 21))
            avail = gen.random((t + 1, n, a)) < 0.8
            avail[..., 0] |= ~avail.any(axis=-1)
            # a random available action at every step
            actions = (gen.random((t, n, a)) * avail[:t]).argmax(axis=-1)
            episodes.append(mb.learner.EpisodeRecord(
                obs=gen.standard_normal((t + 1, n, env.obs_dim)),
                states=gen.standard_normal((t + 1, env.state_dim)),
                avail=avail, actions=actions,
                rewards=0.1 * gen.standard_normal(t),
                terminated=bool(gen.random() < 0.5)))
        for ep in episodes:
            run.buffer.add(ep)
        return episodes

    def main(self, mb, run, seconds: int, gates: Gates, clock: SpeedClock) -> Result:
        result = Result(clock)
        buffer = run.buffer
        steps = self.train_steps(seconds)
        every = max(1, steps // SNAPSHOTS)

        def sample(count, rng):   # shadows the method Learner.train_step calls
            episodes = type(buffer).sample(buffer, count, rng)
            result.env_steps += sum(ep.length for ep in episodes)
            return episodes

        buffer.sample = sample
        try:
            t0 = clock()
            for i in range(steps):
                t1 = clock()
                out = run.learner.train_step(buffer)
                result.train.append((t1, clock()))
                result.losses.append(out["loss"])
                if (i + 1) % every == 0:
                    snapshot(run, result)
            result.main = (t0, clock())
        finally:
            del buffer.sample
        result.items = list(result.losses)
        return result

    def prefix_items(self, mb, run, seconds, inputs, out_dir):
        """Losses of the first steps of a fresh learner on the same buffer."""
        fresh = mb.runner.SeedRun(run.config, run.seed, out_dir)
        for ep in inputs:
            fresh.buffer.add(ep)
        steps = min(5, self.train_steps(seconds))
        return [fresh.learner.train_step(fresh.buffer)["loss"] for _ in range(steps)]

    def close(self, mb, run, result: Result, gates: Gates):
        check_losses(gates, result.losses)
        resume_into_fresh(mb, run, result, gates)


WORKLOADS = {
    CUE: CueRun(mixer="vdn", comm=True, resume_each=False, success_gate=True),
    RESUME: CueRun(mixer="qmix", comm=False, resume_each=True, success_gate=False),
    LONG: LongUnroll(),
}


# -- tracing --------------------------------------------------------------

def install_spans(tracer: Tracer, mb, spans, problems: list[str]):
    """Wrap each span's function; split spans share one function."""
    grouped: dict[tuple, list[str]] = {}
    for span in spans:
        grouped.setdefault((span.module, span.qualname), []).append(span.name)
    for (module, qualname), names in grouped.items():
        fn = resolve("marlab", module, qualname)
        if fn is None:
            problems.append(f"marlab.{module}.{qualname} not found")
            continue
        if len(names) == 2:
            online, target = names
            name = (lambda args, kwargs, g=mb.tensor.grad_enabled:
                    online if g() else target)
        else:
            name = names[0]
        if tracer.wrap(fn, name, "marlab") == 0:
            problems.append(f"no binding of marlab.{module}.{qualname} to wrap")


def install_ops(tracer: Tracer, mb, problems: list[str]):
    for op in OPS:
        fn = getattr(mb.tensor, op, None)
        if fn is None or tracer.wrap(fn, f"nn.tensor.{op}", "marlab", count_only=True) == 0:
            problems.append(f"nn.tensor.{op} not wrapped")


def install_checks(tracer: Tracer, mb, problems: list[str]):
    install_spans(tracer, mb, CHECK_SPANS, problems)
    table = dict(mb.checks.CHECKS)
    for name in CHECK_NAMES:
        if name not in table or tracer.wrap(table[name], f"checks.{name}", "marlab") == 0:
            problems.append(f"check {name} not wrapped")


def span_problems(tracer: Tracer, workload: str, spans) -> list[str]:
    out = []
    for span in spans:
        calls = tracer.calls.get(span.name, 0)
        if workload in span.active and calls == 0:
            out.append(f"{span.name} recorded 0 calls on {workload}")
        if workload in span.idle and calls:
            out.append(f"{span.name} recorded {calls} calls on idle {workload}")
    return out


def layer_metrics(main: Tracer, train_steps: int, checks: Tracer) -> dict[str, float]:
    """Per-layer values: main-loop spans and op counts per train step,
    check spans per suite run."""
    out = {}
    steps = max(train_steps, 1)
    for tracer, spans, per in ((main, SPANS, steps), (checks, CHECK_SPANS, 1)):
        for span in spans:
            out[f"{span.name}.calls"] = tracer.calls.get(span.name, 0) / per
            out[f"{span.name}.self_ms"] = tracer.self_s.get(span.name, 0.0) * 1e3 / per
            out[f"{span.name}.total_ms"] = tracer.total_s.get(span.name, 0.0) * 1e3 / per
    for name in CHECK_NAMES:
        out[f"checks.{name}.total_ms"] = checks.total_s.get(f"checks.{name}", 0.0) * 1e3
    for op in OPS:
        out[f"nn.tensor.{op}.calls"] = main.calls.get(f"nn.tensor.{op}", 0) / steps
    return out
