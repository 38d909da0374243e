"""Tests of the benchmark itself: smoke runs, gates that must fire, tracer.

Run from the root of the repository:

    python3 -m pytest -q perfbench/tests

The smoke runs start the benchmark in child processes at its smallest size
and take a couple of minutes on one core.
"""

import json
import shutil
import subprocess
import sys
import time
import types
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent.parent
ROOT = BENCH.parent
sys.path.insert(0, str(BENCH))
sys.path.insert(0, str(ROOT / "src"))

import layermap  # noqa: E402
import run as bench_run  # noqa: E402
from clock import SpeedClock  # noqa: E402
from tracer import Tracer  # noqa: E402
from workloads import (Gates, check_digests, check_suite, digest,  # noqa: E402
                       state_mismatches, WORKLOADS)


def _bench(*args, cwd=ROOT):
    return subprocess.run([sys.executable, str(Path(cwd) / "perfbench" / "run.py"), *args],
                          capture_output=True, text=True, cwd=cwd, timeout=600)


def test_benchmark_json_lists_what_the_code_reports():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert set(spec) == {"command", "paths", "run_seconds", "workloads",
                         "end_to_end", "per_layer"}
    assert {w["name"] for w in spec["workloads"]} == set(WORKLOADS)
    assert [(m["name"], m["unit"]) for m in spec["end_to_end"]] == bench_run.END_TO_END
    assert [(m["name"], m["unit"]) for m in spec["per_layer"]] == \
        layermap.per_layer_metric_names()
    assert len(spec["per_layer"]) <= 128


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", sorted(WORKLOADS))
def test_smoke_run(workload, trace):
    proc = _bench("--workload", workload, "--seed", "3", "--seconds", "1",
                  "--trace", str(trace))
    assert proc.returncode == 0, proc.stderr
    last = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(last) == {"correct", "attempted", "failed", "metrics"}
    assert last["correct"], [line for line in proc.stdout.splitlines() if "GATE" in line]
    assert last["failed"] == 0 and last["attempted"] >= 1
    expected = (layermap.per_layer_metric_names() if trace else bench_run.END_TO_END)
    assert [(k, v["unit"]) for k, v in last["metrics"].items()] == expected
    values = {k: v["value"] for k, v in last["metrics"].items()}
    if not trace:
        assert all(v > 0 for v in values.values())
        return
    idle = [s for s in layermap.SPANS if workload in s.idle]
    assert all(values[f"{s.name}.calls"] == 0 for s in idle)
    active = [s for s in layermap.SPANS if workload in s.active]
    assert all(values[f"{s.name}.calls"] > 0 for s in active)
    assert values["checks.run_checks.calls"] == 1
    assert values["trace_overhead"] > 0


def test_comm_idle_on_resume_and_rollout_idle_on_long_unroll():
    def idle_on(workload):
        return {s.name for s in layermap.SPANS if workload in s.idle}

    assert {"comm.CommStack", "nn.layers.MultiHeadSelfAttention",
            "nn.optim.Adam.step"} <= idle_on(layermap.RESUME)
    assert {"runner.rollout_episode", "envs.CuePassing.step",
            "exploration.action_distribution"} <= idle_on(layermap.LONG)


def test_fails_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__", ".pytest_cache"))
    proc = _bench("--workload", "long_unroll", "--seed", "1", "--seconds", "1",
                  "--trace", "0", cwd=tmp_path)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout


def _marlab():
    return bench_run.import_marlab()


def test_check_gate_fires_on_faulty_build():
    gates = Gates()
    check_suite(_marlab(), 0, gates, SpeedClock(), fault="qmix-signed")
    assert gates.failures and gates.failures[0].startswith("run_checks")
    assert "qmix_monotonicity" in gates.failures[0]


def test_digest_gate_fires_on_tampered_rows():
    rows = [{"env_step": 0, "loss": float("nan")}, {"env_step": 200, "loss": 0.25}]
    tampered = [dict(r) for r in rows]
    tampered[1]["loss"] = 0.25000000000000006
    gates = Gates()
    assert check_digests(gates, "same", digest(rows), digest([dict(r) for r in rows]))
    assert not check_digests(gates, "tampered", digest(rows), digest(tampered))
    assert gates.attempted == 2 and len(gates.failures) == 1


def test_resume_gate_fires_on_tampered_state(tmp_path):
    mb = _marlab()
    workload = WORKLOADS[layermap.RESUME]
    a = workload.build(mb, 1, 1, tmp_path / "a")
    b = workload.build(mb, 1, 1, tmp_path / "b")
    assert state_mismatches(a, b) == []
    b.team.parameters()[0].data[0, 0] += 1e-12
    b.episode_idx += 1
    assert state_mismatches(a, b) == ["params", "counters"]


def test_speed_clock_scales_by_probe_and_skips_probe_time():
    def probe():
        time.sleep(0.02)      # a slow probe: the host runs at half speed
        return 2e-3

    clock = SpeedClock(probe=probe, every_s=0.0, ref_s=1e-3)
    a = clock()               # probes, then returns the time after the probe
    time.sleep(0.05)
    b = clock()               # probes again; that probe lies inside [a, b]
    raw = b - a
    assert raw > 0.07
    assert abs(clock.duration(a, b) - 0.5 * (raw - (clock.spans[1][1] - clock.spans[1][0]))) < 1e-9
    assert clock.speed() == 0.5


class _Clock:
    def __init__(self):
        self.now = 0.0

    def __call__(self):
        return self.now


def _fake_package(clock):
    """A package 'fakepkg' whose functions advance a fake clock."""
    mod = types.ModuleType("fakepkg.core")

    def inner():
        clock.now += 3.0

    def outer():
        clock.now += 1.0
        mod.inner()
        clock.now += 2.0

    def countdown(n):
        clock.now += 1.0
        if n:
            mod.countdown(n - 1)

    class Layer:
        def forward(self, x):
            clock.now += 5.0
            return x

        __call__ = forward

    mod.inner, mod.outer, mod.countdown, mod.Layer = inner, outer, countdown, Layer
    Layer.__module__ = "fakepkg.core"
    mod.TABLE = [("inner", inner)]
    pkg = types.ModuleType("fakepkg")
    pkg.outer = outer   # re-exported name, as marlab.nn re-exports ops
    return pkg, mod


@pytest.fixture
def fake(monkeypatch):
    clock = _Clock()
    pkg, mod = _fake_package(clock)
    monkeypatch.setitem(sys.modules, "fakepkg", pkg)
    monkeypatch.setitem(sys.modules, "fakepkg.core", mod)
    return clock, pkg, mod


def test_tracer_self_time_excludes_traced_callees(fake):
    clock, pkg, mod = fake
    tracer = Tracer(clock=clock)
    originals = (mod.inner, mod.outer, mod.Layer.forward)
    assert tracer.wrap(mod.outer, "outer", "fakepkg") == 2      # module + re-export
    assert tracer.wrap(mod.inner, "inner", "fakepkg") == 2      # module + table row
    assert tracer.wrap(mod.countdown, "countdown", "fakepkg") == 1
    assert tracer.wrap(mod.Layer.forward, "layer", "fakepkg") == 2  # forward + __call__
    with tracer:
        pkg.outer()
        mod.TABLE[0][1]()
        mod.countdown(2)
        mod.Layer()(1)
    assert tracer.calls["outer"] == 1 and tracer.calls["inner"] == 2
    assert tracer.total_s["outer"] == 6.0 and tracer.self_s["outer"] == 3.0
    assert tracer.total_s["inner"] == 6.0 and tracer.self_s["inner"] == 6.0
    # recursion: three activations, total counted once at the outermost
    assert tracer.calls["countdown"] == 3
    assert tracer.total_s["countdown"] == 3.0 and tracer.self_s["countdown"] == 3.0
    assert tracer.calls["layer"] == 1 and tracer.self_s["layer"] == 5.0
    tracer.restore()
    assert (mod.inner, mod.outer, mod.Layer.forward) == originals
    assert mod.Layer.__call__ is originals[2] and pkg.outer is originals[1]
    assert mod.TABLE == [("inner", originals[0])]


def test_tracer_records_nothing_when_disabled(fake):
    clock, pkg, mod = fake
    tracer = Tracer(clock=clock)
    tracer.wrap(mod.outer, "outer", "fakepkg")
    pkg.outer()
    tracer.restore()
    assert not tracer.calls
