"""The names perfbench traces must exist in marlab, and be called.

perfbench wraps functions by module and attribute path, and its traced run
reports a span with no calls on a workload where it should do work.  A
refactor that renames one of them, or stops calling it, fails the traced
benchmark run; these tests fail first, in about a second, without running
the benchmark.
"""

import dataclasses
import sys
import time
from pathlib import Path
from types import SimpleNamespace

import pytest

import marlab.checks  # noqa: F401  (resolve looks modules up in sys.modules)
import marlab.config
import marlab.learner
import marlab.runner
from marlab.nn import tensor as T

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "perfbench"))

import layermap  # noqa: E402
import workloads  # noqa: E402
from tracer import Tracer, resolve  # noqa: E402


@pytest.mark.parametrize("span", layermap.SPANS + layermap.CHECK_SPANS,
                         ids=lambda span: span.name)
def test_every_traced_span_resolves(span):
    fn = resolve("marlab", span.module, span.qualname)
    assert callable(fn), f"marlab.{span.module}.{span.qualname} not found"


def test_every_counted_op_is_in_nn_tensor():
    missing = [op for op in layermap.OPS if not callable(getattr(T, op, None))]
    assert missing == []


@pytest.mark.parametrize("workload", [layermap.CUE, layermap.RESUME])
def test_a_short_cue_run_calls_every_span_active_on_its_workload(workload, tmp_path):
    # the workload's own config, cut to 80 env steps: 40 episodes, so the
    # 32-episode batches train a few steps, and test points at 0, 40 and 80
    mb = SimpleNamespace(config=marlab.config, learner=marlab.learner,
                         runner=marlab.runner, tensor=T)
    bench = workloads.WORKLOADS[workload]
    config = bench.config(mb, 3, 12, tmp_path)
    config = dataclasses.replace(config, total_env_steps=80,
                                 train=dataclasses.replace(config.train, test_interval=40))
    run = marlab.runner.SeedRun(config, 3, tmp_path)
    tracer, problems = Tracer(), []
    workloads.install_spans(tracer, mb, layermap.SPANS, problems)
    try:
        with tracer:
            run.run(snapshot_interval=1)
            if bench.resume_each:   # as its main loop does at every snapshot
                workloads.resume_into_fresh(mb, run, workloads.Result(time.perf_counter),
                                            workloads.Gates())
    finally:
        tracer.restore()
    assert problems == []
    assert workloads.span_problems(tracer, workload, layermap.SPANS) == []
