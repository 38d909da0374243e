#!/usr/bin/env python3
"""Benchmark of marlab: training, snapshot/resume and the invariant suite.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload cue_mactas --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 20 --trace 0

The program under test is the ``marlab`` package in ``src/`` of the same
checkout.  One process, one thread, BLAS pinned to one thread.  With
``--trace 0`` the last line of output is a JSON object carrying every
end-to-end metric; with ``--trace 1`` the main loop runs twice, untraced and
traced, and the JSON carries every per-layer metric.  Human-readable lines
before it give each metric with its unit and sample count, the gates that
failed, and the provenance of the numbers.  Results are also written to
``.perfbench_runs/`` in the checkout.
"""

import os

# Pin BLAS before numpy loads it: the benchmark is a one-thread closed loop.
BLAS_PIN = {v: "1" for v in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS",
                             "MKL_NUM_THREADS", "NUMEXPR_NUM_THREADS")}
os.environ.update(BLAS_PIN)

import argparse
import hashlib
import importlib
import json
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path
from types import SimpleNamespace

import numpy as np

from clock import SpeedClock
from layermap import CHECK_NAMES, CHECK_SPANS, SPANS, per_layer_metric_names
from tracer import Tracer
from workloads import (WORKLOADS, Gates, check_digests, check_suite, digest,
                       install_checks, install_ops, install_spans, layer_metrics,
                       span_problems)

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
RUNS = ROOT / ".perfbench_runs"
SETUP_REPS = 5
MARLAB_MODULES = ("runner", "learner", "config", "envs", "checks", "nn.tensor")

END_TO_END = [
    ("env_steps_per_s", "1/s"), ("train_steps_per_s", "1/s"),
    ("train_step_p50_ms", "ms"), ("train_step_p90_ms", "ms"),
    ("peak_rss_mb", "MB"), ("setup_s", "s"),
]
# Printed with the end-to-end metrics but not bounded: the speed probe does
# not follow them well enough, and over ten runs on the development VM they
# spread by up to 29%, 45% and 31% (interquartile range over median).
UNBOUNDED = [("snapshot_s", "s"), ("resume_s", "s"), ("check_s", "s")]


def import_marlab() -> SimpleNamespace:
    """Import marlab afresh from this checkout's src/."""
    for name in [n for n in sys.modules if n == "marlab" or n.startswith("marlab.")]:
        del sys.modules[name]
    mods = {m.replace("nn.", ""): importlib.import_module(f"marlab.{m}")
            for m in MARLAB_MODULES}
    return SimpleNamespace(**mods)


def git_commit():
    """HEAD of the checkout when it is a git repository, read from .git/."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[len("ref: "):]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def provenance() -> dict:
    blas = np.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": {k: blas.get(k) for k in ("name", "version", "openblas configuration")},
        "blas_thread_pin": BLAS_PIN,
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "machine": platform.machine(),
        "git_commit": git_commit(),
        "source_sha256": _tree_digest(SRC / "marlab"),
        "bench_sha256": _tree_digest(Path(__file__).resolve().parent),
    }


def _tree_digest(root: Path) -> str:
    h = hashlib.sha256()
    for path in sorted(root.rglob("*.py")):
        h.update(path.relative_to(root).as_posix().encode())
        h.update(path.read_bytes())
    return h.hexdigest()


def record_digest(key: str, value: str, gates) -> None:
    """Every run with the same source, workload, seed and length must give
    the same digest; the first run records it."""
    path = RUNS / "digests.json"
    known = json.loads(path.read_text()) if path.exists() else {}
    if key in known:
        gates.check("digest_across_runs", known[key] == value,
                    f"digest {value} != {known[key]} of an earlier run")
        return
    known[key] = value
    tmp = path.with_suffix(".tmp")
    tmp.write_text(json.dumps(known, indent=1, sort_keys=True))
    tmp.replace(path)


def run_workload(name: str, seed: int, seconds: int, trace: bool) -> dict:
    workload = WORKLOADS[name]
    gates = Gates()
    clock = SpeedClock()
    RUNS.mkdir(exist_ok=True)
    work_dir = Path(tempfile.mkdtemp(prefix=f"{name}-", dir=RUNS))
    try:
        setup = []
        for _ in range(SETUP_REPS):
            t0 = clock()
            mb = import_marlab()
            run = workload.build(mb, seed, seconds, work_dir / "run")
            setup.append((t0, clock()))
        if not Path(mb.runner.__file__).resolve().is_relative_to(SRC):
            raise SystemExit(f"marlab was imported from {mb.runner.__file__}, not {SRC}")
        inputs = workload.make_inputs(mb, run)
        result = workload.main(mb, run, seconds, gates, clock)
        main_digest = digest(result.items)
        problems = []

        if trace:
            untraced = result
            run = workload.build(mb, seed, seconds, work_dir / "traced")
            workload.make_inputs(mb, run)
            main_tracer = Tracer()
            install_spans(main_tracer, mb, SPANS, problems)
            install_ops(main_tracer, mb, problems)
            try:
                with main_tracer:
                    result = workload.main(mb, run, seconds, gates, clock)
            finally:
                main_tracer.restore()
            check_digests(gates, "traced_equals_untraced", main_digest, digest(result.items))
            problems += span_problems(main_tracer, name, SPANS)
        else:
            items = workload.prefix_items(mb, run, seconds, inputs, work_dir / "prefix")
            check_digests(gates, "prefix_rerun", digest(result.items[:len(items)]),
                          digest(items))

        workload.close(mb, run, result, gates)
        check_tracer = Tracer()
        if trace:
            install_checks(check_tracer, mb, problems)
        try:
            with check_tracer:
                check_span = check_suite(mb, seed, gates, clock, marks=not trace)
        finally:
            check_tracer.restore()
        if trace:
            problems += span_problems(check_tracer, name, CHECK_SPANS)
            problems += [f"checks.{c} recorded 0 calls" for c in CHECK_NAMES
                         if not check_tracer.calls.get(f"checks.{c}")]
            for p in problems:
                gates.check("tracer", False, p)

        origin = provenance()
        origin["host_speed"] = clock.speed()
        origin["raw_main_s"] = result.main[1] - result.main[0]
        version = f"{origin['source_sha256'][:16]}:{origin['bench_sha256'][:16]}"
        record_digest(f"{version}:{name}:{seed}:{seconds}", digest(result.items), gates)
        gates.attempted += result.train_steps

        unbounded = {}
        if trace:
            values = layer_metrics(main_tracer, result.train_steps, check_tracer)
            values["trace_overhead"] = result.wall_s() / untraced.wall_s()
            metrics = {n: {"value": values[n], "unit": u} for n, u in per_layer_metric_names()}
            # check spans are per suite run, everything else per train step
            check_names = {f"{s.name}.{k}" for s in CHECK_SPANS
                           for k in ("calls", "self_ms", "total_ms")}
            check_names |= {f"checks.{c}.total_ms" for c in CHECK_NAMES}
            counts = {n: 1 if n in check_names else result.train_steps for n in metrics}
            counts["trace_overhead"] = 1
        else:
            train_ms = [1e3 * s for s in result.seconds(result.train)]
            values = {
                "env_steps_per_s": result.env_steps / result.wall_s(),
                "train_steps_per_s": result.train_steps / result.wall_s(),
                "train_step_p50_ms": float(np.percentile(train_ms, 50)),
                "train_step_p90_ms": float(np.percentile(train_ms, 90)),
                "snapshot_s": sum(result.seconds(result.snapshot)),
                "resume_s": sum(result.seconds(result.resume)),
                "check_s": result.seconds([check_span])[0],
                "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
                "setup_s": statistics.median(result.seconds(setup)),
            }
            counts = {
                "env_steps_per_s": result.env_steps,
                "train_steps_per_s": result.train_steps,
                "train_step_p50_ms": result.train_steps,
                "train_step_p90_ms": result.train_steps,
                "snapshot_s": len(result.snapshot),
                "resume_s": len(result.resume),
                "check_s": 1, "peak_rss_mb": 1, "setup_s": len(setup),
            }
            metrics = {n: {"value": values[n], "unit": u} for n, u in END_TO_END}
            unbounded = {n: {"value": values[n], "unit": u} for n, u in UNBOUNDED}
        return {
            "workload": name, "seed": seed, "seconds": seconds, "trace": int(trace),
            "digest": digest(result.items), "failures": gates.failures,
            "samples": counts, "provenance": origin,
            "correct": not gates.failures, "attempted": gates.attempted,
            "failed": len(gates.failures), "metrics": metrics,
            "unbounded": unbounded,
        }
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)


def print_report(report: dict):
    print(f"workload {report['workload']} seed {report['seed']} "
          f"seconds {report['seconds']} trace {report['trace']} "
          f"digest {report['digest']}")
    print("provenance " + json.dumps(report["provenance"], sort_keys=True))
    for name, m in report["metrics"].items():
        print(f"  {name:<48} {m['value']:>14.6g} {m['unit']:<6} "
              f"n={report['samples'][name]}")
    for name, m in report["unbounded"].items():
        print(f"  {name:<48} {m['value']:>14.6g} {m['unit']:<6} "
              f"n={report['samples'][name]} (not bounded)")
    for failure in report["failures"]:
        print(f"  GATE FAILED {failure}")
    print(f"  gates: {report['attempted']} attempted, {report['failed']} failed")


def run_all(args) -> dict:
    """Every workload, each in its own process, one after another."""
    merged = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in sorted(WORKLOADS):
        proc = subprocess.run(
            [sys.executable, str(Path(__file__).resolve()), "--workload", name,
             "--seed", str(args.seed), "--seconds", str(args.seconds),
             "--trace", str(args.trace)],
            capture_output=True, text=True, cwd=ROOT)
        sys.stdout.write(proc.stdout)
        sys.stderr.write(proc.stderr)
        if proc.returncode != 0:
            raise SystemExit(f"workload {name} exited with code {proc.returncode}")
        last = json.loads(proc.stdout.strip().splitlines()[-1])
        merged["correct"] &= last["correct"]
        merged["attempted"] += last["attempted"]
        merged["failed"] += last["failed"]
        for metric, value in last["metrics"].items():
            merged["metrics"][f"{name}.{metric}"] = value
    return merged


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=sorted(WORKLOADS) + ["all"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = parser.parse_args(argv)
    if args.seed < 0 or args.seconds < 1:
        parser.error("--seed must be >= 0 and --seconds >= 1")
    if not (SRC / "marlab" / "__init__.py").is_file():
        print(f"error: no marlab package under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))

    if args.workload == "all":
        print(json.dumps(run_all(args)))
        return 0
    report = run_workload(args.workload, args.seed, args.seconds, bool(args.trace))
    print_report(report)
    (RUNS / f"{args.workload}-seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps(report, indent=1, sort_keys=True))
    print(json.dumps({k: report[k] for k in ("correct", "attempted", "failed", "metrics")}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
