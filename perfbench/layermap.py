"""Which public functions the traced run wraps, and what each should move.

Each span names a function of ``marlab`` by module and attribute path, the
end-to-end metric it is expected to move, and the workloads on which it
does work (``active``) or must do none (``idle``).  The traced run reports
an error for a span with 0 calls on an active workload, or with calls on
an idle one.  Spans listed under CHECK_SPANS are traced around the closing
``run_checks`` gate and reported per check-suite run; all others are
traced around the workload's main loop and reported per train step.
"""

from __future__ import annotations

from dataclasses import dataclass

CUE = "cue_mactas"
RESUME = "cue_qmix_resume"
LONG = "long_unroll"
ALL = frozenset({CUE, RESUME, LONG})


@dataclass(frozen=True)
class Span:
    name: str          # metric prefix
    module: str        # module inside marlab
    qualname: str      # attribute path inside that module
    moves: str         # end-to-end metric(s) it should move
    active: frozenset = ALL
    idle: frozenset = frozenset()


_ROLLOUT = dict(moves="env_steps_per_s on the cue workloads",
                active=frozenset({CUE, RESUME}), idle=frozenset({LONG}))
_COMM = dict(moves="train_steps_per_s, env_steps_per_s on cue_mactas and long_unroll",
             active=frozenset({CUE, LONG}), idle=frozenset({RESUME}))
_STEP = dict(moves="train_step_p50_ms on every workload")
_QMIX = dict(moves="train_steps_per_s on cue_qmix_resume and long_unroll",
             active=frozenset({RESUME, LONG}), idle=frozenset({CUE}))
_RESUME = dict(moves="resume_s (printed, not bounded), peak_rss_mb on cue_qmix_resume",
               active=frozenset({RESUME}), idle=frozenset({CUE, LONG}))

SPANS = [
    Span("runner.rollout_episode", "runner", "rollout_episode", **_ROLLOUT),
    Span("runner.evaluate", "runner", "evaluate", **_ROLLOUT),
    Span("envs.CuePassing.step", "envs", "CuePassing.step", **_ROLLOUT),
    Span("exploration.action_distribution", "exploration", "action_distribution", **_ROLLOUT),
    Span("rng.unit_uniform", "rng", "unit_uniform", **_ROLLOUT),
    Span("runner.SeedRun.save_state", "runner", "SeedRun.save_state",
         moves="snapshot_s (printed, not bounded) on every workload"),
    Span("nn.serialize.write_records", "nn.serialize", "write_records",
         moves="snapshot_s (printed, not bounded) on every workload"),
    Span("runner.SeedRun.load_state", "runner", "SeedRun.load_state", **_RESUME),
    Span("nn.serialize.read_records", "nn.serialize", "read_records", **_RESUME),
    Span("learner.Learner.train_step", "learner", "Learner.train_step",
         moves="train_steps_per_s on every workload"),
    Span("learner.ReplayBuffer.sample", "learner", "ReplayBuffer.sample",
         moves="train_step_p50_ms on long_unroll"),
    Span("learner.pad_batch", "learner", "pad_batch",
         moves="train_step_p50_ms on long_unroll"),
    # one function, split by call site: the online unroll builds a graph,
    # the target unroll runs under no_grad
    Span("learner.unroll_team.online", "learner", "unroll_team", **_STEP),
    Span("learner.unroll_team.target", "learner", "unroll_team", **_STEP),
    Span("learner.double_q_targets", "learner", "double_q_targets",
         moves="train_steps_per_s on cue_qmix_resume and long_unroll"),
    Span("agents.AgentNet.encode", "agents", "AgentNet.encode", **_STEP),
    Span("agents.AgentNet.q_head", "agents", "AgentNet.q_head", **_STEP),
    Span("agents.TeamModel.step", "agents", "TeamModel.step", **_STEP),
    Span("agents.build_inputs", "agents", "build_inputs", **_STEP),
    Span("comm.CommStack", "comm", "CommStack.forward", **_COMM),
    Span("nn.layers.MultiHeadSelfAttention", "nn.layers", "MultiHeadSelfAttention.forward", **_COMM),
    Span("nn.layers.FeedForward", "nn.layers", "FeedForward.forward", **_COMM),
    Span("nn.layers.LayerNorm", "nn.layers", "LayerNorm.forward", **_COMM),
    Span("nn.optim.Adam.step", "nn.optim", "Adam.step", **_COMM),
    Span("mixers.QmixMixer", "mixers", "QmixMixer.forward", **_QMIX),
    Span("mixers.VdnMixer", "mixers", "VdnMixer.forward",
         moves="train_steps_per_s on cue_mactas",
         active=frozenset({CUE}), idle=frozenset({RESUME, LONG})),
    Span("mixers.mix_values", "mixers", "mix_values",
         moves="train_steps_per_s on every workload"),
    Span("nn.optim.RMSProp.step", "nn.optim", "RMSProp.step", **_STEP),
    Span("nn.optim.clip_grad_norm", "nn.optim", "clip_grad_norm", **_STEP),
    Span("nn.tensor.backward", "nn.tensor", "Tensor.backward", **_STEP),
]

CHECK_SPANS = [
    Span("checks.run_checks", "checks", "run_checks",
         moves="check_s (printed, not bounded) on every workload"),
    Span("nn.gradcheck.max_gradient_error", "nn.gradcheck", "max_gradient_error",
         moves="check_s (printed, not bounded) on every workload"),
]

# Each entry of checks.CHECKS is traced as checks.<name>; only its total
# time is reported, since it runs once per suite.
CHECK_NAMES = [
    "gradient_layers", "gradient_qmix", "gradient_end_to_end",
    "comm_zero_init_passthrough", "comm_permutation_equivariance",
    "comm_param_count_team_size", "vdn_exact_sum", "qmix_monotonicity",
    "deployment_equivalence", "exploration_reductions", "dropout_statistics",
    "oracle_learning_targets",
]

# nn.tensor ops counted per train step; later fused-op changes claim their
# gains as changes in these exact counts.
OPS = [
    "add", "sub", "mul", "scale", "tsum", "relu", "elu", "absolute", "square",
    "concat_cols", "gather_cols", "softmax_rows", "layer_norm_rows", "dropout",
    "affine", "gru_cell", "set_attention", "reshape", "block_row_matmul",
]


def per_layer_metric_names() -> list[tuple[str, str]]:
    """(metric name, unit) for every per-layer metric, in report order."""
    out = []
    for span in SPANS + CHECK_SPANS:
        out += [(f"{span.name}.calls", "count"), (f"{span.name}.self_ms", "ms"),
                (f"{span.name}.total_ms", "ms")]
    out += [(f"checks.{name}.total_ms", "ms") for name in CHECK_NAMES]
    out += [(f"nn.tensor.{op}.calls", "count") for op in OPS]
    out.append(("trace_overhead", "ratio"))
    return out
