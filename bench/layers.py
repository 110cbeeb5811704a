"""Trace targets for each fldp module and the per-layer metrics they yield.

The layers are the modules of ``src/fldp``. Each target is the binding a
caller looks up: ``run_simulation`` reaches ``local_train``, ``clip_tree``,
``add_noise`` and the ParamTree algebra through ``fldp.engine`` globals, and
the model and accountant through module attributes.
"""

from __future__ import annotations

import os

import numpy as np

from tracer import Target, Tracer

PARAM_TREE_OPS = ("axpy", "sub", "scale", "global_norm", "layer_norms", "tree_mean")


def _population_counts(tracer: Tracer, args, kwargs, result) -> None:
    tracer.count("data.clients", result.num_clients)
    tracer.count("data.examples", result.total_examples())


def _cohort_size(tracer: Tracer, args, kwargs, result) -> None:
    tracer.count("engine.cohort_realized", len(result))


def _clipped(tracer: Tracer, args, kwargs, result) -> None:
    tree, spec = args[0], args[1] if len(args) > 1 else kwargs["spec"]
    pairs = list(zip(tree.arrays(), result.arrays()))
    if spec.variant.value == "global":
        units = 1
        scaled = int(not all(np.array_equal(a, b) for a, b in pairs))
    else:  # per-layer variants: count (client, layer) pairs
        units = len(pairs)
        scaled = sum(not np.array_equal(a, b) for a, b in pairs)
    tracer.count("clipping.units", units)
    tracer.count("clipping.scaled", scaled)


def _noise_draws(tracer: Tracer, args, kwargs, result) -> None:
    delta = args[0]
    sigma = args[1] if len(args) > 1 else kwargs["sigma_client"]
    mask = args[2] if len(args) > 2 else kwargs.get("mask")
    if sigma > 0:
        tracer.count("dp.noise_draws", sum(
            a.size for name, a in delta.items()
            if mask is None or mask.applies_to(name)
        ))


def _calibrate_eval(tracer: Tracer, args, kwargs, result) -> None:
    if tracer.inside("accountant.calibrate"):
        tracer.count("accountant.calibrate_evals")


def _rdp_span(noise_multiplier, sampling_rate, alpha) -> str:
    return "accountant.rdp_int" if float(alpha).is_integer() else "accountant.rdp_frac"


def _bytes_written(tracer: Tracer, args, kwargs, result) -> None:
    path = args[1] if len(args) > 1 else kwargs["path"]
    tracer.count("telemetry.bytes_written", os.path.getsize(path))


def targets() -> list[Target]:
    return [
        Target("fldp.config:parse_config_mapping", "config.parse"),
        Target("fldp.config:build_manifest", "config.manifest"),
        Target("fldp.data:generate_population", "data.generate_population",
               hook=_population_counts),
        Target("fldp.engine:run_simulation", "engine.run"),
        Target("fldp.engine:sample_cohort", "engine.sample_cohort", hook=_cohort_size),
        Target("fldp.engine:local_train", "engine.local_train"),
        Target("fldp.models:grad", "models.grad"),
        Target("fldp.models:Batch.take", "models.batch_take"),
        Target("fldp.models:loss", "models.probe_eval"),
        Target("fldp.models:accuracy", "models.probe_eval"),
        *(Target(f"fldp.engine:{op}", "param_tree.ops") for op in PARAM_TREE_OPS),
        Target("fldp.param_tree:ParamTree.__init__", "param_tree.trees_built",
               count_only=True),
        Target("fldp.engine:clip_global", "clipping.minibatch_clip"),
        Target("fldp.engine:clip_tree", "clipping.delta_clip", hook=_clipped),
        Target("fldp.engine:add_noise", "dp.add_noise", hook=_noise_draws),
        Target("fldp.engine:opt_apply", "optimizers.apply"),
        Target("fldp.accountant:epsilon_for", "accountant.epsilon_for",
               hook=_calibrate_eval),
        Target("fldp.accountant:rdp_single_step", _rdp_span),
        Target("fldp.accountant:calibrate_noise", "accountant.calibrate"),
        Target("fldp.telemetry:write_metrics", "telemetry.write", hook=_bytes_written),
    ]


# name -> (unit, better); the order is the order of the result line.
PER_LAYER = {
    "config.parse_s": ("s", "lower"),
    "config.manifest_s": ("s", "lower"),
    "data.generate_population_s": ("s", "lower"),
    "data.clients": ("count", "higher"),
    "data.examples": ("count", "higher"),
    "engine.run_s": ("s", "lower"),
    "engine.self_s": ("s", "lower"),
    "engine.sample_cohort_s": ("s", "lower"),
    "engine.cohort_realized": ("count", "higher"),
    "engine.local_train_s": ("s", "lower"),
    "engine.local_train_calls": ("count", "lower"),
    "models.grad_s": ("s", "lower"),
    "models.grad_calls": ("count", "lower"),
    "models.batch_take_s": ("s", "lower"),
    "models.probe_eval_s": ("s", "lower"),
    "param_tree.ops_s": ("s", "lower"),
    "param_tree.trees_built": ("count", "lower"),
    "clipping.minibatch_clip_s": ("s", "lower"),
    "clipping.delta_clip_s": ("s", "lower"),
    "clipping.clipped_frac": ("ratio", "lower"),
    "dp.add_noise_s": ("s", "lower"),
    "dp.noise_draws": ("count", "lower"),
    "optimizers.apply_s": ("s", "lower"),
    "accountant.epsilon_for_s": ("s", "lower"),
    "accountant.epsilon_for_calls": ("count", "lower"),
    "accountant.rdp_int_s": ("s", "lower"),
    "accountant.rdp_frac_s": ("s", "lower"),
    "accountant.rdp_calls": ("count", "lower"),
    "accountant.calibrate_evals": ("count", "lower"),
    "telemetry.write_s": ("s", "lower"),
    "telemetry.bytes_written": ("bytes", "lower"),
    "trace.overhead_frac": ("ratio", "lower"),
    "check.max_rel_drift": ("ratio", "lower"),
}

# Metrics that count work; they must repeat exactly for a fixed input.
COUNTS = tuple(name for name, (unit, _) in PER_LAYER.items()
               if unit in ("count", "bytes", "ratio") and name.split(".")[0]
               not in ("trace", "check"))


def setup_metrics(tr: Tracer) -> dict[str, float]:
    """Per-layer metrics of one traced set-up."""
    return {
        "config.parse_s": tr.total("config.parse"),
        "data.generate_population_s": tr.total("data.generate_population"),
        "data.clients": tr.counters.get("data.clients", 0),
        "data.examples": tr.counters.get("data.examples", 0),
    }


def unit_metrics(tr: Tracer) -> dict[str, float]:
    """Per-layer metrics of one traced unit of measured work."""
    c = tr.counters
    units = c.get("clipping.units", 0)
    return {
        "config.manifest_s": tr.total("config.manifest"),
        "engine.run_s": tr.total("engine.run"),
        "engine.self_s": tr.self_time("engine.run"),
        "engine.sample_cohort_s": tr.total("engine.sample_cohort"),
        "engine.cohort_realized": c.get("engine.cohort_realized", 0),
        "engine.local_train_s": tr.total("engine.local_train"),
        "engine.local_train_calls": tr.calls("engine.local_train"),
        "models.grad_s": tr.total("models.grad"),
        "models.grad_calls": tr.calls("models.grad"),
        "models.batch_take_s": tr.total("models.batch_take"),
        "models.probe_eval_s": tr.total("models.probe_eval"),
        "param_tree.ops_s": tr.total("param_tree.ops"),
        "param_tree.trees_built": c.get("param_tree.trees_built", 0),
        "clipping.minibatch_clip_s": tr.total("clipping.minibatch_clip"),
        "clipping.delta_clip_s": tr.total("clipping.delta_clip"),
        "clipping.clipped_frac": c.get("clipping.scaled", 0) / units if units else 0.0,
        "dp.add_noise_s": tr.total("dp.add_noise"),
        "dp.noise_draws": c.get("dp.noise_draws", 0),
        "optimizers.apply_s": tr.total("optimizers.apply"),
        "accountant.epsilon_for_s": tr.total("accountant.epsilon_for"),
        "accountant.epsilon_for_calls": tr.calls("accountant.epsilon_for"),
        "accountant.rdp_int_s": tr.total("accountant.rdp_int"),
        "accountant.rdp_frac_s": tr.total("accountant.rdp_frac"),
        "accountant.rdp_calls": tr.calls("accountant.rdp_int", "accountant.rdp_frac"),
        "accountant.calibrate_evals": c.get("accountant.calibrate_evals", 0),
        "telemetry.write_s": tr.total("telemetry.write"),
        "telemetry.bytes_written": c.get("telemetry.bytes_written", 0),
    }
