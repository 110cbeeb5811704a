import copy
import dataclasses
import functools
import json
import math
import os
import re
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest
import yaml
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st
from reference import layer_norms
from simtools import linear_model, make_config, record_rounds, small_population

import fldp
from fldp import accountant, engine, models
from fldp.cli import main
from fldp.clipping import ClipSpec, ClipVariant
from fldp.data import generate_population
from fldp.config import (
    build_manifest,
    parse_config,
    parse_config_mapping,
    resolved_dict,
)
from fldp.engine import run_simulation
from fldp.errors import ConfigError, StructureError
from fldp.optimizers import Schedule
from fldp.param_tree import ParamTree
from fldp.telemetry import (
    SCHEMA_KEYS,
    LayerStats,
    RoundMetrics,
    read_metrics,
    round_to_json_obj,
    summarize,
    summarize_records,
    write_metrics,
)


def minimal_config(**federation_overrides):
    federation = {
        "rounds": 3,
        "seed": 5,
        "cohort": {"mode": "fixed_size", "size": 4},
        "local": {"mode": "steps", "count": 2, "batch_size": 6, "lr": 0.1},
        "clip": {"variant": "uniform", "bound": 0.01},
        "privacy": {"sigma": 1.0e-4, "sigma_kind": "client", "delta": 1.0e-6},
        "central": {"optimizer": "lamb", "schedule": {"base_lr": 0.01}},
    }
    federation.update(federation_overrides)
    return {
        "model": {"kind": "linear_softmax", "input_dim": 4, "num_classes": 3},
        "population": {
            "num_clients": 10,
            "examples_per_client": {"kind": "uniform", "count": 8},
            "seed": 2,
        },
        "federation": federation,
    }


def write_config(tmp_path, cfg, name="config.yaml"):
    path = tmp_path / name
    path.write_text(yaml.safe_dump(cfg))
    return path


# -- parsing -------------------------------------------------------------------


def test_minimal_config_resolves_with_defaults(tmp_path):
    rc = parse_config(write_config(tmp_path, minimal_config()))
    assert rc.model.input_dim == 4
    assert rc.population.label_skew_alpha == 1.0  # documented default
    assert rc.federation.privacy.clip_bound == 0.01  # filled from clip
    assert rc.federation.privacy.population == 10
    assert rc.federation.privacy.num_steps == 3
    assert rc.federation.privacy.cohort_size == 4.0
    assert rc.federation.local.clip_bound == 1.0  # default local clip


# Fields a section does not state under their own name: other sections own
# their values, or the config states them under another key.
NOT_STATED = {
    "population": {"num_classes", "input_dim", "seq_len"},
    "federation": {"num_rounds", "seed_model"},
    "federation.privacy": {"clip_bound", "population", "num_steps",
                           "sampling_rate", "cohort_size"},
}


def omitted_fields(obj, mapping, path):
    """(path, field, value) of each field of obj that the mapping omits."""
    for f in dataclasses.fields(obj):
        if f.name in NOT_STATED.get(path, ()):
            continue
        value = getattr(obj, f.name)
        if f.name not in mapping:
            yield f"{path}.{f.name}", f, value
        elif dataclasses.is_dataclass(value):
            yield from omitted_fields(value, mapping[f.name], f"{path}.{f.name}")


def test_every_omitted_field_resolves_to_its_dataclass_default():
    cfg = minimal_config()
    rc = parse_config_mapping(cfg)
    omitted = [item for section in ("model", "population", "federation")
               for item in omitted_fields(getattr(rc, section), cfg[section], section)]
    assert len(omitted) > 20
    for path, field, value in omitted:
        assert field.default is not dataclasses.MISSING, path
        assert value == field.default, path


def test_omitted_model_kind_and_privacy_take_their_defaults():
    cfg = minimal_config()
    del cfg["model"]["kind"]
    del cfg["federation"]["privacy"]
    rc = parse_config_mapping(cfg)
    assert rc.model.kind == models.ModelKind.LINEAR_SOFTMAX
    privacy = rc.federation.privacy
    assert (privacy.sigma, privacy.sigma_kind, privacy.delta) == (0.0, "avg", 1e-9)


OMITTED_REQUIRED = {
    "local-lr": (("federation", "local", "lr"),
                 "config.federation.local.lr: value is required"),
    "rounds": (("federation", "rounds"), "config.federation.rounds: value is required"),
    "input-dim": (("model", "input_dim"), "config.model.input_dim: value is required"),
    "base-lr": (("federation", "central", "schedule", "base_lr"),
                "config.federation.central.schedule.base_lr: value is required"),
    "clip": (("federation", "clip"), "config.federation.clip: section is required"),
    "cohort": (("federation", "cohort"), "config.federation.cohort: section is required"),
    "schedule": (("federation", "central", "schedule"),
                 "config.federation.central.schedule: section is required"),
}


@pytest.mark.parametrize("case", list(OMITTED_REQUIRED))
def test_omitted_required_key_is_named(case):
    path, message = OMITTED_REQUIRED[case]
    cfg = minimal_config()
    node = cfg
    for key in path[:-1]:
        node = node[key]
    del node[path[-1]]
    with pytest.raises(ConfigError) as info:
        parse_config_mapping(cfg)
    assert str(info.value) == message


# Keys that would restate a value another section owns.
RESTATED_KEYS = [
    ("federation.privacy.clip_bound", 0.01),
    ("federation.privacy.population", 10),
    ("federation.privacy.num_steps", 3),
    ("federation.privacy.cohort_size", 4),
    ("federation.privacy.sampling_rate", 0.4),
    ("population.num_classes", 3),
    ("population.input_dim", 4),
    ("population.seq_len", 1),
]


@pytest.mark.parametrize("path, value", RESTATED_KEYS,
                         ids=[path for path, _ in RESTATED_KEYS])
def test_restated_key_is_unknown(tmp_path, capsys, path, value):
    # Even a value equal to its owner's is an unknown key (exit 2).
    cfg = minimal_config()
    *sections, key = path.split(".")
    node = cfg
    for name in sections:
        node = node[name]
    node[key] = value
    code = main(["simulate", "--config", str(write_config(tmp_path, cfg)),
                 "--out", str(tmp_path / "run")])
    assert code == 2
    assert f"unknown keys: config.{path}" in capsys.readouterr().err


def test_unknown_keys_rejected_with_path():
    cfg = minimal_config()
    cfg["federation"]["cohort"]["sizee"] = 4
    with pytest.raises(ConfigError, match=r"federation.cohort.*sizee"):
        parse_config_mapping(cfg)
    cfg2 = minimal_config()
    cfg2["extra_section"] = {}
    with pytest.raises(ConfigError, match="extra_section"):
        parse_config_mapping(cfg2)
    cfg3 = minimal_config()
    cfg3["population"].update({1: 2, "extra": 3})  # keys that do not sort together
    paths = "config.population.1, config.population.extra"
    with pytest.raises(ConfigError, match=re.escape(paths)):
        parse_config_mapping(cfg3)


def test_round_trip_resolved_config():
    rc = parse_config_mapping(minimal_config())
    resolved = resolved_dict(rc)
    rc2 = parse_config_mapping(resolved)
    assert resolved_dict(rc2) == resolved
    assert rc2.model == rc.model
    assert rc2.population == rc.population


@settings(derandomize=True, database=None, max_examples=150, deadline=None)
@given(data=st.data())
def test_privacy_point_comes_from_its_owners(data):
    n = data.draw(st.integers(1, 10**6), label="num_clients")
    if data.draw(st.booleans(), label="fixed_size"):
        cohort = {"mode": "fixed_size", "size": data.draw(st.integers(1, n))}
    else:
        rate = data.draw(st.floats(1.0 / n, 1.0), label="rate")
        assume(rate * n >= 1.0)
        cohort = {"mode": "bernoulli", "rate": rate}
    bound = data.draw(st.one_of(st.floats(0.0, 1e3), st.just(math.inf)))
    rounds = data.draw(st.integers(0, 5000), label="rounds")
    cfg = minimal_config(rounds=rounds, cohort=cohort,
                         clip={"variant": "global", "bound": bound})
    cfg["population"]["num_clients"] = n
    cfg["federation"]["privacy"]["sigma_kind"] = data.draw(
        st.sampled_from(["client", "avg", "sum"]))
    attention = data.draw(st.booleans(), label="attention")
    if attention:
        cfg["model"] = {"kind": "tiny_attention", "input_dim": 4,
                        "num_classes": 3, "hidden_dim": 4, "seq_len": 3}
    rc = parse_config_mapping(cfg)
    privacy = rc.federation.privacy
    assert (privacy.clip_bound, privacy.population, privacy.num_steps) == (
        bound, n, rounds)
    if cohort["mode"] == "fixed_size":
        assert privacy.cohort_size == cohort["size"]
        assert privacy.sampling_rate == cohort["size"] / n
    else:
        assert privacy.sampling_rate == cohort["rate"]
        assert privacy.cohort_size == cohort["rate"] * n
    assert rc.population.seq_len == (3 if attention else None)
    rc2 = parse_config_mapping(resolved_dict(rc))
    assert rc2.federation == rc.federation
    assert rc2.population == rc.population


def test_infinite_bounds_round_trip():
    cfg = minimal_config()
    cfg["federation"]["clip"] = {"variant": "global", "bound": math.inf}
    cfg["federation"]["local"]["clip_bound"] = math.inf
    rc = parse_config_mapping(cfg)
    assert math.isinf(rc.federation.clip.bound)
    rc2 = parse_config_mapping(resolved_dict(rc))
    assert math.isinf(rc2.federation.local.clip_bound)


def test_per_dimension_noise_level_parses_and_round_trips():
    cfg = minimal_config()
    cfg["population"]["noise_level"] = [0.1, 0.1, 4.0, 4.0]
    rc = parse_config_mapping(cfg)
    assert rc.population.noise_level == (0.1, 0.1, 4.0, 4.0)
    resolved = resolved_dict(rc)
    assert resolved["population"]["noise_level"] == [0.1, 0.1, 4.0, 4.0]
    assert resolved_dict(parse_config_mapping(resolved)) == resolved
    cfg["population"]["noise_level"] = [0.1]  # wrong arity
    with pytest.raises(ConfigError, match="per input dim|one value per"):
        parse_config_mapping(cfg)


def test_seed_model_loaded_from_path(tmp_path):
    model = linear_model(input_dim=4, num_classes=3)
    seed_tree = models.init_params(model, 42)
    (tmp_path / "seed.json").write_text(seed_tree.to_json())
    cfg = minimal_config(seed_model_path="seed.json")
    rc = parse_config(write_config(tmp_path, cfg))
    assert rc.federation.seed_model == seed_tree


def test_manifest_contents():
    rc = parse_config_mapping(minimal_config())
    manifest = build_manifest(rc, workers=3)
    # The privacy point and the seeds are the report's and the config's.
    assert list(manifest) == ["engine_version", "numpy_version", "rng", "workers",
                              "config"]
    assert manifest["rng"] == {"bit_generator": "Philox", "gaussian": "ziggurat",
                               "local": "splitmix64"}
    assert manifest["workers"] == 3
    assert manifest["config"] == resolved_dict(rc)
    assert manifest["config"]["federation"]["rounds"] == 3


# -- telemetry ------------------------------------------------------------------


def run_small(num_rounds=4, **kwargs):
    _, population = small_population()
    model = linear_model()
    cfg = make_config(population, num_rounds=num_rounds, **kwargs)
    return run_simulation(cfg, population, model), model


def test_metrics_schema_and_round_trip(tmp_path):
    result, model = run_small(sigma_client=1e-3, clip_bound=0.05)
    path = tmp_path / "metrics.jsonl"
    write_metrics(result.metrics, path)
    assert SCHEMA_KEYS == (
        "t", "loss", "accuracy", "lr", "cohort_size", "cohort_ids",
        "delta_norm_preclip_mean", "pseudograd_norm_prenoise",
        "pseudograd_norm_postnoise", "per_layer",
    )
    lines = path.read_text().splitlines()
    assert len(lines) == 4
    layer_names = list(model.layout().names)
    for line in lines:
        record = json.loads(line)
        assert list(record) == list(SCHEMA_KEYS)
        assert list(record["per_layer"]) == layer_names
        assert all(list(stats) == ["mean", "std"]
                   for stats in record["per_layer"].values())
    assert [r.cohort_size for r in read_metrics(path)] == [4] * 4


def test_emitted_values_survive_json_exactly(tmp_path):
    result, _ = run_small()
    path = tmp_path / "metrics.jsonl"
    write_metrics(result.metrics, path)
    records = read_metrics(path)
    assert len(records) == len(result.metrics)
    for m, rec in zip(result.metrics, records):
        for field in dataclasses.fields(RoundMetrics):
            assert getattr(rec, field.name) == getattr(m, field.name), field.name


def test_malformed_line_reported_with_line_number(tmp_path):
    result, _ = run_small(num_rounds=2)
    path = tmp_path / "metrics.jsonl"
    write_metrics(result.metrics, path)
    with open(path, "a") as f:
        f.write("{not json\n")
    with pytest.raises(ConfigError, match=":3"):
        read_metrics(path)


def test_summary_of_single_round_equals_that_round(tmp_path):
    result, _ = run_small(num_rounds=1)
    path = tmp_path / "metrics.jsonl"
    write_metrics(result.metrics, path)
    summary = summarize(path)
    m = result.metrics[0]
    assert summary.final_loss == m.loss
    assert summary.best_loss == m.loss
    for name, stats in summary.per_layer.items():
        assert stats["mean"] == pytest.approx(m.per_layer[name]["mean"], rel=1e-12)
        assert stats["std"] == pytest.approx(m.per_layer[name]["std"], rel=1e-9,
                                             abs=1e-15)


def test_two_identical_rounds_pool_to_zero_extra_variance():
    result, _ = run_small(num_rounds=1)
    rec = result.metrics[0]
    summary = summarize_records([rec, rec])
    for name, stats in summary.per_layer.items():
        assert stats["mean"] == pytest.approx(rec.per_layer[name]["mean"],
                                              rel=1e-12)
        assert stats["std"] == pytest.approx(rec.per_layer[name]["std"],
                                             rel=1e-9, abs=1e-15)


def test_summary_matches_scalar_recomputation_from_archives(monkeypatch):
    # Pool per-layer norms over every (client, round) pair by brute force and
    # compare with the streaming summary built from per-round statistics.
    rounds = record_rounds(monkeypatch)
    result, _ = run_small(num_rounds=5, sigma_client=1e-4)
    summary = summarize_records(result.metrics)
    pooled = {}
    layout = result.final_params.layout
    for recorded in rounds:
        for row in recorded.deltas:
            for name, norm in layer_norms(ParamTree(row, layout)).items():
                pooled.setdefault(name, []).append(norm)
    for name, values in pooled.items():
        assert summary.per_layer[name]["mean"] == pytest.approx(
            float(np.mean(values)), rel=1e-9
        )
        assert summary.per_layer[name]["std"] == pytest.approx(
            float(np.std(values)), rel=1e-9, abs=1e-12
        )


def _exact_stats(values):
    """Mean and population variance of floats, as exact Fractions."""
    xs = [Fraction(v) for v in values]
    mean = sum(xs) / len(xs)
    return mean, sum((x - mean) ** 2 for x in xs) / len(xs)


def _sqrt(var):
    """The square root of a Fraction >= 0 as a float, at any exponent."""
    if var == 0:
        return 0.0
    half = (var.numerator.bit_length() - var.denominator.bit_length()) // 2
    return math.sqrt(float(var / Fraction(4) ** half)) * 2.0 ** half


def _records_of(groups):
    """One record per group of raw layer-'w' norms; stats rounded from exact."""
    base = run_small(num_rounds=1)[0].metrics[0]
    records = []
    for values in groups:
        mean, var = _exact_stats(values) if values else (0, 0)
        records.append(dataclasses.replace(
            base, cohort_size=len(values), cohort_ids=list(range(len(values))),
            per_layer={"w": LayerStats(mean=float(mean), std=_sqrt(var))}))
    return records


@st.composite
def norm_groups(draw):
    """Rounds of raw norms near one magnitude, with a spread relative to it."""
    size = draw(st.sampled_from([1e-200, 1e-3, 1.0, 1e3, 1e200]))
    spread = draw(st.sampled_from([0.0, 1e-9, 1e-6, 1e-3, 1.0]))
    unit = st.floats(0.0, 1.0)
    groups = draw(st.lists(st.lists(unit, max_size=8), min_size=1, max_size=6))
    return [[size * (1.0 + spread * u) for u in group] for group in groups]


@settings(derandomize=True, database=None, max_examples=150, deadline=None)
@given(groups=norm_groups())
@example(groups=[[1000.0 - 1e-3, 1000.0 + 1e-3], [1000.0 - 1e-3, 1000.0 + 1e-3]])
@example(groups=[[1e200, 3e200], [2e200]])
def test_summary_matches_an_exact_oracle_on_the_raw_norms(groups):
    # The pooled stats of every round's raw norms, in exact arithmetic. The
    # rounds' means are known only to an ulp, which bounds the std's error
    # by a few ulps of the mean.
    summary = summarize_records(_records_of(groups)).per_layer["w"]
    values = [v for group in groups for v in group]
    if not values:
        assert summary == LayerStats(mean=0.0, std=0.0)
        return
    mean, var = _exact_stats(values)
    eps = np.finfo(float).eps
    assert summary["mean"] == pytest.approx(float(mean), rel=4 * eps, abs=0.0)
    assert summary["std"] == pytest.approx(_sqrt(var), rel=1e-12,
                                           abs=16 * eps * float(mean))


def test_cli_summarize_huge_norms(tmp_path, capsys):
    # Squaring a std or mean of 1e200 overflowed: exit 3, "Numerical result
    # out of range".
    records = [round_to_json_obj(r) for r in _records_of([[1e200, 3e200], [2e200]])]
    path = tmp_path / "metrics.jsonl"
    path.write_text("".join(json.dumps(rec) + "\n" for rec in records))
    assert main(["summarize", str(path)]) == 0
    stats = json.loads(capsys.readouterr().out)["per_layer"]["w"]
    assert stats["mean"] == pytest.approx(2e200, rel=1e-15)
    assert stats["std"] == pytest.approx(math.sqrt(2 / 3) * 1e200, rel=1e-15)


# -- CLI -------------------------------------------------------------------------


def test_demo_config_parses_and_runs(tmp_path):
    demo = Path(__file__).resolve().parent.parent / "configs" / "demo.yaml"
    rc = parse_config(demo)
    assert rc.federation.num_rounds == 60
    # Shortened run: keep the demo honest without paying for 60 rounds.
    trimmed = resolved_dict(rc)
    trimmed["federation"]["rounds"] = 3
    rc_small = parse_config_mapping(trimmed)
    population = generate_population(rc_small.population)
    result = run_simulation(rc_small.federation, population, rc_small.model)
    assert len(result.metrics) == 3
    assert result.privacy_report["epsilon"] > 0


def test_cli_simulate_writes_all_outputs(tmp_path, capsys):
    config_path = write_config(tmp_path, minimal_config())
    out_dir = tmp_path / "run"
    code = main(["simulate", "--config", str(config_path), "--out", str(out_dir)])
    assert code == 0
    for name in ("metrics.jsonl", "privacy_report.json", "final_params.json",
                 "run_manifest.json"):
        assert (out_dir / name).exists()
    report = json.loads((out_dir / "privacy_report.json").read_text())
    assert report["dp_valid"] is True
    assert report["epsilon"] > 0
    manifest = json.loads((out_dir / "run_manifest.json").read_text())
    assert manifest["config"]["federation"]["rounds"] == 3


def test_cli_rerun_reproduces_metrics_bitwise(tmp_path):
    config_path = write_config(tmp_path, minimal_config())
    out1, out2 = tmp_path / "run1", tmp_path / "run2"
    assert main(["simulate", "--config", str(config_path), "--out", str(out1)]) == 0
    # Second run re-parses the emitted resolved config from the manifest.
    manifest = json.loads((out1 / "run_manifest.json").read_text())
    config2 = tmp_path / "resolved.yaml"
    config2.write_text(yaml.safe_dump(manifest["config"]))
    assert main(["simulate", "--config", str(config2), "--out", str(out2)]) == 0
    assert (out1 / "metrics.jsonl").read_bytes() == (out2 / "metrics.jsonl").read_bytes()
    assert (out1 / "final_params.json").read_bytes() == (
        out2 / "final_params.json"
    ).read_bytes()


def test_cli_config_error_exit_code(tmp_path, capsys):
    cfg = minimal_config()
    cfg["federation"]["privacy"]["clip_bound"] = 123.0
    config_path = write_config(tmp_path, cfg)
    code = main(["simulate", "--config", str(config_path), "--out",
                 str(tmp_path / "x")])
    assert code == 2
    assert "config error" in capsys.readouterr().err


def test_cli_numerics_error_exit_code(tmp_path, capsys):
    cfg = minimal_config()
    # A learning rate at the float ceiling overflows the parameters to
    # +-inf in one step; the run must abort with the numerical exit code.
    cfg["federation"]["central"] = {
        "optimizer": "sgd",
        "schedule": {"base_lr": 1.0e308},
    }
    cfg["federation"]["local"]["lr"] = 1.0e3
    cfg["federation"]["clip"] = {"variant": "global", "bound": math.inf}
    cfg["federation"]["local"]["clip_bound"] = math.inf
    config_path = write_config(tmp_path, cfg)
    with np.errstate(all="ignore"):
        code = main(["simulate", "--config", str(config_path), "--out",
                     str(tmp_path / "x")])
    assert code == 3
    assert "numerical error" in capsys.readouterr().err


def test_nan_noise_level_rejected_before_any_round(tmp_path, capsys, monkeypatch):
    # `sigma_client > 0` is False for NaN, so an accepted `sigma: .nan`
    # would train every round without noise.
    demo = Path(__file__).resolve().parent.parent / "configs" / "demo.yaml"
    cfg = yaml.safe_load(demo.read_text())
    cfg["federation"]["privacy"]["sigma"] = math.nan
    rounds = record_rounds(monkeypatch)
    out_dir = tmp_path / "run"
    code = main(["simulate", "--config", str(write_config(tmp_path, cfg)),
                 "--out", str(out_dir)])
    assert code == 2
    assert "federation.privacy.sigma: expected a number, got nan" in (
        capsys.readouterr().err
    )
    assert rounds == []
    assert not (out_dir / "metrics.jsonl").exists()


def test_noise_multiplier_too_small_to_account_trains_no_round(
        tmp_path, capsys, monkeypatch):
    # sigma 1e-170 gives z ~ 4e-168, whose square underflows to 0; the run
    # trained every round before the accountant failed on it.
    cfg = demo_config()
    cfg["federation"]["privacy"]["sigma"] = 1.0e-170
    rounds = record_rounds(monkeypatch)
    out_dir = tmp_path / "run"
    code = main(["simulate", "--config", str(write_config(tmp_path, cfg)),
                 "--out", str(out_dir)])
    assert code == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "config error: noise multiplier" in captured.err
    assert rounds == []
    assert list(out_dir.iterdir()) == []


def demo_config():
    demo = Path(__file__).resolve().parent.parent / "configs" / "demo.yaml"
    return yaml.safe_load(demo.read_text())


# Each value trained and then failed with exit 3 (seq_len, and hidden_dim on
# linear_softmax, ran to exit 0); each is rejected when the config is parsed.
UNTRAINABLE_VALUES = {
    "layernorm-epsilon-negative": (
        ("model", "layernorm_epsilon"), -1,
        "layernorm_epsilon must be finite and > 0, got -1.0"),
    "local-lr-inf": (("federation", "local", "lr"), math.inf,
                     "local lr must be finite and >= 0, got inf"),
    "fedprox-mu-inf": (("federation", "fedprox_mu"), math.inf,
                       "fedprox_mu must be finite and >= 0, got inf"),
    "base-lr-inf": (("federation", "central", "schedule", "base_lr"), math.inf,
                    "schedule base_lr must be finite and > 0, got inf"),
    "seq-len-without-attention": (
        ("model", "seq_len"), 5,
        "seq_len is for tiny_attention only, got 5"),
    "hidden-dim-on-linear-softmax": (
        ("model",), {"kind": "linear_softmax", "input_dim": 8, "num_classes": 4,
                     "hidden_dim": -4},
        "hidden_dim is not for linear_softmax, got -4"),
    "layernorm-epsilon-on-linear-softmax": (
        ("model",), {"kind": "linear_softmax", "input_dim": 8, "num_classes": 4,
                     "layernorm_epsilon": 0.5},
        "layernorm_epsilon is not for linear_softmax, got 0.5"),
}


@pytest.mark.parametrize("case", list(UNTRAINABLE_VALUES))
def test_untrainable_value_is_config_error_before_any_round(
        case, tmp_path, capsys, monkeypatch):
    (*path, key), value, message = UNTRAINABLE_VALUES[case]
    cfg = demo_config()
    section = cfg
    for name in path:
        section = section[name]
    section[key] = value
    rounds = record_rounds(monkeypatch)
    out_dir = tmp_path / "run"
    code = main(["simulate", "--config", str(write_config(tmp_path, cfg)),
                 "--out", str(out_dir)])
    assert code == 2
    assert message in capsys.readouterr().err
    assert rounds == []
    assert not (out_dir / "metrics.jsonl").exists()


def test_nan_training_values_rejected_by_library_configs():
    # The parser rejects NaN first; the dataclasses reject it on their own.
    nan = math.nan
    with pytest.raises(StructureError, match="layernorm_epsilon"):
        models.ModelSpec(models.ModelKind.MLP_LAYERNORM, input_dim=2,
                         num_classes=2, hidden_dim=2, layernorm_epsilon=nan)
    with pytest.raises(ConfigError, match="local lr"):
        engine.LocalConfig(lr=nan)
    with pytest.raises(ConfigError, match="base_lr"):
        Schedule(nan)
    _, pop = small_population()
    with pytest.raises(ConfigError, match="fedprox_mu"):
        make_config(pop, fedprox_mu=nan)
    # The clip checks: a NaN local clip trained round 1, then failed.
    with pytest.raises(ConfigError, match="local clip_bound"):
        make_config(pop, local_clip=nan)
    with pytest.raises(ConfigError, match="clip bound"):
        ClipSpec(nan)
    with pytest.raises(ConfigError, match="clip weights"):
        ClipSpec(1.0, ClipVariant.PER_LAYER_WEIGHTED, {"w": 1.0, "b": nan})


DEMO_LAYERS = {"w1": 1, "b1": 1, "ln": 1, "w2": 1, "b2": 1}


@pytest.mark.parametrize("weights, message", [
    ({**DEMO_LAYERS, "typo": 7}, "clip weights name unknown layers ['typo']"),
    ({k: v for k, v in DEMO_LAYERS.items() if k != "ln"},
     "weighted clipping is missing weights for ['ln']"),
    # Either weight on the 8-entry b1 made its bound NaN: round 1 trained
    # and the run exited 3 on a non-finite probe loss.
    ({**DEMO_LAYERS, "b1": math.inf}, "clip weights must be finite and positive"),
    ({**DEMO_LAYERS, "b1": 1e308}, "clip weights times layer sizes overflow"),
], ids=["unknown", "missing", "inf", "overflowing"])
def test_clip_weights_checked_against_layout_before_round_one(
        weights, message, tmp_path, capsys, monkeypatch):
    cfg = demo_config()
    cfg["federation"]["clip"] = {"variant": "weighted", "bound": 0.01,
                                 "weights": weights}
    rounds = record_rounds(monkeypatch)
    with pytest.raises(ConfigError, match=re.escape(message)):
        rc = parse_config_mapping(cfg)
        run_simulation(rc.federation, generate_population(rc.population), rc.model)
    out_dir = tmp_path / "run"
    code = main(["simulate", "--config", str(write_config(tmp_path, cfg)),
                 "--out", str(out_dir)])
    assert code == 2
    assert message in capsys.readouterr().err
    assert rounds == []
    assert not (out_dir / "metrics.jsonl").exists()


def test_unknown_noise_mask_layer_is_config_error_before_round_one(
        tmp_path, capsys, monkeypatch):
    cfg = demo_config()
    cfg["federation"]["noise_mask"] = ["w1", "typo"]
    rounds = record_rounds(monkeypatch)
    out_dir = tmp_path / "run"
    code = main(["simulate", "--config", str(write_config(tmp_path, cfg)),
                 "--out", str(out_dir)])
    assert code == 2
    assert "noise mask names unknown layers ['typo']" in capsys.readouterr().err
    assert rounds == []
    assert not (out_dir / "metrics.jsonl").exists()


def test_unknown_noise_mask_layer_raises_before_any_training(monkeypatch):
    cfg = demo_config()
    cfg["federation"]["noise_mask"] = ["w1", "typo"]
    rc = parse_config_mapping(cfg)
    population = generate_population(rc.population)

    def train_cohort(*args):
        raise AssertionError("a round was trained")

    monkeypatch.setattr(engine, "train_cohort", train_cohort)
    with pytest.raises(StructureError, match=re.escape("unknown layers ['typo']")):
        run_simulation(rc.federation, population, rc.model)


def test_noise_mask_round_trips_in_the_order_given():
    cfg = minimal_config(noise_mask=["w2", "b1"])
    cfg["model"] = {"kind": "mlp_layernorm", "input_dim": 4, "num_classes": 3,
                    "hidden_dim": 5}
    rc = parse_config_mapping(cfg)
    assert rc.federation.noise_mask == ("w2", "b1")
    resolved = resolved_dict(rc)
    assert resolved["federation"]["noise_mask"] == ["w2", "b1"]
    assert parse_config_mapping(resolved).federation == rc.federation


@pytest.mark.parametrize("key, value", [
    ("beta1", 1.0), ("beta1", -0.1), ("beta2", 1.0), ("beta2", 1.5),
    ("epsilon", -1.0), ("epsilon", math.inf), ("momentum", -0.5),
    ("weight_decay", -1e-4), ("weight_decay", math.inf), ("trust_clip", -1.0),
])
def test_cli_out_of_range_optimizer_hyper_is_config_error(key, value, tmp_path,
                                                          capsys):
    # beta = 1 would divide by zero in the bias correction and surface as a
    # non-finite probe loss; a negative epsilon or trust_clip ran silently.
    cfg = demo_config()
    cfg["federation"]["central"]["hyper"] = {key: value}
    code = main(["simulate", "--config", str(write_config(tmp_path, cfg)),
                 "--out", str(tmp_path / "run")])
    assert code == 2
    assert f"optimizer {key} must be" in capsys.readouterr().err


def test_blas_thread_count_leaves_every_artifact_unchanged(tmp_path):
    # Each run is a fresh interpreter, so OpenBLAS reads its thread count at
    # start-up; the two runs go one after the other.
    cfg = demo_config()
    cfg["federation"]["rounds"] = 4
    config_path = write_config(tmp_path, cfg)
    src = Path(fldp.__file__).resolve().parent.parent
    outs = []
    for threads in ("1", "2"):
        out = tmp_path / f"threads_{threads}"
        env = dict(os.environ, PYTHONPATH=str(src), OPENBLAS_NUM_THREADS=threads)
        subprocess.run(
            [sys.executable, "-m", "fldp.cli", "simulate",
             "--config", str(config_path), "--out", str(out)],
            env=env, check=True, capture_output=True, timeout=300,
        )
        outs.append(out)
    names = sorted(p.name for p in outs[0].iterdir())
    assert names == ["final_params.json", "metrics.jsonl", "privacy_report.json",
                     "run_manifest.json"]
    for name in names:
        assert (outs[1] / name).read_bytes() == (outs[0] / name).read_bytes(), name


def readme_section(heading):
    readme = (Path(__file__).resolve().parent.parent / "README.md").read_text()
    return readme.split(f"## {heading}\n", 1)[1].split("\n## ", 1)[0]


def test_readme_library_use_block_runs(monkeypatch):
    block = readme_section("Library use").split("```python\n", 1)[1].split("```", 1)[0]
    monkeypatch.chdir(Path(__file__).resolve().parent.parent)
    exec(compile(block, "README.md (Library use)", "exec"), {})


def config_format_keys():
    """The backticked words of the README's "Config format" section."""
    return set(re.findall(r"`([^`]+)`", readme_section("Config format")))


def mapping_keys(mapping):
    for key, value in mapping.items():
        yield key
        if isinstance(value, dict):
            yield from mapping_keys(value)


def variant_config():
    cfg = demo_config()
    cfg["model"] = {"kind": "tiny_attention", "input_dim": 8, "num_classes": 4,
                    "hidden_dim": 16, "seq_len": 8}
    cfg["population"]["examples_per_client"] = {"kind": "power", "exponent": 1.5,
                                                "scale": 4.0, "cap": 64}
    cfg["federation"]["cohort"] = {"mode": "bernoulli", "rate": 0.25}
    return cfg


@pytest.mark.parametrize("make", [demo_config, variant_config],
                         ids=["demo", "attention_power_bernoulli"])
def test_readme_documents_every_resolved_key(make):
    emitted = set(mapping_keys(resolved_dict(parse_config_mapping(make()))))
    assert emitted - config_format_keys() == set()


# -- null keys --------------------------------------------------------------------

OMIT = object()  # edited(): delete the key instead of setting it


def key_paths(mapping, prefix=()):
    """The path of each key of a nested mapping, a section before its keys."""
    for key, value in mapping.items():
        yield prefix + (key,)
        if isinstance(value, dict):
            yield from key_paths(value, prefix + (key,))


def edited(cfg, paths, value):
    """A copy of cfg with each key path set to value (deleted if OMIT).

    A path inside a section already edited is left as it is.
    """
    out = copy.deepcopy(cfg)
    for path in sorted(paths, key=len):
        node = out
        for key in path[:-1]:
            node = node.get(key)
            if not isinstance(node, dict):
                break
        else:
            if value is OMIT:
                del node[path[-1]]
            else:
                node[path[-1]] = value
    return out


def parse_outcome(cfg):
    """The resolved dict of cfg, or the message of its config error."""
    try:
        return resolved_dict(parse_config_mapping(cfg))
    except (ConfigError, StructureError) as exc:
        return str(exc)


@functools.cache
def null_test_keys(make):
    """The fully resolved config of make(), its optional and required keys.

    A key is required if omitting it alone is a "... is required" error.
    """
    resolved = resolved_dict(parse_config_mapping(make()))
    optional, required = [], []
    for path in key_paths(resolved):
        outcome = parse_outcome(edited(resolved, [path], OMIT))
        is_required = isinstance(outcome, str) and outcome.endswith(" is required")
        (required if is_required else optional).append(path)
    return resolved, optional, required


@settings(derandomize=True, database=None, max_examples=150, deadline=None)
@given(data=st.data())
def test_null_key_reads_as_omitted(data):
    make = data.draw(st.sampled_from([demo_config, variant_config]), label="config")
    resolved, optional, required = null_test_keys(make)
    paths = data.draw(st.lists(st.sampled_from(optional), unique=True, max_size=8),
                      label="null keys")
    assert parse_outcome(edited(resolved, paths, None)) == parse_outcome(
        edited(resolved, paths, OMIT))
    path = data.draw(st.sampled_from(required), label="null required key")
    what = "section" if isinstance(functools.reduce(dict.get, path, resolved),
                                   dict) else "value"
    assert parse_outcome(edited(resolved, [path], None)) == (
        f"config.{'.'.join(path)}: {what} is required")


def test_cli_null_batch_size_takes_its_default(tmp_path):
    # A null batch size reached the engine as None: exit 1, a TypeError.
    cfg = demo_config()
    cfg["federation"]["rounds"] = 2
    cfg["federation"]["local"]["batch_size"] = None
    assert simulate_code(tmp_path, cfg) == 0
    manifest = json.loads((tmp_path / "run" / "run_manifest.json").read_text())
    assert manifest["config"]["federation"]["local"]["batch_size"] == 8


def test_sections_are_read_before_unknown_top_level_keys():
    cfg = minimal_config()
    cfg["extra_section"] = {}
    cfg["model"]["input_dim"] = "four"
    with pytest.raises(ConfigError) as info:
        parse_config_mapping(cfg)
    assert str(info.value) == "config.model.input_dim: expected an integer"
    cfg["model"]["input_dim"] = 4
    with pytest.raises(ConfigError) as info:
        parse_config_mapping(cfg)
    assert str(info.value) == "unknown keys: config.extra_section"


@pytest.mark.parametrize("section", ["federation", "population"])
def test_cli_negative_seed_is_config_error(section, tmp_path, capsys):
    # A seed is stream entropy; numpy's SeedSequence rejects negative ones.
    cfg = demo_config()
    cfg[section]["seed"] = -1
    code = main(["simulate", "--config", str(write_config(tmp_path, cfg)),
                 "--out", str(tmp_path / "run")])
    assert code == 2
    assert f"{section} seed must be >= 0, got -1" in capsys.readouterr().err


def test_negative_seed_rejected_by_library_configs():
    with pytest.raises(ConfigError, match="population seed"):
        small_population(seed=-7)
    _, pop = small_population()
    with pytest.raises(ConfigError, match="federation seed"):
        make_config(pop, seed=-1)


def test_float_key_beyond_float_range_is_config_error(tmp_path, capsys):
    cfg = demo_config()
    cfg["federation"]["local"]["lr"] = 10**400
    with pytest.raises(ConfigError, match=r"config\.federation\.local\.lr: "):
        parse_config_mapping(cfg)
    code = main(["simulate", "--config", str(write_config(tmp_path, cfg)),
                 "--out", str(tmp_path / "run")])
    assert code == 2
    assert "config.federation.local.lr: integer beyond the float range" in (
        capsys.readouterr().err
    )


def test_cli_negative_log_sigma_is_config_error(tmp_path, capsys):
    # numpy's lognormal raises a bare ValueError for sigma < 0.
    cfg = demo_config()
    cfg["population"]["examples_per_client"]["log_sigma"] = -1.0
    code = main(["simulate", "--config", str(write_config(tmp_path, cfg)),
                 "--out", str(tmp_path / "run")])
    assert code == 2
    assert "lognormal log_sigma must be >= 0, got -1.0" in capsys.readouterr().err


def simulate_code(tmp_path, cfg):
    return main(["simulate", "--config", str(write_config(tmp_path, cfg)),
                 "--out", str(tmp_path / "run")])


def test_cli_infinite_sigma_is_config_error_before_any_round(tmp_path, capsys):
    cfg = demo_config()
    cfg["federation"]["privacy"]["sigma"] = math.inf
    assert simulate_code(tmp_path, cfg) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "sigma inf as sum noise for cohort size 16.0 is not finite" in captured.err
    assert not (tmp_path / "run" / "metrics.jsonl").exists()


def test_cli_overflowing_noise_multiplier_is_config_error_before_any_round(
        tmp_path, capsys):
    cfg = demo_config()
    cfg["federation"]["clip"]["bound"] = 1e-10
    cfg["federation"]["privacy"]["sigma"] = 1e300
    assert simulate_code(tmp_path, cfg) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "noise multiplier sigma_avg / sensitivity" in captured.err
    assert not (tmp_path / "run" / "metrics.jsonl").exists()


# A non-finite population parameter is a config error before any client is
# generated, not a numpy traceback or a failure at round 1.
NON_FINITE_POPULATION = {
    "label-skew-alpha-inf": ("label_skew_alpha", math.inf,
                             "label_skew_alpha must be positive and finite, got inf"),
    "label-skew-alpha-overflows": ("label_skew_alpha", 1e308,
                                   "label_skew_alpha must be positive and finite"),
    "class-priors-inf": ("class_priors", [math.inf, 1, 1],
                         "class_priors must be positive and finite"),
    "class-priors-total-overflows": ("class_priors", [1e308, 1e308, 1],
                                     "class_priors must be positive and finite"),
    "mean-separation-inf": ("mean_separation", math.inf,
                            "mean_separation must be finite, got inf"),
    "input-scale-inf": ("input_scale", math.inf, "input_scale must be finite, got inf"),
    "noise-level-inf": ("noise_level", math.inf, "noise_level must be finite, got inf"),
    "noise-level-entry-inf": ("noise_level", [0.5, math.inf, 0.5, 0.5],
                              "noise_level must be finite, got (0.5, inf, 0.5, 0.5)"),
}


@pytest.mark.parametrize("case", list(NON_FINITE_POPULATION))
def test_cli_non_finite_population_parameter_is_config_error(case, tmp_path, capsys):
    key, value, message = NON_FINITE_POPULATION[case]
    cfg = minimal_config()
    cfg["population"][key] = value
    assert simulate_code(tmp_path, cfg) == 2
    assert message in capsys.readouterr().err
    assert not (tmp_path / "run" / "run_manifest.json").exists()


@pytest.mark.parametrize("value, shown", [
    (-0.6, "-0.6"), ([-0.6] * 4, "(-0.6, -0.6, -0.6, -0.6)"),
    ([0.5, 0.5, -0.6, 0.5], "(0.5, 0.5, -0.6, 0.5)"),
], ids=["scalar", "per-dimension", "one-entry"])
def test_cli_negative_noise_level_is_config_error(value, shown, tmp_path, capsys):
    # A negative standard deviation used to parse and train.
    cfg = minimal_config()
    cfg["population"]["noise_level"] = value
    assert simulate_code(tmp_path, cfg) == 2
    assert f"noise_level must be >= 0, got {shown}" in capsys.readouterr().err
    assert not (tmp_path / "run" / "run_manifest.json").exists()


def test_cli_nan_class_distribution_is_numerics_error(tmp_path, capsys, monkeypatch):
    class NanGamma(np.random.Generator):
        def standard_gamma(self, shape, size=None, dtype=np.float64, out=None):
            out = super().standard_gamma(shape, size, dtype, out)
            out[...] = np.nan
            return out

    monkeypatch.setattr(np.random, "Generator", NanGamma)
    assert simulate_code(tmp_path, minimal_config()) == 3
    assert "numerical error: client 0: Dirichlet class distribution" in (
        capsys.readouterr().err)


# (section, key) set to a wrongly typed value, and the error the CLI prints.
WRONG_TYPES = {
    "noise-level-entry-string": (
        ("population", "noise_level"), [0.5, "abc", 0.5, 0.5],
        "config.population.noise_level.1: expected a number, got 'abc'"),
    "noise-level-entry-bool": (
        ("population", "noise_level"), [True, 0.5, 0.5, 0.5],
        "config.population.noise_level.0: expected a number, got True"),
    "class-priors-entry-string": (
        ("population", "class_priors"), ["a", 1, 1],
        "config.population.class_priors.0: expected a number, got 'a'"),
    "class-priors-scalar": (
        ("population", "class_priors"), 5,
        "config.population.class_priors: expected a list, got 5"),
    "clip-weights-list": (
        ("federation", "clip"),
        {"variant": "weighted", "bound": 0.01, "weights": [1, 2]},
        "config.federation.clip.weights: expected a mapping"),
    "clip-weight-string": (
        ("federation", "clip"),
        {"variant": "weighted", "bound": 0.01, "weights": {"w": "a", "b": 1}},
        "config.federation.clip.weights.w: expected a number, got 'a'"),
    "noise-mask-scalar": (
        ("federation", "noise_mask"), 5,
        "config.federation.noise_mask: expected a list, got 5"),
    "noise-mask-string": (
        ("federation", "noise_mask"), "w1",
        "config.federation.noise_mask: expected a list, got 'w1'"),
    # Split into characters, "wb" would name both linear_softmax layers.
    "noise-mask-string-of-layer-letters": (
        ("federation", "noise_mask"), "wb",
        "config.federation.noise_mask: expected a list, got 'wb'"),
    "noise-mask-entry-number": (
        ("federation", "noise_mask"), ["w", 5],
        "config.federation.noise_mask.1: expected a string"),
    # Only a key reads as omitted when null; an entry is a value.
    "noise-level-entry-null": (
        ("population", "noise_level"), [0.5, None],
        "config.population.noise_level.1: expected a number, got None"),
    "clip-weight-null": (
        ("federation", "clip"),
        {"variant": "weighted", "bound": 0.01, "weights": {"w": 1.0, "b": None}},
        "config.federation.clip.weights.b: expected a number, got None"),
    "noise-mask-entry-null": (
        ("federation", "noise_mask"), ["w", None],
        "config.federation.noise_mask.1: expected a string"),
    "privacy-empty-list": (("federation", "privacy"), [],
                           "config.federation.privacy: expected a mapping"),
    "privacy-zero": (("federation", "privacy"), 0,
                     "config.federation.privacy: expected a mapping"),
    "privacy-empty-string": (("federation", "privacy"), "",
                             "config.federation.privacy: expected a mapping"),
    "privacy-false": (("federation", "privacy"), False,
                      "config.federation.privacy: expected a mapping"),
}


@pytest.mark.parametrize("case", list(WRONG_TYPES))
def test_cli_wrongly_typed_list_or_mapping_is_config_error(case, tmp_path, capsys):
    (section, key), value, message = WRONG_TYPES[case]
    cfg = minimal_config()
    cfg[section][key] = value
    assert simulate_code(tmp_path, cfg) == 2
    assert message in capsys.readouterr().err


def linear_seed_json(first_value: str) -> str:
    """A seed model of minimal_config's model whose first value is this JSON."""
    w = ", ".join([first_value] + ["0.0"] * 11)
    return (f'{{"layers": [{{"name": "w", "values": [{w}]}}, '
            f'{{"name": "b", "values": [0.0, 0.0, 0.0]}}]}}')


BAD_SEED_MODELS = {
    "not-json": "{layers: [",
    "layers-not-a-list": '{"layers": 5}',
    "layer-without-name": '{"layers": [{"values": [0.0, 1.0]}]}',
    "values-not-numbers": '{"layers": [{"name": "w", "values": "abc"}]}',
    "value-nan": linear_seed_json("NaN"),
    "int-beyond-float-range": linear_seed_json(str(10**400)),
}


@pytest.mark.parametrize("case", list(BAD_SEED_MODELS))
def test_cli_malformed_seed_model_is_config_error(case, tmp_path, capsys):
    seed_path = tmp_path / "seed.json"
    seed_path.write_text(BAD_SEED_MODELS[case])
    cfg = minimal_config(seed_model_path="seed.json")
    assert simulate_code(tmp_path, cfg) == 2
    assert f"config error: seed model {seed_path}: " in capsys.readouterr().err


# Seed models whose layout differs from the model's: w[12], b[3].
MISMATCHED_SEED_LAYERS = {
    "renamed": ([("w", 12), ("bias", 3)], "layer 1 name mismatch: 'b' vs 'bias'"),
    "missing": ([("w", 12)], "layer count mismatch: 2 vs 1 (first unmatched layer 'b')"),
    "resized": ([("w", 12), ("b", 4)], "layer 'b' dim mismatch: 3 vs 4"),
}


@pytest.mark.parametrize("case", list(MISMATCHED_SEED_LAYERS))
def test_seed_model_of_another_layout_is_rejected(case, tmp_path, capsys):
    layers, message = MISMATCHED_SEED_LAYERS[case]
    seed_model = ParamTree((name, np.zeros(size)) for name, size in layers)
    _, population = small_population()
    cfg = make_config(population, num_rounds=1, seed_model=seed_model)
    with pytest.raises(StructureError, match=re.escape(message)):
        run_simulation(cfg, population, linear_model())
    (tmp_path / "seed.json").write_text(seed_model.to_json())
    assert simulate_code(tmp_path, minimal_config(seed_model_path="seed.json")) == 2
    assert message in capsys.readouterr().err


@pytest.mark.parametrize("cohort, message", [
    ({"mode": "bernoulli", "rate": 0.25, "size": 16},
     "bernoulli cohort needs rate in (0, 1] and no size"),
    ({"mode": "fixed_size", "size": 4, "rate": 0.25},
     "fixed_size cohort needs size >= 1 and no rate"),
], ids=["bernoulli-with-size", "fixed-size-with-rate"])
def test_cli_cohort_field_of_the_other_mode_is_config_error(
        cohort, message, tmp_path, capsys):
    assert simulate_code(tmp_path, minimal_config(cohort=cohort)) == 2
    assert message in capsys.readouterr().err
    assert not (tmp_path / "run" / "run_manifest.json").exists()


def test_cli_accountant_series_limit_is_numerics_error(capsys):
    # An integer order of 100000 needs more series terms than the limit.
    code = main(["accountant", "-z", "1", "-q", "0.1", "-T", "10",
                 "--orders", "2,100000"])
    assert code == 3
    assert "numerical error" in capsys.readouterr().err


def test_cli_io_error_exit_code(tmp_path, capsys):
    code = main(["simulate", "--config", str(tmp_path / "missing.yaml"),
                 "--out", str(tmp_path / "x")])
    assert code == 4
    assert "io error" in capsys.readouterr().err


def test_cli_accountant_from_noise_multiplier(tmp_path, capsys):
    code = main([
        "accountant", "-z", "2.048", "-q", "0.0295", "-T", "2006",
        "--delta", "1e-9",
    ])
    assert code == 0
    output = json.loads(capsys.readouterr().out)
    assert output["epsilon"] == pytest.approx(4.5, rel=0.05)
    assert output["best_order"] == pytest.approx(9.0, abs=1.0)


def test_cli_accountant_prints_derivation_chain(tmp_path, capsys):
    code = main([
        "accountant", "--sigma", "3e-8", "--clip-bound", "0.01",
        "--population", "34753", "--cohort-size", "1024",
        "-T", "2006", "--delta", "1e-9",
    ])
    assert code == 0
    captured = capsys.readouterr()
    assert "sigma_avg" in captured.err
    assert "sensitivity S" in captured.err
    assert "noise multiplier z" in captured.err
    output = json.loads(captured.out)
    assert output["noise_multiplier"] == pytest.approx(0.003072, rel=1e-12)


@pytest.mark.parametrize(
    "args", [["-z", "1", "--orders", "2,inf"], ["-z", "1", "--orders", "nan"],
             ["-z", "nan"], ["-z", "inf"]],
)
def test_cli_accountant_non_finite_input_is_config_error(args, capsys):
    code = main(["accountant", "-q", "0.1", "-T", "10", *args])
    assert code == 2
    assert "config error" in capsys.readouterr().err


@pytest.mark.parametrize("steps", [0, 10])
def test_cli_accountant_agrees_with_epsilon_for(steps, capsys, monkeypatch):
    # With no step released, epsilon is 0, not the curve's value at T = 0.
    series = accountant._rdp
    calls = []

    def counted(*args):
        calls.append(args)
        return series(*args)

    monkeypatch.setattr(accountant, "_rdp", counted)
    assert main(["accountant", "-z", "1", "-q", "0.1", "-T", str(steps)]) == 0
    assert len(calls) == 1  # the curve and epsilon come from one series
    output = json.loads(capsys.readouterr().out)
    assert (output["epsilon"], output["best_order"]) == accountant.epsilon_for(
        1.0, 0.1, steps, 1e-9)


@pytest.mark.parametrize("args", [
    ["-q", "5", "-T", "-3", "--delta", "7"],
    ["-q", "0.1", "-T", "10", "--orders", "0.5,nan"],
    ["-q", "5", "-T", "10"],
    ["-q", "0.1", "-T", "-3"],
    ["-q", "0.1", "-T", "10", "--delta", "7"],
    ["-q", "0.1", "-T", "10", "--orders", "0.5,2"],
])
def test_cli_accountant_zero_noise_checks_its_inputs(args, capsys):
    assert main(["accountant", "-z", "0", *args]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "config error" in captured.err


def test_cli_accountant_zero_noise_output(capsys):
    assert main(["accountant", "-z", "0", "-q", "0.1", "-T", "10"]) == 0
    assert capsys.readouterr().out == json.dumps({
        "epsilon": "inf", "best_order": None,
        "curve": {"orders": list(accountant.DEFAULT_ORDERS), "steps": 10},
    }, indent=2) + "\n"
    # No step releases nothing, as epsilon_for and a 0-round run report.
    assert main(["accountant", "-z", "0", "-q", "0.1", "-T", "0"]) == 0
    assert json.loads(capsys.readouterr().out)["epsilon"] == 0.0


@pytest.mark.parametrize("q", ["0.5", "1"])
def test_cli_accountant_tiny_noise_multiplier_is_config_error(q, capsys):
    # z^2 underflows to 0: the series failed with an IndexError at q = 0.5
    # and printed "epsilon": Infinity at q = 1.
    code = main(["accountant", "-z", "1e-200", "-q", q, "-T", "10", "--orders", "2,3"])
    assert code == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "config error: noise multiplier" in captured.err
    assert "1/z^2 finite, got 1e-200" in captured.err


@pytest.mark.parametrize("args", [
    # 1/z^2 is finite at both, but the series overflowed: exit 3 after numpy
    # warnings at the first, "epsilon": Infinity with exit 0 at the second.
    ["-z", "1e-154", "-q", "0.5", "-T", "10", "--orders", "2,3"],
    ["-z", "1.3e-154", "-q", "1", "-T", "10"],
])
def test_cli_accountant_noise_multiplier_below_the_series_floor_is_config_error(
        args, capsys):
    assert main(["accountant", *args]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "config error: noise multiplier must be finite and at least" in captured.err


def test_cli_accountant_huge_noise_multiplier_at_full_sampling(capsys):
    # Exited 3 with "numerical error: (34, 'Numerical result out of range')".
    assert main(["accountant", "-z", "1e200", "-q", "1", "-T", "10"]) == 0
    output = json.loads(capsys.readouterr().out)
    assert (output["epsilon"], output["best_order"]) == accountant.epsilon_for(
        1e200, 1.0, 10, 1e-9)


def test_cli_accountant_huge_noise_multiplier_at_partial_sampling(capsys):
    # Exited 3: "subsampled-Gaussian series did not converge".
    assert main(["accountant", "-z", "3e10", "-q", "0.0295", "-T", "10"]) == 0
    output = json.loads(capsys.readouterr().out)
    assert (output["epsilon"], output["best_order"]) == accountant.epsilon_for(
        3e10, 0.0295, 10, 1e-9)
    assert output["best_order"] == 256.0


def test_cli_accountant_curve_block_is_the_rdp_array(capsys):
    assert main(["accountant", "-z", "1", "-q", "0.1", "-T", "10"]) == 0
    curve = json.loads(capsys.readouterr().out)["curve"]
    # The default grid holds the ints 2..64; the block prints each as a float.
    assert all(type(a) is float for a in curve["orders"])
    assert curve["orders"] == list(accountant.DEFAULT_ORDERS)
    assert curve["eps_per_step"] == accountant.rdp_sampled_gaussian(1.0, 0.1).tolist()
    assert curve["total"] == [10 * e for e in curve["eps_per_step"]]
    assert curve["steps"] == 10


def test_cli_convert_noise(capsys):
    code = main(["convert-noise", "--sigma", "1.0", "--from", "avg",
                 "--to", "client", "-L", "16"])
    assert code == 0
    assert json.loads(capsys.readouterr().out)["sigma"] == 4.0


@pytest.mark.parametrize("sigma, cohort, message", [
    ("nan", "4", "sigma must be >= 0, got nan"),
    ("-1", "4", "sigma must be >= 0, got -1.0"),
    ("1", "nan", "cohort size must be finite and >= 1, got nan"),
    ("1", "inf", "cohort size must be finite and >= 1, got inf"),
    ("1", "0.5", "cohort size must be finite and >= 1, got 0.5"),
    ("inf", "4", "sigma inf as client noise for cohort size 4.0 is not finite"),
    ("1e308", "1e10",
     "sigma 1e+308 as client noise for cohort size 10000000000.0 is not finite"),
], ids=["sigma-nan", "sigma-negative", "cohort-nan", "cohort-inf", "cohort-below-one",
        "sigma-inf", "sigma-overflows"])
def test_cli_convert_noise_rejects_bad_values(sigma, cohort, message, capsys):
    code = main(["convert-noise", "--sigma", sigma, "--from", "avg",
                 "--to", "client", "-L", cohort])
    assert code == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert message in captured.err


def test_cli_partition_stats(tmp_path, capsys):
    config_path = write_config(tmp_path, minimal_config())
    assert main(["partition-stats", "--config", str(config_path)]) == 0
    out = capsys.readouterr().out
    assert "clients" in out
    stats = json.loads(out[out.index("{"):])
    assert stats["num_clients"] == 10
    assert stats["examples_per_client"]["mean"] == 8.0


def test_cli_summarize(tmp_path, capsys):
    config_path = write_config(tmp_path, minimal_config())
    out_dir = tmp_path / "run"
    main(["simulate", "--config", str(config_path), "--out", str(out_dir)])
    capsys.readouterr()
    csv_path = tmp_path / "per_layer.csv"
    code = main(["summarize", str(out_dir / "metrics.jsonl"),
                 "--csv", str(csv_path)])
    assert code == 0
    summary = json.loads(capsys.readouterr().out)
    assert summary["rounds"] == 3
    lines = csv_path.read_text().strip().splitlines()
    assert lines[0] == "layer,mean,std"
    assert len(lines) == 3  # header + w + b


@pytest.mark.parametrize("layer, drop, message", [
    ("b", None, "per_layer lacks layer 'b'"),
    ("w", "std", "layer 'w' lacks ['std']"),
])
def test_cli_summarize_inconsistent_records_is_config_error(
        layer, drop, message, tmp_path, capsys):
    result, _ = run_small(num_rounds=3)
    records = [round_to_json_obj(m) for m in result.metrics]
    if drop is None:
        del records[2]["per_layer"][layer]
    else:
        del records[2]["per_layer"][layer][drop]
    path = tmp_path / "metrics.jsonl"
    path.write_text("".join(json.dumps(rec) + "\n" for rec in records))
    assert main(["summarize", str(path)]) == 2
    assert f"{path}:3: {message}" in capsys.readouterr().err


@pytest.mark.parametrize("layer, key, value, message", [
    (None, "per_layer", 5, "'per_layer' must be an object, got 5"),
    ("w", "std", "x", "layer 'w' 'std' must be a number, got 'x'"),
    (None, "cohort_size", "2", "'cohort_size' must be an integer, got '2'"),
    (None, "loss", None, "'loss' must be a number, got None"),
    (None, "accuracy", None, "'accuracy' must be a number, got None"),
    (None, "cohort_size", -3, "'cohort_size' must be >= 0, got -3"),
    ("w", "std", -2.0, "layer 'w' 'std' must be >= 0, got -2.0"),
    (None, "loss", math.nan, "'loss' must be finite, got nan"),
    (None, "lr", math.inf, "'lr' must be finite, got inf"),
    ("w", "mean", -math.inf, "layer 'w' 'mean' must be finite, got -inf"),
    # The summary weights a round by cohort_size; the writer writes len(cohort_ids).
    (None, "cohort_size", 3, "cohort_size 3 is not the number of cohort_ids (4)"),
    (None, "cohort_size", 5, "cohort_size 5 is not the number of cohort_ids (4)"),
    # Client ids are integers >= 0; the round-3 cohort has 4 of them.
    (None, "cohort_ids", [0, "x", 2, 3],
     "'cohort_ids' entries must be integers >= 0, got 'x'"),
    (None, "cohort_ids", [0, 1, True, 3],
     "'cohort_ids' entries must be integers >= 0, got True"),
    (None, "cohort_ids", [0, 1.0, 2, 3],
     "'cohort_ids' entries must be integers >= 0, got 1.0"),
    (None, "cohort_ids", [0, 1, 2, None],
     "'cohort_ids' entries must be integers >= 0, got None"),
    (None, "cohort_ids", [0, -1, 2, 3],
     "'cohort_ids' entries must be integers >= 0, got -1"),
    # A round index, a loss, a learning rate and a norm are never negative.
    (None, "t", -1, "'t' must be >= 0, got -1"),
    (None, "loss", -1.0, "'loss' must be >= 0, got -1.0"),
    (None, "lr", -0.5, "'lr' must be >= 0, got -0.5"),
    (None, "delta_norm_preclip_mean", -1.0,
     "'delta_norm_preclip_mean' must be >= 0, got -1.0"),
    (None, "pseudograd_norm_prenoise", -1.0,
     "'pseudograd_norm_prenoise' must be >= 0, got -1.0"),
    (None, "pseudograd_norm_postnoise", -1.0,
     "'pseudograd_norm_postnoise' must be >= 0, got -1.0"),
    ("w", "mean", -2.0, "layer 'w' 'mean' must be >= 0, got -2.0"),
    # The probe accuracy is a fraction of the probe examples.
    (None, "accuracy", -0.5, "'accuracy' must be in [0, 1], got -0.5"),
    (None, "accuracy", 1.5, "'accuracy' must be in [0, 1], got 1.5"),
    (None, "accuracy", 2, "'accuracy' must be in [0, 1], got 2"),
], ids=["per_layer", "std", "cohort_size", "loss", "accuracy", "negative-cohort_size",
        "negative-std", "nan-loss", "inf-lr", "negative-inf-mean",
        "cohort_size-below-ids", "cohort_size-above-ids", "string-client-id",
        "bool-client-id", "float-client-id", "null-client-id", "negative-client-id",
        "negative-t", "negative-loss", "negative-lr", "negative-preclip-mean",
        "negative-prenoise-norm", "negative-postnoise-norm", "negative-mean",
        "negative-accuracy", "accuracy-above-one", "integer-accuracy-above-one"])
def test_cli_summarize_wrong_value_type_is_config_error(
        layer, key, value, message, tmp_path, capsys):
    result, _ = run_small(num_rounds=3)
    records = [round_to_json_obj(m) for m in result.metrics]
    record = records[2] if layer is None else records[2]["per_layer"][layer]
    record[key] = value
    path = tmp_path / "metrics.jsonl"
    path.write_text("".join(json.dumps(rec) + "\n" for rec in records))
    assert main(["summarize", str(path)]) == 2
    assert f"{path}:3: {message}" in capsys.readouterr().err


@pytest.mark.parametrize("field", dataclasses.fields(RoundMetrics),
                         ids=lambda field: field.name)
def test_cli_summarize_rejects_a_wrong_kind_in_every_field(field, tmp_path, capsys):
    result, _ = run_small(num_rounds=3)
    records = [round_to_json_obj(m) for m in result.metrics]
    records[2][field.name] = "x"  # a string is no field's kind
    path = tmp_path / "metrics.jsonl"
    path.write_text("".join(json.dumps(rec) + "\n" for rec in records))
    assert main(["summarize", str(path)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert f"{path}:3: {field.name!r} must be " in captured.err
    assert captured.err.endswith(", got 'x'\n")
