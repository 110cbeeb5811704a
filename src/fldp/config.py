"""Config-file parsing, validation, and the run manifest.

Configs are YAML (JSON also parses) with three sections: ``model``,
``population`` and ``federation``. Parsing applies documented defaults and
rejects unknown keys with their dotted path. Every value has one owning
key: the population takes its shape (classes, input dimension, sequence
length) from ``model``, and the privacy point takes its clip bound, step
count, population size and cohort size or rate from ``federation.clip``,
``federation.rounds``, ``population.num_clients`` and
``federation.cohort``, so ``federation.privacy`` holds only the noise and
delta. ``resolved_dict`` emits the fully expanded configuration, which
re-parses to an identical resolution (round-trip stable).
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, fields, is_dataclass
from enum import Enum
from pathlib import Path
from typing import Mapping, Optional

import numpy as np
import yaml

from . import __version__
from .clipping import ClipSpec, ClipVariant
from .data import CountKind, CountSpec, PopulationSpec
from .dp import NoiseMask, PrivacyParams, SigmaKind
from .engine import (
    CentralConfig,
    CohortConfig,
    CohortMode,
    FederationConfig,
    LocalConfig,
    LocalMode,
)
from .errors import ConfigError
from .models import ModelKind, ModelSpec
from .optimizers import OptimizerHyper, OptimizerKind, Schedule, ScheduleKind
from .param_tree import ParamTree


class _Section:
    """One mapping level: typed getters, unknown-key rejection."""

    def __init__(self, mapping: Mapping, path: str):
        if not isinstance(mapping, Mapping):
            raise ConfigError(f"{path}: expected a mapping")
        self.mapping = mapping
        self.path = path
        self.seen: set[str] = set()

    def _get(self, key, default):
        self.seen.add(key)
        return self.mapping.get(key, default)

    def child(self, key: str, required=False) -> Optional["_Section"]:
        raw = self._get(key, None)
        if raw is None:
            if required:
                raise ConfigError(f"{self.path}.{key}: section is required")
            return None
        return _Section(raw, f"{self.path}.{key}")

    def value(self, key, default=None, required=False, kind=None):
        raw = self._get(key, default)
        if raw is None:
            if required:
                raise ConfigError(f"{self.path}.{key}: value is required")
            return None
        if kind is float:
            if isinstance(raw, str) and raw in ("inf", ".inf"):
                return float("inf")
            if isinstance(raw, bool) or not isinstance(raw, (int, float)):
                raise ConfigError(f"{self.path}.{key}: expected a number, got {raw!r}")
            try:
                number = float(raw)
            except OverflowError:
                raise ConfigError(
                    f"{self.path}.{key}: integer beyond the float range"
                ) from None
            if math.isnan(number):
                raise ConfigError(f"{self.path}.{key}: expected a number, got nan")
            return number
        if kind is int:
            if isinstance(raw, bool) or not isinstance(raw, int):
                raise ConfigError(f"{self.path}.{key}: expected an integer")
            return int(raw)
        if kind is str and not isinstance(raw, str):
            raise ConfigError(f"{self.path}.{key}: expected a string")
        return raw

    def sequence(self, key, kind) -> Optional[tuple]:
        """A list of values, each checked as ``value(kind=kind)`` checks one."""
        raw = self._get(key, None)
        if raw is None:
            return None
        if not isinstance(raw, (list, tuple)):
            raise ConfigError(f"{self.path}.{key}: expected a list, got {raw!r}")
        items = _Section(dict(enumerate(raw)), f"{self.path}.{key}")
        return tuple(items.value(i, required=True, kind=kind) for i in range(len(raw)))

    def number_map(self, key) -> Optional[dict]:
        """A mapping of names to numbers, each checked as ``value`` checks one."""
        items = self.child(key)
        if items is None:
            return None
        return {k: items.value(k, required=True, kind=float) for k in items.mapping}

    def enum(self, key, enum_cls, default):
        raw = self._get(key, default)
        try:
            return enum_cls(raw)
        except ValueError:
            choices = ", ".join(e.value for e in enum_cls)
            raise ConfigError(
                f"{self.path}.{key}: {raw!r} is not one of: {choices}"
            ) from None

    def finish(self):
        unknown = set(self.mapping) - self.seen
        if unknown:
            paths = ", ".join(sorted(f"{self.path}.{key}" for key in unknown))
            raise ConfigError(f"unknown keys: {paths}")


def _seed(section: _Section) -> int:
    """The section's ``seed``: stream entropy, so a non-negative integer."""
    seed = section.value("seed", 0, kind=int)
    if seed < 0:
        raise ConfigError(f"{section.path}.seed: must be >= 0, got {seed}")
    return seed


@dataclass(frozen=True)
class ResolvedConfig:
    model: ModelSpec
    population: PopulationSpec
    federation: FederationConfig
    seed_model_path: Optional[str] = None


def _parse_model(section: _Section) -> ModelSpec:
    spec = ModelSpec(
        kind=section.enum("kind", ModelKind, ModelKind.LINEAR_SOFTMAX),
        input_dim=section.value("input_dim", required=True, kind=int),
        num_classes=section.value("num_classes", required=True, kind=int),
        hidden_dim=section.value("hidden_dim", 0, kind=int),
        seq_len=section.value("seq_len", 1, kind=int),
        layernorm_epsilon=section.value("layernorm_epsilon", 1e-5, kind=float),
    )
    section.finish()
    return spec


def _parse_counts(section: Optional[_Section]) -> CountSpec:
    if section is None:
        return CountSpec()
    spec = CountSpec(
        kind=section.enum("kind", CountKind, CountKind.UNIFORM),
        count=section.value("count", 10, kind=int),
        log_mean=section.value("log_mean", 2.0, kind=float),
        log_sigma=section.value("log_sigma", 1.0, kind=float),
        exponent=section.value("exponent", 1.2, kind=float),
        scale=section.value("scale", 1.0, kind=float),
        cap=section.value("cap", 100_000, kind=int),
    )
    section.finish()
    return spec


def _parse_population(section: _Section, model: ModelSpec) -> PopulationSpec:
    if isinstance(section.mapping.get("noise_level"), (list, tuple)):
        noise_level = section.sequence("noise_level", float)
    else:
        noise_level = section.value("noise_level", 0.5, kind=float)
    spec = PopulationSpec(
        num_clients=section.value("num_clients", required=True, kind=int),
        num_classes=model.num_classes,
        input_dim=model.input_dim,
        examples_per_client=_parse_counts(section.child("examples_per_client")),
        label_skew_alpha=section.value("label_skew_alpha", 1.0, kind=float),
        noise_level=noise_level,
        mean_separation=section.value("mean_separation", 1.0, kind=float),
        input_scale=section.value("input_scale", 1.0, kind=float),
        class_priors=section.sequence("class_priors", float),
        seq_len=model.seq_len if model.kind == ModelKind.TINY_ATTENTION else None,
        probe_size=section.value("probe_size", 256, kind=int),
        seed=_seed(section),
    )
    section.finish()
    return spec


def _parse_clip(section: _Section) -> ClipSpec:
    spec = ClipSpec(
        bound=section.value("bound", required=True, kind=float),
        variant=section.enum("variant", ClipVariant, ClipVariant.GLOBAL),
        weights=section.number_map("weights"),
    )
    section.finish()
    return spec


def _parse_privacy(
    section: Optional[_Section],
    clip: ClipSpec,
    cohort: CohortConfig,
    num_rounds: int,
    num_clients: int,
) -> PrivacyParams:
    if section is None:
        section = _Section({}, "federation.privacy")
    params = PrivacyParams(
        clip_bound=clip.bound,
        sigma=section.value("sigma", 0.0, kind=float),
        sigma_kind=section.enum("sigma_kind", SigmaKind, SigmaKind.AVG),
        population=num_clients,
        num_steps=num_rounds,
        delta=section.value("delta", 1e-9, kind=float),
        **cohort.privacy_args(),
    )
    section.finish()
    return params


def _parse_schedule(section: Optional[_Section]) -> Schedule:
    if section is None:
        raise ConfigError("federation.central.schedule is required")
    schedule = Schedule(
        base_lr=section.value("base_lr", required=True, kind=float),
        kind=section.enum("kind", ScheduleKind, ScheduleKind.CONSTANT),
        decay_start=section.value("decay_start", 0, kind=int),
        decay_rate=section.value("decay_rate", 1.0, kind=float),
        transition_steps=section.value("transition_steps", 1, kind=int),
    )
    section.finish()
    return schedule


def _parse_hyper(section: Optional[_Section]) -> OptimizerHyper:
    if section is None:
        return OptimizerHyper()
    hyper = OptimizerHyper(
        beta1=section.value("beta1", 0.9, kind=float),
        beta2=section.value("beta2", 0.999, kind=float),
        epsilon=section.value("epsilon", 1e-6, kind=float),
        momentum=section.value("momentum", 0.0, kind=float),
        weight_decay=section.value("weight_decay", 0.0, kind=float),
        trust_clip=section.value("trust_clip", 0.0, kind=float),
    )
    section.finish()
    return hyper


def _parse_federation(
    section: _Section, population: PopulationSpec, root_dir: Optional[Path]
) -> tuple[FederationConfig, Optional[str]]:
    num_rounds = section.value("rounds", required=True, kind=int)

    cohort_section = section.child("cohort", required=True)
    cohort = CohortConfig(
        mode=cohort_section.enum("mode", CohortMode, CohortMode.FIXED_SIZE),
        size=cohort_section.value("size", None, kind=int),
        rate=cohort_section.value("rate", None, kind=float),
    )
    cohort_section.finish()

    local_section = section.child("local", required=True)
    local = LocalConfig(
        mode=local_section.enum("mode", LocalMode, LocalMode.STEPS),
        count=local_section.value("count", 1, kind=int),
        batch_size=local_section.value("batch_size", 8, kind=int),
        lr=local_section.value("lr", required=True, kind=float),
        clip_bound=local_section.value("clip_bound", 1.0, kind=float),
    )
    local_section.finish()

    clip = _parse_clip(section.child("clip", required=True))
    privacy = _parse_privacy(
        section.child("privacy"), clip, cohort, num_rounds,
        population.num_clients,
    )

    central_section = section.child("central", required=True)
    central = CentralConfig(
        optimizer=central_section.enum("optimizer", OptimizerKind,
                                       OptimizerKind.LAMB),
        schedule=_parse_schedule(central_section.child("schedule")),
        hyper=_parse_hyper(central_section.child("hyper")),
    )
    central_section.finish()

    mask_layers = section.sequence("noise_mask", str)
    mask = NoiseMask(frozenset(mask_layers)) if mask_layers is not None else NoiseMask()

    seed_model_path = section.value("seed_model_path", None, kind=str)
    seed_model = None
    if seed_model_path is not None:
        path = Path(seed_model_path)
        if root_dir is not None and not path.is_absolute():
            path = root_dir / path
        try:
            seed_model = ParamTree.from_json(path.read_text())
        except ValueError as exc:  # not UTF-8, not JSON, or not a parameter tree
            raise ConfigError(f"seed model {path}: {exc}") from None

    cfg = FederationConfig(
        num_rounds=num_rounds,
        cohort=cohort,
        local=local,
        clip=clip,
        privacy=privacy,
        central=central,
        fedprox_mu=section.value("fedprox_mu", 0.0, kind=float),
        noise_mask=mask,
        seed=_seed(section),
        seed_model=seed_model,
    )
    section.finish()
    return cfg, seed_model_path


def parse_config_mapping(
    raw: Mapping, root_dir: Optional[Path] = None
) -> ResolvedConfig:
    root = _Section(raw, "config")
    model = _parse_model(root.child("model", required=True))
    population = _parse_population(root.child("population", required=True), model)
    federation, seed_model_path = _parse_federation(
        root.child("federation", required=True), population, root_dir
    )
    root.finish()
    if model.kind == ModelKind.TINY_ATTENTION and model.hidden_dim < 1:
        raise ConfigError("model.hidden_dim is required for tiny_attention")
    return ResolvedConfig(model, population, federation, seed_model_path)


def parse_config(path: str | Path) -> ResolvedConfig:
    path = Path(path)
    try:
        raw = yaml.safe_load(path.read_text())
    except yaml.YAMLError as exc:
        raise ConfigError(f"{path}: not valid YAML/JSON: {exc}") from exc
    if raw is None:
        raise ConfigError(f"{path}: empty config")
    return parse_config_mapping(raw, root_dir=path.parent)


def _plain(obj):
    """Dataclass -> dict, Enum -> value, tuple -> list, Mapping -> dict."""
    if is_dataclass(obj):
        return {f.name: _plain(getattr(obj, f.name)) for f in fields(obj)}
    if isinstance(obj, Enum):
        return obj.value
    if isinstance(obj, tuple):
        return [_plain(v) for v in obj]
    if isinstance(obj, Mapping):
        return {key: _plain(v) for key, v in obj.items()}
    return obj


def resolved_dict(rc: ResolvedConfig) -> dict:
    """Fully expanded config; re-parsing it resolves identically."""
    fed = rc.federation
    federation = _plain(fed)
    # Where the config keys differ from the dataclass fields.
    federation["rounds"] = federation.pop("num_rounds")
    included = fed.noise_mask.included
    federation["noise_mask"] = sorted(included) if included is not None else None
    del federation["seed_model"]
    federation["seed_model_path"] = rc.seed_model_path
    # Values owned by other sections are not restated.
    federation["privacy"] = {key: federation["privacy"][key]
                             for key in ("sigma", "sigma_kind", "delta")}
    population = _plain(rc.population)
    for key in ("num_classes", "input_dim", "seq_len"):
        del population[key]
    out = {
        "model": _plain(rc.model),
        "population": population,
        "federation": federation,
    }
    _drop_nones(out)
    return out


def _drop_nones(obj: dict) -> None:
    for key in list(obj):
        if obj[key] is None:
            del obj[key]
        elif isinstance(obj[key], dict):
            _drop_nones(obj[key])


def build_manifest(rc: ResolvedConfig, workers: int = 1) -> dict:
    """Everything needed to reproduce a run bit for bit."""
    fed = rc.federation
    dp_valid = fed.noise_mask.covers(rc.model.layout().names)
    manifest = {
        "engine_version": __version__,
        "numpy_version": np.__version__,
        "rng": {"bit_generator": "Philox", "gaussian": "ziggurat"},
        "workers": workers,
        "seed": fed.seed,
        "dp_valid": dp_valid,
        "privacy": {
            "sigma_avg": fed.privacy.sigma_avg,
            "sigma_client": fed.privacy.sigma_client,
            "sigma_sum": fed.privacy.sigma_sum,
            "sampling_rate": fed.privacy.sampling_rate,
            "cohort_size": fed.privacy.cohort_size,
            "num_steps": fed.privacy.num_steps,
            "delta": fed.privacy.delta,
        },
        "config": resolved_dict(rc),
    }
    return manifest


def dump_json(obj: Mapping) -> str:
    return json.dumps(obj, indent=2)
