"""Config-file parsing, validation, and the run manifest.

Configs are YAML (JSON also parses) with three sections: ``model``,
``population`` and ``federation``. A section's keys, their kinds and their
defaults are the fields of its dataclass (``ModelSpec``, ``PopulationSpec``,
``FederationConfig`` and the dataclasses of their fields): ``_build`` reads
each field's key with ``_read``, which checks a value as the field's type
and builds a nested dataclass with ``_build``. A key omitted or null takes
the field's default, and a field without one is a required key. Unknown
keys are rejected with their dotted path. Every value has one owning key:
the population takes its shape (classes, input dimension, sequence length)
from ``model``, and the privacy point takes its clip bound, step count,
population size and cohort size or rate from ``federation.clip``,
``federation.rounds``, ``population.num_clients`` and
``federation.cohort``, so ``federation.privacy`` holds only the noise and
delta. The table ``_OWNED`` names the fields that a section does not
state, and ``_KEYS`` the fields stated under another key (``rounds``,
``seed_model_path``); parsing and ``resolved_dict`` both read them.
``resolved_dict`` emits the fully expanded configuration, which re-parses
to an identical resolution (round-trip stable).
"""

from __future__ import annotations

import functools
import json
import math
import types
import typing
from collections.abc import Mapping
from dataclasses import MISSING, dataclass, fields, is_dataclass
from enum import Enum, EnumMeta
from pathlib import Path
from typing import Optional

import numpy as np
import yaml

from . import __version__
from .data import PopulationSpec
from .dp import PrivacyParams
from .engine import FederationConfig
from .errors import ConfigError
from .models import ModelKind, ModelSpec
from .param_tree import ParamTree


@dataclass(frozen=True)
class ResolvedConfig:
    model: ModelSpec
    population: PopulationSpec
    federation: FederationConfig
    seed_model_path: Optional[str] = None


# Fields whose values a section does not state: other sections own them,
# or (``seed_model``) a key names the file to load. ``_build`` takes them
# as ``owned``; ``resolved_dict`` leaves them out.
_OWNED = {
    PopulationSpec: ("num_classes", "input_dim", "seq_len"),
    PrivacyParams: ("clip_bound", "population", "num_steps", "sampling_rate",
                    "cohort_size"),
    FederationConfig: ("seed_model",),
}
# Fields stated under another key; ``resolved_dict`` writes them last.
_KEYS = {"num_rounds": "rounds", "seed_model": "seed_model_path"}


def _build(raw, path: str, cls, **owned):
    """An instance of the dataclass cls read from the mapping raw at path.

    Each field is the key of its name (or the one ``_KEYS`` gives), read as
    the field's type; a key omitted or null takes the field's default, and
    a field without one is a required key. The fields in ``owned`` are not
    read: a value there is the field's, and a function there is called with
    the fields read before it and the value stated under the field's key.
    """
    if not isinstance(raw, Mapping):
        raise ConfigError(f"{path}: expected a mapping")
    spec, keys = _fields(cls)
    values = {}
    for name, key, kind, default in spec:
        stated = raw.get(key)
        if name in owned:
            value = owned[name]
            values[name] = value(values, stated) if callable(value) else value
        elif stated is not None:
            values[name] = _read(kind, stated, f"{path}.{key}")
        elif default is MISSING:
            what = "section" if is_dataclass(kind) else "value"
            raise ConfigError(f"{path}.{key}: {what} is required")
        else:
            values[name] = default
    _reject_unknown(raw, path, keys)
    return cls(**values)


@functools.cache
def _fields(cls) -> tuple:
    """(name, key, type, default) of each field of cls, and the keys stated.

    A field that ``_OWNED`` lists has no key, unless ``_KEYS`` gives it
    one. Cached, because resolving the field types costs more than a parse.
    """
    hints = typing.get_type_hints(cls)
    spec = tuple((f.name, _KEYS.get(f.name, f.name), hints[f.name], f.default)
                 for f in fields(cls))
    owned = _OWNED.get(cls, ())
    return spec, frozenset(key for name, key, _, _ in spec
                           if name not in owned or name in _KEYS)


def _read(kind, raw, path: str):
    """The non-null value raw, checked as a value of the type kind."""
    if kind is float:
        if isinstance(raw, str) and raw in ("inf", ".inf"):
            return math.inf
        if isinstance(raw, bool) or not isinstance(raw, (int, float)):
            raise ConfigError(f"{path}: expected a number, got {raw!r}")
        try:
            number = float(raw)
        except OverflowError:
            raise ConfigError(f"{path}: integer beyond the float range") from None
        if math.isnan(number):
            raise ConfigError(f"{path}: expected a number, got nan")
        return number
    if kind is int:
        if isinstance(raw, bool) or not isinstance(raw, int):
            raise ConfigError(f"{path}: expected an integer")
        return int(raw)
    if kind is str:
        if not isinstance(raw, str):
            raise ConfigError(f"{path}: expected a string")
        return raw
    if isinstance(kind, EnumMeta):
        try:
            return kind(raw)
        except ValueError:
            choices = ", ".join(e.value for e in kind)
            raise ConfigError(f"{path}: {raw!r} is not one of: {choices}") from None
    if is_dataclass(kind):
        return _build(raw, path, kind)
    origin = typing.get_origin(kind)
    if origin in (typing.Union, types.UnionType):
        # Optional[X] reads as X; noise_level, a number or a list of numbers.
        arms = [arm for arm in typing.get_args(kind) if arm is not type(None)]
        listed = isinstance(raw, (list, tuple))
        return _read(arms[-1] if listed else arms[0], raw, path)
    if origin is tuple:
        if not isinstance(raw, (list, tuple)):
            raise ConfigError(f"{path}: expected a list, got {raw!r}")
        item = typing.get_args(kind)[0]
        return tuple(_read(item, v, f"{path}.{i}") for i, v in enumerate(raw))
    # A mapping of names to values (clip weights).
    if not isinstance(raw, Mapping):
        raise ConfigError(f"{path}: expected a mapping")
    item = typing.get_args(kind)[1]
    return {key: _read(item, v, f"{path}.{key}") for key, v in raw.items()}


def _reject_unknown(raw: Mapping, path: str, keys: frozenset):
    if not keys.issuperset(raw):
        paths = sorted(f"{path}.{key}" for key in raw if key not in keys)
        raise ConfigError(f"unknown keys: {', '.join(paths)}")


def _section(raw: Mapping, key: str):
    """The value of the top-level section key, which is required."""
    if raw.get(key) is None:
        raise ConfigError(f"config.{key}: section is required")
    return raw[key]


def _load_seed_model(path_text, root_dir: Optional[Path]):
    if path_text is None:
        return None
    path = Path(_read(str, path_text, "config.federation.seed_model_path"))
    if root_dir is not None and not path.is_absolute():
        path = root_dir / path
    try:
        return ParamTree.from_json(path.read_text())
    except ValueError as exc:  # not UTF-8, not JSON, or not a parameter tree
        raise ConfigError(f"seed model {path}: {exc}") from None


def parse_config_mapping(
    raw: Mapping, root_dir: Optional[Path] = None
) -> ResolvedConfig:
    if not isinstance(raw, Mapping):
        raise ConfigError("config: expected a mapping")
    model = _build(_section(raw, "model"), "config.model", ModelSpec)
    population = _build(
        _section(raw, "population"), "config.population", PopulationSpec,
        num_classes=model.num_classes, input_dim=model.input_dim,
        seq_len=model.seq_len if model.kind == ModelKind.TINY_ATTENTION else None,
    )

    def privacy(fed: dict, stated) -> PrivacyParams:
        return _build({} if stated is None else stated, "config.federation.privacy",
                      PrivacyParams, clip_bound=fed["clip"].bound,
                      population=population.num_clients,
                      num_steps=fed["num_rounds"], **fed["cohort"].privacy_args())

    section = _section(raw, "federation")
    federation = _build(
        section, "config.federation", FederationConfig, privacy=privacy,
        seed_model=lambda fed, stated: _load_seed_model(stated, root_dir))
    _reject_unknown(raw, "config", frozenset(("model", "population", "federation")))
    return ResolvedConfig(model, population, federation, section.get("seed_model_path"))


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
    """A resolved value as a config states it.

    A dataclass becomes the mapping of its keys: the fields ``_OWNED``
    lists and the fields whose value is None (an omitted key) left out,
    and those ``_KEYS`` renames last, under their keys. An Enum becomes its
    value, a tuple (a noise mask's layers, in the order given) a list.
    """
    if is_dataclass(obj):
        owned = _OWNED.get(type(obj), ())
        names = sorted((f.name for f in fields(obj) if f.name not in owned),
                       key=_KEYS.__contains__)
        return {_KEYS.get(name, name): value for name in names
                if (value := _plain(getattr(obj, name))) is not None}
    if isinstance(obj, Enum):
        return obj.value
    if isinstance(obj, tuple):
        return [_plain(v) for v in obj]
    if isinstance(obj, Mapping):
        return {key: _plain(v) for key, v in obj.items()}
    return obj


def resolved_dict(rc: ResolvedConfig) -> dict:
    """Fully expanded config; re-parsing it resolves identically."""
    out = {name: _plain(getattr(rc, name))
           for name in ("model", "population", "federation")}
    if rc.seed_model_path is not None:
        out["federation"]["seed_model_path"] = rc.seed_model_path
    return out


def build_manifest(rc: ResolvedConfig, workers: int = 1) -> dict:
    """What reproduces a run bit for bit: versions, RNG, workers, resolved config.

    The privacy point and its epsilon are the run's privacy report, and the
    seeds are in the config, so the manifest does not restate them.
    """
    return {
        "engine_version": __version__,
        "numpy_version": np.__version__,
        "rng": {"bit_generator": "Philox", "gaussian": "ziggurat",
                "local": "splitmix64"},
        "workers": workers,
        "config": resolved_dict(rc),
    }


def dump_json(obj: Mapping) -> str:
    return json.dumps(obj, indent=2)
