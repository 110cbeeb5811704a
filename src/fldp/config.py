"""Config-file parsing, validation, and the run manifest.

Configs are YAML (JSON also parses) with three sections: ``model``,
``population`` and ``federation``. A section's keys, their kinds and their
defaults are the fields of its dataclass (``ModelSpec``, ``PopulationSpec``,
``FederationConfig`` and the dataclasses of their fields): ``_build`` reads
each field's key as the field's type, an omitted key takes the field's
default, and a field without one is a required key. Unknown keys are
rejected with their dotted path. Every value has one owning key: the
population takes its shape (classes, input dimension, sequence length)
from ``model``, and the privacy point takes its clip bound, step count,
population size and cohort size or rate from ``federation.clip``,
``federation.rounds``, ``population.num_clients`` and
``federation.cohort``, so ``federation.privacy`` holds only the noise and
delta. The table ``_OWNED`` names the fields that other sections own, and
``_KEYS`` the field stated under another key (``rounds``); parsing and
``resolved_dict`` both read them. ``resolved_dict`` emits the fully
expanded configuration, which re-parses to an identical resolution
(round-trip stable).
"""

from __future__ import annotations

import functools
import json
import math
import types
import typing
from collections import abc
from dataclasses import MISSING, dataclass, fields, is_dataclass
from enum import Enum
from pathlib import Path
from typing import Mapping, Optional

import numpy as np
import yaml

from . import __version__
from .data import PopulationSpec
from .dp import PrivacyParams
from .engine import FederationConfig
from .errors import ConfigError
from .models import ModelKind, ModelSpec
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


@dataclass(frozen=True)
class ResolvedConfig:
    model: ModelSpec
    population: PopulationSpec
    federation: FederationConfig
    seed_model_path: Optional[str] = None


# Fields that a section does not state: other sections own their values
# (``seed_model`` is the tree at ``seed_model_path``). ``_build`` takes them
# as ``owned``; ``resolved_dict`` leaves them out.
_OWNED = {
    PopulationSpec: ("num_classes", "input_dim", "seq_len"),
    PrivacyParams: ("clip_bound", "population", "num_steps", "sampling_rate",
                    "cohort_size"),
    FederationConfig: ("seed_model",),
}
# Fields stated under another key; ``resolved_dict`` writes them last.
_KEYS = {"num_rounds": "rounds"}


def _build(section: _Section, cls, **owned):
    """An instance of the dataclass cls read from its config section.

    Each field is the key of its name (or the one ``_KEYS`` gives), read as
    the field's type; an omitted key takes the field's default, and a field
    without one is a required key. The fields in ``owned`` are not read: a
    value there is the field's, and a function there is called with the
    fields read before it.
    """
    values = {}
    for name, key, read, default in _fields(cls):
        if name in owned:
            value = owned[name]
            values[name] = value(values) if callable(value) else value
        else:
            values[name] = read(section, key, default)
    section.finish()
    return cls(**values)


@functools.cache
def _fields(cls) -> tuple:
    """(name, key, reader, default) of each field of cls.

    Cached, because resolving the field types costs more than a parse.
    """
    hints = typing.get_type_hints(cls)
    return tuple((f.name, _KEYS.get(f.name, f.name), _reader(hints[f.name]), f.default)
                 for f in fields(cls))


def _reader(kind):
    """A function (section, key, default) that reads the key as a kind.

    A default of MISSING makes the key required.
    """
    if typing.get_origin(kind) in (typing.Union, types.UnionType):
        arms = [_reader(arm) for arm in typing.get_args(kind) if arm is not type(None)]
        if len(arms) == 1:
            return arms[0]
        number, numbers = arms  # noise_level: a number or a list of numbers

        def either(section, key, default):
            listed = isinstance(section.mapping.get(key), (list, tuple))
            return (numbers if listed else number)(section, key, default)
        return either
    if typing.get_origin(kind) is tuple:
        item = typing.get_args(kind)[0]
        return lambda section, key, default: section.sequence(key, item)
    if typing.get_origin(kind) is abc.Mapping:
        return lambda section, key, default: section.number_map(key)
    if is_dataclass(kind):
        def child(section, key, default):
            stated = section.child(key, required=default is MISSING)
            return default if stated is None else _build(stated, kind)
        return child
    if issubclass(kind, Enum):
        return lambda section, key, default: section.enum(key, kind, default)

    def scalar(section, key, default):
        required = default is MISSING
        return section.value(key, None if required else default,
                             required=required, kind=kind)
    return scalar


def _load_seed_model(path_text: Optional[str], root_dir: Optional[Path]):
    if path_text is None:
        return None
    path = Path(path_text)
    if root_dir is not None and not path.is_absolute():
        path = root_dir / path
    try:
        return ParamTree.from_json(path.read_text())
    except ValueError as exc:  # not UTF-8, not JSON, or not a parameter tree
        raise ConfigError(f"seed model {path}: {exc}") from None


def parse_config_mapping(
    raw: Mapping, root_dir: Optional[Path] = None
) -> ResolvedConfig:
    root = _Section(raw, "config")
    model = _build(root.child("model", required=True), ModelSpec)
    population = _build(
        root.child("population", required=True), PopulationSpec,
        num_classes=model.num_classes, input_dim=model.input_dim,
        seq_len=model.seq_len if model.kind == ModelKind.TINY_ATTENTION else None,
    )
    section = root.child("federation", required=True)
    seed_model_path = section.value("seed_model_path", kind=str)

    def privacy(fed: dict) -> PrivacyParams:
        stated = section.child("privacy") or _Section({}, f"{section.path}.privacy")
        return _build(stated, PrivacyParams, clip_bound=fed["clip"].bound,
                      population=population.num_clients,
                      num_steps=fed["num_rounds"], **fed["cohort"].privacy_args())

    federation = _build(section, FederationConfig, privacy=privacy,
                        seed_model=_load_seed_model(seed_model_path, root_dir))
    root.finish()
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
        "rng": {"bit_generator": "Philox", "gaussian": "ziggurat"},
        "workers": workers,
        "config": resolved_dict(rc),
    }


def dump_json(obj: Mapping) -> str:
    return json.dumps(obj, indent=2)
