"""The per-round metrics record, its JSONL file and cross-run summaries.

`RoundMetrics` is the record: its field names, order and types are the
keys, order and value kinds of one line of metrics.jsonl, whose per_layer
object holds a `LayerStats` {mean, std} per layer. `write_metrics` writes
the fields in order; `read_metrics` checks each value against its type.

The summary pools per-layer delta-norm statistics across all clients and
rounds. Per-round metrics carry (mean, std, count), which is enough to
recover the pooled mean and population std:

    pooled_mean = sum(n_t m_t) / sum(n_t)
    pooled_var  = sum(n_t (s_t^2 + (m_t - pooled_mean)^2)) / sum(n_t)

The rounds are merged one at a time by Chan, Golub and LeVeque's pairwise
update, on values divided by the layer's largest mean or std: no square
overflows, and a spread far below the mean is not lost to cancellation.
"""

from __future__ import annotations

import io
import json
import math
import typing
from dataclasses import asdict, dataclass, fields
from pathlib import Path
from typing import Annotated, Iterable, Sequence, TextIO, TypedDict

from .errors import ConfigError

# Marks a numeric type whose values must be >= 0, or in [0, 1].
_NONNEGATIVE = ">= 0"
_FRACTION = "in [0, 1]"


class LayerStats(TypedDict):
    """Mean and std of one layer's pre-clip delta norms over a cohort."""

    mean: Annotated[float, _NONNEGATIVE]
    std: Annotated[float, _NONNEGATIVE]


@dataclass
class RoundMetrics:
    """One round of a run, and one line of metrics.jsonl."""

    t: Annotated[int, _NONNEGATIVE]
    loss: Annotated[float, _NONNEGATIVE]
    accuracy: Annotated[float, _FRACTION]
    lr: Annotated[float, _NONNEGATIVE]
    cohort_size: Annotated[int, _NONNEGATIVE]
    cohort_ids: list[int]
    delta_norm_preclip_mean: Annotated[float, _NONNEGATIVE]
    pseudograd_norm_prenoise: Annotated[float, _NONNEGATIVE]
    pseudograd_norm_postnoise: Annotated[float, _NONNEGATIVE]
    per_layer: dict[str, LayerStats]  # layer name -> pre-clip norm stats


SCHEMA_KEYS = tuple(f.name for f in fields(RoundMetrics))


def round_to_json_obj(m: RoundMetrics) -> dict:
    """The record as one metrics.jsonl object; it shares the record's list and dicts."""
    return {key: getattr(m, key) for key in SCHEMA_KEYS}


def emit_round(m: RoundMetrics, sink: TextIO) -> None:
    sink.write(json.dumps(round_to_json_obj(m)))
    sink.write("\n")
    sink.flush()


def write_metrics(metrics: Iterable[RoundMetrics], path: str | Path) -> None:
    with open(path, "w") as sink:
        for m in metrics:
            emit_round(m, sink)


_KIND_NAMES = {int: "an integer", float: "a number", list: "a list", dict: "an object"}
_HINTS = {cls: typing.get_type_hints(cls, include_extras=True)
          for cls in (RoundMetrics, LayerStats)}


def _require(value, tp, where: str, label: str) -> None:
    """Raise ConfigError naming `where: label` unless value is JSON of type tp.

    A float may be an int, not a bool, and must be finite; a type annotated
    `_NONNEGATIVE` must be >= 0, and one annotated `_FRACTION` in [0, 1].
    A mapping's entries (one per layer) and a TypedDict's keys are checked
    against their own types, and a list's entries (client ids) as integers
    >= 0.
    """
    what = f"{where}: {label}"
    marks = ()
    if typing.get_origin(tp) is Annotated:
        tp, *marks = typing.get_args(tp)
    kind = dict if typing.is_typeddict(tp) else typing.get_origin(tp) or tp
    kinds = (int, float) if kind is float else kind
    if isinstance(value, bool) or not isinstance(value, kinds):
        raise ConfigError(f"{what} must be {_KIND_NAMES[kind]}, got {value!r}")
    if isinstance(value, float) and not math.isfinite(value):
        raise ConfigError(f"{what} must be finite, got {value!r}")
    if _NONNEGATIVE in marks and value < 0:
        raise ConfigError(f"{what} must be >= 0, got {value!r}")
    if _FRACTION in marks and not 0 <= value <= 1:
        raise ConfigError(f"{what} must be in [0, 1], got {value!r}")
    if typing.is_typeddict(tp):
        missing = [k for k in _HINTS[tp] if k not in value]
        if missing:
            raise ConfigError(f"{what} lacks {missing}")
        for key, sub in _HINTS[tp].items():
            _require(value[key], sub, where, f"{label} {key!r}")
    elif kind is dict:
        _, entry = typing.get_args(tp)
        for name, v in value.items():
            _require(v, entry, where, f"layer {name!r}")
    elif kind is list:  # client ids, about 2M in a paper-scale file: one pass
        bad = [i for i in value if type(i) is not int or i < 0]
        if bad:
            raise ConfigError(f"{what} entries must be integers >= 0, got {bad[0]!r}")


def read_metrics(path: str | Path) -> list[RoundMetrics]:
    """The records of a metrics file; every record has the first one's layers."""
    records = []
    with open(path) as f:
        for lineno, line in enumerate(f, start=1):
            if not line.strip():
                continue
            where = f"{path}:{lineno}"
            try:
                obj = json.loads(line)
            except json.JSONDecodeError as exc:
                raise ConfigError(f"{where}: malformed metrics line: {exc}") from exc
            if not isinstance(obj, dict):
                raise ConfigError(f"{where}: metrics line must be an object, got {obj!r}")
            missing = [k for k in SCHEMA_KEYS if k not in obj]
            if missing:
                raise ConfigError(f"{where}: metrics line missing keys {missing}")
            for key, tp in _HINTS[RoundMetrics].items():
                _require(obj[key], tp, where, repr(key))
            record = RoundMetrics(**{key: obj[key] for key in SCHEMA_KEYS})
            if record.cohort_size != len(record.cohort_ids):
                raise ConfigError(f"{where}: cohort_size {record.cohort_size} is not "
                                  f"the number of cohort_ids ({len(record.cohort_ids)})")
            for name in records[0].per_layer if records else ():
                if name not in record.per_layer:
                    raise ConfigError(f"{where}: per_layer lacks layer {name!r}")
            records.append(record)
    return records


@dataclass(frozen=True)
class Summary:
    rounds: int
    final_loss: float
    best_loss: float
    final_accuracy: float
    best_accuracy: float
    per_layer: dict[str, LayerStats]  # pooled across rounds

    def to_json_obj(self) -> dict:
        return asdict(self)

    def to_csv(self) -> str:
        buf = io.StringIO()
        buf.write("layer,mean,std\n")
        for name, stats in self.per_layer.items():
            buf.write(f"{name},{stats['mean']!r},{stats['std']!r}\n")
        return buf.getvalue()


def _pool(groups: list[tuple[int, float, float]]) -> LayerStats:
    """Pooled mean and population std of (count, mean, std) groups."""
    scale = max((max(mean, std) for _, mean, std in groups), default=0.0)
    if scale == 0.0:
        return LayerStats(mean=0.0, std=0.0)
    n, mean, m2 = 0, 0.0, 0.0  # m2: sum of squared deviations from mean
    for count, group_mean, group_std in groups:
        delta = group_mean / scale - mean
        total = n + count
        mean += delta * (count / total)
        m2 += count * (group_std / scale) ** 2 + delta * delta * (n * count / total)
        n = total
    return LayerStats(mean=mean * scale, std=math.sqrt(m2 / n) * scale)


def summarize_records(records: Sequence[RoundMetrics]) -> Summary:
    if not records:
        raise ConfigError("no metric records to summarize")
    per_layer = {
        name: _pool([(rec.cohort_size, rec.per_layer[name]["mean"],
                      rec.per_layer[name]["std"])
                     for rec in records if rec.cohort_size])
        for name in records[0].per_layer
    }
    losses = [rec.loss for rec in records]
    accuracies = [rec.accuracy for rec in records]
    return Summary(
        rounds=len(records),
        final_loss=losses[-1],
        best_loss=min(losses),
        final_accuracy=accuracies[-1],
        best_accuracy=max(accuracies),
        per_layer=per_layer,
    )


def summarize(path: str | Path) -> Summary:
    return summarize_records(read_metrics(path))
