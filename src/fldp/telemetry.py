"""Round-metric emission (JSONL) and cross-run summaries.

One JSON object per line, stable schema:

    {"t", "loss", "accuracy", "lr", "cohort_size", "cohort_ids",
     "delta_norm_preclip_mean", "pseudograd_norm_prenoise",
     "pseudograd_norm_postnoise", "per_layer": {name: {"mean", "std"}}}

The summary pools per-layer delta-norm statistics across all clients and
rounds. Per-round metrics carry (mean, std, count), which is enough to
recover the pooled mean and population std exactly:

    pooled_mean = sum(n_t m_t) / sum(n_t)
    pooled_var  = sum(n_t (s_t^2 + m_t^2)) / sum(n_t) - pooled_mean^2
"""

from __future__ import annotations

import io
import json
import math
from dataclasses import asdict, dataclass
from pathlib import Path
from typing import Iterable, Sequence, TextIO

from .engine import RoundMetrics
from .errors import ConfigError

SCHEMA_KEYS = (
    "t",
    "loss",
    "accuracy",
    "lr",
    "cohort_size",
    "cohort_ids",
    "delta_norm_preclip_mean",
    "pseudograd_norm_prenoise",
    "pseudograd_norm_postnoise",
    "per_layer",
)


def round_to_json_obj(m: RoundMetrics) -> dict:
    return {
        "t": m.round_index,
        "loss": m.loss,
        "accuracy": m.accuracy,
        "lr": m.lr,
        "cohort_size": len(m.cohort_ids),
        "cohort_ids": list(m.cohort_ids),
        "delta_norm_preclip_mean": m.delta_norm_preclip_mean,
        "pseudograd_norm_prenoise": m.pseudograd_norm_prenoise,
        "pseudograd_norm_postnoise": m.pseudograd_norm_postnoise,
        "per_layer": {
            name: {"mean": stats["mean"], "std": stats["std"]}
            for name, stats in m.per_layer.items()
        },
    }


def emit_round(m: RoundMetrics, sink: TextIO) -> None:
    sink.write(json.dumps(round_to_json_obj(m)))
    sink.write("\n")
    sink.flush()


def write_metrics(metrics: Iterable[RoundMetrics], path: str | Path) -> None:
    with open(path, "w") as sink:
        for m in metrics:
            emit_round(m, sink)


# Value types of the schema keys that do not hold a plain number.
_KINDS = {"t": int, "cohort_size": int, "cohort_ids": list, "per_layer": dict}
_KIND_NAMES = {int: "an integer", float: "a number", list: "a list", dict: "an object"}


def _require(value, kind, what: str, nonnegative: bool = False) -> None:
    """Raise ConfigError unless value is a `kind`, and >= 0 if `nonnegative`;
    a float may be an int, not a bool."""
    kinds = (int, float) if kind is float else kind
    if isinstance(value, bool) or not isinstance(value, kinds):
        raise ConfigError(f"{what} must be {_KIND_NAMES[kind]}, got {value!r}")
    if nonnegative and value < 0:
        raise ConfigError(f"{what} must be >= 0, got {value!r}")


def read_metrics(path: str | Path) -> list[dict]:
    """The records of a metrics file; every record has the first one's layers."""
    records = []
    layers = None
    with open(path) as f:
        for lineno, line in enumerate(f, start=1):
            if not line.strip():
                continue
            try:
                record = json.loads(line)
            except json.JSONDecodeError as exc:
                raise ConfigError(
                    f"{path}:{lineno}: malformed metrics line: {exc}"
                ) from exc
            where = f"{path}:{lineno}"
            _require(record, dict, f"{where}: metrics line")
            missing = [k for k in SCHEMA_KEYS if k not in record]
            if missing:
                raise ConfigError(
                    f"{path}:{lineno}: metrics line missing keys {missing}"
                )
            for key in SCHEMA_KEYS:
                _require(record[key], _KINDS.get(key, float), f"{where}: {key!r}",
                         nonnegative=key == "cohort_size")
            per_layer = record["per_layer"]
            if layers is None:
                layers = list(per_layer)
            for name in layers:
                if name not in per_layer:
                    raise ConfigError(f"{path}:{lineno}: per_layer lacks layer {name!r}")
                _require(per_layer[name], dict, f"{where}: layer {name!r}")
                missing = [k for k in ("mean", "std") if k not in per_layer[name]]
                if missing:
                    raise ConfigError(
                        f"{path}:{lineno}: layer {name!r} lacks {missing}"
                    )
                for stat in ("mean", "std"):
                    _require(per_layer[name][stat], float,
                             f"{where}: layer {name!r} {stat!r}",
                             nonnegative=stat == "std")
            records.append(record)
    return records


@dataclass(frozen=True)
class Summary:
    rounds: int
    final_loss: float
    best_loss: float
    final_accuracy: float
    best_accuracy: float
    per_layer: dict[str, dict[str, float]]  # pooled mean/std across rounds

    def to_json_obj(self) -> dict:
        return asdict(self)

    def to_csv(self) -> str:
        buf = io.StringIO()
        buf.write("layer,mean,std\n")
        for name, stats in self.per_layer.items():
            buf.write(f"{name},{stats['mean']!r},{stats['std']!r}\n")
        return buf.getvalue()


def summarize_records(records: Sequence[dict]) -> Summary:
    if not records:
        raise ConfigError("no metric records to summarize")
    layer_names = list(records[0]["per_layer"])
    totals = {name: [0.0, 0.0, 0.0] for name in layer_names}  # n, sum, sumsq
    for rec in records:
        n = rec["cohort_size"]
        if n == 0:
            continue
        for name in layer_names:
            stats = rec["per_layer"][name]
            totals[name][0] += n
            totals[name][1] += n * stats["mean"]
            totals[name][2] += n * (stats["std"] ** 2 + stats["mean"] ** 2)
    per_layer = {}
    for name, (n, total, total_sq) in totals.items():
        if n == 0:
            per_layer[name] = {"mean": 0.0, "std": 0.0}
        else:
            mean = total / n
            var = max(0.0, total_sq / n - mean * mean)
            per_layer[name] = {"mean": mean, "std": math.sqrt(var)}
    losses = [rec["loss"] for rec in records]
    accuracies = [rec["accuracy"] for rec in records]
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
