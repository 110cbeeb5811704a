"""Synthetic heterogeneous client populations, stored as one flat partition.

Clients draw labels from a per-client class distribution sampled from a
symmetric Dirichlet (small concentration -> heavy label skew, large ->
near-uniform clients). Inputs are class-conditional Gaussians around fixed
per-class means so every model kind can learn the task. Example counts per
client follow a constant, log-normal, or Pareto-tail law; the heavy tail of
the power law reproduces the max/mean >> 1 signature of real per-user
data. A held-out probe split is generated alongside and never trained on.

The population's examples sit end to end in one input array and one label
array; client i owns rows ``offsets[i]:offsets[i+1]``, so an empty client
is a zero-length span. All clients' inputs come from one draw of the
inputs stream, which equals drawing them client by client.

Labels come from the one shared label stream in three blocks: an (N, K)
gamma block and an (N, K) uniform block give every client's Dirichlet
class distribution at once, in log space, and one uniform per example
follows. An inverse CDF over the whole population turns each example's
uniform into the number of its client's cumulative class probabilities
at or below it, which is ``searchsorted(cdf, u, side='right')`` client by
client.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from enum import Enum
from typing import Optional

import numpy as np

from .errors import ConfigError, NumericsError, StructureError
from .models import Batch
from .streams import generator

_STREAM_MEANS = 11
_STREAM_COUNTS = 12
_STREAM_LABELS = 13
_STREAM_INPUTS = 14
_STREAM_PROBE = 15
_MEANS_CHUNK = 1 << 14  # rows per class-mean add in _draw_inputs


class CountKind(str, Enum):
    UNIFORM = "uniform"
    LOGNORMAL = "lognormal"
    POWER = "power"


@dataclass(frozen=True)
class CountSpec:
    """Distribution of examples-per-client."""

    kind: CountKind = CountKind.UNIFORM
    count: int = 10  # uniform: every client gets exactly this many
    log_mean: float = 2.0  # lognormal: mean of log count
    log_sigma: float = 1.0  # lognormal: std of log count
    exponent: float = 1.2  # power: Pareto tail index (smaller = heavier)
    scale: float = 1.0  # power: minimum scale
    cap: int = 100_000  # ceiling applied to sampled counts

    def __post_init__(self):
        object.__setattr__(self, "kind", CountKind(self.kind))
        if self.kind == CountKind.UNIFORM and self.count < 1:
            raise ConfigError("uniform count must be >= 1")
        if not self.log_sigma >= 0:
            raise ConfigError(f"lognormal log_sigma must be >= 0, got {self.log_sigma}")
        for name in ("log_mean", "log_sigma", "exponent", "scale"):
            if not math.isfinite(getattr(self, name)):
                raise ConfigError(f"{name} must be finite, got {getattr(self, name)}")
        if self.exponent <= 0 or self.scale <= 0 or self.cap < 1:
            raise ConfigError("power-law parameters must be positive")

    def sample(self, rng: np.random.Generator, num_clients: int) -> np.ndarray:
        if self.kind == CountKind.UNIFORM:
            return np.full(num_clients, self.count, dtype=np.int64)
        if self.kind == CountKind.LOGNORMAL:
            raw = rng.lognormal(self.log_mean, self.log_sigma, size=num_clients)
        else:
            # Pareto via inverse CDF; exponent < 1 gives an extremely heavy tail.
            u = rng.random(num_clients)
            raw = self.scale * u ** (-1.0 / self.exponent)
        counts = np.minimum(np.maximum(np.round(raw), 1.0), float(self.cap))
        return counts.astype(np.int64)


@dataclass(frozen=True)
class PopulationSpec:
    num_clients: int
    num_classes: int
    input_dim: int
    examples_per_client: CountSpec = CountSpec()
    label_skew_alpha: float = 1.0
    # Within-class noise: one std for all input dimensions, or one per dim.
    noise_level: float | tuple[float, ...] = 0.5
    mean_separation: float = 1.0
    input_scale: float = 1.0
    class_priors: Optional[tuple[float, ...]] = None
    seq_len: Optional[int] = None  # set for sequence-input models
    probe_size: int = 256
    seed: int = 0

    def __post_init__(self):
        if self.num_clients < 1:
            raise ConfigError("population needs at least one client")
        if self.num_classes < 2:
            raise ConfigError("population needs at least two classes")
        if self.input_dim < 1:
            raise ConfigError("input_dim must be >= 1")
        # alpha * K bounds every Dirichlet concentration alpha * K * prior.
        if not 0 < self.label_skew_alpha * self.num_classes < math.inf:
            raise ConfigError(
                "label_skew_alpha must be positive and finite, got "
                f"{self.label_skew_alpha}")
        for name in ("mean_separation", "input_scale"):
            if not math.isfinite(getattr(self, name)):
                raise ConfigError(
                    f"{name} must be finite, got {getattr(self, name)}")
        if self.probe_size < 1:
            raise ConfigError("probe_size must be >= 1")
        if self.seed < 0:
            raise ConfigError(f"population seed must be >= 0, got {self.seed}")
        if not isinstance(self.noise_level, (int, float)):
            levels = tuple(float(v) for v in self.noise_level)
            if len(levels) != self.input_dim:
                raise ConfigError(
                    "per-dimension noise_level needs one value per input dim"
                )
            object.__setattr__(self, "noise_level", levels)
        if not np.isfinite(self.noise_level).all():
            raise ConfigError(f"noise_level must be finite, got {self.noise_level}")
        if np.any(np.asarray(self.noise_level) < 0):  # a standard deviation
            raise ConfigError(f"noise_level must be >= 0, got {self.noise_level}")
        if self.class_priors is not None:
            priors = tuple(float(p) for p in self.class_priors)
            total = sum(priors)
            if (len(priors) != self.num_classes
                    or not all(0 < p < math.inf for p in priors)
                    or not math.isfinite(total)):
                raise ConfigError(
                    "class_priors must be positive and finite, one per class")
            object.__setattr__(
                self, "class_priors", tuple(p / total for p in priors)
            )


@dataclass(frozen=True, eq=False)
class ClientPartition:
    """Every client's examples end to end, plus the held-out probe.

    ``inputs`` is (E, F) or (E, S, F) float64 and ``labels`` (E,) int64;
    client i owns rows ``offsets[i]:offsets[i+1]`` of both, so ``offsets``
    is (N+1,) int64 from 0 to E >= 1. The whole partition is validated
    once here, so training never re-checks a minibatch, and its arrays are
    read-only.
    """

    inputs: np.ndarray
    labels: np.ndarray
    offsets: np.ndarray
    probe: Batch
    num_classes: int
    sizes: np.ndarray = field(init=False, repr=False)  # examples per client

    def __post_init__(self):
        # Batch checks the labels are 1-D and nonnegative, one per input row.
        examples = Batch(self.inputs, self.labels)
        inputs, labels = examples.inputs, examples.labels
        offsets = np.asarray(self.offsets, dtype=np.int64)
        if inputs.shape[1:] != self.probe.inputs.shape[1:]:
            raise StructureError(
                f"client inputs {inputs.shape[1:]} differ from probe "
                f"inputs {self.probe.inputs.shape[1:]}"
            )
        if (offsets.ndim != 1 or offsets.size == 0 or offsets[0] != 0
                or offsets[-1] != labels.size or np.any(np.diff(offsets) < 0)):
            raise StructureError(
                f"client offsets must rise from 0 to {labels.size} examples"
            )
        if max(labels.max(), self.probe.labels.max()) >= self.num_classes:
            raise StructureError("label out of range for num_classes")
        sizes = np.diff(offsets)
        for name, array in (("inputs", inputs), ("labels", labels),
                            ("offsets", offsets), ("sizes", sizes)):
            array.flags.writeable = False
            object.__setattr__(self, name, array)

    @property
    def num_clients(self) -> int:
        return int(self.offsets.size - 1)

    def total_examples(self) -> int:
        return int(self.labels.size)


def _draw_inputs(rng, means, labels, spec: PopulationSpec) -> np.ndarray:
    """Class means plus scaled noise, built in place in one output array.

    One ``standard_normal`` draw equals ``normal(0, 1)`` draws of its row
    blocks in turn. Class means are added in chunks of bounded size.
    """
    if spec.seq_len is None:
        shape = (labels.size, spec.input_dim)
    else:
        shape = (labels.size, spec.seq_len, spec.input_dim)
        means = means[:, None, :]  # one mean for every position
    out = np.empty(shape)
    rng.standard_normal(out=out)
    out *= np.asarray(spec.noise_level)  # scalar or per-dimension stds
    for lo in range(0, labels.size, _MEANS_CHUNK):
        out[lo : lo + _MEANS_CHUNK] += means[labels[lo : lo + _MEANS_CHUNK]]
    out *= spec.input_scale
    return out


def _cdf(dist: np.ndarray) -> np.ndarray:
    """Row-wise cumulative sums scaled to end at 1, as ``Generator.choice``."""
    cdf = np.cumsum(dist, axis=1)
    with np.errstate(divide="ignore", invalid="ignore"):  # checked by the caller
        cdf /= cdf[:, -1:]
    return cdf


def _inverse_cdf(cdf: np.ndarray, counts: np.ndarray, u: np.ndarray) -> np.ndarray:
    """Row-wise ``searchsorted(cdf[i], u, side='right')`` over (N, K) rows.

    Row i covers the next ``counts[i]`` entries of ``u``; each entry's
    result is the number of its row's cdf entries at or below it. The count
    goes column by column, so no (E, K) array is built.
    """
    out = np.zeros(u.size, dtype=np.int64)
    for column in cdf.T:
        out += np.repeat(column, counts) <= u
    return out


def _draw_labels(rng, concentration, offsets) -> np.ndarray:
    """Every client's labels: a Dirichlet row, then one uniform per example.

    Gamma(c) is G U^(1/c) for G ~ Gamma(c + 1) and U uniform (Marsaglia and
    Tsang's boost), so a client's class weights are drawn in log space from
    one (N, K) gamma block and one (N, K) uniform block, and scaled to a
    row maximum of 1: a tiny concentration cannot underflow a row to all
    zeros. A row every class of which overflows to -inf (concentrations
    below about 2e-307) is NaN and reported. One uniform block, read by
    ``_inverse_cdf``, then gives each example its class.
    """
    shape = (offsets.size - 1, concentration.size)
    log_weights = np.log(rng.standard_gamma(concentration + 1, size=shape))
    with np.errstate(over="ignore"):  # -inf: the weight underflows
        log_weights += np.log1p(-rng.random(shape)) / concentration
    with np.errstate(invalid="ignore"):  # an all -inf row becomes NaN
        log_weights -= log_weights.max(axis=1, keepdims=True)
    dist = np.exp(log_weights, out=log_weights)
    cdf = _cdf(dist)
    bad = np.flatnonzero(~np.isfinite(cdf).all(axis=1))
    if bad.size:
        raise NumericsError(
            f"client {bad[0]}: Dirichlet class distribution {dist[bad[0]].tolist()} "
            "is not a finite probability vector")
    return _inverse_cdf(cdf, np.diff(offsets), rng.random(offsets[-1]))


def generate_population(spec: PopulationSpec) -> ClientPartition:
    """Deterministic synthetic population; probe split is disjoint."""
    means = spec.mean_separation * generator(spec.seed, _STREAM_MEANS).normal(
        size=(spec.num_classes, spec.input_dim))
    counts = spec.examples_per_client.sample(
        generator(spec.seed, _STREAM_COUNTS), spec.num_clients)
    priors = np.asarray(spec.class_priors or [1.0 / spec.num_classes] * spec.num_classes)
    offsets = np.zeros(spec.num_clients + 1, dtype=np.int64)
    np.cumsum(counts, out=offsets[1:])
    labels = _draw_labels(generator(spec.seed, _STREAM_LABELS),
                          spec.label_skew_alpha * spec.num_classes * priors,
                          offsets)
    inputs = _draw_inputs(generator(spec.seed, _STREAM_INPUTS), means, labels, spec)

    probe_rng = generator(spec.seed, _STREAM_PROBE)
    probe_labels = _inverse_cdf(_cdf(priors[None, :]), np.array([spec.probe_size]),
                               probe_rng.random(spec.probe_size))
    probe_inputs = _draw_inputs(probe_rng, means, probe_labels, spec)
    return ClientPartition(inputs, labels, offsets,
                           Batch(probe_inputs, probe_labels), spec.num_classes)


@dataclass(frozen=True)
class PartitionStats:
    num_clients: int
    total_examples: int
    mean: float
    std: float  # population std (divide by n)
    min: int
    max: int
    class_histogram: tuple[int, ...]

    def to_json_obj(self) -> dict:
        return {
            "num_clients": self.num_clients,
            "total_examples": self.total_examples,
            "examples_per_client": {
                "mean": self.mean,
                "std": self.std,
                "min": self.min,
                "max": self.max,
            },
            "class_histogram": list(self.class_histogram),
        }

    def format_table(self) -> str:
        lines = [
            f"{'clients':>10}  {'examples':>10}  {'mean':>10}  {'std':>10}"
            f"  {'min':>8}  {'max':>8}",
            f"{self.num_clients:>10}  {self.total_examples:>10}"
            f"  {self.mean:>10.2f}  {self.std:>10.2f}"
            f"  {self.min:>8}  {self.max:>8}",
            "per-class counts: "
            + " ".join(str(c) for c in self.class_histogram),
        ]
        return "\n".join(lines)


def partition_stats(partition: ClientPartition) -> PartitionStats:
    counts = partition.sizes
    hist = np.bincount(partition.labels, minlength=partition.num_classes)
    return PartitionStats(
        num_clients=int(counts.size),
        total_examples=int(counts.sum()),
        mean=float(counts.mean()),
        std=float(counts.std()),
        min=int(counts.min()),
        max=int(counts.max()),
        class_histogram=tuple(int(h) for h in hist),
    )
