"""Synthetic heterogeneous client populations.

Clients draw labels from a per-client class distribution sampled from a
symmetric Dirichlet (small concentration -> heavy label skew, large ->
near-uniform clients). Inputs are class-conditional Gaussians around fixed
per-class means so every model kind can learn the task. Example counts per
client follow a constant, log-normal, or Pareto-tail law; the heavy tail of
the power law reproduces the max/mean >> 1 signature of real per-user
data. A held-out probe split is generated alongside and never trained on.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from typing import Optional

import numpy as np

from .errors import ConfigError, StructureError
from .models import Batch
from .streams import generator

_STREAM_MEANS = 11
_STREAM_COUNTS = 12
_STREAM_LABELS = 13
_STREAM_INPUTS = 14
_STREAM_PROBE = 15
_STREAM_SHUFFLE = 16


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
        if self.label_skew_alpha <= 0:
            raise ConfigError("label_skew_alpha must be positive")
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
        if self.class_priors is not None:
            priors = tuple(float(p) for p in self.class_priors)
            if len(priors) != self.num_classes or any(p <= 0 for p in priors):
                raise ConfigError("class_priors must be positive, one per class")
            total = sum(priors)
            object.__setattr__(
                self, "class_priors", tuple(p / total for p in priors)
            )


@dataclass(frozen=True)
class ClientDataset:
    client_id: int
    data: Optional[Batch]  # None for an empty client (possible after shuffling)

    @property
    def num_examples(self) -> int:
        return 0 if self.data is None else self.data.size


@dataclass(frozen=True)
class ClientPartition:
    clients: tuple[ClientDataset, ...]
    probe: Batch
    num_classes: int

    def __post_init__(self):
        ids = [c.client_id for c in self.clients]
        if ids != list(range(len(ids))):
            raise ConfigError("client ids must be dense 0..N-1")
        # Validated once here, so training never re-checks a minibatch.
        batches = [c.data for c in self.clients if c.data is not None]
        shape = self.probe.inputs.shape[1:]
        for b in batches:
            if b.inputs.shape[1:] != shape:
                raise StructureError(
                    f"client inputs {b.inputs.shape[1:]} differ from probe "
                    f"inputs {shape}"
                )
        # Label maxima in chunks: one scan, no population-sized copy.
        top = max([int(self.probe.labels.max())] + [
            int(np.concatenate([b.labels for b in batches[lo : lo + 4096]]).max())
            for lo in range(0, len(batches), 4096)
        ])
        if top >= self.num_classes:
            raise StructureError("label out of range for num_classes")

    @property
    def num_clients(self) -> int:
        return len(self.clients)

    def total_examples(self) -> int:
        return sum(c.num_examples for c in self.clients)


def _draw_inputs(rng, means, labels, spec: PopulationSpec) -> np.ndarray:
    if spec.seq_len is None:
        shape = (labels.size, spec.input_dim)
        base = means[labels]
    else:
        shape = (labels.size, spec.seq_len, spec.input_dim)
        base = means[labels][:, None, :]
    level = np.asarray(spec.noise_level)  # scalar or per-dimension stds
    noise = rng.normal(0.0, 1.0, size=shape) * level
    return spec.input_scale * (base + noise)


def generate_population(spec: PopulationSpec) -> ClientPartition:
    """Deterministic synthetic population; probe split is disjoint."""
    means = (
        generator(spec.seed, _STREAM_MEANS).normal(
            size=(spec.num_classes, spec.input_dim)
        )
        * spec.mean_separation
    )
    counts = spec.examples_per_client.sample(
        generator(spec.seed, _STREAM_COUNTS), spec.num_clients
    )
    priors = np.asarray(
        spec.class_priors
        if spec.class_priors is not None
        else [1.0 / spec.num_classes] * spec.num_classes
    )
    label_rng = generator(spec.seed, _STREAM_LABELS)
    input_rng = generator(spec.seed, _STREAM_INPUTS)

    clients = []
    concentration = spec.label_skew_alpha * spec.num_classes * priors
    for cid in range(spec.num_clients):
        class_dist = label_rng.dirichlet(concentration)
        labels = label_rng.choice(spec.num_classes, size=counts[cid], p=class_dist)
        inputs = _draw_inputs(input_rng, means, labels, spec)
        clients.append(ClientDataset(cid, Batch(inputs, labels)))

    probe_rng = generator(spec.seed, _STREAM_PROBE)
    probe_labels = probe_rng.choice(spec.num_classes, size=spec.probe_size, p=priors)
    probe_inputs = _draw_inputs(probe_rng, means, probe_labels, spec)
    return ClientPartition(
        tuple(clients), Batch(probe_inputs, probe_labels), spec.num_classes
    )


def iid_shuffle(partition: ClientPartition, seed: int) -> ClientPartition:
    """Reassign every example to a uniformly random client id.

    The global example multiset (and the probe) is preserved exactly;
    clients left with no examples stay in the partition as empty clients.
    """
    stacks = [c.data for c in partition.clients if c.data is not None]
    if not stacks:
        raise ConfigError("cannot shuffle an empty partition")
    all_inputs = np.concatenate([b.inputs for b in stacks])
    all_labels = np.concatenate([b.labels for b in stacks])
    n_clients = partition.num_clients
    rng = generator(seed, _STREAM_SHUFFLE)
    assignment = rng.integers(0, n_clients, size=all_labels.size)

    clients = []
    for cid in range(n_clients):
        idx = np.nonzero(assignment == cid)[0]
        if idx.size == 0:
            clients.append(ClientDataset(cid, None))
        else:
            clients.append(
                ClientDataset(cid, Batch(all_inputs[idx], all_labels[idx]))
            )
    return ClientPartition(tuple(clients), partition.probe, partition.num_classes)


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
    counts = np.array([c.num_examples for c in partition.clients], dtype=np.int64)
    if counts.size == 0:
        raise ConfigError("partition has no clients")
    hist = np.zeros(partition.num_classes, dtype=np.int64)
    for c in partition.clients:
        if c.data is not None:
            hist += np.bincount(c.data.labels, minlength=partition.num_classes)
    return PartitionStats(
        num_clients=int(counts.size),
        total_examples=int(counts.sum()),
        mean=float(counts.mean()),
        std=float(counts.std()),
        min=int(counts.min()),
        max=int(counts.max()),
        class_histogram=tuple(int(h) for h in hist),
    )
