"""Gaussian mechanism on client deltas and the noise-parametrization algebra.

Three equivalent places to add the noise give three sigma conventions,
linked by the cohort size L:

    sigma_client = sigma_avg * sqrt(L)      (added to every client delta)
    sigma_sum    = sigma_avg * L            (added to the un-normalized sum)

The simulator adds noise per client before averaging (sigma_client): each
row of the cohort's (L, P) stack of clipped deltas draws from its client's
own Philox stream (``add_noise_rows``). The accountant consumes the noise
multiplier z = sigma_avg / S with sensitivity S = C / (qN); with the
expected cohort L = qN this is z = sigma_avg * L / C.

A NoiseMask restricts noise to a subset of layers for ablation runs; any
partial mask invalidates the DP guarantee and must be surfaced as
dp_valid = False in reports.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum
from typing import Optional

import numpy as np

from .errors import ConfigError, StructureError
from .param_tree import Layout
from .streams import keyed


class SigmaKind(str, Enum):
    CLIENT = "client"
    AVG = "avg"
    SUM = "sum"


# Exponent of sqrt(L) relating each parametrization to sigma_avg.
_SQRT_L_EXPONENT = {SigmaKind.AVG: 0, SigmaKind.CLIENT: 1, SigmaKind.SUM: 2}


def convert_noise(
    sigma: float, from_kind: SigmaKind, to_kind: SigmaKind, cohort_size: float
) -> float:
    """Convert sigma between the client/avg/sum parametrizations."""
    if not sigma >= 0:
        raise ConfigError(f"sigma must be >= 0, got {sigma}")
    if not (math.isfinite(cohort_size) and cohort_size >= 1):
        raise ConfigError(f"cohort size must be finite and >= 1, got {cohort_size}")
    diff = _SQRT_L_EXPONENT[SigmaKind(to_kind)] - _SQRT_L_EXPONENT[SigmaKind(from_kind)]
    if diff == 0:
        return sigma
    root = math.sqrt(cohort_size)
    if diff == 1:
        return sigma * root
    if diff == -1:
        return sigma / root
    if diff == 2:
        return sigma * cohort_size
    return sigma / cohort_size


@dataclass(frozen=True)
class PrivacyParams:
    """User-level DP configuration and the derived accounting quantities.

    At least one of sampling_rate / cohort_size is given; an omitted one is
    derived from the population size. A config gives exactly one, the one
    its cohort owns (``CohortConfig.privacy_args``), and ``run_simulation``
    rejects any point other than the one it runs. Giving both serves only
    ``fldp accountant`` (as when copying a published table row where q is
    printed rounded): they are cross-checked to 2% and the cohort size is
    authoritative for the sensitivity.
    """

    clip_bound: float
    sigma: float
    population: int
    num_steps: int
    delta: float
    sigma_kind: SigmaKind = SigmaKind.AVG
    sampling_rate: Optional[float] = None
    cohort_size: Optional[float] = None

    def __post_init__(self):
        if not self.clip_bound >= 0:
            raise ConfigError(f"privacy clip_bound must be >= 0, got {self.clip_bound}")
        if not self.sigma >= 0:
            raise ConfigError(f"privacy sigma must be >= 0, got {self.sigma}")
        if self.population < 1:
            raise ConfigError("population must be >= 1")
        if self.num_steps < 0:
            raise ConfigError("num_steps must be >= 0")
        if not 0 < self.delta < 1:
            raise ConfigError("delta must be in (0, 1)")
        object.__setattr__(self, "sigma_kind", SigmaKind(self.sigma_kind))
        q, size = self.sampling_rate, self.cohort_size
        if q is None and size is None:
            raise ConfigError("need sampling_rate or cohort_size")
        if q is None:
            q = size / self.population
        if size is None:
            size = q * self.population
        if not 0 < q <= 1:
            raise ConfigError("sampling_rate must be in (0, 1]")
        if not 1 <= size <= self.population:
            raise ConfigError("cohort_size must be in [1, population]")
        if abs(size - q * self.population) > 0.02 * size:
            raise ConfigError(
                f"cohort_size {size} and sampling_rate {q} disagree for "
                f"population {self.population}"
            )
        object.__setattr__(self, "sampling_rate", float(q))
        object.__setattr__(self, "cohort_size", float(size))

    @property
    def sigma_avg(self) -> float:
        return convert_noise(self.sigma, self.sigma_kind, SigmaKind.AVG,
                             self.cohort_size)

    @property
    def sigma_client(self) -> float:
        return convert_noise(self.sigma, self.sigma_kind, SigmaKind.CLIENT,
                             self.cohort_size)

    @property
    def sigma_sum(self) -> float:
        return convert_noise(self.sigma, self.sigma_kind, SigmaKind.SUM,
                             self.cohort_size)

    @property
    def sensitivity(self) -> float:
        """S = C / (qN), with qN taken as the expected cohort size."""
        if self.clip_bound == 0:
            raise ConfigError("sensitivity undefined for clip_bound == 0")
        return self.clip_bound / self.cohort_size


def noise_multiplier(params: PrivacyParams) -> float:
    """z = sigma_avg / S = sigma_avg * qN / C."""
    if params.sampling_rate == 0:
        raise ConfigError("noise multiplier undefined for sampling_rate == 0")
    return params.sigma_avg / params.sensitivity


@dataclass(frozen=True)
class NoiseMask:
    """Layers that receive noise; None means all layers (valid DP)."""

    included: Optional[frozenset[str]] = None

    def __post_init__(self):
        if self.included is not None:
            object.__setattr__(self, "included", frozenset(self.included))

    def covers(self, layer_names) -> bool:
        return self.included is None or set(layer_names) <= self.included

    def applies_to(self, name: str) -> bool:
        return self.included is None or name in self.included

    def validate_against(self, layer_names) -> None:
        if self.included is None:
            return
        unknown = self.included - set(layer_names)
        if unknown:
            raise StructureError(f"noise mask names unknown layers {sorted(unknown)}")


FULL_MASK = NoiseMask()


def add_noise_rows(
    rows: np.ndarray,
    layout: Layout,
    sigma_client: float,
    mask: NoiseMask,
    keys: np.ndarray,
) -> np.ndarray:
    """Noise row i of an (L, P) stack from the Philox stream keyed by keys[i].

    `keys` is an (L, 2) uint64 array of Philox keys, as
    ``streams.cohort_keys`` derives them. One generator is re-keyed to
    each row's stream, which draws what a fresh generator with that key
    would. Each row draws N(0, sigma_client^2) for its included layers in
    layer order: one draw of P values under the full mask, one draw per
    included layer otherwise. Excluded layers are passed through unchanged.
    Returns a new stack.
    """
    if mask.included is None:
        spans = [slice(0, layout.total)]
    else:
        spans = [span for name, span in zip(layout.names, layout.slices)
                 if mask.applies_to(name)]
    out = np.array(rows, dtype=np.float64, copy=True)
    for row, rng in zip(out, keyed(keys)):
        for span in spans:
            row[span] += rng.normal(0.0, sigma_client, size=span.stop - span.start)
    return out

