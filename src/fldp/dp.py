"""Gaussian mechanism on the cohort sum and the noise-parametrization algebra.

Three equivalent places to add the noise give three sigma conventions,
linked by the expected cohort size L = qN:

    sigma_client = sigma_avg * sqrt(L)      (L per-client draws, each)
    sigma_sum    = sigma_avg * L            (added to the un-normalized sum)

The simulator adds one draw of N(0, sigma_sum^2) to the sum of the
cohort's clipped deltas each round (``add_noise``, from the round's own
Philox stream) and divides the sum by the fixed L, the fixed-denominator
estimator of McMahan et al. (ICLR 2018). So the noise on the released
sum is sigma_sum whatever the realized cohort size, and the accountant's
noise multiplier z = sigma_avg / S with sensitivity S = C / (qN) is
z = sigma_sum / C.

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
    to_kind = SigmaKind(to_kind)
    diff = _SQRT_L_EXPONENT[to_kind] - _SQRT_L_EXPONENT[SigmaKind(from_kind)]
    root = math.sqrt(cohort_size)
    if diff == 0:
        converted = sigma
    elif diff == 1:
        converted = sigma * root
    elif diff == -1:
        converted = sigma / root
    elif diff == 2:
        converted = sigma * cohort_size
    else:
        converted = sigma / cohort_size
    if not math.isfinite(converted):
        raise ConfigError(f"sigma {sigma} as {to_kind.value} noise for cohort size "
                          f"{cohort_size} is not finite")
    return converted


@dataclass(frozen=True, kw_only=True)
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
    sigma: float = 0.0
    sigma_kind: SigmaKind = SigmaKind.AVG
    population: int
    num_steps: int
    delta: float = 1e-9
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
        # Converting to sigma_sum, the largest form, raises unless all are finite.
        self.sigma_sum
        if self.clip_bound > 0 and not math.isfinite(noise_multiplier(self)):
            raise ConfigError(
                f"noise multiplier sigma_avg / sensitivity = {self.sigma_avg} / "
                f"{self.sensitivity} is not finite"
            )

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


def add_noise(
    vector: np.ndarray,
    layout: Layout,
    sigma: float,
    mask: NoiseMask,
    rng: np.random.Generator,
) -> np.ndarray:
    """`vector` plus N(0, sigma^2) noise on the layers `mask` includes.

    The draws come from `rng` in layer order: one draw of P values under
    the full mask, one draw per included layer otherwise. Excluded layers
    pass through unchanged. Sigma 0 returns `vector` itself; otherwise the
    result is a new vector.
    """
    if sigma == 0.0:
        return vector
    if mask.included is None:
        return vector + rng.normal(0.0, sigma, size=layout.total)
    out = np.array(vector, dtype=np.float64, copy=True)
    for name, span in zip(layout.names, layout.slices):
        if mask.applies_to(name):
            out[span] += rng.normal(0.0, sigma, size=span.stop - span.start)
    return out
