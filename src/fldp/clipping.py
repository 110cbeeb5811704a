"""Global and per-layer L2 clipping of gradients and client deltas.

Global clipping scales the whole tree by min(1, bound/||tree||). The
per-layer variants split the budget across layers as per-layer bounds C_i
with sum(C_i^2) == bound^2, so the clipped tree still satisfies the global
bound:

* uniform:   C_i = bound / sqrt(K)
* dim:       C_i = bound * sqrt(D_i / sum_j D_j), D_i = layer size
* weighted:  C_i = bound * sqrt(a_i D_i / sum_j a_j D_j), a_i > 0

A zero-norm vector is already within any bound and is returned unchanged
(the scaling formula would divide by zero). Layers already within their
bound are passed through bitwise unchanged.

One implementation, ``clip_rows``, clips an (L, P) stack of flat vectors
row by row: a cohort's client deltas, or the minibatch gradients of local
SGD. A single vector is clipped as a one-row stack.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum
from typing import Mapping, Optional

import numpy as np

from .errors import ConfigError
from .param_tree import Layout, global_norm_rows, layer_norm_rows


class ClipVariant(str, Enum):
    GLOBAL = "global"
    PER_LAYER_UNIFORM = "uniform"
    PER_LAYER_DIM = "dim"
    PER_LAYER_WEIGHTED = "weighted"


PER_LAYER_VARIANTS = (
    ClipVariant.PER_LAYER_UNIFORM,
    ClipVariant.PER_LAYER_DIM,
    ClipVariant.PER_LAYER_WEIGHTED,
)


@dataclass(frozen=True)
class ClipSpec:
    bound: float
    variant: ClipVariant = ClipVariant.GLOBAL
    weights: Optional[Mapping[str, float]] = None

    def __post_init__(self):
        if self.bound < 0:
            raise ConfigError("clip bound must be >= 0")
        if self.variant == ClipVariant.PER_LAYER_WEIGHTED:
            if not self.weights:
                raise ConfigError("weighted clipping requires per-layer weights")
            if any(w <= 0 for w in self.weights.values()):
                raise ConfigError("clip weights must be positive")
        elif self.weights is not None:
            raise ConfigError(
                f"weights only apply to the weighted variant, not {self.variant.value}"
            )


def bound_vector(spec: ClipSpec, layout: Layout) -> list[float]:
    """Per-layer bounds C_i in layer order; sum C_i^2 = bound^2."""
    if spec.variant not in PER_LAYER_VARIANTS:
        raise ConfigError(f"{spec.variant.value} clipping has no per-layer bounds")
    if spec.variant == ClipVariant.PER_LAYER_UNIFORM:
        return [spec.bound / math.sqrt(len(layout.names))] * len(layout.names)
    if spec.variant == ClipVariant.PER_LAYER_DIM:
        total = float(layout.total)
        return [spec.bound * math.sqrt(size / total) for size in layout.sizes]
    missing = [n for n in layout.names if n not in spec.weights]
    if missing:
        raise ConfigError(f"weighted clipping is missing weights for {missing}")
    pairs = list(zip(layout.names, layout.sizes))
    total = sum(spec.weights[n] * size for n, size in pairs)
    return [spec.bound * math.sqrt(spec.weights[n] * size / total)
            for n, size in pairs]


# Rescaling by bound/norm can land a few ulp above the bound; treating norms
# within this relative slack as already clipped makes clipping idempotent at
# the bit level.
_NORM_SLACK = 1e-12


def _factors(norms: np.ndarray, bounds) -> np.ndarray:
    """bound/norm where a norm exceeds its bound, else exactly 1.0."""
    bounds = np.asarray(bounds, dtype=np.float64)
    scaled = ~((norms <= bounds * (1.0 + _NORM_SLACK)) | (norms == 0.0))
    safe = np.where(scaled, norms, 1.0)
    return np.where(scaled, bounds / safe, 1.0)


def clip_rows(
    rows: np.ndarray, layout: Layout, spec: ClipSpec, out=None
) -> tuple[np.ndarray, np.ndarray]:
    """Clip every row of an (L, P) stack with the configured variant.

    Returns the clipped stack and the (L, K) scale factor of every (row,
    layer); a factor of exactly 1.0 marks a unit passed through bitwise.
    When no unit is scaled the input stack itself is returned; otherwise
    the clipped stack is written to `out` when given, which may be `rows`.
    """
    num_layers = len(layout.names)
    if spec.variant == ClipVariant.GLOBAL:
        if math.isinf(spec.bound):
            return rows, np.ones((rows.shape[0], num_layers))
        per_row = _factors(global_norm_rows(rows, layout), spec.bound)
        factors = np.repeat(per_row[:, None], num_layers, axis=1)
        scale = per_row[:, None]
    else:
        factors = _factors(layer_norm_rows(rows, layout),
                           bound_vector(spec, layout))
        scale = np.repeat(factors, layout.sizes, axis=1)
    if np.all(factors == 1.0):
        return rows, factors
    return np.multiply(rows, scale, out=out), factors

