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
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum
from typing import Mapping, Optional

import numpy as np

from .errors import ConfigError
from .param_tree import ParamTree, global_norm, vector_norm


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


def layer_bounds(spec: ClipSpec, tree: ParamTree) -> dict[str, float]:
    """Per-layer bounds C_i for a per-layer variant; sum C_i^2 = bound^2."""
    if spec.variant not in PER_LAYER_VARIANTS:
        raise ConfigError(f"{spec.variant.value} clipping has no per-layer bounds")
    if spec.variant == ClipVariant.PER_LAYER_UNIFORM:
        per = spec.bound / math.sqrt(len(tree))
        return {name: per for name in tree.names}
    if spec.variant == ClipVariant.PER_LAYER_DIM:
        total = float(tree.total_size)
        return {
            name: spec.bound * math.sqrt(arr.size / total)
            for name, arr in tree.items()
        }
    missing = [n for n in tree.names if n not in spec.weights]
    if missing:
        raise ConfigError(f"weighted clipping is missing weights for {missing}")
    total = sum(spec.weights[n] * a.size for n, a in tree.items())
    return {
        name: spec.bound * math.sqrt(spec.weights[name] * arr.size / total)
        for name, arr in tree.items()
    }


# Rescaling by bound/norm can land a few ulp above the bound; treating norms
# within this relative slack as already clipped makes clipping idempotent at
# the bit level.
_NORM_SLACK = 1e-12


def _clip_array(arr: np.ndarray, bound: float) -> np.ndarray:
    norm = vector_norm(arr)
    if norm <= bound * (1.0 + _NORM_SLACK) or norm == 0.0:
        return arr
    return arr * (bound / norm)


def clip_global(tree: ParamTree, bound: float) -> ParamTree:
    """tree * min(1, bound/||tree||); identity when already within bound."""
    if bound < 0:
        raise ConfigError("clip bound must be >= 0")
    if math.isinf(bound):
        return tree
    norm = global_norm(tree)
    if norm <= bound * (1.0 + _NORM_SLACK) or norm == 0.0:
        return tree
    factor = bound / norm
    return tree.replace(factor * a for a in tree.arrays())


def clip_per_layer(tree: ParamTree, spec: ClipSpec) -> ParamTree:
    """Clip each layer independently to its budget share C_i."""
    bounds = layer_bounds(spec, tree)
    return tree.replace(
        _clip_array(arr, bounds[name]) for name, arr in tree.items()
    )


def clip_tree(tree: ParamTree, spec: ClipSpec) -> ParamTree:
    """Apply the configured clipping variant."""
    if spec.variant == ClipVariant.GLOBAL:
        return clip_global(tree, spec.bound)
    return clip_per_layer(tree, spec)
