"""Central/local optimizers and learning-rate schedules.

The local optimizer in the simulation loop is plain SGD (applied inline by
the engine); this module provides the central optimizer family (SGD, Adam,
AdaGrad, LARS, LAMB) plus the constant / exponential-decay / step-decay
schedules. ``apply`` is a pure function on flat vectors in the state's
``Layout``: each kind is a whole-vector expression, and it returns a fresh
parameter vector and state without mutating its inputs.

LARS and LAMB rescale each layer's update by the trust ratio
||theta_layer|| / ||update_layer||, repeated over the layer's entries; a
zero numerator or denominator pins the ratio to 1 so freshly
zero-initialized layers do not divide by zero.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from enum import Enum

import numpy as np

from .errors import ConfigError, StructureError
from .param_tree import Layout


class ScheduleKind(str, Enum):
    CONSTANT = "constant"
    EXPONENTIAL_DECAY = "exponential_decay"
    STEP_DECAY = "step_decay"


@dataclass(frozen=True)
class Schedule:
    base_lr: float
    kind: ScheduleKind = ScheduleKind.CONSTANT
    decay_start: int = 0
    decay_rate: float = 1.0
    transition_steps: int = 1

    def __post_init__(self):
        if not 0.0 < self.base_lr < math.inf:
            raise ConfigError(
                f"schedule base_lr must be finite and > 0, got {self.base_lr}")
        if not 0 < self.decay_rate <= 1:
            raise ConfigError("schedule decay_rate must be in (0, 1]")
        if self.transition_steps < 1:
            raise ConfigError("schedule transition_steps must be >= 1")


def lr_at(schedule: Schedule, step: int) -> float:
    """Learning rate at a step index (constant before decay_start)."""
    if step < 0:
        raise ValueError("step index must be >= 0")
    if schedule.kind == ScheduleKind.CONSTANT or step < schedule.decay_start:
        return schedule.base_lr
    progress = (step - schedule.decay_start) / schedule.transition_steps
    if schedule.kind == ScheduleKind.STEP_DECAY:
        progress = float(np.floor(progress))
    return schedule.base_lr * schedule.decay_rate**progress


class OptimizerKind(str, Enum):
    SGD = "sgd"
    ADAM = "adam"
    ADAGRAD = "adagrad"
    LARS = "lars"
    LAMB = "lamb"


@dataclass(frozen=True)
class OptimizerHyper:
    beta1: float = 0.9
    beta2: float = 0.999
    epsilon: float = 1e-6
    momentum: float = 0.0
    weight_decay: float = 0.0
    trust_clip: float = 0.0  # 0 disables clipping of the trust ratio

    def __post_init__(self):
        for name in ("beta1", "beta2"):
            if not 0.0 <= getattr(self, name) < 1.0:
                raise ConfigError(f"optimizer {name} must be in [0, 1)")
        for name in ("epsilon", "momentum", "weight_decay", "trust_clip"):
            if not 0.0 <= getattr(self, name) < math.inf:
                raise ConfigError(f"optimizer {name} must be finite and >= 0")


@dataclass(frozen=True)
class OptimizerState:
    kind: OptimizerKind
    hyper: OptimizerHyper
    layout: Layout
    step_count: int
    first_moment: np.ndarray
    second_moment: np.ndarray


def init_state(
    kind: OptimizerKind, layout: Layout, hyper: OptimizerHyper
) -> OptimizerState:
    zero = np.zeros(layout.total)
    return OptimizerState(kind, hyper, layout, 0, zero, zero)


def _trust_ratios(p: np.ndarray, direction: np.ndarray, layout: Layout,
                  clip: float) -> np.ndarray:
    """Per-layer trust ratios, each repeated over its layer's entries."""
    param_norms = np.array([np.linalg.norm(p[s]) for s in layout.slices])
    update_norms = np.array([np.linalg.norm(direction[s]) for s in layout.slices])
    trusted = (param_norms != 0.0) & (update_norms != 0.0)
    ratios = np.divide(param_norms, update_norms, out=np.ones_like(param_norms),
                       where=trusted)
    if clip > 0.0:
        ratios = np.where(trusted, np.minimum(ratios, clip), 1.0)
    return np.repeat(ratios, layout.sizes)


def apply(
    state: OptimizerState, p: np.ndarray, g: np.ndarray, lr: float
) -> tuple[np.ndarray, OptimizerState]:
    """One optimizer step on flat vectors; returns (new params, new state)."""
    if p.shape != (state.layout.total,) or g.shape != p.shape:
        raise StructureError(f"parameter {p.shape} and gradient {g.shape} vectors "
                             f"must match a layout of {state.layout.total} values")
    h = state.hyper
    t = state.step_count + 1
    m, v = state.first_moment, state.second_moment

    if state.kind == OptimizerKind.SGD:
        if h.momentum > 0.0:
            m = h.momentum * m + g
            step = m
        else:
            step = g
        new_p = p - lr * step
    elif state.kind == OptimizerKind.ADAGRAD:
        v = v + g * g
        new_p = p - lr * g / (np.sqrt(v) + h.epsilon)
    elif state.kind in (OptimizerKind.ADAM, OptimizerKind.LAMB):
        m = h.beta1 * m + (1.0 - h.beta1) * g
        v = h.beta2 * v + (1.0 - h.beta2) * g * g
        mhat = m / (1.0 - h.beta1**t)
        vhat = v / (1.0 - h.beta2**t)
        if state.kind == OptimizerKind.ADAM:
            new_p = p - lr * mhat / (np.sqrt(vhat) + h.epsilon)
        else:
            direction = mhat / (np.sqrt(vhat) + h.epsilon)
            if h.weight_decay > 0.0:
                direction = direction + h.weight_decay * p
            ratio = _trust_ratios(p, direction, state.layout, h.trust_clip)
            new_p = p - lr * ratio * direction
    elif state.kind == OptimizerKind.LARS:
        direction = g + h.weight_decay * p if h.weight_decay > 0.0 else g
        ratio = _trust_ratios(p, direction, state.layout, h.trust_clip)
        if h.momentum > 0.0:
            m = h.momentum * m + ratio * direction
            step = m
        else:
            step = ratio * direction
        new_p = p - lr * step
    else:  # pragma: no cover - enum is exhaustive
        raise ConfigError(f"unknown optimizer kind {state.kind!r}")

    return new_p, replace(state, step_count=t, first_moment=m, second_moment=v)
