"""The federated training loop with user-level differential privacy.

Each round: sample a cohort, run local SGD on every sampled client from the
round-start parameters, clip each client's delta (global or per-layer),
add per-client Gaussian noise, average the processed deltas in ascending
client-id order, and hand the negated average to the central optimizer as
its gradient estimate. Clients train one after another in ascending id
order, and all randomness is drawn from per-purpose Philox streams keyed by
(run seed, stream tag, round, client), so a run is bitwise reproducible
from its seed.

Local training runs either a fixed number of epochs (full shuffled passes)
or a fixed number of steps (independently sampled minibatches). Every
minibatch gradient is globally clipped to the local bound before the SGD
step; with a FedProx weight mu > 0 the gradient first gains the proximal
pull mu * (theta - theta_round_start).
"""

from __future__ import annotations

import logging
import math
from dataclasses import dataclass
from enum import Enum
from typing import Optional

import numpy as np

from . import accountant, models
from .clipping import ClipSpec, clip_global, clip_tree
from .data import ClientPartition
from .dp import FULL_MASK, NoiseMask, PrivacyParams, add_noise, noise_multiplier
from .errors import ConfigError, NumericsError
from .models import Batch, ModelSpec
from .optimizers import (
    OptimizerHyper,
    OptimizerKind,
    Schedule,
    apply as opt_apply,
    init_state,
    lr_at,
)
from .param_tree import (
    ParamTree,
    axpy,
    global_norm,
    layer_norms,
    scale,
    sub,
    tree_mean,
)

logger = logging.getLogger(__name__)

# Stream tags for derived Philox seeds.
_STREAM_COHORT = 1
_STREAM_LOCAL = 2
_STREAM_NOISE = 3


class CohortMode(str, Enum):
    FIXED_SIZE = "fixed_size"
    BERNOULLI = "bernoulli"


@dataclass(frozen=True)
class CohortConfig:
    mode: CohortMode = CohortMode.FIXED_SIZE
    size: Optional[int] = None  # fixed_size
    rate: Optional[float] = None  # bernoulli

    def __post_init__(self):
        object.__setattr__(self, "mode", CohortMode(self.mode))
        if self.mode == CohortMode.FIXED_SIZE:
            if self.size is None or self.size < 1:
                raise ConfigError("fixed_size cohort needs size >= 1")
        else:
            if self.rate is None or not 0 < self.rate <= 1:
                raise ConfigError("bernoulli cohort needs rate in (0, 1]")


class LocalMode(str, Enum):
    EPOCHS = "epochs"
    STEPS = "steps"


@dataclass(frozen=True)
class LocalConfig:
    mode: LocalMode = LocalMode.STEPS
    count: int = 1
    batch_size: int = 8
    lr: float = 0.1
    clip_bound: float = 1.0  # per-minibatch global clip; inf disables

    def __post_init__(self):
        object.__setattr__(self, "mode", LocalMode(self.mode))
        if self.count < 1:
            raise ConfigError("local count must be >= 1")
        if self.batch_size < 1:
            raise ConfigError("local batch_size must be >= 1")
        if self.lr < 0:
            raise ConfigError("local lr must be >= 0")
        if self.clip_bound <= 0:
            raise ConfigError("local clip_bound must be positive (inf disables)")


@dataclass(frozen=True)
class CentralConfig:
    optimizer: OptimizerKind = OptimizerKind.LAMB
    schedule: Schedule = Schedule(base_lr=0.01)
    hyper: OptimizerHyper = OptimizerHyper()

    def __post_init__(self):
        object.__setattr__(self, "optimizer", OptimizerKind(self.optimizer))


@dataclass(frozen=True)
class FederationConfig:
    num_rounds: int
    cohort: CohortConfig
    local: LocalConfig
    clip: ClipSpec
    privacy: PrivacyParams
    central: CentralConfig
    fedprox_mu: float = 0.0
    noise_mask: NoiseMask = FULL_MASK
    seed: int = 0
    seed_model: Optional[ParamTree] = None

    def __post_init__(self):
        if self.num_rounds < 0:
            raise ConfigError("num_rounds must be >= 0")
        if self.fedprox_mu < 0:
            raise ConfigError("fedprox_mu must be >= 0")


@dataclass
class RoundMetrics:
    round_index: int
    cohort_ids: list[int]
    loss: float
    accuracy: float
    lr: float
    delta_norm_preclip_mean: float
    per_layer: dict[str, dict[str, float]]  # name -> {mean, std} of pre-clip norms
    pseudograd_norm_prenoise: float
    pseudograd_norm_postnoise: float


@dataclass
class RoundArchive:
    """Raw per-client deltas kept for telemetry cross-checks (test mode)."""

    round_index: int
    deltas: list[tuple[int, ParamTree]]
    clipped: list[tuple[int, ParamTree]]


@dataclass
class SimulationResult:
    final_params: ParamTree
    metrics: list[RoundMetrics]
    privacy_report: dict
    archives: Optional[list[RoundArchive]] = None


def _derived_seed(seed: int, stream: int, *path: int) -> np.random.SeedSequence:
    return np.random.SeedSequence((seed, stream, *path))


def sample_cohort(
    population_size: int, cohort: CohortConfig, round_index: int, seed: int
) -> list[int]:
    """Client ids for one round, ascending; deterministic in (seed, round)."""
    rng = np.random.Generator(
        np.random.Philox(_derived_seed(seed, _STREAM_COHORT, round_index))
    )
    if cohort.mode == CohortMode.FIXED_SIZE:
        if cohort.size > population_size:
            raise ConfigError(
                f"cohort size {cohort.size} exceeds population {population_size}"
            )
        ids = rng.choice(population_size, size=cohort.size, replace=False)
    else:
        ids = np.nonzero(rng.random(population_size) < cohort.rate)[0]
    return sorted(int(i) for i in ids)


def local_train(
    global_params: ParamTree,
    client_data: Batch,
    model_spec: ModelSpec,
    local: LocalConfig,
    fedprox_mu: float,
    round_index: int,
    client_id: int,
    seed: int,
) -> ParamTree:
    """Run local SGD and return final-minus-initial parameters."""
    rng = np.random.Generator(
        np.random.Philox(_derived_seed(seed, _STREAM_LOCAL, round_index, client_id))
    )
    n = client_data.size
    params = global_params

    def one_step(batch: Batch, params: ParamTree) -> ParamTree:
        g = models.grad(model_spec, params, batch)
        if fedprox_mu > 0.0:
            g = axpy(fedprox_mu, sub(params, global_params), g)
        g = clip_global(g, local.clip_bound)
        return axpy(-local.lr, g, params)

    if local.mode == LocalMode.EPOCHS:
        for _ in range(local.count):
            order = rng.permutation(n)
            for start in range(0, n, local.batch_size):
                idx = order[start : start + local.batch_size]
                params = one_step(client_data.take(idx), params)
    else:
        take = min(local.batch_size, n)
        for _ in range(local.count):
            idx = rng.choice(n, size=take, replace=False)
            params = one_step(client_data.take(idx), params)
    return sub(params, global_params)


def _build_privacy_report(privacy: PrivacyParams, mask: NoiseMask,
                          layer_names) -> dict:
    dp_valid = mask.covers(layer_names)
    report = {
        "clip_bound": privacy.clip_bound,
        "sigma_avg": privacy.sigma_avg,
        "sigma_client": privacy.sigma_client,
        "sigma_sum": privacy.sigma_sum,
        "sampling_rate": privacy.sampling_rate,
        "population": privacy.population,
        "cohort_size": privacy.cohort_size,
        "num_steps": privacy.num_steps,
        "delta": privacy.delta,
        "dp_valid": dp_valid,
        "notes": [
            "accounting assumes Poisson sampling at the stated rate even when "
            "the simulator fixes the cohort size",
        ],
    }
    if privacy.num_steps == 0:
        report.update({"noise_multiplier": 0.0, "epsilon": 0.0, "best_order": None})
        return report
    if privacy.sigma == 0.0 or not math.isfinite(privacy.clip_bound):
        # No noise, or unbounded sensitivity: no meaningful guarantee.
        report.update(
            {"noise_multiplier": 0.0, "epsilon": "inf", "best_order": None}
        )
        return report
    if privacy.clip_bound == 0.0:
        # Every delta is zeroed before release; nothing is revealed.
        report.update({"noise_multiplier": 0.0, "epsilon": 0.0, "best_order": None})
        return report
    z = noise_multiplier(privacy)
    eps, order = accountant.epsilon_for(
        z, privacy.sampling_rate, privacy.num_steps, privacy.delta
    )
    report.update(
        {
            "noise_multiplier": z,
            "sensitivity": privacy.sensitivity,
            "epsilon": eps,
            "best_order": order,
        }
    )
    if not dp_valid:
        report["notes"].append(
            "noise mask excludes layers: the stated epsilon does NOT hold"
        )
    return report


def _validate(cfg: FederationConfig, population: ClientPartition,
              model_spec: ModelSpec) -> None:
    if cfg.privacy.clip_bound != cfg.clip.bound:
        raise ConfigError(
            f"privacy.clip_bound ({cfg.privacy.clip_bound}) must equal "
            f"clip.bound ({cfg.clip.bound})"
        )
    if cfg.privacy.population != population.num_clients:
        raise ConfigError(
            f"privacy.population ({cfg.privacy.population}) must equal the "
            f"partition size ({population.num_clients})"
        )
    if cfg.privacy.num_steps != cfg.num_rounds:
        raise ConfigError(
            f"privacy.num_steps ({cfg.privacy.num_steps}) must equal "
            f"num_rounds ({cfg.num_rounds})"
        )
    if cfg.cohort.mode == CohortMode.FIXED_SIZE:
        if abs(cfg.privacy.cohort_size - cfg.cohort.size) > 1e-9:
            raise ConfigError(
                f"privacy.cohort_size ({cfg.privacy.cohort_size}) must equal "
                f"cohort.size ({cfg.cohort.size})"
            )
    else:
        if abs(cfg.privacy.sampling_rate - cfg.cohort.rate) > 1e-12:
            raise ConfigError(
                f"privacy.sampling_rate ({cfg.privacy.sampling_rate}) must "
                f"equal cohort.rate ({cfg.cohort.rate})"
            )
    if population.num_classes != model_spec.num_classes:
        raise ConfigError("population and model disagree on num_classes")
    cfg.noise_mask.validate_against(
        [name for name, _ in model_spec.layer_layout()]
    )
    if cfg.seed_model is not None:
        template = models.init_params(model_spec, 0)
        template.require_congruent(cfg.seed_model)


def _layer_norm_stats(deltas: list[ParamTree], names) -> dict:
    per_layer = {}
    norms = {name: [] for name in names}
    for d in deltas:
        for name, value in layer_norms(d).items():
            norms[name].append(value)
    for name in names:
        arr = np.asarray(norms[name])
        per_layer[name] = {"mean": float(arr.mean()), "std": float(arr.std())}
    return per_layer


def run_simulation(
    cfg: FederationConfig,
    population: ClientPartition,
    model_spec: ModelSpec,
    archive_deltas: bool = False,
) -> SimulationResult:
    """Run the configured number of rounds; fully deterministic in cfg.seed."""
    _validate(cfg, population, model_spec)
    params = (
        cfg.seed_model
        if cfg.seed_model is not None
        else models.init_params(model_spec, cfg.seed)
    )
    opt_state = init_state(cfg.central.optimizer, params, cfg.central.hyper)
    sigma_client = cfg.privacy.sigma_client
    metrics: list[RoundMetrics] = []
    archives: Optional[list[RoundArchive]] = [] if archive_deltas else None

    for t in range(1, cfg.num_rounds + 1):
        sampled = sample_cohort(population.num_clients, cfg.cohort, t, cfg.seed)
        cohort = [c for c in sampled if population.clients[c].num_examples > 0]
        for cid in set(sampled) - set(cohort):
            logger.warning("round %d: dropping empty client %d", t, cid)
        lr = lr_at(cfg.central.schedule, t)
        if not cohort:
            logger.warning("round %d: empty cohort, skipping update", t)
            metrics.append(_probe_only_metrics(t, lr, model_spec, params, population))
            continue

        deltas = [
            local_train(
                params,
                population.clients[cid].data,
                model_spec,
                cfg.local,
                cfg.fedprox_mu,
                t,
                cid,
                cfg.seed,
            )
            for cid in cohort
        ]
        clipped = [clip_tree(d, cfg.clip) for d in deltas]
        noised = [
            add_noise(
                d,
                sigma_client,
                cfg.noise_mask,
                _derived_seed(cfg.seed, _STREAM_NOISE, t, cid),
            )
            for cid, d in zip(cohort, clipped)
        ]
        mean_clipped = tree_mean(clipped)
        pseudo_grad = tree_mean(noised)

        # The optimizer descends, so it receives the negated mean delta.
        params, opt_state = opt_apply(opt_state, params, scale(-1.0, pseudo_grad), lr)

        probe_loss, probe_accuracy = models.evaluate(
            model_spec, params, population.probe
        )
        if not math.isfinite(probe_loss):
            raise NumericsError(f"round {t}: non-finite probe loss")
        metrics.append(
            RoundMetrics(
                round_index=t,
                cohort_ids=list(cohort),
                loss=probe_loss,
                accuracy=probe_accuracy,
                lr=lr,
                delta_norm_preclip_mean=float(
                    np.mean([global_norm(d) for d in deltas])
                ),
                per_layer=_layer_norm_stats(deltas, params.names),
                pseudograd_norm_prenoise=global_norm(mean_clipped),
                pseudograd_norm_postnoise=global_norm(pseudo_grad),
            )
        )
        if archive_deltas:
            archives.append(
                RoundArchive(t, list(zip(cohort, deltas)), list(zip(cohort, clipped)))
            )

    report = _build_privacy_report(cfg.privacy, cfg.noise_mask, params.names)
    return SimulationResult(params, metrics, report, archives)


def _probe_only_metrics(t, lr, model_spec, params, population) -> RoundMetrics:
    probe_loss, probe_accuracy = models.evaluate(model_spec, params, population.probe)
    return RoundMetrics(
        round_index=t,
        cohort_ids=[],
        loss=probe_loss,
        accuracy=probe_accuracy,
        lr=lr,
        delta_norm_preclip_mean=0.0,
        per_layer={name: {"mean": 0.0, "std": 0.0} for name in params.names},
        pseudograd_norm_prenoise=0.0,
        pseudograd_norm_postnoise=0.0,
    )
