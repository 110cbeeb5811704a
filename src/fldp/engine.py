"""The federated training loop with user-level differential privacy.

Each round: sample a cohort, run local SGD on every sampled client from the
round-start parameters, clip each client's delta (global or per-layer),
sum the clipped deltas in ascending client-id order, add one Gaussian draw
of std sigma_sum to the sum, divide it by the expected cohort size qN, and
hand the negated result to the central optimizer as its gradient estimate.
All randomness is drawn from per-purpose Philox streams seeded by (run
seed, stream tag, round[, client]), so a run is bitwise reproducible from
its seed. A round derives the Philox keys of its whole cohort at once
(``streams.cohort_keys``) for the minibatch draws and re-keys one
generator to each client's stream instead of building one per client. A
steps-mode cohort's minibatch indices come from its streams' raw words as
array operations (``streams.choice_rows``), bit for bit
``Generator.choice``. The noise comes from the round's own stream.

A round works on the whole cohort at once. Local training turns the
round-start parameters into an (L, P) delta matrix, one row per client in
ascending id order, and clipping and the per-layer norm statistics are
row-wise array operations on it. The sum is one ``np.add.reduce`` over the
rows, which adds them one at a time in ascending client-id order (P >= 2
for every model), so it does not depend on how the rows were computed.
The noise on the sum is sigma_sum and the denominator is qN whatever the
realized cohort size, so the released update is the mechanism the privacy
report accounts. The model crosses rounds as its flat parameter vector,
which the central optimizer takes and returns; a run builds a
``ParamTree`` only for its final parameters.

Local training runs either a fixed number of steps (independently sampled
minibatches) or a fixed number of epochs (shuffled passes whose last
minibatch is short). Each client draws all its minibatch indices up front
from its own stream; only this draw depends on the mode. Shifted by the
client's first row in the partition's flat example arrays, the indices
gather each step's minibatches straight from them. Sorted by
descending step count, the clients still training at any step are a prefix
of the rows, and that prefix takes the SGD step together in one batched
forward/backward pass, short minibatches padded by zero-weight rows. Every
minibatch gradient is globally clipped to the local bound before the SGD
step; with a FedProx weight mu > 0 the gradient first gains the proximal
pull mu * (theta - theta_round_start).

A run owns one ``models.Workspace``. Local training keeps the cohort's
parameter rows, the gathered minibatches and the proximal term in it, and
the model kernels their intermediates; the probe evaluation writes its
forward pass into the same arrays. Nothing in it outlives the run, and the
deltas a round hands on are new arrays.
"""

from __future__ import annotations

import logging
import math
from dataclasses import KW_ONLY, dataclass, fields, replace
from enum import Enum
from typing import Optional

import numpy as np

from . import accountant, models, streams
from .clipping import PER_LAYER_VARIANTS, ClipSpec, bound_vector, clip_rows
from .data import ClientPartition
from .dp import FULL_MASK, NoiseMask, PrivacyParams, add_noise, noise_multiplier
from .errors import ConfigError, NumericsError
from .models import ModelSpec
from .optimizers import (
    OptimizerHyper,
    OptimizerKind,
    Schedule,
    apply as opt_apply,
    init_state,
    lr_at,
)
from .param_tree import ParamTree, norm_rows
from .telemetry import LayerStats, RoundMetrics

logger = logging.getLogger(__name__)

# Stream tags: the second entry of every engine stream's entropy tuple.
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
            if self.size is None or self.size < 1 or self.rate is not None:
                raise ConfigError("fixed_size cohort needs size >= 1 and no rate")
        elif self.rate is None or not 0 < self.rate <= 1 or self.size is not None:
            raise ConfigError("bernoulli cohort needs rate in (0, 1] and no size")

    def privacy_args(self) -> dict:
        """The cohort's own PrivacyParams argument (size or rate), the other None."""
        return {"cohort_size": self.size, "sampling_rate": self.rate}


class LocalMode(str, Enum):
    EPOCHS = "epochs"
    STEPS = "steps"


@dataclass(frozen=True)
class LocalConfig:
    mode: LocalMode = LocalMode.STEPS
    _: KW_ONLY
    count: int = 1
    batch_size: int = 8
    lr: float
    clip_bound: float = 1.0  # per-minibatch global clip; inf disables

    def __post_init__(self):
        object.__setattr__(self, "mode", LocalMode(self.mode))
        if self.count < 1:
            raise ConfigError("local count must be >= 1")
        if self.batch_size < 1:
            raise ConfigError("local batch_size must be >= 1")
        if not 0.0 <= self.lr < math.inf:
            raise ConfigError(f"local lr must be finite and >= 0, got {self.lr}")
        if not self.clip_bound > 0:
            raise ConfigError("local clip_bound must be positive (inf disables)")


@dataclass(frozen=True)
class CentralConfig:
    optimizer: OptimizerKind = OptimizerKind.LAMB
    _: KW_ONLY
    schedule: Schedule
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
        if self.seed < 0:
            raise ConfigError(f"federation seed must be >= 0, got {self.seed}")
        if not 0.0 <= self.fedprox_mu < math.inf:
            raise ConfigError(
                f"fedprox_mu must be finite and >= 0, got {self.fedprox_mu}")


@dataclass
class SimulationResult:
    final_params: ParamTree
    metrics: list[RoundMetrics]
    privacy_report: dict


def sample_cohort(
    population_size: int, cohort: CohortConfig, round_index: int, seed: int
) -> list[int]:
    """Client ids for one round, ascending; deterministic in (seed, round)."""
    rng = streams.generator(seed, _STREAM_COHORT, round_index)
    if cohort.mode == CohortMode.FIXED_SIZE:
        if cohort.size > population_size:
            raise ConfigError(
                f"cohort size {cohort.size} exceeds population {population_size}"
            )
        ids = rng.choice(population_size, size=cohort.size, replace=False)
    else:
        ids = np.nonzero(rng.random(population_size) < cohort.rate)[0]
    return sorted(int(i) for i in ids)


def train_cohort(
    start: np.ndarray,
    population: ClientPartition,
    model_spec: ModelSpec,
    local: LocalConfig,
    fedprox_mu: float,
    round_index: int,
    client_ids: list[int],
    seed: int,
    ws: models.Workspace,
) -> np.ndarray:
    """(L, P) deltas of local SGD on L clients from the same start vector.

    Rows follow `client_ids`, each a client of `population` with at least
    one example. The start vector and the partition must already be
    validated against the model. The clients' parameters, minibatches and
    step intermediates live in the workspace; the deltas are a new array.
    """
    sizes = population.sizes[client_ids]
    keys = streams.cohort_keys(seed, _STREAM_LOCAL, round_index, client_ids)
    order, index = _draw_minibatches(sizes, local, keys)
    valid = index >= 0
    counts = valid.sum(axis=2)
    active = np.count_nonzero(counts, axis=1).tolist()
    # Padding rows repeat the client's first example with zero weight.
    np.maximum(index, 0, out=index)
    index += population.offsets[client_ids][order, None]
    clip, layout = ClipSpec(local.clip_bound), model_spec.layout()
    rows = ws.take("rows", (len(client_ids), start.size))
    rows[...] = start
    example = population.inputs.shape[1:]
    for s, k in enumerate(active):
        # Clients past the prefix have finished; their rows stay as they are.
        head, idx = rows[:k], index[s, :k]
        # The indices are in range; numpy's default mode would gather into a
        # temporary before copying to `out`.
        inputs = np.take(population.inputs, idx, axis=0, mode="clip",
                         out=ws.take("inputs", (*idx.shape, *example)))
        g = models.cohort_grad(model_spec, head, inputs, population.labels[idx],
                               counts[s, :k, None, None], valid[s, :k], ws)
        if fedprox_mu > 0.0:
            prox = np.subtract(head, start, out=ws.take("prox", head.shape))
            prox *= fedprox_mu
            g = np.add(prox, g, out=prox)
        # The gradient rows are dead once clipped: the step goes over them.
        step = clip_rows(g, layout, clip, out=g)[0]
        head += np.multiply(-local.lr, step, out=step)
    return (rows - start)[np.argsort(order)]


def _draw_minibatches(sizes, local: LocalConfig, keys: np.ndarray):
    """Every client's minibatch index sets, drawn up front from its own stream.

    Row i of `keys` is the Philox key of client i's stream. Returns the
    clients sorted by descending step count (stable) and their
    (S, L, B) index sets in that order, -1 marking padding. Each of the
    `count` passes is one draw: a minibatch in steps mode, a shuffled epoch
    cut into minibatches (the last one short) in epochs mode. Steps mode
    draws the whole cohort from raw stream words at once
    (`streams.choice_rows`, equal to `count` calls of
    `rng.choice(n, m, replace=False)` per client); epochs mode calls
    `rng.permutation`, whose masked rejection reads a variable number of
    words.
    """
    batch = local.batch_size
    epochs = local.mode == LocalMode.EPOCHS
    drawn = sizes if epochs else np.minimum(sizes, batch)
    width = -(-drawn // batch) * batch  # index slots of one pass
    order = np.argsort(-width, kind="stable")
    # A client's row holds its passes end to end.
    index = np.full((sizes.size, local.count * width.max()), -1, dtype=np.intp)
    if epochs:
        clients = zip(streams.keyed(keys[order]), sizes[order].tolist(),
                      width[order].tolist())
        for slot, (rng, n, w) in enumerate(clients):
            for p in range(local.count):
                index[slot, p * w : p * w + n] = rng.permutation(n)
    else:  # every pass is one minibatch of `batch` slots
        picked = streams.choice_rows(keys[order], sizes[order], drawn[order], local.count)
        index.reshape(sizes.size, local.count, batch)[:, :, : picked.shape[2]] = picked
    # Step-major, so each step's minibatches are contiguous.
    index = index.reshape(sizes.size, -1, batch).swapaxes(0, 1)
    return order, np.ascontiguousarray(index)


def _build_privacy_report(privacy: PrivacyParams, mask: NoiseMask,
                          layer_names, sampling: CohortMode) -> dict:
    """What the run released and its guarantee.

    ``sampling`` is the cohort scheme the engine ran; the accountant always
    treats it as Poisson sampling at ``sampling_rate`` under add/remove
    adjacency.
    """
    dp_valid = mask.covers(layer_names)
    report = {
        "clip_bound": privacy.clip_bound,
        "sigma_avg": privacy.sigma_avg,
        "sigma_client": privacy.sigma_client,
        "sigma_sum": privacy.sigma_sum,
        "sampling_rate": privacy.sampling_rate,
        "sampling": sampling.value,
        "accounted_as": "poisson",
        "adjacency": "add_remove",
        "population": privacy.population,
        "cohort_size": privacy.cohort_size,
        "num_steps": privacy.num_steps,
        "delta": privacy.delta,
        "dp_valid": dp_valid,
        "notes": [],
    }
    if sampling == CohortMode.FIXED_SIZE:
        report["notes"].append(
            "accounting assumes Poisson sampling at q = L/N even when the "
            "simulator fixes the cohort size")
    if privacy.num_steps == 0:
        report.update({"noise_multiplier": 0.0, "epsilon": 0.0, "best_order": None})
        return report
    if privacy.clip_bound == 0.0:
        # Every delta is zeroed before release, noised or not; nothing is revealed.
        report.update({"noise_multiplier": 0.0, "epsilon": 0.0, "best_order": None})
        return report
    if privacy.sigma == 0.0 or not math.isfinite(privacy.clip_bound):
        # No noise, or unbounded sensitivity: no meaningful guarantee.
        report.update(
            {"noise_multiplier": 0.0, "epsilon": "inf", "best_order": None}
        )
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
    # The accounted point, rebuilt from the values the engine runs with.
    ran = replace(
        cfg.privacy, clip_bound=cfg.clip.bound, population=population.num_clients,
        num_steps=cfg.num_rounds, **cfg.cohort.privacy_args(),
    )
    for field in fields(ran):
        stated, actual = getattr(cfg.privacy, field.name), getattr(ran, field.name)
        if stated != actual:
            raise ConfigError(
                f"privacy.{field.name} ({stated}) must equal {actual}, "
                "the value the engine runs"
            )
    # The partition holds every label below its num_classes and every
    # client's inputs to the probe's shape, so these two checks cover every
    # probe evaluation of the run and all the data local training uses.
    if population.num_classes != model_spec.num_classes:
        raise ConfigError("population and model disagree on num_classes")
    models.check_inputs(model_spec, population.probe.inputs)
    layout = model_spec.layout()
    cfg.noise_mask.validate_against(layout.names)
    if cfg.clip.variant in PER_LAYER_VARIANTS:
        bound_vector(cfg.clip, layout)  # raises on weights that miss the layout
    if cfg.seed_model is not None:
        layout.require_same(cfg.seed_model.layout)


def _require_finite(deltas: np.ndarray, t: int, cohort: list[int]) -> None:
    """Raise NumericsError naming the first client with a non-finite delta."""
    if np.isfinite(deltas).all():
        return
    first = int(np.nonzero(~np.isfinite(deltas).all(axis=1))[0][0])
    raise NumericsError(
        f"round {t}: client {cohort[first]} produced a non-finite delta "
        "(stage local_train)"
    )


def run_simulation(
    cfg: FederationConfig,
    population: ClientPartition,
    model_spec: ModelSpec,
) -> SimulationResult:
    """Run the configured number of rounds; fully deterministic in cfg.seed."""
    _validate(cfg, population, model_spec)
    params = (
        cfg.seed_model
        if cfg.seed_model is not None
        else models.init_params(model_spec, cfg.seed)
    ).flat
    layout = model_spec.layout()
    opt_state = init_state(cfg.central.optimizer, layout, cfg.central.hyper)
    sigma_sum, expected = cfg.privacy.sigma_sum, cfg.privacy.cohort_size
    # Accounted before round 1, so a query the accountant rejects trains nothing.
    report = _build_privacy_report(cfg.privacy, cfg.noise_mask, layout.names,
                                   cfg.cohort.mode)
    metrics: list[RoundMetrics] = []
    # Local training and the probe write their intermediates here, so after
    # the first rounds they reuse the same memory.
    workspace = models.Workspace()

    for t in range(1, cfg.num_rounds + 1):
        sampled = sample_cohort(population.num_clients, cfg.cohort, t, cfg.seed)
        nonempty = population.sizes[sampled] > 0
        for cid in np.compress(~nonempty, sampled).tolist():
            logger.warning("round %d: dropping empty client %d", t, cid)
        cohort = np.compress(nonempty, sampled).tolist()
        lr = lr_at(cfg.central.schedule, t)
        if cohort:
            deltas = train_cohort(params, population, model_spec, cfg.local,
                                  cfg.fedprox_mu, t, cohort, cfg.seed, workspace)
            _require_finite(deltas, t, cohort)
            clipped, _ = clip_rows(deltas, layout, cfg.clip)
            total = np.add.reduce(clipped, axis=0)
            noised = add_noise(total, layout, sigma_sum, cfg.noise_mask,
                               streams.generator(cfg.seed, _STREAM_NOISE, t))
            pseudo_grad = noised / expected
            prenoise_norm, postnoise_norm = norm_rows(
                np.stack([total / expected, pseudo_grad]), layout)[1].tolist()

            # The optimizer descends, so it receives the negated mean delta.
            params, opt_state = opt_apply(opt_state, params, -pseudo_grad, lr)
            layer_norms, row_norms = norm_rows(deltas, layout)
            preclip_mean = float(np.mean(row_norms))
            per_layer = {
                name: LayerStats(mean=float(col.mean()), std=float(col.std()))
                for name, col in zip(layout.names, layer_norms.T)
            }
        else:
            logger.warning("round %d: empty cohort, skipping update", t)
            preclip_mean = prenoise_norm = postnoise_norm = 0.0
            per_layer = {name: LayerStats(mean=0.0, std=0.0) for name in layout.names}

        probe_loss, probe_accuracy = models.evaluate(
            model_spec, params, population.probe, workspace
        )
        if not math.isfinite(probe_loss):
            raise NumericsError(f"round {t}: non-finite probe loss (stage probe)")
        metrics.append(RoundMetrics(
            t=t, loss=probe_loss, accuracy=probe_accuracy, lr=lr,
            cohort_size=len(cohort), cohort_ids=cohort,
            delta_norm_preclip_mean=preclip_mean,
            pseudograd_norm_prenoise=prenoise_norm,
            pseudograd_norm_postnoise=postnoise_norm, per_layer=per_layer,
        ))

    return SimulationResult(ParamTree(params, layout), metrics, report)

