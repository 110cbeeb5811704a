"""Shared builders for engine and acceptance tests."""

import math
from dataclasses import dataclass
from typing import Optional

import numpy as np

from fldp import engine
from fldp.clipping import ClipSpec, ClipVariant
from fldp.data import CountSpec, PopulationSpec, generate_population
from fldp.dp import PrivacyParams, SigmaKind
from fldp.engine import (
    CentralConfig,
    CohortConfig,
    CohortMode,
    FederationConfig,
    LocalConfig,
    LocalMode,
)
from fldp.models import ModelKind, ModelSpec
from fldp.optimizers import OptimizerHyper, OptimizerKind, Schedule


def small_population(
    num_clients=12, num_classes=3, input_dim=4, count=10, seed=7, **kwargs
):
    spec = PopulationSpec(
        num_clients=num_clients,
        num_classes=num_classes,
        input_dim=input_dim,
        examples_per_client=CountSpec(count=count),
        probe_size=kwargs.pop("probe_size", 90),
        seed=seed,
        **kwargs,
    )
    return spec, generate_population(spec)


def linear_model(input_dim=4, num_classes=3):
    return ModelSpec(ModelKind.LINEAR_SOFTMAX, input_dim=input_dim,
                     num_classes=num_classes)


def make_config(
    population,
    num_rounds=5,
    cohort_size=4,
    cohort_rate=None,
    local_mode=LocalMode.STEPS,
    local_count=2,
    batch_size=8,
    local_lr=0.1,
    local_clip=1.0,
    clip_bound=0.1,
    clip_variant=ClipVariant.GLOBAL,
    clip_weights=None,
    sigma_client=0.0,
    fedprox_mu=0.0,
    optimizer=OptimizerKind.SGD,
    central_lr=0.5,
    schedule=None,
    hyper=None,
    noise_mask=None,
    seed=11,
    seed_model=None,
    delta=1e-6,
):
    n = population.num_clients
    if cohort_rate is not None:
        cohort = CohortConfig(CohortMode.BERNOULLI, rate=cohort_rate)
        privacy_kw = dict(sampling_rate=cohort_rate)
    else:
        cohort = CohortConfig(CohortMode.FIXED_SIZE, size=cohort_size)
        privacy_kw = dict(cohort_size=cohort_size)
    privacy = PrivacyParams(
        clip_bound=clip_bound,
        sigma=sigma_client,
        sigma_kind=SigmaKind.CLIENT,
        population=n,
        num_steps=num_rounds,
        delta=delta,
        **privacy_kw,
    )
    return FederationConfig(
        num_rounds=num_rounds,
        cohort=cohort,
        local=LocalConfig(
            mode=local_mode,
            count=local_count,
            batch_size=batch_size,
            lr=local_lr,
            clip_bound=local_clip,
        ),
        clip=ClipSpec(clip_bound, clip_variant, clip_weights),
        privacy=privacy,
        central=CentralConfig(
            optimizer=optimizer,
            schedule=schedule or Schedule(base_lr=central_lr),
            hyper=hyper or OptimizerHyper(),
        ),
        fedprox_mu=fedprox_mu,
        noise_mask=noise_mask,
        seed=seed,
        seed_model=seed_model,
    )


INF = math.inf


@dataclass
class RecordedRound:
    """A trained round's cohort and its raw and clipped (L, P) deltas."""

    round_index: int
    cohort_ids: list[int]
    deltas: np.ndarray
    clipped: Optional[np.ndarray] = None


def record_rounds(monkeypatch):
    """Every trained round of the runs that follow, in call order.

    Wraps ``engine.train_cohort`` for the round, cohort and deltas, and
    ``engine.clip_rows`` for the clip of those deltas; the local-SGD clips
    inside ``train_cohort`` see other rows and are skipped.
    """
    train_cohort, clip_rows = engine.train_cohort, engine.clip_rows
    rounds = []

    def recording_train_cohort(*args):
        deltas = train_cohort(*args)
        rounds.append(RecordedRound(args[5], list(args[6]), deltas))
        return deltas

    def recording_clip_rows(rows, *args, **kwargs):
        clipped_and_norms = clip_rows(rows, *args, **kwargs)
        if rounds and rows is rounds[-1].deltas:
            rounds[-1].clipped = clipped_and_norms[0]
        return clipped_and_norms

    monkeypatch.setattr(engine, "train_cohort", recording_train_cohort)
    monkeypatch.setattr(engine, "clip_rows", recording_clip_rows)
    return rounds
