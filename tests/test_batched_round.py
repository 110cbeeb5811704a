"""The cohort-batched round against a plain per-client reference round.

The reference runs a round one client at a time through the single-client
model forms and the per-tree helpers of ``reference``: local SGD one minibatch
gradient at a time, then ``clip_tree`` per client, ``tree_sum`` over the
cohort, ``add_noise`` of std sigma_sum from the round's stream and the
division by the expected cohort size. Every round of a simulation is
recomputed from the engine's own round-start parameters and compared with
the engine's deltas, clipped deltas and noised mean.
"""

import numpy as np
import pytest
from reference import (
    add_noise,
    axpy,
    client_batches,
    clip_tree,
    grad,
    layer_norms,
    partition_from_batches,
    scale,
    sub,
    take,
    tree_sum,
)
from simtools import make_config, record_rounds

from fldp import engine
from fldp.clipping import ClipSpec, ClipVariant
from fldp.data import CountSpec, PopulationSpec, generate_population
from fldp.dp import FULL_MASK, NoiseMask
from fldp.engine import LocalMode, run_simulation
from fldp.models import ModelKind, ModelSpec
from fldp.optimizers import OptimizerKind
from fldp.param_tree import ParamTree

RTOL = 1e-12


def reference_local_train(global_params, client_data, model_spec, local,
                          fedprox_mu, round_index, client_id, seed):
    """Local SGD on one client, one minibatch gradient at a time."""
    rng = np.random.Generator(
        np.random.Philox(np.random.SeedSequence((seed, 2, round_index, client_id)))
    )
    n = client_data.labels.size
    params = global_params

    def one_step(batch, params):
        g = grad(model_spec, params, batch)
        if fedprox_mu > 0.0:
            g = axpy(fedprox_mu, sub(params, global_params), g)
        g = clip_tree(g, ClipSpec(local.clip_bound))
        return axpy(-local.lr, g, params)

    if local.mode == LocalMode.EPOCHS:
        for _ in range(local.count):
            order = rng.permutation(n)
            for start in range(0, n, local.batch_size):
                idx = order[start : start + local.batch_size]
                params = one_step(take(client_data, idx), params)
    else:
        drawn = min(local.batch_size, n)
        for _ in range(local.count):
            idx = rng.choice(n, size=drawn, replace=False)
            params = one_step(take(client_data, idx), params)
    return sub(params, global_params)


def assert_close(got, want):
    """Every layer within RTOL of the reference, relative to its norm."""
    errors = layer_norms(sub(got, want))
    scales = layer_norms(want)
    for name in want.names:
        assert errors[name] <= RTOL * scales[name], (name, errors[name], scales[name])


MODELS = {
    "linear": ModelSpec(ModelKind.LINEAR_SOFTMAX, input_dim=4, num_classes=3),
    "mlp": ModelSpec(ModelKind.MLP_LAYERNORM, input_dim=4, num_classes=3,
                     hidden_dim=5),
    "attention": ModelSpec(ModelKind.TINY_ATTENTION, input_dim=4, num_classes=3,
                           hidden_dim=4, seq_len=3),
}

# (model, clip variant, noised layers, Bernoulli rate or None, mode, mu)
CASES = {
    "linear-global": ("linear", ClipVariant.GLOBAL, None, None, LocalMode.STEPS, 0.0),
    "mlp-uniform-mask-prox": ("mlp", ClipVariant.PER_LAYER_UNIFORM, {"w1", "b2"},
                              None, LocalMode.STEPS, 0.5),
    "attention-dim-bernoulli": ("attention", ClipVariant.PER_LAYER_DIM, None, 0.5,
                                LocalMode.STEPS, 0.0),
    "mlp-weighted-bernoulli-prox": ("mlp", ClipVariant.PER_LAYER_WEIGHTED, None,
                                    0.5, LocalMode.STEPS, 0.2),
    "attention-uniform-epochs-prox": ("attention", ClipVariant.PER_LAYER_UNIFORM,
                                      None, None, LocalMode.EPOCHS, 0.1),
    "linear-dim-mask-epochs": ("linear", ClipVariant.PER_LAYER_DIM, {"b"}, None,
                               LocalMode.EPOCHS, 0.0),
}


def population_for(model, with_empty_clients):
    # Log-normal counts: many clients hold fewer examples than batch_size.
    spec = PopulationSpec(
        num_clients=14, num_classes=model.num_classes, input_dim=model.input_dim,
        examples_per_client=CountSpec(kind="lognormal", log_mean=1.6,
                                      log_sigma=0.8),
        seq_len=model.seq_len if model.kind == ModelKind.TINY_ATTENTION else None,
        probe_size=40, seed=5,
    )
    population = generate_population(spec)
    if not with_empty_clients:
        return population
    batches = [None if cid % 4 == 1 else b
               for cid, b in enumerate(client_batches(population))]
    return partition_from_batches(batches, population.probe, population.num_classes)


@pytest.mark.parametrize("case", list(CASES))
def test_batched_round_matches_per_client_reference(case, monkeypatch):
    kind, variant, noised_layers, rate, mode, mu = CASES[case]
    model = MODELS[kind]
    population = population_for(model, with_empty_clients=rate is not None)
    sizes = population.sizes.tolist()
    batches = client_batches(population)
    weights = None
    if variant == ClipVariant.PER_LAYER_WEIGHTED:
        weights = {name: 1.0 + i for i, name in enumerate(model.layout().names)}
    mask = FULL_MASK if noised_layers is None else NoiseMask(frozenset(noised_layers))
    cfg = make_config(
        population, num_rounds=3, cohort_size=6, cohort_rate=rate,
        local_mode=mode, local_count=3, batch_size=5, local_lr=0.3,
        local_clip=0.8, clip_bound=0.05, clip_variant=variant,
        clip_weights=weights, sigma_client=1e-2, fedprox_mu=mu,
        optimizer=OptimizerKind.ADAM, central_lr=0.05, noise_mask=mask,
    )

    # The optimizer sees each round's start parameters and negated mean.
    seen = []
    apply = engine.opt_apply

    def recording_apply(state, params, grad, lr):
        seen.append((ParamTree(params, state.layout), ParamTree(grad, state.layout)))
        return apply(state, params, grad, lr)

    monkeypatch.setattr(engine, "opt_apply", recording_apply)
    rounds = record_rounds(monkeypatch)
    run_simulation(cfg, population, model)

    assert len(seen) == len(rounds) == cfg.num_rounds
    covered, any_clipped = set(), False
    for (start, neg_mean), recorded in zip(seen, rounds):
        t = recorded.round_index
        want_clipped_rows = []
        for cid, delta, clipped in zip(recorded.cohort_ids, recorded.deltas,
                                       recorded.clipped):
            delta = ParamTree(delta, start.layout)
            clipped = ParamTree(clipped, start.layout)
            data = batches[cid]
            covered.add(sizes[cid] < cfg.local.batch_size)
            want = reference_local_train(start, data, model, cfg.local, mu, t,
                                         cid, cfg.seed)
            assert_close(delta, want)
            want_clipped = clip_tree(want, cfg.clip)
            assert_close(clipped, want_clipped)
            any_clipped |= clipped != delta
            want_clipped_rows.append(want_clipped)
        noised = add_noise(tree_sum(want_clipped_rows), cfg.privacy.sigma_sum,
                           mask, np.random.SeedSequence((cfg.seed, 3, t)))
        assert_close(neg_mean, scale(-1.0 / cfg.privacy.cohort_size, noised))
    # Both full minibatches and clients short of batch_size were trained,
    # and clipping scaled some deltas.
    assert covered == {True, False}
    assert any_clipped
    if rate is not None:
        sampled = {c for r in range(1, 4) for c in
                   engine.sample_cohort(population.num_clients, cfg.cohort, r,
                                        cfg.seed)}
        assert any(sizes[c] == 0 for c in sampled)
