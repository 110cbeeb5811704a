import math
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from reference import (
    add_noise,
    axpy,
    client_batches,
    clip_tree,
    global_norm,
    grad,
    local_batches,
    partition_from_batches,
    scale,
    sub,
    take,
    sum_rows,
    tree_sum,
    zeros_like,
)
from simtools import INF, linear_model, make_config, record_rounds, small_population

from fldp import accountant, clipping, engine, models
from fldp.clipping import ClipSpec, ClipVariant
from fldp.data import (
    Batch,
    CountSpec,
    PopulationSpec,
    generate_population,
)
from fldp.engine import (
    CohortConfig,
    CohortMode,
    LocalConfig,
    LocalMode,
    run_simulation,
    sample_cohort,
    train_cohort,
)
from fldp.errors import ConfigError, NumericsError
from fldp.optimizers import OptimizerKind
from fldp.param_tree import ParamTree
from fldp.streams import generator
from fldp.telemetry import LayerStats


# -- cohort sampling -----------------------------------------------------------


def test_fixed_size_cohort_distinct_ids_in_range():
    for rnd in range(5):
        ids = sample_cohort(100, CohortConfig(CohortMode.FIXED_SIZE, size=8), rnd, 3)
        assert len(ids) == 8
        assert len(set(ids)) == 8
        assert all(0 <= i < 100 for i in ids)
        assert ids == sorted(ids)


def test_bernoulli_rate_one_selects_everyone():
    ids = sample_cohort(50, CohortConfig(CohortMode.BERNOULLI, rate=1.0), 1, 3)
    assert ids == list(range(50))


def test_cohort_deterministic_in_seed_and_round():
    cfg = CohortConfig(CohortMode.FIXED_SIZE, size=5)
    assert sample_cohort(40, cfg, 2, 9) == sample_cohort(40, cfg, 2, 9)
    assert sample_cohort(40, cfg, 2, 9) != sample_cohort(40, cfg, 3, 9)


def test_bernoulli_mean_cohort_matches_expectation():
    # Population and rate of the desk-scale accounting setting: expectation
    # 0.0295 * 34753 = 1025.2; Monte Carlo over 200 rounds within 3%.
    cfg = CohortConfig(CohortMode.BERNOULLI, rate=0.0295)
    sizes = [len(sample_cohort(34_753, cfg, r, 17)) for r in range(200)]
    assert np.mean(sizes) == pytest.approx(1025.2, rel=0.03)


def test_cohort_larger_than_population_rejected():
    with pytest.raises(ConfigError):
        sample_cohort(4, CohortConfig(CohortMode.FIXED_SIZE, size=8), 0, 0)


# -- local training -------------------------------------------------------------


def setup_local():
    _, population = small_population()
    model = linear_model()
    params = models.init_params(model, 3)
    return population, model, params


def test_zero_lr_gives_zero_delta():
    population, model, params = setup_local()
    local = LocalConfig(LocalMode.STEPS, count=4, batch_size=4, lr=0.0)
    delta = ParamTree(train_cohort(
        params.flat, population, model, local, 0.0, 1, [0], 5, models.Workspace())[0],
        params.layout)
    assert delta == zeros_like(params)


def test_single_full_batch_step_is_one_sgd_step():
    population, model, params = setup_local()
    client = client_batches(population)[2]
    eta = 0.07
    local = LocalConfig(
        LocalMode.STEPS, count=1, batch_size=client.labels.size, lr=eta, clip_bound=INF
    )
    delta = ParamTree(
        train_cohort(params.flat, population, model, local, 0.0, 1, [2], 5,
                     models.Workspace())[0], params.layout)
    expected = scale(-eta, grad(model, params, client))
    for (_, a), (_, b) in zip(delta.items(), expected.items()):
        np.testing.assert_allclose(a, b, rtol=1e-9, atol=1e-15)


def test_local_train_matches_plain_sgd_oracle():
    # Reimplement the epochs-mode loop directly; mu=0 must agree bitwise.
    population, model, params = setup_local()
    client = client_batches(population)[1]
    local = LocalConfig(LocalMode.EPOCHS, count=2, batch_size=4, lr=0.05,
                        clip_bound=0.5)
    delta = ParamTree(
        train_cohort(params.flat, population, model, local, 0.0, 7, [1], 13,
                     models.Workspace())[0], params.layout)

    theta = params
    for idx in local_batches(13, 7, 1, client.labels.size, local):
        g = clip_tree(grad(model, theta, take(client, idx)), ClipSpec(0.5))
        theta = axpy(-0.05, g, theta)
    assert delta == sub(theta, params)


def test_steps_mode_uses_requested_number_of_batches():
    population, model, params = setup_local()
    # With lr > 0 each extra step moves the parameters further.
    deltas = []
    for count in (1, 3):
        local = LocalConfig(LocalMode.STEPS, count=count, batch_size=4, lr=0.1)
        deltas.append(
            global_norm(ParamTree(
                train_cohort(params.flat, population, model, local, 0.0, 1, [0], 5,
                             models.Workspace())[0], params.layout))
        )
    assert deltas[1] > deltas[0]


def test_fedprox_zero_is_bitwise_baseline_and_norms_shrink_with_mu():
    population, model, params = setup_local()
    # lr small enough that local training is contractive (no overshoot),
    # so the proximal pull strictly shrinks the delta.
    local = LocalConfig(LocalMode.EPOCHS, count=3, batch_size=5, lr=0.05,
                        clip_bound=INF)

    def run(mu):
        return ParamTree(
            train_cohort(params.flat, population, model, local, mu, 2, [3], 21,
                         models.Workspace())[0], params.layout)

    baseline = run(0.0)
    assert run(0.0) == baseline  # deterministic
    norms = [global_norm(run(mu)) for mu in (0.0, 0.1, 10.0)]
    assert norms[0] > norms[1] > norms[2]


def test_epochs_round_makes_one_gradient_call_per_step_index(monkeypatch):
    # Clients with unequal step counts still step together: a round makes
    # max_i(count * ceil(n_i / B)) batched gradient calls, not their sum.
    population = generate_population(PopulationSpec(
        num_clients=12, num_classes=3, input_dim=4,
        examples_per_client=CountSpec(kind="lognormal", log_mean=2.0,
                                      log_sigma=0.8),
        probe_size=30, seed=7,
    ))
    cohort_grad = models.cohort_grad
    calls = 0

    def counting_grad(*args):
        nonlocal calls
        calls += 1
        return cohort_grad(*args)

    monkeypatch.setattr(models, "cohort_grad", counting_grad)
    cfg = make_config(population, num_rounds=3, cohort_size=6,
                      local_mode=LocalMode.EPOCHS, local_count=2, batch_size=4)
    result = run_simulation(cfg, population, linear_model())
    steps = [[2 * math.ceil(population.sizes[c] / 4)
              for c in m.cohort_ids] for m in result.metrics]
    assert all(len(set(s)) > 1 for s in steps)
    assert calls == sum(max(s) for s in steps)


# -- run_simulation ---------------------------------------------------------------


def test_zero_rounds_returns_initial_state():
    _, population = small_population()
    model = linear_model()
    cfg = make_config(population, num_rounds=0)
    result = run_simulation(cfg, population, model)
    assert result.metrics == []
    assert result.privacy_report["epsilon"] == 0.0
    assert result.final_params == models.init_params(model, cfg.seed)


def test_seed_model_used_as_starting_point(monkeypatch):
    _, population = small_population()
    model = linear_model()
    seed_model = models.init_params(model, 999)
    cfg = make_config(population, num_rounds=0, seed_model=seed_model)

    def no_init(*args):
        raise AssertionError("a run from a seed model draws no initial model")

    # The seed model is checked against the model's layout, not a drawn model.
    monkeypatch.setattr(models, "init_params", no_init)
    result = run_simulation(cfg, population, model)
    assert result.final_params == seed_model


def test_config_inconsistencies_rejected_before_round_one():
    _, population = small_population()
    model = linear_model()
    cfg = make_config(population)
    object.__setattr__(cfg.privacy, "clip_bound", 0.5)  # desync privacy vs clip
    with pytest.raises(ConfigError, match="privacy.clip_bound"):
        run_simulation(cfg, population, model)

    cfg2 = make_config(population)
    object.__setattr__(cfg2.privacy, "population", population.num_clients + 1)
    with pytest.raises(ConfigError, match="privacy.population"):
        run_simulation(cfg2, population, model)

    cfg3 = make_config(population)
    object.__setattr__(cfg3.privacy, "num_steps", cfg3.num_rounds + 1)
    with pytest.raises(ConfigError, match="privacy.num_steps"):
        run_simulation(cfg3, population, model)


@pytest.mark.parametrize("cohort, stated, field", [
    # Within PrivacyParams' 2% window, yet not the point the engine runs.
    (dict(cohort_size=5), dict(sampling_rate=0.252), "sampling_rate"),
    (dict(cohort_rate=0.25), dict(cohort_size=5.1), "cohort_size"),
], ids=["fixed_size", "bernoulli"])
def test_off_mechanism_privacy_point_rejected(cohort, stated, field):
    _, population = small_population(num_clients=20)
    cfg = make_config(population, num_rounds=3, sigma_client=0.5, **cohort)
    cfg = replace(cfg, privacy=replace(cfg.privacy, **stated))
    with pytest.raises(ConfigError, match=rf"privacy\.{field} \("):
        run_simulation(cfg, population, linear_model())


def test_fedsgd_equivalence_with_centralized_gd():
    # Full participation, one local full-batch step, no clipping, no noise,
    # central SGD at lr 1: identical to centralized full-batch GD with the
    # local learning rate.
    _, population = small_population(num_clients=6, count=10, seed=3)
    model = linear_model()
    eta = 0.05
    cfg = make_config(
        population,
        num_rounds=50,
        cohort_size=6,
        local_mode=LocalMode.STEPS,
        local_count=1,
        batch_size=10,
        local_lr=eta,
        local_clip=INF,
        clip_bound=INF,
        sigma_client=0.0,
        optimizer=OptimizerKind.SGD,
        central_lr=1.0,
    )
    result = run_simulation(cfg, population, model)

    full = Batch(population.inputs, population.labels)
    theta = models.init_params(model, cfg.seed)
    for _ in range(50):
        theta = axpy(-eta, grad(model, theta, full), theta)

    for (_, a), (_, b) in zip(result.final_params.items(), theta.items()):
        np.testing.assert_allclose(a, b, rtol=1e-9, atol=1e-12)


def test_noised_mean_matches_clip_then_noise_oracle(monkeypatch):
    # Recompute every round's noised mean from the recorded raw deltas:
    # clip each, sum in ascending client-id order, noise the sum from the
    # round's own (seed, 3, round) stream and divide by qN. Pins the order
    # and the noise stream in the code that runs.
    _, population = small_population(num_clients=10)
    model = linear_model()
    cfg = make_config(population, num_rounds=4, cohort_size=5, sigma_client=1e-3,
                      clip_bound=0.05, clip_variant=ClipVariant.PER_LAYER_UNIFORM)
    rounds = record_rounds(monkeypatch)
    result = run_simulation(cfg, population, model)
    layout = result.final_params.layout
    for recorded, m in zip(rounds, result.metrics):
        clipped = [clip_tree(ParamTree(d, layout), cfg.clip) for d in recorded.deltas]
        noised = add_noise(tree_sum(clipped), cfg.privacy.sigma_sum, cfg.noise_mask,
                           np.random.SeedSequence((cfg.seed, 3, recorded.round_index)))
        mean = ParamTree(noised.flat / cfg.privacy.cohort_size, layout)
        assert global_norm(mean) == m.pseudograd_norm_postnoise
        assert m.pseudograd_norm_postnoise != m.pseudograd_norm_prenoise


def with_empty_clients(population):
    """The partition with clients 1, 5, 9, ... emptied."""
    batches = [None if cid % 4 == 1 else b
               for cid, b in enumerate(client_batches(population))]
    return partition_from_batches(batches, population.probe, population.num_classes)


@pytest.mark.parametrize(
    "cohort", [dict(cohort_rate=0.5), dict(cohort_size=6), dict(cohort_rate=0.1)],
    ids=["bernoulli", "fixed-drops-empty", "bernoulli-empty-rounds"])
def test_pseudo_gradient_is_the_noised_sum_over_the_expected_cohort(cohort, monkeypatch):
    # (sum of the clipped rows in ascending id order + one N(0, sigma_sum^2)
    # draw from the round's stream) / qN, bit for bit, in every round, also
    # when the realized cohort is not qN. The noise on the sum is then
    # sigma_sum = z * C whatever the cohort, so the report's z is the run's.
    # A round whose cohort is empty releases the draw alone over qN.
    _, population = small_population(num_clients=12)
    population = with_empty_clients(population)
    cfg = make_config(population, num_rounds=5, sigma_client=1e-3, clip_bound=0.05,
                      **cohort)
    grads = []
    apply = engine.opt_apply

    def recording_apply(state, params, grad, lr):
        grads.append(grad)
        return apply(state, params, grad, lr)

    monkeypatch.setattr(engine, "opt_apply", recording_apply)
    rounds = record_rounds(monkeypatch)
    result = run_simulation(cfg, population, linear_model())

    sigma_sum, expected = cfg.privacy.sigma_sum, cfg.privacy.cohort_size
    assert len(grads) == len(rounds) == cfg.num_rounds
    for grad, recorded, m in zip(grads, rounds, result.metrics):
        noise = generator(cfg.seed, 3, recorded.round_index).normal(
            0.0, sigma_sum, grad.size)
        want = sum_rows(recorded.clipped) + noise if recorded.cohort_ids else noise
        want /= expected
        assert (-grad).tobytes() == want.tobytes()
        if not recorded.cohort_ids:
            assert m.cohort_size == 0
            assert m.delta_norm_preclip_mean == m.pseudograd_norm_prenoise == 0.0
            assert m.pseudograd_norm_postnoise > 0.0
            assert all(s == LayerStats(mean=0.0, std=0.0) for s in m.per_layer.values())
    # Some round's realized cohort is not qN; at rate 0.1 rounds 1-3 are empty.
    assert any(len(r.cohort_ids) != expected for r in rounds)
    if cohort.get("cohort_rate") == 0.1:
        assert [m.t for m in result.metrics if m.cohort_size == 0] == [1, 2, 3]
    z = result.privacy_report["noise_multiplier"]
    assert sigma_sum / cfg.clip.bound == pytest.approx(z, rel=1e-12)


@settings(derandomize=True, database=None, max_examples=200, deadline=None)
@given(num_rows=st.integers(1, 40), width=st.integers(2, 200),
       seed=st.integers(0, 2**32 - 1))
def test_cohort_sum_adds_the_rows_in_order(num_rows, width, seed):
    # With P >= 2 numpy's reduction over axis 0 adds whole rows in sequence,
    # bit for bit the engine's ascending client-id loop. Rows of very
    # different magnitudes make any other order show in the last bits.
    rng = np.random.default_rng(seed)
    rows = rng.normal(size=(num_rows, width)) * 10.0 ** rng.uniform(-8, 8, (num_rows, 1))
    assert np.add.reduce(rows, axis=0).tobytes() == sum_rows(rows).tobytes()


def test_post_clip_norm_bounded_every_round(monkeypatch):
    _, population = small_population()
    model = linear_model()
    bound = 0.02
    cfg = make_config(population, num_rounds=4, clip_bound=bound, local_lr=0.5,
                      sigma_client=1e-3)
    rounds = record_rounds(monkeypatch)
    result = run_simulation(cfg, population, model)
    layout = result.final_params.layout
    for recorded in rounds:
        for row in recorded.clipped:
            clipped = ParamTree(row, layout)
            assert global_norm(clipped) <= bound * (1 + 1e-12)


@pytest.mark.parametrize("variant", [ClipVariant.GLOBAL, ClipVariant.PER_LAYER_UNIFORM],
                         ids=lambda v: v.value)
def test_a_round_squares_its_deltas_once(variant, monkeypatch):
    # Clipping hands back the delta norms it computed and the per-layer
    # statistics read them: one norm_rows over the delta stack per round.
    _, population = small_population()
    cfg = make_config(population, num_rounds=4, clip_bound=0.05, clip_variant=variant)
    rounds = record_rounds(monkeypatch)
    calls = []
    for module in (clipping, engine):
        def counting_norm_rows(rows, layout, norm_rows=module.norm_rows):
            if rounds and rows is rounds[-1].deltas:
                calls.append(rounds[-1].round_index)
            return norm_rows(rows, layout)

        monkeypatch.setattr(module, "norm_rows", counting_norm_rows)
    run_simulation(cfg, population, linear_model())
    assert calls == [1, 2, 3, 4]


def test_zero_noise_pre_and_post_norms_equal():
    _, population = small_population()
    model = linear_model()
    cfg = make_config(population, num_rounds=3, sigma_client=0.0)
    result = run_simulation(cfg, population, model)
    for m in result.metrics:
        assert m.pseudograd_norm_prenoise == m.pseudograd_norm_postnoise
    assert result.privacy_report["epsilon"] == "inf"


@pytest.mark.parametrize("sigma_client", [0.0, 1e-3])
def test_zero_clip_bound_reports_zero_epsilon_whatever_the_noise(sigma_client):
    # Every delta is clipped to zero, so the released mean reveals nothing.
    _, population = small_population()
    model = linear_model()
    cfg = make_config(population, num_rounds=2, clip_bound=0.0,
                      sigma_client=sigma_client)
    result = run_simulation(cfg, population, model)
    assert all(m.pseudograd_norm_prenoise == 0.0 for m in result.metrics)
    assert result.privacy_report["epsilon"] == 0.0
    assert result.privacy_report["best_order"] is None


def test_run_builds_only_the_initial_and_final_trees(monkeypatch):
    # The round loop carries the flat vector: no tree between rounds.
    _, population = small_population()
    model = linear_model()
    cfg = make_config(population, num_rounds=5, optimizer=OptimizerKind.LAMB)
    built = []
    init = ParamTree.__init__

    def counting_init(self, *args, **kwargs):
        built.append(self)
        init(self, *args, **kwargs)

    monkeypatch.setattr(ParamTree, "__init__", counting_init)
    result = run_simulation(cfg, population, model)
    assert len(result.metrics) == 5
    assert len(built) == 2
    assert built[-1] is result.final_params


def test_privacy_report_uses_exact_parameters():
    _, population = small_population(num_clients=20)
    model = linear_model()
    cfg = make_config(
        population, num_rounds=8, cohort_size=5, sigma_client=0.5, clip_bound=0.1
    )
    result = run_simulation(cfg, population, model)
    report = result.privacy_report
    assert report["num_steps"] == 8
    assert report["cohort_size"] == 5
    assert report["sampling_rate"] == pytest.approx(0.25)
    # z = sigma_avg * L / C with sigma_avg = 0.5 / sqrt(5)
    expected_z = (0.5 / math.sqrt(5)) * 5 / 0.1
    assert report["noise_multiplier"] == pytest.approx(expected_z, rel=1e-12)
    assert report["dp_valid"] is True
    assert report["epsilon"] > 0


@pytest.mark.parametrize("cohort, sampling", [
    (dict(cohort_size=5), "fixed_size"),
    (dict(cohort_rate=0.25), "bernoulli"),
])
def test_privacy_report_names_sampling_scheme(cohort, sampling):
    _, population = small_population(num_clients=20)
    cfg = make_config(population, num_rounds=4, sigma_client=0.5, **cohort)
    report = run_simulation(cfg, population, linear_model()).privacy_report
    assert report["sampling"] == sampling
    assert report["accounted_as"] == "poisson"
    assert report["adjacency"] == "add_remove"
    # The free-text caveat is kept only where the two schemes differ.
    fixed_note = [n for n in report["notes"] if "fixes the cohort size" in n]
    assert len(fixed_note) == (sampling == "fixed_size")
    eps, order = accountant.epsilon_for(report["noise_multiplier"], 0.25, 4, 1e-6)
    assert (report["epsilon"], report["best_order"]) == (eps, order)


def test_partial_noise_mask_flags_report_invalid():
    _, population = small_population()
    model = linear_model()
    cfg = make_config(
        population, num_rounds=2, sigma_client=0.05,
        noise_mask=("w",),
    )
    result = run_simulation(cfg, population, model)
    assert result.privacy_report["dp_valid"] is False
    assert any("NOT hold" in n for n in result.privacy_report["notes"])


def test_tiny_clip_bound_harmless_under_lamb():
    # With a LAMB central optimizer, shrinking the delta clip bound from
    # 1e-2 to 1e-8 leaves both runs numerically healthy and the final
    # probe losses within the seed-to-seed noise (the trust ratio restores
    # the per-layer update scale regardless of the clipped magnitude).
    _, population = small_population(num_clients=24, count=12, seed=5)
    model = linear_model()

    def final_loss(bound, seed):
        cfg = make_config(
            population, num_rounds=40, cohort_size=8,
            local_mode=LocalMode.STEPS, local_count=3, batch_size=8,
            local_lr=0.1, local_clip=1.0,
            clip_bound=bound, sigma_client=0.0,
            optimizer=OptimizerKind.LAMB, central_lr=0.02, seed=seed,
        )
        result = run_simulation(cfg, population, model)
        assert all(math.isfinite(m.loss) for m in result.metrics)
        return result.metrics[-1].loss

    seeds = range(400, 406)
    losses_small = [final_loss(1e-2, s) for s in seeds]
    losses_tiny = [final_loss(1e-8, s) for s in seeds]
    gap = abs(float(np.mean(losses_small)) - float(np.mean(losses_tiny)))
    noise = max(float(np.std(losses_small)), float(np.std(losses_tiny)))
    assert gap <= noise


def without_first_three(population):
    """The partition with clients 0..2 emptied."""
    batches = client_batches(population)
    return partition_from_batches([None] * 3 + batches[3:], population.probe,
                                  population.num_classes)


def test_empty_clients_are_dropped_and_round_continues():
    _, population = small_population(num_clients=6, count=2)
    partition = without_first_three(population)
    model = linear_model()
    cfg = make_config(partition, num_rounds=3, cohort_size=6)
    result = run_simulation(cfg, partition, model)
    for m in result.metrics:
        assert set(m.cohort_ids) == {3, 4, 5}


def test_one_probe_forward_pass_per_round(monkeypatch):
    # Probe loss and accuracy share one forward pass, on training rounds and
    # on rounds whose sampled cohort is empty alike.
    _, population = small_population(num_clients=6, count=2)
    partition = without_first_three(population)
    model = linear_model()
    forward = models._FORWARD[model.kind]
    probe_passes = 0

    def counting_forward(spec, rows, inputs, *rest):
        nonlocal probe_passes
        probe_passes += np.shares_memory(inputs, partition.probe.inputs)
        return forward(spec, rows, inputs, *rest)

    monkeypatch.setitem(models._FORWARD, model.kind, counting_forward)
    cfg = make_config(partition, num_rounds=8, cohort_size=1)
    result = run_simulation(cfg, partition, model)
    assert any(m.cohort_ids for m in result.metrics)
    assert any(not m.cohort_ids for m in result.metrics)
    assert probe_passes == 8


def test_empty_round_with_non_finite_probe_loss_names_the_probe_stage():
    # Round 1 samples no client at this seed and rate, so the seed model
    # takes the released noise alone (none, at sigma 0) and goes to the
    # probe, whose logits overflow.
    _, population = small_population()
    model = linear_model()
    params = models.init_params(model, 0)
    huge = ParamTree(np.resize([1e308, -1e308], params.layout.total), params.layout)
    cfg = make_config(population, num_rounds=1, cohort_rate=0.1, seed=4,
                      seed_model=huge)
    assert sample_cohort(population.num_clients, cfg.cohort, 1, cfg.seed) == []
    with np.errstate(all="ignore"):
        with pytest.raises(NumericsError, match=r"^round 1: .*probe"):
            run_simulation(cfg, population, model)


def test_diverging_local_training_names_round_client_and_stage():
    # A huge local lr with no minibatch clip overflows deltas. The error names
    # the first client of the round-1 cohort whose train_cohort row is not
    # finite.
    _, population = small_population()
    model = linear_model()
    cfg = make_config(population, num_rounds=2, local_count=4, local_lr=1e308,
                      local_clip=INF)
    cohort = sample_cohort(population.num_clients, cfg.cohort, 1, cfg.seed)
    start = models.init_params(model, cfg.seed).flat
    with np.errstate(all="ignore"):
        deltas = train_cohort(start, population, model, cfg.local, cfg.fedprox_mu,
                              1, cohort, cfg.seed, models.Workspace())
        with pytest.raises(NumericsError) as err:
            run_simulation(cfg, population, model)
    diverged = [cid for cid, row in zip(cohort, deltas) if not np.isfinite(row).all()]
    assert diverged
    assert str(err.value) == (f"round 1: client {diverged[0]} produced a "
                              "non-finite delta (stage local_train)")


def test_diverging_central_step_names_the_probe_stage():
    # Finite deltas of order one, but a central lr that overflows the
    # parameters they update.
    _, population = small_population()
    model = linear_model()
    cfg = make_config(population, num_rounds=2, local_lr=10.0, clip_bound=INF,
                      central_lr=1e308)
    with np.errstate(all="ignore"):
        with pytest.raises(NumericsError, match=r"^round 1: .*probe"):
            run_simulation(cfg, population, model)
