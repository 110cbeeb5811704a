"""Acceptance suite: every criterion at its stated tolerance.

Run with plain `pytest`; a per-criterion PASS/FAIL table is printed in the
terminal summary (see conftest.py).
"""

import itertools
import os
import subprocess
import sys
import time
from pathlib import Path

import numpy as np
import pytest
import yaml
from conftest import criterion
from reference import (
    axpy,
    client_batches,
    clip_tree,
    finite_diff_grad,
    global_norm,
    grad,
    iid_shuffle,
    layer_norms,
    mean_rows,
    sub,
    take,
)
from simtools import INF, linear_model, make_config, record_rounds, small_population

import fldp
from fldp import models
from fldp.accountant import DEFAULT_ORDERS, epsilon_for
from fldp.clipping import ClipSpec, ClipVariant, PER_LAYER_VARIANTS, bound_vector
from fldp.config import parse_config
from fldp.data import (
    Batch,
    CountSpec,
    PopulationSpec,
    generate_population,
)
from fldp.dp import PrivacyParams, SigmaKind, convert_noise, noise_multiplier
from fldp.engine import LocalConfig, LocalMode, run_simulation, train_cohort
from fldp.models import ModelKind, ModelSpec
from fldp.optimizers import OptimizerKind
from fldp.param_tree import ParamTree
from fldp.telemetry import summarize_records, write_metrics


def test_criterion_1_accountant_golden_values():
    rows = [
        (2.048, 0.0295, 2006, 4.5, 9.0),
        (1.536, 0.0295, 2006, 6.5, 7.0),
        (1.024, 0.0295, 2006, 13.0, 4.0),
        (0.6144, 0.00295, 2034, 7.2, 3.0),
        (0.6144, 0.000295, 3390, 3.7, 6.0),
        (0.512, 0.0295, 2006, 72.0, 1.5),
    ]
    with criterion(1, "published epsilon values within 5%, order within one "
                      "grid point, under 10 s"):
        start = time.monotonic()
        for z, q, steps, eps_ref, order_ref in rows:
            eps, order = epsilon_for(z, q, steps, delta=1e-9)
            assert eps == pytest.approx(eps_ref, rel=0.05), (z, q, steps)
            gap = abs(DEFAULT_ORDERS.index(order) - DEFAULT_ORDERS.index(order_ref))
            assert gap <= 1, (z, q, steps, order, order_ref)
        assert time.monotonic() - start < 10.0


def _sig3(x: float) -> float:
    return float(f"{x:.3g}")


def test_criterion_2_noise_multiplier_chain():
    with criterion(2, "noise multiplier from raw published inputs to 3 "
                      "significant figures, under 1 ms"):
        def z_for(sigma_avg, clip, cohort, population, steps):
            params = PrivacyParams(
                clip_bound=clip, sigma=sigma_avg, sigma_kind=SigmaKind.AVG,
                population=population, cohort_size=cohort, num_steps=steps,
                delta=1e-9,
            )
            return noise_multiplier(params)

        z1 = z_for(3.0e-8, 0.01, 1024, 34_753, 2006)
        assert _sig3(z1) == _sig3(0.003072)
        z2 = z_for(3.0e-8, 0.01, 204_800, 69_506_000, 2034)
        assert _sig3(z2) == _sig3(0.6144)

        reps = 1000
        start = time.monotonic()
        for _ in range(reps):
            z_for(3.0e-8, 0.01, 1024, 34_753, 2006)
        assert (time.monotonic() - start) / reps < 1e-3


def test_criterion_3_noise_parametrization_round_trips():
    with criterion(3, "sigma parametrization round trips exact to 1e-15 over "
                      "1000 fuzzed pairs"):
        rng = np.random.default_rng(33)
        kinds = list(SigmaKind)
        for _ in range(1000):
            sigma = float(rng.uniform(1e-12, 1e6))
            cohort = float(rng.integers(1, 10**7))
            for a, b in itertools.permutations(kinds, 2):
                there = convert_noise(sigma, a, b, cohort)
                back = convert_noise(there, b, a, cohort)
                assert abs(back - sigma) <= 1e-15 * sigma


def test_criterion_4_clipping_invariants():
    with criterion(4, "clipping: fuzzed norm bound, budget identity, "
                      "idempotence, exact uniform split"):
        rng = np.random.default_rng(44)
        bound = 0.037

        def random_tree():
            k = int(rng.integers(1, 6))
            scale = float(rng.uniform(1e-4, 20.0))
            return ParamTree(
                (f"l{i}", scale * rng.normal(size=int(rng.integers(1, 9))))
                for i in range(k)
            )

        variants = [ClipVariant.GLOBAL, *PER_LAYER_VARIANTS]
        for variant in variants:
            for _ in range(1000):
                tree = random_tree()
                weights = None
                if variant == ClipVariant.PER_LAYER_WEIGHTED:
                    weights = {n: float(rng.uniform(0.5, 4.0)) for n in tree.names}
                spec = ClipSpec(bound, variant, weights)
                clipped = clip_tree(tree, spec)
                assert global_norm(clipped) <= bound * (1 + 1e-12)
                assert clip_tree(clipped, spec) == clipped
                if variant != ClipVariant.GLOBAL:
                    budget = sum(
                        b**2 for b in bound_vector(spec, tree.layout)
                    )
                    assert budget == pytest.approx(bound**2, rel=1e-12)

        four = ParamTree((f"l{i}", [1.0]) for i in range(4))
        uniform = ClipSpec(0.01, ClipVariant.PER_LAYER_UNIFORM)
        assert all(b == 0.005 for b in bound_vector(uniform, four.layout))


def test_criterion_5_gradient_correctness():
    specs = [
        ModelSpec(ModelKind.LINEAR_SOFTMAX, input_dim=5, num_classes=4),
        ModelSpec(ModelKind.MLP_LAYERNORM, input_dim=5, num_classes=3,
                  hidden_dim=6),
        ModelSpec(ModelKind.TINY_ATTENTION, input_dim=4, num_classes=3,
                  hidden_dim=4, seq_len=3),
    ]
    with criterion(5, "analytic gradients vs central finite differences "
                      "below 1e-4 for 20 cases per model kind, under 60 s"):
        start = time.monotonic()
        rng = np.random.default_rng(55)
        for spec in specs:
            for _ in range(20):
                base = models.init_params(spec, int(rng.integers(0, 2**31)))
                params = ParamTree(rng.normal(scale=0.5, size=base.layout.total),
                                   base.layout)
                n = int(rng.integers(2, 7))
                if spec.kind == ModelKind.TINY_ATTENTION:
                    x = rng.normal(size=(n, spec.seq_len, spec.input_dim))
                else:
                    x = rng.normal(size=(n, spec.input_dim))
                batch = Batch(x, rng.integers(0, spec.num_classes, size=n))
                g = grad(spec, params, batch)
                fd = finite_diff_grad(spec, params, batch, h=1e-5)
                worst = max(
                    float(np.max(
                        np.abs(a - b)
                        / np.maximum(np.maximum(np.abs(a), np.abs(b)), 1e-3)
                    ))
                    for (_, a), (_, b) in zip(g.items(), fd.items())
                )
                assert worst < 1e-4, spec.kind
        assert time.monotonic() - start < 60.0


def test_criterion_6_fedsgd_matches_centralized_gd(monkeypatch):
    with criterion(6, "FedSGD trajectory equals centralized gradient descent "
                      "to 1e-9 over 50 rounds"):
        _, population = small_population(num_clients=6, count=10, seed=3)
        model = linear_model()
        eta = 0.05
        cfg = make_config(
            population, num_rounds=50, cohort_size=6,
            local_mode=LocalMode.STEPS, local_count=1, batch_size=10,
            local_lr=eta, local_clip=INF, clip_bound=INF, sigma_client=0.0,
            optimizer=OptimizerKind.SGD, central_lr=1.0,
        )
        rounds = record_rounds(monkeypatch)
        result = run_simulation(cfg, population, model)

        # Central SGD at lr 1 adds the mean delta, so the round-t parameters
        # are exactly the running sum of the recorded aggregates.
        full = Batch(population.inputs, population.labels)
        fl_params = models.init_params(model, cfg.seed)
        gd_params = fl_params
        for recorded in rounds:
            fl_params = ParamTree(fl_params.flat + mean_rows(recorded.deltas),
                                  fl_params.layout)
            gd_params = axpy(-eta, grad(model, gd_params, full), gd_params)
            for (_, a), (_, b) in zip(fl_params.items(), gd_params.items()):
                np.testing.assert_allclose(a, b, rtol=1e-9, atol=1e-12)
        assert fl_params == result.final_params


def test_criterion_7_determinism_across_processes(tmp_path):
    with criterion(7, "two in-process runs and a fresh-interpreter "
                      "`fldp simulate` run emit bitwise identical metrics"):
        config = {
            "model": {"kind": "linear_softmax", "input_dim": 4, "num_classes": 3},
            "population": {"num_clients": 10, "seed": 7},
            "federation": {
                "rounds": 6,
                "seed": 11,
                "cohort": {"mode": "fixed_size", "size": 5},
                "local": {"mode": "steps", "count": 2, "batch_size": 8, "lr": 0.1},
                "clip": {"variant": "uniform", "bound": 0.05},
                "privacy": {"sigma": 1.0e-3, "sigma_kind": "client"},
                "central": {"optimizer": "sgd", "schedule": {"base_lr": 0.5}},
            },
        }
        config_path = tmp_path / "config.yaml"
        config_path.write_text(yaml.safe_dump(config))
        rc = parse_config(config_path)
        population = generate_population(rc.population)
        paths = []
        for i in range(2):
            result = run_simulation(rc.federation, population, rc.model)
            path = tmp_path / f"metrics_{i}.jsonl"
            write_metrics(result.metrics, path)
            paths.append(path)

        # A fresh interpreter shares no process-global state with this one.
        src = Path(fldp.__file__).resolve().parent.parent
        env = dict(os.environ, PYTHONPATH=str(src))
        out = tmp_path / "cli"
        subprocess.run(
            [sys.executable, "-m", "fldp.cli", "simulate",
             "--config", str(config_path), "--out", str(out)],
            env=env, check=True, capture_output=True, timeout=300,
        )
        paths.append(out / "metrics.jsonl")
        first = paths[0].read_bytes()
        assert len(first.splitlines()) == 6
        for path in paths[1:]:
            assert path.read_bytes() == first


# -- constructed layer-imbalanced task (criteria 8) ---------------------------

IMBALANCED_MODEL = ModelSpec(
    ModelKind.MLP_LAYERNORM, input_dim=8, num_classes=3, hidden_dim=6
)


def imbalanced_population():
    # Class signal lives in two low-noise input dimensions; the other six
    # are high-variance distractors, so the first layer must rotate toward
    # the clean directions before the rest of the network can separate
    # classes.
    spec = PopulationSpec(
        num_clients=48, num_classes=3, input_dim=8,
        examples_per_client=CountSpec(count=12),
        label_skew_alpha=100.0,
        noise_level=(0.3, 0.3, 8.0, 8.0, 8.0, 8.0, 8.0, 8.0),
        mean_separation=1.0, probe_size=400, seed=1,
    )
    return generate_population(spec)


def imbalanced_seed_params(scale=250.0):
    # Inflating the first layer shrinks its gradients by ~1/scale (LayerNorm
    # makes the loss scale-invariant in that layer) while the downstream
    # layers keep O(1) gradients: a >=100x per-layer imbalance.
    base = models.init_params(IMBALANCED_MODEL, 11)
    return ParamTree(
        (name, scale * arr if name == "w1" else arr)
        for name, arr in base.items()
    )


def run_imbalanced(population, seed_params, variant, sigma_client, seed):
    cfg = make_config(
        population, num_rounds=80, cohort_size=16,
        local_mode=LocalMode.STEPS, local_count=4, batch_size=12,
        local_lr=0.05, local_clip=INF,
        clip_bound=1e-2, clip_variant=variant, sigma_client=sigma_client,
        optimizer=OptimizerKind.LAMB, central_lr=0.05,
        seed=seed, seed_model=seed_params,
    )
    result = run_simulation(cfg, population, IMBALANCED_MODEL)
    return result.metrics[-1].loss


def test_criterion_8_per_layer_beats_global_and_noise_monotone():
    with criterion(8, "per-layer clipping beats global on the imbalanced "
                      "task; loss non-decreasing in noise"):
        start = time.monotonic()
        population = imbalanced_population()
        seed_params = imbalanced_seed_params()

        # The construction must really be layer-imbalanced: >=100x between
        # the largest per-layer gradient norm and the starved layer's.
        ratios = []
        for client in client_batches(population)[:8]:
            norms = layer_norms(
                grad(IMBALANCED_MODEL, seed_params, client)
            )
            others = max(v for k, v in norms.items() if k != "w1")
            ratios.append(others / norms["w1"])
        assert min(ratios) >= 100.0

        seeds = range(100, 106)
        sigma1 = 1e-3
        global_losses = [
            run_imbalanced(population, seed_params, ClipVariant.GLOBAL,
                           sigma1, s)
            for s in seeds
        ]
        uniform_losses = [
            run_imbalanced(population, seed_params,
                           ClipVariant.PER_LAYER_UNIFORM, sigma1, s)
            for s in seeds
        ]
        assert float(np.mean(uniform_losses)) < float(np.mean(global_losses))

        sweep_means = []
        for sigma in (0.0, sigma1, 10 * sigma1):
            losses = [
                run_imbalanced(population, seed_params,
                               ClipVariant.PER_LAYER_UNIFORM, sigma, 200 + k)
                for k in range(6)
            ]
            sweep_means.append(float(np.mean(losses)))
        assert sweep_means[0] <= sweep_means[1] <= sweep_means[2]
        assert time.monotonic() - start < 600.0


def test_criterion_9_label_skew_hurts_vs_iid_shuffle():
    with criterion(9, "label-skewed population trains worse than its iid "
                      "shuffle at identical config"):
        model = linear_model(input_dim=6, num_classes=4)
        spec = PopulationSpec(
            num_clients=40, num_classes=4, input_dim=6,
            examples_per_client=CountSpec(count=20),
            label_skew_alpha=0.05, noise_level=0.6, mean_separation=1.0,
            probe_size=400, seed=3,
        )
        skewed = generate_population(spec)
        shuffled = iid_shuffle(skewed, seed=77)

        def final_loss(population, seed):
            cfg = make_config(
                population, num_rounds=40, cohort_size=4,
                local_mode=LocalMode.EPOCHS, local_count=3, batch_size=10,
                local_lr=0.3, local_clip=1.0,
                clip_bound=INF, sigma_client=0.0,
                optimizer=OptimizerKind.SGD, central_lr=1.0, seed=seed,
            )
            return run_simulation(cfg, population, model).metrics[-1].loss

        seeds = range(300, 306)
        skewed_losses = [final_loss(skewed, s) for s in seeds]
        iid_losses = [final_loss(shuffled, s) for s in seeds]
        assert float(np.mean(skewed_losses)) > float(np.mean(iid_losses))


def test_criterion_10_fedprox_shrinks_deltas():
    with criterion(10, "delta norms strictly decrease in the proximal weight; "
                       "zero weight is bitwise the baseline"):
        _, population = small_population(num_clients=8, count=12, seed=9)
        model = linear_model()
        params = models.init_params(model, 4)
        # Small enough lr that local training is contractive; the proximal
        # pull then strictly dampens the excursion.
        local = LocalConfig(LocalMode.EPOCHS, count=3, batch_size=6, lr=0.05,
                            clip_bound=INF)
        round_index, seed = 5, 31
        cohort = range(8)

        def mean_delta_norm(mu):
            return float(np.mean([
                global_norm(ParamTree(train_cohort(
                    params.flat, population, model, local,
                    mu, round_index, [cid], seed, models.Workspace(),
                )[0], params.layout))
                for cid in cohort
            ]))

        norms = [mean_delta_norm(mu) for mu in (0.0, 0.1, 10.0)]
        assert norms[0] > norms[1] > norms[2]

        # mu = 0 must take exactly the plain local-SGD path.
        client = client_batches(population)[2]
        baseline = ParamTree(train_cohort(
            params.flat, population, model, local, 0.0, round_index, [2], seed,
            models.Workspace())[0], params.layout)
        rng = np.random.Generator(
            np.random.Philox(np.random.SeedSequence((seed, 2, round_index, 2)))
        )
        theta = params
        for _ in range(local.count):
            order = rng.permutation(client.labels.size)
            for lo in range(0, client.labels.size, local.batch_size):
                batch = take(client, order[lo: lo + local.batch_size])
                g = clip_tree(grad(model, theta, batch),
                              ClipSpec(local.clip_bound))
                theta = axpy(-local.lr, g, theta)
        assert baseline == sub(theta, params)


def test_criterion_11_telemetry_matches_archived_deltas(monkeypatch):
    with criterion(11, "per-layer telemetry recomputed from archived deltas "
                       "matches emitted statistics to 1e-9"):
        _, population = small_population(num_clients=14, count=10)
        model = linear_model()
        cfg = make_config(population, num_rounds=6, cohort_size=7,
                          sigma_client=2e-4, clip_bound=0.05,
                          clip_variant=ClipVariant.PER_LAYER_UNIFORM)
        rounds = record_rounds(monkeypatch)
        result = run_simulation(cfg, population, model)
        layout = result.final_params.layout

        # Per-round statistics against a direct recomputation.
        for metric, recorded in zip(result.metrics, rounds):
            norms = {name: [] for name in result.final_params.names}
            for row in recorded.deltas:
                for name, value in layer_norms(ParamTree(row, layout)).items():
                    norms[name].append(value)
            for name, values in norms.items():
                assert metric.per_layer[name]["mean"] == pytest.approx(
                    float(np.mean(values)), rel=1e-9
                )
                assert metric.per_layer[name]["std"] == pytest.approx(
                    float(np.std(values)), rel=1e-9, abs=1e-15
                )

        # Pooled across rounds and clients (the per-layer figure analog).
        summary = summarize_records(result.metrics)
        pooled = {name: [] for name in result.final_params.names}
        for recorded in rounds:
            for row in recorded.deltas:
                for name, value in layer_norms(ParamTree(row, layout)).items():
                    pooled[name].append(value)
        for name, values in pooled.items():
            assert summary.per_layer[name]["mean"] == pytest.approx(
                float(np.mean(values)), rel=1e-9
            )
            assert summary.per_layer[name]["std"] == pytest.approx(
                float(np.std(values)), rel=1e-9
            )
