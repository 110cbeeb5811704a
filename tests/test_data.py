import math

import numpy as np
import pytest
from reference import iid_shuffle, take

from fldp.data import (
    ClientPartition,
    CountKind,
    CountSpec,
    PopulationSpec,
    generate_population,
    partition_stats,
)
from fldp.errors import ConfigError


def base_spec(**overrides):
    defaults = dict(
        num_clients=20,
        num_classes=4,
        input_dim=6,
        examples_per_client=CountSpec(kind=CountKind.UNIFORM, count=12),
        label_skew_alpha=0.3,
        probe_size=64,
        seed=5,
    )
    defaults.update(overrides)
    return PopulationSpec(**defaults)


def multiset(partition):
    rows = []
    for c in partition.clients:
        if c.data is None:
            continue
        flat = c.data.inputs.reshape(c.data.size, -1)
        for i in range(c.data.size):
            rows.append((*flat[i].tolist(), float(c.data.labels[i])))
    return sorted(rows)


def test_uniform_counts_exact():
    part = generate_population(base_spec())
    assert all(c.num_examples == 12 for c in part.clients)


def test_generation_is_deterministic():
    a = generate_population(base_spec())
    b = generate_population(base_spec())
    for ca, cb in zip(a.clients, b.clients):
        assert np.array_equal(ca.data.inputs, cb.data.inputs)
        assert np.array_equal(ca.data.labels, cb.data.labels)
    assert np.array_equal(a.probe.inputs, b.probe.inputs)
    c = generate_population(base_spec(seed=6))
    assert not np.array_equal(a.clients[0].data.inputs, c.clients[0].data.inputs)


def test_client_ids_dense_and_probe_disjoint():
    part = generate_population(base_spec())
    assert [c.client_id for c in part.clients] == list(range(20))
    # Probe rows are drawn from an independent stream; none coincide with
    # training rows (Gaussian draws collide with probability zero).
    train = set(map(tuple, np.concatenate(
        [c.data.inputs for c in part.clients]).reshape(-1, 6).round(12).tolist()))
    probe = set(map(tuple, part.probe.inputs.round(12).tolist()))
    assert not train & probe


def test_high_alpha_label_histograms_near_uniform():
    part = generate_population(
        base_spec(label_skew_alpha=1e6,
                  examples_per_client=CountSpec(count=200))
    )
    k = part.num_classes
    expected = 200 / k
    chi2 = []
    for c in part.clients:
        obs = np.bincount(c.data.labels, minlength=k)
        chi2.append(float(((obs - expected) ** 2 / expected).sum()))
    # Multinomial sampling noise alone has mean chi2 = k - 1.
    assert np.mean(chi2) < 2.0 * (k - 1)


def test_low_alpha_is_visibly_skewed():
    part = generate_population(
        base_spec(label_skew_alpha=0.05,
                  examples_per_client=CountSpec(count=200))
    )
    k = part.num_classes
    expected = 200 / k
    chi2 = []
    for c in part.clients:
        obs = np.bincount(c.data.labels, minlength=k)
        chi2.append(float(((obs - expected) ** 2 / expected).sum()))
    assert np.mean(chi2) > 10.0 * (k - 1)


def test_per_dimension_noise_levels():
    part = generate_population(
        base_spec(
            num_clients=30,
            noise_level=(0.1, 0.1, 0.1, 6.0, 6.0, 6.0),
            mean_separation=0.0,
            examples_per_client=CountSpec(count=50),
        )
    )
    pooled = np.concatenate([c.data.inputs for c in part.clients])
    stds = pooled.std(axis=0)
    assert np.all(stds[:3] < 0.2)
    assert np.all(stds[3:] > 4.0)
    with pytest.raises(ConfigError, match="per input dim"):
        base_spec(noise_level=(0.1, 0.2))


def test_sequence_inputs_shape():
    part = generate_population(base_spec(seq_len=3))
    assert part.clients[0].data.inputs.shape == (12, 3, 6)
    assert part.probe.inputs.shape == (64, 3, 6)


def test_class_priors_respected():
    priors = (0.7, 0.1, 0.1, 0.1)
    part = generate_population(
        base_spec(num_clients=50, class_priors=priors,
                  examples_per_client=CountSpec(count=100),
                  label_skew_alpha=100.0)
    )
    hist = partition_stats(part).class_histogram
    freq = np.array(hist) / sum(hist)
    assert freq[0] == pytest.approx(0.7, abs=0.05)


# -- iid shuffle ---------------------------------------------------------------


def test_iid_shuffle_preserves_example_multiset():
    part = generate_population(base_spec())
    shuffled = iid_shuffle(part, seed=99)
    assert multiset(shuffled) == multiset(part)
    assert shuffled.num_clients == part.num_clients
    assert np.array_equal(shuffled.probe.inputs, part.probe.inputs)


def test_iid_shuffle_single_client_unchanged():
    part = generate_population(base_spec(num_clients=1))
    shuffled = iid_shuffle(part, seed=3)
    assert multiset(shuffled) == multiset(part)
    assert shuffled.clients[0].num_examples == part.clients[0].num_examples


def test_iid_shuffle_flattens_label_distributions():
    # Mean pairwise total-variation distance between per-client label
    # distributions drops after shuffling a heavily skewed partition.
    spec = base_spec(
        num_clients=16,
        label_skew_alpha=0.05,
        examples_per_client=CountSpec(count=150),
    )

    def mean_pairwise_tv(partition):
        dists = []
        for c in partition.clients:
            if c.data is None or c.data.size == 0:
                continue
            p = np.bincount(c.data.labels, minlength=partition.num_classes)
            dists.append(p / p.sum())
        tvs = [
            0.5 * float(np.abs(a - b).sum())
            for i, a in enumerate(dists)
            for b in dists[i + 1:]
        ]
        return float(np.mean(tvs))

    part = generate_population(spec)
    shuffled = iid_shuffle(part, seed=4)
    assert mean_pairwise_tv(shuffled) < mean_pairwise_tv(part)


def test_iid_shuffle_permits_empty_clients():
    # Far more clients than examples forces some clients to be empty.
    spec = base_spec(num_clients=50, examples_per_client=CountSpec(count=1))
    shuffled = iid_shuffle(generate_population(spec), seed=1)
    assert any(c.data is None for c in shuffled.clients)
    assert shuffled.total_examples() == 50


# -- stats ----------------------------------------------------------------------


def test_partition_stats_small_case():
    spec = base_spec(num_clients=3)
    part = generate_population(spec)
    sized = []
    for cid, n in enumerate((1, 2, 3)):
        c = part.clients[cid]
        sized.append(type(c)(cid, take(c.data, np.arange(n))))
    part = ClientPartition(tuple(sized), part.probe, part.num_classes)
    stats = partition_stats(part)
    assert stats.mean == 2.0
    assert stats.min == 1 and stats.max == 3
    assert stats.std == pytest.approx(math.sqrt(2.0 / 3.0), rel=1e-12)
    assert sum(stats.class_histogram) == 6


def test_partition_stats_single_client_std_zero():
    part = generate_population(base_spec(num_clients=1))
    assert partition_stats(part).std == 0.0


def test_lognormal_more_dispersed_than_uniform():
    uni = partition_stats(generate_population(base_spec(num_clients=200)))
    logn = partition_stats(
        generate_population(
            base_spec(
                num_clients=200,
                examples_per_client=CountSpec(
                    kind=CountKind.LOGNORMAL, log_mean=2.5, log_sigma=1.2
                ),
            )
        )
    )
    assert logn.std / logn.mean > uni.std / uni.mean


def test_power_law_reaches_heavy_tail_signature():
    # max/mean >= 100, the qualitative signature of real per-user data.
    stats = partition_stats(
        generate_population(
            base_spec(
                num_clients=400,
                examples_per_client=CountSpec(
                    kind=CountKind.POWER, exponent=0.7, scale=1.0, cap=50_000
                ),
            )
        )
    )
    assert stats.max / stats.mean >= 100.0


def test_spec_validation():
    with pytest.raises(ConfigError):
        base_spec(num_classes=1)
    with pytest.raises(ConfigError):
        base_spec(label_skew_alpha=0.0)
    with pytest.raises(ConfigError):
        base_spec(class_priors=(0.5, 0.5))  # wrong arity for 4 classes
    with pytest.raises(ConfigError):
        CountSpec(kind=CountKind.UNIFORM, count=0)
