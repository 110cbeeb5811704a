import dataclasses
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from reference import client_batches, iid_shuffle, per_client_population

from fldp.data import (
    Batch,
    ClientPartition,
    CountKind,
    CountSpec,
    PopulationSpec,
    _inverse_cdf,
    generate_population,
    partition_stats,
)
from fldp.errors import ConfigError, NumericsError, StructureError

# An overflow or invalid value while generating a population fails the test.
pytestmark = pytest.mark.filterwarnings("error::RuntimeWarning")


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
    flat = partition.inputs.reshape(partition.total_examples(), -1)
    return sorted((*row, float(label))
                  for row, label in zip(flat.tolist(), partition.labels.tolist()))


def test_uniform_counts_exact():
    part = generate_population(base_spec())
    assert part.sizes.tolist() == [12] * 20


def test_generation_is_deterministic():
    a = generate_population(base_spec())
    b = generate_population(base_spec())
    assert np.array_equal(a.inputs, b.inputs)
    assert np.array_equal(a.labels, b.labels)
    assert np.array_equal(a.offsets, b.offsets)
    assert np.array_equal(a.probe.inputs, b.probe.inputs)
    c = generate_population(base_spec(seed=6))
    assert not np.array_equal(a.inputs[:12], c.inputs[:12])


def test_client_ids_dense_and_probe_disjoint():
    part = generate_population(base_spec())
    # Client i is row span i of the offsets: ids are 0..N-1 by construction.
    assert part.num_clients == 20
    assert part.offsets.tolist() == list(range(0, 20 * 12 + 1, 12))
    # Probe rows are drawn from an independent stream; none coincide with
    # training rows (Gaussian draws collide with probability zero).
    train = set(map(tuple, part.inputs.round(12).tolist()))
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
    for c in client_batches(part):
        obs = np.bincount(c.labels, minlength=k)
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
    for c in client_batches(part):
        obs = np.bincount(c.labels, minlength=k)
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
    stds = part.inputs.std(axis=0)
    assert np.all(stds[:3] < 0.2)
    assert np.all(stds[3:] > 4.0)
    with pytest.raises(ConfigError, match="per input dim"):
        base_spec(noise_level=(0.1, 0.2))


def test_sequence_inputs_shape():
    part = generate_population(base_spec(seq_len=3))
    assert part.inputs.shape == (20 * 12, 3, 6)
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
    assert shuffled.sizes.tolist() == part.sizes.tolist()


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
        for c in client_batches(partition):
            if c is None:
                continue
            p = np.bincount(c.labels, minlength=partition.num_classes)
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
    assert np.any(shuffled.sizes == 0)
    assert shuffled.total_examples() == 50


# -- stats ----------------------------------------------------------------------


def test_partition_stats_small_case():
    spec = base_spec(num_clients=3)
    part = generate_population(spec)
    keep = np.concatenate([lo + np.arange(n) for lo, n in
                           zip(part.offsets[:-1].tolist(), (1, 2, 3))])
    part = ClientPartition(part.inputs[keep], part.labels[keep], [0, 1, 3, 6],
                           part.probe, part.num_classes)
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


@pytest.mark.parametrize("field, value, message", [
    ("label_skew_alpha", math.inf, "label_skew_alpha must be positive and finite"),
    ("label_skew_alpha", math.nan, "label_skew_alpha must be positive and finite"),
    # Finite, but alpha * num_classes overflows every concentration to inf.
    ("label_skew_alpha", 1e308, "label_skew_alpha must be positive and finite"),
    ("class_priors", (math.inf, 1, 1, 1), "class_priors must be positive and finite"),
    ("class_priors", (math.nan, 1, 1, 1), "class_priors must be positive and finite"),
    # Finite entries whose total overflows would normalise to all zeros.
    ("class_priors", (1e308, 1e308, 1, 1), "class_priors must be positive and finite"),
    ("mean_separation", math.inf, "mean_separation must be finite"),
    ("mean_separation", math.nan, "mean_separation must be finite"),
    ("input_scale", -math.inf, "input_scale must be finite"),
    ("noise_level", math.inf, "noise_level must be finite"),
    ("noise_level", (0.5, 0.5, math.nan, 0.5, 0.5, 0.5), "noise_level must be finite"),
])
def test_spec_rejects_non_finite_parameters(field, value, message):
    with pytest.raises(ConfigError, match=message):
        base_spec(**{field: value})


# -- the flat partition against the per-client generator -------------------------


_COUNTS = st.one_of(
    st.builds(CountSpec, kind=st.just(CountKind.UNIFORM),
              count=st.integers(1, 6)),
    st.builds(CountSpec, kind=st.just(CountKind.LOGNORMAL),
              log_mean=st.floats(0.0, 2.0), log_sigma=st.floats(0.0, 1.0),
              cap=st.integers(1, 40)),
    st.builds(CountSpec, kind=st.just(CountKind.POWER),
              exponent=st.floats(0.8, 3.0), scale=st.floats(1.0, 3.0),
              cap=st.integers(1, 40)),
)


@st.composite
def population_specs(draw):
    num_classes = draw(st.integers(2, 5))
    input_dim = draw(st.integers(1, 4))
    level = st.floats(0.01, 2.0)
    return PopulationSpec(
        num_clients=draw(st.integers(1, 12)),
        num_classes=num_classes,
        input_dim=input_dim,
        examples_per_client=draw(_COUNTS),
        label_skew_alpha=draw(st.floats(0.1, 10.0)),
        noise_level=draw(st.one_of(
            level, st.tuples(*[level] * input_dim))),
        mean_separation=draw(st.floats(0.0, 3.0)),
        input_scale=draw(st.floats(0.1, 3.0)),
        class_priors=draw(st.one_of(
            st.none(), st.tuples(*[st.floats(0.2, 1.0)] * num_classes))),
        seq_len=draw(st.one_of(st.none(), st.integers(1, 3))),
        probe_size=draw(st.integers(1, 20)),
        seed=draw(st.integers(0, 2**32)),
    )


@settings(derandomize=True, database=None, max_examples=150, deadline=None)
@given(spec=population_specs())
def test_flat_population_equals_per_client_reference(spec):
    flat = generate_population(spec)
    want = per_client_population(spec)
    assert flat.offsets.tobytes() == want.offsets.tobytes()
    assert flat.labels.tobytes() == want.labels.tobytes()
    assert flat.inputs.shape == want.inputs.shape
    assert flat.inputs.tobytes() == want.inputs.tobytes()
    assert flat.probe.labels.tobytes() == want.probe.labels.tobytes()
    assert flat.probe.inputs.tobytes() == want.probe.inputs.tobytes()


@settings(derandomize=True, database=None, max_examples=60, deadline=None)
@given(spec=population_specs(), scale=st.floats(0.01, 0.99))
def test_flat_population_equals_reference_on_the_beta_branch(spec, scale):
    # With every concentration below 0.1, numpy's Dirichlet breaks a stick
    # with beta draws instead of normalising gammas, and reads its stream
    # differently; its rows often put all but zero mass on a few classes.
    priors = np.asarray(spec.class_priors or [1.0 / spec.num_classes] * spec.num_classes)
    spec = dataclasses.replace(
        spec, label_skew_alpha=0.1 * scale / (spec.num_classes * priors.max()))
    assert (spec.label_skew_alpha * spec.num_classes * priors).max() < 0.1
    flat = generate_population(spec)
    want = per_client_population(spec)
    assert flat.offsets.tobytes() == want.offsets.tobytes()
    assert flat.labels.tobytes() == want.labels.tobytes()
    assert flat.inputs.tobytes() == want.inputs.tobytes()
    assert flat.probe.labels.tobytes() == want.probe.labels.tobytes()


@st.composite
def cdf_rows(draw):
    """(cdf, counts, u): rows with zero-probability classes, u on cdf entries."""
    num_rows, k = draw(st.integers(1, 6)), draw(st.integers(1, 6))
    weight = st.one_of(st.just(0.0), st.floats(1e-3, 10.0))
    rows = [draw(st.lists(weight, min_size=k, max_size=k).filter(any))
            for _ in range(num_rows)]
    cdf = np.cumsum(rows, axis=1)
    cdf /= cdf[:, -1:]
    counts = draw(st.lists(st.integers(0, 5), min_size=num_rows, max_size=num_rows))
    u = [draw(st.one_of(st.floats(0.0, 1.0), st.sampled_from(cdf[i].tolist())))
         for i, n in enumerate(counts) for _ in range(n)]
    return cdf, np.array(counts, dtype=np.int64), np.array(u, dtype=np.float64)


@settings(derandomize=True, database=None, max_examples=200, deadline=None)
@given(case=cdf_rows())
def test_inverse_cdf_equals_searchsorted_per_row(case):
    cdf, counts, u = case
    want = np.concatenate(
        [np.zeros(0, dtype=np.int64)]
        + [np.searchsorted(row, part, side="right")
           for row, part in zip(cdf, np.split(u, np.cumsum(counts)[:-1]))])
    got = _inverse_cdf(cdf, counts, u)
    assert got.dtype == np.int64
    assert got.tolist() == want.tolist()


def test_population_makes_no_choice_call(monkeypatch):
    calls = []

    class CountingGenerator(np.random.Generator):
        def choice(self, *args, **kwargs):
            calls.append(args)
            return super().choice(*args, **kwargs)

    monkeypatch.setattr(np.random, "Generator", CountingGenerator)
    part = generate_population(base_spec(class_priors=(0.4, 0.3, 0.2, 0.1)))
    assert part.num_clients == 20
    assert calls == []


@pytest.mark.parametrize("row", [[np.nan, 0.5, 0.25, 0.25], [0.0, 0.0, 0.0, 0.0]],
                         ids=["nan", "all-zero"])
def test_non_finite_class_distribution_is_numerics_error(row, monkeypatch):
    # A Dirichlet row numpy's `choice` would reject must not become labels.
    rows = []

    class BrokenDirichlet(np.random.Generator):
        def dirichlet(self, alpha, size=None):
            rows.append(None)
            return np.array(row) if len(rows) == 3 else super().dirichlet(alpha, size)

    monkeypatch.setattr(np.random, "Generator", BrokenDirichlet)
    with pytest.raises(NumericsError, match=r"^client 2: Dirichlet class distribution"):
        generate_population(base_spec())


def test_flat_population_spans_several_mean_chunks():
    # More rows than one chunk of class-mean adds, in both input layouts.
    for seq_len in (None, 2):
        spec = base_spec(num_clients=3000, seq_len=seq_len,
                         examples_per_client=CountSpec(count=7))
        flat, want = generate_population(spec), per_client_population(spec)
        assert flat.inputs.tobytes() == want.inputs.tobytes()


# -- partition validation ---------------------------------------------------------


def _with(array, index, value):
    out = np.array(array)
    out[index] = value
    return out


MALFORMED = {
    "labels-not-1d": (lambda p: dict(labels=p.labels[:, None]), "1-D"),
    "rows-unlike-labels": (lambda p: dict(inputs=p.inputs[:-1]), "size mismatch"),
    "negative-label": (lambda p: dict(labels=_with(p.labels, 5, -1)),
                       "nonnegative"),
    "client-label-too-large": (lambda p: dict(labels=_with(p.labels, 5, 4)),
                               "out of range"),
    "probe-label-too-large": (
        lambda p: dict(probe=Batch(p.probe.inputs, _with(p.probe.labels, 0, 4))),
        "out of range"),
    "inputs-unlike-probe": (lambda p: dict(inputs=p.inputs[:, :-1]),
                            "differ from probe"),
    "offsets-not-from-zero": (lambda p: dict(offsets=_with(p.offsets, 0, 1)),
                              "offsets"),
    "offsets-decrease": (lambda p: dict(offsets=[0, 20, 12, 36]), "offsets"),
    "offsets-short-of-end": (lambda p: dict(offsets=p.offsets[:-1]), "offsets"),
    "offsets-not-1d": (lambda p: dict(offsets=p.offsets[None, :]), "offsets"),
    "offsets-empty": (lambda p: dict(offsets=[]), "offsets"),
}


@pytest.mark.parametrize("case", list(MALFORMED))
def test_malformed_partition_rejected(case):
    part = generate_population(base_spec(num_clients=3))
    change, message = MALFORMED[case]
    fields = dict(inputs=part.inputs, labels=part.labels, offsets=part.offsets,
                  probe=part.probe, num_classes=part.num_classes)
    fields.update(change(part))
    with pytest.raises(StructureError, match=message):
        ClientPartition(**fields)


def test_empty_client_is_a_zero_length_span():
    part = generate_population(base_spec(num_clients=3))
    part = ClientPartition(part.inputs, part.labels, [0, 12, 12, 36], part.probe,
                           part.num_classes)
    assert part.sizes.tolist() == [12, 0, 24]
    assert client_batches(part)[1] is None
    assert partition_stats(part).min == 0


def test_partition_arrays_are_read_only():
    part = generate_population(base_spec())
    for array in (part.inputs, part.labels, part.offsets, part.sizes):
        with pytest.raises(ValueError, match="read-only"):
            array[0] = 0
