import itertools

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from reference import add_noise, global_norm, sub

from fldp import dp
from fldp.dp import (
    FULL_MASK,
    NoiseMask,
    PrivacyParams,
    SigmaKind,
    convert_noise,
    noise_multiplier,
)
from fldp.errors import ConfigError, StructureError
from fldp.param_tree import Layout, ParamTree
from fldp.streams import generator

KINDS = list(SigmaKind)


# -- parametrization conversions ----------------------------------------------


def test_avg_to_client_sqrt16():
    assert convert_noise(1.0, SigmaKind.AVG, SigmaKind.CLIENT, 16) == 4.0


def test_avg_to_sum_16():
    assert convert_noise(1.0, SigmaKind.AVG, SigmaKind.SUM, 16) == 16.0


def test_client_to_avg_published_setting():
    # sigma_client = 9.6e-7 at cohort 1024 corresponds to sigma_avg = 3e-8.
    out = convert_noise(9.6e-7, SigmaKind.CLIENT, SigmaKind.AVG, 1024)
    assert out == pytest.approx(3.0e-8, rel=1e-12)


def test_round_trips_exact_fuzzed():
    rng = np.random.default_rng(21)
    for _ in range(1000):
        sigma = float(rng.uniform(1e-10, 1e3))
        cohort = float(rng.integers(1, 10**6))
        for a, b in itertools.permutations(KINDS, 2):
            mid = convert_noise(sigma, a, b, cohort)
            back = convert_noise(mid, b, a, cohort)
            assert abs(back - sigma) <= 1e-15 * sigma


def test_convert_same_kind_is_bitwise_identity():
    assert convert_noise(0.123, SigmaKind.SUM, SigmaKind.SUM, 77) == 0.123


def test_convert_validation():
    with pytest.raises(ConfigError):
        convert_noise(-1.0, SigmaKind.AVG, SigmaKind.SUM, 4)
    with pytest.raises(ConfigError):
        convert_noise(1.0, SigmaKind.AVG, SigmaKind.SUM, 0)


# -- PrivacyParams / noise multiplier -------------------------------------------


def table_row_params(sigma_avg, clip, cohort, population, steps=2006):
    return PrivacyParams(
        clip_bound=clip,
        sigma=sigma_avg,
        sigma_kind=SigmaKind.AVG,
        population=population,
        cohort_size=cohort,
        num_steps=steps,
        delta=1e-9,
    )


def test_noise_multiplier_published_row_smallest_scale():
    p = table_row_params(3.0e-8, 0.01, 1024, 34_753)
    assert noise_multiplier(p) == pytest.approx(0.003072, rel=1e-12)
    assert p.sampling_rate == pytest.approx(0.0295, rel=1e-2)


def test_noise_multiplier_published_row_largest_scale():
    p = table_row_params(3.0e-8, 0.01, 204_800, 69_506_000, steps=2034)
    assert noise_multiplier(p) == pytest.approx(0.6144, rel=1e-12)


def test_noise_multiplier_zero_sigma():
    p = table_row_params(0.0, 0.01, 16, 100)
    assert noise_multiplier(p) == 0.0


def test_noise_multiplier_domain_errors():
    with pytest.raises(ConfigError):
        noise_multiplier(table_row_params(1.0, 0.0, 16, 100))
    with pytest.raises(ConfigError):
        PrivacyParams(
            clip_bound=1.0, sigma=1.0, population=100, num_steps=1, delta=1e-9
        )


def test_privacy_params_derives_missing_field():
    by_rate = PrivacyParams(
        clip_bound=0.01, sigma=1e-8, population=1000, sampling_rate=0.1,
        num_steps=10, delta=1e-9,
    )
    assert by_rate.cohort_size == pytest.approx(100.0)
    by_size = PrivacyParams(
        clip_bound=0.01, sigma=1e-8, population=1000, cohort_size=100,
        num_steps=10, delta=1e-9,
    )
    assert by_size.sampling_rate == pytest.approx(0.1)


def test_privacy_params_accepts_rounded_rate_but_rejects_disagreement():
    # A table-style rounded q together with the exact cohort is accepted.
    p = PrivacyParams(
        clip_bound=0.01, sigma=3e-8, population=34_753, sampling_rate=0.0295,
        cohort_size=1024, num_steps=2006, delta=1e-9,
    )
    assert p.sensitivity == pytest.approx(0.01 / 1024, rel=1e-15)
    with pytest.raises(ConfigError, match="disagree"):
        PrivacyParams(
            clip_bound=0.01, sigma=3e-8, population=1000, sampling_rate=0.5,
            cohort_size=100, num_steps=1, delta=1e-9,
        )


def test_privacy_params_reject_overflowing_noise_multiplier():
    # sigma_avg = 2.5e299 is finite, but z = sigma_avg * 16 / 1e-10 is not.
    with pytest.raises(ConfigError, match="noise multiplier .* is not finite"):
        PrivacyParams(clip_bound=1e-10, sigma=1e300, sigma_kind="client",
                      population=64, num_steps=2, cohort_size=16)


@pytest.mark.parametrize("field", ["sigma", "clip_bound"])
def test_privacy_params_reject_nan(field):
    # NaN fails every comparison, so a `< 0` check would let it through.
    kwargs = dict(clip_bound=0.01, sigma=1e-8, population=1000,
                  cohort_size=100, num_steps=10, delta=1e-9)
    kwargs[field] = float("nan")
    with pytest.raises(ConfigError, match=f"privacy {field} must be >= 0, got nan"):
        PrivacyParams(**kwargs)


def test_sigma_parametrization_properties():
    p = PrivacyParams(
        clip_bound=0.01, sigma=2.0, sigma_kind=SigmaKind.CLIENT,
        population=400, cohort_size=16, num_steps=5, delta=1e-9,
    )
    assert p.sigma_client == 2.0
    assert p.sigma_avg == pytest.approx(0.5, rel=1e-15)
    assert p.sigma_sum == pytest.approx(8.0, rel=1e-15)


# -- add_noise -------------------------------------------------------------------


def tree_of(rng, layers=(("a", 6), ("b", 3))):
    return ParamTree((n, rng.normal(size=d)) for n, d in layers)


def test_zero_sigma_is_bitwise_identity():
    rng = np.random.default_rng(3)
    t = tree_of(rng)
    out = add_noise(t, 0.0, FULL_MASK, seed=5)
    assert out is t


def test_empty_mask_is_identity():
    rng = np.random.default_rng(4)
    t = tree_of(rng)
    out = add_noise(t, 1.0, NoiseMask(frozenset()), seed=5)
    assert out == t


def test_partial_mask_leaves_excluded_layers_unchanged():
    rng = np.random.default_rng(5)
    t = tree_of(rng)
    out = add_noise(t, 1.0, NoiseMask(frozenset({"a"})), seed=5)
    assert np.array_equal(out["b"], t["b"])
    assert not np.array_equal(out["a"], t["a"])


def test_mask_with_unknown_layer_raises():
    rng = np.random.default_rng(6)
    t = tree_of(rng)
    with pytest.raises(StructureError, match="unknown layers"):
        add_noise(t, 1.0, NoiseMask(frozenset({"nope"})), seed=1)


def test_noise_reproducible_and_seed_sensitive():
    rng = np.random.default_rng(7)
    t = tree_of(rng)
    a = add_noise(t, 0.3, FULL_MASK, seed=11)
    b = add_noise(t, 0.3, FULL_MASK, seed=11)
    c = add_noise(t, 0.3, FULL_MASK, seed=12)
    assert a == b
    assert a != c


def test_law_of_large_numbers_moments():
    t = ParamTree([("big", np.zeros(1_000_000))])
    noised = add_noise(t, 1.0, FULL_MASK, seed=2024)
    sample = noised["big"]
    assert abs(float(sample.mean())) < 4e-3
    assert abs(float(sample.std()) - 1.0) < 0.01


def test_expected_squared_perturbation_norm():
    # E ||noised - clean||^2 == sigma^2 * (total parameter count), within 2%.
    rng = np.random.default_rng(8)
    t = tree_of(rng, layers=(("a", 700), ("b", 300)))
    sigma = 0.37
    total = 0.0
    for draw in range(100):
        noised = add_noise(t, sigma, FULL_MASK, seed=(900, draw))
        total += global_norm(sub(noised, t)) ** 2
    mean_sq = total / 100
    assert mean_sq == pytest.approx(sigma**2 * t.layout.total, rel=0.02)


def test_noise_draws_follow_layer_order():
    # Full mask: one draw over the flat vector. Partial mask: one draw per
    # included layer, in layer order, excluded layers drawing nothing.
    rng = np.random.default_rng(9)
    t = tree_of(rng, layers=(("a", 5), ("b", 3), ("c", 4)))
    sigma, seed = 0.2, (17, 3, 2, 5)

    def stream():
        return np.random.Generator(np.random.Philox(np.random.SeedSequence(seed)))

    full = add_noise(t, sigma, FULL_MASK, np.random.SeedSequence(seed))
    assert full.flat.tobytes() == (
        t.flat + stream().normal(0.0, sigma, size=12)).tobytes()

    partial = add_noise(t, sigma, NoiseMask(frozenset({"a", "c"})),
                        np.random.SeedSequence(seed))
    draws = stream()
    assert partial["a"].tobytes() == (t["a"] + draws.normal(0.0, sigma, 5)).tobytes()
    assert partial["b"].tobytes() == t["b"].tobytes()
    assert partial["c"].tobytes() == (t["c"] + draws.normal(0.0, sigma, 4)).tobytes()


@settings(derandomize=True, database=None, max_examples=150, deadline=None)
@given(data=st.data(), sizes=st.lists(st.integers(1, 9), min_size=1, max_size=5),
       sigma=st.one_of(st.just(0.0), st.floats(1e-8, 1e3)),
       seed=st.integers(0, 2**32 - 1))
def test_add_noise_draws_a_fresh_stream_over_included_layers_in_order(
        data, sizes, sigma, seed):
    layout = Layout.of(tuple(f"l{i}" for i in range(len(sizes))), tuple(sizes))
    included = data.draw(st.one_of(st.none(), st.sets(st.sampled_from(layout.names))))
    vector = np.random.default_rng(seed).normal(size=layout.total)
    given_bytes = vector.tobytes()
    out = dp.add_noise(vector, layout, sigma, NoiseMask(included), generator(seed, 3))
    assert vector.tobytes() == given_bytes
    if sigma == 0.0:
        assert out is vector
        return
    # A fresh generator on the same stream, drawn over the included spans.
    draws = generator(seed, 3)
    want = vector.copy()
    spans = [slice(0, layout.total)] if included is None else [
        span for name, span in zip(layout.names, layout.slices) if name in included]
    for span in spans:
        want[span] = vector[span] + draws.normal(0.0, sigma, span.stop - span.start)
    assert out.tobytes() == want.tobytes()
