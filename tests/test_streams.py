import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from simtools import linear_model, make_config, small_population

from fldp.engine import run_simulation
from fldp.streams import cohort_keys, generator, keyed, rekey

pytestmark = pytest.mark.filterwarnings("error::RuntimeWarning")


def numpy_key(*entropy):
    return np.random.SeedSequence(entropy).generate_state(2, np.uint64)


@pytest.mark.parametrize("prefix", [
    (123, 2, 1), (2**40 + 5, 3, 7), (0, 1, 0), (2**64 - 1, 2, 2006),
])
def test_cohort_keys_equal_numpy_for_a_paper_sized_cohort(prefix):
    ids = np.arange(1025) * 34 + 3
    keys = cohort_keys(*prefix, ids)
    assert keys.dtype == np.uint64 and keys.shape == (1025, 2)
    expected = np.array([numpy_key(*prefix, int(cid)) for cid in ids])
    assert np.array_equal(keys, expected)


@settings(derandomize=True, max_examples=200, deadline=None)
@given(
    seed=st.integers(0, 2**70 - 1),
    stream=st.integers(0, 2**33),
    round_index=st.integers(0, 2**33 - 1),
    client_ids=st.lists(st.integers(0, 2**32 - 1), min_size=1, max_size=6),
)
def test_cohort_keys_equal_numpy_property(seed, stream, round_index, client_ids):
    keys = cohort_keys(seed, stream, round_index, client_ids)
    expected = [numpy_key(seed, stream, round_index, cid) for cid in client_ids]
    assert np.array_equal(keys, np.array(expected))


def test_cohort_keys_of_no_clients():
    assert cohort_keys(1, 2, 3, []).shape == (0, 2)


@pytest.mark.parametrize("entropy", [
    (-1, 2, 3, [0]), (1, -2, 3, [0]), (1, 2, -3, [0]), (1, 2, 3, [4, -5]),
    (1, 2, 3, [2**32]),
])
def test_cohort_keys_reject_entropy_out_of_range(entropy):
    with pytest.raises(ValueError):
        cohort_keys(*entropy)


def draws(rng):
    return [rng.choice(20, 11, replace=False), rng.permutation(13),
            rng.normal(0.0, 1.0, size=7)]


def test_rekeyed_generator_draws_like_a_fresh_one():
    reused = generator(0)
    # An odd number of uint32 draws leaves half a uint64 buffered.
    reused.choice(20, 11, replace=False)
    rekey(reused, numpy_key(9, 2, 4, 31))
    for a, b in zip(draws(reused), draws(generator(9, 2, 4, 31))):
        assert a.tobytes() == b.tobytes()


def test_keyed_streams_start_fresh_for_every_key():
    keys = cohort_keys(5, 3, 1, [0, 7, 7, 2])
    drawn = [(rng.choice(20, 11, replace=False), rng.normal(size=3))
             for rng in keyed(keys)]
    for cid, (picked, normals) in zip([0, 7, 7, 2], drawn):
        fresh = generator(5, 3, 1, cid)
        assert picked.tobytes() == fresh.choice(20, 11, replace=False).tobytes()
        assert normals.tobytes() == fresh.normal(size=3).tobytes()


def count_constructions(monkeypatch, cohort_size):
    """SeedSequence, Philox and Generator objects one round builds."""
    _, pop = small_population(num_clients=40, count=6)
    cfg = make_config(pop, num_rounds=1, cohort_size=cohort_size,
                      sigma_client=0.01, seed=3)
    built = {"SeedSequence": 0, "Philox": 0, "Generator": 0}
    for name in built:
        real = getattr(np.random, name)

        def counting(*args, _real=real, _name=name, **kwargs):
            built[_name] += 1
            return _real(*args, **kwargs)

        monkeypatch.setattr(np.random, name, counting)
    run_simulation(cfg, pop, linear_model())
    monkeypatch.undo()
    return built


def test_stream_set_up_does_not_grow_with_the_cohort(monkeypatch):
    small = count_constructions(monkeypatch, 2)
    large = count_constructions(monkeypatch, 32)
    assert small["SeedSequence"] > 0  # the cohort draw's own stream
    assert small == large
