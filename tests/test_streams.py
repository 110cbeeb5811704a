import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from simtools import linear_model, make_config, small_population

from fldp.engine import run_simulation
from fldp.streams import choice_rows, choice_words, cohort_keys, generator, keyed, rekey

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


def numpy_choices(seed, ids, n, m, count):
    """count successive choice(n, m, replace=False) on each client's fresh stream."""
    rows = []
    for cid, size, take in zip(ids, n, m):
        rng = generator(seed, 2, 1, int(cid))
        rows.append([rng.choice(int(size), int(take), replace=False)
                     for _ in range(count)])
    return rows


def assert_rows_equal(index, expected, m):
    assert index.shape[:2] == (len(expected), len(expected[0]))
    for row, passes, take in zip(index, expected, m):
        for got, want in zip(row, passes):
            assert got[:take].tobytes() == want.astype(got.dtype).tobytes()
            assert (got[take:] == -1).all()


def raw_words(keys, width):
    """The first `width` uint32 words of each key's stream, low half first."""
    raw = np.array([rng.bit_generator.random_raw(-(-width // 2)) for rng in keyed(keys)])
    return np.stack([raw & np.uint64(0xFFFFFFFF), raw >> np.uint64(32)], axis=2)


@settings(derandomize=True, max_examples=150, deadline=None)
@given(
    seed=st.integers(0, 2**64 - 1),
    clients=st.lists(st.tuples(st.integers(1, 60), st.integers(1, 20)),
                     min_size=1, max_size=8),
    count=st.integers(1, 5),
)
def test_choice_rows_equal_numpy_choice_property(seed, clients, count):
    ids = np.arange(len(clients)) * 3 + 1
    n = np.array([size for size, _ in clients])
    m = np.minimum(n, [batch for _, batch in clients])
    index = choice_rows(cohort_keys(seed, 2, 1, ids), n, m, count)
    assert_rows_equal(index, numpy_choices(seed, ids, n, m, count), m)


def test_choice_rows_when_no_client_reads_a_word():
    ids, n = np.arange(5), np.ones(5, dtype=int)
    index = choice_rows(cohort_keys(8, 2, 1, ids), n, n, 3)
    assert index.shape == (5, 3, 1) and (index == 0).all()


def test_choice_rows_route_numpy_tail_shuffle_branch():
    # numpy shuffles the tail of arange(n) for n > 10000 and m > n // 50
    # (m = 500 here) and runs Floyd's algorithm otherwise (m = 400).
    ids, n, m = np.array([3, 9]), np.array([20000, 20000]), np.array([500, 400])
    index = choice_rows(cohort_keys(6, 2, 1, ids), n, m, 2)
    assert_rows_equal(index, numpy_choices(6, ids, n, m, 2), m)


def test_choice_words_flags_a_rejected_word():
    # Floyd's first bound for n = 6, m = 2 is r = 4, and numpy rejects a
    # zero word there since 2**32 % 5 = 1. Row 2 (n = m = 2) draws only at
    # bound 1, where r + 1 is a power of two and no word is rejected: Floyd
    # gives [0, 1] and the shuffle swaps the two items.
    words = np.zeros((2, 3), dtype=np.uint64)
    index, rejected = choice_words(words, [6, 2], [2, 2], 1)
    assert rejected.tolist() == [True, False]
    assert index[1, 0].tolist() == [1, 0]


def test_choice_rows_redraw_rejected_rows_with_numpy():
    # Bounds near 10**6 reject about one word in 8600, so a few of these
    # 64 streams reject within their 799 words.
    ids = np.arange(64)
    n, m = np.full(64, 10**6), np.full(64, 400)
    keys = cohort_keys(4, 2, 1, ids)
    _, rejected = choice_words(raw_words(keys, 799), n, m, 1)
    assert rejected.any()
    assert_rows_equal(choice_rows(keys, n, m, 1), numpy_choices(4, ids, n, m, 1), m)


def test_steps_round_makes_no_choice_call(monkeypatch):
    """A steps round reads raw words; `Generator.choice` is only a fallback."""
    calls = []

    class CountingGenerator(np.random.Generator):
        def choice(self, *args, **kwargs):
            calls.append(args)
            return super().choice(*args, **kwargs)

    _, pop = small_population(num_clients=32, count=6)
    # Every client joins a Bernoulli cohort at rate 1, with no choice call.
    cfg = make_config(pop, num_rounds=1, cohort_rate=1.0, local_count=4,
                      batch_size=4, seed=3)
    monkeypatch.setattr(np.random, "Generator", CountingGenerator)
    result = run_simulation(cfg, pop, linear_model())
    assert len(result.metrics[0].cohort_ids) == 32
    assert calls == []
