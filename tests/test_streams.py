import ast
import itertools
import math
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from reference import local_batches, local_key
from simtools import linear_model, make_config, small_population

from fldp import data, engine, models
from fldp.engine import LocalConfig, LocalMode, run_simulation
from fldp.streams import client_keys, generator, permutations, words


def philox_key(*entropy):
    """The key of the generator that ``generator(*entropy)`` builds."""
    return tuple(generator(*entropy).bit_generator.state["state"]["key"].tolist())


def stream_tags():
    """Every stream tag of the engine, the data generator and init_params."""
    tags = [value for module in (engine, data)
            for name, value in vars(module).items() if name.startswith("_STREAM_")]
    with mock.patch.object(models, "generator", wraps=generator) as init:
        models.init_params(linear_model(), 0)
    return tags + [call.args[1] for call in init.call_args_list]


@settings(derandomize=True, database=None, max_examples=200, deadline=None)
@given(
    seed=st.integers(0, 2**64 - 1),
    round_index=st.integers(1, 2**32 - 1),
    cohort=st.sets(st.integers(0, 2**32 - 1), max_size=8).map(sorted),
)
def test_streams_are_separate(seed, round_index, cohort):
    # The cohort and noise streams are Philox streams on their own tags;
    # each client's local stream has its own key, and none of its first
    # words repeats a raw word of the round's Philox streams.
    philox = [(tag, round_index) for tag in (engine._STREAM_COHORT,
                                             engine._STREAM_NOISE)]
    assert philox_key(seed, *philox[0]) != philox_key(seed, *philox[1])
    keys = client_keys(seed, engine._STREAM_LOCAL, round_index, cohort)
    assert len(set(keys.tolist())) == len(cohort)
    raw = {word for entropy in philox
           for word in generator(seed, *entropy).bit_generator.random_raw(4).tolist()}
    assert raw.isdisjoint(words(keys[:, None], np.arange(4)).ravel().tolist())
    tags = stream_tags()
    assert len(set(tags)) == len(tags)


@settings(derandomize=True, database=None, max_examples=100, deadline=None)
@given(triples=st.sets(st.tuples(st.integers(0, 2**70), st.integers(0, 2**33),
                                 st.integers(0, 2**32 - 1)),
                       min_size=2, max_size=40))
def test_local_keys_are_distinct_and_equal_the_scalar_reference(triples):
    # Seeds from 2**64 up take two key words.
    keys = [int(client_keys(seed, engine._STREAM_LOCAL, t, [cid])[0])
            for seed, t, cid in triples]
    assert keys == [local_key(*triple) for triple in triples]
    assert len(set(keys)) == len(keys)


@pytest.mark.parametrize("entropy", [(-1, 2, 3, [0]), (1, -2, 3, [0]),
                                     (1, 2, -3, [0]), (1, 2, 3, [4, -5])])
def test_client_keys_reject_negative_entropy(entropy):
    with pytest.raises(ValueError):
        client_keys(*entropy)


def client_steps(order, index, row):
    """The minibatch index lists of the client in row `row` of the cohort."""
    col = int(np.flatnonzero(order == row)[0])
    steps = [step[step >= 0] for step in index[:, :, col]]
    return [step.tolist() for step in steps if step.size]


@settings(derandomize=True, database=None, max_examples=150, deadline=None)
@given(
    seed=st.integers(0, 2**64 - 1),
    sizes=st.lists(st.integers(1, 70), min_size=1, max_size=8),
    batch=st.integers(1, 16),
    count=st.integers(1, 4),
    mode=st.sampled_from(list(LocalMode)),
)
def test_index_sets_are_in_range_without_repeats(seed, sizes, batch, count, mode):
    ids = np.arange(len(sizes)) * 3 + 1
    local = LocalConfig(mode, count=count, batch_size=batch, lr=0.1)
    keys = client_keys(seed, engine._STREAM_LOCAL, 1, ids)
    order, index = engine._draw_minibatches(np.array(sizes), local, keys)
    # The clients still training at a step are a prefix of the columns, and
    # every client trains from the first step on without a gap.
    active = (index >= 0).any(axis=1)
    assert (active[:, 1:] <= active[:, :-1]).all()
    assert (active[1:] <= active[:-1]).all()
    per_pass = 1 if mode == LocalMode.STEPS else -(-max(sizes) // batch)
    assert index.shape == (count * per_pass, batch, len(sizes))
    for row, (cid, n) in enumerate(zip(ids.tolist(), sizes)):
        steps = client_steps(order, index, row)
        if mode == LocalMode.STEPS:
            passes = steps
            assert len(steps) == count
            assert all(len(step) == min(n, batch) for step in steps)
        else:
            per_pass = -(-n // batch)
            assert len(steps) == count * per_pass
            passes = [sum(steps[p:p + per_pass], [])
                      for p in range(0, len(steps), per_pass)]
            assert all(len(one) == n for one in passes)
        for one in passes:
            assert len(set(one)) == len(one)
            assert all(0 <= i < n for i in one)
        want = local_batches(seed, 1, cid, n, local)
        assert steps == [idx.tolist() for idx in want]


def binomial_slack(p, draws):
    """Five binomial standard deviations of a frequency over `draws` trials."""
    return 5.0 * math.sqrt(p * (1.0 - p) / draws)


def test_minibatch_inclusion_frequencies_are_uniform():
    # 5000 clients x 4 passes of 4 items from 10. Every item is in a set
    # with probability 4/10 and every pair with 4*3/(10*9); each frequency
    # must lie within five binomial standard deviations of it.
    n, batch, count, clients = 10, 4, 4, 5000
    local = LocalConfig(LocalMode.STEPS, count=count, batch_size=batch, lr=0.1)
    keys = client_keys(11, engine._STREAM_LOCAL, 3, np.arange(clients))
    _, index = engine._draw_minibatches(np.full(clients, n), local, keys)
    sets = index.transpose(0, 2, 1).reshape(-1, batch)  # (count * clients, 4)
    draws = sets.shape[0]
    member = np.zeros((draws, n), dtype=bool)
    member[np.arange(draws)[:, None], sets] = True
    single, pair = batch / n, batch * (batch - 1) / (n * (n - 1))
    freq = member.mean(axis=0)
    assert np.abs(freq - single).max() <= binomial_slack(single, draws)
    for a, b in itertools.combinations(range(n), 2):
        both = np.mean(member[:, a] & member[:, b])
        assert abs(both - pair) <= binomial_slack(pair, draws), (a, b)


# The 0.999 quantiles of chi-squared with n! - 1 degrees of freedom.
CHI2_999 = {2: 10.828, 3: 20.515, 4: 49.728}


def test_epoch_orders_are_uniform():
    # 7200 clients of sizes 2, 3 and 4 in turn, 3 passes each: 7200 orders
    # of each n, padded to 4 in one block. Each n's counts over its n!
    # orders must pass a chi-squared test at level 0.001.
    sizes = np.resize([2, 3, 4], 7200)
    keys = client_keys(5, engine._STREAM_LOCAL, 9, np.arange(sizes.size))
    perm = permutations(keys, sizes, 3)
    for n, bound in CHI2_999.items():
        rows = perm[sizes == n][:, :, :n].reshape(-1, n)
        orders = list(itertools.permutations(range(n)))
        seen = {order: 0 for order in orders}
        for row in map(tuple, rows.tolist()):
            seen[row] += 1
        expected = rows.shape[0] / len(orders)
        chi2 = sum((c - expected) ** 2 / expected for c in seen.values())
        assert chi2 <= bound, (n, chi2)


@pytest.mark.parametrize("mode", list(LocalMode))
def test_client_draws_do_not_depend_on_the_cohort(mode):
    # Client 5, below and above the batch size, reads the same words alone
    # and between smaller and larger clients, whatever the cohort's largest
    # n or m.
    local = LocalConfig(mode, count=3, batch_size=4, lr=0.1)

    def steps_of_client_5(ids, sizes):
        keys = client_keys(8, engine._STREAM_LOCAL, 2, ids)
        order, index = engine._draw_minibatches(np.array(sizes), local, keys)
        return client_steps(order, index, ids.index(5))

    for n in (3, 9):
        alone = steps_of_client_5([5], [n])
        assert alone == steps_of_client_5([1, 5, 8], [2, n, 40])
        assert alone == steps_of_client_5([0, 2, 5], [1, 2, n])


def round_generators(monkeypatch, cohort_size, mode):
    """The entropy of every SeedSequence a one-round run builds."""
    _, pop = small_population(num_clients=40, count=6)
    cfg = make_config(pop, num_rounds=1, cohort_size=cohort_size,
                      local_mode=mode, batch_size=4, sigma_client=0.01, seed=3)
    built = []
    real = np.random.SeedSequence

    def recording(entropy, *args, **kwargs):
        built.append(tuple(entropy))
        return real(entropy, *args, **kwargs)

    monkeypatch.setattr(np.random, "SeedSequence", recording)
    run_simulation(cfg, pop, linear_model())
    monkeypatch.undo()
    return built


def test_stream_set_up_does_not_grow_with_the_cohort(monkeypatch):
    # In either mode the run builds the init stream, then the round's cohort
    # and noise streams; the local streams build no generator.
    for mode in LocalMode:
        small = round_generators(monkeypatch, 2, mode)
        assert small == round_generators(monkeypatch, 32, mode)
        assert [entropy[1] for entropy in small[1:]] == [engine._STREAM_COHORT,
                                                          engine._STREAM_NOISE]


def draw_calls(monkeypatch, mode):
    """`choice` and `permutation` calls of a one-round run in `mode`."""
    calls = []

    class CountingGenerator(np.random.Generator):
        def choice(self, *args, **kwargs):
            calls.append(("choice", args))
            return super().choice(*args, **kwargs)

        def permutation(self, *args, **kwargs):
            calls.append(("permutation", args))
            return super().permutation(*args, **kwargs)

    _, pop = small_population(num_clients=32, count=6)
    # Every client joins a Bernoulli cohort at rate 1, with no choice call.
    cfg = make_config(pop, num_rounds=1, cohort_rate=1.0, local_mode=mode,
                      local_count=4, batch_size=4, seed=3)
    monkeypatch.setattr(np.random, "Generator", CountingGenerator)
    result = run_simulation(cfg, pop, linear_model())
    assert len(result.metrics[0].cohort_ids) == 32
    return calls


def test_steps_round_makes_no_choice_call(monkeypatch):
    assert draw_calls(monkeypatch, LocalMode.STEPS) == []


def test_epochs_round_makes_no_permutation_call(monkeypatch):
    assert draw_calls(monkeypatch, LocalMode.EPOCHS) == []


def test_reference_draw_shares_no_stream_code():
    # The scalar reference draw must not call the draw it checks.
    tree = ast.parse((Path(__file__).parent / "reference.py").read_text())
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "fldp.streams":
            assert [alias.name for alias in node.names] == ["generator"]
        elif isinstance(node, ast.ImportFrom) and node.module == "fldp":
            assert "streams" not in [alias.name for alias in node.names]
        elif isinstance(node, ast.Import):
            assert not any(alias.name.startswith("fldp.streams")
                           for alias in node.names)
