"""Random streams: keyed Philox generators and counter-hash local draws.

The cohort, noise, data and initialization draws come from Philox streams
(Salmon et al., "Parallel Random Numbers: As Easy as 1, 2, 3", SC 2011),
each seeded by a tuple of non-negative integers such as (run seed, stream
tag, round) through numpy's ``SeedSequence``. ``SeedSequence`` pads short
entropy with zero words, so a tuple and the same tuple with a trailing 0
key the same stream; every engine stream therefore has its own tag.

Each client's local minibatch draws are part of its private computation,
and no privacy statement depends on them, so they come from a cheaper
counter-based stream built on the SplitMix64 finalizer ``mix`` (Steele,
Lea and Flood, "Fast Splittable Pseudorandom Number Generators", OOPSLA
2014). A client's key chains ``key = mix(key + w + GAMMA)`` over the 64-bit
words w of (seed, tag, round, client id), starting from 0, and its c-th
word is ``mix(key + (c + 1) * GAMMA)``, all modulo 2**64. Each step is a
bijection of the key for a fixed word, so tuples of the same word count
have distinct keys. The words a cohort shares, (seed, tag, round), are
chained once on Python ints; the clients' last step and their words are
uint64 array operations, and no generator is built per client.

``minibatches`` draws steps-mode index sets by Floyd's sampling (Bentley &
Floyd, "A Sample of Brilliance", CACM 1987), and ``permutations`` draws
epochs-mode passes as a sort of hashed words. Which word a draw reads
depends only on the client's own key, pass, slot and size, never on the
other clients of the cohort, so a client's minibatches do not depend on
who else was sampled.
"""

from __future__ import annotations

import operator

import numpy as np

_MASK64 = (1 << 64) - 1
_GAMMA_INT = 0x9E3779B97F4A7C15  # SplitMix64's increment, 2**64 / phi
_M1_INT, _M2_INT = 0xBF58476D1CE4E5B9, 0x94D049BB133111EB
_GAMMA, _M1, _M2 = np.uint64(_GAMMA_INT), np.uint64(_M1_INT), np.uint64(_M2_INT)
_PAD = np.uint64(_MASK64)  # sorts after every other word


def generator(*entropy: int) -> np.random.Generator:
    """A fresh Philox generator seeded by ``SeedSequence(entropy)``."""
    return np.random.Generator(np.random.Philox(np.random.SeedSequence(entropy)))


def _mix(z: np.ndarray) -> np.ndarray:
    """The SplitMix64 finalizer of a uint64 array, in place; returns it.

    Arrays, not numpy scalars: their integer arithmetic wraps silently.
    """
    z ^= z >> np.uint64(30)
    z *= _M1
    z ^= z >> np.uint64(27)
    z *= _M2
    z ^= z >> np.uint64(31)
    return z


def _mix_int(z: int) -> int:
    """The SplitMix64 finalizer of one 64-bit word, on Python ints."""
    z = (z ^ z >> 30) * _M1_INT & _MASK64
    z = (z ^ z >> 27) * _M2_INT & _MASK64
    return z ^ z >> 31


def _words64(value: int) -> list[int]:
    """Little-endian 64-bit words of a non-negative integer; 0 is one word."""
    value = operator.index(value)
    if value < 0:
        raise ValueError(f"stream entropy must be non-negative, got {value}")
    words = [value & _MASK64]
    while value := value >> 64:
        words.append(value & _MASK64)
    return words


def client_keys(seed: int, stream: int, round_index: int, client_ids) -> np.ndarray:
    """(L,) uint64 keys of the local streams (seed, stream, round, client)."""
    ids = np.asarray(client_ids, dtype=np.int64)
    if ids.size and ids.min() < 0:
        raise ValueError("client ids must be non-negative")
    key = 0  # chained over the words every client shares, as a scalar
    for value in (seed, stream, round_index):
        for word in _words64(value):
            key = _mix_int((key + word + _GAMMA_INT) & _MASK64)
    keys = ids.astype(np.uint64)
    keys += np.uint64((key + _GAMMA_INT) & _MASK64)
    return _mix(keys)


def words(keys: np.ndarray, counters: np.ndarray) -> np.ndarray:
    """The words ``mix(key + (c + 1) * GAMMA)``, keys and counters broadcast."""
    steps = (np.asarray(counters, dtype=np.uint64) + np.uint64(1)) * _GAMMA
    return _mix(keys + steps)


def minibatches(keys: np.ndarray, n, batch: int, count: int) -> np.ndarray:
    """``count`` index sets of min(n[i], batch) distinct items of range(n[i]).

    Returns (count, batch, L) indices, -1 past each client's m = min(n[i],
    batch). Pass p runs Floyd's algorithm: slot t = 0 ... m-1 draws
    v in [0, j] for j = n - m + t from word p * batch + t and takes j if v
    was already taken, else v. So a slot's word depends on (pass, slot,
    batch) alone. The bounded draw is ``(word >> 32) * (j + 1) >> 32``: each
    value has probability 1/(j + 1) within a relative error of at most
    (j + 1) / 2**32 <= n / 2**32 (n < 2**32). An index set is used as a
    set, so it is not shuffled.
    """
    n = np.asarray(n, dtype=np.int64)
    m = np.minimum(n, batch)
    top = int(m.max(initial=0))
    t = np.arange(top)[:, None]
    counters = np.arange(count)[:, None, None] * batch + t  # (count, top, 1)
    j = n - m + t  # (top, L)
    picked = words(keys, counters) >> np.uint64(32)
    picked *= (j + 1).astype(np.uint64)
    picked >>= np.uint64(32)
    picked = picked.view(np.int64)
    # Slot-major over the whole cohort: slot s sees the slots before it.
    for s in range(1, top):
        seen = (picked[:, :s] == picked[:, s, None]).any(axis=1)
        picked[:, s] = np.where(seen, j[s], picked[:, s])
    index = np.full((count, batch, n.size), -1, dtype=np.intp)
    index[:, :top] = np.where(t < m, picked, -1)
    return index


def permutations(keys: np.ndarray, n, count: int) -> np.ndarray:
    """``count`` uniformly random orders of range(n[i]) per client.

    Returns (L, count, max n) indices. Pass p sorts item i by word
    p * n + i of the client's stream (stable, so ties keep item order),
    which depends on (pass, item, the client's own n) alone. Items i >= n[i]
    pad the block with the word 2**64 - 1, so they sort last and each row's
    first n[i] entries are the order.
    """
    n = np.asarray(n, dtype=np.int64)
    top = int(n.max(initial=0))
    i = np.arange(top)
    counters = np.arange(count)[:, None] * n[:, None, None] + i  # (L, count, top)
    drawn = words(keys[:, None, None], counters)
    drawn[np.broadcast_to(i >= n[:, None, None], drawn.shape)] = _PAD
    return np.argsort(drawn, axis=-1, kind="stable")
