"""Keyed Philox random streams.

Every draw in fldp comes from a Philox stream (Salmon et al., "Parallel
Random Numbers: As Easy as 1, 2, 3", SC 2011) seeded by a tuple of
non-negative integers, such as (run seed, stream tag, round, client). Philox
is counter-based: a stream is fully set by its 128-bit key, which numpy
derives as ``SeedSequence(entropy).generate_state(2, np.uint64)``.
``SeedSequence`` pads short entropy with zero words, so a tuple and the
same tuple with a trailing 0 key the same stream: the engine's per-round
noise stream (seed, 3, round) is the stream (seed, 3, round, 0). No
per-client stream may use the noise tag 3, or client 0's stream would be
the round's noise.

``generator`` builds a fresh generator from its entropy. A round needs one
stream per client, so ``cohort_keys`` derives the keys of a whole cohort as
array operations on uint32 words held in uint64, bit for bit numpy's
``SeedSequence`` hash, and ``keyed`` re-keys one reused generator to the
start of each stream in turn, which draws exactly what a fresh generator
would.

``choice_rows`` draws ``count`` successive ``choice(n, m, replace=False)``
index sets for every stream of a cohort. numpy runs Floyd's sampling
(Bentley & Floyd, "A Sample of Brilliance", CACM 1987) and then a
Fisher-Yates shuffle, and takes each bounded integer by Lemire's
multiply-and-reject method (Lemire, "Fast Random Integer Generation in an
Interval", ACM TOMACS 2019) from one 32-bit word of the stream. So each
stream makes one ``random_raw`` call, and ``choice_words`` turns the words
into index sets as array operations over the whole cohort. Streams where
numpy would read differently call ``Generator.choice`` themselves.
"""

from __future__ import annotations

import operator

import numpy as np

_MASK = 0xFFFFFFFF
# numpy's SeedSequence constants: a pool of 4 words, the entropy hash
# (A), the output hash (B) and the pool mix.
_POOL = 4
_INIT_A, _MULT_A = 0x43B0D7E5, 0x931E8875
_INIT_B, _MULT_B = 0x8B51F9DD, 0x58F38DED
_MIX_L, _MIX_R = 0xCA01F9DD, 0x4973F715


def generator(*entropy: int) -> np.random.Generator:
    """A fresh Philox generator seeded by ``SeedSequence(entropy)``."""
    return np.random.Generator(np.random.Philox(np.random.SeedSequence(entropy)))


def _words(value: int) -> list[int]:
    """Little-endian uint32 words of a non-negative integer; 0 is one word."""
    value = operator.index(value)
    if value < 0:
        raise ValueError(f"stream entropy must be non-negative, got {value}")
    words = [value & _MASK]
    value >>= 32
    while value:
        words.append(value & _MASK)
        value >>= 32
    return words


# Each helper takes Python ints or uint64 arrays of uint32 values. No
# product or difference leaves [0, 2**64), so nothing wraps.

def _hash(value, h, mult):
    """One hash step; returns the hashed value and the next hash constant."""
    h_next = h * mult & _MASK
    value = (value ^ h) * h_next & _MASK
    return value ^ value >> 16, h_next


def _mix(x, y):
    value = ((_MIX_L * x & _MASK) + (1 << 32) - (_MIX_R * y & _MASK)) & _MASK
    return value ^ value >> 16


def cohort_keys(seed: int, stream: int, round_index: int, client_ids) -> np.ndarray:
    """(L, 2) uint64 Philox keys of the streams (seed, stream, round, client).

    Row i equals ``SeedSequence((seed, stream, round_index, client_ids[i]))
    .generate_state(2, np.uint64)``. Client ids must lie in [0, 2**32).
    """
    ids = np.asarray(client_ids)
    if ids.ndim != 1 or (ids.size and ids.dtype.kind not in "iu"):
        raise TypeError("client ids must be a sequence of integers")
    if ids.size and (ids.min() < 0 or ids.max() > _MASK):
        raise ValueError("client ids must lie in [0, 2**32)")
    entropy = [*_words(seed), *_words(stream), *_words(round_index),
               ids.astype(np.uint64)]
    # Words shared by every client stay Python ints until a client's word
    # is mixed in.
    h = _INIT_A
    pool = []
    for i in range(_POOL):
        value, h = _hash(entropy[i] if i < len(entropy) else 0, h, _MULT_A)
        pool.append(value)
    for src in range(_POOL):
        for dst in range(_POOL):
            if src != dst:
                value, h = _hash(pool[src], h, _MULT_A)
                pool[dst] = _mix(pool[dst], value)
    for word in entropy[_POOL:]:
        for dst in range(_POOL):
            value, h = _hash(word, h, _MULT_A)
            pool[dst] = _mix(pool[dst], value)
    h = _INIT_B
    out = []
    for word in pool:  # two uint64 words take the whole pool once
        value, h = _hash(word, h, _MULT_B)
        out.append(value)
    keys = np.empty((ids.size, 2), dtype=np.uint64)
    keys[:, 0] = out[0] | out[1] << 32
    keys[:, 1] = out[2] | out[3] << 32
    return keys


_ZEROS = (0, 0, 0, 0)


def rekey(rng: np.random.Generator, key) -> np.random.Generator:
    """Move rng's Philox to the start of the stream with this 128-bit key.

    Counter, buffer and the half-used uint32 are reset too, so the draws
    equal those of a freshly built generator with the same key.
    """
    rng.bit_generator.state = {
        "bit_generator": "Philox",
        "state": {"counter": _ZEROS, "key": key},
        "buffer": _ZEROS,
        "buffer_pos": 4,
        "has_uint32": 0,
        "uinteger": 0,
    }
    return rng


def keyed(keys: np.ndarray):
    """One generator per row of an (L, 2) key array, at its stream's start.

    The same generator is re-keyed for every row, so draw from each before
    taking the next.
    """
    rng = np.random.Generator(np.random.Philox(0))
    for key in np.asarray(keys, dtype=np.uint64).tolist():
        yield rekey(rng, key)


# numpy's choice(n, m, replace=False) shuffles the tail of arange(n) when
# n > 10000 and m > n // 50, and runs Floyd's algorithm otherwise.
_TAIL_MIN, _TAIL_DIV = 10000, 50


def choice_words(words, n, m, count: int):
    """Floyd's draws of ``choice(n, m, replace=False)`` from given stream words.

    Row i of ``words`` holds stream i's uint32 words in the order numpy's
    bounded draws read them. A pass draws ``v = bounded(j)`` for
    j = n-m ... n-1, keeping j where v was already chosen, then swaps item
    i with item ``bounded(i)`` for i = m-1 ... 1. ``bounded(r)`` is Lemire's
    multiply-and-reject method on one word, and ``bounded(0)`` reads none.
    The ``count`` passes read the stream in turn. Returns the
    (L, count, max m) index sets, -1 past each row's m, and an (L,) mask of
    the rows where numpy would reject a word and read another; their index
    sets are not numpy's.
    """
    n = np.asarray(n, dtype=np.int64)
    m = np.asarray(m, dtype=np.int64)
    top = int(m.max())
    words = np.asarray(words, dtype=np.uint64).reshape(n.size, -1)
    if words.shape[1] == 0:  # no row reads a word; keep the gather in range
        words = np.zeros((n.size, 1), dtype=np.uint64)
    # Work slot-major: a pass has `top` Floyd slots t, then `top - 1`
    # shuffle slots i, and each slot is one column per stream.
    t = np.arange(top)[:, None]
    i = np.arange(top - 1, 0, -1)[:, None]
    full = n == m  # Floyd's first bound is 0
    width = 2 * m - 1 - full  # words read by one pass
    bound = np.concatenate([n - m + t, np.broadcast_to(i, (top - 1, n.size))])
    active = np.concatenate([t < m, i < m])
    reads = active & (bound > 0)
    word = np.where(reads, np.concatenate([t - full, width - i]), 0)
    word = word[:, None, :] + np.arange(count)[:, None] * width
    # Slots that read no word get bound 0, which draws 0 and never rejects.
    excl = np.where(reads, bound + 1, 1).astype(np.uint64)[:, None, :]
    drawn = words[np.arange(n.size), word] * excl  # (slot, pass, stream)
    low = drawn & np.uint64(_MASK)
    drawn >>= np.uint64(32)
    drawn = drawn.view(np.int64)
    # numpy rejects where low < (2**32 - excl) % excl, which is below excl,
    # so the modulo runs only where low < excl.
    slot, rep, row = np.nonzero(low < excl)
    b = excl[slot, 0, row]
    rejected = np.zeros(n.size, dtype=bool)
    rejected[row[low[slot, rep, row] < (np.uint64(1 << 32) - b) % b]] = True
    picked = drawn[:top]
    j = n - m + t
    for s in range(1, top):
        seen = (picked[:s] == picked[s]).any(axis=0)
        picked[s] = np.where(seen, j[s], picked[s])
    flat = picked.reshape(top, -1)
    cols = np.arange(flat.shape[1])
    # A stream past its m swaps item i with itself.
    swap = np.where(active[top:, None, :], drawn[top:], i[:, None]).reshape(top - 1, cols.size)
    for col, other in zip(i[:, 0].tolist(), swap):
        held = flat[col].copy()
        flat[col] = flat[other, cols]
        flat[other, cols] = held
    picked = np.where(active[:top, None, :], picked, -1)
    return picked.transpose(2, 1, 0), rejected


def choice_rows(keys: np.ndarray, n, m, count: int) -> np.ndarray:
    """``count`` successive ``choice(n[i], m[i], replace=False)`` per stream.

    Row i of the (L, 2) ``keys`` keys stream i. Returns (L, count, max m)
    index sets, -1 past each row's m. Each row equals, bit for bit, the
    draws of a fresh generator on its key: every stream makes one
    ``random_raw`` call for the words ``choice_words`` reads, and only rows
    in numpy's tail-shuffle branch or with a rejected word call
    ``Generator.choice``.
    """
    keys = np.asarray(keys, dtype=np.uint64)
    n = np.asarray(n, dtype=np.int64)
    m = np.asarray(m, dtype=np.int64)
    need = -(-count * (2 * m - 1 - (n == m)) // 2)  # raw uint64s per stream
    raw = np.zeros((n.size, int(need.max())), dtype=np.uint64)
    for row, (rng, size) in enumerate(zip(keyed(keys), need.tolist())):
        raw[row, :size] = rng.bit_generator.random_raw(size)
    # A raw uint64 yields its low half first: its little-endian uint32 pair.
    words = raw.astype("<u8", copy=False).view("<u4")
    index, redraw = choice_words(words, n, m, count)
    redraw |= (n > _TAIL_MIN) & (m > n // _TAIL_DIV)
    redraw = np.flatnonzero(redraw)
    for row, rng in zip(redraw.tolist(), keyed(keys[redraw])):
        for rep in range(count):
            index[row, rep, : m[row]] = rng.choice(n[row], m[row], replace=False)
    return index
