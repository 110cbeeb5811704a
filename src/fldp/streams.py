"""Keyed Philox random streams.

Every draw in fldp comes from a Philox stream (Salmon et al., "Parallel
Random Numbers: As Easy as 1, 2, 3", SC 2011) seeded by a tuple of
non-negative integers, such as (run seed, stream tag, round, client). Philox
is counter-based: a stream is fully set by its 128-bit key, which numpy
derives as ``SeedSequence(entropy).generate_state(2, np.uint64)``.

``generator`` builds a fresh generator from its entropy. A round needs one
stream per client, so ``cohort_keys`` derives the keys of a whole cohort as
array operations on uint32 words held in uint64, bit for bit numpy's
``SeedSequence`` hash, and ``keyed`` re-keys one reused generator to the
start of each stream in turn, which draws exactly what a fresh generator
would.
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
