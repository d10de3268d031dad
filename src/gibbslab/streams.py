"""One counter-based stream law for every seeded trial: SplitMix64 keys and uniforms.

The law.  With GAMMA = 0x9E3779B97F4A7C15 and mix the SplitMix64 finalizer
(Steele, Lea & Flood, OOPSLA 2014), output i of a 64-bit key k is
mix(k + (i + 1) * GAMMA) mod 2**64, and uniform i is the top 53 bits of
output i times 2**-53: SplitMix64's own sequence from state k, which passes
TestU01's BigCrush.  No state runs from one output to the next (a
counter-based generator; Salmon et al., "Parallel random numbers: as easy
as 1, 2, 3", SC 2011), so a block of streams is about a dozen uint64 array
operations per output.

Trial keys.  A trial's key folds key <- mix(key ^ word) from 0 over the
master seed's 32-bit words (least significant first; 0 is one word), their
count, which keeps a seed apart from the same seed followed by a zero word,
and the trial's path words, each in [0, 2**32).  Its data key and draw key
are outputs 0 and 1 of that key: the dataset reads the data key's uniforms,
the hypothesis the draw key's first.

Overlap.  Uniform i of key k reads the counter k + (i + 1) * GAMMA, so
streams of n outputs overlap only when their keys lie within n steps of
GAMMA.  For keys that look uniform, one of T streams meets another with
probability below about 2 * T * n / 2**64, and some pair of them does with
probability below T**2 * n / 2**64 (5e-10 for 10**4 trials of n = 10**3).

numpy arrays wrap on integer overflow without a warning, so every operand
here is an array; a numpy scalar would warn.
"""

from __future__ import annotations

import numpy as np

from .model import MAX_POINTS, _check_count

__all__ = ["seed_pairs", "uniform_rows", "trial_streams"]

MASK32 = 0xFFFFFFFF
MASK64 = 0xFFFFFFFFFFFFFFFF
# SplitMix64's increment (2**64 over the golden ratio, made odd) and its finalizer's multipliers
GAMMA = 0x9E3779B97F4A7C15
MIX_A, MIX_B = 0xBF58476D1CE4E5B9, 0x94D049BB133111EB
# cells per chunk of the law: its uint64 temporaries stay at 64 KiB
OUTPUT_CELLS = 8192


def _mix(z: np.ndarray) -> np.ndarray:
    """SplitMix64's finalizer, in place on a uint64 array."""
    z ^= z >> 30
    z *= MIX_A
    z ^= z >> 27
    z *= MIX_B
    z ^= z >> 31
    return z


def _outputs(keys: np.ndarray, n: int, uniform: bool = True) -> np.ndarray:
    """(len(keys), n): output i of each key, as a double in [0, 1) or, with uniform false, as uint64.

    The law runs on chunks of at most OUTPUT_CELLS cells, so its
    temporaries stay in cache however many keys or outputs a call asks for.
    """
    # the counter offset of output i, (i + 1) * GAMMA mod 2**64
    steps = np.arange(1, n + 1, dtype=np.uint64) * np.uint64(GAMMA)
    out = np.empty((len(keys), n), dtype=float if uniform else np.uint64)
    rows, cols = max(1, OUTPUT_CELLS // n), min(n, OUTPUT_CELLS)
    for row in range(0, len(keys), rows):
        for col in range(0, n, cols):
            chunk = out[row : row + rows, col : col + cols]
            z = _mix(keys[row : row + rows, None] + steps[col : col + cols])
            if uniform:
                # the top 53 bits, below 2**53, as a double
                chunk[...] = (z >> 11).view(np.int64)
                chunk *= 1.0 / 9007199254740992.0
            else:
                chunk[...] = z
    return out


def _head(master_seed) -> np.ndarray:
    """(1,) uint64: the key folded over the master seed's 32-bit words and their count."""
    _check_count("master_seed", master_seed, 0)
    value = int(master_seed)
    words = [value >> shift & MASK32 for shift in range(0, max(value.bit_length(), 1), 32)]
    key = np.zeros(1, dtype=np.uint64)
    for word in (*words, len(words)):
        key = _mix(key ^ word)
    return key


def seed_pairs(master_seed: int, paths) -> np.ndarray:
    """(2, T) uint64: column j is the data key and the draw key of the trial with path paths[:, j].

    paths is a (k, T) array of words in [0, 2**32), one column per trial, so
    one call may cover trials under several prefixes (a beta index above a
    trial index, say); master_seed may be any non-negative integer.
    """
    words = np.asarray(paths)
    if words.size and not np.issubdtype(words.dtype, np.integer):
        raise TypeError("paths must be integers")
    if words.ndim != 2 or (words.size and not 0 <= words.min() <= words.max() <= MASK32):
        raise ValueError("paths must be a (k, T) array of words in [0, 2**32)")
    keys = np.repeat(_head(master_seed), words.shape[1])
    for row in words:
        keys = _mix(keys ^ row.astype(np.uint64))
    return _outputs(keys, 2, uniform=False).T


def uniform_rows(seeds, n: int) -> np.ndarray:
    """(T, n) doubles: row i holds the first n uniforms of key seeds[i], for seeds in [0, 2**64).

    A uint64 array of seeds is taken as it is, without a check per seed.
    """
    _check_count("n", n, 1, MAX_POINTS)
    if not (isinstance(seeds, np.ndarray) and seeds.dtype == np.uint64):
        seeds = list(seeds)
        for seed in seeds:
            _check_count("seeds", seed, 0, MASK64)
        seeds = np.array(seeds, dtype=np.uint64)
    return _outputs(seeds, n)


def trial_streams(master_seed: int, paths, n: int, datasets: int | None = None) -> tuple:
    """Every stream of a block of trials: data keys, data uniforms, draw uniforms.

    Trial j has the keys seed_pairs(master_seed, paths)[:, j].  Returns the
    (T,) uint64 data keys, the first n uniforms of the data keys of the
    first datasets trials (all T by default) as a (datasets, n) block, and
    the first uniform of every draw key.
    """
    _check_count("n", n, 1, MAX_POINTS)
    data_keys, draw_keys = seed_pairs(master_seed, paths)
    return data_keys, _outputs(data_keys[:datasets], n), _outputs(draw_keys, 1)[:, 0]
