"""numpy's SeedSequence and PCG64 streams for a whole block of seeds at once.

The seed contract is numpy's: trial t under (master_seed, *prefix) seeds its
streams from SeedSequence([master_seed, *prefix, t]).generate_state(2,
np.uint64), and seed s gives the stream Generator(PCG64(s)).random().  Both
are integer recurrences, so they are computed here with array arithmetic
over a block of trials and carry numpy's exact bits:

- SeedSequence is a uint32 hash: each entropy word is hashed into a pool of
  four words, the pool words are mixed with each other, entropy beyond four
  words is mixed into every pool word, and the output words hash the pool
  in a cycle.  The hash constants run through a fixed sequence, the same
  for every seed, so one pass over uint32 arrays hashes a whole block.
- PCG64 seeds a 128-bit LCG from SeedSequence(seed).generate_state(4,
  np.uint64) and outputs the XSL-RR of each new state.  Its k-th state is
  the closed-form jump A_k * s0 + B_k * inc (Brown, "Random number
  generation with arbitrary strides", 1994), so all n states of a row are
  one broadcast multiply-add.  A 128-bit number is a (hi, lo) pair of uint64
  arrays, and the high half of a 64-bit product is built from 32-bit limbs.

numpy arrays wrap on integer overflow without a warning, so every operand
here is an array; a numpy scalar would warn instead.  The per-call
functions (harness.derive_seed_pair, model.sample_dataset,
gibbs.sample_hypotheses) keep numpy's own constructors, which are cheaper
for a single stream, and are the reference the tests hold this module to.
"""

from __future__ import annotations

import functools
import numbers
import operator

import numpy as np

__all__ = ["seed_pairs", "uniform_rows"]

MASK32 = 0xFFFFFFFF
MASK64 = 0xFFFFFFFFFFFFFFFF
MASK128 = (1 << 128) - 1
# numpy's SeedSequence: pool size, entropy hash, output hash and pool mixing
POOL_SIZE = 4
INIT_A, MULT_A = 0x43B0D7E5, 0x931E8875
INIT_B, MULT_B = 0x8B51F9DD, 0x58F38DED
MIX_MULT_L, MIX_MULT_R = 0xCA01F9DD, 0x4973F715
# PCG64's 128-bit LCG multiplier
PCG_MULTIPLIER = 0x2360ED051FC65DA44385DF649FCCF645


def _hash_pairs(init: int, mult: int, count: int) -> list[tuple[int, int]]:
    """The (xor, multiply) constants of count successive SeedSequence hashes.

    Each hash xors its word with the running constant, advances the
    constant by mult and multiplies by the new one, so the constants are
    the same for every seed.
    """
    consts = [init]
    for _ in range(count):
        consts.append(consts[-1] * mult & MASK32)
    return list(zip(consts[:-1], consts[1:]))


def _columns(steps: list) -> tuple[np.ndarray, np.ndarray]:
    """Read-only (S, K, 1) xor and multiply columns from S steps of K (xor, multiply) pairs."""
    table = np.array(steps, dtype=np.uint32)
    table.setflags(write=False)
    return table[..., :1], table[..., 1:]


@functools.lru_cache(maxsize=16)
def _pool_constants(extra: int) -> tuple[np.ndarray, np.ndarray]:
    """Hash constants of the pool's steps, in numpy's call order, for entropy of 4 + extra words.

    Step 0 hashes the four entropy words into the pool; step 1 + src mixes
    pool word src into the other three (its own row is a placeholder); the
    last extra steps mix one more entropy word into all four.
    """
    pairs = _hash_pairs(INIT_A, MULT_A, POOL_SIZE * (POOL_SIZE + extra))
    steps = [pairs[:POOL_SIZE]]
    used = POOL_SIZE
    for src in range(POOL_SIZE):
        step = pairs[used : used + POOL_SIZE - 1]
        step.insert(src, (0, 1))
        steps.append(step)
        used += POOL_SIZE - 1
    steps += [pairs[used + POOL_SIZE * i : used + POOL_SIZE * (i + 1)] for i in range(extra)]
    return _columns(steps)


@functools.lru_cache(maxsize=4)
def _output_constants(count: int) -> tuple[np.ndarray, np.ndarray]:
    """Hash constants of generate_state's 2 * count uint32 output words, as (2 * count, 1) columns."""
    xors, mults = _columns([_hash_pairs(INIT_B, MULT_B, 2 * count)])
    return xors[0], mults[0]


def _hash(words: np.ndarray, xors: np.ndarray, mults: np.ndarray) -> np.ndarray:
    words = (words ^ xors) * mults
    return words ^ words >> 16


def _mix(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    result = x * MIX_MULT_L - y * MIX_MULT_R
    return result ^ result >> 16


def _words(value: int) -> list[int]:
    """The uint32 words SeedSequence reads from one integer, least significant first."""
    value = operator.index(value)
    if value < 0:
        raise ValueError("expected non-negative integer")
    words = [value & MASK32]
    value >>= 32
    while value:
        words.append(value & MASK32)
        value >>= 32
    return words


def _pool(entropy: np.ndarray) -> np.ndarray:
    """SeedSequence's (4, T) pool for every column of an (L, T) block of uint32 entropy words.

    A missing word hashes as 0, so entropy shorter than the pool equals
    the same entropy padded with zero words; longer entropy is mixed in
    word by word after the pool words have mixed with each other.  While
    one pool word is mixed into the others it does not change itself, so
    each mixing step updates all four rows and then restores the source.
    """
    extra = entropy[POOL_SIZE:]
    xors, mults = _pool_constants(len(extra))
    pool = np.zeros((POOL_SIZE, entropy.shape[1]), dtype=np.uint32)
    pool[: len(entropy)] = entropy[:POOL_SIZE]
    pool = _hash(pool, xors[0], mults[0])
    for src in range(POOL_SIZE):
        mixed = _mix(pool, _hash(pool[src], xors[1 + src], mults[1 + src]))
        mixed[src] = pool[src]
        pool = mixed
    for step, word in enumerate(extra, start=1 + POOL_SIZE):
        pool = _mix(pool, _hash(word, xors[step], mults[step]))
    return pool


def _generate_state(pool: np.ndarray, count: int) -> np.ndarray:
    """(count, T) uint64: generate_state(count, np.uint64) for every column of a pool."""
    xors, mults = _output_constants(count)
    words = _hash(pool[np.arange(2 * count) % POOL_SIZE], xors, mults).astype(np.uint64)
    return words[0::2] | words[1::2] << 32


def seed_pairs(master_seed: int, prefix, trials) -> np.ndarray:
    """(2, T) uint64 seeds: column j is SeedSequence([master_seed, *prefix, trials[j]]).generate_state(2, np.uint64).

    trials holds T trial indices in [0, 2**32), so each is one entropy word;
    master_seed and the prefix entries may be any non-negative integers.
    """
    index = np.asarray(trials, dtype=np.int64)
    if index.ndim != 1 or (index.size and not 0 <= index.min() <= index.max() <= MASK32):
        raise ValueError("trial indices must be a 1-d sequence in [0, 2**32)")
    head = [word for value in (master_seed, *prefix) for word in _words(value)]
    entropy = np.empty((len(head) + 1, index.size), dtype=np.uint32)
    entropy[:-1] = np.array(head, dtype=np.uint32)[:, None]
    entropy[-1] = index
    return _generate_state(_pool(entropy), 2)


def _seed_array(seeds) -> np.ndarray:
    if isinstance(seeds, np.ndarray) and seeds.dtype == np.uint64:
        return seeds
    values = list(seeds)
    if not all(isinstance(v, numbers.Integral) for v in values):
        raise TypeError("seeds must be integers")
    if values and min(values) < 0:
        raise ValueError("expected non-negative integer")
    if values and max(values) > MASK64:
        raise ValueError("seeds must be below 2**64")
    return np.array(values, dtype=np.uint64)


def _add(a: tuple, b: tuple) -> tuple:
    """a + b mod 2**128 for (hi, lo) pairs of uint64 arrays."""
    lo = a[1] + b[1]
    return a[0] + b[0] + (lo < b[1]), lo


def _times(x: tuple, const: tuple) -> tuple:
    """x * c mod 2**128 for a (hi, lo) pair x of (T, 1) columns and n constants c.

    const holds the constants' high words, low words and the two 32-bit
    limbs of the low words.  The high half of x_lo * c_lo is Hacker's
    Delight's mulhu on 32-bit limbs; no partial sum overflows 64 bits.
    """
    x_hi, x_lo = x
    c_hi, c_lo, c0, c1 = const
    x0, x1 = x_lo & MASK32, x_lo >> 32
    t = x1 * c0 + (x0 * c0 >> 32)
    w = (t & MASK32) + x0 * c1
    hi = x1 * c1 + (t >> 32) + (w >> 32) + x_lo * c_hi + x_hi * c_lo
    return hi, x_lo * c_lo


def _limbed(values: list) -> tuple:
    hi = np.array([v >> 64 for v in values], dtype=np.uint64)
    lo = np.array([v & MASK64 for v in values], dtype=np.uint64)
    arrays = hi, lo, lo & MASK32, lo >> 32
    for array in arrays:
        array.setflags(write=False)
    return arrays


@functools.lru_cache(maxsize=16)
def _jumps(n: int) -> tuple:
    """Constants taking a row's seed words straight to its n output states, for _times.

    Seeding sets s0 = (initstate + inc) * M + inc, and output k (k = 1..n)
    reads s_k = M**k * s0 + B_k * inc with B_k = sum_{j<k} M**j, that is
    M**(k+1) * initstate + B_(k+2) * inc.
    """
    powers, sums = [], []
    power, total = 1, 0
    for k in range(n + 2):
        power, total = power * PCG_MULTIPLIER & MASK128, total + power & MASK128
        if k >= 1:
            powers.append(power)
        sums.append(total)
    return _limbed(powers[:n]), _limbed(sums[2:])


def uniform_rows(seeds, n: int) -> np.ndarray:
    """(T, n) doubles: row i is Generator(PCG64(seeds[i])).random(n), for seeds in [0, 2**64)."""
    if n < 1:
        raise ValueError("n must be at least 1")
    seeds = _seed_array(seeds)
    # a seed below 2**64 is at most two entropy words; the pool pads the rest with zeros
    words = np.array([seeds & MASK32, seeds >> 32], dtype=np.uint32)
    state_hi, state_lo, seq_hi, seq_lo = _generate_state(_pool(words), 4)[:, :, None]
    # setseq seeding: inc = 2 * initseq + 1
    inc = (seq_hi << 1 | seq_lo >> 63, seq_lo << 1 | 1)
    powers, sums = _jumps(n)
    hi, lo = _add(_times((state_hi, state_lo), powers), _times(inc, sums))
    # XSL-RR output, then the top 53 bits as a double in [0, 1)
    folded, rotation = hi ^ lo, hi >> 58
    out = folded >> rotation | folded << (64 - rotation & 63)
    return (out >> 11).astype(np.float64) * (1.0 / 9007199254740992.0)
