"""The array seeding kernel carries numpy's exact SeedSequence and PCG64 bits.

Integer arithmetic is the same on every platform, so none of these tests
depends on the float platform the report hashes are pinned to.
"""

import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gibbslab.harness import derive_seed_pair
from gibbslab.model import inverse_cdf, random_loss_table, sample_dataset
from gibbslab.streams import OUTPUT_CELLS, seed_pairs, trial_streams, uniform_rows

# one word, two words, past 2**64, and past 2**128 (more entropy than the pool's 4 words)
INTEGERS = st.one_of(
    st.just(0),
    st.integers(0, 2**32 - 1),
    st.integers(2**32, 2**64 + 3),
    st.integers(2**128, 2**200),
)
SEEDS = st.one_of(
    st.integers(0, 2**32 - 1),
    st.integers(2**64 - 1000, 2**64 - 1),
    st.integers(0, 2**64 - 1),
)


def numpy_pairs(master_seed, paths) -> np.ndarray:
    return np.array(
        [np.random.SeedSequence([master_seed, *path]).generate_state(2, np.uint64) for path in np.asarray(paths).T.tolist()]
    ).T


def prefixed(prefix, trials) -> np.ndarray:
    """(len(prefix) + 1, T) paths: the words of prefix above each trial index."""
    trials = np.asarray(trials)
    return np.array([*([word] * trials.size for word in prefix), trials], dtype=np.int64)


def numpy_rows(seeds, n) -> np.ndarray:
    return np.array([np.random.Generator(np.random.PCG64(seed)).random(n) for seed in seeds])


@settings(max_examples=60, deadline=None)
@given(
    master_seed=INTEGERS,
    prefix=st.lists(st.integers(0, 2**32 - 1), max_size=3),
    start=st.integers(0, 2**32 - 40),
    count=st.integers(1, 40),
)
def test_seed_pairs_match_seed_sequence(master_seed, prefix, start, count):
    paths = prefixed(prefix, np.arange(start, start + count))
    got = seed_pairs(master_seed, paths)
    assert got.dtype == np.uint64
    assert np.array_equal(got, numpy_pairs(master_seed, paths))


@settings(max_examples=60, deadline=None)
@given(seeds=st.lists(SEEDS, min_size=1, max_size=20), n=st.integers(1, 70))
def test_uniform_rows_match_pcg64(seeds, n):
    assert np.array_equal(uniform_rows(seeds, n), numpy_rows(seeds, n))


@pytest.mark.parametrize("words", range(1, 8))
def test_entropy_around_the_pool_size(words):
    # [x] and [x, 0] hash alike only up to the pool's 4 words: past it the
    # extra words are mixed in one by one
    master_seed = 2 ** (32 * (words - 1)) + 5
    trials = np.arange(3)
    for prefix in ((), (0,), (0, 0)):
        paths = prefixed(prefix, trials)
        assert np.array_equal(seed_pairs(master_seed, paths), numpy_pairs(master_seed, paths))


def test_boundary_seeds_and_a_single_output():
    seeds = [0, 1, 2**32 - 1, 2**32, 2**63, 2**64 - 2, 2**64 - 1]
    for n in (1, 2, 3):
        assert np.array_equal(uniform_rows(seeds, n), numpy_rows(seeds, n))
    assert np.array_equal(uniform_rows(np.array(seeds, dtype=np.uint64), 1), numpy_rows(seeds, 1))


def test_pairs_and_rows_match_the_per_call_functions():
    domain, _ = random_loss_table(3, 7, seed=1)
    pairs = seed_pairs(11, prefixed((2,), np.arange(50)))
    assert [tuple(pair) for pair in pairs.T.tolist()] == [derive_seed_pair(11, 2, t) for t in range(50)]
    items = inverse_cdf(domain.probs, uniform_rows(pairs[0], 30))
    for row, seed in zip(items, pairs[0].tolist()):
        assert np.array_equal(row, sample_dataset(domain, 30, seed).item_indices)


def test_no_overflow_warning():
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        seed_pairs(2**130 + 7, prefixed((2**32 - 1, 3), np.arange(64)))
        uniform_rows([2**64 - 1, 0, 12345], 9)
        trial_streams(2**130 + 7, prefixed((2**32 - 1,), np.arange(64)), 9)


def test_negative_seed_rejected_as_numpy_does():
    with pytest.raises(ValueError):
        np.random.PCG64(-1)
    with pytest.raises(ValueError):
        uniform_rows([3, -1], 5)
    with pytest.raises(ValueError):
        np.random.SeedSequence([-1, 0])
    with pytest.raises(ValueError):
        seed_pairs(-1, np.arange(2)[None])
    with pytest.raises(ValueError):
        seed_pairs(1, prefixed((-2,), np.arange(2)))


def test_out_of_range_inputs_rejected():
    with pytest.raises(ValueError, match="2\\*\\*64"):
        uniform_rows([2**64], 3)
    with pytest.raises(ValueError):
        uniform_rows([1], 0)
    with pytest.raises(ValueError, match="paths"):
        seed_pairs(1, np.array([[-1]]))
    with pytest.raises(ValueError, match="paths"):
        seed_pairs(1, np.array([[2**32]]))
    with pytest.raises(ValueError, match="paths"):
        seed_pairs(1, np.arange(3))
    with pytest.raises(TypeError):
        seed_pairs(1, np.array([[0.5]]))
    with pytest.raises(TypeError):
        uniform_rows([1.5], 3)
    with pytest.raises(TypeError):
        seed_pairs(1.5, np.arange(2)[None])
    with pytest.raises(ValueError):
        trial_streams(1, np.arange(2)[None], 0)


def check_trial_streams(master_seed, paths, n) -> None:
    """trial_streams against numpy: the pair's first seed, PCG64(data seed).random(n) and PCG64(draw seed).random()."""
    data_seeds, data, draws = trial_streams(master_seed, paths, n)
    pairs = numpy_pairs(master_seed, paths)
    assert data_seeds.dtype == np.uint64
    assert np.array_equal(data_seeds, pairs[0])
    assert np.array_equal(data, numpy_rows(pairs[0].tolist(), n))
    assert np.array_equal(draws, numpy_rows(pairs[1].tolist(), 1)[:, 0])


@settings(max_examples=40, deadline=None)
@given(
    master_seed=INTEGERS,
    grid=st.integers(1, 4),
    trials=st.integers(1, 12),
    start=st.integers(0, 40),
    count=st.integers(1, 40),
    n=st.integers(1, 40),
)
def test_trial_streams_match_numpy_across_prefixes(master_seed, grid, trials, start, count, n):
    # a window of the flattened (beta index, trial) grid, as a block of trials crossing beta indices sees it
    flat = np.arange(grid * trials)[start : start + count]
    if flat.size:
        check_trial_streams(master_seed, np.stack(np.divmod(flat, trials)), n)


@pytest.mark.parametrize("master_seed", [0, 2**32 - 1, 2**32, 2**64 + 3, 2**128, 2**128 + 2**96 + 5, 2**200 + 1])
@pytest.mark.parametrize("count, n", [(1, 1), (1, 7), (6, 1), (5, 3)])
def test_trial_streams_single_trials_and_outputs(master_seed, count, n):
    # master seeds of one to seven entropy words, with blocks of one trial and datasets of one point
    check_trial_streams(master_seed, np.stack(np.divmod(np.arange(3, 3 + count), 2)), n)
    check_trial_streams(master_seed, np.arange(count)[None], n)


def test_trial_streams_datasets_are_the_leading_rows():
    paths = np.arange(5)[None]
    seeds, data, draws = trial_streams(9, paths, 6)
    lead_seeds, lead, lead_draws = trial_streams(9, paths, 6, datasets=1)
    assert np.array_equal(lead_seeds, seeds) and np.array_equal(lead_draws, draws)
    assert np.array_equal(lead, data[:1])


@pytest.mark.parametrize("n", [1, 3, OUTPUT_CELLS // 7, OUTPUT_CELLS - 1, OUTPUT_CELLS + 1])
def test_outputs_across_chunks(n):
    # two whole chunks of the jump arithmetic and one row more; past OUTPUT_CELLS a chunk is one row
    seeds = list(range(2 * max(1, OUTPUT_CELLS // n) + 1))
    assert np.array_equal(uniform_rows(seeds, n), numpy_rows(seeds, n))
