"""Every trial stream follows the one law that tests/reference.py computes with Python ints.

Integer arithmetic is the same on every platform, so none of these tests
depends on the float platform the report hashes are pinned to.
"""

import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from reference import seed_pair_reference, stream_uniforms, trial_key

from gibbslab.gibbs import posterior, sample_hypothesis
from gibbslab.harness import derive_seed_pair
from gibbslab.model import inverse_cdf, random_loss_table, sample_dataset
from gibbslab.streams import OUTPUT_CELLS, seed_pairs, trial_streams, uniform_rows

# one word, two words, past 2**64, and past 2**128
INTEGERS = st.one_of(
    st.just(0),
    st.integers(0, 2**32 - 1),
    st.integers(2**32, 2**64 + 3),
    st.integers(2**128, 2**200),
)
KEYS = st.one_of(
    st.sampled_from([0, 2**64 - 1]),
    st.integers(0, 2**32 - 1),
    st.integers(2**64 - 1000, 2**64 - 1),
    st.integers(0, 2**64 - 1),
)


def reference_pairs(master_seed, paths) -> np.ndarray:
    return np.array([seed_pair_reference(master_seed, *path) for path in np.asarray(paths).T.tolist()], dtype=np.uint64).T


def prefixed(prefix, trials) -> np.ndarray:
    """(len(prefix) + 1, T) paths: the words of prefix above each trial index."""
    trials = np.asarray(trials)
    return np.array([*([word] * trials.size for word in prefix), trials], dtype=np.int64)


def reference_rows(keys, n) -> np.ndarray:
    return np.array([stream_uniforms(int(key), n) for key in keys])


@settings(max_examples=60, deadline=None)
@given(
    master_seed=INTEGERS,
    prefix=st.lists(st.integers(0, 2**32 - 1), max_size=3),
    start=st.integers(0, 2**32 - 40),
    count=st.integers(1, 40),
)
def test_seed_pairs_match_the_reference(master_seed, prefix, start, count):
    paths = prefixed(prefix, np.arange(start, start + count))
    got = seed_pairs(master_seed, paths)
    assert got.dtype == np.uint64
    assert np.array_equal(got, reference_pairs(master_seed, paths))


@settings(max_examples=60, deadline=None)
@given(keys=st.lists(KEYS, min_size=1, max_size=20), n=st.integers(1, 70))
def test_uniform_rows_match_the_reference(keys, n):
    assert np.array_equal(uniform_rows(keys, n), reference_rows(keys, n))


@pytest.mark.parametrize("words", range(1, 8))
def test_entropy_around_the_pool_size(words):
    # master seeds of one to seven 32-bit words, either side of four; the
    # word count folded after them keeps a seed apart from the same seed
    # followed by a zero path word, at every length
    master_seed = 2 ** (32 * (words - 1)) + 5
    trials = np.arange(3)
    keys = set()
    for prefix in ((), (0,), (0, 0)):
        paths = prefixed(prefix, trials)
        pairs = seed_pairs(master_seed, paths)
        assert np.array_equal(pairs, reference_pairs(master_seed, paths))
        keys.update(pairs.ravel().tolist())
    assert len(keys) == 3 * 3 * 2


def test_boundary_seeds_and_a_single_output():
    keys = [0, 1, 2**32 - 1, 2**32, 2**63, 2**64 - 2, 2**64 - 1]
    for n in (1, 2, 3):
        assert np.array_equal(uniform_rows(keys, n), reference_rows(keys, n))
    assert np.array_equal(uniform_rows(np.array(keys, dtype=np.uint64), 1), reference_rows(keys, 1))
    # SplitMix64's first output from state 0
    assert uniform_rows([0], 1)[0, 0] == (0xE220A8397B1DCDAF >> 11) / 2.0**53


def test_pairs_and_rows_match_the_per_call_functions():
    domain, _ = random_loss_table(3, 7, seed=1)
    pairs = seed_pairs(11, prefixed((2,), np.arange(50)))
    assert [tuple(pair) for pair in pairs.T.tolist()] == [derive_seed_pair(11, 2, t) for t in range(50)]
    items = inverse_cdf(domain.probs, uniform_rows(pairs[0], 30))
    for row, seed in zip(items, pairs[0].tolist()):
        assert np.array_equal(row, sample_dataset(domain, 30, seed).item_indices)


@pytest.mark.parametrize("master_seed", [0, 7, 2**64 - 1, 2**64 + 3, 2**128 + 2**96 + 5])
@pytest.mark.parametrize("path", [(), (0,), (2**32 - 1,), (3, 0), (2, 2**32 - 1, 9)])
def test_derive_seed_pair_matches_the_reference(master_seed, path):
    assert derive_seed_pair(master_seed, *path) == seed_pair_reference(master_seed, *path)


@pytest.mark.parametrize("seed", [0, 1, 2**32, 2**63 + 5, 2**64 - 1])
def test_per_call_draws_match_the_reference(seed):
    domain, space = random_loss_table(9, 6, seed=3)
    for n in (1, 17, OUTPUT_CELLS + 3):
        expected = inverse_cdf(domain.probs, np.array(stream_uniforms(seed, n)))
        assert np.array_equal(sample_dataset(domain, n, seed).item_indices, expected)
    post = posterior(space, space.table[:, 0], 2.0)
    assert sample_hypothesis(post, seed) == int(inverse_cdf(post.weights, np.array(stream_uniforms(seed, 1)))[0])


def test_per_call_seeds_past_64_bits_rejected():
    domain, space = random_loss_table(2, 2, seed=1)
    post = posterior(space, space.table[:, 0], 1.0)
    with pytest.raises(ValueError, match=r"\bseed\b"):
        sample_dataset(domain, 3, 2**64)
    with pytest.raises(ValueError, match=r"\bseed\b"):
        sample_hypothesis(post, 2**64)
    with pytest.raises(ValueError, match=r"\bpath\b"):
        derive_seed_pair(1, 2**32)
    # the largest key is accepted
    sample_dataset(domain, 3, 2**64 - 1)
    sample_hypothesis(post, 2**64 - 1)


def test_no_overflow_warning():
    domain, space = random_loss_table(4, 3, seed=2)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        seed_pairs(2**130 + 7, prefixed((2**32 - 1, 3), np.arange(64)))
        uniform_rows([2**64 - 1, 0, 12345], 9)
        trial_streams(2**130 + 7, prefixed((2**32 - 1,), np.arange(64)), 9)
        derive_seed_pair(2**130 + 7, 2**32 - 1, 0)
        sample_dataset(domain, 9, 2**64 - 1)
        sample_hypothesis(posterior(space, space.table[:, 0], 1.0), 2**64 - 1)


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
    with pytest.raises(ValueError, match="seeds"):
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
    # a non-integer seed is a bad number like any other
    with pytest.raises(ValueError, match="seeds"):
        uniform_rows([1.5], 3)
    with pytest.raises(ValueError, match="master_seed"):
        seed_pairs(1.5, np.arange(2)[None])
    with pytest.raises(ValueError):
        trial_streams(1, np.arange(2)[None], 0)


def check_trial_streams(master_seed, paths, n) -> None:
    """trial_streams against the reference: the data key, its first n uniforms and the draw key's first uniform."""
    data_keys, data, draws = trial_streams(master_seed, paths, n)
    pairs = reference_pairs(master_seed, paths)
    assert data_keys.dtype == np.uint64
    assert np.array_equal(data_keys, pairs[0])
    assert np.array_equal(data, reference_rows(pairs[0].tolist(), n))
    assert np.array_equal(draws, reference_rows(pairs[1].tolist(), 1)[:, 0])


@settings(max_examples=40, deadline=None)
@given(
    master_seed=INTEGERS,
    grid=st.integers(1, 4),
    trials=st.integers(1, 12),
    start=st.integers(0, 40),
    count=st.integers(1, 40),
    n=st.integers(1, 40),
)
def test_trial_streams_match_the_reference_across_prefixes(master_seed, grid, trials, start, count, n):
    # a window of the flattened (beta index, trial) grid, as a block of trials crossing beta indices sees it
    flat = np.arange(grid * trials)[start : start + count]
    if flat.size:
        check_trial_streams(master_seed, np.stack(np.divmod(flat, trials)), n)


@pytest.mark.parametrize("master_seed", [0, 2**32 - 1, 2**32, 2**64 + 3, 2**128, 2**128 + 2**96 + 5, 2**200 + 1])
@pytest.mark.parametrize("count, n", [(1, 1), (1, 7), (6, 1), (5, 3)])
def test_trial_streams_single_trials_and_outputs(master_seed, count, n):
    # master seeds of one to seven words, with blocks of one trial and datasets of one point
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
    # two whole chunks of rows and one row more; past OUTPUT_CELLS a row is cut into chunks of columns
    keys = list(range(2 * max(1, OUTPUT_CELLS // n) + 1))
    assert np.array_equal(uniform_rows(keys, n), reference_rows(keys, n))


def test_uniforms_fill_sixteen_bins_evenly():
    # 10**5 uniforms from 100 neighbouring keys; chi-square with 15 degrees of
    # freedom exceeds 50 with probability below 1e-5
    counts = np.bincount((uniform_rows(np.arange(100, dtype=np.uint64), 1000) * 16).astype(int).ravel(), minlength=16)
    expected = 10**5 / 16
    assert len(counts) == 16
    assert ((counts - expected) ** 2 / expected).sum() < 50.0


def test_neighbouring_paths_have_distinct_keys():
    # trial and beta indices side by side, under neighbouring master seeds
    paths = np.stack(np.divmod(np.arange(4 * 1000), 1000))
    keys = np.concatenate([seed_pairs(seed, paths).ravel() for seed in (0, 1, 2**32, 2**64)])
    heads = [trial_key(seed) for seed in (0, 1, 2**32, 2**64)]
    assert len(np.unique(keys)) == keys.size
    assert len(set(heads)) == len(heads)
