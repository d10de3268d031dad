import dataclasses
import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from reference import complexity_rows_reference, density_rows_reference, loss_profile, stable_rows, stream_uniforms

from gibbslab.bounds import minimizer_mass_bound
from gibbslab.gibbs import (
    _Ranked,
    cdf_rows,
    complexity,
    complexity_bruteforce,
    complexity_rows,
    density_family,
    density_rows,
    exponential_density,
    posterior,
    posterior_draws,
    posterior_rows,
    sample_hypothesis,
    zero_temperature_posterior,
)
from gibbslab.model import (
    TIE_TOL,
    FiniteHypothesisSpace,
    inverse_cdf,
    random_loss_table,
    sample_dataset,
    step_cdf,
)
from gibbslab.streams import uniform_rows


@pytest.fixture
def two_level():
    """Fair two-hypothesis space with empirical losses pinned at 0 and 1."""
    space = FiniteHypothesisSpace([[0.0], [1.0]], [0.5, 0.5])
    return space, np.array([0.0, 1.0])


def random_instance(rng, max_h=16, max_x=8, max_n=32):
    domain, space = random_loss_table(
        int(rng.integers(2, max_h + 1)), int(rng.integers(2, max_x + 1)), int(rng.integers(0, 2**32))
    )
    data = sample_dataset(domain, int(rng.integers(1, max_n + 1)), int(rng.integers(0, 2**32)))
    return space, loss_profile(space, domain, data)


class TestLogPartition:
    """ln Z as posterior() reports it in log_partition."""

    def test_zero_temperature_is_exact_zero(self, two_level):
        space, losses = two_level
        assert posterior(space, losses, 0.0).log_partition == 0.0

    def test_two_level_value(self, two_level):
        space, losses = two_level
        expected = math.log(0.5 + 0.5 * math.exp(-1.0))
        assert posterior(space, losses, 1.0).log_partition == pytest.approx(expected, abs=1e-12)

    def test_constant_losses(self):
        space = FiniteHypothesisSpace([[0.4], [0.4], [0.4]], [0.2, 0.3, 0.5])
        assert posterior(space, np.full(3, 0.4), 7.0).log_partition == pytest.approx(-2.8, abs=1e-12)

    def test_misaligned_losses_rejected(self, two_level):
        space, _ = two_level
        with pytest.raises(ValueError):
            posterior(space, np.zeros(3), 1.0)

    def test_negative_beta_rejected(self, two_level):
        space, losses = two_level
        with pytest.raises(ValueError):
            posterior(space, losses, -0.5)


class TestPosterior:
    def test_zero_temperature_returns_prior(self, two_level):
        space, losses = two_level
        assert np.array_equal(posterior(space, losses, 0.0).weights, space.prior)

    def test_logistic_weights(self, two_level):
        space, losses = two_level
        w = posterior(space, losses, 1.0).weights
        assert w[0] == pytest.approx(1.0 / (1.0 + math.exp(-1.0)), abs=1e-12)
        assert w.sum() == pytest.approx(1.0, abs=1e-12)

    def test_large_beta_concentrates_on_minimizer(self, two_level):
        space, losses = two_level
        w = posterior(space, losses, 1e6).weights
        assert w[0] >= 1.0 - 1e-9

    def test_extreme_beta_no_overflow(self):
        space = FiniteHypothesisSpace([[0.0], [0.5], [1.0]], [1 / 3] * 3)
        w = posterior(space, np.array([0.0, 0.5, 1.0]), 1e9).weights
        assert np.all(np.isfinite(w)) and w[0] == pytest.approx(1.0, abs=1e-12)

    def test_loss_shift_invariance(self):
        rng = np.random.Generator(np.random.PCG64(17))
        for _ in range(20):
            space, profile = random_instance(rng)
            beta = float(10.0 ** rng.uniform(-1, 2))
            base = posterior(space, profile.empirical, beta).weights
            shifted = posterior(space, profile.empirical + 5.3, beta).weights
            assert np.max(np.abs(base - shifted)) <= 1e-10

    def test_zero_temperature_posterior_limits(self):
        space = FiniteHypothesisSpace([[0.2], [0.2], [0.9]], [0.25, 0.25, 0.5])
        post = zero_temperature_posterior(space, np.array([0.2, 0.2, 0.9]))
        assert np.allclose(post.weights, [0.5, 0.5, 0.0])
        assert post.log_partition == -math.inf  # minimum loss is positive
        post0 = zero_temperature_posterior(space, np.array([0.0, 0.2, 0.9]))
        assert post0.log_partition == pytest.approx(math.log(0.25), abs=1e-12)


class TestSampling:
    def test_point_mass(self):
        space = FiniteHypothesisSpace([[0.0], [1.0]], [0.5, 0.5])
        post = posterior(space, np.array([0.0, 1.0]), 1e9)
        assert all(sample_hypothesis(post, seed) == 0 for seed in range(20))

    def test_frequencies_match_weights(self, two_level):
        space, losses = two_level
        post = posterior(space, losses, 1.0)
        # one draw from each of 100,000 streams
        uniforms = uniform_rows(np.arange(100_000) + 4, 1)[:, 0]
        draws, _ = posterior_draws(space, np.broadcast_to(losses, (100_000, 2)), exponential_density(1.0), uniforms)
        freq = float(np.mean(draws == 0))
        # binomial 4-sigma band around 0.731
        assert abs(freq - post.weights[0]) < 0.006

    def test_deterministic_per_seed(self, two_level):
        space, losses = two_level
        post = posterior(space, losses, 1.0)
        a = [sample_hypothesis(post, seed) for seed in range(100)]
        b = [sample_hypothesis(post, seed) for seed in range(100)]
        assert a == b

    def test_zero_weight_never_sampled(self):
        space = FiniteHypothesisSpace([[0.0], [1.0], [0.5]], [0.5, 0.5, 0.0])
        losses = np.broadcast_to([0.0, 1.0, 0.5], (10_000, 3))
        draws, _ = posterior_draws(space, losses, exponential_density(0.3), uniform_rows(np.arange(10_000) + 2, 1)[:, 0])
        assert not np.any(draws == 2)


class TestComplexity:
    def test_two_level_closed_forms(self, two_level):
        # candidates enumerated by hand: h0 sees {0: ln 2, 1: beta}, h1 {-1: ln2 - 1, 0: 0}
        space, losses = two_level
        low = complexity(space, losses, 0, 1.0)
        assert low.value == pytest.approx(math.log(2.0), abs=1e-12)
        assert low.argmin_shift == 0.0
        high = complexity(space, losses, 1, 1.0)
        assert high.value == pytest.approx(math.log(2.0) - 1.0, abs=1e-12)
        assert high.argmin_shift == -1.0

    def test_single_hypothesis_is_zero(self):
        space = FiniteHypothesisSpace([[0.6]], [1.0])
        for beta in (0.0, 1.0, 1e6):
            assert complexity(space, np.array([0.6]), 0, beta).value == pytest.approx(0.0, abs=1e-12)

    def test_beta_zero_collapses(self, two_level):
        space, losses = two_level
        assert complexity(space, losses, 1, 0.0).value == pytest.approx(0.0, abs=1e-12)

    def test_bounded_by_beta(self):
        rng = np.random.Generator(np.random.PCG64(23))
        for _ in range(50):
            space, profile = random_instance(rng)
            beta = float(10.0 ** rng.uniform(-1, 3))
            h = int(rng.integers(0, len(space)))
            assert complexity(space, profile.empirical, h, beta).value <= beta + 1e-12

    def test_bounded_by_minimizer_mass(self):
        rng = np.random.Generator(np.random.PCG64(29))
        for _ in range(50):
            space, profile = random_instance(rng)
            # every prior atom of random_instance is positive
            minimizers = profile.empirical <= profile.empirical.min() + TIE_TOL
            cap = minimizer_mass_bound(float(space.prior[minimizers].sum()))
            beta = float(10.0 ** rng.uniform(-1, 3))
            h = int(rng.integers(0, len(space)))
            assert complexity(space, profile.empirical, h, beta).value <= cap + 1e-12

    def test_non_increasing_in_own_loss(self):
        rng = np.random.Generator(np.random.PCG64(31))
        for _ in range(20):
            space, profile = random_instance(rng)
            beta = float(10.0 ** rng.uniform(-1, 2))
            values = [
                (profile.empirical[h], complexity(space, profile.empirical, h, beta).value)
                for h in range(len(space))
            ]
            values.sort()
            for (la, va), (lb, vb) in zip(values, values[1:]):
                if lb > la + 1e-12:
                    assert vb <= va + 1e-12

    def test_partition_lower_bound_at_jumps(self):
        # ln Z >= -beta*(own + r) + ln cdf(own + r) at every jump point
        rng = np.random.Generator(np.random.PCG64(37))
        for _ in range(20):
            space, profile = random_instance(rng)
            beta = float(10.0 ** rng.uniform(-1, 2))
            log_z = posterior(space, profile.empirical, beta).log_partition
            cdf = step_cdf(profile.empirical, space.prior)
            for level, mass in zip(cdf.levels, cdf.cumulative):
                assert log_z >= -beta * level + math.log(mass) - 1e-10

    def test_zero_temperature_attainment(self):
        # constructed levels 0 and 0.5: exact attainment from beta = cap/gap on
        space = FiniteHypothesisSpace([[0.0], [0.5], [0.5]], [0.25, 0.5, 0.25])
        losses = np.array([0.0, 0.5, 0.5])
        cap = math.log(1.0 / 0.25)
        threshold = cap / 0.5
        for beta in (threshold, threshold + 1.0, 1e5):
            assert complexity(space, losses, 0, beta).value == pytest.approx(cap, abs=1e-12)
        # strictly below threshold the other level wins
        assert complexity(space, losses, 0, threshold - 0.1).value < cap

    def test_bruteforce_dominates_and_stays_close(self):
        rng = np.random.Generator(np.random.PCG64(41))
        step = 1e-3
        for _ in range(20):
            space, profile = random_instance(rng, max_h=8)
            beta = float(10.0 ** rng.uniform(-1, 2))
            h = int(rng.integers(0, len(space)))
            exact = complexity(space, profile.empirical, h, beta).value
            grid = complexity_bruteforce(space, profile.empirical, h, beta, step)
            assert exact - 1e-10 <= grid <= exact + beta * step + 1e-10

    @pytest.mark.parametrize("step", [0.0, -1e-4, math.nan, math.inf, -math.inf])
    def test_bruteforce_bad_grid_step_rejected(self, two_level, step):
        space, losses = two_level
        with pytest.raises(ValueError, match="grid_step"):
            complexity_bruteforce(space, losses, 0, 1.0, step)

    def test_infinite_beta_rejected(self, two_level):
        space, losses = two_level
        with pytest.raises(ValueError):
            complexity(space, losses, 0, math.inf)

    def test_bad_index_rejected(self, two_level):
        space, losses = two_level
        with pytest.raises(IndexError):
            complexity(space, losses, 2, 1.0)

    @pytest.mark.parametrize("h", [1.0, True, np.bool_(True), "1"])
    def test_non_integer_index_rejected(self, two_level, h):
        # a float or bool used to pass the range check and fail inside numpy
        space, losses = two_level
        with pytest.raises(ValueError, match="h_index must be an integer"):
            complexity(space, losses, h, 1.0)
        with pytest.raises(ValueError, match="h_index must be an integer"):
            complexity_bruteforce(space, losses, h, 1.0, 1e-3)

    def test_numpy_integer_index_accepted(self, two_level):
        space, losses = two_level
        assert complexity(space, losses, np.int64(1), 1.0) == complexity(space, losses, 1, 1.0)
        assert complexity_bruteforce(space, losses, np.int64(1), 1.0, 1e-3) == complexity_bruteforce(
            space, losses, 1, 1.0, 1e-3
        )


class TestComplexityRowsArguments:
    """complexity_rows rejects what it would otherwise read wrong or fail on inside numpy."""

    @pytest.fixture
    def five(self):
        space = FiniteHypothesisSpace(np.zeros((5, 1)), np.full(5, 0.2))
        return space, np.random.Generator(np.random.PCG64(13)).random((3, 5))

    @pytest.mark.parametrize("h", [[-1, 0, 1], [0, 5, 1], [0, 1, 2**40]])
    def test_index_out_of_range(self, five, h):
        # a negative index would wrap around to the last hypothesis
        space, losses = five
        with pytest.raises(IndexError, match=r"h_indices\[\d\]: hypothesis index -?\d+ out of range"):
            complexity_rows(space, losses, h, 1.0)

    @pytest.mark.parametrize("h", [[0.0, 1.0, 2.0], [True, False, True], ["0", "1", "2"]])
    def test_index_not_integer(self, five, h):
        space, losses = five
        with pytest.raises(ValueError, match="h_indices must be integers"):
            complexity_rows(space, losses, h, 1.0)

    @pytest.mark.parametrize("h", [[0, 1], [0, 1, 2, 3], 0, [[0, 1, 2]]])
    def test_index_count(self, five, h):
        space, losses = five
        with pytest.raises(ValueError, match=r"h_indices must hold one index per loss row, shape \(3,\)"):
            complexity_rows(space, losses, h, 1.0)

    @pytest.mark.parametrize("h", [[], [4], [0, 1], list(range(5)) * 3])
    def test_shared_row_takes_any_number_of_indices(self, five, h):
        space, losses = five
        for beta in (2.0, np.linspace(0.0, 3.0, len(h))):
            values, shifts = complexity_rows(space, losses[:1], np.array(h, dtype=np.int64), beta)
            assert values.shape == shifts.shape == (len(h),)

    @pytest.mark.parametrize("rows, h", [(2, [0]), (2, [0, 1, 2]), (4, [0, 1, 2]), (1, 0), (1, [[0, 1]])])
    def test_index_count_of_other_blocks(self, five, rows, h):
        # only a single row is shared; a block of several rows keeps one index per row
        space, _ = five
        with pytest.raises(ValueError, match=rf"h_indices must hold one index per loss row, shape \({rows},\)"):
            complexity_rows(space, np.zeros((rows, 5)), h, 1.0)

    @pytest.mark.parametrize("shape", [(3, 4), (3, 6), (5,), (1, 3, 5)])
    def test_losses_shape(self, five, shape):
        space, _ = five
        with pytest.raises(ValueError, match=r"losses must be a \(T, 5\) block"):
            complexity_rows(space, np.zeros(shape), [0, 1, 2], 1.0)

    def test_valid_block_accepted(self, five):
        space, losses = five
        values, _ = complexity_rows(space, losses.tolist(), np.array([4, 0, 2], dtype=np.int32), [0.0, 1.0, 2.0])
        assert values.shape == (3,)


class TestBetaArgument:
    """A bad rate is rejected with a ValueError naming beta, and for per-row rates the first bad entry."""

    @pytest.mark.parametrize("beta", [-1.0, math.nan, math.inf, -math.inf])
    def test_scalar(self, two_level, beta):
        space, losses = two_level
        for call in (
            lambda: complexity(space, losses, 0, beta),
            lambda: complexity_rows(space, losses[None], [0], beta),
            lambda: complexity_bruteforce(space, losses, 0, beta, 1e-2),
            lambda: posterior(space, losses, beta),
        ):
            with pytest.raises(ValueError, match=f"^beta must be finite and non-negative, got {beta}$"):
                call()

    @pytest.mark.parametrize("bad", [-1.0, -0.5e-300, math.nan, math.inf, -math.inf])
    def test_per_row_entry(self, two_level, bad):
        space, losses = two_level
        beta = [0.5, 1.0, bad, -2.0]
        with pytest.raises(ValueError, match=rf"^beta\[2\] must be finite and non-negative, got {bad}$"):
            complexity_rows(space, np.tile(losses, (4, 1)), [0, 1, 0, 1], beta)
        with pytest.raises(ValueError, match=rf"^beta\[2\] must be finite and non-negative, got {bad}$"):
            complexity_bruteforce(space, losses, 0, beta, 1e-2)

    @pytest.mark.parametrize("beta", [[1.0, 2.0], [1.0] * 4, [[1.0, 2.0, 3.0]], np.ones((3, 1))])
    def test_per_row_shape(self, two_level, beta):
        space, losses = two_level
        with pytest.raises(ValueError, match=r"^beta must be a number or one rate per row, shape \(3,\)"):
            complexity_rows(space, np.tile(losses, (3, 1)), [0, 1, 0], beta)

    def test_bruteforce_rates_must_be_one_dimensional(self, two_level):
        space, losses = two_level
        with pytest.raises(ValueError, match=r"^beta must be a number or one rate per row"):
            complexity_bruteforce(space, losses, 0, np.ones((2, 2)), 1e-2)

    def test_posterior_takes_one_rate(self, two_level):
        space, losses = two_level
        with pytest.raises(ValueError, match=r"^beta must be a number, got shape \(2,\)"):
            posterior(space, losses, [1.0, 2.0])


def tied_block(seed: int, rows: int = 12, size: int = 9):
    """A space with a zero-prior and a 1e-300-prior atom, and a loss block full of ties."""
    rng = np.random.Generator(np.random.PCG64(seed))
    prior = rng.random(size)
    prior[:2] = 0.0
    prior /= prior.sum()
    prior[1] = 1e-300
    space = FiniteHypothesisSpace(np.zeros((size, 1)), prior)
    return space, np.round(rng.random((rows, size)), 1)


def posterior_reference(space, losses, beta):
    """The per-call posterior: losses measured from the lowest positive-prior one, one max shift, then division by the shifted sum."""
    if beta == 0.0:
        return space.prior.copy()
    lowest = losses[space.prior > 0.0].min()
    with np.errstate(divide="ignore"):
        total = np.log(space.prior) - beta * (losses - lowest)
    terms = np.exp(total - float(np.max(total)))
    return terms / float(np.sum(terms))


def complexity_reference(space, losses, h, beta):
    """The per-call complexity: the objective at the levels of step_cdf."""
    cdf = step_cdf(losses, space.prior)
    shifts = cdf.levels - losses[h]
    objective = beta * shifts - np.log(cdf.cumulative)
    best = int(np.argmin(objective))
    return float(objective[best]), float(shifts[best])


def sample_reference(weights, u):
    """The per-call inverse-CDF draw over the positive-weight atoms only."""
    support = np.flatnonzero(weights > 0.0)
    cum = np.cumsum(weights[support])
    cum[-1] = 1.0
    return support[np.searchsorted(cum, u, side="right")]


class TestRowKernels:
    """Each row of a block kernel carries the bits of the per-call formula."""

    @pytest.mark.parametrize("beta", [0.0, 0.5, 10.0, 500.0, 1e6])
    def test_posterior_rows(self, beta):
        space, losses = tied_block(1, rows=300)
        weights, _ = posterior_rows(space, losses, beta)
        for row, got in zip(losses, weights):
            assert np.array_equal(got, posterior_reference(space, row, beta))
            assert np.array_equal(got, posterior(space, row, beta).weights)

    @pytest.mark.parametrize("beta", [0.5, 500.0, 1e6])
    def test_configured_exponential_family_has_the_gibbs_bits(self, beta):
        # a config builds its family by name; the exponential one is still known by its log density
        space, losses = tied_block(1, rows=300)
        weights, log_z = density_rows(space, losses, density_family("exponential", beta=beta), beta)
        expected_weights, expected_log_z = posterior_rows(space, losses, beta)
        assert np.array_equal(weights, expected_weights) and np.array_equal(log_z, expected_log_z)

    @pytest.mark.parametrize("beta", [1e6, 1e9])
    def test_tied_nonzero_minimum_at_large_beta(self, beta):
        # three hypotheses share the minimum loss 0.3: ln Z is near -0.3 beta,
        # and its rounding must not reach the weights
        space = FiniteHypothesisSpace(np.zeros((5, 1)), [0.1, 0.2, 0.3, 0.15, 0.25])
        losses = np.array([0.3, 0.3, 0.5, 0.3, 0.7])
        post = posterior(space, losses, beta)
        assert abs(float(post.weights.sum()) - 1.0) <= 1e-15
        # the minimizers' log weights are ln prior exactly, so only the
        # normalization's few roundings separate them from the limit
        limit = zero_temperature_posterior(space, losses).weights
        assert np.allclose(post.weights, limit, rtol=4.0 * np.finfo(float).eps, atol=0.0)
        assert post.log_partition == pytest.approx(-0.3 * beta + math.log(0.45), rel=1e-15)

    @pytest.mark.parametrize("beta", [0.0, 0.5, 10.0, 500.0, 1e9])
    def test_complexity_rows(self, beta):
        space, losses = tied_block(2)
        h = np.random.Generator(np.random.PCG64(3)).integers(0, len(space), size=len(losses))
        values, shifts = complexity_rows(space, losses, h, beta)
        for row, hi, value, shift in zip(losses, h, values, shifts):
            assert (value, shift) == complexity_reference(space, row, int(hi), beta)
            single = complexity(space, row, int(hi), beta)
            assert (single.value, single.argmin_shift) == (value, shift)

    @pytest.mark.parametrize("seed", range(3))
    def test_complexity_rows_per_row_rates(self, seed):
        # 0, 0.5 and 1e9 mixed within one block of tied rows with zero-prior and 1e-300-prior atoms
        space, losses = tied_block(seed, rows=30)
        rng = np.random.Generator(np.random.PCG64(seed + 20))
        h = rng.integers(0, len(space), size=len(losses))
        beta = rng.choice([0.0, 0.5, 1e9], size=len(losses))
        values, shifts = complexity_rows(space, losses, h, beta)
        for row, hi, b, value, shift in zip(losses, h, beta, values, shifts):
            assert (value, shift) == complexity_reference(space, row, int(hi), float(b))
            single = complexity(space, row, int(hi), float(b))
            assert bits(np.array([single.value, single.argmin_shift])).tobytes() == bits(np.array([value, shift])).tobytes()

    def test_complexity_rows_per_row_rates_single_hypothesis(self):
        space = FiniteHypothesisSpace(np.zeros((1, 1)), [1.0])
        losses = np.array([[0.5], [0.0], [1.0]])
        beta = np.array([0.0, 0.5, 1e9])
        values, shifts = complexity_rows(space, losses, np.zeros(3, dtype=np.int64), beta)
        for row, b, value, shift in zip(losses, beta, values, shifts):
            assert (value, shift) == complexity_reference(space, row, 0, float(b))

    @pytest.mark.parametrize("beta", [0.0, 3.0, 1e4])
    def test_posterior_draws(self, beta):
        space, losses = tied_block(4, rows=200)
        weights, _ = posterior_rows(space, losses, beta)
        uniforms = np.array([np.random.Generator(np.random.PCG64(seed)).random() for seed in range(1000, 1200)])
        drawn, values = posterior_draws(space, losses, exponential_density(beta), uniforms)
        for row, weight_row, u, h, value in zip(losses, weights, uniforms, drawn, values):
            assert h == sample_reference(weight_row, u)
            assert value == complexity_reference(space, row, int(h), beta)[0]
        # the zero-prior atom is never drawn, whatever its loss
        assert not np.any(drawn == 0)

    def test_sample_hypothesis_matches_reference(self):
        space, losses = tied_block(5, rows=1)
        post = posterior(space, losses[0], 20.0)
        drawn = [sample_hypothesis(post, seed) for seed in range(500)]
        u = np.array([stream_uniforms(seed, 1)[0] for seed in range(500)])
        assert drawn == sample_reference(post.weights, u).tolist()


def bits(a: np.ndarray) -> np.ndarray:
    # the bit patterns of floats: tells -0.0 from 0.0
    return np.ascontiguousarray(a).view(np.int64)


def check_ranked(space, losses):
    """_Ranked's values, levels, order and running mass, and cdf_rows, against argsort(kind="stable") and its gathers.

    Both ways of building it are checked: levels sorted as values, with the
    order only where the running mass reads it, and the order always, as
    the condition check of a family other than the Gibbs one at its own rate
    asks for it.
    """
    values, order, levels, mass = stable_rows(space, losses)
    positive = space.prior[space.prior > 0.0]
    levels_only = _Ranked(space, losses)
    ordered = _Ranked(space, losses, density_family("polynomial", a=2.0), 2.0)
    assert (levels_only.order is None) == (positive == positive[0]).all()
    assert np.array_equal(ordered.order, order)
    for ranked in (levels_only, ordered):
        assert np.array_equal(bits(ranked.values), bits(values))
        assert np.array_equal(bits(ranked.levels), bits(levels))
        assert ranked.order is None or np.array_equal(ranked.order, order)
        assert ranked.flat is None or np.array_equal(ranked.flat, order + np.arange(0, values.size, values.shape[1])[:, None])
        assert np.array_equal(bits(np.broadcast_to(ranked.running_mass(), mass.shape)), bits(mass))
    cdf_levels, cdf_mass = cdf_rows(space, losses)
    assert np.array_equal(bits(cdf_levels), bits(levels)) and np.array_equal(bits(cdf_mass), bits(mass))
    # only a constant prior's shared mass row is a read-only broadcast
    assert cdf_mass.flags.writeable != (levels_only.order is None)


class TestRankedSort:
    """_Ranked sorts levels with the bits of argsort's kind="stable" order, and computes that order when read."""

    def test_tied_and_tie_free_rows_mixed(self):
        # rows long enough for the default sort to leave insertion sort;
        # the tied rows carry 0.0 next to -0.0 and a nan
        rng = np.random.Generator(np.random.PCG64(11))
        size = 200
        space = FiniteHypothesisSpace(np.zeros((size, 1)), np.full(size, 1.0 / size))
        tie_free = rng.random((40, size))
        tied = np.round(rng.random((40, size)), 1)
        tied[::4, :10] = -0.0
        tied[1::4, 5] = np.nan
        losses = np.concatenate([tie_free, tied])[rng.permutation(80)]
        check_ranked(space, losses)
        check_ranked(space, tie_free)
        # a tie-free first row sends the block to the default sort, a tied one to the stable sort
        check_ranked(space, np.concatenate([tie_free[:1], losses]))
        check_ranked(space, np.concatenate([tied[:1], losses]))

    def test_tied_rows_after_a_tie_free_first_row(self):
        space, losses = tied_block(5, rows=60, size=70)
        first = np.random.Generator(np.random.PCG64(5)).random((1, 70))
        check_ranked(space, np.concatenate([first, losses]))

    def test_all_tied_rows(self):
        space = FiniteHypothesisSpace(np.zeros((50, 1)), np.full(50, 0.02))
        check_ranked(space, np.full((6, 50), 0.25))

    def test_zero_prior_atoms(self):
        space, losses = tied_block(6, rows=60, size=70)
        check_ranked(space, losses)
        check_ranked(space, np.random.Generator(np.random.PCG64(7)).random((60, 70)))

    def test_single_hypothesis(self):
        check_ranked(FiniteHypothesisSpace(np.zeros((1, 1)), [1.0]), np.array([[0.5], [0.0], [1.0]]))

    @pytest.mark.parametrize("seed", range(4))
    def test_one_row(self, seed):
        space, losses = tied_block(seed, rows=2, size=100)
        check_ranked(space, losses[:1])
        check_ranked(space, losses[1:] + np.arange(100) * 1e-3)

    def test_only_a_check_that_reads_the_order_asks_for_it(self):
        # the Gibbs check at its own rate reads each row's end levels; any other family or rate reads the order
        space = FiniteHypothesisSpace(np.zeros((64, 1)), np.full(64, 1 / 64))
        losses = np.random.Generator(np.random.PCG64(3)).random((3, 64))
        gibbs = _Ranked(space, losses, exponential_density(10.0), 10.0)
        assert gibbs.exponential and gibbs.ends_only and gibbs.order is None
        for family, gamma in [(exponential_density(10.0), 20.0), (density_family("polynomial", a=2.0), 2.0)]:
            ranked = _Ranked(space, losses, family, gamma)
            assert not ranked.ends_only and ranked.order is not None
            assert ranked.exponential == (family.name == "exponential")
        # a family named "exponential" whose log density is not the Gibbs one's takes no shift
        renamed = dataclasses.replace(density_family("polynomial", a=2.0), name="exponential")
        assert not _Ranked(space, losses, renamed, 2.0).exponential
        assert _Ranked(space, np.zeros((3, 64))).running_mass().shape == (1, 64)

    def test_prior_one_ulp_off_constant_takes_the_ordered_mass(self):
        # one positive atom one ulp above the rest: each row's running mass depends on where the atom falls in its order
        prior = np.full(64, 1 / 64)
        prior[:3] = 0.0
        prior[3:] = 1 / 61
        prior[40] = np.nextafter(prior[40], 1.0)
        space = FiniteHypothesisSpace(np.zeros((64, 1)), prior)
        rng = np.random.Generator(np.random.PCG64(9))
        losses = np.concatenate([rng.random((20, 64)), np.round(rng.random((20, 64)), 1)])
        assert _Ranked(space, losses).running_mass().shape == losses[:, 3:].shape
        check_ranked(space, losses)
        h = rng.integers(0, 64, size=len(losses))
        for beta in (0.0, 10.0, 500.0, 1e9):
            got = complexity_rows(space, losses, h, beta)
            expected = complexity_rows_reference(space, losses, h, beta)
            assert [bits(a).tobytes() for a in got] == [bits(a).tobytes() for a in expected]


@st.composite
def sort_blocks(draw):
    """A prior constant on its positive atoms or not, with zero-prior atoms, and a block of tied and tie-free rows.

    Tied rows draw from a few levels with 0.0, -0.0 and nan among them;
    tie-free rows are permutations of distinct levels.  The first row is
    either kind, so the block takes either sort first.
    """
    size = draw(st.integers(1, 40))
    if draw(st.booleans()):
        weights = np.array(draw(st.lists(st.sampled_from([0.0, 1.0]), min_size=size, max_size=size)))
    else:
        weights = np.array(draw(st.lists(st.one_of(st.just(0.0), st.floats(1e-6, 1.0)), min_size=size, max_size=size)))
    weights[draw(st.integers(0, size - 1))] = 1.0
    tied = st.lists(st.sampled_from([0.0, -0.0, math.nan, 0.25, 1.0]), min_size=size, max_size=size)
    tie_free = st.permutations([0.5 + k / size for k in range(size)])
    first = draw(st.sampled_from([tied, tie_free]))
    rows = [draw(first), *draw(st.lists(st.one_of(tied, tie_free), max_size=5))]
    return FiniteHypothesisSpace(np.zeros((size, 1)), weights / weights.sum()), np.array(rows, dtype=float)


@settings(max_examples=300, deadline=None)
@given(block=sort_blocks())
def test_ranked_levels_are_the_stable_argsort_levels(block):
    """The levels-only sort keeps the bits of argsort(kind="stable")'s levels; a constant prior's mass row is the gathered cumsum."""
    check_ranked(*block)


@st.composite
def loss_rows(draw):
    """A prior with zero-prior atoms and a loss row with ties, drawn from a few levels."""
    size = draw(st.integers(1, 12))
    levels = draw(st.lists(st.floats(0.0, 1.0), min_size=1, max_size=4))
    losses = np.array(draw(st.lists(st.sampled_from(levels), min_size=size, max_size=size)))
    weights = np.array(
        draw(st.lists(st.one_of(st.just(0.0), st.just(1e-300), st.floats(1e-6, 1.0)), min_size=size, max_size=size))
    )
    weights[draw(st.integers(0, size - 1))] = draw(st.floats(1e-3, 1.0))
    return FiniteHypothesisSpace(np.zeros((size, 1)), weights / weights.sum()), losses


@settings(max_examples=300, deadline=None)
@given(
    row=loss_rows(),
    beta=st.one_of(st.just(0.0), st.floats(0.0, 10.0), st.floats(10.0, 1e9), st.sampled_from([1e6, 1e9])),
    pick=st.integers(0, 11),
)
def test_complexity_closed_form(row, beta, pick):
    """complexity(h) = m - beta * L(h), m the minimum over step-CDF levels of beta * L_j - ln C_j."""
    space, losses = row
    h = pick % len(space)
    cdf = step_cdf(losses, space.prior)
    m = float(np.min(beta * cdf.levels - np.log(cdf.cumulative)))
    own = beta * losses[h]
    value = complexity(space, losses, h, beta).value
    assert abs(value - (m - own)) <= 1e-12 * max(1.0, abs(m), own)


@st.composite
def loss_blocks(draw):
    """A prior with zero-prior and 1e-300-prior atoms, and a block of 2 to 5 loss rows.

    A row's losses come from a few levels, some of them repeated a few
    multiples of 1e-13 apart, inside TIE_TOL of each other.
    """
    size = draw(st.integers(1, 10))
    weights = np.array(
        draw(st.lists(st.one_of(st.just(0.0), st.just(1e-300), st.floats(1e-6, 1.0)), min_size=size, max_size=size))
    )
    weights[draw(st.integers(0, size - 1))] = draw(st.floats(1e-3, 1.0))
    rows = []
    for _ in range(draw(st.integers(2, 5))):
        levels = draw(st.lists(st.floats(0.0, 1.0), min_size=1, max_size=4))
        levels += [level + k * 1e-13 for level in levels for k in draw(st.lists(st.integers(1, 9), max_size=2))]
        rows.append(draw(st.lists(st.sampled_from(levels), min_size=size, max_size=size)))
    return FiniteHypothesisSpace(np.zeros((size, 1)), weights / weights.sum()), np.array(rows)


def log_density_ratio(space, losses, beta):
    """ln(posterior / prior) = -beta * L(h) - ln Z at every h of one loss row, Z = sum of prior * exp(-beta * L).

    Both terms are measured from the row's lowest positive-prior loss m,
    which takes the common -beta * m out of them before it can round.
    """
    positive = space.prior > 0.0
    lowest = float(losses[positive].min())
    z = math.fsum(p * math.exp(-beta * (loss - lowest)) for p, loss in zip(space.prior[positive], losses[positive]))
    return [-beta * (loss - lowest) - math.log(z) for loss in losses.tolist()]


@settings(max_examples=200, deadline=None)
@given(
    block=loss_blocks(),
    rates=st.lists(
        st.one_of(st.just(0.0), st.floats(0.0, 10.0), st.floats(10.0, 1e9), st.sampled_from([1e6, 1e9])),
        min_size=5,
        max_size=5,
    ),
)
def test_log_density_ratio_is_at_most_the_complexity(block, rates):
    """-beta * L(h) - ln Z <= complexity(h) <= -beta * L(h) - ln Z + ln K at every h, for one rate per row of a block.

    Z >= prior(L <= L(h) + r) * exp(-beta * (L(h) + r)) for every shift r, so
    the log density ratio of the Gibbs posterior never exceeds the minimum
    over r of beta * r - ln prior(L <= L(h) + r), the complexity.  With K
    the row's distinct positive-prior loss levels l_j and F_j the prior mass
    at or below l_j, Z <= sum_j F_j exp(-beta l_j) <= K max_j F_j exp(-beta l_j),
    so the complexity exceeds the ratio by at most ln K.
    """
    space, losses = block
    beta = np.array(rates[: len(losses)])
    ratios = [log_density_ratio(space, row, rate) for row, rate in zip(losses, beta.tolist())]
    levels = [len(set(row[space.prior > 0.0].tolist())) for row in losses]
    for h in range(len(space)):
        values, _ = complexity_rows(space, losses, np.full(len(losses), h), beta)
        for ratio, value, k in zip(ratios, values.tolist(), levels):
            tol = 1e-12 * max(1.0, abs(value))
            assert ratio[h] <= value + tol
            assert value - ratio[h] <= math.log(k) + tol


RATES = st.one_of(
    st.just(0.0),
    st.floats(0.0, 10.0),
    st.floats(10.0, 1e9),
    st.sampled_from([1e-300, 1e-150, 1e6, 1e9]),
    st.floats(1e-300, 1e-3),
)


@settings(max_examples=300, deadline=None)
@given(block=loss_blocks(), rates=st.lists(RATES, min_size=5, max_size=5), data=st.data())
def test_complexity_rows_match_the_per_hypothesis_kernel(block, rates, data):
    """Values and shifts carry the per-hypothesis kernel's bits: on a (T, H) block, and on one shared row.

    The block takes one index per row, under one rate and under one rate
    per row; each shared row takes every hypothesis at every rate.
    """
    space, losses = block
    h = np.array(data.draw(st.lists(st.integers(0, len(space) - 1), min_size=len(losses), max_size=len(losses))))
    calls = [(losses, h, beta) for beta in (rates[0], np.array(rates[: len(losses)]))]
    every = np.tile(np.arange(len(space)), len(rates))
    calls += [(row[None], every, beta) for row in losses for beta in (*rates, np.repeat(rates, len(space)))]
    for block_or_row, indices, beta in calls:
        got = complexity_rows(space, block_or_row, indices, beta)
        expected = complexity_rows_reference(space, block_or_row, indices, beta)
        assert [bits(a).tobytes() for a in got] == [bits(a).tobytes() for a in expected]


# losses at the edges of the float range, and ones no loss table holds: negative, infinite, nan
EDGE_LOSSES = [0.0, -0.0, 1.0, 1.5, -0.5, 5e-324, 1e-310, 1e308, -1e308, math.nan, math.inf, -math.inf]
EDGE_RATES = [0.0, 5e-324, 10.0, 1e9, 1e300, 1.7e308]
TWO = FiniteHypothesisSpace(np.zeros((2, 1)), [0.5, 0.5])


@st.composite
def edge_blocks(draw):
    """A prior with zero-prior and 1e-300-prior atoms, and 1 to 4 loss rows of ordinary and edge losses."""
    size = draw(st.integers(1, 6))
    weights = np.array(
        draw(st.lists(st.one_of(st.just(0.0), st.just(1e-300), st.floats(1e-6, 1.0)), min_size=size, max_size=size))
    )
    weights[draw(st.integers(0, size - 1))] = draw(st.floats(1e-3, 1.0))
    loss = st.one_of(st.floats(0.0, 1.0), st.sampled_from(EDGE_LOSSES))
    rows = draw(st.lists(st.lists(loss, min_size=size, max_size=size), min_size=1, max_size=4))
    return FiniteHypothesisSpace(np.zeros((size, 1)), weights / weights.sum()), np.array(rows)


def outcome(call) -> list | tuple:
    """The bits of every array a call returns, or the type and message of the ValueError it raises."""
    try:
        return [bits(np.asarray(a, dtype=float)).tobytes() for a in call()]
    except ValueError as err:
        return type(err), str(err)


@settings(max_examples=400, deadline=None)
@given(
    block=edge_blocks(),
    beta=st.sampled_from(EDGE_RATES),
    gamma=st.one_of(st.none(), st.sampled_from(EDGE_RATES)),
    uniforms=st.lists(st.floats(0.0, 1.0, exclude_max=True), min_size=4, max_size=4),
)
# a -inf loss lies at a row's lowest level, a nan or +inf at its highest; an overflow and a pass on the first row
@example(block=(TWO, np.array([[-math.inf, 0.5]])), beta=10.0, gamma=None, uniforms=[0.5] * 4)
@example(block=(TWO, np.array([[0.5, 0.6], [0.5, math.inf]])), beta=10.0, gamma=None, uniforms=[0.5] * 4)
@example(block=(TWO, np.array([[0.5, 0.6], [math.nan, 0.5]])), beta=0.0, gamma=None, uniforms=[0.5] * 4)
@example(block=(TWO, np.array([[0.1, 0.5], [0.5, 2.0]])), beta=1.7e308, gamma=None, uniforms=[0.5] * 4)
# at rate 0 under another declared gamma, the shifted losses overflow to inf and -0.0 * inf is a nan weight
@example(block=(TWO, np.array([[0.0, 0.0], [-1e308, 1e308]])), beta=0.0, gamma=5e-324, uniforms=[0.0] * 4)
def test_gibbs_rows_match_the_always_check_kernel(block, beta, gamma, uniforms):
    """density_rows and posterior_draws keep the bits and errors of the kernel that checks every row.

    The Gibbs family at its own rate (gamma None) skips its condition check
    on blocks where it cannot fail; at another rate it is checked as any
    family is.  Either way density_rows gives the reference's weights and
    ln Z, or its error type and message, and posterior_draws draws from the
    reference's weights and scores each draw, or raises that error.
    """
    space, losses = block
    family = exponential_density(beta)
    if gamma is not None:
        family = dataclasses.replace(family, gamma=gamma)
    u = np.array(uniforms[: len(losses)])
    # overflows and nan products are part of the inputs; under -W error their warnings would stop both kernels alike
    with np.errstate(all="ignore"):
        expected = outcome(lambda: density_rows_reference(space, losses, family, family.gamma))
        assert outcome(lambda: density_rows(space, losses, family, family.gamma)) == expected
        if isinstance(expected, list):
            weights, _ = density_rows_reference(space, losses, family, family.gamma)
            drawn = inverse_cdf(weights, u[:, None])[:, 0]
            expected = outcome(lambda: (drawn, complexity_rows(space, losses, drawn, family.gamma)[0]))
        assert outcome(lambda: posterior_draws(space, losses, family, u)) == expected


def bruteforce_reference(space, losses, h, beta, grid_step):
    """The per-point dense scan: one step-CDF lookup per grid point."""
    cdf = step_cdf(losses, space.prior)
    own = losses[h]
    grid = np.arange(-own - 1.0, cdf.levels[-1] + 1.0 + grid_step, grid_step)
    mass = cdf.at(own + grid)
    valid = mass > 0.0
    objective = beta * grid[valid] - np.log(mass[valid])
    return float(objective.min())


class TestBruteforceRuns:
    """complexity_bruteforce gives every grid point its mass by runs, with the per-point scan's bits."""

    def check(self, space, losses, h, beta, step=1e-4):
        got = complexity_bruteforce(space, losses, h, beta, step)
        assert repr(got) == repr(bruteforce_reference(space, losses, h, beta, step))

    def check_rates(self, space, losses, h, betas, step=1e-4):
        # one scan for several rates: each value carries its single-rate scan's bits
        got = complexity_bruteforce(space, losses, h, np.array(betas), step)
        assert [repr(float(v)) for v in got] == [repr(bruteforce_reference(space, losses, h, b, step)) for b in betas]
        assert got.tobytes() == np.array([complexity_bruteforce(space, losses, h, b, step) for b in betas]).tobytes()

    @staticmethod
    def random_cases():
        # the generator of the complexity oracle criterion
        rng = np.random.Generator(np.random.PCG64(101))
        for _ in range(40):
            h_count = int(rng.integers(2, 17))
            domain, space = random_loss_table(
                h_count, int(rng.integers(2, 9)), int(rng.integers(0, 2**32)), random_prior=bool(rng.integers(0, 2))
            )
            data = sample_dataset(domain, int(rng.integers(1, 33)), int(rng.integers(0, 2**32)))
            yield space, loss_profile(space, domain, data).empirical, int(rng.integers(0, h_count))

    @pytest.mark.parametrize("beta", [0.0, 0.1, 1.0, 10.0, 1e3, 1e9])
    def test_random_spaces(self, beta):
        for space, losses, h in self.random_cases():
            self.check(space, losses, h, beta)

    @pytest.mark.parametrize("beta", [0.0, 1.0, 1e9])
    def test_zero_tiny_prior_and_tied_atoms(self, beta):
        space, losses = tied_block(8, rows=30)
        for i, row in enumerate(losses):
            for h in (0, 1, i % len(space)):
                self.check(space, row, h, beta, step=1e-3)

    @pytest.mark.parametrize("beta", [0.0, 2.0, 1e9])
    def test_single_hypothesis(self, beta):
        space = FiniteHypothesisSpace(np.zeros((1, 1)), [1.0])
        for loss in (0.0, 0.3, 1.0):
            self.check(space, np.array([loss]), 0, beta)

    @pytest.mark.parametrize("step", [1e-3, 0.37, 5.0])
    def test_coarse_steps(self, step):
        space, losses = tied_block(9, rows=10)
        for row in losses:
            self.check(space, row, 3, 2.0, step)

    def test_several_rates_random_spaces(self):
        for space, losses, h in self.random_cases():
            self.check_rates(space, losses, h, [0.0, 0.1, 1.0, 10.0, 1e3, 1e9])

    def test_several_rates_zero_tiny_prior_and_tied_atoms(self):
        space, losses = tied_block(8, rows=30)
        for i, row in enumerate(losses):
            for h in (0, 1, i % len(space)):
                self.check_rates(space, row, h, [0.0, 1.0, 1e9], step=1e-3)

    def test_several_rates_single_hypothesis(self):
        space = FiniteHypothesisSpace(np.zeros((1, 1)), [1.0])
        for loss in (0.0, 0.3, 1.0):
            self.check_rates(space, np.array([loss]), 0, [0.0, 2.0, 1e9])

    @pytest.mark.parametrize("step", [1e-3, 0.37, 5.0])
    def test_several_rates_coarse_steps(self, step):
        space, losses = tied_block(9, rows=10)
        for row in losses:
            self.check_rates(space, row, 3, [2.0, 0.0, 2.0], step)

    def test_log_of_gathered_masses_is_gathered_log(self):
        # np.log on the repeated masses and np.repeat of their logs carry the same bits
        rng = np.random.Generator(np.random.PCG64(12))
        masses = np.cumsum(rng.random(300) * 10.0 ** rng.integers(-300, 0, 300))
        masses = np.concatenate([masses / masses[-1], [1e-300, 5e-324, 1.0]])
        for runs in (rng.integers(0, 40, masses.size), np.ones(masses.size, dtype=np.int64)):
            assert bits(np.log(np.repeat(masses, runs))).tobytes() == bits(np.repeat(np.log(masses), runs)).tobytes()
