import dataclasses
import math
import re
import warnings

import numpy as np
import pytest
from reference import loss_profile

from gibbslab.gibbs import (
    DensityConditionError,
    DensityFamily,
    capped_exponential_density,
    complexity,
    density_family,
    density_rows,
    exponential_density,
    normalize_density,
    polynomial_density,
    posterior,
    posterior_draws,
    sample_hypothesis,
)
from gibbslab.model import FiniteHypothesisSpace, random_loss_table, sample_dataset


@pytest.fixture
def two_level():
    space = FiniteHypothesisSpace([[0.0], [1.0]], [0.5, 0.5])
    return space, np.array([0.0, 1.0])


class TestFamilies:
    def test_dispatcher(self):
        family = density_family("polynomial", a=2.0)
        assert family.name == "polynomial" and family.gamma == 2.0
        with pytest.raises(ValueError):
            density_family("unknown")

    def test_exponential_log_density(self):
        family = exponential_density(3.0)
        assert family.log_density(0.5) == -1.5
        assert family.gamma == 3.0

    def test_capped_flattens(self):
        family = capped_exponential_density(4.0, cap=0.5)
        assert family.log_density(0.5) == family.log_density(2.0) == -2.0

    def test_log_density_maps_arrays_with_the_scalar_bits(self):
        t = np.random.Generator(np.random.PCG64(5)).random((40, 7))
        polynomial = polynomial_density(2.5).log_density(t)
        assert polynomial.shape == t.shape
        assert polynomial.tolist() == [[-2.5 * math.log1p(v) for v in row] for row in t.tolist()]
        capped = capped_exponential_density(4.0, cap=0.5).log_density(t)
        assert capped.tolist() == [[-4.0 * min(v, 0.5) for v in row] for row in t.tolist()]

    def test_negative_parameters_rejected(self):
        with pytest.raises(ValueError):
            exponential_density(-1.0)
        with pytest.raises(ValueError):
            polynomial_density(-0.5)

    @pytest.mark.parametrize("value", [math.nan, math.inf, "1.0", True, None])
    def test_non_finite_or_non_numeric_parameters_named(self, value):
        message = f"must be a finite non-negative number, got {value!r}"
        with pytest.raises(ValueError, match="beta " + re.escape(message)):
            exponential_density(value)
        with pytest.raises(ValueError, match="a " + re.escape(message)):
            polynomial_density(value)
        with pytest.raises(ValueError, match="cap " + re.escape(message)):
            capped_exponential_density(1.0, value)

    def test_dispatcher_names_bad_parameters(self):
        with pytest.raises(ValueError, match=r"density family 'polynomial': unknown parameters \['b'\]"):
            density_family("polynomial", b=1.0)


class TestNormalizeDensity:
    def test_gibbs_special_case(self, two_level):
        space, losses = two_level
        for beta in (0.5, 1.0, 7.0):
            post = normalize_density(space, losses, exponential_density(beta), beta)
            exact = posterior(space, losses, beta).weights
            assert np.max(np.abs(post.weights - exact)) <= 1e-12

    def test_polynomial_closed_form(self, two_level):
        # q(0) = 1, q(1) = 1/2 against a fair prior: Z = 3/4, weights (2/3, 1/3)
        space, losses = two_level
        post = normalize_density(space, losses, polynomial_density(1.0), 1.0)
        assert math.exp(post.log_partition) == pytest.approx(3.0 / 4.0, abs=1e-12)
        assert post.weights[0] == pytest.approx(2.0 / 3.0, abs=1e-12)
        assert post.weights[1] == pytest.approx(1.0 / 3.0, abs=1e-12)
        assert post.log_partition == pytest.approx(math.log(3.0 / 4.0), abs=1e-12)

    def test_increasing_density_rejected(self, two_level):
        space, losses = two_level
        rising = DensityFamily("rising", {}, lambda t: t, 1.0)
        with pytest.raises(DensityConditionError) as err:
            normalize_density(space, losses, rising, 1.0)
        assert err.value.pair == (0.0, 1.0)

    def test_too_steep_density_rejected(self, two_level):
        # decay rate 10 against a claimed constant of 1
        space, losses = two_level
        steep = DensityFamily("steep", {}, lambda t: -10.0 * t, 1.0)
        with pytest.raises(DensityConditionError) as err:
            normalize_density(space, losses, steep, 1.0)
        assert err.value.pair == (0.0, 1.0)
        # the same family is fine when the claimed constant is honest
        normalize_density(space, losses, DensityFamily("steep", {}, lambda t: -10.0 * t, 10.0), 10.0)

    def test_exponential_shift_follows_the_family_not_its_name(self, two_level):
        # q(t) = q(t - m) q(m) holds for exponential_density alone; a Gaussian q named
        # "exponential" once took that shift, and its weights read (0.622, 0.378)
        space, _ = two_level
        losses = np.array([0.5, 1.0])
        weights = [
            normalize_density(space, losses, DensityFamily(name, {}, lambda t: -2.0 * t * t, 4.0), 4.0).weights
            for name in ("exponential", "gauss")
        ]
        assert weights[0].tolist() == weights[1].tolist()
        assert weights[0] == pytest.approx(np.exp([-0.5, -2.0]) / np.exp([-0.5, -2.0]).sum(), abs=1e-15)

    @pytest.mark.parametrize("beta", [1e6, 1e9])
    def test_gibbs_family_accepted_at_large_beta(self, beta):
        # log q and beta * (t - s) round at ~1e-7 here, far above an absolute 1e-12
        domain, space = random_loss_table(64, 16, 7)
        data = sample_dataset(domain, 50, 3)
        losses = loss_profile(space, domain, data).empirical
        post = normalize_density(space, losses, exponential_density(beta), beta)
        assert np.array_equal(post.weights, posterior(space, losses, beta).weights)

    @pytest.mark.parametrize("offset", [0.0, -1e9])
    def test_half_declared_rate_rejected_at_large_log_density(self, offset):
        # decay rate 2e9 against a declared 1e9, and a rate 2 against a declared 1
        # on log densities near -1e9: both exceed the tolerance at |log q| ~ 1e9
        domain, space = random_loss_table(64, 16, 7)
        losses = loss_profile(space, domain, sample_dataset(domain, 50, 3)).empirical
        gamma = 1e9 if offset == 0.0 else 1.0
        half = DensityFamily("half", {}, lambda t: offset - 2.0 * gamma * t, gamma)
        with pytest.raises(DensityConditionError, match="log-Lipschitz"):
            normalize_density(space, losses, half, gamma)
        with pytest.raises(DensityConditionError, match="log-Lipschitz"):
            density_rows(space, losses[None], half, gamma)

    def test_density_vanishing_next_to_a_large_one_rejected(self, two_level):
        # an infinite log density does not scale the tolerance
        space, losses = two_level
        family = DensityFamily("cliff", {}, lambda t: np.where(t == 0.0, -1e9, -math.inf), 1.0)
        with pytest.raises(DensityConditionError, match="log-Lipschitz"):
            normalize_density(space, losses, family, 1.0)

    def test_vanishing_density_rejected(self, two_level):
        space, losses = two_level
        dead = DensityFamily("dead", {}, lambda t: -math.inf, 0.0)
        with pytest.raises(ValueError):
            normalize_density(space, losses, dead, 0.0)

    def test_infinite_density_rejected(self, two_level):
        space, losses = two_level
        spike = DensityFamily("spike", {}, lambda t: np.where(t == 0.0, math.inf, 0.0), 1.0)
        with pytest.raises(ValueError):
            normalize_density(space, losses, spike, 1.0)

    def test_nan_density_rejected_by_name(self):
        # nan fails no comparison of the pairwise conditions; it must not reach the weights
        space = FiniteHypothesisSpace([[0.0], [0.5], [1.0]], [0.25, 0.25, 0.5])
        family = DensityFamily("nan", {}, lambda t: np.where(t > 0.7, np.nan, -t), 1.0)
        message = r"^density 'nan' is not a number at achieved loss level 1\.0$"
        with pytest.raises(ValueError, match=message):
            normalize_density(space, [0.0, 0.5, 1.0], family, 1.0)
        # the block kernel raises the same error for the first row that holds a nan
        losses = np.array([[0.0, 0.5, 0.6], [0.0, 0.5, 1.0], [0.9, 0.5, 1.0]])
        with pytest.raises(ValueError, match=message):
            posterior_draws(space, losses, family, np.full(3, 0.5))

    def test_nan_density_at_rate_zero_rejected(self, two_level):
        space, losses = two_level
        family = DensityFamily("nan", {}, lambda t: np.full(np.shape(t), np.nan), 0.0)
        with pytest.raises(ValueError, match="not a number"):
            normalize_density(space, losses, family, 0.0)

    def test_conditions_checked_on_positive_prior_levels_only(self):
        # the zero-prior hypothesis at loss 2 would violate the Lipschitz
        # condition, but it is invisible to the posterior
        space = FiniteHypothesisSpace([[0.0], [1.0], [2.0]], [0.5, 0.5, 0.0])
        losses = np.array([0.0, 1.0, 2.0])
        family = DensityFamily("piecewise", {}, lambda t: np.where(t <= 1.0, -t, -100.0 * t), 1.0)
        post = normalize_density(space, losses, family, 1.0)
        assert post.weights[2] == 0.0

    def test_zero_prior_atom_with_wild_density_stays_finite(self):
        # an infinite density at a zero-prior level must not poison the weights
        space = FiniteHypothesisSpace([[0.0], [1.0], [2.0]], [0.5, 0.5, 0.0])
        losses = np.array([0.0, 1.0, 2.0])
        family = DensityFamily("wild", {}, lambda t: np.where(t == 2.0, math.inf, -t), 1.0)
        post = normalize_density(space, losses, family, 1.0)
        assert np.all(np.isfinite(post.weights))
        assert post.weights[2] == 0.0
        assert post.weights.sum() == pytest.approx(1.0, abs=1e-12)

    def test_extreme_decay_keeps_weights_finite(self, two_level):
        space, losses = two_level
        post = normalize_density(space, np.array([0.5, 1.0]), exponential_density(5000.0), 5000.0)
        assert post.weights[0] == pytest.approx(1.0, abs=1e-12)
        # Z = exp(-2500) / 2 underflows; ln Z is exact
        assert post.log_partition == pytest.approx(-2500.0 + math.log(0.5), rel=1e-12)

    def test_rate_zero_returns_the_prior_itself(self):
        # a constant density leaves the prior; renormalizing it would move its last bits
        domain, space = random_loss_table(64, 16, 7, random_prior=True)
        losses = loss_profile(space, domain, sample_dataset(domain, 50, 3)).empirical
        post = normalize_density(space, losses, polynomial_density(0.0), 0.0)
        assert np.array_equal(post.weights, space.prior)
        assert post.log_partition == 0.0

    def test_misaligned_losses_rejected(self, two_level):
        space, _ = two_level
        with pytest.raises(ValueError):
            normalize_density(space, np.zeros(3), exponential_density(1.0), 1.0)


class TestMonotoneBoundRhs:
    """The beyond_gibbs bound reads the complexity of a draw at the density's decay rate."""

    def test_matches_gibbs_rhs(self):
        # the exponential family draws and scores as the Gibbs posterior does
        rng = np.random.Generator(np.random.PCG64(13))
        for _ in range(20):
            domain, space = random_loss_table(
                int(rng.integers(2, 13)), 4, int(rng.integers(0, 2**32))
            )
            data = sample_dataset(domain, int(rng.integers(1, 20)), int(rng.integers(0, 2**32)))
            profile = loss_profile(space, domain, data)
            beta = float(10.0 ** rng.uniform(-1, 2))
            seed = int(rng.integers(0, 2**32))
            u = np.random.Generator(np.random.PCG64(seed)).random(1)
            drawn, values = posterior_draws(space, profile.empirical[None], exponential_density(beta), u)
            h = int(drawn[0])
            assert h == sample_hypothesis(posterior(space, profile.empirical, beta), seed)
            assert values[0] == complexity(space, profile.empirical, h, beta).value

    def test_polynomial_two_level_value(self, two_level):
        space, losses = two_level
        post = normalize_density(space, losses, polynomial_density(1.0), 1.0)
        assert complexity(space, losses, 0, post.beta).value == pytest.approx(math.log(2.0), abs=1e-12)

    def test_rhs_monotone_in_gamma_at_minimizer(self, two_level):
        # at an empirical minimizer every candidate shift is non-negative, so
        # the complexity (and hence the RHS) is non-decreasing in the rate
        space, losses = two_level
        values = [complexity(space, losses, 0, g).value for g in (0.1, 0.3, 0.7, 1.0, 3.0, 10.0)]
        assert all(a <= b + 1e-12 for a, b in zip(values, values[1:]))


class TestDensityRows:
    def test_rows_match_normalize_density(self):
        rng = np.random.Generator(np.random.PCG64(17))
        space = FiniteHypothesisSpace(np.zeros((7, 1)), np.append(0.0, np.full(6, 1.0 / 6.0)))
        losses = np.round(rng.random((15, 7)), 1)
        for family in (polynomial_density(2.0), exponential_density(3.0), capped_exponential_density(4.0, 0.3)):
            weights, log_z = density_rows(space, losses, family, family.gamma)
            for row, got_weights, got_log_z in zip(losses, weights, log_z):
                post = normalize_density(space, row, family, family.gamma)
                assert np.array_equal(got_weights, post.weights)
                assert got_log_z == post.log_partition

    def test_first_failing_row_raises_its_own_error(self):
        space = FiniteHypothesisSpace(np.zeros((3, 1)), [0.2, 0.3, 0.5])
        steep = DensityFamily("steep", {}, lambda t: -10.0 * t, 1.0)
        # row 0 passes (one level); rows 1 and 2 fail on different pairs
        losses = np.array([[0.5, 0.5, 0.5], [0.0, 0.0, 0.2], [0.0, 0.4, 0.4]])
        with pytest.raises(DensityConditionError) as err:
            density_rows(space, losses, steep, 1.0)
        assert err.value.pair == (0.0, 0.2)
        with pytest.raises(DensityConditionError) as single:
            normalize_density(space, losses[1], steep, 1.0)
        assert str(err.value) == str(single.value)

    # row 0 passes; row 1's density vanishes at its second level, across an
    # infinite gap or one whose product with the rate overflows
    @pytest.mark.parametrize(
        "losses, beta, message",
        [
            ([[0.5, 0.6], [0.5, math.inf]], 1.0, r"^log-Lipschitz constant 1\.0 violated between levels 0\.5 and inf$"),
            ([[0.1, 0.5], [0.5, 2.0]], 1.7e308, r"^log-Lipschitz constant 1\.7e\+308 violated between levels 0\.5 and 2\.0$"),
        ],
        ids=["infinite_level", "overflow"],
    )
    def test_vanishing_density_across_an_infinite_gap_names_its_pair(self, losses, beta, message):
        space = FiniteHypothesisSpace(np.zeros((2, 1)), [0.5, 0.5])
        losses = np.array(losses)
        family = exponential_density(beta)
        # the overflows of beta times a loss and of beta times a gap are the kernel's to handle:
        # with numpy's warnings raised as errors, the density error still comes out
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(DensityConditionError, match=message) as rows:
                density_rows(space, losses, family, beta)
            with pytest.raises(DensityConditionError, match=message) as draws:
                posterior_draws(space, losses, family, [0.5, 0.5])
        assert rows.value.pair == draws.value.pair == (losses[1, 0], losses[1, 1])

    def test_shifted_density_past_the_float_range_is_a_zero_weight(self):
        # both ends' -beta * loss are finite, but beta times the gap from the lowest level overflows
        space = FiniteHypothesisSpace(np.zeros((2, 1)), [0.5, 0.5])
        family = exponential_density(1e308)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            weights, log_z = density_rows(space, np.array([[-1.0, 1.0]]), family, 1e308)
            drawn, _ = posterior_draws(space, np.array([[-1.0, 1.0]]), family, [0.99])
        assert weights.tolist() == [[1.0, 0.0]] and log_z.tolist() == [1e308]
        assert drawn.tolist() == [0]

    def test_lipschitz_bound_past_the_float_range_holds(self):
        # a unit-rate density checked against gamma = 1.7e308: gamma times the gap 1.5 overflows to inf,
        # which every pair meets
        space = FiniteHypothesisSpace(np.zeros((2, 1)), [0.5, 0.5])
        family = dataclasses.replace(exponential_density(1.0), gamma=1.7e308)
        losses = np.array([[0.5, 2.0]])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            weights, _ = density_rows(space, losses, family, family.gamma)
        assert np.array_equal(weights, density_rows(space, losses, exponential_density(1.0), 1.0)[0])
