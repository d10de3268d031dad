import math

import numpy as np
import pytest
from hypothesis import given, strategies as st
from mpmath import mp
from reference import binary_kl_inverse_relaxed, inverse_upper_reference

from gibbslab.gibbs import _normalized_rows
from gibbslab.measures import (
    SATURATION,
    binary_kl,
    binary_kl_inverse_upper_rows,
    binary_kl_rows,
)

mp.dps = 50


def mp_binary_kl(p, q):
    """High-precision reference for the Bernoulli relative entropy."""
    p, q = mp.mpf(repr(p)), mp.mpf(repr(q))
    total = mp.mpf(0)
    if p > 0:
        total += p * mp.log(p / q)
    if p < 1:
        total += (1 - p) * mp.log((1 - p) / (1 - q))
    return float(total)


class TestBinaryKl:
    def test_identity_is_zero(self):
        assert binary_kl(0.3, 0.3) == 0.0

    def test_zero_loss_case(self):
        assert binary_kl(0.0, 0.5) == pytest.approx(math.log(2.0), abs=1e-15)

    def test_against_high_precision_reference(self):
        assert binary_kl(0.1, 0.3) == pytest.approx(mp_binary_kl(0.1, 0.3), abs=1e-15)
        assert binary_kl(1.0, 0.25) == pytest.approx(mp_binary_kl(1.0, 0.25), abs=1e-15)

    @pytest.mark.parametrize("p,q", [(-0.1, 0.5), (1.1, 0.5), (0.5, 0.0), (0.5, 1.0), (0.5, -0.2)])
    def test_domain_errors(self, p, q):
        with pytest.raises(ValueError):
            binary_kl(p, q)

    @given(st.floats(0.0, 1.0), st.floats(1e-9, 1.0 - 1e-9))
    def test_non_negative_and_zero_iff_equal(self, p, q):
        value = binary_kl(p, q)
        assert value >= 0.0
        if abs(p - q) > 1e-7:
            assert value > 0.0
        if p == q:
            assert value <= 1e-14

    def test_strictly_increasing_above_p(self):
        p = 0.2
        qs = np.linspace(0.2, 0.999, 50)
        values = [binary_kl(p, q) for q in qs]
        assert all(a < b for a, b in zip(values, values[1:]))


def inverse_upper(p, budget):
    """The inverse at one (p, budget) pair, as a one-element rows call."""
    return float(binary_kl_inverse_upper_rows([p], [budget])[0])


class TestBinaryKlInverseUpper:
    def test_zero_budget_returns_p(self):
        p = np.array([0.0, 5e-324, 0.3, 0.999, 1.0 - 2**-53])
        assert binary_kl_inverse_upper_rows(p, np.zeros(p.size)).tobytes() == p.tobytes()

    def test_closed_form_at_p_zero(self):
        # kl(0, q) = ln(1/(1-q)), so the inverse at budget ln 2 is 1/2
        assert inverse_upper(0.0, math.log(2.0)) == pytest.approx(0.5, abs=1e-10)

    def test_round_trip(self):
        budget = mp_binary_kl(0.1, 0.3)
        q = inverse_upper(0.1, budget)
        assert q == pytest.approx(0.3, abs=1e-10)
        assert binary_kl(0.1, q) == pytest.approx(budget, abs=1e-10)

    def test_saturation(self):
        q = binary_kl_inverse_upper_rows([0.0, 0.5, 0.999], [1e6, 1e6, math.inf])
        assert (q == SATURATION).all()

    @pytest.mark.parametrize("p,budget", [(1.0, 0.5), (1.5, 0.5), (0.5, -1e-9)])
    def test_domain_errors(self, p, budget):
        with pytest.raises(ValueError):
            binary_kl_inverse_upper_rows([p], [budget])

    @given(st.lists(st.tuples(st.floats(0.0, 0.99), st.floats(0.01, 0.96)), min_size=1, max_size=20))
    def test_round_trip_property(self, pairs):
        p, spread = (np.array(a) for a in zip(*pairs))
        budget = binary_kl_rows(p, p + (1.0 - p) * spread)
        q = binary_kl_inverse_upper_rows(p, budget)
        assert (np.abs(binary_kl_rows(p, q) - budget) <= 1e-10).all()
        assert (q >= p).all()


class TestInlinedBisection:
    """One-element rows calls carry the bits of the bisection over binary_kl calls, as longer ones do."""

    def test_round_trip_inputs(self):
        # the first 3,000 inputs of the divergence-inverse acceptance criterion, in one call
        u = np.random.Generator(np.random.PCG64(1010)).random(6000)
        p = u[0::2] * 0.999
        assert_rows_match_reference(p, binary_kl_rows(p, p + (1.0 - p) * (0.01 + 0.96 * u[1::2])))

    @pytest.mark.parametrize("p", [0.0, 5e-324, 1e-300, 1e-9, 0.25, 0.5, 1.0 - 1e-9, 1.0 - 2**-53])
    @pytest.mark.parametrize("budget", [5e-324, 1e-300, 1e-17, 1e-9, 0.01, 0.7, 20.0, 40.0, 1e6, math.inf])
    def test_edges(self, p, budget):
        assert repr(inverse_upper(p, budget)) == repr(inverse_upper_reference(p, budget))

    @given(st.floats(0.0, 1.0, exclude_max=True), st.floats(0.0, 50.0))
    def test_property(self, p, budget):
        assert repr(inverse_upper(p, budget)) == repr(inverse_upper_reference(p, budget))


def reference_rows(p, budget):
    return np.array([inverse_upper_reference(a, b) for a, b in zip(np.asarray(p).tolist(), np.asarray(budget).tolist())])


def assert_rows_match_reference(p, budget):
    p, budget = np.asarray(p, dtype=float), np.asarray(budget, dtype=float)
    assert binary_kl_inverse_upper_rows(p, budget).tobytes() == reference_rows(p, budget).tobytes()


class TestInverseUpperRows:
    """binary_kl_inverse_upper_rows carries the bits of the per-element bisection over binary_kl calls."""

    def test_criterion_inputs(self):
        # all 10,000 inputs of the divergence-inverse acceptance criterion, where
        # about a quarter of the comparisons fall inside the math.log band
        u = np.random.Generator(np.random.PCG64(1010)).random(20_000)
        p = u[0::2] * 0.999
        assert_rows_match_reference(p, binary_kl_rows(p, p + (1.0 - p) * (0.01 + 0.96 * u[1::2])))

    def test_edge_grid(self):
        # p = 0, subnormal p, p near 1; budget 0, subnormal to 1e2, and past saturation
        ps = [0.0, 5e-324, 1e-310, 2.2250738585072014e-308, 1e-300, 1e-100, 1e-17, 1e-9, 0.01, 0.25, 0.5,
              0.999, 1.0 - 1e-9, 1.0 - 1e-12, 1.0 - 1e-15, SATURATION, 1.0 - 2**-53]
        budgets = [0.0, 5e-324, 1e-310, 1e-300, 1e-200, 1e-100, 1e-30, 1e-17, 1e-15, 1e-12, 1e-9, 1e-6,
                   1e-3, 0.01, 0.7, 1.0, 20.0, 34.0, 40.0, 100.0, 1e6, math.inf]
        p, budget = (a.ravel() for a in np.meshgrid(ps, budgets))
        assert_rows_match_reference(p, budget)

    @pytest.mark.parametrize("seed", range(3))
    def test_random_edge_families(self, seed):
        rng = np.random.Generator(np.random.PCG64(seed))
        size = 2000
        p = np.concatenate([
            rng.random(size),
            10.0 ** rng.uniform(-323.0, 0.0, size),  # down to subnormal
            np.minimum(1.0 - 10.0 ** rng.uniform(-16.0, -1.0, size), 1.0 - 2**-53),  # near 1
            np.zeros(size),
        ])
        budget = 10.0 ** rng.uniform(-300.0, 2.0, p.size)
        assert_rows_match_reference(p, budget)

    def test_round_trip_budgets(self):
        # budgets that some q in the bracket attains exactly
        rng = np.random.Generator(np.random.PCG64(11))
        p = rng.random(3000) * np.where(rng.random(3000) < 0.2, 0.0, 1.0)
        q = p + (1.0 - p) * rng.uniform(1e-9, 1.0 - 1e-9, 3000)
        q = np.minimum(q, SATURATION)
        keep = (q > 0.0) & (q < 1.0)
        assert_rows_match_reference(p[keep], binary_kl_rows(p[keep], q[keep]))

    @given(st.lists(st.tuples(st.floats(0.0, 1.0, exclude_max=True), st.floats(0.0, 1e2)), min_size=1, max_size=20))
    def test_property(self, pairs):
        p, budget = zip(*pairs)
        assert_rows_match_reference(p, budget)

    def test_empty(self):
        assert binary_kl_inverse_upper_rows([], []).shape == (0,)

    @pytest.mark.parametrize(
        "p,budget,message",
        [
            ([0.1, 1.0, 1.5], [0.1, 0.1, 0.1], r"p\[1\] must lie in \[0, 1\), got 1.0"),
            ([0.1, 0.2, -0.5], [0.1, 0.1, 0.1], r"p\[2\] must lie in \[0, 1\), got -0.5"),
            ([0.1, 0.2, math.nan], [0.1, 0.1, 0.1], r"p\[2\] must lie in \[0, 1\), got nan"),
            ([0.1, 0.2, 0.3], [0.1, -1e-9, math.nan], r"budget\[1\] must be non-negative, got -1e-09"),
            ([0.1, 0.2, 0.3], [0.1, 0.2, math.nan], r"budget\[2\] must be non-negative, got nan"),
        ],
    )
    def test_errors_name_the_first_bad_element(self, p, budget, message):
        with pytest.raises(ValueError, match=message):
            binary_kl_inverse_upper_rows(p, budget)

    @pytest.mark.parametrize("p,budget", [([0.1, 0.2], [0.1]), ([[0.1]], [[0.1]]), (0.1, 0.1)])
    def test_shape_errors(self, p, budget):
        with pytest.raises(ValueError, match="1-d arrays of equal length"):
            binary_kl_inverse_upper_rows(p, budget)


class TestNanBudget:
    def test_rejected_by_both_inverses(self):
        with pytest.raises(ValueError, match="budget"):
            binary_kl_inverse_upper_rows([0.2], [math.nan])
        with pytest.raises(ValueError, match="budget"):
            binary_kl_inverse_relaxed(0.2, math.nan)


class TestBinaryKlInverseRelaxed:
    def test_zero_budget(self):
        assert binary_kl_inverse_relaxed(0.3, 0.0) == 0.3

    def test_p_zero(self):
        assert binary_kl_inverse_relaxed(0.0, math.log(2.0)) == pytest.approx(
            2.0 * math.log(2.0), abs=1e-15
        )

    def test_formula_value(self):
        budget = binary_kl(0.1, 0.3)
        expected = 0.1 + math.sqrt(2 * 0.1 * budget) + 2 * budget
        assert binary_kl_inverse_relaxed(0.1, budget) == pytest.approx(expected, abs=1e-15)

    # spreads below ~1e-4 push the budget under the divergence's own float
    # evaluation noise (~1e-16), where both inverses collapse to p and their
    # ordering is below resolution; above it the dominance is strict
    @given(st.floats(0.0, 0.99), st.floats(1e-4, 0.95))
    def test_dominates_exact_inverse(self, p, spread):
        budget = binary_kl(p, p + (1.0 - p) * spread)
        assert binary_kl_inverse_relaxed(p, budget) >= inverse_upper(p, budget) - 1e-12

    def test_dominates_at_zero_budget(self):
        assert binary_kl_inverse_relaxed(0.3, 0.0) >= inverse_upper(0.3, 0.0)

    def test_domain_errors(self):
        with pytest.raises(ValueError):
            binary_kl_inverse_relaxed(1.2, 0.1)
        with pytest.raises(ValueError):
            binary_kl_inverse_relaxed(0.5, -0.1)


def log_sum_exp(log_weights, values) -> float:
    """ln sum_i exp(log_weights[i] + values[i]): the ln Z of the posterior normalizer on one row."""
    return float(_normalized_rows((np.asarray(log_weights, dtype=float) + np.asarray(values, dtype=float))[None])[1][0])


class TestLogSumExp:
    def test_single_atom(self):
        assert log_sum_exp([0.0], [3.7]) == pytest.approx(3.7, abs=1e-15)

    def test_two_atom_value(self):
        expected = float(mp.log(mp.mpf("0.5") + mp.mpf("0.5") * mp.exp(-1)))
        got = log_sum_exp([math.log(0.5), math.log(0.5)], [0.0, -1.0])
        assert got == pytest.approx(expected, abs=1e-14)

    def test_constant_values(self):
        weights = np.log(np.array([0.2, 0.3, 0.5]))
        assert log_sum_exp(weights, np.full(3, 4.2)) == pytest.approx(4.2, abs=1e-12)

    def test_zero_weights_drop_out(self):
        with np.errstate(divide="ignore"):
            weights = np.log(np.array([1.0, 0.0]))
        assert log_sum_exp(weights, np.array([2.0, 1e6])) == pytest.approx(2.0, abs=1e-12)

    def test_all_zero_weights(self):
        assert log_sum_exp([-math.inf, -math.inf], [0.0, 0.0]) == -math.inf

    def test_extreme_values_do_not_overflow(self):
        got = log_sum_exp([math.log(0.5), math.log(0.5)], [-1e9, -1e9 + 1.0])
        expected = -1e9 + log_sum_exp([math.log(0.5), math.log(0.5)], [0.0, 1.0])
        assert got == pytest.approx(expected, rel=1e-15)

    @given(
        st.lists(st.floats(-30.0, 0.0), min_size=1, max_size=8),
        st.floats(-100.0, 100.0),
    )
    def test_shift_invariance(self, log_weights, shift):
        values = np.zeros(len(log_weights))
        base = log_sum_exp(log_weights, values)
        shifted = log_sum_exp(log_weights, values + shift)
        assert shifted - shift == pytest.approx(base, abs=1e-12)


def test_log_sum_exp_rows_match_the_scalar_shifted_sum():
    rng = np.random.Generator(np.random.PCG64(5))
    # enough rows that a vectorized log, which differs from math.log in the
    # last bit on a fraction of a percent of inputs on some CPUs, shows
    total = rng.normal(size=(5000, 33))
    total[3, :] = -math.inf
    total[4, 7] = -math.inf
    got = _normalized_rows(total)[1]
    for row, value in zip(total, got):
        peak = float(np.max(row))
        if math.isfinite(peak):
            assert value == peak + math.log(float(np.sum(np.exp(row - peak))))
        else:
            assert value == peak
