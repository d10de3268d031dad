import math

import numpy as np
import pytest
from mpmath import mp

from gibbslab.bounds import (
    binary_kl_bound,
    high_temperature_bound,
    minimizer_mass_bound,
    shift_radius,
    stratified_subgaussian_bound,
)
from gibbslab.harness import BoundReport, ColumnRows, csv_report

mp.dps = 50


def mp_float(expr) -> float:
    return float(expr)


class TestBinaryKlBound:
    def test_reference_value(self):
        expected = mp_float((mp.log(2) + mp.log(400)) / 100)
        assert binary_kl_bound(math.log(2.0), 100, 0.05) == pytest.approx(expected, abs=1e-12)

    def test_large_n(self):
        expected = mp_float(mp.log(2000) / 10**6)
        assert binary_kl_bound(0.0, 10**6, 1.0) == pytest.approx(expected, abs=1e-15)

    def test_monotone_decreasing_in_n(self):
        values = [binary_kl_bound(0.3, n, 0.05) for n in (8, 16, 64, 256, 4096)]
        assert all(a > b for a, b in zip(values, values[1:]))

    def test_monotone_in_complexity_and_delta(self):
        assert binary_kl_bound(1.0, 50, 0.05) < binary_kl_bound(2.0, 50, 0.05)
        assert binary_kl_bound(1.0, 50, 0.1) < binary_kl_bound(1.0, 50, 0.05)

    def test_small_n_rejected(self):
        with pytest.raises(ValueError):
            binary_kl_bound(0.0, 7, 0.05)


class TestHighTemperatureBound:
    def test_reference_value(self):
        expected = mp_float((50 + mp.log(400)) / 100)
        assert high_temperature_bound(50.0, 100, 0.05) == pytest.approx(expected, abs=1e-12)

    def test_beta_zero_matches_kl_bound_at_zero(self):
        assert high_temperature_bound(0.0, 64, 0.1) == binary_kl_bound(0.0, 64, 0.1)

    def test_dominates_kl_bound_below_beta(self):
        rng = np.random.Generator(np.random.PCG64(5))
        for _ in range(200):
            beta = float(rng.uniform(0.0, 100.0))
            lam = float(rng.uniform(0.0, beta))
            n = int(rng.integers(8, 500))
            delta = float(rng.uniform(0.01, 0.9))
            assert high_temperature_bound(beta, n, delta) >= binary_kl_bound(lam, n, delta)

    def test_guards(self):
        with pytest.raises(ValueError):
            high_temperature_bound(-1.0, 100, 0.05)
        with pytest.raises(ValueError):
            high_temperature_bound(1.0, 4, 0.05)


class TestMinimizerMassBound:
    def test_full_mass(self):
        assert minimizer_mass_bound(1.0) == 0.0

    def test_k_of_100(self):
        assert minimizer_mass_bound(0.04) == pytest.approx(math.log(25.0), abs=1e-12)

    def test_log_identity(self):
        assert minimizer_mass_bound(math.exp(-100.0)) == pytest.approx(100.0, abs=1e-9)

    def test_zero_mass_rejected(self):
        with pytest.raises(ValueError):
            minimizer_mass_bound(0.0)


class TestStratifiedSubgaussian:
    def test_reference_value(self):
        expected = mp_float(2 * mp.sqrt((3 + mp.log(120) / 2) / 100))
        assert stratified_subgaussian_bound(3.0, 1.0, 100, 0.05) == pytest.approx(
            expected, abs=1e-12
        )

    def test_clamp_below_one(self):
        # complexities at or below 1 (including negative) share the clamped value
        reference = stratified_subgaussian_bound(1.0, 1.0, 100, 0.05)
        assert stratified_subgaussian_bound(0.5, 1.0, 100, 0.05) == reference
        assert stratified_subgaussian_bound(-2.0, 1.0, 100, 0.05) == reference

    def test_homogeneous_in_sigma(self):
        base = stratified_subgaussian_bound(3.0, 1.0, 100, 0.05)
        assert stratified_subgaussian_bound(3.0, 2.5, 100, 0.05) == pytest.approx(
            2.5 * base, abs=1e-12
        )

    def test_guards(self):
        with pytest.raises(ValueError):
            stratified_subgaussian_bound(1.0, 0.0, 100, 0.05)
        with pytest.raises(ValueError):
            stratified_subgaussian_bound(1.0, 1.0, 0, 0.05)


class TestShiftRadius:
    def test_reference_value(self):
        expected = mp_float(mp.sqrt(mp.log((1 + mp.mpf(100) ** 3) / mp.mpf("0.05")) / 200))
        assert shift_radius(100, 0.05, 1) == pytest.approx(expected, abs=1e-12)

    def test_n_one(self):
        expected = mp_float(mp.sqrt(mp.log(4) / 2))
        assert shift_radius(1, 0.5, 1) == pytest.approx(expected, abs=1e-15)

    def test_increasing_in_p(self):
        values = [shift_radius(100, 0.05, p) for p in (1, 2, 3, 5)]
        assert all(a < b for a, b in zip(values, values[1:]))

    def test_overflow_safe(self):
        # n**(2p+1) = 1e405 exceeds the float range; the log form must not
        n, p, delta = 10**9, 22, 0.1
        expected = mp_float(mp.sqrt(mp.log((1 + mp.mpf(n) ** (2 * p + 1)) / mp.mpf("0.1")) / (2 * n)))
        assert math.isfinite(shift_radius(n, delta, p))
        assert shift_radius(n, delta, p) == pytest.approx(expected, rel=1e-12)

    def test_guards(self):
        with pytest.raises(ValueError):
            shift_radius(0, 0.05, 1)
        with pytest.raises(ValueError):
            shift_radius(100, 1.0, 1)
        with pytest.raises(ValueError):
            shift_radius(100, 0.05, 0)


def one_report(*values) -> ColumnRows:
    """A one-row block of BoundReport columns."""
    names = ("trial_seed", "beta", "n", "delta", "complexity", "rhs", "realized", "violated")
    return ColumnRows(BoundReport, [{name: [value] for name, value in zip(names, values)}])


class TestBoundReport:
    def test_csv_row_shape(self):
        rows = one_report(5, 10.0, 50, 0.05, 0.5, 1.5, 0.25, False)
        header, row = csv_report(rows).splitlines()
        assert header == "trial_seed,beta,n,delta,lambda,rhs,realized,violated"
        assert row == "5,10.0,50,0.05,0.5,1.5,0.25,false"
        assert rows[0] == BoundReport(5, 10.0, 50, 0.05, 0.5, 1.5, 0.25, False)

    def test_violated_row(self):
        rows = one_report(7, 2.0, 64, 0.1, 0.0, 0.2, 0.3, True)
        assert csv_report(rows).splitlines()[1].endswith(",true")
