import math
import os
import subprocess
import sys
import textwrap
from pathlib import Path

import numpy as np
import pytest
from reference import loss_profile

import gibbslab
from gibbslab.model import (
    DataSet,
    FiniteDataDomain,
    FiniteHypothesisSpace,
    build_space,
    empirical_losses,
    inverse_cdf,
    k_minimizer_space,
    loss_matrix,
    permuted_label_task,
    random_loss_table,
    sample_dataset,
    step_cdf,
)
from gibbslab.streams import uniform_rows


def test_domain_rejects_bad_probabilities():
    with pytest.raises(ValueError):
        FiniteDataDomain((0, 1), [0.5, 0.6])
    with pytest.raises(ValueError):
        FiniteDataDomain((0, 1), [1.1, -0.1])
    with pytest.raises(ValueError):
        FiniteDataDomain((0,), [0.5, 0.5])


def test_space_rejects_misaligned_prior():
    with pytest.raises(ValueError, match="3 rows but the prior has 2 entries"):
        FiniteHypothesisSpace(np.zeros((3, 1)), [0.5, 0.5])


@pytest.mark.parametrize(
    "table, message",
    [
        ([0.0, 1.0], "must be a nonempty 2-d array"),
        ([[[0.0]], [[1.0]]], "must be a nonempty 2-d array"),
        ([[], []], "must be a nonempty 2-d array"),
        ([[0.0], [-0.5]], "finite and non-negative"),
        ([[0.0], [math.nan]], "finite and non-negative"),
        ([[0.0], [math.inf]], "finite and non-negative"),
        ([[0.0], ["x"]], "array of numbers"),
    ],
)
def test_space_rejects_bad_tables(table, message):
    with pytest.raises(ValueError, match=message):
        FiniteHypothesisSpace(table, [0.5, 0.5])


def test_space_table_is_a_read_only_copy():
    table = np.array([[0.0, 1.0], [0.5, 0.25]])
    space = FiniteHypothesisSpace(table, [0.5, 0.5])
    table[0, 0] = 9.0
    assert space.table[0, 0] == 0.0
    with pytest.raises(ValueError):
        space.table[0, 0] = 1.0


class TestDomainAlignment:
    """The table is read for a domain only where its column count is checked."""

    @pytest.mark.parametrize("points", [3, 5])
    def test_domain_of_the_wrong_size_rejected(self, points):
        _, space = random_loss_table(3, 4, 0)
        domain = FiniteDataDomain(tuple(range(points)), np.full(points, 1.0 / points))
        message = f"the loss table has 4 columns but the domain has {points} points"
        with pytest.raises(ValueError, match=message):
            loss_matrix(space, domain)

    def test_aligned_domain_reads_the_table(self):
        domain, space = random_loss_table(3, 4, 0)
        assert loss_matrix(space, domain) is space.table


class TestSampleDataset:
    def test_degenerate_domain(self):
        domain = FiniteDataDomain(("only",), [1.0])
        data = sample_dataset(domain, 17, seed=5)
        assert data.item_indices.tolist() == [0] * 17

    def test_two_point_frequency(self):
        domain = FiniteDataDomain((0, 1), [0.5, 0.5])
        data = sample_dataset(domain, 100_000, seed=1)
        freq = float(np.mean(data.item_indices == 0))
        assert abs(freq - 0.5) < 0.01

    def test_deterministic(self):
        domain = FiniteDataDomain((0, 1, 2), [0.2, 0.3, 0.5])
        a = sample_dataset(domain, 1000, seed=42)
        b = sample_dataset(domain, 1000, seed=42)
        assert np.array_equal(a.item_indices, b.item_indices)

    def test_seeds_differ(self):
        domain = FiniteDataDomain((0, 1, 2), [0.2, 0.3, 0.5])
        a = sample_dataset(domain, 1000, seed=1)
        b = sample_dataset(domain, 1000, seed=2)
        assert not np.array_equal(a.item_indices, b.item_indices)

    def test_zero_probability_point_never_drawn(self):
        domain = FiniteDataDomain((0, 1, 2), [0.5, 0.0, 0.5])
        data = sample_dataset(domain, 50_000, seed=9)
        assert not np.any(data.item_indices == 1)

    def test_empty_sample_rejected(self):
        domain = FiniteDataDomain((0,), [1.0])
        with pytest.raises(ValueError):
            sample_dataset(domain, 0, seed=0)


class TestLossEvaluation:
    def test_empirical_loss_mean(self):
        domain = FiniteDataDomain((0, 1, 2, 3), [0.25] * 4)
        space = FiniteHypothesisSpace([[0.0, 1.0, 1.0, 0.0]], [1.0])
        data = DataSet(domain, np.array([0, 1, 2, 3]))
        assert loss_profile(space, domain, data).empirical[0] == 0.5

    def test_constant_loss(self):
        domain = FiniteDataDomain((0, 1), [0.5, 0.5])
        space = FiniteHypothesisSpace([[0.7, 0.7]], [1.0])
        data = sample_dataset(domain, 13, seed=3)
        assert loss_profile(space, domain, data).empirical[0] == pytest.approx(0.7, abs=1e-15)

    def test_true_loss_point_mass(self):
        domain = FiniteDataDomain((0, 1), [0.0, 1.0])
        space = FiniteHypothesisSpace([[0.3, 0.9]], [1.0])
        data = DataSet(domain, np.array([1]))
        assert loss_profile(space, domain, data).true[0] == pytest.approx(0.9, abs=1e-15)

    def test_true_loss_weighted(self):
        domain = FiniteDataDomain((0, 1), [0.25, 0.75])
        space = FiniteHypothesisSpace([[0.0, 1.0]], [1.0])
        data = DataSet(domain, np.array([0]))
        assert loss_profile(space, domain, data).true[0] == pytest.approx(0.75, abs=1e-15)

    def test_law_of_large_numbers(self):
        # 0/1 losses: empirical mean concentrates at the true loss
        domain, space = random_loss_table(4, 8, seed=11)
        zero_one = (loss_matrix(space, domain) > 0.5).astype(float)
        space01 = FiniteHypothesisSpace(zero_one, space.prior)
        n = 1_000_000
        profile = loss_profile(space01, domain, sample_dataset(domain, n, seed=12))
        p = profile.true[0]
        sigma = math.sqrt(p * (1 - p) / n)
        assert abs(profile.empirical[0] - p) <= 3 * sigma


class TestCdfs:
    """The step CDF of the prior over empirical losses."""

    def setup_method(self):
        self.cdf = step_cdf([0.0, 1.0], [0.5, 0.5])

    def test_half_mass_at_zero(self):
        assert self.cdf.at(0.0) == 0.5

    def test_full_mass(self):
        assert self.cdf.at(1.0) == 1.0
        assert self.cdf.at(7.0) == 1.0

    def test_below_support(self):
        assert self.cdf.at(-1.0) == 0.0

    def test_misaligned_profile_rejected(self):
        with pytest.raises(ValueError, match=r"values and weights must be aligned, got shapes \(1,\) and \(2,\)"):
            step_cdf([0.0], [0.5, 0.5])

    def test_step_structure_matches_enumeration(self):
        # non-decreasing, right-continuous, jump heights = summed prior mass
        rng = np.random.Generator(np.random.PCG64(77))
        for _ in range(10):
            h_count = int(rng.integers(2, 65))
            domain, space = random_loss_table(h_count, 4, int(rng.integers(0, 2**32)), random_prior=True)
            data = sample_dataset(domain, 20, int(rng.integers(0, 2**32)))
            profile = loss_profile(space, domain, data)
            steps = step_cdf(profile.empirical, space.prior)
            previous = 0.0
            for level, cum in zip(steps.levels, steps.cumulative):
                jump = float(space.prior[profile.empirical == level].sum())
                assert cum == pytest.approx(previous + jump, abs=1e-12)
                # right-continuity: value at the level equals the limit from the right
                assert steps.at(level) == pytest.approx(float(space.prior[profile.empirical <= level].sum()), abs=1e-12)
                assert steps.at(level + 1e-9) == pytest.approx(cum, abs=1e-12)
                previous = cum
            assert previous == pytest.approx(1.0, abs=1e-9)

    def test_cdf_at_own_loss_dominates_minimizer_mass(self):
        domain, space = random_loss_table(32, 8, seed=5)
        data = sample_dataset(domain, 25, seed=6)
        profile = loss_profile(space, domain, data)
        steps = step_cdf(profile.empirical, space.prior)
        mass_min = float(space.prior[profile.empirical == profile.empirical.min()].sum())
        for h in range(len(space)):
            assert steps.at(profile.empirical[h]) >= mass_min - 1e-12


class TestGenerators:
    def test_random_loss_table_shapes(self):
        domain, space = random_loss_table(6, 3, seed=0)
        matrix = loss_matrix(space, domain)
        assert matrix.shape == (6, 3)
        assert matrix.min() >= 0.0 and matrix.max() < 1.0

    def test_k_minimizer_exact_mass_and_gap(self):
        domain, space = k_minimizer_space(100, 4, seed=2)
        data = sample_dataset(domain, 37, seed=3)
        profile = loss_profile(space, domain, data)
        assert profile.empirical.min() == 0.0
        assert space.prior[profile.empirical == 0.0].sum() == pytest.approx(0.04, abs=1e-12)
        levels = step_cdf(profile.empirical, space.prior).levels
        assert np.diff(levels).min() >= 0.1 - 1e-9

    def test_permuted_labels_pure_noise(self):
        domain, space = permuted_label_task(4, seed=8, label_noise=0.5)
        true = space.table @ domain.probs
        assert np.allclose(true, 0.5, atol=1e-12)
        # the true-loss CDF vanishes below its minimum
        assert space.prior[true <= 0.49].sum() == 0.0
        assert space.prior[true <= 0.5].sum() == 1.0

    def test_permuted_labels_planted_pattern(self):
        domain, space = permuted_label_task(5, seed=8, label_noise=0.0)
        true = space.table @ domain.probs
        assert true.min() == 0.0
        assert np.sum(true == 0.0) == 1  # only the planted pattern is perfect

    def test_registry_round_trip(self):
        domain, space = build_space(
            {"name": "random_loss_table", "params": {"num_hypotheses": 3, "num_points": 2, "seed": 1}}
        )
        assert len(space) == 3 and len(domain) == 2
        with pytest.raises(ValueError):
            build_space({"name": "nope"})


def per_pair_table(loss, hypotheses, points) -> np.ndarray:
    """The loss table filled one (hypothesis, point) pair at a time."""
    out = np.empty((len(hypotheses), len(points)))
    for i, h in enumerate(hypotheses):
        for j, x in enumerate(points):
            out[i, j] = loss(h, x)
    return out


class TestGeneratorTables:
    """Each generator's vectorized table carries the bits of its per-pair loss."""

    @pytest.mark.parametrize("seed, random_prior", [(0, False), (9, True)])
    def test_random_loss_table(self, seed, random_prior):
        domain, space = random_loss_table(7, 5, seed, random_prior=random_prior)
        draws = np.random.Generator(np.random.PCG64(seed)).random((7, 5))
        reference = per_pair_table(lambda h, x: float(draws[h, x]), range(7), domain.points)
        assert space.table.tobytes() == reference.tobytes()

    @pytest.mark.parametrize("hypotheses, minimizers, points", [(1, 1, 1), (10, 3, 2), (40, 7, 5)])
    def test_k_minimizer_space(self, hypotheses, minimizers, points):
        domain, space = k_minimizer_space(hypotheses, minimizers, seed=4, num_points=points)
        rng = np.random.Generator(np.random.PCG64(4))
        levels = 0.1 * rng.integers(1, 11, size=hypotheses).astype(float)
        which = set(rng.permutation(hypotheses)[:minimizers].tolist())
        reference = per_pair_table(lambda h, x: 0.0 if h in which else levels[h], range(hypotheses), domain.points)
        assert space.table.tobytes() == reference.tobytes()

    @pytest.mark.parametrize("inputs", [1, 3, 8])
    def test_permuted_label_task(self, inputs):
        domain, space = permuted_label_task(inputs, seed=2)

        def loss(h, x):
            j, y = x
            predicted = 1 if (h >> j) & 1 else -1
            return 0.0 if predicted == y else 1.0

        reference = per_pair_table(loss, range(2**inputs), domain.points)
        assert space.table.shape == (2**inputs, 2 * inputs)
        assert space.table.tobytes() == reference.tobytes()


class TestBlockDraws:
    """Block draws carry the bits of the per-dataset formulas."""

    def test_block_item_rows_are_per_seed_streams(self):
        domain = FiniteDataDomain(tuple(range(5)), [0.0, 0.4, 0.0, 0.35, 0.25])
        seeds = [7, 8, 2**63 + 5]
        items = inverse_cdf(domain.probs, uniform_rows(seeds, 40))
        support = np.array([1, 3, 4])
        cum = np.cumsum(domain.probs[support])
        cum[-1] = 1.0
        for row, seed in zip(items, seeds):
            u = np.random.Generator(np.random.PCG64(seed)).random(40)
            assert np.array_equal(row, support[np.searchsorted(cum, u, side="right")])
            assert np.array_equal(row, sample_dataset(domain, 40, seed).item_indices)

    # the stacked matmul is the per-row matrix-vector product on any platform
    @pytest.mark.parametrize(
        "hypotheses, points, n",
        [(11, 6, 23), (1, 6, 23), (11, 1, 23), (11, 6, 1), (64, 16, 50), (100, 30, 50), (600, 8, 50)],
    )
    def test_empirical_losses_rows_are_per_dataset_products(self, hypotheses, points, n):
        domain, space = random_loss_table(hypotheses, points, seed=4)
        matrix = loss_matrix(space, domain)
        items = inverse_cdf(domain.probs, uniform_rows(list(range(30)), n))
        block = empirical_losses(matrix, items)
        assert block.shape == (30, hypotheses)
        for row, got in zip(items, block):
            assert got.tobytes() == (matrix @ np.bincount(row, minlength=len(domain)) / n).tobytes()

    def test_empirical_losses_rows_keep_their_bits_under_an_alignment_sensitive_kernel(self):
        # OpenBLAS's Prescott dot kernel sums in an order set by its operand's
        # 16-byte alignment; with an odd number of points, rows of a packed
        # counts block would alternate between aligned and misaligned
        script = textwrap.dedent(
            """
            from gibbslab.model import empirical_losses, inverse_cdf, loss_matrix, random_loss_table
            from gibbslab.streams import uniform_rows

            domain, space = random_loss_table(1, 5, seed=4)
            matrix = loss_matrix(space, domain)
            items = inverse_cdf(domain.probs, uniform_rows(list(range(20)), 23))
            block = empirical_losses(matrix, items)
            differing = [i for i in range(20) if block[i].tobytes() != empirical_losses(matrix, items[i : i + 1]).tobytes()]
            print(differing)
            """
        )
        package_parent = str(Path(gibbslab.__file__).resolve().parent.parent)
        env = dict(os.environ, OPENBLAS_CORETYPE="Prescott")
        env["PYTHONPATH"] = os.pathsep.join(filter(None, [package_parent, env.get("PYTHONPATH")]))
        result = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True, env=env)
        assert result.returncode == 0, result.stderr
        assert result.stdout.strip() == "[]", "rows whose bits differ from the row alone"

    @pytest.mark.parametrize("hypotheses, points", [(11, 6), (1, 6), (11, 1), (64, 16)])
    def test_empirical_losses_of_datasets_of_several_sizes(self, hypotheses, points):
        # row i keeps its first sizes[i] items: the loss_profile of the dataset of that size and seed
        domain, space = random_loss_table(hypotheses, points, seed=5)
        seeds = list(range(40))
        sizes = np.random.Generator(np.random.PCG64(6)).integers(1, 33, size=len(seeds))
        sizes[:2] = (1, 32)
        block = empirical_losses(loss_matrix(space, domain), inverse_cdf(domain.probs, uniform_rows(seeds, 32)), sizes)
        assert block.shape == (len(seeds), hypotheses)
        for got, size, seed in zip(block, sizes, seeds):
            expected = loss_profile(space, domain, sample_dataset(domain, int(size), seed)).empirical
            assert got.tobytes() == expected.tobytes()

    def test_inverse_cdf_row_and_shared_weights_agree(self):
        # underflowed trailing weights: the last positive atom closes the sum
        weights = np.array([[0.0, 0.3, 0.0, 0.7 - 1e-17, 0.0], [0.5, 0.0, 0.5, 0.0, 0.0]])
        u = np.array([[0.0, 0.3, 0.9999999999999999], [0.25, 0.5, 0.75]])
        expected = np.array([[1, 3, 3], [0, 2, 2]])
        assert np.array_equal(inverse_cdf(weights, u), expected)
        for row, row_u, row_expected in zip(weights, u, expected):
            assert np.array_equal(inverse_cdf(row, row_u), row_expected)

    # 20 atoms of prior 1e-300 crowd the first bucket: a uniform of 1e-200 lies 20 steps past its bucket's count
    LOOKUP_WEIGHTS = {
        "zero_weight_atoms": [0.0, 0.3, 0.0, 0.2, 0.5, 0.0],
        "one_atom": [1.0],
        "one_atom_among_zeros": [0.0, 0.0, 1.0, 0.0],
        "uniform": [1 / 16] * 16,
        "random": list(np.random.Generator(np.random.PCG64(11)).dirichlet(np.ones(37))),
        "crowded": [1e-300] * 20 + [1.0 - 2e-299],
    }

    @pytest.mark.parametrize("name", LOOKUP_WEIGHTS)
    def test_guided_lookup_is_the_binary_search(self, name):
        # shared weights take the guide table from as many uniforms as it has buckets
        weights = np.array(self.LOOKUP_WEIGHTS[name])
        support = np.flatnonzero(weights > 0.0)
        cum = np.cumsum(weights[support])
        cum[-1] = 1.0
        buckets = 1 << (4 * len(cum) - 1).bit_length()
        inner = cum[:-1]
        special = np.concatenate([[0.0, 1.0 - 2**-53, 1e-200], inner, np.nextafter(inner, 0.0), np.nextafter(inner, 1.0)])
        assert len(special) < buckets
        rng = np.random.Generator(np.random.PCG64(12))
        for size in (buckets - 1, buckets, 4 * buckets):
            u = np.concatenate([special, rng.random(size)])[:size]
            expected = support[np.searchsorted(cum, u, side="right")]
            assert np.array_equal(inverse_cdf(weights, u), expected)
            assert np.array_equal(inverse_cdf(weights, np.stack([u, u[::-1]])), np.stack([expected, expected[::-1]]))
        if name == "crowded":
            # more steps past a bucket's count than the guided lookup takes before the binary search
            bucket_count = np.searchsorted(cum, np.floor(u * buckets) / buckets, side="right")
            assert (np.searchsorted(cum, u, side="right") - bucket_count).max() > 2

    def test_inverse_cdf_rejects_weightless_rows(self):
        with pytest.raises(ValueError, match="positive weight"):
            inverse_cdf(np.array([[0.5, 0.5], [0.0, 0.0]]), np.zeros((2, 1)))


class TestBuildSpaceErrors:
    def test_misspelt_parameter_named(self):
        spec = {"name": "random_loss_table", "params": {"num_hypotheses": 3, "num_point": 2, "seed": 1}}
        with pytest.raises(ValueError, match=r"'random_loss_table': unknown parameters \['num_point'\], missing parameters \['num_points'\]"):
            build_space(spec)
        # the generator draws no random point weights
        spec = {"name": "random_loss_table", "params": {"num_hypotheses": 3, "num_points": 2, "seed": 1, "random_probs": True}}
        with pytest.raises(ValueError, match=r"'random_loss_table': unknown parameters \['random_probs'\], missing parameters \[\]"):
            build_space(spec)

    def test_missing_parameter_named(self):
        spec = {"name": "k_minimizer_space", "params": {"num_hypotheses": 10, "seed": 1}}
        with pytest.raises(ValueError, match=r"'k_minimizer_space': unknown parameters \[\], missing parameters \['num_minimizers'\]"):
            build_space(spec)

    def test_spec_that_is_not_an_object_rejected(self):
        with pytest.raises(ValueError, match="space generator spec must be an object"):
            build_space(["random_loss_table", {"num_hypotheses": 3}])

    @pytest.mark.parametrize(
        "name, params, field",
        [
            ("random_loss_table", {"num_hypotheses": 8, "num_points": 2.0, "seed": 1}, "num_points"),
            ("random_loss_table", {"num_hypotheses": 8, "num_points": 2, "seed": "1"}, "seed"),
            ("k_minimizer_space", {"num_hypotheses": "8", "num_minimizers": 2, "seed": 1}, "num_hypotheses"),
            ("k_minimizer_space", {"num_hypotheses": 8, "num_minimizers": 2.5, "seed": 1}, "num_minimizers"),
            ("k_minimizer_space", {"num_hypotheses": 8, "num_minimizers": 2, "seed": 1, "num_points": 0}, "num_points"),
            ("permuted_label_task", {"num_inputs": 8.5, "seed": 1}, "num_inputs"),
            ("permuted_label_task", {"num_inputs": 3, "seed": -1}, "seed"),
            ("permuted_label_task", {"num_inputs": 3, "seed": 1, "label_noise": "0.5"}, "label_noise"),
            # a bool is no noise level, and the truthy string "false" is no flag
            ("permuted_label_task", {"num_inputs": 3, "seed": 1, "label_noise": True}, "label_noise"),
            ("random_loss_table", {"num_hypotheses": 8, "num_points": 2, "seed": 1, "random_prior": "false"}, "random_prior"),
        ],
    )
    def test_bad_generator_parameter_named(self, name, params, field):
        with pytest.raises(ValueError, match=f"^{field} must be"):
            build_space({"name": name, "params": params})

    def test_numpy_bool_random_prior_accepted(self):
        _, space = random_loss_table(8, 2, 1, random_prior=np.True_)
        assert space.prior.tobytes() == random_loss_table(8, 2, 1, random_prior=True)[1].prior.tobytes()

    def test_params_that_are_not_an_object_rejected(self):
        with pytest.raises(ValueError, match="params of space generator 'random_loss_table'"):
            build_space({"name": "random_loss_table", "params": [3, 2, 1]})
