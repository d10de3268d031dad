import itertools
import math

import numpy as np
import pytest
from reference import loss_profile, score, zero_one_loss

from gibbslab.acceptance import _index_sets, _margin_oracle
from gibbslab.gibbs import complexity
from gibbslab.margins import (
    LabeledData,
    LinearGrid,
    _retained_count,
    build_linear_grid,
    grid_space,
    level_set_equality_check,
    margin_values,
)
from gibbslab.model import DataSet

# hypotheses and points of the scalar references are (direction, bias) and (coordinates, label) tuples
E1 = ((1.0, 0.0), 0.0)


def labeled(points) -> LabeledData:
    """The arrays of a list of (coordinates, label) points."""
    return LabeledData([z for z, _ in points], [y for _, y in points])


def line(h) -> LinearGrid:
    """A grid of the one hypothesis h = (direction, bias)."""
    return LinearGrid([h[0]], [h[1]], [1.0])


def hypotheses(grid) -> list:
    """The grid's hypotheses as (direction, bias) tuples."""
    return list(zip(map(tuple, grid.directions.tolist()), grid.biases.tolist()))


def random_points(rng, n) -> list:
    return [(tuple(rng.normal(size=2)), int(2 * rng.integers(0, 2) - 1)) for _ in range(n)]


def subset_oracle(values, keep_at_least):
    """Exhaustive max-min over every index set of size >= keep_at_least."""
    best = -math.inf
    for size in range(keep_at_least, len(values) + 1):
        for subset in itertools.combinations(range(len(values)), size):
            best = max(best, min(values[i] for i in subset))
    return best


def margin_oracle_reference(values, n, error_fraction):
    """The margin oracle as a generator over index subsets, for the index-set table."""
    keep = max(1, min(n, math.ceil((1.0 - error_fraction) * n - 1e-9)))
    best = -math.inf
    for size in range(keep, n + 1):
        for subset in itertools.combinations(range(n), size):
            best = max(best, min(values[i] for i in subset))
    return best


class TestMarginOracle:
    """The acceptance oracle reads an index-set table and keeps the reference's result, signed zeros included."""

    @pytest.mark.parametrize("seed", range(4))
    def test_random_values(self, seed):
        rng = np.random.Generator(np.random.PCG64(seed))
        for _ in range(150):
            n = int(rng.integers(1, 10))
            # repeated values, signed zeros among them
            values = [float(v) for v in rng.choice([-1.5, -0.0, 0.0, 0.25, 2.0], size=n)]
            if rng.integers(0, 2):
                values = [float(v) for v in rng.normal(size=n)]
            r = float(rng.choice([0.0, 1.0, float(rng.random())]))
            assert repr(_margin_oracle(values, n, r)) == repr(margin_oracle_reference(values, n, r))

    @pytest.mark.parametrize("r", [0.0, 0.5, 1.0])
    def test_single_value(self, r):
        for value in (-0.0, 0.0, 3.5, -2.0):
            assert repr(_margin_oracle([value], 1, r)) == repr(margin_oracle_reference([value], 1, r))

    def test_signed_zero_order(self):
        for values in ([0.0, -0.0, 1.0], [-0.0, 0.0, 1.0], [1.0, -0.0, 0.0], [-0.0, -0.0, 0.0]):
            for r in (0.0, 0.4, 1.0):
                assert repr(_margin_oracle(values, 3, r)) == repr(margin_oracle_reference(values, 3, r))

    @pytest.mark.parametrize("n", range(1, 13))
    def test_every_retained_count(self, n):
        # every slice of the index-set table, from each retained count, on values with repeats and signed zeros
        rng = np.random.Generator(np.random.PCG64(n))
        fractions = [(n - keep) / n for keep in range(1, n + 1)] + [1.0]
        for _ in range(4):
            values = [float(v) for v in rng.choice([-1.5, -0.0, 0.0, 0.25, 2.0], size=n)]
            for r in fractions:
                assert repr(_margin_oracle(values, n, r)) == repr(margin_oracle_reference(values, n, r))
        values = rng.normal(size=n).tolist()
        for r in fractions:
            assert repr(_margin_oracle(values, n, r)) == repr(margin_oracle_reference(values, n, r))

    @pytest.mark.parametrize("n", range(1, 13))
    def test_index_sets_follow_combinations_order(self, n):
        sets = _index_sets(n)
        expected = [subset for size in range(1, n + 1) for subset in itertools.combinations(range(n), size)]
        assert [tuple(np.flatnonzero(row).tolist()) for row in sets] == expected
        assert not sets.flags.writeable


class TestScoreAndLosses:
    def test_axis_score(self):
        assert score(E1, (1.0, 0.0)) == 1.0
        assert score(((1.0, 0.0), 0.5), (1.0, 0.0)) == 0.5

    def test_translation_property(self):
        # shifting the bias by -s shifts every score by +s
        rng = np.random.Generator(np.random.PCG64(2))
        direction, bias = (0.6, 0.8), 0.3
        for _ in range(20):
            z = tuple(rng.normal(size=2))
            s = float(rng.normal())
            assert score((direction, bias - s), z) == pytest.approx(score((direction, bias), z) + s, abs=1e-12)

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError):
            score(E1, (1.0, 0.0, 0.0))

    def test_non_unit_direction_rejected(self):
        with pytest.raises(ValueError, match="directions must be unit vectors"):
            line(((1.0, 1.0), 0.0))

    def test_zero_one_strict_inequality(self):
        assert zero_one_loss(E1, ((1.0, 0.0), 1)) == 0.0
        assert zero_one_loss(E1, ((-0.1, 0.0), 1)) == 1.0
        # a score of exactly zero counts as an error
        assert zero_one_loss(E1, ((0.0, 5.0), 1)) == 1.0


class TestMarginValue:
    def test_hard_margin_two_points(self):
        data = labeled([((1.0, 0.0), 1), ((-1.0, 0.0), -1)])
        assert margin_values(line(E1), data, 0.0).tolist() == [1.0]

    def test_second_largest_at_one_third(self):
        # values 0.3, -0.2, 0.5: keeping 2 of 3 points retains {0.5, 0.3}
        data = labeled([((0.3, 0.0), 1), ((-0.2, 0.0), 1), ((0.5, 0.0), 1)])
        assert margin_values(line(E1), data, 1.0 / 3.0).tolist() == [0.3]
        assert subset_oracle([0.3, -0.2, 0.5], 2) == 0.3

    def test_full_error_budget_keeps_one_point(self):
        data = labeled([((0.3, 0.0), 1), ((-0.2, 0.0), 1), ((0.5, 0.0), 1)])
        assert margin_values(line(E1), data, 1.0).tolist() == [0.5]

    def test_against_subset_oracle(self):
        rng = np.random.Generator(np.random.PCG64(55))
        for _ in range(100):
            n = int(rng.integers(1, 11))
            points = random_points(rng, n)
            angle = rng.uniform(0, 2 * math.pi)
            h = ((math.cos(angle), math.sin(angle)), float(rng.normal()))
            r = float(rng.random())
            values = [score(h, z) * y for z, y in points]
            keep = max(1, min(n, math.ceil((1 - r) * n - 1e-9)))
            assert margin_values(line(h), labeled(points), r).tolist() == [subset_oracle(values, keep)]

    def test_empty_data_rejected(self):
        with pytest.raises(ValueError, match="coords"):
            LabeledData(np.empty((0, 2)), [])

    def test_bad_fraction_rejected(self):
        with pytest.raises(ValueError):
            margin_values(line(E1), labeled([((1.0, 0.0), 1)]), 1.5)

    def test_one_value_per_hypothesis(self):
        grid = build_linear_grid(8, 3, 1.0)
        assert margin_values(grid, labeled([((1.0, 0.0), 1), ((0.0, 1.0), -1)]), 0.5).shape == (24,)


class TestGrids:
    def test_four_axis_aligned(self):
        grid = build_linear_grid(4, 1, 0.0)
        assert len(grid) == 4
        assert np.allclose(grid.prior, 0.25)
        directions = {tuple(round(c, 12) for c in u) for u in grid.directions.tolist()}
        assert directions == {(1.0, 0.0), (0.0, 1.0), (-1.0, 0.0), (0.0, -1.0)}
        assert grid.biases.tolist() == [0.0] * 4

    def test_gaussian_bias_prior(self):
        grid = build_linear_grid(4, 5, 1.0, prior_kind="gaussian-projected")
        assert grid.prior.sum() == pytest.approx(1.0, abs=1e-12)
        center = grid.prior[grid.biases == 0.0]
        edge = grid.prior[np.abs(grid.biases) == 1.0]
        assert center.min() > edge.max()
        # proportional to the standard Gaussian density in the bias
        assert np.allclose(grid.prior / grid.prior.max(), np.exp(-(grid.biases**2) / 2.0), rtol=1e-12, atol=0.0)

    def test_atoms_pair_each_direction_with_every_bias(self):
        grid = build_linear_grid(6, 3, 2.0)
        assert grid.biases.tolist() == [-2.0, 0.0, 2.0] * 6
        assert np.array_equal(grid.directions[::3], grid.directions[1::3])
        assert np.array_equal(grid.directions[::3], grid.directions[2::3])

    def test_data_independence(self):
        a = build_linear_grid(8, 3, 1.0)
        b = build_linear_grid(8, 3, 1.0)
        assert np.array_equal(a.directions, b.directions)
        assert np.array_equal(a.biases, b.biases)
        assert np.array_equal(a.prior, b.prior)

    def test_arrays_are_read_only(self):
        grid = build_linear_grid(8, 3, 1.0)
        data = labeled([((1.0, 0.0), 1)])
        for array in (grid.directions, grid.biases, grid.prior, data.coords, data.labels):
            with pytest.raises(ValueError, match="read-only"):
                array[0] = 0

    @pytest.mark.parametrize(
        "field, value",
        [
            ("bias_range", math.nan),
            ("bias_range", math.inf),
            ("bias_range", -0.5),
            ("bias_range", True),
            ("angular_steps", 3),
            ("angular_steps", 8.0),
            ("angular_steps", True),
            ("bias_steps", 2.5),
            ("bias_steps", 0),
        ],
    )
    def test_bad_arguments_named(self, field, value):
        args = {"angular_steps": 8, "bias_steps": 3, "bias_range": 1.0, field: value}
        with pytest.raises(ValueError, match=field):
            build_linear_grid(**args)

    def test_numpy_integer_steps_accepted(self):
        grid = build_linear_grid(np.int64(8), np.int64(3), 1.0)
        assert len(grid) == 24


class TestArrayChecks:
    """Each input the containers reject raises a ValueError naming its field (bad numbers: tests/test_surface.py)."""

    @pytest.mark.parametrize(
        "field, directions, biases, prior",
        [
            ("directions", [1.0, 0.0], [0.0], [1.0]),
            ("directions", [("a", 0.0)], [0.0], [1.0]),
            ("biases", [(1.0, 0.0), (0.0, 1.0)], [0.0], [0.5, 0.5]),
            ("prior", [(1.0, 0.0), (0.0, 1.0)], [0.0, 0.0], [0.5, 0.6]),
        ],
    )
    def test_bad_grid_named(self, field, directions, biases, prior):
        with pytest.raises(ValueError, match=field):
            LinearGrid(directions, biases, prior)

    @pytest.mark.parametrize(
        "field, coords, labels",
        [
            ("coords", [(1.0, 0.0), (1.0,)], [1, 1]),
            ("coords", [1.0, 0.0], [1]),
            ("labels", [(1.0, 0.0)], [0]),
            ("labels", [(1.0, 0.0)], [2.0]),
            ("labels", [(1.0, 0.0)], ["1"]),
            ("labels", [(1.0, 0.0), (0.0, 1.0)], [1, True]),
            ("labels", [(1.0, 0.0), (0.0, 1.0)], np.array([True, True])),
            ("labels", [(1.0, 0.0), (0.0, 1.0)], [1]),
            ("labels", [(1.0, 0.0)], [[1]]),
        ],
    )
    def test_bad_data_named(self, field, coords, labels):
        with pytest.raises(ValueError, match=field):
            LabeledData(coords, labels)

    def test_labels_of_any_real_type_accepted(self):
        for labels in ([1, -1], [1.0, -1.0], np.array([1, -1], dtype=np.int8)):
            assert LabeledData([(1.0, 0.0), (0.0, 1.0)], labels).labels.tolist() == [1, -1]


def same_bits(a: np.ndarray, b: np.ndarray) -> bool:
    return a.shape == b.shape and a.tobytes() == b.tobytes()


def per_pair_table(loss, hypotheses, points) -> np.ndarray:
    """The grid's loss table filled one (hypothesis, point) pair at a time by the scalar loss."""
    out = np.empty((len(hypotheses), len(points)))
    for i, h in enumerate(hypotheses):
        for j, x in enumerate(points):
            out[i, j] = loss(h, x)
    return out


class TestGridSpace:
    """grid_space's column arithmetic carries the bits of the scalar losses."""

    def test_bit_comparison_sees_signed_zero(self):
        assert not same_bits(np.array([[0.0]]), np.array([[-0.0]]))

    def test_tables_equal_the_scalar_losses(self):
        rng = np.random.Generator(np.random.PCG64(28))
        for _ in range(20):
            grid = build_linear_grid(
                int(rng.integers(4, 40)),
                int(rng.integers(1, 8)),
                float(rng.choice([0.0, 1.0, rng.uniform(0.0, 3.0)])),
                prior_kind="gaussian-projected" if rng.integers(0, 2) else "uniform",
            )
            count = int(rng.integers(1, 12))
            # integer coordinates put points on grid lines: exact zero scores
            coords = rng.integers(-2, 3, size=(count, 2)) if rng.integers(0, 2) else rng.normal(size=(count, 2))
            labels = 2 * rng.integers(0, 2, size=count) - 1
            points = [(tuple(map(float, z)), int(y)) for z, y in zip(coords, labels)]
            domain, space = grid_space(grid, LabeledData(coords, labels))
            assert domain.points == tuple(points)
            assert same_bits(domain.probs, np.full(count, 1.0 / count))
            assert same_bits(space.table, per_pair_table(zero_one_loss, hypotheses(grid), points))
            assert same_bits(space.prior, grid.prior)

    def test_dimension_mismatch_rejected(self):
        grid = axis_grid()
        with pytest.raises(ValueError, match="dimension mismatch"):
            grid_space(grid, labeled([((1.0, 0.0), 1)]))


def grid_max_margin(grid, points, error_fraction):
    """Largest soft margin over the grid's hypotheses."""
    return float(margin_values(grid, labeled(points), error_fraction).max())


class TestMaxMarginAndLevelSets:
    separable = [((1.0, 0.0), 1), ((-1.0, 0.0), -1)]

    def test_separable_pair_reaches_unit_margin(self):
        grid = build_linear_grid(8, 1, 0.0)  # contains the e1 separator
        assert grid_max_margin(grid, self.separable, 0.0) >= 1.0 - 1e-12

    def test_origin_point_cannot_be_classified(self):
        grid = build_linear_grid(16, 1, 0.0)
        assert grid_max_margin(grid, [((0.0, 0.0), 1)], 0.0) <= 0.0

    def test_refinement_never_decreases(self):
        coarse = build_linear_grid(8, 3, 1.0)
        fine = build_linear_grid(16, 5, 1.0)  # superset of the coarse grid
        points = [((0.4, 0.3), 1), ((-0.5, 0.1), -1), ((0.2, -0.8), 1)]
        for r in (0.0, 1.0 / 3.0):
            assert grid_max_margin(fine, points, r) >= grid_max_margin(coarse, points, r) - 1e-15

    def test_level_sets_on_separable_pair(self):
        grid = build_linear_grid(16, 5, 1.0)
        assert level_set_equality_check(grid, labeled(self.separable), 0.0)

    def test_level_sets_random_instances(self):
        rng = np.random.Generator(np.random.PCG64(66))
        for _ in range(25):
            grid = build_linear_grid(int(rng.integers(4, 13)), int(rng.integers(1, 6)), 1.0)
            data = labeled(random_points(rng, int(rng.integers(2, 9))))
            assert level_set_equality_check(grid, data, float(rng.random()))

    def test_level_sets_with_zero_score_point(self):
        # the origin scores exactly zero for bias-free hypotheses: an error
        # for the loss and a non-positive margin, so both sides exclude it
        grid = build_linear_grid(8, 1, 0.0)
        data = labeled([((0.0, 0.0), 1), ((1.0, 0.0), 1)])
        assert level_set_equality_check(grid, data, 0.0)
        assert level_set_equality_check(grid, data, 0.5)

    def test_level_sets_at_full_error_budget(self):
        # every hypothesis in this grid scores some point positively, so the
        # one-point convention keeps the identity exact at r = 1
        grid = build_linear_grid(12, 3, 0.5)
        data = labeled([((1.0, 0.0), 1), ((-1.0, 0.0), 1), ((0.0, 1.0), 1), ((0.0, -1.0), 1)])
        values = margin_values(grid, data, 1.0)
        assert values.min() > 0.0
        assert values.max() > 0.0
        assert level_set_equality_check(grid, data, 1.0)

    def test_separable_margin_gives_positive_mass_and_finite_complexity(self):
        domain, space = grid_space(build_linear_grid(72, 9, 1.0), labeled(self.separable))
        profile = loss_profile(space, domain, DataSet(domain, np.array([0, 1])))
        mass = float(space.prior[profile.empirical <= 0.0].sum())
        assert mass > 0.0
        minimizer = int(np.argmin(profile.empirical))
        value = complexity(space, profile.empirical, minimizer, 1e6).value
        assert math.isfinite(value)
        assert value <= -math.log(mass) + 1e-9

    def test_shrinking_scores_shrinks_level_mass(self):
        # moving the support vectors toward the separating boundary lowers
        # every separator's scores, so the mass of zero-error hypotheses drops
        grid = build_linear_grid(36, 7, 1.0)
        wide = labeled([((1.0, 0.0), 1), ((-1.0, 0.0), -1)])
        narrow = labeled([((0.2, 0.0), 1), ((-0.2, 0.0), -1)])
        (domain_w, space_w), (domain_n, space_n) = grid_space(grid, wide), grid_space(grid, narrow)
        separators = space_n.table.max(axis=1) == 0.0
        assert separators.any()
        assert (margin_values(grid, narrow, 0.0) <= margin_values(grid, wide, 0.0))[separators].all()
        profile_w = loss_profile(space_w, domain_w, DataSet(domain_w, np.array([0, 1])))
        profile_n = loss_profile(space_n, domain_n, DataSet(domain_n, np.array([0, 1])))
        assert space_n.prior[profile_n.empirical <= 0.0].sum() <= space_w.prior[profile_w.empirical <= 0.0].sum()


def margin_reference(h, points, error_fraction):
    """The per-point margin: one scalar score per point, then a stable sort of the negated values."""
    values = np.asarray([score(h, z) * y for z, y in points])
    order = np.argsort(-values, kind="stable")[: _retained_count(values.size, error_fraction)]
    return float(values[order[-1]])


def level_set_reference(grid, points, error_fraction):
    """The per-hypothesis check: scalar 0-1 losses and one margin per hypothesis."""
    allowed = len(points) - _retained_count(len(points), error_fraction)
    best = max(margin_reference(h, points, error_fraction) for h in hypotheses(grid))
    for h in hypotheses(grid):
        errors = sum(int(zero_one_loss(h, point)) for point in points)
        value = margin_reference(h, points, error_fraction)
        if (errors <= allowed) != (0.0 < value <= best):
            return False
    return True


def axis_grid():
    """3-d hypotheses along the axes with biases -0.5, 0 and 0.5."""
    axes = [(1.0, 0.0, 0.0), (0.0, 1.0, 0.0), (0.0, 0.0, 1.0), (-1.0, 0.0, 0.0), (0.0, -1.0, 0.0)]
    return LinearGrid(np.repeat(axes, 3, axis=0), [-0.5, 0.0, 0.5] * 5, np.full(15, 1.0 / 15))


class TestMarginBlocks:
    """The score-block margins carry the bits of the per-point functions they replace."""

    FRACTIONS = (0.0, 0.2, 1.0 / 3.0, 0.5, 0.9, 1.0)

    def check(self, grid, points):
        data = labeled(points)
        for r in self.FRACTIONS:
            got = margin_values(grid, data, r)
            assert [repr(v) for v in got.tolist()] == [repr(margin_reference(h, points, r)) for h in hypotheses(grid)]
            assert level_set_equality_check(grid, data, r) == level_set_reference(grid, points, r)

    def test_zero_scores_and_signed_zeros_in_2d(self):
        # points on the line z_1 = 0 score exactly 0.0 for the bias-free e1 hypothesis;
        # a label of -1 makes the value -0.0
        grid = build_linear_grid(8, 3, 1.0)
        points = [((0.0, t), y) for t, y in ((0.5, -1), (-1.0, 1), (2.0, -1))]
        points += [((1.0, 0.0), 1), ((0.0, 0.0), -1), ((-0.5, 0.3), -1)]
        e1 = hypotheses(grid)[1]
        assert e1 == ((1.0, 0.0), 0.0)
        assert {repr(score(e1, z) * y) for z, y in points[:3]} == {"0.0", "-0.0"}
        self.check(grid, points)
        self.check(grid, points[:1])
        self.check(grid, points[::-1])

    def test_zero_scores_and_signed_zeros_in_3d(self):
        rng = np.random.Generator(np.random.PCG64(31))
        grid = axis_grid()
        for _ in range(10):
            points = [
                (tuple(rng.choice([-0.5, 0.0, 0.5], size=3)), int(rng.choice([-1, 1])))
                for _ in range(int(rng.integers(1, 8)))
            ]
            self.check(grid, points)

    def test_random_grids(self):
        rng = np.random.Generator(np.random.PCG64(808))
        for _ in range(20):
            grid = build_linear_grid(int(rng.integers(4, 17)), int(rng.integers(1, 8)), 1.0)
            self.check(grid, random_points(rng, int(rng.integers(1, 11))))

    def test_dimension_mismatch_rejected(self):
        grid = build_linear_grid(8, 1, 0.0)
        data = labeled([((1.0, 0.0, 0.0), 1)])
        for call in (margin_values, level_set_equality_check):
            with pytest.raises(ValueError, match="dimension mismatch"):
                call(grid, data, 0.0)
        # points of several dimensions make no coordinate array
        with pytest.raises(ValueError, match="coords"):
            labeled([((1.0, 0.0), 1), ((1.0,), 1)])
