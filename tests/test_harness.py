import dataclasses
import hashlib
import json
import math
import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st
from reference import PINNED_PLATFORM, float_platform, loss_profile

from gibbslab.bounds import (
    binary_kl_bound,
    high_temperature_bound,
    minimizer_mass_bound,
    shift_radius,
    stratified_subgaussian_bound,
)
from gibbslab.gibbs import complexity, posterior, sample_hypothesis, zero_temperature_posterior
from gibbslab.harness import (
    BLOCK_CELLS,
    EXPERIMENT_NAMES,
    Z_99,
    BoundReport,
    ColumnRows,
    ConcentrationRow,
    ExperimentConfig,
    PhaseRow,
    RandomLabelRow,
    ZeroTempRow,
    _bound_columns,
    csv_report,
    derive_seed_pair,
    run_concentration_experiment,
    run_experiment,
    run_phase_diagram,
    run_random_label_experiment,
    run_violation_experiment,
    run_zero_temp_sweep,
    wilson_upper_99,
    write_result,
)
from gibbslab.model import (
    SPACE_GENERATORS,
    TIE_TOL,
    FiniteDataDomain,
    FiniteHypothesisSpace,
    build_space,
    k_minimizer_space,
    loss_matrix,
    sample_dataset,
    step_cdf,
)
from gibbslab import gibbs, harness
from gibbslab.acceptance import _soundness_config, run_criterion
from gibbslab.gibbs import DensityFamily, density_family, normalize_density
from gibbslab.measures import binary_kl
from gibbslab.streams import MAX_POINTS

SMALL_SPACE = {"name": "random_loss_table", "params": {"num_hypotheses": 16, "num_points": 8, "seed": 3}}
NOISE_TASK = {"name": "permuted_label_task", "params": {"num_inputs": 6, "seed": 3, "label_noise": 0.5}}
RANDOM_LABEL_FIELDS = {"experiment": "random_label", "space_spec": NOISE_TASK, "n_grid": (50,), "r0": 0.3}


def as_columns(row_type: type, rows) -> ColumnRows:
    """Row objects as one column block, the form csv_report writes."""
    return ColumnRows(row_type, [{f.name: [getattr(r, f.name) for r in rows] for f in dataclasses.fields(row_type)}])


def config(**overrides) -> ExperimentConfig:
    base = dict(
        experiment="violation",
        space_spec=SMALL_SPACE,
        n=50,
        beta_grid=(10.0,),
        delta=0.05,
        trials=40,
        master_seed=11,
    )
    base.update(overrides)
    return ExperimentConfig(**base)


class TestConfig:
    def test_round_trip_through_json(self):
        cfg = config(output_path="out.csv")
        again = ExperimentConfig.from_json(json.dumps(cfg.to_dict()))
        assert again == cfg

    @pytest.mark.parametrize(
        "overrides",
        [
            {"experiment": "nope"},
            {"trials": 0},
            {"beta_grid": ()},
            {"delta": 0.0},
            {"delta": 1.0},
            {"n": 0},
            {"p": 0},
            {"master_seed": -1},
            {"bound_kind": "other"},
            {"beta_grid": "10"},
            {"beta_grid": (math.nan,)},
            {"beta_grid": (math.inf,)},
            {"beta_grid": (-1.0,)},
            {"trials": 2.5},
            {"n": 2.5},
            {**RANDOM_LABEL_FIELDS, "n_grid": "50"},
            {**RANDOM_LABEL_FIELDS, "n_grid": ()},
            {"delta": "0.05"},
            {"sigma": "0.5"},
            {**RANDOM_LABEL_FIELDS, "r0": "0.1"},
            {"sigma": math.nan},
            {"sigma": math.inf},
            {"sigma": 0.0},
            {"sigma": -0.5},
            {"experiment": "concentration", "sigma": math.nan},
            {**RANDOM_LABEL_FIELDS, "r0": math.nan},
            {**RANDOM_LABEL_FIELDS, "r0": -math.inf},
        ],
    )
    def test_invalid_configs_rejected(self, overrides):
        with pytest.raises(ValueError):
            config(**overrides)

    @pytest.mark.parametrize(
        "field, value",
        [
            ("beta_grid", "10"),
            ("beta_grid", 10.0),
            ("beta_grid", (math.nan,)),
            ("beta_grid", (1.0, math.inf)),
            ("beta_grid", (-1.0,)),
            ("beta_grid", ("1",)),
            ("trials", 2.5),
            ("n", 2.5),
            ("n", True),
            ("n_grid", "50"),
            ("n_grid", ()),
            ("n_grid", (50.5,)),
            ("n_grid", (0,)),
            ("delta", "0.05"),
            ("sigma", "0.5"),
            ("sigma", True),
            ("sigma", math.nan),
            ("sigma", -math.inf),
            ("sigma", math.inf),
            ("sigma", 0.0),
            ("sigma", -1.0),
            ("r0", "0.1"),
            ("r0", math.nan),
            ("r0", math.inf),
            ("sigma", 10**400),
            ("r0", -(10**400)),
            ("beta_grid", (10**400,)),
            # a string spec once reached random_label's spec.get("name") and raised AttributeError
            ("space_spec", "permuted_label_task"),
            ("space_spec", None),
        ],
    )
    def test_rejected_grid_and_count_fields_named(self, field, value):
        extra = RANDOM_LABEL_FIELDS if field in ("n_grid", "r0", "space_spec") else {}
        with pytest.raises(ValueError, match=f"^{field} "):
            config(**{**extra, field: value})

    def test_sample_sizes_up_to_max_points_accepted(self):
        # the configs are only built: a run at MAX_POINTS draws 2**20 uniforms per dataset
        assert config(n=MAX_POINTS).n == MAX_POINTS
        assert config(**{**RANDOM_LABEL_FIELDS, "n_grid": (1, MAX_POINTS)}).n_grid == (1, MAX_POINTS)

    def test_nan_sigma_from_json_rejected(self):
        # a nan sigma made every stratify RHS nan and the run pass
        doc = {**config(bound_kind="stratify").to_dict(), "sigma": math.nan}
        with pytest.raises(ValueError, match="sigma must be finite and positive, got nan"):
            ExperimentConfig.from_json(json.dumps(doc))

    def test_grid_string_from_json_rejected(self):
        # iterating the string would run beta in {1.0, 0.0}
        doc = {**config().to_dict(), "beta_grid": "10"}
        with pytest.raises(ValueError, match="beta_grid must be a list of numbers, got '10'"):
            ExperimentConfig.from_json(json.dumps(doc))

    def test_integer_grids_and_numpy_values_accepted(self):
        cfg = config(beta_grid=np.array([0, 10]), trials=np.int64(3))
        assert cfg.beta_grid == (0.0, 10.0) and cfg.trials == 3
        assert config(**{**RANDOM_LABEL_FIELDS, "n_grid": [np.int64(50), 200]}).n_grid == (50, 200)

    def test_unknown_keys_named(self, tmp_path):
        doc = {**config().to_dict(), "sigmaa": 0.5, "trails": 3}
        with pytest.raises(ValueError, match="unknown config keys: sigmaa, trails"):
            ExperimentConfig.from_json(json.dumps(doc))
        path = tmp_path / "config.json"
        path.write_text(json.dumps(doc), encoding="utf-8")
        with pytest.raises(ValueError, match="sigmaa"):
            ExperimentConfig.from_file(path)

    @pytest.mark.parametrize(
        "overrides",
        [
            {"density": {"name": "polynomial", "params": {"a": 1.0}}},
            {"bound_kind": "stratify", "density": {"name": "polynomial", "params": {"a": 1.0}}},
            {"experiment": "zero_temp", "density": {"name": "polynomial", "params": {"a": 1.0}}},
        ],
    )
    def test_density_outside_beyond_gibbs_rejected(self, overrides):
        with pytest.raises(ValueError, match="density"):
            config(**overrides)

    @pytest.mark.parametrize("name, value", [("n_grid", (50,)), ("r0", 0.2)])
    @pytest.mark.parametrize("experiment", ["violation", "concentration", "zero_temp", "phase"])
    def test_random_label_fields_outside_random_label_rejected(self, experiment, name, value):
        with pytest.raises(ValueError, match=name):
            config(experiment=experiment, **{name: value})

    def test_experiment_names_exposed(self):
        assert set(EXPERIMENT_NAMES) == {
            "violation",
            "zero_temp",
            "phase",
            "concentration",
            "random_label",
        }


class TestSeeds:
    def test_deterministic(self):
        assert derive_seed_pair(5, 0, 3) == derive_seed_pair(5, 0, 3)

    def test_distinct_across_coordinates(self):
        seeds = {derive_seed_pair(5, i, j) for i in range(4) for j in range(100)}
        assert len(seeds) == 400

    def test_two_streams_differ(self):
        a, b = derive_seed_pair(5, 0)
        assert a != b


class TestWilson:
    def test_zero_violations_value(self):
        n = 2000
        expected = (Z_99**2 / n) / (1.0 + Z_99**2 / n)
        assert wilson_upper_99(0, n) == pytest.approx(expected, abs=1e-15)

    def test_upper_bound_dominates_rate(self):
        for violations, trials in [(0, 10), (3, 50), (49, 50), (50, 50)]:
            assert wilson_upper_99(violations, trials) >= violations / trials

    def test_full_violations_cap(self):
        assert wilson_upper_99(50, 50) == 1.0

    def test_monotone_in_violations(self):
        values = [wilson_upper_99(v, 100) for v in range(0, 101, 10)]
        assert all(a < b for a, b in zip(values, values[1:]))

    def test_guards(self):
        with pytest.raises(ValueError):
            wilson_upper_99(5, 0)
        with pytest.raises(ValueError):
            wilson_upper_99(5, 4)


class TestViolationExperiment:
    @pytest.mark.parametrize("kind", ["kl", "high_temp", "stratify"])
    def test_smoke_all_kinds(self, kind):
        summary = run_violation_experiment(config(bound_kind=kind))
        assert summary.aggregates["trials"] == 40
        assert len(summary.rows) == 40
        assert summary.aggregates["wilson_upper_99"] >= summary.aggregates["rate"]
        assert all(r.n == 50 and r.delta == 0.05 for r in summary.rows)

    def test_beyond_gibbs_with_polynomial_density(self):
        summary = run_violation_experiment(
            config(bound_kind="beyond_gibbs", density={"name": "polynomial", "params": {"a": 1.0}})
        )
        # the report's beta column records the density decay rate
        assert all(r.beta == 1.0 for r in summary.rows)

    def test_beyond_gibbs_defaults_to_gibbs_per_beta(self):
        plain = run_violation_experiment(config(beta_grid=(2.0, 20.0), trials=10))
        beyond = run_violation_experiment(
            config(beta_grid=(2.0, 20.0), trials=10, bound_kind="beyond_gibbs")
        )
        assert beyond.rows == plain.rows

    def test_deterministic_rows(self):
        a = run_violation_experiment(config())
        b = run_violation_experiment(config())
        assert a.rows == b.rows

    def test_beta_grid_multiplies_trials(self):
        summary = run_violation_experiment(config(beta_grid=(1.0, 10.0), trials=15))
        assert summary.aggregates["trials"] == 30
        assert [r.beta for r in summary.rows] == [1.0] * 15 + [10.0] * 15

    def test_high_temp_rhs_constant_over_trials(self):
        summary = run_violation_experiment(config(bound_kind="high_temp"))
        expected = high_temperature_bound(10.0, 50, 0.05)
        assert all(r.rhs == expected for r in summary.rows)

    def test_unbounded_losses_rejected_for_kl(self):
        def generator(seed=0):
            from gibbslab.model import FiniteDataDomain

            domain = FiniteDataDomain((0, 1), [0.5, 0.5])
            space = FiniteHypothesisSpace([[0.0, 2.0], [1.5, 0.5]], [0.5, 0.5])
            return domain, space

        SPACE_GENERATORS["oversized_for_test"] = generator
        try:
            bad = config(space_spec={"name": "oversized_for_test", "params": {}})
            with pytest.raises(ValueError, match="losses in"):
                run_violation_experiment(bad)
            # the sub-Gaussian route carries its own scale and accepts them
            run_violation_experiment(
                config(space_spec={"name": "oversized_for_test", "params": {}}, bound_kind="stratify", sigma=1.0, trials=5)
            )
        finally:
            del SPACE_GENERATORS["oversized_for_test"]

    def test_unknown_kind_rejected(self):
        with pytest.raises(ValueError, match="mystery"):
            config(bound_kind="mystery")

    def test_stratify_sigma_below_half_loss_range_rejected(self):
        # SMALL_SPACE losses are uniform on [0, 1): its widest range over
        # the 8 points is far above 2 * 0.1
        with pytest.raises(ValueError, match="sigma"):
            run_violation_experiment(config(bound_kind="stratify", sigma=0.1))


def _realized_binary_kl(p: float, q: float) -> float:
    # both losses clamped to [0, 1]; degenerate true losses: the divergence
    # limit is 0 on the diagonal, +inf off it (off-diagonal has probability
    # zero under the data law)
    p, q = min(max(p, 0.0), 1.0), min(max(q, 0.0), 1.0)
    if 0.0 < q < 1.0:
        return binary_kl(p, q)
    return 0.0 if p == q else math.inf


def _violation_oracle(cfg: ExperimentConfig) -> ColumnRows:
    """The per-trial loop: one dataset, posterior, draw and bound at a time."""
    domain, space = build_space(cfg.space_spec)
    matrix = loss_matrix(space, domain)
    true_losses = matrix @ domain.probs
    kind, n, delta = cfg.bound_kind, cfg.n, cfg.delta
    rows = []
    for beta_index, beta in enumerate(cfg.beta_grid):
        if kind == "beyond_gibbs":
            density = cfg.density or {"name": "exponential", "params": {"beta": beta}}
            family = density_family(density["name"], **density.get("params", {}))
        for trial in range(cfg.trials):
            data_seed, draw_seed = derive_seed_pair(cfg.master_seed, beta_index, trial)
            data = sample_dataset(domain, n, data_seed)
            empirical = matrix @ np.bincount(data.item_indices, minlength=len(domain)) / n
            if kind == "beyond_gibbs":
                post = normalize_density(space, empirical, family, family.gamma)
                rate = family.gamma
            else:
                post = posterior(space, empirical, beta)
                rate = beta
            h = sample_hypothesis(post, draw_seed)
            lam = complexity(space, empirical, h, rate).value
            if kind == "stratify":
                realized = float(abs(true_losses[h] - empirical[h]))
                rhs = stratified_subgaussian_bound(lam, cfg.sigma, n, delta)
            else:
                realized = _realized_binary_kl(float(empirical[h]), float(true_losses[h]))
                if kind == "high_temp":
                    rhs = high_temperature_bound(beta, n, delta)
                else:
                    rhs = binary_kl_bound(lam, n, delta)
            rows.append(BoundReport(data_seed, rate, n, delta, lam, rhs, realized, realized > rhs))
    return as_columns(BoundReport, rows)


# empirical losses at and just past the ends of [0, 1], -0.0 included
EMPIRICAL = st.one_of(
    st.sampled_from([0.0, -0.0, 1.0, -5e-324, -1e-12, 1.0 + 2**-52, 1.0 + 1e-12]),
    st.floats(-1e-9, 1.0 + 1e-9),
)
# a true loss is a sum over points and may round just past 1
TRUE = st.one_of(st.sampled_from([0.0, 1.0, 1.0 + 2**-52]), st.floats(0.0, 1.0))
# below the stratify clamp at 1, negative, and large
COMPLEXITY = st.one_of(st.sampled_from([0.0, -0.0, 1.0]), st.floats(-1e3, 1e9))
TRIALS = st.lists(st.tuples(EMPIRICAL, TRUE, COMPLEXITY, st.booleans()), min_size=1, max_size=40)


def check_block_statistics(own, true, lams, beta):
    for kind in ("kl", "high_temp", "stratify", "beyond_gibbs"):
        cfg = config(bound_kind=kind)
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            realized, rhs = _bound_columns(cfg, beta, own, true, lams)
        rhs = np.broadcast_to(rhs, own.shape)
        columns = (own, true, lams, realized, rhs)
        for p, q, lam, got_realized, got_rhs in zip(*(c.tolist() for c in columns)):
            if kind == "stratify":
                expected = (abs(q - p), stratified_subgaussian_bound(lam, cfg.sigma, cfg.n, cfg.delta))
            elif kind == "high_temp":
                expected = (_realized_binary_kl(p, q), high_temperature_bound(beta, cfg.n, cfg.delta))
            else:
                expected = (_realized_binary_kl(p, q), binary_kl_bound(lam, cfg.n, cfg.delta))
            assert (repr(got_realized), repr(got_rhs)) == tuple(map(repr, expected))


@given(TRIALS, st.sampled_from([0.0, 10.0, 1e9]))
def test_block_statistics_match_the_scalar_functions(trials, beta):
    # the flag sets an empirical loss equal to its true loss
    own = np.array([q if same else p for p, q, _, same in trials])
    true = np.array([q for _, q, _, _ in trials])
    lams = np.array([lam for _, _, lam, _ in trials])
    check_block_statistics(own, true, lams, beta)


def test_block_statistics_match_on_many_random_trials():
    # enough logs of random arguments that a vectorized log, which differs
    # from math.log in the last bit on a few inputs in a thousand, shows
    rng = np.random.Generator(np.random.PCG64(17))
    own, true = rng.random(5000), rng.random(5000)
    check_block_statistics(own, true, rng.uniform(-2.0, 40.0, 5000), 10.0)


def test_true_loss_rounded_past_one_is_not_a_violation(monkeypatch):
    # a row of ones on 18 uniform points: its true loss sums to
    # 1.0000000000000002, its empirical loss is exactly 1.0
    table = np.ones((2, 18))
    table[1, 0] = 0.0
    task = FiniteDataDomain(tuple(range(18)), [1 / 18] * 18), FiniteHypothesisSpace(table, [0.5, 0.5])
    assert (task[1].table @ task[0].probs)[0] == 1.0 + 2**-52
    monkeypatch.setitem(SPACE_GENERATORS, "ones_for_test", lambda: task)
    cfg = config(space_spec={"name": "ones_for_test", "params": {}}, beta_grid=(0.0,), trials=200)
    outcome = run_violation_experiment(cfg)
    assert all(math.isfinite(row.realized) for row in outcome.rows)
    assert outcome.passed
    assert csv_report(outcome.rows) == csv_report(_violation_oracle(cfg))


def _kernel_rows(cfg: ExperimentConfig) -> tuple:
    return run_violation_experiment(cfg).rows


def _outcome(run, cfg):
    """The CSV text of a run's rows, or the type and message of the error it raised."""
    try:
        return csv_report(run(cfg))
    except ValueError as exc:
        return (type(exc).__name__, str(exc))


@pytest.fixture
def tiny_prior_space():
    # one zero-prior atom at the lowest loss, one 1e-300 atom, a tie at 0.5
    def generator():
        domain = FiniteDataDomain((0, 1, 2), [0.5, 0.3, 0.2])
        table = [[0.0, 0.0, 0.1], [0.9, 0.2, 0.4], [0.5, 0.5, 0.5], [0.5, 0.5, 0.5], [0.3, 1.0, 0.0]]
        return domain, FiniteHypothesisSpace(table, [0.0, 1e-300, 0.25, 0.25, 0.5 - 1e-300])

    SPACE_GENERATORS["tiny_prior_for_test"] = generator
    yield {"name": "tiny_prior_for_test", "params": {}}
    del SPACE_GENERATORS["tiny_prior_for_test"]


BOUND_SETTINGS = {
    "kl": {},
    "high_temp": {"bound_kind": "high_temp"},
    "stratify": {"bound_kind": "stratify"},
    "beyond_gibbs_polynomial": {
        "bound_kind": "beyond_gibbs",
        "density": {"name": "polynomial", "params": {"a": 1.0}},
    },
    "beyond_gibbs_exponential": {"bound_kind": "beyond_gibbs"},
}


class TestBlockKernelMatchesPerTrialLoop:
    """run_violation_experiment reproduces the per-trial loop's rows exactly."""

    @pytest.mark.parametrize("beta", [0.0, 10.0, 500.0, 1e9])
    @pytest.mark.parametrize("setting", sorted(BOUND_SETTINGS))
    def test_bound_kinds_and_betas(self, setting, beta):
        cfg = config(beta_grid=(beta,), trials=30, **BOUND_SETTINGS[setting])
        assert _outcome(_kernel_rows, cfg) == _outcome(_violation_oracle, cfg)

    @pytest.mark.parametrize("beta_grid", [(0.0, 3.0, 500.0), (1e9,)])
    @pytest.mark.parametrize("setting", sorted(BOUND_SETTINGS))
    def test_zero_and_tiny_prior_atoms(self, tiny_prior_space, setting, beta_grid):
        cfg = config(space_spec=tiny_prior_space, beta_grid=beta_grid, trials=40, **BOUND_SETTINGS[setting])
        assert _outcome(_kernel_rows, cfg) == _outcome(_violation_oracle, cfg)

    @pytest.mark.parametrize("setting", sorted(BOUND_SETTINGS))
    def test_single_hypothesis(self, setting):
        single = {"name": "random_loss_table", "params": {"num_hypotheses": 1, "num_points": 5, "seed": 4}}
        cfg = config(space_spec=single, beta_grid=(0.0, 10.0), trials=20, **BOUND_SETTINGS[setting])
        assert _outcome(_kernel_rows, cfg) == _outcome(_violation_oracle, cfg)

    def test_dataset_wider_than_the_space(self):
        # n sets the block width when it exceeds the hypothesis count
        n = BLOCK_CELLS // 5 + 1
        cfg = config(n=n, trials=7, bound_kind="stratify")
        assert _outcome(_kernel_rows, cfg) == _outcome(_violation_oracle, cfg)

    def test_failing_density_raises_the_per_trial_error(self, monkeypatch):
        # decay rate beta against a declared constant of beta / 2
        def half_gamma(beta):
            return DensityFamily("half_gamma", {"beta": beta}, lambda t: -beta * t, beta / 2)

        monkeypatch.setitem(gibbs._FAMILIES, "half_gamma_for_test", half_gamma)
        density = {"name": "half_gamma_for_test", "params": {"beta": 10.0}}
        cfg = config(bound_kind="beyond_gibbs", density=density, trials=5)
        outcome = _outcome(_kernel_rows, cfg)
        assert outcome[0] == "DensityConditionError"
        assert outcome == _outcome(_violation_oracle, cfg)

        # one-row pieces, and a density that drops by 1 past trial 0's highest loss:
        # trial 0 passes, and the first failing trial lies in a later piece
        def cliff(beta, cap):
            return DensityFamily("cliff", {"beta": beta, "cap": cap}, lambda t: -beta * t - (t > cap), beta)

        domain, space = build_space(SMALL_SPACE)
        data = sample_dataset(domain, 50, derive_seed_pair(11, 0, 0)[0])
        cap = float(loss_profile(space, domain, data).empirical.max())
        monkeypatch.setitem(gibbs._FAMILIES, "cliff_for_test", cliff)
        monkeypatch.setattr(harness, "SEGMENT_CELLS", len(space))
        density = {"name": "cliff_for_test", "params": {"beta": 10.0, "cap": cap}}
        cfg = config(bound_kind="beyond_gibbs", density=density, trials=5)
        outcome = _outcome(_kernel_rows, cfg)
        assert outcome[0] == "DensityConditionError"
        assert outcome == _outcome(_violation_oracle, cfg)


BLOCK_INVARIANCE_RUNS = {
    **{f"violation_{name}": {"experiment": "violation", **fields} for name, fields in BOUND_SETTINGS.items()},
    "violation_beyond_gibbs_capped": {
        "experiment": "violation",
        "bound_kind": "beyond_gibbs",
        "density": {"name": "capped_exponential", "params": {"beta": 5.0, "cap": 0.5}},
    },
    "concentration": {"experiment": "concentration"},
    "random_label": {**RANDOM_LABEL_FIELDS, "n_grid": (20, 50)},
}


def _report_bytes(cfg: ExperimentConfig, path) -> bytes:
    write_result(run_experiment(cfg), path)
    return path.read_bytes() + path.with_suffix(".json").read_bytes()


@pytest.mark.parametrize("rows", [1, 3])
@pytest.mark.parametrize("run", sorted(BLOCK_INVARIANCE_RUNS))
def test_reports_do_not_depend_on_the_block_size(run, rows, monkeypatch, tmp_path):
    # 7 trials per beta: blocks of 3 rows end mid-beta and cross from one beta to the next
    cfg = config(beta_grid=(0.0, 10.0, 500.0, 1e9), trials=7, **BLOCK_INVARIANCE_RUNS[run])
    default = _report_bytes(cfg, tmp_path / "default.csv")
    _, space = build_space(cfg.space_spec)
    width = max(*space.table.shape, cfg.n, *(cfg.n_grid or ()))
    with monkeypatch.context() as patch:
        patch.setattr(harness, "BLOCK_CELLS", rows * width)
        assert _report_bytes(cfg, tmp_path / "small.csv") == default
    # the default block holds all 28 trials; pieces of 3 rows end mid-beta
    monkeypatch.setattr(harness, "SEGMENT_CELLS", rows * len(space))
    assert _report_bytes(cfg, tmp_path / "pieces.csv") == default


# criterion 5's first config and criterion 7's n = 50 config
WORKING_SET_RUNS = {
    "violation": _soundness_config("kl", 10.0, 500),
    "concentration": ExperimentConfig(
        experiment="concentration",
        space_spec={"name": "random_loss_table", "params": {"num_hypotheses": 64, "num_points": 16, "seed": 7}},
        n=50,
        beta_grid=(1.0,),
        delta=0.05,
        trials=1000,
        master_seed=700,
    ),
}


@pytest.mark.parametrize("run", sorted(WORKING_SET_RUNS))
def test_row_kernels_run_on_cache_sized_pieces(run):
    # a whole 1024-row block's (rows, 64) temporaries took the traced peak past 5 MB
    tracemalloc.start()
    try:
        run_experiment(WORKING_SET_RUNS[run])
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 4 * 2**20


@pytest.mark.parametrize("number", [1, 3])
def test_oracle_criteria_hold_no_whole_pass_temporary(number):
    # criterion 1's lookup per data law and criterion 3's stacks per prior (at most
    # 35 spaces' rows) peak near 1 and 2 MiB traced
    tracemalloc.start()
    try:
        passed = run_criterion(number).passed
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert passed and peak < 4 * 2**20


TIED_NOISE_TASK = {"name": "permuted_label_task", "params": {"num_inputs": 8, "seed": 1, "label_noise": 0.3}}


@pytest.mark.parametrize("experiment", ["violation", "zero_temp"])
def test_runs_at_beta_1e9_with_tied_nonzero_minimum(experiment):
    # master seed 2 draws datasets whose empirical minimum is nonzero and
    # shared by several hypotheses
    cfg = config(experiment=experiment, space_spec=TIED_NOISE_TASK, beta_grid=(1e9,), master_seed=2)
    lines = run_experiment(cfg).csv_text.splitlines()
    assert len(lines) == 1 + (cfg.trials if experiment == "violation" else 1)


class TestZeroTempSweep:
    def test_two_hypothesis_closed_form(self):
        # enumerate the two candidate shifts by hand from the generated levels
        cfg = config(
            experiment="zero_temp",
            space_spec={"name": "k_minimizer_space", "params": {"num_hypotheses": 2, "num_minimizers": 1, "seed": 5}},
            beta_grid=(0.0, 0.3, 0.694, 2.0, 50.0),
        )
        domain, space = k_minimizer_space(2, 1, seed=5)
        other_level = float(loss_matrix(space, domain).max())
        outcome = run_zero_temp_sweep(cfg)
        assert outcome.aggregates["limit"] == pytest.approx(math.log(2.0), abs=1e-12)
        for row in outcome.rows:
            expected = min(row.beta * other_level, math.log(2.0))
            assert row.lambda_min == pytest.approx(expected, abs=1e-12)
        assert outcome.passed

    def test_k_minimizer_limit_column(self):
        cfg = config(
            experiment="zero_temp",
            space_spec={"name": "k_minimizer_space", "params": {"num_hypotheses": 100, "num_minimizers": 4, "seed": 6}},
            beta_grid=(0.0, 1.0, 10.0, 10.0 * math.log(100.0), 1e6),
        )
        outcome = run_zero_temp_sweep(cfg)
        assert outcome.aggregates["limit"] == pytest.approx(math.log(25.0), abs=1e-12)
        assert outcome.aggregates["level_gap"] >= 0.1 - 1e-9
        assert outcome.rows[-1].lambda_min == pytest.approx(math.log(25.0), abs=1e-9)
        assert outcome.passed

    def test_lambda_bounded_by_limit(self):
        cfg = config(experiment="zero_temp", beta_grid=(0.1, 1.0, 10.0, 100.0))
        outcome = run_zero_temp_sweep(cfg)
        assert all(r.lambda_min <= outcome.aggregates["limit"] + 1e-12 for r in outcome.rows)


class TestPhaseDiagram:
    def test_rows_and_ordering(self):
        cfg = config(
            experiment="phase",
            space_spec={"name": "k_minimizer_space", "params": {"num_hypotheses": 100, "num_minimizers": 4, "seed": 7}},
            beta_grid=(0.1, 1.0, 10.0, 100.0, 1000.0),
        )
        outcome = run_phase_diagram(cfg)
        assert outcome.passed
        plateau = minimizer_mass_bound(0.04) / 50
        for row in outcome.rows:
            assert row.diagonal == high_temperature_bound(row.beta, 50, 0.05)
            assert row.plateau == pytest.approx(plateau, abs=1e-12)
        kls = [r.kl for r in outcome.rows]
        assert all(a <= b + 1e-12 for a, b in zip(kls, kls[1:]))  # non-decreasing in beta


class TestConcentration:
    def test_constant_losses_never_violate(self):
        # constant per-hypothesis losses make the empirical CDF equal the
        # true one for every dataset
        cfg = config(
            experiment="concentration",
            space_spec={"name": "k_minimizer_space", "params": {"num_hypotheses": 20, "num_minimizers": 2, "seed": 8}},
            # 120 zero-violation trials are the least that certify 0.05 at
            # 99% confidence (the Wilson upper bound at 0/100 is 0.051)
            trials=120,
        )
        outcome = run_concentration_experiment(cfg)
        assert outcome.aggregates["part_i"]["violations"] == 0
        assert outcome.aggregates["part_ii"]["violations"] == 0
        assert outcome.passed

    def test_random_space_smoke(self):
        outcome = run_concentration_experiment(config(experiment="concentration", trials=200))
        assert outcome.aggregates["part_i"]["wilson_upper_99"] <= 0.05
        assert outcome.aggregates["part_ii"]["wilson_upper_99"] <= 0.05
        assert len(outcome.rows) == 200


def _concentration_oracle(cfg: ExperimentConfig) -> list:
    """The per-trial loop: one dataset, its step CDF and two step-CDF lookups at a time."""
    domain, space = build_space(cfg.space_spec)
    matrix = loss_matrix(space, domain)
    true_steps = step_cdf(matrix @ domain.probs, space.prior)
    n, delta, p = cfg.n, cfg.delta, cfg.p
    s = shift_radius(n, delta, p)
    slack = s * float(n) ** -p
    rows = []
    for trial in range(cfg.trials):
        data_seed, _ = derive_seed_pair(cfg.master_seed, trial)
        data = sample_dataset(domain, n, data_seed)
        emp_steps = step_cdf(matrix @ np.bincount(data.item_indices, minlength=len(domain)) / n, space.prior)
        bad_i = bool(np.any(emp_steps.at(true_steps.levels + s) < true_steps.cumulative - slack - 1e-12))
        bad_ii = bool(np.any(true_steps.at(emp_steps.levels + s) < emp_steps.cumulative - slack - 1e-12))
        rows.append(ConcentrationRow(data_seed, n, delta, p, s, bad_i, bad_ii))
    return rows


@pytest.fixture
def scaled_space():
    # losses on a 0..scale integer grid (tied atoms), a zero-prior and a 1e-300-prior atom:
    # at scale 8 the empirical CDF strays past the shift radius in some trials
    def generator(scale, num_hypotheses=40):
        domain, space = SPACE_GENERATORS["random_loss_table"](num_hypotheses, 6, 5, random_prior=True)
        prior = space.prior.copy()
        if num_hypotheses > 3:
            prior[:2] = 0.0
            prior[2] = 1e-300
            prior /= prior.sum()
        return domain, FiniteHypothesisSpace(np.round(space.table * scale), prior)

    SPACE_GENERATORS["scaled_for_test"] = generator
    yield lambda **params: {"name": "scaled_for_test", "params": params}
    del SPACE_GENERATORS["scaled_for_test"]


class TestConcentrationKernel:
    """run_concentration_experiment reproduces the per-trial loop's rows exactly."""

    def check(self, cfg):
        outcome = run_concentration_experiment(cfg)
        oracle = _concentration_oracle(cfg)
        assert csv_report(outcome.rows) == csv_report(as_columns(ConcentrationRow, oracle))
        assert outcome.rows == tuple(oracle)
        return outcome

    @pytest.mark.parametrize("n", [10, 50])
    def test_both_flags_of_both_parts(self, scaled_space, n):
        # 450 trials run in three blocks
        outcome = self.check(config(experiment="concentration", space_spec=scaled_space(scale=8.0), n=n, trials=450))
        for part in outcome.aggregates.values():
            assert 0 < part["violations"] < part["trials"]

    def test_one_part_never_flags(self, monkeypatch):
        # one hypothesis with loss 10 on a point of mass 0.9 and 0 on the other:
        # its empirical loss never exceeds the true 9 by the shift radius (1.03
        # at n = 3), so part (i) cannot flag, while part (ii) flags whenever a
        # dataset holds the second point (probability 0.271)
        two_points = FiniteDataDomain((0, 1), [0.9, 0.1]), FiniteHypothesisSpace([[10.0, 0.0]], [1.0])
        monkeypatch.setitem(SPACE_GENERATORS, "two_points_for_test", lambda: two_points)
        spec = {"name": "two_points_for_test", "params": {}}
        outcome = self.check(config(experiment="concentration", space_spec=spec, n=3, trials=200))
        assert outcome.aggregates["part_i"]["violations"] == 0 < outcome.aggregates["part_ii"]["violations"]

    def test_single_hypothesis(self, scaled_space):
        self.check(config(experiment="concentration", space_spec=scaled_space(scale=8.0, num_hypotheses=1), trials=50))

    @pytest.mark.parametrize("n", [50, 200])
    def test_criterion_space_never_flags(self, n):
        outcome = self.check(
            config(
                experiment="concentration",
                space_spec={"name": "random_loss_table", "params": {"num_hypotheses": 64, "num_points": 16, "seed": 7}},
                n=n,
                trials=300,
                master_seed=700,
            )
        )
        assert outcome.aggregates["part_i"]["violations"] == outcome.aggregates["part_ii"]["violations"] == 0

    def test_pinned_config_never_flags(self):
        outcome = self.check(ExperimentConfig(**{**PINNED_BASE, **PINNED_CONFIGS["concentration"]}))
        assert outcome.aggregates["part_i"]["violations"] == outcome.aggregates["part_ii"]["violations"] == 0


class TestRandomLabel:
    def test_median_mass_decreases_with_n(self):
        cfg = config(
            experiment="random_label",
            space_spec=NOISE_TASK,
            trials=200,
            master_seed=77,
            n_grid=(50, 200, 800),
            r0=0.45,
        )
        outcome = run_random_label_experiment(cfg)
        medians = [r.median_phi_hat for r in outcome.rows]
        assert medians[0] > medians[1] > medians[2]

    def test_bound_rows_and_vacuity_flags(self):
        cfg = config(
            experiment="random_label",
            space_spec=NOISE_TASK,
            trials=200,
            master_seed=78,
            n_grid=(50, 200, 800),
            r0=0.25,
        )
        outcome = run_random_label_experiment(cfg)
        # the shift radius at n = 50 swallows the gap to the true minimum 0.5
        assert [r.vacuous for r in outcome.rows] == [True, False, False]
        assert outcome.passed
        for row in outcome.rows:
            if not row.vacuous:
                assert row.exceed_rate <= 0.05

    def test_deterministic_label_control_keeps_mass(self):
        control = {"name": "permuted_label_task", "params": {"num_inputs": 6, "seed": 3, "label_noise": 0.0}}
        cfg = config(
            experiment="random_label",
            space_spec=control,
            trials=50,
            master_seed=79,
            n_grid=(100,),
            r0=0.25,
        )
        outcome = run_random_label_experiment(cfg)
        assert outcome.rows[0].median_phi_hat >= 1.0 / 64.0

    def test_requires_noise_generator_and_grid(self):
        with pytest.raises(ValueError, match="permuted_label_task"):
            run_random_label_experiment(config(experiment="random_label", n_grid=(50,), r0=0.2))
        with pytest.raises(ValueError, match="n_grid"):
            run_random_label_experiment(config(experiment="random_label", space_spec=NOISE_TASK))

    @pytest.mark.parametrize(
        "overrides, message",
        [
            ({"n_grid": (50,), "r0": 0.2}, "requires the permuted_label_task generator"),
            ({"space_spec": NOISE_TASK, "r0": 0.2}, "requires n_grid and r0"),
            ({"space_spec": NOISE_TASK, "n_grid": (50,)}, "requires n_grid and r0"),
        ],
    )
    def test_requirements_checked_when_the_config_is_built(self, overrides, message):
        with pytest.raises(ValueError, match=message):
            config(experiment="random_label", **overrides)


OUTCOME_RUNS = {
    "violation": (run_violation_experiment, {"beta_grid": (1.0, 50.0), "trials": 30}),
    "zero_temp": (run_zero_temp_sweep, {"experiment": "zero_temp", "beta_grid": (0.0, 2.0, 1e9)}),
    "phase": (run_phase_diagram, {"experiment": "phase", "beta_grid": (0.1, 10.0, 1000.0)}),
    "concentration": (run_concentration_experiment, {"experiment": "concentration", "trials": 30}),
    "random_label": (run_random_label_experiment, {**RANDOM_LABEL_FIELDS, "n_grid": (20, 80), "trials": 30}),
}


@pytest.mark.parametrize("experiment", sorted(OUTCOME_RUNS))
def test_outcome_holds_the_verdict_and_aggregates_of_the_summary(experiment):
    runner, overrides = OUTCOME_RUNS[experiment]
    cfg = config(**overrides)
    outcome = runner(cfg)
    summary = json.loads(json.dumps(run_experiment(cfg).summary))
    assert outcome.aggregates == summary["aggregates"]
    assert outcome.passed == summary["passed"]


class TestRunExperiment:
    def test_violation_csv_schema(self, tmp_path):
        out = tmp_path / "v.csv"
        result = run_experiment(config(output_path=str(out)))
        lines = out.read_text().splitlines()
        assert lines[0] == "trial_seed,beta,n,delta,lambda,rhs,realized,violated"
        assert len(lines) == 41
        summary = json.loads(out.with_suffix(".json").read_text())
        assert summary["config"]["master_seed"] == 11
        assert summary["passed"] == result.passed
        assert summary["aggregates"]["per_beta"][0]["beta"] == 10.0

    def test_zero_temp_csv_schema(self, tmp_path):
        out = tmp_path / "z.csv"
        run_experiment(
            config(
                experiment="zero_temp",
                beta_grid=(1.0, 2.0),
                space_spec={"name": "k_minimizer_space", "params": {"num_hypotheses": 10, "num_minimizers": 2, "seed": 1}},
                output_path=str(out),
            )
        )
        assert out.read_text().splitlines()[0] == "beta,lambda_drawn,lambda_min,limit"

    def test_phase_csv_schema(self, tmp_path):
        out = tmp_path / "p.csv"
        run_experiment(
            config(
                experiment="phase",
                space_spec={"name": "k_minimizer_space", "params": {"num_hypotheses": 10, "num_minimizers": 2, "seed": 1}},
                output_path=str(out),
            )
        )
        assert out.read_text().splitlines()[0] == "beta,diagonal,kl,plateau"

    def test_concentration_csv_schema(self, tmp_path):
        out = tmp_path / "c.csv"
        run_experiment(config(experiment="concentration", trials=20, output_path=str(out)))
        header = out.read_text().splitlines()[0]
        assert header == "trial_seed,n,delta,p,shift,violated_part_i,violated_part_ii"

    def test_random_label_csv_schema(self, tmp_path):
        out = tmp_path / "r.csv"
        run_experiment(
            config(
                experiment="random_label",
                space_spec=NOISE_TASK,
                trials=20,
                n_grid=(50,),
                r0=0.25,
                output_path=str(out),
            )
        )
        assert out.read_text().splitlines()[0] == "n,r0,median_phi_hat,bound,vacuous,exceed_rate"

    def test_integer_decay_rate_written_as_float(self):
        # the density's gamma is the int 1 and lands in the float beta column
        cfg = config(bound_kind="beyond_gibbs", density={"name": "polynomial", "params": {"a": 1}}, trials=5)
        rows = [line.split(",") for line in run_experiment(cfg).csv_text.splitlines()[1:]]
        assert [row[1] for row in rows] == ["1.0"] * 5

    def test_empty_n_grid_writes_the_header_only(self):
        assert csv_report(ColumnRows(RandomLabelRow, [])) == "n,r0,median_phi_hat,bound,vacuous,exceed_rate\n"

    def test_rerun_is_byte_identical(self, tmp_path):
        out = tmp_path / "d.csv"
        cfg = config(output_path=str(out), trials=60)
        run_experiment(cfg)
        first = (out.read_bytes(), out.with_suffix(".json").read_bytes())
        run_experiment(cfg)
        assert (out.read_bytes(), out.with_suffix(".json").read_bytes()) == first


PINNED_BASE = dict(
    experiment="violation",
    space_spec=SMALL_SPACE,
    n=50,
    beta_grid=(0.0, 10.0, 500.0),
    delta=0.05,
    trials=100,
    master_seed=11,
)
MINIMIZERS = {"name": "k_minimizer_space", "params": {"num_hypotheses": 100, "num_minimizers": 4, "seed": 7}}
RANDOM_PRIOR = {
    "name": "random_loss_table",
    "params": {"num_hypotheses": 64, "num_points": 16, "seed": 7, "random_prior": True},
}
PINNED_CONFIGS = {
    "violation_kl": {},
    "violation_stratify": {"bound_kind": "stratify"},
    "violation_beyond_gibbs": {"bound_kind": "beyond_gibbs", "density": {"name": "polynomial", "params": {"a": 2.0}}},
    "concentration": {"experiment": "concentration", "trials": 200},
    "random_label": {"experiment": "random_label", "space_spec": NOISE_TASK, "n_grid": (50, 200), "r0": 0.3},
    "zero_temp": {"experiment": "zero_temp", "space_spec": MINIMIZERS, "beta_grid": (0.0, 1.0, 10.0, 1e6)},
    "phase": {"experiment": "phase", "space_spec": MINIMIZERS, "beta_grid": (0.1, 1.0, 10.0, 1000.0)},
    "violation_high_temp": {"bound_kind": "high_temp"},
    "violation_beyond_gibbs_default": {"bound_kind": "beyond_gibbs"},
    "violation_beyond_gibbs_capped": {
        "bound_kind": "beyond_gibbs",
        "density": {"name": "capped_exponential", "params": {"beta": 20.0, "cap": 0.5}},
    },
    # at rate 0 the posterior is the prior itself, not the prior renormalized
    "violation_kl_random_prior_beta_0": {"space_spec": RANDOM_PRIOR, "beta_grid": (0.0,)},
    "violation_polynomial_a_0_random_prior": {
        "space_spec": RANDOM_PRIOR,
        "beta_grid": (0.0,),
        "bound_kind": "beyond_gibbs",
        "density": {"name": "polynomial", "params": {"a": 0.0}},
    },
    "violation_kl_tied_beta_1e9": {"space_spec": TIED_NOISE_TASK, "beta_grid": (1e9,), "master_seed": 2},
}
# SHA-256 of the CSV bytes followed by the JSON bytes that write_result leaves,
# recorded with the SplitMix64 stream law of gibbslab.streams; the block
# kernels give the bits of the per-trial functions, as the tests above check.  The
# last bits of numpy's vectorized exp and log depend on the CPU and the numpy
# build, so the hashes hold for the platform they were recorded on.
PINNED_HASHES = {
    "violation_kl": "07a992637fe09f8054a3b07920ffc6001277be98de6e5a02e60024a27ed0bcb8",
    "violation_stratify": "1cd812dccc8549b0defd09b378bdf453eb7d24905d86573490a0f0d31acf2fbc",
    "violation_beyond_gibbs": "34d51e0919f05f66eafa72d2d2094b8d9637dd375b15aa6d8af3d4ff97c9acf5",
    "concentration": "72f178fe695d351393d7cb42c75909b871187dc5cce819c9552ec7e96116b9e9",
    "random_label": "aeb0198d1185720e0fc1d2ffaf25f6ef1156c7f342e894f7b01a9f051b4a9a0b",
    "zero_temp": "175d4bd38cbbf7fda13ec21750ccad5e06c59c7455ebe5355928ac2229abefb6",
    "phase": "79ab7229db3dd1dd90abdfb94443587c799ea7f4bae11ba8beb4df70f73090f2",
    # the other density families, and the rate-0 and tied edges
    "violation_high_temp": "60bba255c5f936f5f68e2fd4c7436db3c09b36dec3d3a05fd3396e74b1c1ba07",
    "violation_beyond_gibbs_default": "a4f0fe36b13ac4057f64010cbe9b589863252abfba9cc4e4bb1f96e89dea54a4",
    "violation_beyond_gibbs_capped": "b475ef6ea6c0cda3079a06943bf21a988dddc962f11f1e8baa6e9f00da12648c",
    "violation_kl_random_prior_beta_0": "3b853612789ecda8f7c0d82397c223da520e5f8f4eeaf89a91bedcb05cd514b4",
    "violation_polynomial_a_0_random_prior": "49a8de5cee7e59922959c92e9f11bff483bb6f495bee8486a25d8683a0fa57ff",
    "violation_kl_tied_beta_1e9": "27586e09a85c6dd88dba5dea876a1d7c276b3521987c159452f8b1745354eb67",
}


@pytest.mark.parametrize("name", sorted(PINNED_CONFIGS))
def test_reports_match_pinned_hashes(name, tmp_path):
    if float_platform() != PINNED_PLATFORM:
        pytest.skip(f"hashes recorded on {PINNED_PLATFORM}, not {float_platform()}")
    path = tmp_path / "run.csv"
    write_result(run_experiment(ExperimentConfig(**{**PINNED_BASE, **PINNED_CONFIGS[name]})), path)
    digest = hashlib.sha256(path.read_bytes() + path.with_suffix(".json").read_bytes()).hexdigest()
    assert digest == PINNED_HASHES[name]


def _first_dataset_oracle(cfg: ExperimentConfig) -> tuple:
    """Trial 0's dataset through the per-call functions: space, empirical losses, draw seed, ln(1/minimizer mass)."""
    domain, space = build_space(cfg.space_spec)
    data_seed, draw_seed = derive_seed_pair(cfg.master_seed, 0)
    profile = loss_profile(space, domain, sample_dataset(domain, cfg.n, data_seed))
    positive = space.prior > 0.0
    lowest = float(profile.empirical[positive].min())
    mass = float(space.prior[positive & (profile.empirical <= lowest + TIE_TOL)].sum())
    return space, profile.empirical, draw_seed, minimizer_mass_bound(mass)


def _zero_temp_oracle(cfg: ExperimentConfig) -> tuple:
    """The per-beta loop: one posterior, one draw and two complexities at a time."""
    space, empirical, _, limit = _first_dataset_oracle(cfg)
    cdf = step_cdf(empirical, space.prior)
    level_gap = float(np.diff(cdf.levels).min()) if cdf.levels.size > 1 else math.inf
    support = np.flatnonzero(space.prior > 0.0)
    minimizer = int(support[np.argmin(empirical[support])])
    rows = []
    for beta_index, beta in enumerate(cfg.beta_grid):
        _, draw_seed = derive_seed_pair(cfg.master_seed, beta_index)
        drawn = sample_hypothesis(posterior(space, empirical, beta), draw_seed)
        lams = [complexity(space, empirical, h, beta).value for h in (drawn, minimizer)]
        rows.append(ZeroTempRow(beta, *lams, limit))
    capped = all(r.lambda_min <= limit + 1e-12 for r in rows)
    ordered = sorted(rows, key=lambda r: r.beta)
    monotone = all(a.lambda_min <= b.lambda_min + 1e-12 for a, b in zip(ordered, ordered[1:]))
    threshold = limit / level_gap if math.isfinite(level_gap) else 0.0
    attained = ordered[-1].beta < threshold or abs(ordered[-1].lambda_min - limit) <= 1e-9
    return capped and monotone and attained, as_columns(ZeroTempRow, rows), {"limit": limit, "level_gap": level_gap}


def _phase_oracle(cfg: ExperimentConfig) -> tuple:
    """The per-beta loop: one complexity of the drawn empirical minimizer at a time."""
    space, empirical, draw_seed, limit = _first_dataset_oracle(cfg)
    plateau = limit / cfg.n
    h_star = sample_hypothesis(zero_temperature_posterior(space, empirical), draw_seed)
    n, delta = cfg.n, cfg.delta
    rows = [
        PhaseRow(
            beta,
            high_temperature_bound(beta, n, delta),
            binary_kl_bound(complexity(space, empirical, h_star, beta).value, n, delta),
            plateau,
        )
        for beta in cfg.beta_grid
    ]
    slack = binary_kl_bound(0.0, n, delta)
    passed = all(r.kl <= min(r.diagonal, r.plateau) + slack + 1e-12 for r in rows)
    return passed, as_columns(PhaseRow, rows), {"plateau": plateau}


FIRST_DATASET_ORACLES = {"zero_temp": (run_zero_temp_sweep, _zero_temp_oracle), "phase": (run_phase_diagram, _phase_oracle)}
FIRST_DATASET_SETTINGS = {
    "beta_0": {"beta_grid": (0.0,)},
    "random_prior": {"space_spec": RANDOM_PRIOR, "beta_grid": (0.0, 1.0, 10.0, 1e6)},
    "single_hypothesis": {
        "space_spec": {"name": "random_loss_table", "params": {"num_hypotheses": 1, "num_points": 5, "seed": 4}},
        "beta_grid": (0.0, 10.0),
    },
    "k_minimizer": {"space_spec": MINIMIZERS, "beta_grid": (10.0, 0.1, 1000.0, 10.0, 1e6)},
    "tied_beta_1e9": {"space_spec": TIED_NOISE_TASK, "beta_grid": (1e9,), "master_seed": 2},
    # the zero-prior atom has the lowest loss and must not count as a minimizer
    "zero_and_tiny_prior": {"space_spec": {"name": "tiny_prior_for_test", "params": {}}, "beta_grid": (0.0, 3.0, 1e9)},
}


@pytest.mark.usefixtures("tiny_prior_space")
@pytest.mark.parametrize("setting", sorted(FIRST_DATASET_SETTINGS))
@pytest.mark.parametrize("experiment", sorted(FIRST_DATASET_ORACLES))
def test_first_dataset_runs_match_the_per_beta_loop(experiment, setting):
    # the reports' CSV text and JSON aggregates, which tell -0.0 from 0.0
    cfg = config(experiment=experiment, **FIRST_DATASET_SETTINGS[setting])
    run, oracle = FIRST_DATASET_ORACLES[experiment]
    outcome = run(cfg)
    passed, rows, aggregates = oracle(cfg)
    assert csv_report(outcome.rows) == csv_report(rows)
    assert json.dumps(outcome.aggregates) == json.dumps(aggregates)
    assert outcome.passed == passed
