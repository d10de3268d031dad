"""Every public function of the package runs in a criterion, an experiment or a CLI path, or is listed here.

A profile hook records every function entered while the 12 acceptance
criteria, one small run of each experiment kind (violation under each bound
kind) and `gibbslab sweep` run.  The public module-level functions, and the
public methods and properties of the public classes, that it never sees
must be exactly UNREACHED: a new function that nothing runs fails the test,
and so does a listed one that something has come to run.

The boundary test feeds the public entry points bad numbers: each must raise
a ValueError that names the field.
"""

import functools
import inspect
import json
import math
import sys

import numpy as np
import pytest

from gibbslab import acceptance, bounds, cli, gibbs, harness, margins, measures, model, streams

MODULES = (acceptance, bounds, cli, gibbs, harness, margins, measures, model, streams)

# only the benchmark's replay (perfbench/workloads.py) calls these
UNREACHED = {
    "harness.derive_seed_pair": "the benchmark's replay derives each replayed trial's seeds with it",
    "gibbs.sample_hypothesis": "the benchmark's replay draws each replayed hypothesis with it",
    "bounds.stratified_subgaussian_bound": "the benchmark's replay computes the stratify RHS with it",
    "measures.binary_kl": "the benchmark's replay computes the realized relative entropy with it",
}

SPACE = {"name": "random_loss_table", "params": {"num_hypotheses": 8, "num_points": 4, "seed": 1}}
BASE = {"space_spec": SPACE, "n": 20, "beta_grid": [1.0, 10.0], "delta": 0.05, "trials": 20, "master_seed": 3}
RUNS = [
    *({"experiment": "violation", "bound_kind": kind} for kind in harness.BOUND_KINDS),
    {"experiment": "violation", "bound_kind": "beyond_gibbs", "density": {"name": "polynomial", "params": {"a": 1.0}}},
    {
        "experiment": "violation",
        "bound_kind": "beyond_gibbs",
        "density": {"name": "capped_exponential", "params": {"beta": 5.0, "cap": 0.5}},
    },
    {"experiment": "zero_temp"},
    {"experiment": "phase"},
    {"experiment": "concentration"},
    {
        "experiment": "random_label",
        "space_spec": {"name": "permuted_label_task", "params": {"num_inputs": 3, "seed": 1}},
        "n_grid": [5, 10],
        "r0": 0.3,
    },
]
RANDOM_LABEL = RUNS[-1]


def _function(value):
    """The function behind a class attribute: a method, a property's getter, a class or static method."""
    if isinstance(value, (classmethod, staticmethod)):
        return value.__func__
    if isinstance(value, property):
        return value.fget
    if isinstance(value, functools.cached_property):
        return value.func
    return value


def public_functions() -> dict:
    """Qualified name -> code object of every public function, method and property defined in a package module.

    Functions are those at a module's top level, methods and properties
    those of its top-level public classes; the names read module.function
    and module.Class.method.
    """
    found = {}
    for module in MODULES:
        prefix = module.__name__.removeprefix("gibbslab.")
        for name, value in vars(module).items():
            if name.startswith("_") or getattr(value, "__module__", None) != module.__name__:
                continue
            if inspect.isfunction(value):
                found[f"{prefix}.{name}"] = value.__code__
            elif inspect.isclass(value):
                for attr, member in vars(value).items():
                    member = _function(member)
                    if inspect.isfunction(member) and not attr.startswith("_"):
                        found[f"{prefix}.{name}.{attr}"] = member.__code__
    return found


def run_everything(tmp_path, monkeypatch):
    assert cli.main(["verify", "acceptance"]) == 0
    for i, run in enumerate(RUNS):
        path = tmp_path / f"config_{i}.json"
        path.write_text(json.dumps({**BASE, **run, "output_path": str(tmp_path / f"run_{i}.csv")}))
        assert cli.main(["run", str(path)]) in (0, 1)
    argv = ["gibbslab", "sweep", "--experiment", "phase", "--beta-min", "0.1", "--beta-max", "10", "--beta-steps", "3"]
    argv += ["--n", "20", "--delta", "0.05", "--seed", "1", "--out", str(tmp_path / "sweep.csv")]
    monkeypatch.setattr(sys, "argv", argv)
    with pytest.raises(SystemExit) as exit_info:
        cli.console_entry()
    assert exit_info.value.code == 0


def test_unreached_public_functions_are_exactly_the_listed_ones(tmp_path, monkeypatch, capsys):
    entered = set()

    def hook(frame, event, arg):
        if event == "call":
            entered.add(frame.f_code)

    sys.setprofile(hook)
    try:
        run_everything(tmp_path, monkeypatch)
    finally:
        sys.setprofile(None)
    unreached = {name for name, code in public_functions().items() if code not in entered}
    assert sorted(unreached - UNREACHED.keys()) == [], "public functions that nothing runs"
    assert sorted(UNREACHED.keys() - unreached) == [], "listed as unreached, but something runs them"


BAD = {
    "True": True,
    "nan": math.nan,
    "inf": math.inf,
    "10**400": 10**400,
    "2.5": 2.5,
    "8.5": 8.5,
    "-1": -1,
    "bool_array": np.array([True, False]),
    "MAX_POINTS+1": streams.MAX_POINTS + 1,
    "2**32": 2**32,
    "2**64": 2**64,
    "two_halves": [0.5, 0.5],
    "-0.5": -0.5,
    "0.5": 0.5,
    "1.0": 1.0,
    "0": 0,
    "3": 3,
    "4": 4,
    "one_size": [2],
    "half_size": [1.5, 2],
    "bool_size": [True, 2],
    "no_items": np.zeros((2, 0), dtype=int),
    "float_items": np.array([[0.0, 1.0], [2.0, 0.0]]),
    "bool_items": np.array([[False, True], [True, False]]),
    "row": [0.0, 0.5, 1.0],
    "narrow_block": np.zeros((2, 2)),
}
PATHS = np.arange(2)[None]
TINY = model.FiniteHypothesisSpace([[0.0], [0.5], [1.0]], [1 / 3] * 3)
LOSSES = [0.0, 0.5, 1.0]
POINT = model.FiniteDataDomain((0,), [1.0])
TINY_BLOCK = np.array([LOSSES] * 3)
GIBBS = gibbs.exponential_density(1.0)
# 2 hypotheses on 3 points: the counts rows are padded to width 4
TABLE = np.array([[0.0, 1.0, 0.5], [1.0, 0.0, 0.5]])
ITEMS = np.array([[0, 1], [2, 0]])


def items_with(value) -> np.ndarray:
    return model.empirical_losses(TABLE, np.array([[0, 1, 2], [0, 1, value], [0, 1, 2]]))


def config_with(field: str):
    return lambda value: harness.ExperimentConfig(**{**BASE, "experiment": "violation", field: value})


def n_grid_with(value) -> harness.ExperimentConfig:
    return harness.ExperimentConfig(**{**BASE, **RANDOM_LABEL, "n_grid": [5, value]})


def steep(gamma) -> gibbs.DensityFamily:
    """A density whose log-Lipschitz constant is 10, declared with rate gamma."""
    return gibbs.DensityFamily("steep", {}, lambda t: -10 * t, gamma)


# (entry point, field, call with the bad value, names of the bad values)
BOUNDARY = [
    ("ExperimentConfig", "n", config_with("n"), "True 2.5 -1 MAX_POINTS+1 10**400"),
    ("ExperimentConfig", "n_grid", n_grid_with, "True 2.5 -1 MAX_POINTS+1 10**400"),
    # a trial index past 2**32 overflowed numpy's seed path words
    ("ExperimentConfig", "trials", config_with("trials"), "True 2.5 10**400"),
    ("ExperimentConfig", "p", config_with("p"), "True 2.5 -1"),
    ("ExperimentConfig", "master_seed", config_with("master_seed"), "True 2.5 -1"),
    ("ExperimentConfig", "delta", config_with("delta"), "True nan inf 10**400"),
    ("ExperimentConfig", "sigma", config_with("sigma"), "True nan inf 10**400"),
    ("derive_seed_pair", "master_seed", lambda v: harness.derive_seed_pair(v, 0), "True 2.5 -1"),
    ("derive_seed_pair", "path", lambda v: harness.derive_seed_pair(1, v), "True 2.5 -1"),
    ("wilson_upper_99", "violations", lambda v: harness.wilson_upper_99(v, 10), "True 2.5 -1"),
    ("wilson_upper_99", "trials", lambda v: harness.wilson_upper_99(0, v), "True 2.5 -1"),
    ("exponential_density", "beta", gibbs.exponential_density, "True nan inf 10**400 -1"),
    ("capped_exponential_density", "cap", lambda v: gibbs.capped_exponential_density(1.0, v), "True nan 10**400"),
    ("permuted_label_task", "label_noise", lambda v: model.permuted_label_task(2, 0, v), "True nan 10**400"),
    # numpy's own errors for a huge n named no field
    ("sample_dataset", "n", lambda v: model.sample_dataset(POINT, v, 0), "True 2.5 MAX_POINTS+1 10**400"),
    ("sample_dataset", "seed", lambda v: model.sample_dataset(POINT, 1, v), "2.5 -1"),
    ("uniform_rows", "seeds", lambda v: streams.uniform_rows([0, v], 3), "True -1"),
    # numpy's own errors for a huge n named no field
    ("uniform_rows", "n", lambda v: streams.uniform_rows([0], v), "True 2.5 -1 MAX_POINTS+1 10**400"),
    ("seed_pairs", "master_seed", lambda v: streams.seed_pairs(v, PATHS), "True -1"),
    ("trial_streams", "master_seed", lambda v: streams.trial_streams(v, PATHS, 3), "True -1"),
    # a seed is a stream key in [0, 2**64) and a path word 32 bits wide; a
    # non-integer seed is a bad number like any other, not a TypeError
    ("sample_dataset", "seed", lambda v: model.sample_dataset(POINT, 1, v), "2**64"),
    ("sample_hypothesis", "seed", lambda v: gibbs.sample_hypothesis(gibbs.posterior(TINY, LOSSES, 1.0), v), "2**64"),
    ("uniform_rows", "seeds", lambda v: streams.uniform_rows([0, v], 3), "2**64 2.5"),
    ("derive_seed_pair", "path", lambda v: harness.derive_seed_pair(1, 0, v), "2**32"),
    ("seed_pairs", "master_seed", lambda v: streams.seed_pairs(v, PATHS), "2.5"),
    ("trial_streams", "master_seed", lambda v: streams.trial_streams(v, PATHS, 3), "2.5"),
    ("trial_streams", "n", lambda v: streams.trial_streams(1, PATHS, v), "True 2.5 MAX_POINTS+1 10**400"),
    ("FiniteHypothesisSpace", "table", lambda v: model.FiniteHypothesisSpace([[v]], [1.0]), "nan 10**400"),
    ("posterior", "beta", lambda v: gibbs.posterior(TINY, LOSSES, v), "True nan inf 10**400 -1"),
    # numpy read a bool inside a per-row rate array as 0.0 or 1.0
    ("complexity_rows", "beta", lambda v: gibbs.complexity_rows(TINY, np.zeros((2, 3)), [0, 1], [1.0, v]), "True nan 10**400"),
    ("complexity_rows", "beta", lambda v: gibbs.complexity_rows(TINY, np.zeros((2, 3)), [0, 1], v), "bool_array"),
    ("complexity", "h_index", lambda v: gibbs.complexity(TINY, LOSSES, v, 1.0), "True 2.5"),
    (
        "complexity_bruteforce",
        "grid_step",
        lambda v: gibbs.complexity_bruteforce(TINY, LOSSES, 0, 1.0, v),
        "True nan inf 10**400",
    ),
    ("sample_hypothesis", "seed", lambda v: gibbs.sample_hypothesis(gibbs.posterior(TINY, LOSSES, 1.0), v), "2.5 -1"),
    # a nan or inf rate passed every log-Lipschitz comparison, so the steep family went unflagged
    ("normalize_density", "gamma", lambda v: gibbs.normalize_density(TINY, LOSSES, steep(v), v), "True nan inf"),
    ("density_rows", "gamma", lambda v: gibbs.density_rows(TINY, np.array([LOSSES]), steep(v), v), "nan inf"),
    ("posterior_draws", "gamma", lambda v: gibbs.posterior_draws(TINY, np.array([LOSSES]), steep(v), [0.5]), "nan inf"),
    # a uniform below 0 or a nan drew the first atom, zero prior or not, and 1.0 drew past the last
    ("posterior_draws", "uniforms", lambda v: gibbs.posterior_draws(TINY, TINY_BLOCK, GIBBS, [0.5, 0.5, v]), "-0.5 nan 1.0"),
    # one uniform served every row, two raised numpy's broadcast error
    ("posterior_draws", "uniforms", lambda v: gibbs.posterior_draws(TINY, TINY_BLOCK, GIBBS, v), "0.5 two_halves"),
    ("inverse_cdf", "u", lambda v: model.inverse_cdf([0.0, 0.5, 0.5], [0.5, v]), "-0.5 nan 1.0"),
    ("inverse_cdf_stack", "u", lambda v: model.inverse_cdf([[0.0, 0.5, 0.5]], [[0.5, v]]), "-0.5 nan 1.0"),
    # an item past the last point or below 0 was counted in a padding column or in the next row
    ("empirical_losses", "items", items_with, "-1 3 4"),
    # a size of 0 divided by 0, one past n divided too few counts
    ("empirical_losses", "sizes", lambda v: model.empirical_losses(TABLE, ITEMS, [2, v]), "0 3 -1"),
    # 1.5 divided row 0's two counted items by 1.5, and True read as 1
    ("empirical_losses", "sizes", lambda v: model.empirical_losses(TABLE, ITEMS, v), "one_size half_size bool_size"),
    # no items gave nan rows, float items raised numpy's TypeError from bincount, and bool items read as points 0 and 1
    ("empirical_losses", "items", lambda v: model.empirical_losses(TABLE, v), "no_items float_items bool_items"),
    # numpy's IndexError for a 1-d row or a block of the wrong width named no field
    ("posterior_rows", "losses", lambda v: gibbs.posterior_rows(TINY, v, 1.0), "row narrow_block"),
    ("density_rows", "losses", lambda v: gibbs.density_rows(TINY, v, GIBBS, 1.0), "row narrow_block"),
    ("cdf_rows", "losses", lambda v: gibbs.cdf_rows(TINY, v), "row narrow_block"),
    ("posterior_draws", "losses", lambda v: gibbs.posterior_draws(TINY, v, GIBBS, [0.5, 0.5]), "row narrow_block"),
    ("binary_kl_bound", "n", lambda v: bounds.binary_kl_bound(0.0, v, 0.05), "True 8.5"),
    ("binary_kl_bound", "delta", lambda v: bounds.binary_kl_bound(0.0, 50, v), "True nan inf"),
    ("high_temperature_bound", "beta", lambda v: bounds.high_temperature_bound(v, 50, 0.05), "True nan inf 10**400 -1"),
    ("minimizer_mass_bound", "prior_mass_min", bounds.minimizer_mass_bound, "True nan"),
    ("stratified_subgaussian_bound", "sigma", lambda v: bounds.stratified_subgaussian_bound(1.0, v, 50, 0.05), "nan inf"),
    ("stratified_subgaussian_bound", "n", lambda v: bounds.stratified_subgaussian_bound(1.0, 1.0, v, 0.05), "True 2.5"),
    (
        "stratified_subgaussian_bound_rows",
        "sigma",
        lambda v: bounds.stratified_subgaussian_bound_rows([1.0], v, 50, 0.05),
        "True nan inf",
    ),
    ("shift_radius", "n", lambda v: bounds.shift_radius(v, 0.05, 1), "True 2.5"),
    ("shift_radius", "delta", lambda v: bounds.shift_radius(100, v, 1), "True nan"),
    ("shift_radius", "p", lambda v: bounds.shift_radius(100, 0.05, v), "True 2.5 -1"),
    # a nan direction passed the unit-norm comparison, and a nan bias made every point an error
    ("LinearGrid", "directions", lambda v: margins.LinearGrid([(v, 0.0)], [0.0], [1.0]), "nan inf"),
    ("LinearGrid", "biases", lambda v: margins.LinearGrid([(1.0, 0.0)], [v], [1.0]), "nan inf"),
    ("LinearGrid", "prior", lambda v: margins.LinearGrid([(1.0, 0.0)], [0.0], v), "two_halves"),
    ("LabeledData", "coords", lambda v: margins.LabeledData([(v, 0.0)], [1]), "nan inf 10**400"),
    # a bool label read as 1
    ("LabeledData", "labels", lambda v: margins.LabeledData([(0.0, 0.0)], [v]), "True 2.5 nan"),
]


@pytest.mark.parametrize(
    "call, field, value",
    [
        pytest.param(call, field, BAD[v], id=f"{entry}-{field}-{v}")
        for entry, field, call, bad in BOUNDARY
        for v in bad.split()
    ],
)
def test_bad_number_rejected_naming_its_field(call, field, value):
    with pytest.raises(ValueError, match=rf"\b{field}\b"):
        call(value)
