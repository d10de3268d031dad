"""Every public function of the package runs in a criterion, an experiment or a CLI path, or is listed here.

A profile hook records every function entered while the 12 acceptance
criteria, one small run of each experiment kind (violation under each bound
kind) and `gibbslab sweep` run.  The public module-level functions, and the
public methods and properties of the public classes, that it never sees
must be exactly UNREACHED: a new function that nothing runs fails the test,
and so does a listed one that something has come to run.
"""

import functools
import inspect
import json
import sys

import pytest

from gibbslab import acceptance, bounds, cli, gibbs, harness, margins, measures, model, streams

MODULES = (acceptance, bounds, cli, gibbs, harness, margins, measures, model, streams)

# only the benchmark's replay (perfbench/workloads.py) calls these
UNREACHED = {
    "harness.derive_seed_pair": "the benchmark's replay derives each replayed trial's seeds with it",
    "model.sample_dataset": "the benchmark's replay draws each replayed dataset with it",
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

