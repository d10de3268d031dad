"""The benchmark's workloads: inputs made from the seed, operations, output checks.

An operation is one ``run_experiment`` call with its report written, or one
acceptance criterion.  Every experiment operation is checked after it is
timed: the report on disk must match the result, the CSV rows must agree
with the summary, and a seeded subset of trials is replayed through the
public per-call functions and must reproduce the harness rows.  The replay
calls are the spans the traced run times per layer.
"""

from __future__ import annotations

import contextlib
import io
import json
import math
import time
from dataclasses import dataclass
from pathlib import Path

import numpy as np

import gibbslab as gl
from gibbslab.acceptance import run_criterion
from gibbslab.harness import ExperimentConfig, derive_seed_pair, run_experiment, write_result
from spans import NullTracer

# Monte Carlo trials each shipped criterion draws, as pinned in gibbslab.acceptance;
# criteria not listed draw none.
ACCEPTANCE_TRIALS = {5: 3 * 2000, 6: 3 * 2000, 7: 2 * 1000, 9: 2000, 11: 2 * 200}

REPLAYS_PER_OP = 4
# replayed lambda, RHS and realized values must match the harness rows this closely
REPLAY_TOL = 1e-9
_UNTRACED = NullTracer().span


@dataclass(frozen=True)
class Op:
    index: int
    config: ExperimentConfig | None = None
    criterion: int | None = None

    @property
    def trials(self) -> int:
        """Monte Carlo trials the operation draws: one per trial and beta."""
        if self.config is None:
            return ACCEPTANCE_TRIALS.get(self.criterion, 0)
        return self.config.trials * len(self.config.beta_grid)


@dataclass(frozen=True)
class Workload:
    """One pass runs every template once; operations cycle through passes."""

    name: str
    seed: int
    space_spec: dict | None
    templates: tuple

    @property
    def pass_size(self) -> int:
        return len(self.templates)

    def op(self, index: int) -> Op:
        template = self.templates[index % self.pass_size]
        if isinstance(template, int):
            return Op(index, criterion=template)
        # a fresh master seed per operation: no two operations repeat their trials
        return Op(index, config=ExperimentConfig(**template, master_seed=self.seed * 100_003 + index))


def make_workload(name: str, seed: int) -> Workload:
    if name == "small_trials":
        spec = {"name": "random_loss_table", "params": {"num_hypotheses": 64, "num_points": 16, "seed": seed}}
        base = {
            "experiment": "violation",
            "space_spec": spec,
            "n": 50,
            "beta_grid": (10.0, 50.0, 500.0),
            "delta": 0.05,
            "trials": 200,
        }
        templates = (
            {**base, "bound_kind": "kl"},
            {**base, "bound_kind": "stratify", "sigma": 0.5},
            {**base, "bound_kind": "beyond_gibbs", "density": {"name": "polynomial", "params": {"a": 1.0}}},
        )
    elif name == "acceptance":
        # the criteria pin their own inputs; the seed does not apply
        spec, templates = None, tuple(range(1, 13))
    else:
        raise ValueError(f"unknown workload {name!r}")
    return Workload(name, seed, spec, templates)


@dataclass(frozen=True)
class Prepared:
    domain: gl.FiniteDataDomain
    space: gl.FiniteHypothesisSpace
    matrix: np.ndarray


def setup(workload: Workload, tracer) -> Prepared | None:
    """Build the workload's space and its loss table once, as a user would."""
    if workload.space_spec is None:
        return None
    with tracer.span("model.build_space"):
        domain, space = gl.build_space(workload.space_spec)
    with tracer.span("model.loss_matrix"):
        matrix = gl.loss_matrix(space, domain)
    return Prepared(domain, space, matrix)


def run_op(op: Op, report_path: Path, tracer) -> tuple[float, object]:
    """Run one operation; returns its wall time and what it returned."""
    if op.config is None:
        # criterion 11 drives the CLI, which prints; keep stdout for the result line
        with contextlib.redirect_stdout(io.StringIO()):
            start = time.perf_counter()
            with tracer.span(f"acceptance.criterion_{op.criterion:02d}"):
                result = run_criterion(op.criterion)
            return time.perf_counter() - start, result
    start = time.perf_counter()
    with tracer.span("harness.run_experiment"):
        result = run_experiment(op.config)
    with tracer.span("harness.write_result"):
        write_result(result, report_path)
    return time.perf_counter() - start, result


class Checker:
    """Checks each operation's output; gathers exact counts next to the timings."""

    def __init__(self, workload: Workload, prepared: Prepared | None, tracer):
        self.seed = workload.seed
        self.prepared = prepared
        self.tracer = tracer
        self.traced = not isinstance(tracer, NullTracer)
        self.replays = 0
        self.counts: dict[str, list[int]] = {"gibbs.complexity_levels": [], "harness.report_bytes": []}
        if prepared is not None:
            self.positive = prepared.space.prior > 0.0
            self.true_losses = prepared.matrix @ prepared.domain.probs

    def check(self, op: Op, result, report_path: Path) -> tuple[list[str], str]:
        """Problems found (empty when correct) and the verdict: pass, uncertified or fail.

        A Monte Carlo verdict that failed while every observed rate stayed
        within delta only lacks trials to certify; it is uncertified, not a
        failure.
        """
        if op.config is None:
            if result.passed:
                return [], "pass"
            return [f"criterion {op.criterion:02d} FAIL: {result.detail}"], "fail"
        config = op.config
        problems = _report_problems(result, report_path)
        self.counts["harness.report_bytes"].append(
            report_path.stat().st_size + report_path.with_suffix(".json").stat().st_size
        )
        rows = [line.split(",") for line in result.csv_text.splitlines()[1:]]
        aggregates = result.summary["aggregates"]
        problems += self._check_violation(op, rows, aggregates)
        if result.passed:
            return problems, "pass"
        if aggregates["rate"] <= config.delta:
            return problems, "uncertified"
        return problems + [f"violation rate {aggregates['rate']} exceeds delta {config.delta}"], "fail"

    def _picks(self, op: Op, count: int) -> list[int]:
        rng = np.random.default_rng([self.seed, op.index])
        return sorted(rng.choice(count, size=min(REPLAYS_PER_OP, count), replace=False).tolist())

    def _replayed(self, replay, *args):
        """Run one replay under a span; when tracing, first run it untraced to warm the caches."""
        if self.traced:
            replay(*args, _UNTRACED)
        with self.tracer.span("bench.replay"):
            out = replay(*args, self.tracer.span)
        self.replays += 1
        return out

    def _empirical(self, data_seed: int, n: int, span) -> np.ndarray:
        prepared = self.prepared
        with span("model.sample_dataset"):
            data = gl.sample_dataset(prepared.domain, n, data_seed)
        with span("model.empirical"):
            counts = np.bincount(data.item_indices, minlength=len(prepared.domain))
            empirical = prepared.matrix @ counts / n
        return empirical

    def _check_violation(self, op: Op, rows, aggregates) -> list[str]:
        config = op.config
        expected = config.trials * len(config.beta_grid)
        if len(rows) != expected:
            return [f"{len(rows)} CSV rows, expected {expected}"]
        problems = []
        flags = [row[7] == "true" for row in rows]
        if any(flag != (float(row[6]) > float(row[5])) for flag, row in zip(flags, rows)):
            problems.append("a violated flag disagrees with realized > rhs")
        if aggregates["violations"] != sum(flags) or aggregates["trials"] != len(rows):
            problems.append("summary counts disagree with the CSV rows")
        for row_index in self._picks(op, len(rows)):
            beta_index, trial = divmod(row_index, config.trials)
            seed, lam, rhs, realized, empirical = self._replayed(self._replay_violation, config, beta_index, trial)
            self.counts["gibbs.complexity_levels"].append(int(np.unique(empirical[self.positive]).size))
            row = rows[row_index]
            if (
                int(row[0]) != seed
                or (row[7] == "true") != (realized > rhs)
                or not _close(float(row[4]), lam)
                or not _close(float(row[5]), rhs)
                or not _close(float(row[6]), realized)
            ):
                problems.append(f"replay of row {row_index} gives {seed},{lam!r},{rhs!r},{realized!r}: {row}")
        return problems

    def _replay_violation(self, config: ExperimentConfig, beta_index: int, trial: int, span):
        """One trial of run_violation_experiment through the public per-call functions."""
        space = self.prepared.space
        with span("harness.derive_seed_pair"):
            data_seed, draw_seed = derive_seed_pair(config.master_seed, beta_index, trial)
        empirical = self._empirical(data_seed, config.n, span)
        beta = config.beta_grid[beta_index]
        if config.bound_kind == "beyond_gibbs":
            family = gl.density_family(config.density["name"], **config.density.get("params", {}))
            with span("monotone.normalize_density"):
                post = gl.normalize_density(space, empirical, family, family.gamma)
            rate = family.gamma
        else:
            with span("gibbs.posterior"):
                post = gl.posterior(space, empirical, beta)
            rate = beta
        with span("gibbs.sample_hypothesis"):
            h = gl.sample_hypothesis(post, draw_seed)
        with span("gibbs.complexity"):
            lam = gl.complexity(space, empirical, h, rate).value
        emp, true = float(empirical[h]), float(self.true_losses[h])
        if config.bound_kind == "stratify":
            realized = abs(true - emp)
            with span("bounds.rhs"):
                rhs = gl.stratified_subgaussian_bound(lam, config.sigma, config.n, config.delta)
        else:
            with span("measures.binary_kl"):
                realized = _realized_binary_kl(emp, true)
            with span("bounds.rhs"):
                rhs = gl.binary_kl_bound(lam, config.n, config.delta)
        return data_seed, lam, rhs, realized, empirical


def _report_problems(result, report_path: Path) -> list[str]:
    problems = []
    if report_path.read_text(encoding="utf-8") != result.csv_text:
        problems.append("CSV on disk differs from the returned CSV")
    summary = json.loads(report_path.with_suffix(".json").read_text(encoding="utf-8"))
    if summary != json.loads(json.dumps(result.summary)):
        problems.append("JSON summary on disk differs from the returned summary")
    return problems


def _realized_binary_kl(p: float, q: float) -> float:
    # the harness' convention for degenerate true losses: 0 on the diagonal, +inf off it
    if 0.0 < q < 1.0:
        return gl.binary_kl(min(max(p, 0.0), 1.0), q)
    return 0.0 if p == q else math.inf


def _close(a: float, b: float) -> bool:
    return a == b or abs(a - b) <= REPLAY_TOL
