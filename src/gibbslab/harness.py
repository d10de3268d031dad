"""Seeded Monte Carlo drivers that verify the high-probability statements.

Every experiment is a pure function of its config (master seed included):
re-running writes byte-identical CSV and JSON outputs.  Per-trial seeds are
derived by a splittable hash of the master seed and the trial coordinates,
so trials share no generator state and their order is immaterial.
"""

from __future__ import annotations

import dataclasses
import json
import math
import numbers
import operator
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .bounds import (
    BoundReport,
    binary_kl_bound,
    high_temperature_bound,
    minimizer_mass_bound,
    shift_radius,
    stratified_subgaussian_bound,
)
from .gibbs import (
    complexity,
    density_family,
    exponential_density,
    posterior,
    posterior_draws,
    sample_hypothesis,
    zero_temperature_posterior,
)
from .measures import binary_kl
from .model import (
    build_space,
    empirical_losses,
    loss_matrix,
    loss_profile,
    minimizer_summary,
    sample_dataset,
    sample_items,
    step_cdf,
)
from .streams import seed_pairs

__all__ = [
    "ExperimentConfig",
    "ViolationSummary",
    "ZeroTempRow",
    "ZeroTempResult",
    "PhaseRow",
    "PhaseResult",
    "ConcentrationRow",
    "ConcentrationResult",
    "RandomLabelRow",
    "RandomLabelResult",
    "ExperimentResult",
    "derive_seed_pair",
    "wilson_upper_99",
    "run_violation_experiment",
    "run_zero_temp_sweep",
    "run_phase_diagram",
    "run_concentration_experiment",
    "run_random_label_experiment",
    "run_experiment",
    "csv_report",
    "EXPERIMENT_NAMES",
]

EXPERIMENT_NAMES = ("violation", "zero_temp", "phase", "concentration", "random_label")
BOUND_KINDS = ("kl", "high_temp", "stratify", "beyond_gibbs")

# one-sided 99% normal quantile for the Wilson upper confidence bound
Z_99 = 2.3263478740408408

# floats per array of a trial block (64 KiB); see _trial_blocks
BLOCK_CELLS = 8192


@dataclass(frozen=True)
class ExperimentConfig:
    """Full description of one experiment run; JSON-serializable."""

    experiment: str
    space_spec: dict
    n: int
    beta_grid: tuple
    delta: float
    trials: int
    master_seed: int
    p: int = 1
    output_path: str | None = None
    bound_kind: str = "kl"
    sigma: float = 0.5
    density: dict | None = None
    n_grid: tuple | None = None
    r0: float | None = None

    def __post_init__(self):
        if self.experiment not in EXPERIMENT_NAMES:
            raise ValueError(f"unknown experiment {self.experiment!r}")
        for name in ("n", "trials", "p", "master_seed"):
            if not _is_integer(getattr(self, name)):
                raise ValueError(f"{name} must be an integer, got {getattr(self, name)!r}")
        if self.trials < 1:
            raise ValueError("trials must be at least 1")
        if self.n < 1:
            raise ValueError("n must be at least 1")
        for name in ("delta", "sigma", "r0"):
            value = getattr(self, name)
            if not (_is_real(value) or (name == "r0" and value is None)):
                raise ValueError(f"{name} must be a number, got {value!r}")
        if not 0.0 < self.delta < 1.0:
            raise ValueError(f"delta must lie in (0, 1), got {self.delta}")
        if self.p < 1:
            raise ValueError("p must be a positive integer")
        if self.master_seed < 0:
            raise ValueError("master_seed must be non-negative")
        beta_grid = _grid("beta_grid", self.beta_grid, "numbers", _is_real)
        if not all(math.isfinite(b) and b >= 0.0 for b in beta_grid):
            raise ValueError(f"beta_grid values must be finite and non-negative, got {list(beta_grid)}")
        object.__setattr__(self, "beta_grid", tuple(map(float, beta_grid)))
        if self.n_grid is not None:
            n_grid = _grid("n_grid", self.n_grid, "integers", _is_integer)
            if min(n_grid) < 1:
                raise ValueError(f"n_grid values must be at least 1, got {list(n_grid)}")
            object.__setattr__(self, "n_grid", tuple(map(int, n_grid)))
        if self.bound_kind not in BOUND_KINDS:
            raise ValueError(f"unknown bound kind {self.bound_kind!r}")
        if self.density is not None and (self.experiment, self.bound_kind) != ("violation", "beyond_gibbs"):
            raise ValueError("density applies only to the violation experiment with bound_kind 'beyond_gibbs'")
        for name in ("n_grid", "r0"):
            if getattr(self, name) is not None and self.experiment != "random_label":
                raise ValueError(f"{name} applies only to the random_label experiment")

    @classmethod
    def from_json(cls, text: str) -> "ExperimentConfig":
        fields = json.loads(text)
        if not isinstance(fields, dict):
            raise ValueError("a config must be a JSON object")
        unknown = sorted(set(fields) - {f.name for f in dataclasses.fields(cls)})
        if unknown:
            raise ValueError(f"unknown config keys: {', '.join(unknown)}")
        return cls(**fields)

    @classmethod
    def from_file(cls, path) -> "ExperimentConfig":
        return cls.from_json(Path(path).read_text(encoding="utf-8"))

    def to_dict(self) -> dict:
        return dataclasses.asdict(self)


def _is_integer(value) -> bool:
    return isinstance(value, numbers.Integral) and not isinstance(value, bool)


def _is_real(value) -> bool:
    return isinstance(value, numbers.Real) and not isinstance(value, bool)


def _grid(name: str, values, kind: str, accepts) -> tuple:
    """A grid field as a nonempty tuple of entries that pass accepts; a string such as "10" is no grid."""
    if not isinstance(values, (list, tuple, np.ndarray)):
        raise ValueError(f"{name} must be a list of {kind}, got {values!r}")
    values = tuple(values)
    if not values:
        raise ValueError(f"{name} must be nonempty")
    if not all(map(accepts, values)):
        raise ValueError(f"{name} must be a list of {kind}, got {list(values)!r}")
    return values


def derive_seed_pair(master_seed: int, *path: int) -> tuple[int, int]:
    """Two independent 64-bit seeds hashed from (master_seed, *path)."""
    state = np.random.SeedSequence([master_seed, *path]).generate_state(2, np.uint64)
    return int(state[0]), int(state[1])


def _trial_blocks(master_seed: int, prefix: tuple, trials: int, domain, matrix: np.ndarray, n: int):
    """Trials 0..trials-1 under prefix, in blocks: data seeds, draw seeds, (T, H) empirical losses.

    Trial t draws its dataset from the first seed of
    derive_seed_pair(master_seed, *prefix, t), exactly as sample_dataset
    would; streams.seed_pairs derives a whole block's pairs at once.  Data
    seeds come as a list of ints, draw seeds as a uint64 array.  A block
    holds as many trials as fit BLOCK_CELLS floats in one trial's widest
    row (H losses, X counts or n uniforms), so no temporary of a block
    outgrows BLOCK_CELLS floats however large the space.
    """
    size = max(1, BLOCK_CELLS // max(*matrix.shape, n))
    for start in range(0, trials, size):
        data_seeds, draw_seeds = seed_pairs(master_seed, prefix, np.arange(start, min(trials, start + size)))
        yield data_seeds.tolist(), draw_seeds, empirical_losses(matrix, sample_items(domain, n, data_seeds))


def wilson_upper_99(violations: int, trials: int) -> float:
    """One-sided 99% Wilson upper confidence bound on a binomial rate."""
    if trials < 1 or not 0 <= violations <= trials:
        raise ValueError("need 0 <= violations <= trials with trials >= 1")
    rate = violations / trials
    z2 = Z_99**2
    center = rate + z2 / (2 * trials)
    half = Z_99 * math.sqrt(rate * (1.0 - rate) / trials + z2 / (4 * trials**2))
    return min((center + half) / (1.0 + z2 / trials), 1.0)


@dataclass(frozen=True)
class ViolationSummary:
    """Aggregate of bound-violation trials with a conservative rate estimate."""

    trials: int
    violations: int
    rate: float
    wilson_upper_99: float
    rows: tuple = ()


def _summarize(flags, rows=()) -> ViolationSummary:
    trials = len(flags)
    violations = int(sum(flags))
    return ViolationSummary(
        trials, violations, violations / trials, wilson_upper_99(violations, trials), tuple(rows)
    )


def _realized_binary_kl(p: float, q: float) -> float:
    # degenerate true losses: the divergence limit is 0 on the diagonal,
    # +inf off it (off-diagonal has probability zero under the data law)
    if 0.0 < q < 1.0:
        return binary_kl(min(max(p, 0.0), 1.0), q)
    return 0.0 if p == q else math.inf


def _prepared_space(config: ExperimentConfig):
    domain, space = build_space(config.space_spec)
    matrix = loss_matrix(space, domain)
    return domain, space, matrix


def _check_subgaussian_scale(sigma: float, space, domain, matrix: np.ndarray) -> None:
    # Hoeffding's lemma: a loss confined to a range of width w is
    # (w/2)-sub-Gaussian; a smaller sigma leaves the stratified bound unproven
    ranges = np.ptp(matrix[space.prior > 0.0][:, domain.probs > 0.0], axis=1)
    half_range = 0.5 * float(ranges.max())
    if sigma < half_range:
        raise ValueError(
            f"sigma = {sigma!r} is below half the largest per-hypothesis loss range"
            f" ({half_range!r}); the stratified sub-Gaussian bound needs sigma >= {half_range!r}"
        )


def run_violation_experiment(config: ExperimentConfig) -> ViolationSummary:
    """Draw (dataset, hypothesis) pairs and test the realized statistic per trial.

    For each inverse temperature in the grid and each trial: sample a
    dataset, form the posterior, draw one hypothesis, evaluate the bound
    RHS and the realized statistic, and flag a violation when the realized
    value exceeds the RHS.  The fraction of flagged trials estimates the
    violation probability, which the bounds promise is at most delta.

    Trials run in blocks: one array call per step covers every trial of a
    block, and each trial keeps its own seed pair, so the rows equal those
    of running the trials one at a time through the public per-call
    functions.
    """
    kind = config.bound_kind
    domain, space, matrix = _prepared_space(config)
    if kind in ("kl", "high_temp", "beyond_gibbs") and float(matrix.max()) > 1.0 + 1e-12:
        raise ValueError(f"bound kind {kind!r} assumes losses in [0, 1]; generator exceeds 1")
    if kind == "stratify":
        _check_subgaussian_scale(config.sigma, space, domain, matrix)
    true_losses = (matrix @ domain.probs).tolist()
    density = config.density
    configured_family = None if density is None else density_family(density["name"], **density.get("params", {}))

    n, delta = config.n, config.delta
    rows = []
    for beta_index, beta in enumerate(config.beta_grid):
        # without an explicit density the posterior is Gibbs at beta
        family = configured_family or exponential_density(beta)
        blocks = _trial_blocks(config.master_seed, (beta_index,), config.trials, domain, matrix, n)
        for data_seeds, draw_seeds, empirical in blocks:
            drawn, lams = posterior_draws(space, empirical, family, draw_seeds)
            own = empirical[np.arange(len(drawn)), drawn]
            for data_seed, h, emp, lam in zip(data_seeds, drawn.tolist(), own.tolist(), lams.tolist()):
                if kind == "stratify":
                    realized = abs(true_losses[h] - emp)
                    rhs = stratified_subgaussian_bound(lam, config.sigma, n, delta)
                else:
                    realized = _realized_binary_kl(emp, true_losses[h])
                    if kind == "high_temp":
                        rhs = high_temperature_bound(beta, n, delta)
                    else:
                        rhs = binary_kl_bound(lam, n, delta)
                rows.append(
                    BoundReport(
                        trial_seed=data_seed,
                        beta=family.gamma,
                        n=n,
                        delta=delta,
                        complexity=lam,
                        rhs=rhs,
                        realized=realized,
                        violated=bool(realized > rhs),
                    )
                )
    return _summarize([r.violated for r in rows], rows)


@dataclass(frozen=True)
class ZeroTempRow:
    beta: float
    lambda_drawn: float
    lambda_min: float
    limit: float


@dataclass(frozen=True)
class ZeroTempResult:
    rows: tuple
    limit: float
    level_gap: float
    passed: bool


def run_zero_temp_sweep(config: ExperimentConfig) -> ZeroTempResult:
    """Track the complexity of posterior draws and of a minimizer across betas.

    The minimizer's complexity is capped by ln(1/minimizer mass) at every
    beta, grows towards it, and attains it exactly once beta reaches
    cap / (smallest spacing of achieved loss levels).
    """
    domain, space, matrix = _prepared_space(config)
    data_seed, _ = derive_seed_pair(config.master_seed, 0)
    data = sample_dataset(domain, config.n, data_seed)
    profile = loss_profile(space, domain, data, matrix=matrix)
    summary = minimizer_summary(space, profile)
    limit = minimizer_mass_bound(summary.prior_mass_empirical_min)
    cdf = step_cdf(profile.empirical, space.prior)
    level_gap = float(np.diff(cdf.levels).min()) if cdf.levels.size > 1 else math.inf

    support = np.flatnonzero(space.prior > 0.0)
    minimizer = int(support[np.argmin(profile.empirical[support])])
    rows = []
    for beta_index, beta in enumerate(config.beta_grid):
        _, draw_seed = derive_seed_pair(config.master_seed, beta_index)
        post = posterior(space, profile.empirical, beta)
        drawn = sample_hypothesis(post, draw_seed)
        rows.append(
            ZeroTempRow(
                beta,
                complexity(space, profile.empirical, drawn, beta).value,
                complexity(space, profile.empirical, minimizer, beta).value,
                limit,
            )
        )

    capped = all(r.lambda_min <= limit + 1e-12 for r in rows)
    ordered = sorted(rows, key=lambda r: r.beta)
    monotone = all(a.lambda_min <= b.lambda_min + 1e-12 for a, b in zip(ordered, ordered[1:]))
    attained = True
    threshold = limit / level_gap if math.isfinite(level_gap) else 0.0
    if ordered and ordered[-1].beta >= threshold:
        attained = abs(ordered[-1].lambda_min - limit) <= 1e-9
    return ZeroTempResult(tuple(rows), limit, level_gap, capped and monotone and attained)


@dataclass(frozen=True)
class PhaseRow:
    beta: float
    diagonal: float
    kl: float
    plateau: float


@dataclass(frozen=True)
class PhaseResult:
    rows: tuple
    passed: bool


def run_phase_diagram(config: ExperimentConfig) -> PhaseResult:
    """Bound values per beta: data-independent diagonal vs data-dependent plateau.

    Columns per beta: the worst-case bound (linear in beta), the
    relative-entropy bound at a drawn empirical minimizer, and the plateau
    level ln(1/minimizer mass)/n.  Rows must satisfy
    kl <= min(diagonal, plateau) + ln(2 sqrt(n)/delta)/n.
    """
    domain, space, matrix = _prepared_space(config)
    data_seed, draw_seed = derive_seed_pair(config.master_seed, 0)
    data = sample_dataset(domain, config.n, data_seed)
    profile = loss_profile(space, domain, data, matrix=matrix)
    summary = minimizer_summary(space, profile)
    plateau = minimizer_mass_bound(summary.prior_mass_empirical_min) / config.n
    h_star = sample_hypothesis(zero_temperature_posterior(space, profile.empirical), draw_seed)

    n, delta = config.n, config.delta
    slack = binary_kl_bound(0.0, n, delta)  # ln(2 sqrt(n)/delta)/n
    rows = []
    for beta in config.beta_grid:
        lam = complexity(space, profile.empirical, h_star, beta).value
        rows.append(
            PhaseRow(beta, high_temperature_bound(beta, n, delta), binary_kl_bound(lam, n, delta), plateau)
        )
    passed = all(r.kl <= min(r.diagonal, r.plateau) + slack + 1e-12 for r in rows)
    return PhaseResult(tuple(rows), passed)


@dataclass(frozen=True)
class ConcentrationRow:
    trial_seed: int
    n: int
    delta: float
    p: int
    shift: float
    violated_part_i: bool
    violated_part_ii: bool


@dataclass(frozen=True)
class ConcentrationResult:
    part_i: ViolationSummary
    part_ii: ViolationSummary
    rows: tuple
    passed: bool


def run_concentration_experiment(config: ExperimentConfig) -> ConcentrationResult:
    """Check that the empirical loss CDF tracks the true one at the shift radius.

    Part (i): empirical_cdf(r + s) >= true_cdf(r) - n**-p * s for all r;
    part (ii) is the mirror image.  Both sides are step functions of r, so
    checking at the jump points of the step side is exhaustive.  Each part
    fails with probability at most delta per dataset.
    """
    domain, space, matrix = _prepared_space(config)
    true_losses = matrix @ domain.probs
    true_steps = step_cdf(true_losses, space.prior)
    n, delta, p = config.n, config.delta, config.p
    s = shift_radius(n, delta, p)
    slack = s * float(n) ** -p

    rows = []
    for data_seeds, _, block in _trial_blocks(config.master_seed, (), config.trials, domain, matrix, n):
        for data_seed, empirical in zip(data_seeds, block):
            emp_steps = step_cdf(empirical, space.prior)
            bad_i = bool(
                np.any(emp_steps.at(true_steps.levels + s) < true_steps.cumulative - slack - 1e-12)
            )
            bad_ii = bool(
                np.any(true_steps.at(emp_steps.levels + s) < emp_steps.cumulative - slack - 1e-12)
            )
            rows.append(ConcentrationRow(data_seed, n, delta, p, s, bad_i, bad_ii))

    part_i = _summarize([r.violated_part_i for r in rows])
    part_ii = _summarize([r.violated_part_ii for r in rows])
    passed = part_i.wilson_upper_99 <= delta and part_ii.wilson_upper_99 <= delta
    return ConcentrationResult(part_i, part_ii, tuple(rows), passed)


@dataclass(frozen=True)
class RandomLabelRow:
    n: int
    r0: float
    median_phi_hat: float
    bound: float
    vacuous: bool
    exceed_rate: float


@dataclass(frozen=True)
class RandomLabelResult:
    rows: tuple
    passed: bool


def run_random_label_experiment(config: ExperimentConfig) -> RandomLabelResult:
    """Median prior mass below a fixed loss level, as the sample size grows.

    For noise labels the true-loss CDF vanishes below its minimum, so the
    prior volume of hypotheses with small empirical loss must shrink with
    n: at confidence delta it is at most n**-p * s(n, delta, p) whenever
    r0 + s stays below the true minimum.  Rows where the shift radius
    swallows that gap are flagged vacuous and carry no claim; `passed`
    covers the confidence claim on the non-vacuous rows (medians are
    reported as data).
    """
    if config.space_spec.get("name") != "permuted_label_task":
        raise ValueError("random_label experiment requires the permuted_label_task generator")
    if config.n_grid is None or config.r0 is None:
        raise ValueError("random_label experiment requires n_grid and r0")
    domain, space, matrix = _prepared_space(config)
    true_losses = matrix @ domain.probs
    min_true = float(step_cdf(true_losses, space.prior).levels[0])
    r0, delta, p = float(config.r0), config.delta, config.p

    rows = []
    passed = True
    for n_index, n in enumerate(config.n_grid):
        s = shift_radius(n, delta, p)
        bound = s * float(n) ** -p
        vacuous = r0 + s >= min_true - 1e-12
        phis = []
        for _, _, block in _trial_blocks(config.master_seed, (n_index,), config.trials, domain, matrix, n):
            # a per-row masked sum: a (T, H) @ prior product would sum in another order
            phis.extend(float(space.prior[empirical <= r0].sum()) for empirical in block)
        exceed = sum(1 for v in phis if v > bound)
        rows.append(
            RandomLabelRow(n, r0, float(np.median(phis)), bound, vacuous, exceed / config.trials)
        )
        if not vacuous:
            passed = passed and wilson_upper_99(exceed, config.trials) <= delta
    return RandomLabelResult(tuple(rows), passed)


# ---------------------------------------------------------------------------
# uniform runner with CSV/JSON reports
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class ExperimentResult:
    """What a run leaves behind: verdict, CSV rows, JSON-ready summary."""

    passed: bool
    csv_text: str
    summary: dict


_FLAGS = {False: "false", True: "true"}
# the cells of one column, by the name of its field's declared type
_COLUMN_CELLS = {
    "float": lambda values: map(repr, map(float, values)),
    "int": lambda values: map(str, values),
    "bool": lambda values: map(_FLAGS.__getitem__, values),
}


def csv_report(row_type: type, rows) -> str:
    """CSV text of rows of the dataclass row_type, one column per field.

    The header is the field names, or a field's "column" metadata where it
    has one.  Cells are written a column at a time by the field's declared
    type, not the value's: float as the shortest round-trip repr (an int in
    a float field still reads 1.0), int in decimal, bool as true/false.
    """
    fields = dataclasses.fields(row_type)
    header = ",".join(f.metadata.get("column", f.name) for f in fields)
    # a field's type is its annotation: a string under postponed evaluation
    columns = [
        _COLUMN_CELLS[getattr(f.type, "__name__", f.type)](map(operator.attrgetter(f.name), rows))
        for f in fields
    ]
    return "\n".join([header, *map(",".join, zip(*columns))]) + "\n"


# each runner returns (passed, row type, rows, aggregates)


def _rates(summary: ViolationSummary) -> dict:
    return {"violations": summary.violations, "rate": summary.rate, "wilson_upper_99": summary.wilson_upper_99}


def _violation_report(config: ExperimentConfig) -> tuple:
    outcome = run_violation_experiment(config)
    flags, trials = [r.violated for r in outcome.rows], config.trials
    per_beta = [
        {"beta": beta, **_rates(_summarize(flags[i * trials : (i + 1) * trials]))}
        for i, beta in enumerate(config.beta_grid)
    ]
    aggregates = {
        "trials": outcome.trials,
        **_rates(outcome),
        "per_beta": per_beta,
        "bound_kind": config.bound_kind,
    }
    return outcome.wilson_upper_99 <= config.delta, BoundReport, outcome.rows, aggregates


def _zero_temp_report(config: ExperimentConfig) -> tuple:
    outcome = run_zero_temp_sweep(config)
    aggregates = {"limit": outcome.limit, "level_gap": outcome.level_gap}
    return outcome.passed, ZeroTempRow, outcome.rows, aggregates


def _phase_report(config: ExperimentConfig) -> tuple:
    outcome = run_phase_diagram(config)
    aggregates = {"plateau": outcome.rows[0].plateau if outcome.rows else None}
    return outcome.passed, PhaseRow, outcome.rows, aggregates


def _concentration_report(config: ExperimentConfig) -> tuple:
    outcome = run_concentration_experiment(config)
    aggregates = {
        "part_i": dataclasses.asdict(outcome.part_i),
        "part_ii": dataclasses.asdict(outcome.part_ii),
    }
    return outcome.passed, ConcentrationRow, outcome.rows, aggregates


def _random_label_report(config: ExperimentConfig) -> tuple:
    outcome = run_random_label_experiment(config)
    aggregates = {"rows": [dataclasses.asdict(r) for r in outcome.rows]}
    return outcome.passed, RandomLabelRow, outcome.rows, aggregates


_RUNNERS = {
    "violation": _violation_report,
    "zero_temp": _zero_temp_report,
    "phase": _phase_report,
    "concentration": _concentration_report,
    "random_label": _random_label_report,
}


def run_experiment(config: ExperimentConfig) -> ExperimentResult:
    """Dispatch on config.experiment; write CSV + JSON when output_path is set."""
    passed, row_type, rows, aggregates = _RUNNERS[config.experiment](config)
    summary = {"config": config.to_dict(), "aggregates": aggregates, "passed": passed}
    result = ExperimentResult(passed, csv_report(row_type, rows), summary)
    if config.output_path:
        write_result(result, config.output_path)
    return result


def write_result(result: ExperimentResult, output_path) -> None:
    """CSV at output_path, JSON summary alongside with a .json suffix."""
    path = Path(output_path)
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(result.csv_text, encoding="utf-8")
    json_path = path.with_suffix(".json")
    json_path.write_text(
        json.dumps(result.summary, indent=2, sort_keys=True) + "\n", encoding="utf-8"
    )
