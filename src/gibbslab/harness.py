"""Seeded Monte Carlo drivers that verify the high-probability statements.

Every experiment is a pure function of its config (master seed included):
re-running writes byte-identical CSV and JSON outputs.  Per-trial seeds are
derived by a splittable hash of the master seed and the trial coordinates,
so trials share no generator state and their order is immaterial.
"""

from __future__ import annotations

import dataclasses
import functools
import itertools
import json
import math
from collections.abc import Sequence
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .bounds import (
    _check_sigma,
    binary_kl_bound,
    high_temperature_bound,
    minimizer_mass_bound,
    shift_radius,
    stratified_subgaussian_bound_rows,
)
from .gibbs import (
    _FAMILIES,
    cdf_rows,
    complexity_rows,
    density_family,
    exponential_density,
    posterior_draws,
    posterior_rows,
    zero_temperature_posterior,
)
from .measures import binary_kl_rows
from .model import MAX_POINTS, TIE_TOL, _check_count, _from_spec, _is_finite, _is_integer, _is_real, build_space
from .model import empirical_losses, inverse_cdf, loss_matrix, step_cdf
from .streams import MASK32, seed_pairs, trial_streams

__all__ = [
    "ExperimentConfig",
    "Outcome",
    "ColumnRows",
    "BoundReport",
    "ZeroTempRow",
    "PhaseRow",
    "ConcentrationRow",
    "RandomLabelRow",
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

# floats per array of a trial block (512 KiB); see _trial_blocks
BLOCK_CELLS = 65536
# floats per (rows, H) temporary of one row kernel call (128 KiB); see _pieces
SEGMENT_CELLS = 16384
# a trial index is one 32-bit seed path word, and streams.seed_pairs rejects larger words
MAX_TRIALS = 2**32


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
        if not isinstance(self.space_spec, dict):
            raise ValueError(f"space_spec must be an object with a name and params, got {self.space_spec!r}")
        _check_count("n", self.n, 1, MAX_POINTS)
        _check_count("trials", self.trials, 1, MAX_TRIALS)
        _check_count("p", self.p, 1)
        _check_count("master_seed", self.master_seed, 0)
        if not (_is_real(self.delta) and 0.0 < self.delta < 1.0):
            raise ValueError(f"delta must be a number in (0, 1), got {self.delta!r}")
        # a nan sigma or r0 passes every comparison it meets and reports nothing
        _check_sigma(self.sigma)
        if not (self.r0 is None or _is_finite(self.r0)):
            raise ValueError(f"r0 must be a finite number, got {self.r0!r}")
        beta_grid = _grid("beta_grid", self.beta_grid, "numbers", _is_real)
        if not all(_is_finite(b) and b >= 0.0 for b in beta_grid):
            raise ValueError(f"beta_grid values must be finite and non-negative, got {list(beta_grid)}")
        object.__setattr__(self, "beta_grid", tuple(map(float, beta_grid)))
        if self.n_grid is not None:
            n_grid = _grid("n_grid", self.n_grid, "integers", _is_integer)
            if not 1 <= min(n_grid) <= max(n_grid) <= MAX_POINTS:
                raise ValueError(f"n_grid values must lie in [1, {MAX_POINTS}], got {list(n_grid)}")
            object.__setattr__(self, "n_grid", tuple(map(int, n_grid)))
        if self.bound_kind not in BOUND_KINDS:
            raise ValueError(f"unknown bound kind {self.bound_kind!r}")
        if self.density is not None:
            if (self.experiment, self.bound_kind) != ("violation", "beyond_gibbs"):
                raise ValueError("density applies only to the violation experiment with bound_kind 'beyond_gibbs'")
            _from_spec("density family", _FAMILIES, self.density)
        if not (self.output_path is None or isinstance(self.output_path, str)):
            raise ValueError(f"output_path must be a string or null, got {self.output_path!r}")
        if self.experiment != "random_label":
            for name in ("n_grid", "r0"):
                if getattr(self, name) is not None:
                    raise ValueError(f"{name} applies only to the random_label experiment")
        elif self.space_spec.get("name") != "permuted_label_task":
            raise ValueError("random_label experiment requires the permuted_label_task generator")
        elif self.n_grid is None or self.r0 is None:
            raise ValueError("random_label experiment requires n_grid and r0")

    @classmethod
    def from_json(cls, text: str) -> "ExperimentConfig":
        fields = json.loads(text)
        if not isinstance(fields, dict):
            raise ValueError("a config must be a JSON object")
        known = dataclasses.fields(cls)
        unknown = sorted(set(fields) - {f.name for f in known})
        if unknown:
            raise ValueError(f"unknown config keys: {', '.join(unknown)}")
        missing = [f.name for f in known if f.default is dataclasses.MISSING and f.name not in fields]
        if missing:
            raise ValueError(f"missing config keys: {', '.join(missing)}")
        return cls(**fields)

    @classmethod
    def from_file(cls, path) -> "ExperimentConfig":
        return cls.from_json(Path(path).read_text(encoding="utf-8"))

    def to_dict(self) -> dict:
        return dataclasses.asdict(self)


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
    """The data key and the draw key of the trial at (master_seed, *path), each path word in [0, 2**32)."""
    _check_count("master_seed", master_seed, 0)
    for step in path:
        _check_count("path", step, 0, MASK32)
    return tuple(seed_pairs(master_seed, np.array(path, dtype=np.int64).reshape(-1, 1))[:, 0].tolist())


def _trial_paths(prefixes, trials: int) -> np.ndarray:
    """(2, len(prefixes) * trials) seed paths: trials 0..trials-1 under each prefix in turn."""
    return np.stack([np.repeat(prefixes, trials), np.tile(np.arange(trials), len(prefixes))])


def _trial_blocks(master_seed: int, paths: np.ndarray, domain, table: np.ndarray, n: int):
    """The trials of a (k, T) array of seed paths, in blocks: data keys, draw uniforms, (T, H) empirical losses.

    Trial j draws its dataset from the data key of
    derive_seed_pair(master_seed, *paths[:, j]), exactly as sample_dataset
    would, and its hypothesis with the first uniform of the draw key;
    streams.trial_streams derives a whole block's streams in one pass.
    Data keys come as a list of ints, draw uniforms as an array.
    A block runs over the columns of paths, so it may cross from one
    prefix (a beta index, say) to the next.  It holds as many trials as
    fit BLOCK_CELLS floats in one trial's widest row (H losses, X counts
    or n uniforms), so no temporary of a block outgrows BLOCK_CELLS floats
    however large the space.
    """
    size = max(1, BLOCK_CELLS // max(*table.shape, n))
    for start in range(0, paths.shape[1], size):
        data_seeds, data, draws = trial_streams(master_seed, paths[:, start : start + size], n)
        yield data_seeds.tolist(), draws, empirical_losses(table, inverse_cdf(domain.probs, data))


def _pieces(start: int, stop: int, width: int):
    """Slices of at most max(1, SEGMENT_CELLS // width) rows that cover rows start..stop-1 in order.

    The row kernels (posterior_draws, _concentration_flags) run on these
    pieces of a block: each of their (rows, width) temporaries then stays
    within SEGMENT_CELLS floats, small enough to stay in a core's L2 cache,
    while a whole block's temporaries would not.  Rows are independent in
    every kernel, so the cut does not change a bit of the results.
    """
    size = max(1, SEGMENT_CELLS // width)
    return [slice(i, min(i + size, stop)) for i in range(start, stop, size)]


def wilson_upper_99(violations: int, trials: int) -> float:
    """One-sided 99% Wilson upper confidence bound on a binomial rate."""
    if not (_is_integer(violations) and _is_integer(trials) and 0 <= violations <= trials and trials >= 1):
        raise ValueError(f"need integer violations in [0, trials] and trials >= 1, got {violations!r} and {trials!r}")
    rate = violations / trials
    z2 = Z_99**2
    center = rate + z2 / (2 * trials)
    half = Z_99 * math.sqrt(rate * (1.0 - rate) / trials + z2 / (4 * trials**2))
    return min((center + half) / (1.0 + z2 / trials), 1.0)


def _rates(flags) -> dict:
    """Violation count, rate and Wilson upper bound of a list of per-trial flags."""
    violations = int(sum(flags))
    return {
        "violations": violations,
        "rate": violations / len(flags),
        "wilson_upper_99": wilson_upper_99(violations, len(flags)),
    }


def _block_size(block: dict) -> int:
    return next(len(column) for column in block.values() if isinstance(column, list))


class ColumnRows(Sequence):
    """Report rows held as blocks of columns; the row objects are built when first read.

    A block maps each field of row_type to a list with one value per row of
    the block, or to one value that every row of the block shares.
    csv_report writes the columns without building the rows.
    """

    def __init__(self, row_type: type, blocks):
        self.row_type = row_type
        self.blocks = tuple(blocks)

    @functools.cached_property
    def _rows(self) -> tuple:
        names = [f.name for f in dataclasses.fields(self.row_type)]
        rows = []
        for block in self.blocks:
            size = _block_size(block)
            columns = [c if isinstance(c, list) else itertools.repeat(c, size) for c in map(block.get, names)]
            rows.extend(map(self.row_type, *columns))
        return tuple(rows)

    def __len__(self) -> int:
        return sum(map(_block_size, self.blocks))

    def __getitem__(self, index):
        return self._rows[index]

    def __iter__(self):
        return iter(self._rows)

    def __eq__(self, other) -> bool:
        return isinstance(other, Sequence) and self._rows == tuple(other)


@dataclass(frozen=True)
class Outcome:
    """What an experiment found: its verdict, its report rows, the JSON aggregates of its summary and its config.

    csv_text and summary are the CSV and the JSON document write_result writes.
    """

    passed: bool
    rows: ColumnRows
    aggregates: dict
    config: ExperimentConfig

    @functools.cached_property
    def csv_text(self) -> str:
        return csv_report(self.rows)

    @functools.cached_property
    def summary(self) -> dict:
        return {"config": self.config.to_dict(), "aggregates": self.aggregates, "passed": self.passed}


@dataclass(frozen=True)
class BoundReport:
    """One Monte Carlo trial of a bound: complexity, RHS, realized value, flag."""

    trial_seed: int
    beta: float
    n: int
    delta: float
    complexity: float = field(metadata={"column": "lambda"})
    rhs: float
    realized: float
    violated: bool


def _realized_kl(p: np.ndarray, q: np.ndarray) -> np.ndarray:
    """Relative entropy of each drawn hypothesis' empirical loss p from its true loss q, both clamped to [0, 1].

    A true loss is a sum over points and may round past 1: a row of ones
    on 18 uniform points sums to 1.0000000000000002.  Degenerate true
    losses take the divergence's limit: 0 on the diagonal, +inf off it
    (the off-diagonal has probability zero under the data law).
    """
    # min(max(x, 0.0), 1.0) with Python's semantics, so -0.0 and nan pass through it
    p, q = (np.where(1.0 < x, 1.0, np.where(0.0 > x, 0.0, x)) for x in (p, q))
    realized = np.where(p == q, 0.0, np.inf)
    inside = (0.0 < q) & (q < 1.0)
    realized[inside] = binary_kl_rows(p[inside], q[inside])
    return realized


def _bound_columns(config: ExperimentConfig, beta: float, own: np.ndarray, true: np.ndarray, lams: np.ndarray) -> tuple:
    """Realized statistic and RHS of every trial of a block: drawn hypotheses' empirical and true losses, complexities.

    The RHS of high_temp is one value shared by the block.
    """
    n, delta = config.n, config.delta
    if config.bound_kind == "stratify":
        return np.abs(true - own), stratified_subgaussian_bound_rows(lams, config.sigma, n, delta)
    realized = _realized_kl(own, true)
    if config.bound_kind == "high_temp":
        return realized, high_temperature_bound(beta, n, delta)
    return realized, binary_kl_bound(lams, n, delta)


def _check_subgaussian_scale(sigma: float, space, domain) -> None:
    # Hoeffding's lemma: a loss confined to a range of width w is
    # (w/2)-sub-Gaussian; a smaller sigma leaves the stratified bound unproven
    ranges = np.ptp(space.table[space.prior > 0.0][:, domain.probs > 0.0], axis=1)
    half_range = 0.5 * float(ranges.max())
    if sigma < half_range:
        raise ValueError(
            f"sigma = {sigma!r} is below half the largest per-hypothesis loss range"
            f" ({half_range!r}); the stratified sub-Gaussian bound needs sigma >= {half_range!r}"
        )


def run_violation_experiment(config: ExperimentConfig) -> Outcome:
    """Draw (dataset, hypothesis) pairs and test the realized statistic per trial.

    For each inverse temperature in the grid and each trial: sample a
    dataset, form the posterior, draw one hypothesis, evaluate the bound
    RHS and the realized statistic, and flag a violation when the realized
    value exceeds the RHS.  The fraction of flagged trials estimates the
    violation probability, which the bounds promise is at most delta.

    Trials run in blocks over the (beta index, trial) grid taken beta by
    beta, so one block may span several betas; each trial keeps its own
    seed pair.  One array call per step covers every trial of a block, and
    one posterior_draws call covers each piece (see _pieces) of each
    beta's rows of it.  The statistics of all the trials at one beta are
    array expressions with the bits of the scalar bound functions, so the
    rows equal those of running the trials one at a time through the
    public per-call functions.  The rows come back as one block of
    columns per beta.  The run passes when the Wilson
    upper bound on the violation rate over all trials is at most delta.
    """
    kind = config.bound_kind
    domain, space = build_space(config.space_spec)
    if kind in ("kl", "high_temp", "beyond_gibbs") and float(space.table.max()) > 1.0 + 1e-12:
        raise ValueError(f"bound kind {kind!r} assumes losses in [0, 1]; generator exceeds 1")
    if kind == "stratify":
        _check_subgaussian_scale(config.sigma, space, domain)
    true_losses = space.table @ domain.probs
    density = config.density
    configured_family = None if density is None else density_family(density["name"], **density.get("params", {}))

    # without an explicit density the posterior is Gibbs at beta
    families = [configured_family or exponential_density(beta) for beta in config.beta_grid]
    trials = config.trials
    # per beta: data seeds, and the drawn hypotheses, their empirical losses and complexities per segment
    seeds, drawn, own, lams = ([[] for _ in families] for _ in range(4))
    start = 0
    paths = _trial_paths(range(len(families)), trials)
    for data_seeds, draws, empirical in _trial_blocks(config.master_seed, paths, domain, space.table, config.n):
        stop = start + len(data_seeds)
        # the block's rows at each beta it spans, one segment per beta, cut into cache-sized pieces
        for b in range(start // trials, (stop - 1) // trials + 1):
            segment = (max(start, b * trials) - start, min(stop, (b + 1) * trials) - start)
            for rows in _pieces(*segment, len(space)):
                piece = empirical[rows]
                piece_drawn, piece_lams = posterior_draws(space, piece, families[b], draws[rows])
                seeds[b] += data_seeds[rows]
                drawn[b].append(piece_drawn)
                own[b].append(piece[np.arange(len(piece)), piece_drawn])
                lams[b].append(piece_lams)
        start = stop

    blocks = []
    for beta, family, beta_seeds, *segments in zip(config.beta_grid, families, seeds, drawn, own, lams):
        beta_drawn, beta_own, beta_lams = map(np.concatenate, segments)
        realized, rhs = _bound_columns(config, beta, beta_own, true_losses[beta_drawn], beta_lams)
        blocks.append(
            {
                "trial_seed": beta_seeds,
                "beta": family.gamma,
                "n": config.n,
                "delta": config.delta,
                "complexity": beta_lams.tolist(),
                "rhs": rhs.tolist() if isinstance(rhs, np.ndarray) else rhs,
                "realized": realized.tolist(),
                "violated": (realized > rhs).tolist(),
            }
        )
    flags = list(itertools.chain.from_iterable(block["violated"] for block in blocks))
    totals = _rates(flags)
    aggregates = {
        "trials": len(flags),
        **totals,
        "per_beta": [{"beta": beta, **_rates(block["violated"])} for beta, block in zip(config.beta_grid, blocks)],
        "bound_kind": config.bound_kind,
    }
    return Outcome(totals["wilson_upper_99"] <= config.delta, ColumnRows(BoundReport, blocks), aggregates, config)


@dataclass(frozen=True)
class ZeroTempRow:
    beta: float
    lambda_drawn: float
    lambda_min: float
    limit: float


def _first_dataset(config: ExperimentConfig) -> tuple:
    """The space, the empirical losses of trial 0's dataset, the draw uniform of each beta and ln(1/minimizer mass).

    Beta index b draws with the first uniform of the draw key of
    derive_seed_pair(master_seed, b), and trial 0's dataset comes from the
    data key at b = 0; one streams.trial_streams call derives them all.
    """
    domain, space = build_space(config.space_spec)
    _, data, draws = trial_streams(config.master_seed, np.arange(len(config.beta_grid))[None], config.n, datasets=1)
    empirical = empirical_losses(loss_matrix(space, domain), inverse_cdf(domain.probs, data))[0]
    positive = space.prior > 0.0
    lowest = empirical[positive].min()
    mass = float(space.prior[positive & (empirical <= lowest + TIE_TOL)].sum())
    return space, empirical, draws, minimizer_mass_bound(mass)


def run_zero_temp_sweep(config: ExperimentConfig) -> Outcome:
    """Track the complexity of posterior draws and of a minimizer across betas.

    The minimizer's complexity is capped by ln(1/minimizer mass) at every
    beta, grows towards it, and attains it exactly once beta reaches
    cap / (smallest spacing of achieved loss levels).
    """
    space, empirical, draws, limit = _first_dataset(config)
    cdf = step_cdf(empirical, space.prior)
    level_gap = float(np.diff(cdf.levels).min()) if cdf.levels.size > 1 else math.inf

    support = np.flatnonzero(space.prior > 0.0)
    minimizer = int(support[np.argmin(empirical[support])])
    betas = config.beta_grid
    weights = np.concatenate([posterior_rows(space, empirical[None], beta)[0] for beta in betas])
    drawn = inverse_cdf(weights, draws[:, None])[:, 0]
    lams = complexity_rows(space, empirical[None], np.append(drawn, [minimizer] * len(betas)), betas + betas)[0].tolist()
    lambda_drawn, lambda_min = lams[: len(betas)], lams[len(betas) :]

    capped = all(lam <= limit + 1e-12 for lam in lambda_min)
    ordered = sorted(zip(betas, lambda_min), key=lambda row: row[0])
    monotone = all(a <= b + 1e-12 for (_, a), (_, b) in zip(ordered, ordered[1:]))
    threshold = limit / level_gap if math.isfinite(level_gap) else 0.0
    last_beta, last_min = ordered[-1]
    attained = last_beta < threshold or abs(last_min - limit) <= 1e-9
    columns = {"beta": list(betas), "lambda_drawn": lambda_drawn, "lambda_min": lambda_min, "limit": limit}
    rows = ColumnRows(ZeroTempRow, [columns])
    return Outcome(capped and monotone and attained, rows, {"limit": limit, "level_gap": level_gap}, config)


@dataclass(frozen=True)
class PhaseRow:
    beta: float
    diagonal: float
    kl: float
    plateau: float


def run_phase_diagram(config: ExperimentConfig) -> Outcome:
    """Bound values per beta: data-independent diagonal vs data-dependent plateau.

    Columns per beta: the worst-case bound (linear in beta), the
    relative-entropy bound at a drawn empirical minimizer, and the plateau
    level ln(1/minimizer mass)/n.  Rows must satisfy
    kl <= min(diagonal, plateau) + ln(2 sqrt(n)/delta)/n.
    """
    space, empirical, draws, limit = _first_dataset(config)
    plateau = limit / config.n
    h_star = inverse_cdf(zero_temperature_posterior(space, empirical).weights[None], draws[:1, None])[0, 0]

    n, delta = config.n, config.delta
    slack = binary_kl_bound(0.0, n, delta)  # ln(2 sqrt(n)/delta)/n
    diagonal = [high_temperature_bound(beta, n, delta) for beta in config.beta_grid]
    lams = complexity_rows(space, empirical[None], np.full(len(config.beta_grid), h_star), config.beta_grid)[0]
    kl = binary_kl_bound(lams, n, delta).tolist()
    passed = all(k <= min(d, plateau) + slack + 1e-12 for d, k in zip(diagonal, kl))
    columns = {"beta": list(config.beta_grid), "diagonal": diagonal, "kl": kl, "plateau": plateau}
    return Outcome(passed, ColumnRows(PhaseRow, [columns]), {"plateau": plateau}, config)


@dataclass(frozen=True)
class ConcentrationRow:
    trial_seed: int
    n: int
    delta: float
    p: int
    shift: float
    violated_part_i: bool
    violated_part_ii: bool


def _concentration_flags(space, true_steps, empirical: np.ndarray, s: float, slack: float) -> tuple:
    """Whether each row of a (T, H) empirical loss block breaks part (i) and part (ii).

    One sort of the block gives each row's step CDF: its ascending atoms
    and their running prior mass, whose value at the last atom of a level
    is that level's cumulative mass.  Part (i) reads the empirical CDF at
    each true level plus s: the mass of the last atom at or below it,
    counted from each atom's place among those points.  Part (ii) compares
    the true CDF at every atom plus s with the atom's running mass; inside
    a level the mass only grows, so the level's last atom decides, as the
    comparison at the level itself does.
    """
    levels, mass = cdf_rows(space, empirical)
    rows = len(levels)
    points = true_steps.levels + s
    slots = points.size + 1
    # the first of the points at or above each atom; the atoms at or below point j are those with first <= j
    first = np.searchsorted(points, levels, side="left") + slots * np.arange(rows)[:, None]
    below = np.bincount(first.ravel(), minlength=rows * slots).reshape(rows, slots).cumsum(axis=1)[:, :-1]
    emp_at = np.where(below > 0, np.take_along_axis(mass, np.maximum(below - 1, 0), axis=1), 0.0)
    bad_i = (emp_at < true_steps.cumulative - slack - 1e-12).any(axis=1)
    bad_ii = (true_steps.at(levels + s) < mass - slack - 1e-12).any(axis=1)
    return bad_i.tolist(), bad_ii.tolist()


def run_concentration_experiment(config: ExperimentConfig) -> Outcome:
    """Check that the empirical loss CDF tracks the true one at the shift radius.

    Part (i): F_emp(r + s) >= F_true(r) - n**-p * s for all r, with F the
    prior CDFs of the empirical and the true losses;
    part (ii) is the mirror image.  Both sides are step functions of r, so
    checking at the jump points of the step side is exhaustive.  Each part
    fails with probability at most delta per dataset, and the run passes
    when both parts' Wilson upper bounds are at most delta.  Trials run in
    blocks, each checked a piece at a time (see _pieces), and the rows come
    back as one block of columns.
    """
    domain, space = build_space(config.space_spec)
    true_steps = step_cdf(space.table @ domain.probs, space.prior)
    n, delta, p = config.n, config.delta, config.p
    s = shift_radius(n, delta, p)
    slack = s * float(n) ** -p

    seeds, bad_i, bad_ii = [], [], []
    paths = np.arange(config.trials)[None]
    for data_seeds, _, block in _trial_blocks(config.master_seed, paths, domain, space.table, n):
        seeds += data_seeds
        for rows in _pieces(0, len(block), len(space)):
            piece_i, piece_ii = _concentration_flags(space, true_steps, block[rows], s, slack)
            bad_i += piece_i
            bad_ii += piece_ii
    columns = {
        "trial_seed": seeds,
        "n": n,
        "delta": delta,
        "p": p,
        "shift": s,
        "violated_part_i": bad_i,
        "violated_part_ii": bad_ii,
    }
    # each part's empty "rows" list is kept for the pinned report bytes
    parts = {
        "part_i": {"trials": len(bad_i), **_rates(bad_i), "rows": []},
        "part_ii": {"trials": len(bad_ii), **_rates(bad_ii), "rows": []},
    }
    passed = all(part["wilson_upper_99"] <= delta for part in parts.values())
    return Outcome(passed, ColumnRows(ConcentrationRow, [columns]), parts, config)


@dataclass(frozen=True)
class RandomLabelRow:
    n: int
    r0: float
    median_phi_hat: float
    bound: float
    vacuous: bool
    exceed_rate: float


def run_random_label_experiment(config: ExperimentConfig) -> Outcome:
    """Median prior mass below a fixed loss level, as the sample size grows.

    For noise labels the true-loss CDF vanishes below its minimum, so the
    prior volume of hypotheses with small empirical loss must shrink with
    n: at confidence delta it is at most n**-p * s(n, delta, p) whenever
    r0 + s stays below the true minimum.  Rows where the shift radius
    swallows that gap are flagged vacuous and carry no claim; `passed`
    covers the confidence claim on the non-vacuous rows (medians are
    reported as data).
    """
    domain, space = build_space(config.space_spec)
    min_true = float(step_cdf(space.table @ domain.probs, space.prior).levels[0])
    r0, delta, p = float(config.r0), config.delta, config.p

    columns = {"n": list(config.n_grid), "r0": r0, "median_phi_hat": [], "bound": [], "vacuous": [], "exceed_rate": []}
    passed = True
    for n_index, n in enumerate(config.n_grid):
        s = shift_radius(n, delta, p)
        bound = s * float(n) ** -p
        vacuous = r0 + s >= min_true - 1e-12
        phis = []
        paths = _trial_paths([n_index], config.trials)
        for _, _, block in _trial_blocks(config.master_seed, paths, domain, space.table, n):
            # a per-row masked sum: a (T, H) @ prior product would sum in another order
            phis.extend(float(space.prior[empirical <= r0].sum()) for empirical in block)
        exceed = sum(1 for v in phis if v > bound)
        columns["median_phi_hat"].append(float(np.median(phis)))
        columns["bound"].append(bound)
        columns["vacuous"].append(vacuous)
        columns["exceed_rate"].append(exceed / config.trials)
        if not vacuous:
            passed = passed and wilson_upper_99(exceed, config.trials) <= delta
    rows = ColumnRows(RandomLabelRow, [columns])
    return Outcome(passed, rows, {"rows": list(map(dataclasses.asdict, rows))}, config)


# ---------------------------------------------------------------------------
# uniform runner with CSV/JSON reports
# ---------------------------------------------------------------------------


_FLAGS = {False: "false", True: "true"}
# the cells of one column, by the name of its field's declared type
_COLUMN_CELLS = {
    "float": lambda values: map(repr, map(float, values)),
    "int": lambda values: map(str, values),
    "bool": lambda values: map(_FLAGS.__getitem__, values),
}


def csv_report(rows: ColumnRows) -> str:
    """CSV text of report rows, one column per field of their dataclass rows.row_type.

    The rows are written from their column blocks, and a value shared by a
    block's rows is formatted once.  The header is the field names, or a
    field's "column" metadata where it has one.  Cells are written a column
    at a time by the field's declared type, not the value's: float as the
    shortest round-trip repr (an int in a float field still reads 1.0), int
    in decimal, bool as true/false.
    """
    fields = dataclasses.fields(rows.row_type)
    lines = [",".join(f.metadata.get("column", f.name) for f in fields)]
    for block in rows.blocks:
        size = _block_size(block)
        columns = []
        for f in fields:
            # a field's type is its annotation: a string under postponed evaluation
            cells = _COLUMN_CELLS[getattr(f.type, "__name__", f.type)]
            column = block[f.name]
            columns.append(cells(column) if isinstance(column, list) else [*cells([column])] * size)
        lines.extend(map(",".join, zip(*columns)))
    return "\n".join(lines) + "\n"


_RUNNERS = {
    "violation": run_violation_experiment,
    "zero_temp": run_zero_temp_sweep,
    "phase": run_phase_diagram,
    "concentration": run_concentration_experiment,
    "random_label": run_random_label_experiment,
}


def run_experiment(config: ExperimentConfig) -> Outcome:
    """Dispatch on config.experiment; write CSV + JSON when output_path is set."""
    outcome = _RUNNERS[config.experiment](config)
    if config.output_path:
        write_result(outcome, config.output_path)
    return outcome


def write_result(outcome: Outcome, output_path) -> None:
    """CSV at output_path, JSON summary alongside with a .json suffix."""
    path = Path(output_path)
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(outcome.csv_text, encoding="utf-8")
    json_path = path.with_suffix(".json")
    json_path.write_text(
        json.dumps(outcome.summary, indent=2, sort_keys=True) + "\n", encoding="utf-8"
    )
