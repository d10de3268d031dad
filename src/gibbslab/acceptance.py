"""Acceptance suite: every exit criterion as a callable check with a verdict line.

Each criterion function is self-contained (fixed seeds, pinned tolerances)
and returns a CriterionResult; `gibbslab verify <suite>` runs the numbers
SUITES names, prints one line per criterion and its wall time on stderr,
and the pytest acceptance module asserts them individually.
"""

from __future__ import annotations

import functools
import json
import math
import tempfile
import time
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .bounds import binary_kl_bound, shift_radius
from .gibbs import (
    complexity,
    complexity_bruteforce,
    complexity_rows,
    exponential_density,
    normalize_density,
    posterior,
)
from .harness import (
    ExperimentConfig,
    run_concentration_experiment,
    run_phase_diagram,
    run_violation_experiment,
)
from .margins import LabeledData, LinearGrid, build_linear_grid, grid_space, level_set_equality_check, margin_values
from .measures import binary_kl_inverse_upper_rows, binary_kl_rows
from .model import (
    FiniteHypothesisSpace,
    empirical_losses,
    inverse_cdf,
    k_minimizer_space,
    loss_matrix,
    random_loss_table,
    sample_dataset,
)
from .streams import uniform_rows

__all__ = ["CriterionResult", "CRITERIA", "SUITES", "run_criterion", "format_line"]

# sqrt(ln((1 + 100**3)/0.05) / 200) at 50-digit precision, rounded to float
SHIFT_RADIUS_100 = 0.28992450596248125


@dataclass(frozen=True)
class CriterionResult:
    number: int
    name: str
    passed: bool
    detail: str


def format_line(result: CriterionResult) -> str:
    verdict = "PASS" if result.passed else "FAIL"
    return f"criterion {result.number:02d} {verdict}  {result.name}: {result.detail}"


def _e1_space():
    # two hypotheses, fair prior, losses pinned at 0 and 1
    return FiniteHypothesisSpace([[0.0], [1.0]], [0.5, 0.5]), np.array([0.0, 1.0])


# the rates of criterion 1, each checked on every one of its spaces
ORACLE_BETAS = (0.1, 1.0, 10.0, 1e3)
# criteria 1, 3 and 9 draw dataset sizes from 1 to this, and that many uniforms per dataset
MAX_DATASET_SIZE = 32


def _random_space(rng: np.random.Generator, random_prior: bool = False):
    """A random_loss_table space of 2 to 16 hypotheses on 2 to 8 points; with random_prior, a coin picks the prior."""
    h_count, x_count, seed = int(rng.integers(2, 17)), int(rng.integers(2, 9)), int(rng.integers(0, 2**32))
    return random_loss_table(h_count, x_count, seed, random_prior=random_prior and bool(rng.integers(0, 2)))


def _dataset_draw(rng: np.random.Generator) -> tuple[int, int]:
    """A dataset's size in [1, MAX_DATASET_SIZE] and its seed."""
    return int(rng.integers(1, MAX_DATASET_SIZE + 1)), int(rng.integers(0, 2**32))


def _case_losses(cases: list):
    """(space, empirical losses, extra) of every (domain, space, datasets, extra) case, all with as many datasets.

    datasets holds (size, seed) pairs; row i of a case's losses is its
    dataset i, the first size points of the stream sample_dataset draws
    for that seed.  Every stream of every case comes from one uniform_rows call.
    """
    # the seeds are drawn below 2**32 here, so they go in as one array without a check per seed
    seeds = np.array([seed for case in cases for _, seed in case[2]], dtype=np.uint64)
    uniforms = uniform_rows(seeds, MAX_DATASET_SIZE).reshape(len(cases), -1, MAX_DATASET_SIZE)
    for (domain, space, datasets, extra), rows in zip(cases, uniforms):
        sizes = [size for size, _ in datasets]
        yield space, empirical_losses(loss_matrix(space, domain), inverse_cdf(domain.probs, rows), sizes), extra


def _oracle_cases():
    """Criterion 1's 200 (space, empirical losses, hypothesis) draws."""
    rng = np.random.Generator(np.random.PCG64(101))
    cases = []
    for _ in range(200):
        domain, space = _random_space(rng, random_prior=True)
        cases.append((domain, space, [_dataset_draw(rng)], int(rng.integers(0, len(space)))))
    for space, empirical, h in _case_losses(cases):
        yield space, empirical[0], h


def criterion_01() -> CriterionResult:
    """Jump-point complexity agrees with the dense-grid scan on random spaces."""
    start = time.perf_counter()
    grid_step = 1e-4
    betas = np.array(ORACLE_BETAS)
    worst = 0.0
    failures = 0
    for space, empirical, h in _oracle_cases():
        exact, _ = complexity_rows(space, empirical[None], np.full(betas.size, h), betas)
        grid = complexity_bruteforce(space, empirical, h, betas, grid_step)
        for beta, gap in zip(ORACLE_BETAS, (grid - exact).tolist()):
            if gap < -1e-9 or gap > beta * grid_step + 1e-9:
                failures += 1
            worst = max(worst, gap / beta)
    elapsed = time.perf_counter() - start
    passed = failures == 0 and elapsed < 10.0
    return CriterionResult(
        1,
        "complexity oracle equivalence",
        passed,
        f"{failures} mismatches over 800 checks, worst gap/beta {worst:.2e}, {elapsed:.1f}s",
    )


def criterion_02() -> CriterionResult:
    """Closed-form values on the two-hypothesis space at unit temperature."""
    space, losses = _e1_space()
    ln2 = math.log(2.0)
    post = posterior(space, losses, 1.0)
    checks = [
        abs(complexity(space, losses, 0, 1.0).value - ln2) <= 1e-12,
        abs(complexity(space, losses, 1, 1.0).value - (ln2 - 1.0)) <= 1e-12,
        abs(post.log_partition - math.log(0.5 + 0.5 * math.exp(-1.0))) <= 1e-12,
        abs(post.weights[0] - 0.731059) <= 1e-6,
    ]
    return CriterionResult(
        2, "closed-form checks", all(checks), f"{sum(checks)}/4 closed forms matched"
    )


def _dominance_blocks():
    """Criterion 3's 400 spaces, each with its 5 datasets x 5 (hypothesis, beta) draws as one block.

    Every draw is one array call on the generator: the spaces' hypothesis
    counts, point counts and seeds, then the datasets' sizes and seeds, the
    hypotheses (each below its space's count) and the rates.  Yields the
    space, the (25, H) loss block (each dataset's row five times), the
    hypotheses and the rates.
    """
    rng = np.random.Generator(np.random.PCG64(303))
    h_counts, x_counts, seeds = rng.integers(2, 17, 400), rng.integers(2, 9, 400), rng.integers(0, 2**32, 400)
    sizes, data_seeds = rng.integers(1, MAX_DATASET_SIZE + 1, (400, 5)), rng.integers(0, 2**32, (400, 5))
    hs = rng.integers(0, h_counts[:, None], (400, 25))
    betas = 10.0 ** rng.uniform(-1.0, 3.0, (400, 25))
    cases = [
        (*random_loss_table(h_count, x_count, seed), list(zip(size_row, seed_row)), (h_row, beta_row))
        for h_count, x_count, seed, size_row, seed_row, h_row, beta_row in zip(
            h_counts.tolist(), x_counts.tolist(), seeds.tolist(), sizes.tolist(), data_seeds.tolist(), hs, betas
        )
    ]
    for space, empirical, (h_row, beta_row) in _case_losses(cases):
        yield space, np.repeat(empirical, 5, axis=0), h_row, beta_row


def criterion_03() -> CriterionResult:
    """Complexity never exceeds beta when losses live in [0, 1]."""
    failures = 0
    count = 0
    for space, losses, hs, betas in _dominance_blocks():
        values, _ = complexity_rows(space, losses, hs, betas)
        count += values.size
        failures += int(np.count_nonzero(values > betas * (1.0 + 1e-12) + 1e-12))
    return CriterionResult(
        3, "high-temperature dominance", failures == 0, f"{failures} failures over {count} triples"
    )


def criterion_04() -> CriterionResult:
    """Minimizer complexity attains ln(1/minimizer mass) at low temperature."""
    betas = [10.0 * math.log(100.0), 60.0, 100.0, 1e4, 1e9]
    worst = 0.0
    passed = True
    for k in (1, 4, 20):
        domain, space = k_minimizer_space(100, k, seed=40 + k)
        empirical = empirical_losses(loss_matrix(space, domain), sample_dataset(domain, 50, 41).item_indices[None])[0]
        minimizer = int(np.argmin(empirical))
        expected = math.log(100.0 / k)
        for beta in betas:
            gap = abs(complexity(space, empirical, minimizer, beta).value - expected)
            worst = max(worst, gap)
            passed = passed and gap <= 1e-9
    return CriterionResult(
        4, "zero-temperature limit", passed, f"worst |complexity - limit| = {worst:.2e}"
    )


def _soundness_config(bound_kind: str, beta: float, master_seed: int, density=None) -> ExperimentConfig:
    return ExperimentConfig(
        experiment="violation",
        space_spec={
            "name": "random_loss_table",
            "params": {"num_hypotheses": 64, "num_points": 16, "seed": 7},
        },
        n=50,
        beta_grid=(beta,),
        delta=0.05,
        trials=2000,
        master_seed=master_seed,
        bound_kind=bound_kind,
        sigma=0.5,
        density=density,
    )


def criterion_05() -> CriterionResult:
    """Relative-entropy bound violated in at most a delta fraction of trials."""
    details = []
    passed = True
    for i, beta in enumerate((10.0, 50.0, 500.0)):
        start = time.perf_counter()
        wilson = run_violation_experiment(_soundness_config("kl", beta, 500 + i)).aggregates["wilson_upper_99"]
        elapsed = time.perf_counter() - start
        ok = wilson <= 0.05 and elapsed < 120.0
        passed = passed and ok
        details.append(f"beta={beta:g}: wilson {wilson:.4f} in {elapsed:.1f}s")
    return CriterionResult(5, "bound soundness (relative entropy)", passed, "; ".join(details))


def criterion_06() -> CriterionResult:
    """Stratified sub-Gaussian bound violated in at most a delta fraction of trials."""
    details = []
    passed = True
    for i, beta in enumerate((10.0, 50.0, 500.0)):
        wilson = run_violation_experiment(_soundness_config("stratify", beta, 600 + i)).aggregates["wilson_upper_99"]
        ok = wilson <= 0.05
        passed = passed and ok
        details.append(f"beta={beta:g}: wilson {wilson:.4f}")
    return CriterionResult(6, "stratified sub-Gaussian soundness", passed, "; ".join(details))


def criterion_07() -> CriterionResult:
    """CDF concentration holds per part, and the shift radius matches its formula."""
    details = []
    passed = True
    for i, n in enumerate((50, 200)):
        config = ExperimentConfig(
            experiment="concentration",
            space_spec={
                "name": "random_loss_table",
                "params": {"num_hypotheses": 64, "num_points": 16, "seed": 7},
            },
            n=n,
            beta_grid=(1.0,),
            delta=0.05,
            trials=1000,
            master_seed=700 + i,
            p=1,
        )
        parts = run_concentration_experiment(config).aggregates
        wilson_i, wilson_ii = parts["part_i"]["wilson_upper_99"], parts["part_ii"]["wilson_upper_99"]
        ok = wilson_i <= 0.05 and wilson_ii <= 0.05
        passed = passed and ok
        details.append(f"n={n}: wilson (i) {wilson_i:.4f}, (ii) {wilson_ii:.4f}")
    shift_gap = abs(shift_radius(100, 0.05, 1) - SHIFT_RADIUS_100)
    passed = passed and shift_gap <= 1e-6
    details.append(f"|shift - {SHIFT_RADIUS_100}| = {shift_gap:.1e}")
    return CriterionResult(7, "CDF concentration", passed, "; ".join(details))


@functools.lru_cache(maxsize=None)
def _index_sets(n: int) -> np.ndarray:
    """Every nonempty index set of range(n) as a read-only boolean mask row, in itertools.combinations order.

    Rows run by size, then lexicographically.  Within a size, the
    lexicographic order of the sorted index tuples is the descending order
    of the masks read as binary numbers with index 0 as the top bit.
    """
    codes = np.arange(1, 2**n)
    masks = (codes[:, None] >> np.arange(n - 1, -1, -1) & 1).astype(bool)
    masks = masks[np.lexsort((-codes, masks.sum(axis=1)))]
    masks.setflags(write=False)
    return masks


def _margin_oracle(values, n: int, error_fraction: float) -> float:
    """The best min over every index set of at least keep of the n finite values, enumerated exhaustively.

    The sets are read in itertools.combinations order from size keep on;
    each set's min is its first minimal member and the answer the first
    maximal set value, as Python's min and max keep them, signed zeros
    included.
    """
    # independent count arithmetic
    keep = max(1, min(n, math.ceil((1.0 - error_fraction) * n - 1e-9)))
    values = np.asarray(values, dtype=float)
    sets = _index_sets(n)[sum(math.comb(n, size) for size in range(1, keep)) :]
    minima = values[np.argmin(np.where(sets, values, np.inf), axis=1)]
    return float(minima[np.argmax(minima)])


def _random_points(rng: np.random.Generator, sizes: np.ndarray) -> list[LabeledData]:
    """One set of standard normal points in the plane with fair random labels per size, from two array draws."""
    total, bounds = int(sizes.sum()), np.cumsum(sizes)[:-1]
    coords = np.split(rng.normal(size=(total, 2)), bounds)
    labels = np.split(2 * rng.integers(0, 2, total) - 1, bounds)
    return [LabeledData(z, y) for z, y in zip(coords, labels)]


def _margin_cases() -> tuple[list, list]:
    """Criterion 8's 500 oracle cases and 100 level-set cases, each draw one array call.

    An oracle case is (points, direction, bias, error fraction), a level-set
    case (grid, points, error fraction).  The draws: the oracle cases'
    point counts in [1, 12], points, angles, biases and fractions (0, a
    uniform or 1, each with probability 1/3), then the level-set grids'
    angular steps in [4, 16], bias steps in [1, 7] and prior coins, their
    point counts in [2, 10], points and fractions.
    """
    rng = np.random.Generator(np.random.PCG64(808))
    points = _random_points(rng, rng.integers(1, 13, 500))
    angles, biases = rng.uniform(0.0, 2.0 * math.pi, 500), rng.normal(size=500)
    fractions = np.choose(rng.integers(0, 3, 500), (0.0, rng.random(500), 1.0))
    directions = np.stack([np.cos(angles), np.sin(angles)], axis=1)
    oracle = list(zip(points, directions.tolist(), biases.tolist(), fractions.tolist()))

    angular, bias_steps, coins = rng.integers(4, 17, 100), rng.integers(1, 8, 100), rng.integers(0, 2, 100)
    grids = [
        build_linear_grid(a, b, 1.0, prior_kind="gaussian-projected" if coin else "uniform")
        for a, b, coin in zip(angular.tolist(), bias_steps.tolist(), coins.tolist())
    ]
    level = list(zip(grids, _random_points(rng, rng.integers(2, 11, 100)), rng.random(100).tolist()))
    return oracle, level


def criterion_08() -> CriterionResult:
    """Margin selection equals the exhaustive oracle; level sets match; hard margin pays off."""
    oracle, level = _margin_cases()
    oracle_failures = 0
    for data, direction, bias, r in oracle:
        # <direction, z> - bias from 0.0, in the operation order of the scalar score
        values = (0.0 + direction[0] * data.coords[:, 0] + direction[1] * data.coords[:, 1] - bias) * data.labels
        if margin_values(LinearGrid([direction], [bias], [1.0]), data, r)[0] != _margin_oracle(values, len(values), r):
            oracle_failures += 1

    level_failures = sum(not level_set_equality_check(grid, data, r) for grid, data, r in level)

    # separable pair with hard margin 1: a fine grid must catch a separator
    pair = LabeledData([(1.0, 0.0), (-1.0, 0.0)], [1, -1])
    domain, space = grid_space(build_linear_grid(360, 41, 1.0), pair)
    empirical = empirical_losses(loss_matrix(space, domain), np.array([[0, 1]]))[0]
    mass_at_zero = float(space.prior[empirical <= 0.0].sum())
    lam = complexity(space, empirical, int(np.argmin(empirical)), 1e6).value
    separable_ok = mass_at_zero > 0.0 and math.isfinite(lam) and lam <= -math.log(mass_at_zero) + 1e-9

    passed = oracle_failures == 0 and level_failures == 0 and separable_ok
    detail = (
        f"oracle mismatches {oracle_failures}/500, level-set failures {level_failures}/100, "
        f"separable mass {mass_at_zero:.4f} with complexity {lam:.3f} at beta=1e6"
    )
    return CriterionResult(8, "margin identities", passed, detail)


def _ratio_cases():
    """Criterion 9's 50 (space, empirical losses, beta) draws."""
    rng = np.random.Generator(np.random.PCG64(909))
    cases = []
    for _ in range(50):
        domain, space = _random_space(rng)
        cases.append((domain, space, [_dataset_draw(rng)], float(10.0 ** rng.uniform(-1.0, 2.0))))
        rng.integers(0, len(space))  # the hypothesis draw, kept so later spaces stay as pinned
    for space, empirical, beta in _case_losses(cases):
        yield space, empirical[0], beta


def criterion_09() -> CriterionResult:
    """The Gibbs density ratio never exceeds the complexity; polynomial density stays sound.

    At every hypothesis h, ln (dG_beta/dpi)(h) = -beta L(h) - ln Z <= Lambda_beta(h):
    Z >= pi(L <= L(h) + r) exp(-beta (L(h) + r)) for every shift r.  The
    ratio reads the posterior's ln Z, the complexity the step CDF.
    """
    worst, pairs, failures = -math.inf, 0, 0
    for space, empirical, beta in _ratio_cases():
        h_count = len(space)
        log_z = normalize_density(space, empirical, exponential_density(beta), beta).log_partition
        lams, _ = complexity_rows(space, empirical[None], np.arange(h_count), beta)
        excess = -beta * empirical - log_z - lams
        failures += int(np.count_nonzero(excess > 1e-12 * np.maximum(1.0, np.abs(lams))))
        worst = max(worst, float(excess.max()))
        pairs += h_count

    summary = run_violation_experiment(
        _soundness_config(
            "beyond_gibbs", 1.0, 901, density={"name": "polynomial", "params": {"a": 1.0}}
        )
    )
    wilson = summary.aggregates["wilson_upper_99"]
    sound = wilson <= 0.05
    detail = f"{failures} density-ratio excesses over {pairs} pairs, worst {worst:.1e}; polynomial wilson {wilson:.4f}"
    return CriterionResult(9, "density-ratio dominance and monotone-density soundness", failures == 0 and sound, detail)


def _round_trips():
    """Criterion 10's 10,000 (p, budget) pairs with the exact inverse q* of each and its closed-form relaxation."""
    # the pairs' uniforms alternate in one stream, as scalar draws would
    u = np.random.Generator(np.random.PCG64(1010)).random(20_000)
    p = u[0::2] * 0.999
    q = p + (1.0 - p) * (0.01 + 0.96 * u[1::2])
    budget = binary_kl_rows(p, q)
    # binary_kl_inverse_relaxed's formula; np.sqrt rounds as math.sqrt does
    relaxed = p + np.sqrt(2.0 * p * budget) + 2.0 * budget
    return p, budget, binary_kl_inverse_upper_rows(p, budget), relaxed


def criterion_10() -> CriterionResult:
    """Numeric inverse round-trips the divergence; the relaxation dominates it."""
    p, budget, q_star, relaxed = _round_trips()
    worst = float(np.max(np.abs(binary_kl_rows(p, q_star) - budget)))
    dominance_failures = int(np.count_nonzero(relaxed < q_star))
    passed = worst <= 1e-10 and dominance_failures == 0
    return CriterionResult(
        10,
        "divergence inverse round-trip",
        passed,
        f"worst |kl(p, q*) - budget| = {worst:.1e}, dominance failures {dominance_failures}",
    )


def criterion_11() -> CriterionResult:
    """Running the CLI twice on one config writes byte-identical outputs."""
    from . import cli  # runtime import; cli imports this module

    with tempfile.TemporaryDirectory() as tmp:
        out = Path(tmp) / "run.csv"
        config = {
            "experiment": "violation",
            "space_spec": {
                "name": "random_loss_table",
                "params": {"num_hypotheses": 16, "num_points": 8, "seed": 3},
            },
            "n": 50,
            "beta_grid": [10.0],
            "delta": 0.05,
            "trials": 200,
            "master_seed": 99,
            "output_path": str(out),
        }
        cfg_path = Path(tmp) / "config.json"
        cfg_path.write_text(json.dumps(config), encoding="utf-8")
        code_a = cli.main(["run", str(cfg_path)])
        first = (out.read_bytes(), out.with_suffix(".json").read_bytes())
        code_b = cli.main(["run", str(cfg_path)])
        second = (out.read_bytes(), out.with_suffix(".json").read_bytes())
    passed = first == second and code_a == 0 and code_b == 0
    return CriterionResult(
        11,
        "run determinism",
        passed,
        f"csv identical: {first[0] == second[0]}, json identical: {first[1] == second[1]}",
    )


def criterion_12() -> CriterionResult:
    """Phase-diagram shape: diagonal regime at small beta, exact plateau at large beta."""
    ln25 = math.log(25.0)
    n, delta = 50, 0.05
    config = ExperimentConfig(
        experiment="phase",
        space_spec={
            "name": "k_minimizer_space",
            "params": {"num_hypotheses": 100, "num_minimizers": 4, "seed": 12},
        },
        n=n,
        beta_grid=(0.1, 0.5, 1.0, 0.5 * ln25, 10.0 * ln25, 50.0, 200.0, 1000.0),
        delta=delta,
        trials=1,
        master_seed=120,
    )
    outcome = run_phase_diagram(config)
    slack = binary_kl_bound(0.0, n, delta)
    diag_ok = all(
        abs(row.kl - row.diagonal) <= slack + 1e-12
        for row in outcome.rows
        if row.beta <= 0.5 * ln25 + 1e-12
    )
    plateau_ok = all(
        abs(row.kl - (row.plateau + slack)) <= 1e-9
        for row in outcome.rows
        if row.beta >= 10.0 * ln25 - 1e-12
    )
    low = sum(1 for row in outcome.rows if row.beta <= 0.5 * ln25 + 1e-12)
    high = sum(1 for row in outcome.rows if row.beta >= 10.0 * ln25 - 1e-12)
    passed = diag_ok and plateau_ok and outcome.passed and low > 0 and high > 0
    detail = (
        f"{low} diagonal-regime rows ok: {diag_ok}; {high} plateau rows ok: {plateau_ok}; "
        f"ordering: {outcome.passed}"
    )
    return CriterionResult(12, "phase-diagram shape", passed, detail)


CRITERIA = {
    1: criterion_01,
    2: criterion_02,
    3: criterion_03,
    4: criterion_04,
    5: criterion_05,
    6: criterion_06,
    7: criterion_07,
    8: criterion_08,
    9: criterion_09,
    10: criterion_10,
    11: criterion_11,
    12: criterion_12,
}

SUITES = {
    "acceptance": tuple(range(1, 13)),
    "exactness": (1, 2, 3, 4, 10),
    "soundness": (5, 6, 9),
    "concentration": (7,),
    "margins": (8,),
    "determinism": (11,),
    "phase": (12,),
    "quick": (2, 3, 10, 11),
}


def run_criterion(number: int) -> CriterionResult:
    return CRITERIA[number]()
