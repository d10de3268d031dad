"""Acceptance suite: every exit criterion as a callable check with a verdict line.

Each criterion function is self-contained (fixed seeds, pinned tolerances)
and returns a CriterionResult; `gibbslab verify <suite>` runs the numbers
SUITES names, prints one line per criterion and its wall time on stderr,
and the pytest acceptance module asserts them individually.
"""

from __future__ import annotations

import itertools
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
from .margins import (
    LabeledPoint,
    LinearHypothesis,
    build_linear_grid,
    grid_space,
    labeled_domain,
    level_set_equality_check,
    margin_value,
)
from .measures import binary_kl_inverse_upper_rows, binary_kl_rows
from .model import (
    DataSet,
    FiniteHypothesisSpace,
    empirical_losses,
    inverse_cdf,
    k_minimizer_space,
    loss_matrix,
    loss_profile,
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
# criteria 1 and 3 draw dataset sizes from 1 to this, and that many uniforms per dataset
MAX_DATASET_SIZE = 32


def _oracle_cases():
    """Criterion 1's 200 (space, empirical losses, hypothesis) draws.

    The scalar draws come first, in the per-case order; every dataset's
    stream then comes from one uniform_rows call, row i cut to its size.
    """
    rng = np.random.Generator(np.random.PCG64(101))
    cases, sizes, seeds = [], [], []
    for _ in range(200):
        h_count = int(rng.integers(2, 17))
        x_count = int(rng.integers(2, 9))
        domain, space = random_loss_table(
            h_count, x_count, int(rng.integers(0, 2**32)), random_prior=bool(rng.integers(0, 2))
        )
        sizes.append(int(rng.integers(1, MAX_DATASET_SIZE + 1)))
        seeds.append(int(rng.integers(0, 2**32)))
        cases.append((domain, space, int(rng.integers(0, h_count))))
    uniforms = uniform_rows(seeds, MAX_DATASET_SIZE)
    for i, (domain, space, h) in enumerate(cases):
        items = inverse_cdf(domain.probs, uniforms[i : i + 1])
        yield space, empirical_losses(loss_matrix(space, domain), items, sizes[i : i + 1])[0], h


def criterion_01() -> CriterionResult:
    """Jump-point complexity agrees with the dense-grid scan on random spaces."""
    start = time.perf_counter()
    grid_step = 1e-4
    betas = np.array(ORACLE_BETAS)
    worst = 0.0
    failures = 0
    for space, empirical, h in _oracle_cases():
        exact, _ = complexity_rows(space, np.tile(empirical, (betas.size, 1)), np.full(betas.size, h), betas)
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

    Yields the space, the (25, H) loss block (each dataset's row five
    times), the hypotheses and the rates.  The scalar draws come first, in
    the per-triple order; every dataset's stream then comes from one
    uniform_rows call, and each space's 5 datasets from one lookup and one
    empirical_losses call.
    """
    rng = np.random.Generator(np.random.PCG64(303))
    draws, seeds = [], []
    for _ in range(400):
        h_count = int(rng.integers(2, 17))
        domain, space = random_loss_table(
            h_count, int(rng.integers(2, 9)), int(rng.integers(0, 2**32))
        )
        sizes, hs, betas = [], [], []
        for _ in range(5):
            sizes.append(int(rng.integers(1, MAX_DATASET_SIZE + 1)))
            seeds.append(int(rng.integers(0, 2**32)))
            for _ in range(5):
                hs.append(int(rng.integers(0, h_count)))
                betas.append(float(10.0 ** rng.uniform(-1.0, 3.0)))
        draws.append((domain, space, sizes, hs, betas))
    uniforms = uniform_rows(seeds, MAX_DATASET_SIZE).reshape(400, 5, MAX_DATASET_SIZE)
    for (domain, space, sizes, hs, betas), block in zip(draws, uniforms):
        empirical = empirical_losses(loss_matrix(space, domain), inverse_cdf(domain.probs, block), sizes)
        yield space, np.repeat(empirical, 5, axis=0), np.array(hs), np.array(betas)


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
        data = sample_dataset(domain, 50, seed=41)
        profile = loss_profile(space, domain, data)
        minimizer = int(np.argmin(profile.empirical))
        expected = math.log(100.0 / k)
        for beta in betas:
            gap = abs(complexity(space, profile.empirical, minimizer, beta).value - expected)
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


def _margin_oracle(values, n: int, error_fraction: float) -> float:
    # independent count arithmetic and exhaustive subset enumeration
    keep = max(1, min(n, math.ceil((1.0 - error_fraction) * n - 1e-9)))
    return max(max(map(min, itertools.combinations(values, size))) for size in range(keep, n + 1))


def criterion_08() -> CriterionResult:
    """Margin selection equals the exhaustive oracle; level sets match; hard margin pays off."""
    rng = np.random.Generator(np.random.PCG64(808))
    oracle_failures = 0
    for _ in range(500):
        n = int(rng.integers(1, 13))
        data = [
            LabeledPoint(tuple(rng.normal(size=2)), int(2 * rng.integers(0, 2) - 1))
            for _ in range(n)
        ]
        angle = rng.uniform(0.0, 2.0 * math.pi)
        h = LinearHypothesis((math.cos(angle), math.sin(angle)), float(rng.normal()))
        r = float(rng.choice([0.0, float(rng.random()), 1.0]))
        values = [
            (sum(u * z for u, z in zip(h.direction, p.z)) - h.bias) * p.y for p in data
        ]
        if margin_value(h, data, r).value != _margin_oracle(values, n, r):
            oracle_failures += 1

    level_failures = 0
    for _ in range(100):
        grid = build_linear_grid(
            int(rng.integers(4, 17)),
            int(rng.integers(1, 8)),
            1.0,
            prior_kind="gaussian-projected" if rng.integers(0, 2) else "uniform",
        )
        data = [
            LabeledPoint(tuple(rng.normal(size=2)), int(2 * rng.integers(0, 2) - 1))
            for _ in range(int(rng.integers(2, 11)))
        ]
        if not level_set_equality_check(grid, data, float(rng.random())):
            level_failures += 1

    # separable pair with hard margin 1: a fine grid must catch a separator
    pair = [LabeledPoint((1.0, 0.0), 1), LabeledPoint((-1.0, 0.0), -1)]
    domain = labeled_domain(pair)
    space = grid_space(build_linear_grid(360, 41, 1.0), domain)
    profile = loss_profile(space, domain, DataSet(domain, np.array([0, 1])))
    mass_at_zero = float(space.prior[profile.empirical <= 0.0].sum())
    lam = complexity(space, profile.empirical, int(np.argmin(profile.empirical)), 1e6).value
    separable_ok = mass_at_zero > 0.0 and math.isfinite(lam) and lam <= -math.log(mass_at_zero) + 1e-9

    passed = oracle_failures == 0 and level_failures == 0 and separable_ok
    detail = (
        f"oracle mismatches {oracle_failures}/500, level-set failures {level_failures}/100, "
        f"separable mass {mass_at_zero:.4f} with complexity {lam:.3f} at beta=1e6"
    )
    return CriterionResult(8, "margin identities", passed, detail)


def criterion_09() -> CriterionResult:
    """Exponential density reproduces the Gibbs RHS; polynomial density stays sound."""
    rng = np.random.Generator(np.random.PCG64(909))
    worst = 0.0
    for _ in range(50):
        h_count = int(rng.integers(2, 17))
        domain, space = random_loss_table(
            h_count, int(rng.integers(2, 9)), int(rng.integers(0, 2**32))
        )
        data = sample_dataset(domain, int(rng.integers(1, 33)), int(rng.integers(0, 2**32)))
        profile = loss_profile(space, domain, data)
        beta = float(10.0 ** rng.uniform(-1.0, 2.0))
        post = normalize_density(space, profile.empirical, exponential_density(beta), beta)
        h = int(rng.integers(0, h_count))
        log_moment, delta = 0.7, 0.1
        gibbs_rhs = complexity(space, profile.empirical, h, beta).value + log_moment - math.log(delta)
        monotone_rhs = complexity(space, profile.empirical, h, post.beta).value + log_moment - math.log(delta)
        worst = max(worst, abs(monotone_rhs - gibbs_rhs))
    equal = worst <= 1e-10

    summary = run_violation_experiment(
        _soundness_config(
            "beyond_gibbs", 1.0, 901, density={"name": "polynomial", "params": {"a": 1.0}}
        )
    )
    wilson = summary.aggregates["wilson_upper_99"]
    sound = wilson <= 0.05
    detail = f"max RHS gap {worst:.1e}; polynomial wilson {wilson:.4f}"
    return CriterionResult(9, "monotone-density equivalence and soundness", equal and sound, detail)


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
