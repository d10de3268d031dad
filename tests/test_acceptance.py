"""Exit criteria, one test per criterion.

Each test executes the corresponding acceptance check at its pinned
tolerance and prints a single pass/fail line (visible with `pytest -s` or
in the captured output of a failing run).  `gibbslab verify acceptance`
runs the same checks from the command line.
"""

import functools
import math
import re

import dataclasses

import numpy as np
import pytest
from reference import PINNED_PLATFORM, binary_kl_inverse_relaxed, float_platform, inverse_upper_reference, loss_profile

from gibbslab import acceptance
from gibbslab.acceptance import (
    CRITERIA,
    ORACLE_BETAS,
    _dominance_blocks,
    _margin_cases,
    _oracle_cases,
    _ratio_cases,
    _round_trips,
    format_line,
    run_criterion,
)
from gibbslab.gibbs import complexity, complexity_bruteforce, complexity_rows
from gibbslab.measures import binary_kl
from gibbslab.model import random_loss_table, sample_dataset

NAMES = {
    1: "complexity oracle equivalence",
    2: "closed-form checks",
    3: "high-temperature dominance",
    4: "zero-temperature limit",
    5: "bound soundness (relative entropy)",
    6: "stratified sub-Gaussian soundness",
    7: "CDF concentration",
    8: "margin identities",
    9: "density-ratio dominance and monotone-density soundness",
    10: "divergence inverse round-trip",
    11: "run determinism",
    12: "phase-diagram shape",
}

# each criterion's verdict line with elapsed seconds masked, recorded from the
# per-call complexity loops the batched calls replaced; the printed gaps
# depend on numpy's vectorized log, so they hold for PINNED_PLATFORM
PINNED_LINES = {
    1: "criterion 01 PASS  complexity oracle equivalence: 0 mismatches over 800 checks, worst gap/beta 9.99e-05, <t>s",
    2: "criterion 02 PASS  closed-form checks: 4/4 closed forms matched",
    3: "criterion 03 PASS  high-temperature dominance: 0 failures over 10000 triples",
    4: "criterion 04 PASS  zero-temperature limit: worst |complexity - limit| = 8.88e-16",
    5: "criterion 05 PASS  bound soundness (relative entropy): beta=10: wilson 0.0027 in <t>s;"
    " beta=50: wilson 0.0027 in <t>s; beta=500: wilson 0.0027 in <t>s",
    6: "criterion 06 PASS  stratified sub-Gaussian soundness: beta=10: wilson 0.0027; beta=50: wilson 0.0027;"
    " beta=500: wilson 0.0027",
    7: "criterion 07 PASS  CDF concentration: n=50: wilson (i) 0.0054, (ii) 0.0054; n=200: wilson (i) 0.0054,"
    " (ii) 0.0054; |shift - 0.28992450596248126| = 0.0e+00",
    8: "criterion 08 PASS  margin identities: oracle mismatches 0/500, level-set failures 0/100,"
    " separable mass 0.3099 with complexity 1.172 at beta=1e6",
    9: "criterion 09 PASS  density-ratio dominance and monotone-density soundness: 0 density-ratio excesses"
    " over 469 pairs, worst -2.2e-09; polynomial wilson 0.0027",
    10: "criterion 10 PASS  divergence inverse round-trip: worst |kl(p, q*) - budget| = 2.2e-16, dominance failures 0",
    11: "criterion 11 PASS  run determinism: csv identical: True, json identical: True",
    12: "criterion 12 PASS  phase-diagram shape: 4 diagonal-regime rows ok: True; 4 plateau rows ok: True;"
    " ordering: True",
}


@functools.cache
def result_of(number):
    return run_criterion(number)


@pytest.mark.parametrize("number", sorted(CRITERIA))
def test_criterion(number):
    result = result_of(number)
    print(format_line(result))
    assert result.name == NAMES[number]
    assert result.passed, format_line(result)


@pytest.mark.parametrize("number", sorted(CRITERIA))
def test_verdict_line_matches_pinned(number):
    if float_platform() != PINNED_PLATFORM:
        pytest.skip(f"lines recorded on {PINNED_PLATFORM}, not {float_platform()}")
    assert re.sub(r"\d+\.\ds\b", "<t>s", format_line(result_of(number))) == PINNED_LINES[number]


def test_run_determinism_prints_nothing(capsys):
    # the CLI runs inside criterion 11 print their temporary report paths, which differ from run to run
    assert run_criterion(11).passed
    assert capsys.readouterr().out == ""


def test_density_ratio_check_fails_when_log_partition_is_lowered(monkeypatch):
    # a ln Z lowered by 0.01 raises every density ratio by 0.01, past the worst margin of 2.2e-9
    def lowered(*args):
        post = normalize_density(*args)
        return dataclasses.replace(post, log_partition=post.log_partition - 0.01)

    normalize_density = acceptance.normalize_density
    monkeypatch.setattr(acceptance, "normalize_density", lowered)
    result = acceptance.criterion_09()
    assert not result.passed
    assert not result.detail.startswith("0 density-ratio excesses")


def test_dominance_blocks_match_per_call_complexity():
    # every triple of criterion 3: its block value carries the bits of the one-row call
    count = 0
    for space, losses, hs, betas in _dominance_blocks():
        values, shifts = complexity_rows(space, losses, hs, betas)
        single = [complexity(space, row, int(h), float(b)) for row, h, b in zip(losses, hs, betas)]
        assert values.tobytes() == np.array([c.value for c in single]).tobytes()
        assert shifts.tobytes() == np.array([c.argmin_shift for c in single]).tobytes()
        count += len(values)
    assert count == 10_000


def test_oracle_cases_match_per_call_values():
    # every (space, beta) of criterion 1: one scan and one call on the shared loss row per space
    betas = np.array(ORACLE_BETAS)
    count = 0
    for space, empirical, h in _oracle_cases():
        exact, _ = complexity_rows(space, empirical[None], np.full(betas.size, h), betas)
        grid = complexity_bruteforce(space, empirical, h, betas, 1e-4)
        assert exact.tobytes() == np.array([complexity(space, empirical, h, b).value for b in ORACLE_BETAS]).tobytes()
        assert grid.tobytes() == np.array([complexity_bruteforce(space, empirical, h, b, 1e-4) for b in ORACLE_BETAS]).tobytes()
        count += betas.size
    assert count == 800


def oracle_cases_reference():
    """Criterion 1's draws with one generator, one DataSet and one LossProfile per dataset."""
    rng = np.random.Generator(np.random.PCG64(101))
    for _ in range(200):
        h_count = int(rng.integers(2, 17))
        x_count = int(rng.integers(2, 9))
        domain, space = random_loss_table(
            h_count, x_count, int(rng.integers(0, 2**32)), random_prior=bool(rng.integers(0, 2))
        )
        data = sample_dataset(domain, int(rng.integers(1, 33)), int(rng.integers(0, 2**32)))
        profile = loss_profile(space, domain, data)
        yield space, profile.empirical, int(rng.integers(0, h_count))


def dominance_blocks_reference():
    """Criterion 3's draws in its array layout, with one DataSet and one LossProfile per dataset."""
    rng = np.random.Generator(np.random.PCG64(303))
    h_counts, x_counts, seeds = rng.integers(2, 17, 400), rng.integers(2, 9, 400), rng.integers(0, 2**32, 400)
    sizes, data_seeds = rng.integers(1, 33, (400, 5)), rng.integers(0, 2**32, (400, 5))
    hs = rng.integers(0, h_counts[:, None], (400, 25))
    betas = 10.0 ** rng.uniform(-1.0, 3.0, (400, 25))
    for i in range(400):
        domain, space = random_loss_table(int(h_counts[i]), int(x_counts[i]), int(seeds[i]))
        rows = []
        for size, seed in zip(sizes[i], data_seeds[i]):
            data = sample_dataset(domain, int(size), int(seed))
            rows.extend([loss_profile(space, domain, data).empirical] * 5)
        yield space, np.array(rows), hs[i], betas[i]


def test_oracle_cases_match_per_call_datasets():
    count = 0
    for (space, empirical, h), (ref_space, ref_empirical, ref_h) in zip(
        _oracle_cases(), oracle_cases_reference(), strict=True
    ):
        assert space.table.tobytes() == ref_space.table.tobytes()
        assert space.prior.tobytes() == ref_space.prior.tobytes()
        assert empirical.tobytes() == ref_empirical.tobytes()
        assert h == ref_h
        count += 1
    assert count == 200


def ratio_cases_reference():
    """Criterion 9's draws with one generator, one DataSet and one LossProfile per dataset."""
    rng = np.random.Generator(np.random.PCG64(909))
    for _ in range(50):
        h_count = int(rng.integers(2, 17))
        domain, space = random_loss_table(h_count, int(rng.integers(2, 9)), int(rng.integers(0, 2**32)))
        data = sample_dataset(domain, int(rng.integers(1, 33)), int(rng.integers(0, 2**32)))
        beta = float(10.0 ** rng.uniform(-1.0, 2.0))
        rng.integers(0, h_count)
        yield space, loss_profile(space, domain, data).empirical, beta


def test_ratio_cases_match_per_call_datasets():
    count = 0
    for (space, empirical, beta), (ref_space, ref_empirical, ref_beta) in zip(
        _ratio_cases(), ratio_cases_reference(), strict=True
    ):
        assert space.table.tobytes() == ref_space.table.tobytes()
        assert space.prior.tobytes() == ref_space.prior.tobytes()
        assert empirical.tobytes() == ref_empirical.tobytes()
        assert beta == ref_beta
        count += 1
    assert count == 50


def test_dominance_blocks_match_per_call_datasets():
    count = 0
    for block, reference in zip(_dominance_blocks(), dominance_blocks_reference(), strict=True):
        space, losses, hs, betas = block
        ref_space, ref_losses, ref_hs, ref_betas = reference
        assert space.table.tobytes() == ref_space.table.tobytes()
        assert space.prior.tobytes() == ref_space.prior.tobytes()
        assert losses.tobytes() == ref_losses.tobytes()
        assert hs.tobytes() == ref_hs.tobytes() and betas.tobytes() == ref_betas.tobytes()
        count += 1
    assert count == 400


def test_dominance_blocks_draw_their_ranges():
    # 400 spaces of 2 to 16 hypotheses on 2 to 8 points, each with 5 datasets x 5 (hypothesis, beta) draws
    blocks = list(_dominance_blocks())
    assert len(blocks) == 400
    shapes = {space.table.shape for space, *_ in blocks}
    assert {h for h, _ in shapes} == set(range(2, 17)) and {x for _, x in shapes} == set(range(2, 9))
    for space, losses, hs, betas in blocks:
        assert losses.shape == (25, len(space)) and hs.shape == betas.shape == (25,)
        assert (losses.reshape(5, 5, -1) == losses[::5, None]).all()
        assert hs.min() >= 0 and hs.max() < len(space)
    betas = np.concatenate([block[3] for block in blocks])
    assert betas.size == 10_000 and 0.1 <= betas.min() and betas.max() < 1000.0
    # the rates spread over all four decades
    assert np.histogram(np.log10(betas), bins=4, range=(-1.0, 3.0))[0].min() > 2000


def test_margin_cases_draw_their_ranges():
    oracle, level = _margin_cases()
    assert len(oracle) == 500 and len(level) == 100
    sizes = [len(data.labels) for data, *_ in oracle]
    assert set(sizes) == set(range(1, 13))
    fractions = np.array([r for *_, r in oracle])
    assert 0.0 <= fractions.min() and fractions.max() <= 1.0
    # 0, a uniform or 1, each about a third of the time
    assert all(100 < count < 230 for count in ((fractions == 0.0).sum(), (fractions == 1.0).sum()))
    for data, direction, bias, _ in oracle:
        assert set(data.labels.tolist()) <= {-1, 1} and data.coords.shape == (len(data.labels), 2)
        assert abs(math.hypot(*direction) - 1.0) < 1e-12 and math.isfinite(bias)
    assert {len(data.labels) for _, data, _ in level} == set(range(2, 11))
    bias_steps = [len(np.unique(grid.biases)) for grid, *_ in level]
    assert set(bias_steps) == set(range(1, 8))
    assert {len(grid) // b for (grid, *_), b in zip(level, bias_steps)} == set(range(4, 17))
    assert all(0.0 <= r < 1.0 for *_, r in level)


def test_criteria_3_and_8_repeat_from_a_cold_and_a_warm_table():
    acceptance._index_sets.cache_clear()
    cold = [run_criterion(number).detail for number in (3, 8)]
    assert acceptance._index_sets.cache_info().currsize == 12
    warm = [run_criterion(number).detail for number in (3, 8)]
    assert cold == warm


def test_round_trips_match_per_pair_calls():
    # criterion 10's arrays against its per-pair loop: scalar draws, binary_kl, the bisection over
    # binary_kl calls and binary_kl_inverse_relaxed
    rng = np.random.Generator(np.random.PCG64(1010))
    rows = []
    for _ in range(10_000):
        p = float(rng.random() * 0.999)
        budget = binary_kl(p, p + (1.0 - p) * (0.01 + 0.96 * float(rng.random())))
        rows.append((p, budget, inverse_upper_reference(p, budget), binary_kl_inverse_relaxed(p, budget)))
    for got, expected in zip(_round_trips(), zip(*rows), strict=True):
        assert got.tobytes() == np.array(expected).tobytes()
