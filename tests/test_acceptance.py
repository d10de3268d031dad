"""Exit criteria, one test per criterion.

Each test executes the corresponding acceptance check at its pinned
tolerance and prints a single pass/fail line (visible with `pytest -s` or
in the captured output of a failing run).  `gibbslab verify acceptance`
runs the same checks from the command line.
"""

import functools
import re

import numpy as np
import pytest
from test_harness import PINNED_PLATFORM, _float_platform

from gibbslab.acceptance import (
    CRITERIA,
    ORACLE_BETAS,
    _dominance_blocks,
    _oracle_cases,
    format_line,
    run_criterion,
)
from gibbslab.gibbs import complexity, complexity_bruteforce, complexity_rows

NAMES = {
    1: "complexity oracle equivalence",
    2: "closed-form checks",
    3: "high-temperature dominance",
    4: "zero-temperature limit",
    5: "bound soundness (relative entropy)",
    6: "stratified sub-Gaussian soundness",
    7: "CDF concentration",
    8: "margin identities",
    9: "monotone-density equivalence and soundness",
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
    9: "criterion 09 PASS  monotone-density equivalence and soundness: max RHS gap 0.0e+00; polynomial wilson 0.0027",
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
    if _float_platform() != PINNED_PLATFORM:
        pytest.skip(f"lines recorded on {PINNED_PLATFORM}, not {_float_platform()}")
    assert re.sub(r"\d+\.\ds\b", "<t>s", format_line(result_of(number))) == PINNED_LINES[number]


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
    # every (space, beta) of criterion 1: one scan and one block call per space
    betas = np.array(ORACLE_BETAS)
    count = 0
    for space, empirical, h in _oracle_cases():
        exact, _ = complexity_rows(space, np.tile(empirical, (betas.size, 1)), np.full(betas.size, h), betas)
        grid = complexity_bruteforce(space, empirical, h, betas, 1e-4)
        assert exact.tobytes() == np.array([complexity(space, empirical, h, b).value for b in ORACLE_BETAS]).tobytes()
        assert grid.tobytes() == np.array([complexity_bruteforce(space, empirical, h, b, 1e-4) for b in ORACLE_BETAS]).tobytes()
        count += betas.size
    assert count == 800
