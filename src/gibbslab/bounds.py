"""Right-hand sides of the high-probability generalization bounds.

Every evaluator is a closed-form formula in numbers the caller computes
(a complexity, a decay rate or a prior mass) and the sample size and the
confidence level.  None takes an exponential-moment bound, and nothing
here estimates moments from samples, since that would invalidate the
probability accounting of the bounds.
"""

from __future__ import annotations

import math

import numpy as np

from .measures import per_element

__all__ = [
    "binary_kl_bound",
    "high_temperature_bound",
    "minimizer_mass_bound",
    "stratified_subgaussian_bound",
    "stratified_subgaussian_bound_rows",
    "shift_radius",
]


def _check_delta(delta: float) -> float:
    if not 0.0 < delta <= 1.0:
        raise ValueError(f"delta must lie in (0, 1], got {delta}")
    return float(delta)


def _check_sample_size(n: int, minimum: int = 1) -> int:
    if n < minimum:
        raise ValueError(f"requires n >= {minimum}, got {n}")
    return int(n)


def _log_confidence(n: int, delta: float) -> float:
    # ln(2 sqrt(n) / delta), stable for huge n
    return math.log(2.0) + 0.5 * math.log(n) - math.log(delta)


def binary_kl_bound(complexity: float, n: int, delta: float) -> float:
    """(complexity + ln(2 sqrt(n)/delta)) / n, for losses in [0,1] and n >= 8.

    Bounds the Bernoulli relative entropy between empirical and true loss
    of a posterior draw; the caller asserts the loss range.  An array of
    complexities gives the bound of each, with the same bits.
    """
    _check_delta(delta)
    _check_sample_size(n, 8)
    return (complexity + _log_confidence(n, delta)) / n


def high_temperature_bound(beta: float, n: int, delta: float) -> float:
    """(beta + ln(2 sqrt(n)/delta)) / n: the data-independent worst case.

    Dominates binary_kl_bound whenever the complexity is at most beta,
    which always holds for losses in [0, 1].
    """
    if beta < 0.0:
        raise ValueError("beta must be non-negative")
    _check_delta(delta)
    _check_sample_size(n, 8)
    return (beta + _log_confidence(n, delta)) / n


def minimizer_mass_bound(prior_mass_min: float) -> float:
    """ln(1/prior mass of the empirical-minimizer set).

    Caps the complexity at every inverse temperature, and is its exact
    limit as the temperature goes to zero.  Zero mass is rejected so the
    caller can skip the (vacuous) bound instead of comparing against inf.
    """
    if not 0.0 < prior_mass_min <= 1.0:
        raise ValueError(f"minimizer mass must lie in (0, 1], got {prior_mass_min}")
    return -math.log(prior_mass_min)


def stratified_subgaussian_bound(complexity: float, sigma: float, n: int, delta: float) -> float:
    """Two-sided gap bound for sigma-sub-Gaussian losses.

    2*sigma*sqrt((max(complexity,1) + ln(2*max(complexity,1)/delta)/2) / n).
    The clamp inside the logarithm guards the values in (-inf, 1) where the
    raw expression would be undefined (negative complexities do occur).
    """
    if sigma <= 0.0:
        raise ValueError("sigma must be positive")
    _check_delta(delta)
    _check_sample_size(n, 1)
    clamped = max(complexity, 1.0)
    return 2.0 * sigma * math.sqrt((clamped + math.log(2.0 * clamped / delta) / 2.0) / n)


def stratified_subgaussian_bound_rows(complexity: np.ndarray, sigma: float, n: int, delta: float) -> np.ndarray:
    """stratified_subgaussian_bound(complexity[i], sigma, n, delta) for every i, with the scalar function's bits.

    The clamp keeps max's semantics (a complexity is replaced only where 1.0
    exceeds it, so nan stays nan) and the logs are math.log.
    """
    if sigma <= 0.0:
        raise ValueError("sigma must be positive")
    _check_delta(delta)
    _check_sample_size(n, 1)
    complexity = np.asarray(complexity, dtype=float)
    clamped = np.where(1.0 > complexity, 1.0, complexity)
    return 2.0 * sigma * np.sqrt((clamped + per_element(math.log, 2.0 * clamped / delta) / 2.0) / n)


def shift_radius(n: int, delta: float, p: int) -> float:
    """sqrt(ln((1 + n**(2p+1)) / delta) / (2n)).

    The horizontal slack at which the empirical loss CDF tracks the true
    one with probability 1 - delta, while the vertical slack shrinks by an
    extra factor n**-p.  Evaluated as (2p+1)ln(n) + ln1p(n**-(2p+1)) so
    n**(2p+1) may exceed the float range.
    """
    _check_sample_size(n, 1)
    if not 0.0 < delta < 1.0:
        raise ValueError(f"delta must lie in (0, 1), got {delta}")
    if p < 1:
        raise ValueError("p must be a positive integer")
    k = 2 * p + 1
    log_numerator = k * math.log(n) + math.log1p(float(n) ** -k)
    return math.sqrt((log_numerator - math.log(delta)) / (2.0 * n))

