"""Posteriors with non-increasing, log-Lipschitz densities in the empirical loss.

Generalizes the Gibbs posterior: any density family q(t) that is
non-increasing and log-Lipschitz with constant gamma yields the same bound
shape with the complexity evaluated at rate gamma.  The exponential family
recovers Gibbs exactly.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .bounds import generic_bound_rhs
from .gibbs import WEIGHT_SUM_TOL, ComplexityValue, complexity, normalized_rows
from .model import FiniteHypothesisSpace

__all__ = [
    "DensityFamily",
    "DensityConditionError",
    "MonotoneDensityPosterior",
    "exponential_density",
    "polynomial_density",
    "capped_exponential_density",
    "density_family",
    "density_rows",
    "normalize_density",
    "monotone_bound_rhs",
    "ipm_corrected_rhs",
]

# scaled per compared pair by max(1, |log q|): at decay rates near 1e9 the
# log densities and gamma * (t - s) carry rounding errors near 1e-7
CONDITION_TOL = 1e-12


class DensityConditionError(ValueError):
    """A density family violates monotonicity or the log-Lipschitz condition.

    Carries the offending pair of achieved loss levels in `pair`.
    """

    def __init__(self, message: str, pair: tuple[float, float]):
        super().__init__(message)
        self.pair = pair


@dataclass(frozen=True)
class DensityFamily:
    """Unnormalized density t -> q(t) given by its log, with its decay rate."""

    name: str
    params: dict
    log_density: Callable[[float], float]
    gamma: float


def exponential_density(beta: float) -> DensityFamily:
    """q(t) = exp(-beta t): the Gibbs case, decay rate beta."""
    if beta < 0.0:
        raise ValueError("beta must be non-negative")
    return DensityFamily("exponential", {"beta": beta}, lambda t: -beta * t, beta)


def polynomial_density(a: float) -> DensityFamily:
    """q(t) = (1 + t)**-a: polynomial decay, log-Lipschitz with constant a."""
    if a < 0.0:
        raise ValueError("a must be non-negative")
    return DensityFamily("polynomial", {"a": a}, lambda t: -a * math.log1p(t), a)


def capped_exponential_density(beta: float, cap: float) -> DensityFamily:
    """q(t) = exp(-beta min(t, cap)): exponential decay flattening past cap."""
    if beta < 0.0 or cap < 0.0:
        raise ValueError("beta and cap must be non-negative")
    return DensityFamily(
        "capped_exponential", {"beta": beta, "cap": cap}, lambda t: -beta * min(t, cap), beta
    )


_FAMILIES = {
    "exponential": exponential_density,
    "polynomial": polynomial_density,
    "capped_exponential": capped_exponential_density,
}


def density_family(name: str, **params) -> DensityFamily:
    """Build a shipped family by name, for harness configs."""
    try:
        return _FAMILIES[name](**params)
    except KeyError as exc:
        raise ValueError(f"unknown density family {name!r}") from exc


@dataclass(frozen=True)
class MonotoneDensityPosterior:
    """Normalized posterior prior * q(empirical loss) with verified conditions.

    log_normalizer is authoritative; normalizer = exp(log_normalizer) can
    overflow to inf for extreme decay rates.
    """

    family: DensityFamily
    gamma: float
    normalizer: float
    log_normalizer: float
    weights: np.ndarray

    def __post_init__(self):
        w = np.asarray(self.weights, dtype=float).copy()
        if abs(float(w.sum()) - 1.0) > WEIGHT_SUM_TOL:
            raise ValueError("posterior weights must sum to 1")
        w.setflags(write=False)
        object.__setattr__(self, "weights", w)


def _pair_tolerances(log_q: np.ndarray) -> np.ndarray:
    """CONDITION_TOL * max(1, |log q|) for each adjacent pair along the last axis.

    Only finite log densities scale it, so a density that vanishes at a
    level still fails against its finite neighbour.
    """
    size = np.where(np.isfinite(log_q), np.abs(log_q), 0.0)
    return CONDITION_TOL * np.maximum(1.0, np.maximum(size[..., :-1], size[..., 1:]))


def _verify_conditions(levels: np.ndarray, log_q: np.ndarray, gamma: float) -> None:
    """Check monotonicity and the log-Lipschitz bound on achieved levels.

    Adjacent pairs suffice: both conditions telescope, so any violating
    pair implies a violating adjacent pair.
    """
    if np.any(np.isposinf(log_q)):
        raise ValueError("density must be finite at every achieved loss level")
    if np.all(np.isneginf(log_q)):
        raise ValueError("density vanishes at every achieved loss level")
    tolerances = _pair_tolerances(log_q).tolist()
    for j, tol in enumerate(tolerances):
        s, t = float(levels[j]), float(levels[j + 1])
        if log_q[j + 1] > log_q[j] + tol:
            raise DensityConditionError(
                f"density increases between achieved levels {s!r} and {t!r}", (s, t)
            )
        if log_q[j] - log_q[j + 1] > gamma * (t - s) + tol:
            raise DensityConditionError(
                f"log-Lipschitz constant {gamma!r} violated between levels {s!r} and {t!r}",
                (s, t),
            )


def _failing_rows(levels: np.ndarray, log_q: np.ndarray, gamma: float) -> np.ndarray:
    """Rows of ascending levels on which _verify_conditions would raise.

    Repeated levels carry equal densities and pass both pairwise checks,
    so comparing all neighbours equals comparing distinct neighbours.
    """
    tol = _pair_tolerances(log_q)
    with np.errstate(invalid="ignore"):
        rising = log_q[:, 1:] > log_q[:, :-1] + tol
        steep = log_q[:, :-1] - log_q[:, 1:] > gamma * (levels[:, 1:] - levels[:, :-1]) + tol
    return (
        np.isposinf(log_q).any(axis=1)
        | np.isneginf(log_q).all(axis=1)
        | rising.any(axis=1)
        | steep.any(axis=1)
    )


def density_rows(
    space: FiniteHypothesisSpace,
    losses: np.ndarray,
    family: DensityFamily,
    gamma: float,
) -> tuple[np.ndarray, np.ndarray]:
    """Weights prior * q(loss) / Z and ln Z for every row of a (T, H) loss block.

    The density conditions are checked on every row first; the first row
    that fails raises the error normalize_density raises for it.
    """
    if gamma < 0.0:
        raise ValueError("gamma must be non-negative")
    mask = space.prior > 0.0
    values = losses[:, mask]
    # one scalar call per atom: log_density is a plain float -> float callable
    values_log_q = np.fromiter(
        map(family.log_density, values.ravel().tolist()), float, values.size
    ).reshape(values.shape)
    order = np.argsort(values, axis=1, kind="stable")
    levels = np.take_along_axis(values, order, axis=1)
    levels_log_q = np.take_along_axis(values_log_q, order, axis=1)
    failing = _failing_rows(levels, levels_log_q, gamma)
    if failing.any():
        row = int(np.argmax(failing))
        distinct, first = np.unique(levels[row], return_index=True)
        _verify_conditions(distinct, levels_log_q[row][first], gamma)

    # zero-prior atoms never touch the density (it may be arbitrary there)
    log_q = np.full(losses.shape, -np.inf)
    log_q[:, mask] = values_log_q
    with np.errstate(divide="ignore"):
        log_prior = np.log(space.prior)
    return normalized_rows(log_prior + log_q)


def normalize_density(
    space: FiniteHypothesisSpace,
    data_losses,
    family: DensityFamily,
    gamma: float,
) -> MonotoneDensityPosterior:
    """Normalize prior * q(empirical loss) after verifying the density conditions.

    Conditions are checked pairwise over the loss levels achieved by
    positive-prior hypotheses; on a finite space those are the only points
    the posterior and the bound ever read the density at.
    """
    losses = np.asarray(data_losses, dtype=float)
    if losses.shape != (len(space),):
        raise ValueError("loss vector is not aligned with the hypothesis space")
    weights, log_z = density_rows(space, losses[None], family, gamma)
    log_z = float(log_z[0])
    with np.errstate(over="ignore"):
        normalizer = float(np.exp(-log_z))
    return MonotoneDensityPosterior(family, float(gamma), normalizer, -log_z, weights[0])


def monotone_bound_rhs(
    space: FiniteHypothesisSpace,
    data_losses,
    h_index: int,
    post: MonotoneDensityPosterior,
    log_moment: float,
    delta: float,
) -> float:
    """Generic bound RHS with the complexity evaluated at the density's decay rate."""
    value: ComplexityValue = complexity(space, data_losses, h_index, post.gamma)
    return generic_bound_rhs(value.value, log_moment, delta)


def ipm_corrected_rhs(
    log_moment_exact: float,
    sup_gamma_scale: float,
    ipm_distance: float,
    delta: float,
) -> float:
    """Moment bound plus the surcharge for sampling from an approximating law.

    When hypotheses come from a law at integral-probability-metric distance
    ipm_distance from the exact posterior, the RHS inflates additively by
    sup_gamma_scale * ipm_distance, where sup_gamma_scale is the largest
    scale at which the exponentiated statistic stays inside the metric's
    function class.
    """
    if ipm_distance < 0.0:
        raise ValueError("ipm_distance must be non-negative")
    if sup_gamma_scale <= 0.0:
        raise ValueError("sup_gamma_scale must be positive")
    if not 0.0 < delta <= 1.0:
        raise ValueError(f"delta must lie in (0, 1], got {delta}")
    return log_moment_exact + sup_gamma_scale * ipm_distance - math.log(delta)
