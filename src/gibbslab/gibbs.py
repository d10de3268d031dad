"""Posteriors prior * q(empirical loss) on finite spaces and the loss-level complexity measure.

q is a density family, non-increasing and log-Lipschitz with constant
gamma in the loss; the Gibbs posterior is its exponential case
q(t) = exp(-beta t), with gamma = beta.  One row kernel checks the
density conditions and normalizes every posterior at a finite rate.
All posterior arithmetic happens in log space with a single max shift,
so decay rates up to 1e9 neither overflow nor underflow.
sample_hypothesis takes an explicit seed and keeps generator state local
to the call; the block kernel posterior_draws takes its uniforms from the
caller.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .measures import per_element
from .model import TIE_TOL, FiniteHypothesisSpace, _check_count, _check_parameters, _from_spec, _is_finite
from .model import _is_integer, _unit_uniforms, inverse_cdf, step_cdf
from .streams import MASK64, uniform_rows

__all__ = [
    "DensityFamily",
    "DensityConditionError",
    "exponential_density",
    "polynomial_density",
    "capped_exponential_density",
    "density_family",
    "GibbsPosterior",
    "ComplexityValue",
    "density_rows",
    "posterior_rows",
    "posterior",
    "normalize_density",
    "zero_temperature_posterior",
    "sample_hypothesis",
    "cdf_rows",
    "complexity_rows",
    "posterior_draws",
    "complexity",
    "complexity_bruteforce",
]

WEIGHT_SUM_TOL = 1e-10
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
    """Unnormalized density t -> q(t) given by its log, with its decay rate.

    log_density maps an array of losses to the array of their log densities.
    """

    name: str
    params: dict
    log_density: Callable[[np.ndarray], np.ndarray]
    gamma: float


def _exponential_log(beta: float, t):
    """-beta t: the log density of exponential_density, the one family with q(t) = q(t - m) q(m)."""
    return -beta * t


def exponential_density(beta: float) -> DensityFamily:
    """q(t) = exp(-beta t): the Gibbs case, decay rate beta."""
    _check_parameters(beta=beta)
    return DensityFamily("exponential", {"beta": beta}, functools.partial(_exponential_log, beta), beta)


def polynomial_density(a: float) -> DensityFamily:
    """q(t) = (1 + t)**-a: polynomial decay, log-Lipschitz with constant a."""
    _check_parameters(a=a)
    return DensityFamily("polynomial", {"a": a}, lambda t: -a * per_element(math.log1p, t), a)


def capped_exponential_density(beta: float, cap: float) -> DensityFamily:
    """q(t) = exp(-beta min(t, cap)): exponential decay flattening past cap."""
    _check_parameters(beta=beta, cap=cap)
    return DensityFamily(
        "capped_exponential", {"beta": beta, "cap": cap}, lambda t: -beta * np.minimum(t, cap), beta
    )


_FAMILIES = {
    "exponential": exponential_density,
    "polynomial": polynomial_density,
    "capped_exponential": capped_exponential_density,
}


def density_family(name: str, **params) -> DensityFamily:
    """Build a shipped family by name, for harness configs; params are checked against its signature."""
    return _from_spec("density family", _FAMILIES, {"name": name, "params": params})


@dataclass(frozen=True)
class GibbsPosterior:
    """Normalized weights prior * q(empirical loss) / Z for one sample.

    beta is the density's decay rate: the inverse temperature of the Gibbs
    posterior, gamma for any other family.  log_partition is ln Z.
    """

    beta: float
    log_partition: float
    weights: np.ndarray

    def __post_init__(self):
        w = np.asarray(self.weights, dtype=float).copy()
        # written so that a nan sum fails too
        if not abs(float(w.sum()) - 1.0) <= WEIGHT_SUM_TOL:
            raise ValueError("posterior weights must sum to 1")
        w.setflags(write=False)
        object.__setattr__(self, "weights", w)


@dataclass(frozen=True)
class ComplexityValue:
    """Minimized shift objective: value in nats plus the minimizing shift.

    The value can be negative for hypotheses with large empirical loss at
    large inverse temperature (the optimal shift is then negative); it is
    reported unclamped.
    """

    value: float
    argmin_shift: float


def _losses_vector(space: FiniteHypothesisSpace, data_losses) -> np.ndarray:
    arr = np.asarray(data_losses, dtype=float)
    if arr.shape != (len(space),):
        raise ValueError("loss vector is not aligned with the hypothesis space")
    return arr


def _loss_block(space: FiniteHypothesisSpace, losses) -> np.ndarray:
    """losses as a float (T, H) block, checked to hold one column per hypothesis."""
    losses = np.asarray(losses, dtype=float)
    if losses.ndim != 2 or losses.shape[1] != len(space):
        raise ValueError(f"losses must be a (T, {len(space)}) block, one row per dataset, got shape {losses.shape}")
    return losses


def _check_beta(beta: float | np.ndarray, rows: int | None = None) -> float | np.ndarray:
    """A finite non-negative rate as a float, or, given rows, one per row as a (rows,) array; a bool is no rate."""
    if np.ndim(beta) == 0:
        if not (_is_finite(beta) and beta >= 0.0):
            raise ValueError(f"beta must be finite and non-negative, got {beta}")
        return float(beta)
    if rows is None:
        raise ValueError(f"beta must be a number, got shape {np.shape(beta)}")
    try:
        rates = np.asarray(beta, dtype=float)
    except (TypeError, ValueError, OverflowError):
        raise ValueError(f"beta must be a number or one rate per row, got {beta!r}") from None
    if rates.shape != (rows,):
        raise ValueError(f"beta must be a number or one rate per row, shape ({rows},), got shape {rates.shape}")
    # numpy would read a bool as the rate 0.0 or 1.0
    flags = [beta.dtype == bool] if isinstance(beta, np.ndarray) else [isinstance(b, (bool, np.bool_)) for b in beta]
    if any(flags):
        i = flags.index(True)
        raise ValueError(f"beta[{i}] must be a number, not a bool, got {beta[i]!r}")
    bad = ~(np.isfinite(rates) & (rates >= 0.0))
    if bad.any():
        i = int(np.argmax(bad))
        raise ValueError(f"beta[{i}] must be finite and non-negative, got {rates[i]}")
    return rates


def _hypothesis_index(h_index, size: int) -> int:
    """h_index as an int, checked to be an integer in [0, size); bools are rejected, as complexity_rows does."""
    if not _is_integer(h_index):
        raise ValueError(f"h_index must be an integer, got {h_index!r}")
    if not 0 <= h_index < size:
        raise IndexError(f"hypothesis index {h_index} out of range")
    return int(h_index)


def _tied(levels: np.ndarray) -> np.ndarray:
    """Which rows of ascending levels do not strictly increase."""
    return ~(levels[:, 1:] > levels[:, :-1]).all(axis=1)


def _sorted(values: np.ndarray, kind: str | None, ordered: bool) -> tuple:
    """Each row's ascending order and that order as flat indices if ordered, else None twice, and the row sorted."""
    if not ordered:
        return None, None, np.sort(values, axis=1, kind=kind)
    order = np.argsort(values, axis=1, kind=kind)
    flat = order + np.arange(0, values.size, values.shape[1])[:, None]
    return order, flat, values.take(flat)


class _Ranked:
    """One sort of a (T, H) loss block: each row's positive-prior losses, their ascending levels and their order.

    The levels carry the bits of argsort's kind="stable" order.  A row whose
    values strictly increase has one ascending arrangement, which the faster
    default sort also finds; rows with equal values (0.0 and -0.0 among
    them) or a nan need the stable sort.  The block's first row stands for
    the rest, as the rows of a 0-1 loss block are all tied: if it is
    tie-free the block takes the default sort and only its tied rows are
    sorted again, stably; a single row or a block whose first row is tied
    sorts stably at once.  The order is computed, and the levels gathered
    through it, when the condition check of family at rate gamma reads the
    log densities in that order, or when the prior's positive atoms are not
    all equal, as the running mass then reads it; flat holds it as indices
    into the flattened values.  Otherwise the values are sorted as values
    and order and flat are None.  Without a family nothing is checked.

    exponential says whether family is the Gibbs one, known by its log
    density, not its name: another q named "exponential" has no such
    shift.  ends_only says whether it is at its own rate, where its check
    reads each row's end levels, not its order.
    """

    def __init__(
        self, space: FiniteHypothesisSpace, losses: np.ndarray, family: DensityFamily | None = None, gamma: float = 0.0
    ):
        positive = space.prior > 0.0
        self.prior = space.prior[positive]
        self.values = values = losses[:, positive]
        log_density = family.log_density if family is not None else None
        self.exponential = getattr(log_density, "func", None) is _exponential_log
        self.ends_only = self.exponential and log_density.args == (gamma,)
        ordered = (family is not None and not self.ends_only) or not self.constant
        stable = len(values) <= 1 or _tied(np.sort(values[:1], axis=1))[0]
        self.order, self.flat, self.levels = _sorted(values, "stable" if stable else None, ordered)
        if not stable:
            tied = _tied(self.levels)
            if tied.any():
                order, _, self.levels[tied] = _sorted(values[tied], "stable", ordered)
                if ordered:
                    self.order[tied] = order
                    self.flat[tied] = order + np.flatnonzero(tied)[:, None] * values.shape[1]

    @functools.cached_property
    def constant(self) -> bool:
        """Whether the positive atoms are all equal: every order then adds equal atoms, so the mass reads no order."""
        return bool((self.prior == self.prior[0]).all())

    def running_mass(self) -> np.ndarray:
        """The running prior mass along each row's stable order: one (1, H) row under a constant prior, else (T, H)."""
        if self.constant:
            return np.cumsum(self.prior)[None]
        return np.cumsum(self.prior[self.order], axis=1)


def _check_conditions(levels: np.ndarray, log_q: np.ndarray, gamma: float, name: str) -> None:
    """Raise for the first row of ascending levels on which the density named name breaks a condition.

    Adjacent levels suffice: both conditions telescope, and repeated levels
    carry equal densities and pass, so the error names the row's first
    failing pair of distinct levels.  A pair's tolerance scales with its
    finite log densities only: a vanishing density still fails next to a
    finite one, even where gamma times the gap is infinite (an infinite
    level, or an overflow), which the difference inf would not exceed.
    """
    finite = np.isfinite(log_q)
    size = np.where(finite, np.abs(log_q), 0.0)
    tol = CONDITION_TOL * np.maximum(1.0, np.maximum(size[:, :-1], size[:, 1:]))
    # an overflowed gamma times gap is inf, which the pair's explicit vanishing test covers
    with np.errstate(invalid="ignore", over="ignore"):
        rising = log_q[:, 1:] > log_q[:, :-1] + tol
        steep = log_q[:, :-1] - log_q[:, 1:] > gamma * (levels[:, 1:] - levels[:, :-1]) + tol
    steep |= finite[:, :-1] & (log_q[:, 1:] == -np.inf)
    broken = rising | steep
    # with every log density finite, only a broken pair fails a row
    if not (broken.any() or not finite.all()):
        return
    # nan passes every comparison above, so it is caught by name
    undefined = np.isnan(log_q)
    infinite = (log_q == np.inf).any(axis=1)
    vanishing = (log_q == -np.inf).all(axis=1)
    failing = undefined.any(axis=1) | infinite | vanishing | broken.any(axis=1)
    row = int(np.argmax(failing))
    if undefined[row].any():
        level = float(levels[row, int(np.argmax(undefined[row]))])
        raise ValueError(f"density {name!r} is not a number at achieved loss level {level!r}")
    if infinite[row]:
        raise ValueError("density must be finite at every achieved loss level")
    if vanishing[row]:
        raise ValueError("density vanishes at every achieved loss level")
    j = int(np.argmax(broken[row]))
    s, t = float(levels[row, j]), float(levels[row, j + 1])
    if rising[row, j]:
        raise DensityConditionError(f"density increases between achieved levels {s!r} and {t!r}", (s, t))
    raise DensityConditionError(
        f"log-Lipschitz constant {gamma!r} violated between levels {s!r} and {t!r}", (s, t)
    )


def _normalized_rows(total: np.ndarray, log_partition: bool = True) -> tuple[np.ndarray, np.ndarray | None]:
    """Weights exp(total[i] - ln Z_i) and ln Z_i for every row of unnormalized log weights.

    With peak_i the row's maximum and s_i the sum of exp(total[i] - peak_i),
    the weights are those terms over s_i, normalized after the max shift:
    subtracting ln Z_i = peak_i + ln s_i instead would carry its rounding at
    the magnitude of peak_i (about beta times the smallest loss) into every
    weight.  ln s_i is math.log, not np.log, whose last bit can differ, and
    ln Z is reported; a row whose maximum is not finite keeps that maximum
    as its ln Z.  Without log_partition, ln Z is None: a caller that reads
    only the weights skips the per-row logs.  Raises when a row's weights
    miss a total of 1 by more than WEIGHT_SUM_TOL, or are nan on a row whose
    maximum is not infinite (an overflowed loss difference times a zero rate).
    """
    peak = total.max(axis=1)
    with np.errstate(invalid="ignore"):
        terms = np.exp(total - peak[:, None])
    sums = terms.sum(axis=1)
    weights = terms / sums[:, None]
    if (~(np.abs(weights.sum(axis=1) - 1.0) <= WEIGHT_SUM_TOL) & ~np.isinf(peak)).any():
        raise ValueError("posterior weights must sum to 1")
    if not log_partition:
        return weights, None
    return weights, np.array([p + math.log(s) if math.isfinite(p) else p for p, s in zip(peak.tolist(), sums.tolist())])


def _density_rows(
    space: FiniteHypothesisSpace,
    losses: np.ndarray,
    ranked: _Ranked,
    family: DensityFamily,
    gamma: float,
    log_partition: bool = True,
) -> tuple[np.ndarray, np.ndarray | None]:
    """The row kernel: weights prior * q(loss) / Z and ln Z for every row of a (T, H) loss block.

    The density conditions are checked first; the first row that fails
    raises its error.  The Gibbs family at its own rate, q(t) = exp(-gamma t),
    passes them on every row whose lowest and highest levels have finite
    log densities: -gamma t falls as t rises under any rounding, and
    CONDITION_TOL is far above the rounding of gamma times a level
    difference.  Its block is checked only when some row has a non-finite
    end (a nan or infinite loss, or an overflow), and then in full, as
    any other family's is.  At rate 0 the check leaves q constant on the
    achieved levels, so the weights are the prior itself and ln Z is that
    constant's log.  Without log_partition, ln Z is None (see
    _normalized_rows).  ranked is the block's _Ranked for family at gamma.
    """
    _check_parameters(gamma=gamma)
    values, levels = ranked.values, ranked.levels
    if ranked.ends_only:
        # an overflow to -inf is a non-finite end, which the full check below reads
        with np.errstate(over="ignore"):
            lowest_log_q = family.log_density(levels[:, 0])
            if not (np.isfinite(lowest_log_q).all() and np.isfinite(family.log_density(levels[:, -1])).all()):
                _check_conditions(levels, family.log_density(levels), gamma, family.name)
    else:
        # an overflow is a non-finite log density, which the check reads
        with np.errstate(over="ignore"):
            values_log_q = np.asarray(family.log_density(values), dtype=float)
        if values_log_q.shape != values.shape:
            values_log_q = np.broadcast_to(values_log_q, values.shape)
        levels_log_q = values_log_q.take(ranked.flat)
        _check_conditions(levels, levels_log_q, gamma, family.name)
        lowest_log_q = levels_log_q[:, 0]
    if gamma == 0.0:
        # + 0.0 writes the exponential family's -0.0 as 0.0
        return np.broadcast_to(space.prior, losses.shape), lowest_log_q + 0.0
    if ranked.exponential:
        # q(t) = q(t - m) q(m): with m the row's lowest level, ln prior + ln q(t - m)
        # keeps ln prior's precision, which ln prior - beta t rounds away at large beta;
        # a product past the float range is -inf, a zero weight
        with np.errstate(over="ignore"):
            values_log_q = family.log_density(values - levels[:, :1])
    positive = space.prior > 0.0
    if positive.all():
        total = np.log(space.prior) + values_log_q
    else:
        # zero-prior atoms carry log weight -inf and never touch the density
        # (it may be arbitrary there)
        total = np.full(losses.shape, -np.inf)
        total[:, positive] = np.log(space.prior[positive]) + values_log_q
    weights, log_z = _normalized_rows(total, log_partition)
    if log_partition and ranked.exponential:
        # ln q(m), taken out of every log weight above
        log_z = log_z + lowest_log_q
    return weights, log_z


def density_rows(
    space: FiniteHypothesisSpace, losses: np.ndarray, family: DensityFamily, gamma: float
) -> tuple[np.ndarray, np.ndarray]:
    """Weights prior * q(loss) / Z and ln Z for every row of a (T, H) loss block, conditions checked."""
    losses = _loss_block(space, losses)
    return _density_rows(space, losses, _Ranked(space, losses, family, gamma), family, gamma)


def posterior_rows(space: FiniteHypothesisSpace, losses: np.ndarray, beta: float) -> tuple[np.ndarray, np.ndarray]:
    """Gibbs weights and ln Z for every row of a (T, H) loss block; the prior itself at beta = 0."""
    beta = _check_beta(beta)
    return density_rows(space, losses, exponential_density(beta), beta)


def posterior(space: FiniteHypothesisSpace, data_losses, beta: float) -> GibbsPosterior:
    """Gibbs posterior weights proportional to prior * exp(-beta * loss)."""
    losses = _losses_vector(space, data_losses)
    weights, log_z = posterior_rows(space, losses[None], beta)
    return GibbsPosterior(float(beta), float(log_z[0]), weights[0])


def normalize_density(space: FiniteHypothesisSpace, data_losses, family: DensityFamily, gamma: float) -> GibbsPosterior:
    """Normalize prior * q(empirical loss) after verifying the density conditions.

    Conditions are checked pairwise over the loss levels achieved by
    positive-prior hypotheses; on a finite space those are the only points
    the posterior and the bound ever read the density at.
    """
    losses = _losses_vector(space, data_losses)
    weights, log_z = density_rows(space, losses[None], family, gamma)
    return GibbsPosterior(float(gamma), float(log_z[0]), weights[0])


def zero_temperature_posterior(space: FiniteHypothesisSpace, data_losses) -> GibbsPosterior:
    """Infinite-beta limit: the prior conditioned on the empirical-minimizer set.

    log_partition carries the limit of ln Z: ln(minimizer mass) when the
    minimum loss is 0, -inf otherwise.
    """
    losses = _losses_vector(space, data_losses)
    mask = space.prior > 0.0
    lowest = float(losses[mask].min())
    keep = mask & (losses <= lowest + TIE_TOL)
    weights = np.where(keep, space.prior, 0.0)
    mass = float(weights.sum())
    limit_log_z = math.log(mass) if lowest == 0.0 else -math.inf
    return GibbsPosterior(math.inf, limit_log_z, weights / mass)


def sample_hypothesis(post: GibbsPosterior, seed: int) -> int:
    """One inverse-CDF posterior draw from the first uniform of key seed; works for any object exposing normalized weights."""
    _check_count("seed", seed, 0, MASK64)
    return int(inverse_cdf(post.weights, uniform_rows(np.array([seed], dtype=np.uint64), 1)[0])[0])


def cdf_rows(space: FiniteHypothesisSpace, losses: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Each row's positive-prior losses in stable ascending order, and their running prior mass.

    Row i is the step_cdf construction of loss row i before it collapses
    levels: the running mass at the last atom of each loss level carries
    the bits of that level's cumulative mass.  Under a prior whose positive
    atoms are all equal, every row's mass is one read-only row, broadcast.
    """
    ranked = _Ranked(space, _loss_block(space, losses))
    mass = ranked.running_mass()
    return ranked.levels, np.broadcast_to(mass, ranked.levels.shape) if ranked.constant else mass


def _complexity_rows(
    losses: np.ndarray, ranked: _Ranked, h_indices: np.ndarray, beta: float | np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """Each index's value beta * (level - own loss) - ln mass and shift at its row's minimizing level.

    That level, the argmin of beta * level - ln mass, reads no hypothesis: it is chosen once per row and rate.
    A constant prior's one mass row takes its log once, for every row.
    """
    beta = _check_beta(beta, len(h_indices))
    levels = ranked.levels
    log_mass = np.log(ranked.running_mass())
    # a rate times a level or a shift has the bits of the scalar product
    rate = beta if isinstance(beta, float) else beta[:, None]
    best = np.argmin(rate * levels - log_mass, axis=1)
    rows = np.arange(len(h_indices)) if len(h_indices) == len(losses) else 0
    shifts = levels[rows, best] - losses[rows, h_indices]
    return beta * shifts - log_mass[rows if len(log_mass) > 1 else 0, best], shifts


def complexity_rows(
    space: FiniteHypothesisSpace, losses: np.ndarray, h_indices: np.ndarray, beta: float | np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """complexity of hypothesis h_indices[i] under loss row i: values and minimizing shifts.

    losses is a (T, H) block with one index per row, or one shared (1, H)
    row with any number of indices.  beta is one rate for every index or
    one rate per index; value i has the bits of the single-row call at its
    rate.  Each row is the step_cdf construction: a stable sort of the
    positive-prior losses and a running sum of their prior in that order.
    The last atom of each loss level carries that level's cumulative mass;
    atoms before it inside the level carry less, so their objective is no
    smaller and the minimum over all atoms is the minimum over levels.
    """
    losses = _loss_block(space, losses)
    h_indices = np.asarray(h_indices)
    if h_indices.ndim != 1 or len(losses) not in (1, len(h_indices)):
        raise ValueError(f"h_indices must hold one index per loss row, shape ({len(losses)},), got shape {h_indices.shape}")
    if not np.issubdtype(h_indices.dtype, np.integer):
        raise ValueError(f"h_indices must be integers, got dtype {h_indices.dtype}")
    outside = (h_indices < 0) | (h_indices >= len(space))
    if outside.any():
        i = int(np.argmax(outside))
        raise IndexError(f"h_indices[{i}]: hypothesis index {h_indices[i]} out of range")
    return _complexity_rows(losses, _Ranked(space, losses), h_indices, beta)


def posterior_draws(
    space: FiniteHypothesisSpace, losses: np.ndarray, family: DensityFamily, uniforms
) -> tuple[np.ndarray, np.ndarray]:
    """One posterior draw per row of a (T, H) loss block and the complexity of each draw.

    Row i's posterior is prior * q(loss row i) under family, its draw is
    the inverse-CDF lookup of uniforms[i] in [0, 1) (sample_hypothesis
    looks up the first uniform of its key), and its complexity is
    taken at the family's decay rate.  The posterior and the complexity
    read one sort of each row.
    """
    losses = _loss_block(space, losses)
    uniforms = _unit_uniforms(uniforms, "uniforms")
    if uniforms.shape != (len(losses),):
        raise ValueError(f"uniforms must hold one value per loss row, shape ({len(losses)},), got shape {uniforms.shape}")
    ranked = _Ranked(space, losses, family, family.gamma)
    weights, _ = _density_rows(space, losses, ranked, family, family.gamma, log_partition=False)
    drawn = inverse_cdf(weights, uniforms[:, None])[:, 0]
    values, _ = _complexity_rows(losses, ranked, drawn, family.gamma)
    return drawn, values


def complexity(space: FiniteHypothesisSpace, data_losses, h_index: int, beta: float) -> ComplexityValue:
    """Exact minimum over shifts r of beta*r - ln(prior mass of losses <= own loss + r).

    The mass term is a right-continuous step function of r and the linear
    term increases between its jumps, so the infimum over all real shifts
    is attained at one of the achieved loss levels; enumerating those gives
    the exact value.
    """
    losses = _losses_vector(space, data_losses)
    h_index = _hypothesis_index(h_index, len(space))
    losses = losses[None]
    values, shifts = _complexity_rows(losses, _Ranked(space, losses), np.array([h_index]), beta)
    return ComplexityValue(float(values[0]), float(shifts[0]))


def complexity_bruteforce(
    space: FiniteHypothesisSpace,
    data_losses,
    h_index: int,
    beta: float | np.ndarray,
    grid_step: float,
) -> float | np.ndarray:
    """Dense grid scan of the shift objective, as an independent reference.

    Never below the jump-point value, and at most beta*grid_step above it:
    the grid point just right of the optimal jump sees the same mass at a
    shift larger by less than grid_step.  beta is one rate, giving a float,
    or an array of rates, giving an array of the single-rate values: the
    grid and its masses are built once.

    The objective is evaluated at every grid point.  The points own + grid
    ascend, so the points that see the mass of each step CDF level form one
    run, which starts where the level enters the points; the points before
    the lowest level see no mass and are skipped.
    """
    if not (_is_finite(grid_step) and grid_step > 0.0):
        raise ValueError(f"grid_step must be finite and positive, got {grid_step!r}")
    losses = _losses_vector(space, data_losses)
    beta = _check_beta(beta, np.size(beta))
    h_index = _hypothesis_index(h_index, len(space))
    cdf = step_cdf(losses, space.prior)
    own = losses[h_index]
    grid = np.arange(-own - 1.0, cdf.levels[-1] + 1.0 + grid_step, grid_step)
    starts = np.searchsorted(own + grid, cdf.levels, side="left")
    runs = np.diff(starts, append=grid.size)
    shifts = grid[starts[0] :]
    log_mass = np.repeat(np.log(cdf.cumulative), runs)
    if isinstance(beta, float):
        return float((beta * shifts - log_mass).min())
    return np.array([(rate * shifts - log_mass).min() for rate in beta])

