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

from .measures import LOG_BAND, per_element
from .model import TIE_TOL, FiniteHypothesisSpace, _check_count, _check_parameters, _closed_running_sums, _from_spec
from .model import _is_finite, _is_integer, _unit_uniforms, inverse_cdf, step_cdf
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


def _polynomial_log(a: float, t):
    """-a ln(1 + t) with math.log1p: the log density of polynomial_density."""
    return -a * per_element(math.log1p, t)


def polynomial_density(a: float) -> DensityFamily:
    """q(t) = (1 + t)**-a: polynomial decay, log-Lipschitz with constant a."""
    _check_parameters(a=a)
    return DensityFamily("polynomial", {"a": a}, functools.partial(_polynomial_log, a), a)


def _capped_log(beta: float, cap: float, t):
    """-beta min(t, cap): the log density of capped_exponential_density."""
    return -beta * np.minimum(t, cap)


def capped_exponential_density(beta: float, cap: float) -> DensityFamily:
    """q(t) = exp(-beta min(t, cap)): exponential decay flattening past cap."""
    _check_parameters(beta=beta, cap=cap)
    return DensityFamily(
        "capped_exponential", {"beta": beta, "cap": cap}, functools.partial(_capped_log, beta, cap), beta
    )


# the shipped families' log densities: each is elementwise, non-increasing and
# log-Lipschitz at its own rate wherever _checked_log_q reads its ends alone
_SHIPPED_LOGS = (_exponential_log, _polynomial_log, _capped_log)

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


def _rising(levels: np.ndarray) -> np.ndarray:
    """Where ascending levels strictly increase: False next to a tie, a nan included."""
    return levels[:, 1:] > levels[:, :-1]


class _Ranked:
    """One sort of a (T, H) loss block: each row's positive-prior losses, their ascending levels and, when read, their order.

    The levels carry the bits of argsort's kind="stable" order.  Equal
    floats have equal bits except 0.0 and -0.0 and the nans, and the
    faster default sort may write a -0.0 as 0.0 (its SIMD min and max
    return one operand of a tied pair) and a nan as the canonical one, so
    only the rows whose values hold a -0.0 or a nan are sorted again,
    stably.  One test of the block's sign bits and last levels passes a
    block of non-negative losses without a per-row test.  The order is
    computed when first read: by the running mass under a prior whose
    positive atoms are not all equal, and by the full condition check
    (see _checked_log_q).  The values are C-ordered whatever the layout of
    the block (a boolean column selection would be Fortran-ordered), so
    every (T, H) pass after the sort runs along contiguous rows and every
    row's sum is pairwise, as a single row's is.
    """

    def __init__(self, space: FiniteHypothesisSpace, losses: np.ndarray):
        positive = space.prior > 0.0
        self.prior = space.prior[positive]
        self.values = values = np.ascontiguousarray(losses) if positive.all() else losses.compress(positive, axis=1)
        self.levels = np.sort(values, axis=1)
        # a nan sorts to the end of its row
        nan = np.isnan(self.levels[:, -1])
        if nan.any() or np.signbit(values).any():
            redo = nan | ((values == 0.0) & np.signbit(values)).any(axis=1)
            self.levels[redo] = np.sort(values[redo], axis=1, kind="stable")

    @functools.cached_property
    def order(self) -> np.ndarray:
        """Each row's stable ascending order: a row whose levels strictly increase has one, which the default argsort finds."""
        order = np.argsort(self.values, axis=1)
        tied = ~_rising(self.levels).all(axis=1)
        if tied.any():
            order[tied] = np.argsort(self.values[tied], axis=1, kind="stable")
        return order

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


def _shipped_log(family: DensityFamily) -> Callable | None:
    """The shipped log density that family.log_density is a partial of, or None.

    The shipped families are known by their log densities, not their
    names: another q named "exponential" takes no shortcut.
    """
    shipped = getattr(family.log_density, "func", None)
    return shipped if shipped in _SHIPPED_LOGS else None


def _checked_log_q(ranked: _Ranked, family: DensityFamily, gamma: float) -> tuple[np.ndarray | None, np.ndarray]:
    """Check the density conditions; the values' log densities where the check computed them, and the lowest levels'.

    The first row that fails raises its error.  A shipped family at its
    own rate passes them on every row whose lowest and highest levels have
    finite log densities: -gamma t, -gamma min(t, cap) and, from t = 0 on,
    -gamma ln(1 + t) fall as t rises and by at most gamma times the rise,
    under any rounding, and CONDITION_TOL is far above the rounding of
    their differences.  Every other block is checked in full: a row with a
    non-finite end (a nan or infinite loss, or an overflow) or, for the
    polynomial, a negative lowest level, and any block of another family
    or at another rate.  The full check reads the values' log densities in
    the stable order of ranked.
    """
    _check_parameters(gamma=gamma)
    levels = ranked.levels
    shipped = _shipped_log(family)
    # an overflow is a non-finite log density, which the full check reads
    with np.errstate(over="ignore"):
        if shipped is not None and family.log_density.args[:1] == (gamma,):
            lowest_log_q = family.log_density(levels[:, 0])
            ends = np.isfinite(lowest_log_q).all() and np.isfinite(family.log_density(levels[:, -1])).all()
            if ends and (shipped is not _polynomial_log or (levels[:, 0] >= 0.0).all()):
                return None, lowest_log_q
        values_log_q = np.asarray(family.log_density(ranked.values), dtype=float)
    if values_log_q.shape != ranked.values.shape:
        values_log_q = np.broadcast_to(values_log_q, ranked.values.shape)
    levels_log_q = np.take_along_axis(values_log_q, ranked.order, axis=1)
    _check_conditions(levels, levels_log_q, gamma, family.name)
    return values_log_q, levels_log_q[:, 0]


def _log_weights(space: FiniteHypothesisSpace, values_log_q: np.ndarray) -> np.ndarray:
    """ln prior + ln q at every atom of each row, from the positive-prior atoms' ln q; -inf at zero-prior atoms.

    Zero-prior atoms never touch the density (it may be arbitrary there).
    """
    positive = space.prior > 0.0
    if positive.all():
        return np.log(space.prior) + values_log_q
    total = np.full((len(values_log_q), len(space)), -np.inf)
    total[:, positive] = np.log(space.prior[positive]) + values_log_q
    return total


def _density_rows(
    space: FiniteHypothesisSpace, ranked: _Ranked, family: DensityFamily, gamma: float, log_partition: bool = True
) -> tuple[np.ndarray, np.ndarray | None]:
    """The row kernel: weights prior * q(loss) / Z and ln Z for every row of a (T, H) loss block.

    The density conditions are checked first (_checked_log_q).  At rate 0
    the check leaves q constant on the achieved levels, so the weights are
    the prior itself and ln Z is that constant's log.  Without
    log_partition, ln Z is None (see _normalized_rows).  ranked is the
    _Ranked of the (T, H) block.
    """
    values_log_q, lowest_log_q = _checked_log_q(ranked, family, gamma)
    if gamma == 0.0:
        # + 0.0 writes the exponential family's -0.0 as 0.0
        return np.broadcast_to(space.prior, (len(ranked.values), len(space))), lowest_log_q + 0.0
    gibbs = _shipped_log(family) is _exponential_log
    # a product past the float range is -inf, a zero weight
    with np.errstate(over="ignore"):
        if gibbs:
            # q(t) = q(t - m) q(m): with m the row's lowest level, ln prior + ln q(t - m)
            # keeps ln prior's precision, which ln prior - beta t rounds away at large beta
            values_log_q = family.log_density(ranked.values - ranked.levels[:, :1])
        elif values_log_q is None:
            values_log_q = family.log_density(ranked.values)
    weights, log_z = _normalized_rows(_log_weights(space, values_log_q), log_partition)
    if log_partition and gibbs:
        # ln q(m), taken out of every log weight above
        log_z = log_z + lowest_log_q
    return weights, log_z


def density_rows(
    space: FiniteHypothesisSpace, losses: np.ndarray, family: DensityFamily, gamma: float
) -> tuple[np.ndarray, np.ndarray]:
    """Weights prior * q(loss) / Z and ln Z for every row of a (T, H) loss block, conditions checked."""
    losses = _loss_block(space, losses)
    return _density_rows(space, _Ranked(space, losses), family, gamma)


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
    return beta * shifts - log_mass[0 if ranked.constant else rows, best], shifts


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

    Where its condition check reads only each row's ends, the polynomial
    family's draws come from a draft: weights from -a * np.log1p(loss) in
    place of math.log1p's.  Assuming both logs lie within a few ulp of the
    true one, the draft's running sums differ from the exact kernel's by
    far less than LOG_BAND * (H + the row's largest |draft log q|), so a
    uniform farther than that from both ends of its drawn atom's draft
    interval selects the same atom under either.  The rows within that
    band are drawn again from the exact weights, so every draw is the
    exact kernel's.  Where the full check runs, the draws come from the
    exact log densities it computed.
    """
    losses = _loss_block(space, losses)
    uniforms = _unit_uniforms(uniforms, "uniforms")
    if uniforms.shape != (len(losses),):
        raise ValueError(f"uniforms must hold one value per loss row, shape ({len(losses)},), got shape {uniforms.shape}")
    gamma = family.gamma
    ranked = _Ranked(space, losses)
    if _shipped_log(family) is _polynomial_log and gamma != 0.0:
        values_log_q, _ = _checked_log_q(ranked, family, gamma)
        if values_log_q is None:
            drawn = _drafted_draws(space, ranked, family, uniforms)
        else:
            # the full check ran: its exact log densities leave no draft to settle
            weights, _ = _normalized_rows(_log_weights(space, values_log_q), log_partition=False)
            drawn = inverse_cdf(weights, uniforms[:, None])[:, 0]
    else:
        weights, _ = _density_rows(space, ranked, family, gamma, log_partition=False)
        drawn = inverse_cdf(weights, uniforms[:, None])[:, 0]
    return drawn, _complexity_rows(losses, ranked, drawn, gamma)[0]


def _drafted_draws(
    space: FiniteHypothesisSpace, ranked: _Ranked, family: DensityFamily, uniforms: np.ndarray
) -> np.ndarray:
    """The polynomial's draws from its np.log1p draft, on a block whose check read only its ends; see posterior_draws."""
    # the ends are finite and the lowest level is at least 0: only an overflow near the
    # float range can happen here, and its infinite band sends its row to the exact path
    with np.errstate(over="ignore"):
        draft = -family.log_density.args[0] * np.log1p(ranked.values)
    weights, _ = _normalized_rows(_log_weights(space, draft), log_partition=False)
    cum = _closed_running_sums(weights, weights > 0.0)
    drawn = (cum <= uniforms[:, None]).sum(axis=1)
    rows = np.arange(len(cum))
    lower = np.where(drawn > 0, cum[rows, drawn - 1], 0.0)
    band = LOG_BAND * (len(space) + np.abs(draft).max(axis=1))
    # written so that a nan end or band fails the test
    near = np.flatnonzero(~((uniforms - lower > band) & (cum[rows, drawn] - uniforms > band)))
    if near.size:
        exact = family.log_density(ranked.values[near])
        weights, _ = _normalized_rows(_log_weights(space, exact), log_partition=False)
        drawn[near] = inverse_cdf(weights, uniforms[near, None])[:, 0]
    return drawn


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
    grid, its masses and one buffer for the objective are built once.

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
    objective = np.empty_like(shifts)
    values = np.array(
        [np.subtract(np.multiply(rate, shifts, out=objective), log_mass, out=objective).min() for rate in np.atleast_1d(beta)]
    )
    return float(values[0]) if isinstance(beta, float) else values

