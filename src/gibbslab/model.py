"""Finite statistical settings with exactly computable loss distributions.

A data distribution is a finite list of opaque points with explicit
probabilities, a hypothesis space is a finite list of opaque handles with
prior weights and a loss evaluator.  With both finite, the true loss, the
empirical loss, and the prior CDFs of either are exact quantities rather
than estimates, which is what lets the bound harnesses check probabilistic
claims against ground truth.
"""

from __future__ import annotations

import inspect
import json
from dataclasses import dataclass
from typing import Any, Callable

import numpy as np

from .streams import uniform_rows

__all__ = [
    "FiniteDataDomain",
    "DataSet",
    "FiniteHypothesisSpace",
    "LossProfile",
    "MinimizerSummary",
    "StepCdf",
    "step_cdf",
    "inverse_cdf",
    "sample_items",
    "sample_dataset",
    "empirical_losses",
    "empirical_loss",
    "true_loss",
    "empirical_cdf",
    "true_cdf",
    "minimizer_summary",
    "loss_matrix",
    "loss_profile",
    "table_space",
    "random_loss_table",
    "k_minimizer_space",
    "permuted_label_task",
    "SPACE_GENERATORS",
    "build_space",
    "space_to_document",
    "space_from_document",
    "save_space",
    "load_space",
]

PROB_SUM_TOL = 1e-12
# losses within this of the minimum count as minimizers (float level sets)
TIE_TOL = 1e-12


def _probability_vector(values, name: str) -> np.ndarray:
    arr = np.asarray(values, dtype=float).copy()
    if arr.ndim != 1 or arr.size == 0:
        raise ValueError(f"{name} must be a nonempty 1-d vector")
    if np.any(arr < 0.0) or not np.all(np.isfinite(arr)):
        raise ValueError(f"{name} entries must be finite and non-negative")
    if abs(float(arr.sum()) - 1.0) > PROB_SUM_TOL:
        raise ValueError(f"{name} must sum to 1 within {PROB_SUM_TOL}, got {arr.sum()!r}")
    arr.setflags(write=False)
    return arr


@dataclass(frozen=True)
class FiniteDataDomain:
    """Finite data support with exact point probabilities."""

    points: tuple
    probs: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "points", tuple(self.points))
        object.__setattr__(self, "probs", _probability_vector(self.probs, "probs"))
        if len(self.points) != self.probs.size:
            raise ValueError("points and probs must have the same length")

    def __len__(self) -> int:
        return len(self.points)


@dataclass(frozen=True)
class DataSet:
    """An ordered sample from a domain, stored as indices into it."""

    domain: FiniteDataDomain
    item_indices: np.ndarray

    def __post_init__(self):
        idx = np.asarray(self.item_indices, dtype=np.int64).copy()
        if idx.ndim != 1 or idx.size == 0:
            raise ValueError("a dataset needs at least one item")
        if idx.min() < 0 or idx.max() >= len(self.domain):
            raise ValueError("item index outside the domain")
        idx.setflags(write=False)
        object.__setattr__(self, "item_indices", idx)

    @property
    def n(self) -> int:
        return int(self.item_indices.size)

    def items(self) -> tuple:
        return tuple(self.domain.points[i] for i in self.item_indices)


@dataclass(frozen=True)
class FiniteHypothesisSpace:
    """Enumerated hypothesis handles, prior weights, and a loss evaluator.

    The loss evaluator maps (hypothesis handle, data point) to a
    non-negative real.  Handles and points are opaque: plain integers for
    table-backed spaces, richer objects for e.g. linear classifiers.
    """

    hypotheses: tuple
    prior: np.ndarray
    loss: Callable[[Any, Any], float]

    def __post_init__(self):
        object.__setattr__(self, "hypotheses", tuple(self.hypotheses))
        object.__setattr__(self, "prior", _probability_vector(self.prior, "prior"))
        if len(self.hypotheses) != self.prior.size:
            raise ValueError("hypotheses and prior must have the same length")

    def __len__(self) -> int:
        return len(self.hypotheses)


@dataclass(frozen=True)
class LossProfile:
    """Per-hypothesis empirical and true losses, aligned with the space."""

    empirical: np.ndarray
    true: np.ndarray

    def __post_init__(self):
        emp = np.asarray(self.empirical, dtype=float).copy()
        tru = np.asarray(self.true, dtype=float).copy()
        if emp.ndim != 1 or emp.shape != tru.shape:
            raise ValueError("empirical and true loss vectors must be 1-d and aligned")
        if np.any(emp < 0.0) or np.any(tru < 0.0):
            raise ValueError("losses must be non-negative")
        emp.setflags(write=False)
        tru.setflags(write=False)
        object.__setattr__(self, "empirical", emp)
        object.__setattr__(self, "true", tru)


@dataclass(frozen=True)
class MinimizerSummary:
    """Loss minima over positive-prior hypotheses and their prior masses."""

    min_empirical: float
    min_true: float
    prior_mass_empirical_min: float
    prior_mass_true_min: float


@dataclass(frozen=True)
class StepCdf:
    """Right-continuous step CDF of a finitely supported weighted value set.

    levels holds the ascending distinct values that carry positive weight,
    cumulative the total weight at or below each level.
    """

    levels: np.ndarray
    cumulative: np.ndarray

    def at(self, r):
        """Total weight of values <= r; scalar in, scalar out."""
        r_arr = np.asarray(r, dtype=float)
        idx = np.searchsorted(self.levels, r_arr, side="right")
        out = np.where(idx > 0, self.cumulative[np.maximum(idx - 1, 0)], 0.0)
        return float(out) if out.ndim == 0 else out


def step_cdf(values, weights) -> StepCdf:
    """Collapse a weighted value list into its step CDF, dropping zero weights."""
    values = np.asarray(values, dtype=float)
    weights = np.asarray(weights, dtype=float)
    mask = weights > 0.0
    if not mask.any():
        raise ValueError("no value carries positive weight")
    v = values[mask]
    w = weights[mask]
    order = np.argsort(v, kind="stable")
    v = v[order]
    csum = np.cumsum(w[order])
    levels, starts = np.unique(v, return_index=True)
    last = np.append(starts[1:], v.size) - 1
    return StepCdf(levels, csum[last])


def inverse_cdf(weights, u) -> np.ndarray:
    """Indices of the atoms that uniforms u in [0, 1) select by inverse-CDF lookup.

    weights is either one non-negative vector shared by every entry of u,
    or a (T, K) stack whose row i serves row i of a (T, m) array u.  The
    running sum over the positive atoms is closed to 1.0 at the last of
    them, so u always lands on an atom of positive weight.
    """
    weights = np.asarray(weights, dtype=float)
    positive = weights > 0.0
    if weights.ndim == 1:
        support = np.flatnonzero(positive)
        if support.size == 0:
            raise ValueError("no atom carries positive weight")
        cum = np.cumsum(weights[support])
        cum[-1] = 1.0
        return support[np.searchsorted(cum, u, side="right")]
    if not positive.any(axis=1).all():
        raise ValueError("no atom carries positive weight")
    # zero-weight atoms leave the running sum flat, so a full-row sum selects
    # the same atoms as one over the support; close it from the last positive atom
    size = weights.shape[1]
    last = size - 1 - np.argmax(positive[:, ::-1], axis=1)
    cum = np.cumsum(weights, axis=1)
    cum[np.arange(size) >= last[:, None]] = 1.0
    # a row-wise searchsorted: the count of entries at or below u
    return (cum[:, None, :] <= np.asarray(u)[:, :, None]).sum(axis=2)


def sample_items(domain: FiniteDataDomain, n: int, seeds) -> np.ndarray:
    """(len(seeds), n) item indices; row i holds n iid points drawn from PCG64(seeds[i]).

    Each row is the stream sample_dataset draws for the same seed.  The
    whole block's uniforms come from one streams.uniform_rows call and
    select their items with one lookup, instead of one generator and one
    lookup per dataset.
    """
    return inverse_cdf(domain.probs, uniform_rows(seeds, n))


def sample_dataset(domain: FiniteDataDomain, n: int, seed: int) -> DataSet:
    """Draw n iid points by inverse-CDF sampling of a seeded PCG64 stream.

    Identical (domain, n, seed) triples produce identical datasets on every
    platform.  Zero-probability points are never drawn.
    """
    if n < 1:
        raise ValueError("n must be at least 1")
    u = np.random.Generator(np.random.PCG64(seed)).random(n)
    return DataSet(domain, inverse_cdf(domain.probs, u))


def empirical_losses(matrix: np.ndarray, items: np.ndarray) -> np.ndarray:
    """(T, H) empirical losses of every hypothesis on each row of a (T, n) item block.

    Means are taken over point multiplicities: matrix @ counts / n, one row
    at a time, because a single (T, X) by (X, H) product sums in another
    order and differs in the last bits.
    """
    rows, n = items.shape
    num_points = matrix.shape[1]
    offsets = num_points * np.arange(rows)[:, None]
    counts = np.bincount((items + offsets).ravel(), minlength=rows * num_points)
    return np.array([matrix @ row_counts for row_counts in counts.reshape(rows, num_points)]) / n


def _check_index(i: int, size: int) -> int:
    if not 0 <= i < size:
        raise IndexError(f"index {i} out of range for size {size}")
    return i


def empirical_loss(space: FiniteHypothesisSpace, h_index: int, data: DataSet) -> float:
    """Arithmetic mean of the per-item losses of one hypothesis."""
    h = space.hypotheses[_check_index(h_index, len(space))]
    points = data.domain.points
    return float(np.mean([space.loss(h, points[i]) for i in data.item_indices]))


def true_loss(space: FiniteHypothesisSpace, h_index: int, domain: FiniteDataDomain) -> float:
    """Exact expected loss of one hypothesis under the domain law."""
    h = space.hypotheses[_check_index(h_index, len(space))]
    return float(sum(p * space.loss(h, x) for p, x in zip(domain.probs, domain.points)))


def empirical_cdf(space: FiniteHypothesisSpace, profile: LossProfile, r: float) -> float:
    """Prior mass of hypotheses whose empirical loss is at most r."""
    _check_aligned(space, profile)
    return float(space.prior[profile.empirical <= r].sum())


def true_cdf(space: FiniteHypothesisSpace, profile: LossProfile, r: float) -> float:
    """Prior mass of hypotheses whose true loss is at most r."""
    _check_aligned(space, profile)
    return float(space.prior[profile.true <= r].sum())


def _check_aligned(space: FiniteHypothesisSpace, profile: LossProfile) -> None:
    if profile.empirical.size != len(space):
        raise ValueError("loss profile is not aligned with the hypothesis space")


def minimizer_summary(space: FiniteHypothesisSpace, profile: LossProfile) -> MinimizerSummary:
    """Minima over positive-prior hypotheses, with tie tolerance TIE_TOL.

    On a finite space the essential infimum under the prior is the minimum
    over atoms of positive prior mass; zero-prior hypotheses are ignored
    even if they achieve smaller losses.
    """
    _check_aligned(space, profile)
    mask = space.prior > 0.0
    if not mask.any():
        raise ValueError("no hypothesis carries positive prior mass")
    min_emp = float(profile.empirical[mask].min())
    min_true = float(profile.true[mask].min())
    mass_emp = float(space.prior[mask & (profile.empirical <= min_emp + TIE_TOL)].sum())
    mass_true = float(space.prior[mask & (profile.true <= min_true + TIE_TOL)].sum())
    return MinimizerSummary(min_emp, min_true, mass_emp, mass_true)


def loss_matrix(space: FiniteHypothesisSpace, domain: FiniteDataDomain) -> np.ndarray:
    """Dense (hypotheses x points) loss table for one space/domain pair."""
    out = np.empty((len(space), len(domain)), dtype=float)
    for i, h in enumerate(space.hypotheses):
        for j, x in enumerate(domain.points):
            out[i, j] = space.loss(h, x)
    if np.any(out < 0.0) or not np.all(np.isfinite(out)):
        raise ValueError("loss evaluator produced a negative or non-finite value")
    return out


def loss_profile(
    space: FiniteHypothesisSpace,
    domain: FiniteDataDomain,
    data: DataSet,
    matrix: np.ndarray | None = None,
) -> LossProfile:
    """Empirical and true loss vectors for every hypothesis at once.

    Empirical means are taken over point multiplicities (matrix @ counts),
    which agrees with per-item averaging up to summation order.  Pass a
    precomputed matrix when evaluating many datasets on one space.
    """
    m = loss_matrix(space, domain) if matrix is None else matrix
    return LossProfile(empirical_losses(m, data.item_indices[None])[0], m @ domain.probs)


# ---------------------------------------------------------------------------
# synthetic generators
# ---------------------------------------------------------------------------


def table_space(table, prior) -> FiniteHypothesisSpace:
    """Space whose handles and points are row/column indices of a loss table."""
    table = np.asarray(table, dtype=float).copy()
    if table.ndim != 2:
        raise ValueError("loss table must be 2-d")
    table.setflags(write=False)

    def loss(h, x):
        return float(table[h, x])

    return FiniteHypothesisSpace(tuple(range(table.shape[0])), prior, loss)


def _random_simplex(rng: np.random.Generator, k: int) -> np.ndarray:
    # Dirichlet(1,...,1) via normalized exponentials; strictly positive
    e = -np.log1p(-rng.random(k))
    return e / e.sum()


def random_loss_table(
    num_hypotheses: int,
    num_points: int,
    seed: int,
    random_prior: bool = False,
    random_probs: bool = False,
) -> tuple[FiniteDataDomain, FiniteHypothesisSpace]:
    """Loss table with iid uniform [0,1) entries; optional random weights."""
    if num_hypotheses < 1 or num_points < 1:
        raise ValueError("need at least one hypothesis and one point")
    rng = np.random.Generator(np.random.PCG64(seed))
    table = rng.random((num_hypotheses, num_points))
    probs = _random_simplex(rng, num_points) if random_probs else np.full(num_points, 1.0 / num_points)
    prior = _random_simplex(rng, num_hypotheses) if random_prior else np.full(num_hypotheses, 1.0 / num_hypotheses)
    domain = FiniteDataDomain(tuple(range(num_points)), probs)
    return domain, table_space(table, prior)


# level spacing of the constructed minimizer spaces; keeps the
# zero-temperature attainment threshold at ln(1/mass) / LEVEL_STEP
LEVEL_STEP = 0.1


def k_minimizer_space(
    num_hypotheses: int,
    num_minimizers: int,
    seed: int,
    num_points: int = 2,
) -> tuple[FiniteDataDomain, FiniteHypothesisSpace]:
    """Uniform prior with exactly num_minimizers hypotheses at loss zero.

    Every hypothesis has a constant loss over the domain, so the empirical
    minimizer set is the same for every dataset and its prior mass is
    exactly num_minimizers / num_hypotheses.  Non-minimizers sit on the
    LEVEL_STEP grid in (0, 1], so distinct loss levels are at least
    LEVEL_STEP apart.
    """
    if not 1 <= num_minimizers <= num_hypotheses:
        raise ValueError("num_minimizers must lie in [1, num_hypotheses]")
    rng = np.random.Generator(np.random.PCG64(seed))
    levels = LEVEL_STEP * rng.integers(1, 11, size=num_hypotheses).astype(float)
    which = rng.permutation(num_hypotheses)[:num_minimizers]
    levels[which] = 0.0
    table = np.repeat(levels[:, None], num_points, axis=1)
    domain = FiniteDataDomain(tuple(range(num_points)), np.full(num_points, 1.0 / num_points))
    return domain, table_space(table, np.full(num_hypotheses, 1.0 / num_hypotheses))


def permuted_label_task(
    num_inputs: int,
    seed: int,
    label_noise: float = 0.5,
) -> tuple[FiniteDataDomain, FiniteHypothesisSpace]:
    """Binary labeling of num_inputs atoms against a noisy planted pattern.

    Points are (input index, label) pairs; hypotheses are all 2**num_inputs
    sign patterns under the uniform prior, scored by 0-1 loss.  At
    label_noise = 0.5 the labels are pure coin flips: every hypothesis has
    true loss exactly 1/2, so the true-loss CDF vanishes below 1/2.  At
    label_noise = 0 the planted pattern is learnable with true loss 0.
    """
    if not 1 <= num_inputs <= 16:
        raise ValueError("num_inputs must lie in [1, 16] (hypothesis count is 2**num_inputs)")
    if not 0.0 <= label_noise <= 1.0:
        raise ValueError("label_noise must lie in [0, 1]")
    rng = np.random.Generator(np.random.PCG64(seed))
    planted = 2 * rng.integers(0, 2, size=num_inputs) - 1
    points = []
    probs = []
    for j in range(num_inputs):
        for y in (-1, 1):
            points.append((j, y))
            agree = 1.0 - label_noise if y == planted[j] else label_noise
            probs.append(agree / num_inputs)

    def loss(h, x):
        j, y = x[0], x[1]
        predicted = 1 if (h >> j) & 1 else -1
        return 0.0 if predicted == y else 1.0

    count = 2**num_inputs
    domain = FiniteDataDomain(tuple(points), np.asarray(probs))
    space = FiniteHypothesisSpace(tuple(range(count)), np.full(count, 1.0 / count), loss)
    return domain, space


SPACE_GENERATORS = {
    "random_loss_table": random_loss_table,
    "k_minimizer_space": k_minimizer_space,
    "permuted_label_task": permuted_label_task,
}


def build_space(spec: dict) -> tuple[FiniteDataDomain, FiniteHypothesisSpace]:
    """Instantiate a generator from {"name": ..., "params": {...}}, params checked against its signature."""
    if not isinstance(spec, dict):
        raise ValueError(f"a space spec must be an object with a name and params, got {spec!r}")
    name, params = spec.get("name"), spec.get("params", {})
    generator = SPACE_GENERATORS.get(name) if isinstance(name, str) else None
    if generator is None:
        raise ValueError(f"unknown space generator {name!r}")
    if not isinstance(params, dict):
        raise ValueError(f"params of space generator {name!r} must be an object, got {params!r}")
    accepted = inspect.signature(generator).parameters
    unknown = sorted(set(params) - set(accepted))
    missing = [p.name for p in accepted.values() if p.default is p.empty and p.name not in params]
    if unknown or missing:
        raise ValueError(
            f"space generator {name!r}: unknown parameters {unknown}, missing parameters {missing};"
            f" it takes {list(accepted)}"
        )
    return generator(**params)


# ---------------------------------------------------------------------------
# serialization
# ---------------------------------------------------------------------------


def space_to_document(domain: FiniteDataDomain, space: FiniteHypothesisSpace) -> dict:
    """JSON-ready document carrying the full loss table.

    Floats survive a round trip exactly: json emits the shortest decimal
    that parses back to the same 64-bit value.
    """
    table = loss_matrix(space, domain)
    return {
        "points": list(domain.points),
        "probs": [float(p) for p in domain.probs],
        "hypotheses": len(space),
        "prior": [float(p) for p in space.prior],
        "loss_table": [[float(v) for v in row] for row in table],
    }


def _freeze(value):
    if isinstance(value, list):
        return tuple(_freeze(v) for v in value)
    return value


def space_from_document(doc: dict) -> tuple[FiniteDataDomain, FiniteHypothesisSpace]:
    """Rebuild a (domain, space) pair; the loss evaluator reads the table."""
    points = tuple(_freeze(p) for p in doc["points"])
    table = np.asarray(doc["loss_table"], dtype=float)
    if table.shape != (doc["hypotheses"], len(points)):
        raise ValueError("loss table shape does not match point/hypothesis counts")
    table.setflags(write=False)
    column = {p: j for j, p in enumerate(points)}

    def loss(h, x):
        return float(table[h, column[_freeze(x)]])

    domain = FiniteDataDomain(points, np.asarray(doc["probs"], dtype=float))
    space = FiniteHypothesisSpace(
        tuple(range(doc["hypotheses"])), np.asarray(doc["prior"], dtype=float), loss
    )
    return domain, space


def save_space(path, domain: FiniteDataDomain, space: FiniteHypothesisSpace) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(space_to_document(domain, space), fh)
        fh.write("\n")


def load_space(path) -> tuple[FiniteDataDomain, FiniteHypothesisSpace]:
    with open(path, encoding="utf-8") as fh:
        return space_from_document(json.load(fh))
