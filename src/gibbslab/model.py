"""Finite statistical settings with exactly computable loss distributions.

A data distribution is a finite list of opaque points with explicit
probabilities, a hypothesis space is a prior over the rows of a dense loss
table with one column per point.  With both finite, the true loss, the
empirical loss, and the prior CDFs of either are exact quantities rather
than estimates, which is what lets the bound harnesses check probabilistic
claims against ground truth.
"""

from __future__ import annotations

import inspect
import math
import numbers
from dataclasses import dataclass

import numpy as np

__all__ = [
    "FiniteDataDomain",
    "DataSet",
    "FiniteHypothesisSpace",
    "StepCdf",
    "step_cdf",
    "inverse_cdf",
    "sample_dataset",
    "empirical_losses",
    "loss_matrix",
    "random_loss_table",
    "k_minimizer_space",
    "permuted_label_task",
    "SPACE_GENERATORS",
    "build_space",
]

PROB_SUM_TOL = 1e-12
# the most points one dataset or stream holds (one row of 2**20 uniforms:
# 16 ms and a 16 MiB peak on a 2-core Xeon)
MAX_POINTS = 2**20
# losses within this of the minimum count as minimizers (float level sets)
TIE_TOL = 1e-12


def _finite_array(values, name: str, ndim: int, nonnegative: bool = False) -> np.ndarray:
    """A read-only C-ordered float64 copy of a nonempty ndim-d array of finite (and, if asked, non-negative) values."""
    try:
        arr = np.array(values, dtype=float, order="C")
    except (TypeError, ValueError, OverflowError) as exc:
        raise ValueError(f"{name} must be an array of numbers: {exc}") from None
    if arr.ndim != ndim or arr.size == 0:
        raise ValueError(f"{name} must be a nonempty {ndim}-d array, got shape {arr.shape}")
    # one read each for min and max: a nan carries through both and fails every comparison, and -0.0 >= 0.0 holds
    lo, hi = arr.min(), arr.max()
    if not (-np.inf < lo and hi < np.inf and (lo >= 0.0 or not nonnegative)):
        raise ValueError(f"{name} entries must be finite{' and non-negative' if nonnegative else ''}")
    arr.setflags(write=False)
    return arr


# the number predicates of every public entry point: a bool is no number, though Python counts it an int
def _is_integer(value) -> bool:
    return isinstance(value, numbers.Integral) and not isinstance(value, bool)


def _is_real(value) -> bool:
    return isinstance(value, numbers.Real) and not isinstance(value, bool)


def _is_finite(value) -> bool:
    """A real number that is a finite float; an integer past the float range is not."""
    try:
        return _is_real(value) and math.isfinite(value)
    except OverflowError:
        return False


def _check_count(name: str, value, minimum: int, maximum: float = math.inf) -> None:
    if not (_is_integer(value) and value >= minimum):
        raise ValueError(f"{name} must be an integer of at least {minimum}, got {value!r}")
    if value > maximum:
        raise ValueError(f"{name} must be at most {maximum}, got {value!r}")


def _check_parameters(**params) -> None:
    """Every parameter a finite non-negative number; the first that is not is named."""
    for name, value in params.items():
        if not (_is_finite(value) and value >= 0.0):
            raise ValueError(f"{name} must be a finite non-negative number, got {value!r}")


def _unit_uniforms(values, name: str) -> np.ndarray:
    """values as a float array, checked to lie in [0, 1); min and max carry a nan, which fails both comparisons."""
    arr = np.asarray(values, dtype=float)
    if arr.size and not (arr.min() >= 0.0 and arr.max() < 1.0):
        raise ValueError(f"{name} must lie in [0, 1), got a value in [{arr.min()!r}, {arr.max()!r}]")
    return arr


def _probability_vector(values, name: str) -> np.ndarray:
    arr = _finite_array(values, name, 1, nonnegative=True)
    if abs(float(arr.sum()) - 1.0) > PROB_SUM_TOL:
        raise ValueError(f"{name} must sum to 1 within {PROB_SUM_TOL}, got {arr.sum()!r}")
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


@dataclass(frozen=True)
class FiniteHypothesisSpace:
    """A read-only (hypotheses x points) loss table and prior weights over its rows.

    Row h holds the loss of hypothesis h at every point of the domain the
    table was built for, column j at that domain's point j.
    """

    table: np.ndarray
    prior: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "table", _finite_array(self.table, "table", 2, nonnegative=True))
        object.__setattr__(self, "prior", _probability_vector(self.prior, "prior"))
        if self.table.shape[0] != self.prior.size:
            raise ValueError(f"the loss table has {len(self.table)} rows but the prior has {self.prior.size} entries")

    def __len__(self) -> int:
        return self.table.shape[0]


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
    if values.shape != weights.shape:
        raise ValueError(f"values and weights must be aligned, got shapes {values.shape} and {weights.shape}")
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


def _guided_search(cum: np.ndarray, u: np.ndarray) -> np.ndarray:
    """np.searchsorted(cum, u, side="right") for a running sum cum closed to 1.0 and uniforms u in [0, 1).

    The indexed search of Chen & Asau (1974; Devroye 1986, section III.2.4).
    Bucket b of m, m a power of two and at least 4 * len(cum), holds the
    count of entries of cum at or below b / m.  u * m is exact, so u's
    bucket count is at most its answer; two steps of idx += cum[idx] <= u
    close the gap for nearly every u, and the entries still short, where
    entries of cum crowd one bucket, finish with the binary search.  The
    answer is below len(cum), since cum[-1] = 1.0 exceeds every u, so
    cum[idx] stays in range.  The table costs m entries, so a u of fewer
    entries takes the binary search at once.
    """
    buckets = 1 << (4 * len(cum) - 1).bit_length()
    if u.size < buckets:
        return np.searchsorted(cum, u, side="right")
    guide = np.searchsorted(cum, np.arange(buckets) / buckets, side="right")
    idx = guide[(u * buckets).astype(np.intp)]
    for _ in range(2):
        idx += cum[idx] <= u
    short = cum[idx] <= u
    if short.any():
        idx[short] = np.searchsorted(cum, u[short], side="right")
    return idx


def inverse_cdf(weights, u) -> np.ndarray:
    """Indices of the atoms that uniforms u in [0, 1) select by inverse-CDF lookup.

    weights is either one non-negative vector shared by every entry of u,
    or a (T, K) stack whose row i serves row i of a (T, m) array u.  The
    running sum over the positive atoms is closed to 1.0 at the last of
    them, so u always lands on an atom of positive weight.  Shared weights
    are looked up through a guide table where u is large enough to pay
    for one (_guided_search), with the indices of the binary search.
    """
    weights = np.asarray(weights, dtype=float)
    u = _unit_uniforms(u, "u")
    positive = weights > 0.0
    if weights.ndim == 1:
        support = np.flatnonzero(positive)
        if support.size == 0:
            raise ValueError("no atom carries positive weight")
        cum = np.cumsum(weights[support])
        cum[-1] = 1.0
        return support[_guided_search(cum, u)]
    if not positive.any(axis=1).all():
        raise ValueError("no atom carries positive weight")
    cum = _closed_running_sums(weights, positive)
    # a row-wise searchsorted: the count of entries at or below u
    return (cum[:, None, :] <= u[:, :, None]).sum(axis=2)


def _closed_running_sums(weights: np.ndarray, positive: np.ndarray) -> np.ndarray:
    """Each row's running sum of a (T, K) weight stack, closed to 1.0 from its last positive atom (weights > 0.0) on.

    Zero-weight atoms leave the running sum flat, so a full-row sum selects
    the same atoms as one over the support.  A row whose last atom is
    positive closes at that atom alone, as every row of a positive Gibbs
    block does; only the rows that end in zero-weight atoms are masked.
    """
    cum = np.cumsum(weights, axis=1)
    cum[:, -1] = 1.0
    open_rows = np.flatnonzero(~positive[:, -1])
    if open_rows.size:
        size = weights.shape[1]
        last = size - 1 - np.argmax(positive[open_rows, ::-1], axis=1)
        cum[open_rows] = np.where(np.arange(size) >= last[:, None], 1.0, cum[open_rows])
    return cum


def sample_dataset(domain: FiniteDataDomain, n: int, seed: int) -> DataSet:
    """Draw n iid points by inverse-CDF sampling of the first n uniforms of key seed, in [0, 2**64).

    Identical (domain, n, seed) triples produce identical datasets on every
    platform.  Zero-probability points are never drawn.
    """
    from .streams import MASK64, uniform_rows  # at call time: streams imports this module

    _check_count("n", n, 1, MAX_POINTS)
    _check_count("seed", seed, 0, MASK64)
    return DataSet(domain, inverse_cdf(domain.probs, uniform_rows(np.array([seed], dtype=np.uint64), n)[0]))


def empirical_losses(matrix: np.ndarray, items: np.ndarray, sizes=None) -> np.ndarray:
    """(T, H) empirical losses of every hypothesis on each row of a (T, n) item block.

    Means are taken over point multiplicities: matrix @ counts / n per row,
    as one stacked matmul of the matrix with each row's counts as an (X, 1)
    column, which makes the per-row matrix-vector product; a single (T, X)
    by (X, H) product sums in another order and differs in the last bits.
    Some BLAS kernels sum in an order set by the column's 16-byte
    alignment, so the counts are float64 rows of even width: every row
    starts aligned, as a lone row does, and has a lone row's bits.
    Given sizes, row i's dataset is its first sizes[i] items and its mean
    divides by sizes[i]: datasets of several sizes share one block.  An
    item outside [0, X) or a size outside [1, n] would land in another
    row's counts or in no row's, so it is rejected; so is a block of no
    items, whose means divide by 0, and an item or size that is no
    integer, which numpy would count or divide by as it stands (a bool as 1).
    """
    rows, n = items.shape
    num_points = matrix.shape[1]
    if n == 0 or not np.issubdtype(items.dtype, np.integer):
        raise ValueError(f"items must be a (T, n) block of integers with n >= 1, got dtype {items.dtype}, shape {items.shape}")
    if items.size and not (items.min() >= 0 and items.max() < num_points):
        raise ValueError(f"items must index the {num_points} points, got values in [{items.min()}, {items.max()}]")
    width = num_points + num_points % 2
    flat = items + width * np.arange(rows)[:, None]
    if sizes is not None:
        # numpy reads a bool inside a list of ints as 0 or 1, so bools are found before the conversion
        bools = np.ndim(sizes) == 1 and any(isinstance(size, (bool, np.bool_)) for size in sizes)
        given, sizes = sizes, np.asarray(sizes)
        whole = np.issubdtype(sizes.dtype, np.integer)
        if bools or sizes.shape != (rows,) or (rows and not (whole and sizes.min() >= 1 and sizes.max() <= n)):
            raise ValueError(f"sizes must hold one integer in [1, {n}] per row, shape ({rows},), got {given!r}")
        flat = flat[np.arange(n) < sizes[:, None]]
        n = sizes[:, None]
    counts = np.bincount(flat.ravel(), minlength=rows * width).astype(float).reshape(rows, width)
    return np.matmul(matrix, counts[:, :num_points, None])[:, :, 0] / n


def loss_matrix(space: FiniteHypothesisSpace, domain: FiniteDataDomain) -> np.ndarray:
    """The space's read-only loss table, checked to have one column per point of domain."""
    if space.table.shape[1] != len(domain):
        raise ValueError(f"the loss table has {space.table.shape[1]} columns but the domain has {len(domain)} points")
    return space.table


# ---------------------------------------------------------------------------
# synthetic generators
# ---------------------------------------------------------------------------


def _random_simplex(rng: np.random.Generator, k: int) -> np.ndarray:
    # Dirichlet(1,...,1) via normalized exponentials; strictly positive
    e = -np.log1p(-rng.random(k))
    return e / e.sum()


def random_loss_table(
    num_hypotheses: int,
    num_points: int,
    seed: int,
    random_prior: bool = False,
) -> tuple[FiniteDataDomain, FiniteHypothesisSpace]:
    """Loss table with iid uniform [0,1) entries over uniform points; optional random prior."""
    _check_count("num_hypotheses", num_hypotheses, 1)
    _check_count("num_points", num_points, 1)
    _check_count("seed", seed, 0)
    # a string such as "false" is truthy and would silently draw a random prior
    if not isinstance(random_prior, (bool, np.bool_)):
        raise ValueError(f"random_prior must be a boolean, got {random_prior!r}")
    rng = np.random.Generator(np.random.PCG64(seed))
    table = rng.random((num_hypotheses, num_points))
    prior = _random_simplex(rng, num_hypotheses) if random_prior else np.full(num_hypotheses, 1.0 / num_hypotheses)
    domain = FiniteDataDomain(tuple(range(num_points)), np.full(num_points, 1.0 / num_points))
    return domain, FiniteHypothesisSpace(table, prior)


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
    _check_count("num_hypotheses", num_hypotheses, 1)
    _check_count("num_minimizers", num_minimizers, 1)
    _check_count("num_points", num_points, 1)
    _check_count("seed", seed, 0)
    if num_minimizers > num_hypotheses:
        raise ValueError("num_minimizers must lie in [1, num_hypotheses]")
    rng = np.random.Generator(np.random.PCG64(seed))
    levels = LEVEL_STEP * rng.integers(1, 11, size=num_hypotheses).astype(float)
    which = rng.permutation(num_hypotheses)[:num_minimizers]
    levels[which] = 0.0
    table = np.repeat(levels[:, None], num_points, axis=1)
    domain = FiniteDataDomain(tuple(range(num_points)), np.full(num_points, 1.0 / num_points))
    return domain, FiniteHypothesisSpace(table, np.full(num_hypotheses, 1.0 / num_hypotheses))


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
    _check_count("num_inputs", num_inputs, 1)
    _check_count("seed", seed, 0)
    if num_inputs > 16:
        raise ValueError("num_inputs must lie in [1, 16] (hypothesis count is 2**num_inputs)")
    if not (_is_real(label_noise) and 0.0 <= label_noise <= 1.0):
        raise ValueError(f"label_noise must be a number in [0, 1], got {label_noise!r}")
    rng = np.random.Generator(np.random.PCG64(seed))
    planted = 2 * rng.integers(0, 2, size=num_inputs) - 1
    points = [(j, y) for j in range(num_inputs) for y in (-1, 1)]
    probs = [(1.0 - label_noise if y == planted[j] else label_noise) / num_inputs for j, y in points]
    # hypothesis h predicts +1 at input j when bit j of h is set
    j, y = np.asarray(points).T
    h = np.arange(2**num_inputs)[:, None]
    table = np.where(np.where((h >> j) & 1, 1, -1) == y, 0.0, 1.0)
    return FiniteDataDomain(tuple(points), probs), FiniteHypothesisSpace(table, np.full(h.size, 1.0 / h.size))


SPACE_GENERATORS = {
    "random_loss_table": random_loss_table,
    "k_minimizer_space": k_minimizer_space,
    "permuted_label_task": permuted_label_task,
}


def _from_spec(kind: str, factories: dict, spec):
    """factories[name](**params) for a spec {"name": name, "params": {...}}, params checked against the factory's signature.

    kind names the factory in the errors, as "space generator" or "density family".
    """
    if not isinstance(spec, dict):
        raise ValueError(f"a {kind} spec must be an object with a name and params, got {spec!r}")
    name, params = spec.get("name"), spec.get("params", {})
    factory = factories.get(name) if isinstance(name, str) else None
    if factory is None:
        raise ValueError(f"unknown {kind} {name!r}")
    if not isinstance(params, dict):
        raise ValueError(f"params of {kind} {name!r} must be an object, got {params!r}")
    accepted = inspect.signature(factory).parameters
    unknown = sorted(set(params) - set(accepted))
    missing = [p.name for p in accepted.values() if p.default is p.empty and p.name not in params]
    if unknown or missing:
        raise ValueError(
            f"{kind} {name!r}: unknown parameters {unknown}, missing parameters {missing}; it takes {list(accepted)}"
        )
    return factory(**params)


def build_space(spec: dict) -> tuple[FiniteDataDomain, FiniteHypothesisSpace]:
    """Instantiate a generator from {"name": ..., "params": {...}}, params checked against its signature."""
    return _from_spec("space generator", SPACE_GENERATORS, spec)
