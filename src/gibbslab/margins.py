"""Binary linear classification: scores, losses, soft margins, hypothesis grids.

The soft margin of a hypothesis at error fraction r is the best worst-case
score achievable after discarding at most an r-fraction of the points.  Its
positivity characterizes the empirical-loss level set exactly, which ties
the loss CDF machinery to classical margin geometry.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterable, Sequence

import numpy as np

from .model import FiniteDataDomain, FiniteHypothesisSpace, _check_count, _check_parameters

__all__ = [
    "LabeledPoint",
    "LinearHypothesis",
    "MarginResult",
    "margin_value",
    "level_set_equality_check",
    "LinearGrid",
    "build_linear_grid",
    "grid_space",
    "labeled_domain",
]

UNIT_NORM_TOL = 1e-10
# fractional point counts within this of an integer are that integer
COUNT_TOL = 1e-9


@dataclass(frozen=True)
class LabeledPoint:
    """An input vector with a binary label in {-1, +1}."""

    z: tuple
    y: int

    def __post_init__(self):
        z = tuple(float(v) for v in self.z)
        if not all(math.isfinite(v) for v in z):
            raise ValueError("coordinates must be finite")
        if self.y not in (-1, 1):
            raise ValueError(f"label must be -1 or +1, got {self.y}")
        object.__setattr__(self, "z", z)


@dataclass(frozen=True)
class LinearHypothesis:
    """Oriented hyperplane: unit direction and scalar offset."""

    direction: tuple
    bias: float

    def __post_init__(self):
        u = tuple(float(v) for v in self.direction)
        norm = math.sqrt(sum(v * v for v in u))
        if abs(norm - 1.0) > UNIT_NORM_TOL:
            raise ValueError(f"direction must be a unit vector, norm {norm!r}")
        object.__setattr__(self, "direction", u)
        object.__setattr__(self, "bias", float(self.bias))


@dataclass(frozen=True)
class MarginResult:
    """Soft margin value with the retained index set that attains it."""

    error_fraction: float
    value: float
    selected: tuple


def _retained_count(n: int, error_fraction: float) -> int:
    if not 0.0 <= error_fraction <= 1.0:
        raise ValueError(f"error fraction must lie in [0, 1], got {error_fraction}")
    allowed = min(math.floor(error_fraction * n + COUNT_TOL), n)
    # at error fraction 1 the raw count is 0; keep one point so the
    # min over the retained set stays defined
    return max(n - allowed, 1)


def _signed_scores(hypotheses: Sequence[LinearHypothesis], points: Sequence[LabeledPoint]) -> np.ndarray:
    """(H, n) score * label of every (hypothesis, point) pair, score = <direction, z> - bias.

    The sum runs 0.0 + u_0 z_0 + u_1 z_1 ... - bias, the operation order of
    float(sum(u * v for u, v in zip(direction, z))) - bias for each pair.
    """
    directions = np.array([h.direction for h in hypotheses])
    biases = np.array([h.bias for h in hypotheses])
    dims = sorted({len(point.z) for point in points})
    if dims != [directions.shape[1]]:
        raise ValueError(f"dimension mismatch: points have {dims} coordinates, hypotheses {directions.shape[1]}")
    coords = np.array([point.z for point in points])
    scores = 0.0
    for k in range(coords.shape[1]):
        scores = scores + directions[:, k : k + 1] * coords[:, k]
    return (scores - biases[:, None]) * np.array([point.y for point in points])


def _margin_rows(values: np.ndarray, error_fraction: float) -> tuple[np.ndarray, np.ndarray]:
    """Each row's soft margin and its retained indices, in descending order of value.

    A stable sort of the negated values, so ties go to earlier indices and
    the margin is the value itself, its sign of zero included.
    """
    keep = _retained_count(values.shape[1], error_fraction)
    order = np.argsort(-values, axis=1, kind="stable")[:, :keep]
    return np.take_along_axis(values, order[:, -1:], axis=1)[:, 0], order


def margin_value(
    h: LinearHypothesis, data: Sequence[LabeledPoint], error_fraction: float
) -> MarginResult:
    """Best min of score*label over index sets keeping at least a (1-r) fraction.

    Keeping the k largest values maximizes the min over all sets of size at
    least k (any other set swaps in a smaller value), so the optimum is the
    k-th largest value with k = ceil((1-r) n).  Ties go to earlier indices.
    """
    if len(data) == 0:
        raise ValueError("margin of an empty dataset")
    values, order = _margin_rows(_signed_scores([h], data), error_fraction)
    return MarginResult(float(error_fraction), float(values[0]), tuple(sorted(order[0].tolist())))


@dataclass(frozen=True)
class LinearGrid:
    """Linear hypotheses with a prior over them, scored by the 0-1 loss."""

    hypotheses: tuple
    prior: np.ndarray

    def __len__(self) -> int:
        return len(self.hypotheses)


def level_set_equality_check(grid: LinearGrid, data: Sequence[LabeledPoint], error_fraction: float) -> bool:
    """Exact set equality of the loss level set and the positive-margin level set.

    For every grid hypothesis, compares "at most floor(r n) errors under
    the 0-1 loss" with "margin positive and at most the grid maximum".  The
    error budget follows the same retained-count convention as
    margin_value, so the comparison is meaningful at error fraction 1 too.
    One block of score * label values gives every hypothesis' margin and
    its 0-1 error count (a point is an error unless its value is positive).
    """
    n = len(data)
    if n == 0:
        raise ValueError("empty dataset")
    allowed = n - _retained_count(n, error_fraction)
    signed = _signed_scores(grid.hypotheses, data)
    values, _ = _margin_rows(signed, error_fraction)
    best = max(values.tolist())
    in_level_set = (~(signed > 0.0)).sum(axis=1) <= allowed
    in_margin_set = (0.0 < values) & (values <= best)
    return bool(np.array_equal(in_level_set, in_margin_set))


def build_linear_grid(
    angular_steps: int,
    bias_steps: int,
    bias_range: float,
    prior_kind: str = "uniform",
) -> LinearGrid:
    """Product grid of equiangular unit directions in the plane and biases, with a prior over its atoms.

    The prior is uniform over atoms or proportional to a standard Gaussian
    density in the bias (an everywhere-positive prior either way, so a fine
    enough grid puts mass on any open margin set).  The grid itself never
    depends on data.
    """
    _check_count("angular_steps", angular_steps, 4)
    _check_count("bias_steps", bias_steps, 1)
    _check_parameters(bias_range=bias_range)
    directions = [(math.cos(a), math.sin(a)) for a in 2.0 * math.pi * np.arange(angular_steps) / angular_steps]
    biases = [0.0] if bias_steps == 1 else list(np.linspace(-bias_range, bias_range, bias_steps))
    hypotheses = tuple(LinearHypothesis(u, b) for u in directions for b in biases)

    if prior_kind == "uniform":
        prior = np.full(len(hypotheses), 1.0 / len(hypotheses))
    elif prior_kind == "gaussian-projected":
        raw = np.asarray([math.exp(-h.bias**2 / 2.0) for h in hypotheses])
        prior = raw / raw.sum()
    else:
        raise ValueError(f"unknown prior kind {prior_kind!r}")
    prior.setflags(write=False)
    return LinearGrid(hypotheses, prior)


def grid_space(grid: LinearGrid, domain: FiniteDataDomain) -> FiniteHypothesisSpace:
    """The grid scored on a domain of LabeledPoints by the 0-1 loss, as a hypothesis space.

    A pair's loss is 0 when score * label is strictly positive and 1
    otherwise: a score of zero is an error.
    """
    signed = _signed_scores(grid.hypotheses, domain.points)
    return FiniteHypothesisSpace(np.where(signed > 0.0, 0.0, 1.0), grid.prior)


def labeled_domain(points: Iterable[LabeledPoint], probs=None) -> FiniteDataDomain:
    """Wrap labeled points as a finite domain, uniform unless probs given."""
    pts = tuple(points)
    if probs is None:
        probs = np.full(len(pts), 1.0 / len(pts))
    return FiniteDataDomain(pts, probs)
