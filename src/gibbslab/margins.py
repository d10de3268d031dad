"""Binary linear classification: scores, losses, soft margins, hypothesis grids.

The soft margin of a hypothesis at error fraction r is the best worst-case
score achievable after discarding at most an r-fraction of the points.  Its
positivity characterizes the empirical-loss level set exactly, which ties
the loss CDF machinery to classical margin geometry.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .model import (
    FiniteDataDomain,
    FiniteHypothesisSpace,
    _check_count,
    _check_parameters,
    _finite_array,
    _probability_vector,
)

__all__ = [
    "LabeledData",
    "LinearGrid",
    "margin_values",
    "level_set_equality_check",
    "build_linear_grid",
    "grid_space",
]

UNIT_NORM_TOL = 1e-10
# fractional point counts within this of an integer are that integer
COUNT_TOL = 1e-9


@dataclass(frozen=True)
class LabeledData:
    """Read-only (n, d) finite coordinates and their (n,) labels in {-1, +1}."""

    coords: np.ndarray
    labels: np.ndarray

    def __post_init__(self):
        coords = _finite_array(self.coords, "coords", 2)
        labels = np.array(self.labels)
        # numpy reads a bool among integers as 0 or 1, so the entries themselves are looked at
        if not (
            labels.shape == (len(coords),)
            and labels.dtype.kind in "iuf"
            and not any(isinstance(y, (bool, np.bool_)) for y in self.labels)
            and (np.abs(labels) == 1).all()
        ):
            raise ValueError(f"labels must be one -1 or +1 per row of coords ({len(coords)}), got {self.labels!r}")
        labels = labels.astype(np.int64)
        labels.setflags(write=False)
        object.__setattr__(self, "coords", coords)
        object.__setattr__(self, "labels", labels)


@dataclass(frozen=True)
class LinearGrid:
    """Oriented hyperplanes with a prior over them: read-only (H, d) unit directions and (H,) biases."""

    directions: np.ndarray
    biases: np.ndarray
    prior: np.ndarray

    def __post_init__(self):
        directions = _finite_array(self.directions, "directions", 2)
        norms = np.sqrt((directions * directions).sum(axis=1))
        off = np.abs(norms - 1.0) > UNIT_NORM_TOL
        if off.any():
            raise ValueError(f"directions must be unit vectors, got norm {norms[off][0]!r}")
        fields = {
            "directions": directions,
            "biases": _finite_array(self.biases, "biases", 1),
            "prior": _probability_vector(self.prior, "prior"),
        }
        for name, values in fields.items():
            if len(values) != len(directions):
                raise ValueError(f"{name} must have one entry per direction ({len(directions)}), got {len(values)}")
            object.__setattr__(self, name, values)

    def __len__(self) -> int:
        return len(self.directions)


def _retained_count(n: int, error_fraction: float) -> int:
    if not 0.0 <= error_fraction <= 1.0:
        raise ValueError(f"error fraction must lie in [0, 1], got {error_fraction}")
    allowed = min(math.floor(error_fraction * n + COUNT_TOL), n)
    # at error fraction 1 the raw count is 0; keep one point so the
    # min over the retained set stays defined
    return max(n - allowed, 1)


def _signed_scores(grid: LinearGrid, data: LabeledData) -> np.ndarray:
    """(H, n) score * label of every (hypothesis, point) pair, score = <direction, z> - bias.

    The sum runs 0.0 + u_0 z_0 + u_1 z_1 ... - bias, the operation order of
    float(sum(u * v for u, v in zip(direction, z))) - bias for each pair.
    """
    dim = grid.directions.shape[1]
    if data.coords.shape[1] != dim:
        raise ValueError(f"dimension mismatch: points have {data.coords.shape[1]} coordinates, hypotheses {dim}")
    scores = 0.0
    for k in range(dim):
        scores = scores + grid.directions[:, k : k + 1] * data.coords[:, k]
    return (scores - grid.biases[:, None]) * data.labels


def _margin_rows(values: np.ndarray, error_fraction: float) -> np.ndarray:
    """Each row's soft margin: its k-th largest value, from a stable sort of the negated row.

    Ties go to earlier indices, so the margin is the value itself, its
    sign of zero included.
    """
    keep = _retained_count(values.shape[1], error_fraction)
    order = np.argsort(-values, axis=1, kind="stable")[:, keep - 1 : keep]
    return np.take_along_axis(values, order, axis=1)[:, 0]


def margin_values(grid: LinearGrid, data: LabeledData, error_fraction: float) -> np.ndarray:
    """(H,) best min of score*label over index sets keeping at least a (1-r) fraction, per hypothesis.

    Keeping the k largest values maximizes the min over all sets of size at
    least k (any other set swaps in a smaller value), so the optimum is the
    k-th largest value with k = ceil((1-r) n).
    """
    return _margin_rows(_signed_scores(grid, data), error_fraction)


def level_set_equality_check(grid: LinearGrid, data: LabeledData, error_fraction: float) -> bool:
    """Exact set equality of the loss level set and the positive-margin level set.

    For every grid hypothesis, compares "at most floor(r n) errors under
    the 0-1 loss" with "margin positive and at most the grid maximum".  The
    error budget follows the same retained-count convention as
    margin_values, so the comparison is meaningful at error fraction 1 too.
    One block of score * label values gives every hypothesis' margin and
    its 0-1 error count (a point is an error unless its value is positive).
    """
    n = len(data.labels)
    allowed = n - _retained_count(n, error_fraction)
    signed = _signed_scores(grid, data)
    values = _margin_rows(signed, error_fraction)
    in_level_set = (~(signed > 0.0)).sum(axis=1) <= allowed
    in_margin_set = (0.0 < values) & (values <= values.max())
    return bool(np.array_equal(in_level_set, in_margin_set))


def build_linear_grid(
    angular_steps: int,
    bias_steps: int,
    bias_range: float,
    prior_kind: str = "uniform",
) -> LinearGrid:
    """Product grid of equiangular unit directions in the plane and biases, with a prior over its atoms.

    Atom a * bias_steps + b pairs direction a with bias b.  The prior is
    uniform over atoms or proportional to a standard Gaussian density in
    the bias (an everywhere-positive prior either way, so a fine enough
    grid puts mass on any open margin set).  The grid itself never
    depends on data.
    """
    _check_count("angular_steps", angular_steps, 4)
    _check_count("bias_steps", bias_steps, 1)
    _check_parameters(bias_range=bias_range)
    angles = 2.0 * math.pi * np.arange(angular_steps) / angular_steps
    directions = [(math.cos(a), math.sin(a)) for a in angles]
    biases = [0.0] if bias_steps == 1 else np.linspace(-bias_range, bias_range, bias_steps).tolist()
    size = angular_steps * bias_steps
    if prior_kind == "uniform":
        prior = np.full(size, 1.0 / size)
    elif prior_kind == "gaussian-projected":
        raw = np.tile([math.exp(-b**2 / 2.0) for b in biases], angular_steps)
        prior = raw / raw.sum()
    else:
        raise ValueError(f"unknown prior kind {prior_kind!r}")
    return LinearGrid(np.repeat(directions, bias_steps, axis=0), np.tile(biases, angular_steps), prior)


def grid_space(grid: LinearGrid, data: LabeledData) -> tuple[FiniteDataDomain, FiniteHypothesisSpace]:
    """The grid scored by the 0-1 loss on the data as a uniform domain of (coordinates, label) points.

    A pair's loss is 0 when score * label is strictly positive and 1
    otherwise: a score of zero is an error.
    """
    signed = _signed_scores(grid, data)
    n = len(data.labels)
    domain = FiniteDataDomain(tuple(zip(map(tuple, data.coords.tolist()), data.labels.tolist())), np.full(n, 1.0 / n))
    return domain, FiniteHypothesisSpace(np.where(signed > 0.0, 0.0, 1.0), grid.prior)
