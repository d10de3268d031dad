"""Scalar information-theoretic primitives and their array forms.

Bernoulli relative entropy (per scalar and per array element) and its
numeric inverse over whole arrays.  Everything here is a pure function of
scalars or vectors and safe to call from parallel trials.
"""

from __future__ import annotations

import math

import numpy as np

__all__ = [
    "binary_kl",
    "binary_kl_rows",
    "binary_kl_inverse_upper_rows",
    "per_element",
]

# binary_kl(p, .) diverges at 1, so inversion saturates just below it.
SATURATION = 1.0 - 1e-15


def binary_kl(p: float, q: float) -> float:
    """Relative entropy of Bernoulli(p) with respect to Bernoulli(q), in nats.

    Uses the convention 0*ln(0) = 0, so p = 0 and p = 1 are valid.  The
    result is non-negative and zero exactly when p = q.
    """
    if not 0.0 <= p <= 1.0:
        raise ValueError(f"p must lie in [0, 1], got {p}")
    if not 0.0 < q < 1.0:
        raise ValueError(f"q must lie in the open interval (0, 1), got {q}")
    value = 0.0
    if p > 0.0:
        value += p * math.log(p / q)
    if p < 1.0:
        value += (1.0 - p) * math.log((1.0 - p) / (1.0 - q))
    # rounding can produce ~-1e-17 at p == q; the divergence is non-negative
    return max(value, 0.0)


def per_element(function, x) -> np.ndarray:
    """A math-module function such as math.log applied to every element of x.

    numpy's vectorized np.log and np.log1p differ from math.log and
    math.log1p in the last bit on some inputs (np.log on a few in a
    thousand, np.log1p on about 7% on AVX-512 CPUs), and reports would
    follow.
    """
    x = np.asarray(x, dtype=float)
    return np.fromiter(map(function, x.ravel().tolist()), float, x.size).reshape(x.shape)


def binary_kl_rows(p: np.ndarray, q: np.ndarray) -> np.ndarray:
    """binary_kl(p[i], q[i]) for every i, with the scalar function's bits.

    The same operations as binary_kl on arrays: the arithmetic and the
    comparisons round alike in numpy and in Python floats, and the logs are
    math.log.  Raises the scalar function's error for the first element
    outside its domain.
    """
    p, q = np.asarray(p, dtype=float), np.asarray(q, dtype=float)
    outside = ~((0.0 <= p) & (p <= 1.0)) | ~((0.0 < q) & (q < 1.0))
    if outside.any():
        i = int(np.argmax(outside))
        binary_kl(float(p[i]), float(q[i]))
    value = np.zeros(p.shape)
    above = p > 0.0
    # p / q overflows to inf at a subnormal q, silently, as a Python float
    # division does; 0.0 + x, as the scalar's value += x, writes -0.0 as 0.0
    with np.errstate(over="ignore"):
        value[above] = 0.0 + p[above] * per_element(math.log, p[above] / q[above])
    below = p < 1.0
    rest = 1.0 - p[below]
    value[below] = value[below] + rest * per_element(math.log, rest / (1.0 - q[below]))
    # max(value, 0.0) keeps value unless 0.0 > value
    return np.where(0.0 > value, 0.0, value)


# comparisons of the divergence with the budget closer than this times the
# size of its two terms are decided again with math.log: about 4,500 ulp
LOG_BAND = 1e-12


def _divergence_terms(p, rest, mid, log):
    """The two terms rest * ln(rest / (1 - mid)) and p * ln(p / mid) of binary_kl(p, mid) under log.

    At p = 0 the second term is 0, as binary_kl leaves it out: its log reads 1 there.
    """
    return rest * log(rest / (1.0 - mid)), p * log(np.where(p > 0.0, p / mid, 1.0))


def binary_kl_inverse_upper_rows(p, budget) -> np.ndarray:
    """Largest q in [p[i], 1) with binary_kl(p[i], q) <= budget[i], for every i.

    One bisection on the monotone map q -> binary_kl(p, q) over whole
    arrays, narrowed to float resolution, so for any attainable budget the
    returned q solves binary_kl(p, q) = budget to ~1e-10 or better.  Budgets
    beyond binary_kl(p, SATURATION) return the saturation point: the
    divergence blows up at q -> 1 and the bound is vacuous there.

    The divergence at the midpoints comes from np.log.  Assuming np.log and
    math.log both lie within a few ulp of the true logarithm, the two
    divergences differ by far less than LOG_BAND times the size of their
    terms, so a comparison with the budget outside that band has the same
    outcome under either; the comparisons inside it are made again with
    math.log through per_element.  Every step then takes the decision of a
    bisection with one binary_kl call per step, and every returned q carries
    its bits.  Raises a ValueError naming the first element outside the
    domain.
    """
    p, budget = np.asarray(p, dtype=float), np.asarray(budget, dtype=float)
    if p.ndim != 1 or p.shape != budget.shape:
        raise ValueError(f"p and budget must be 1-d arrays of equal length, got shapes {p.shape} and {budget.shape}")
    bad_p = ~((0.0 <= p) & (p < 1.0))
    if bad_p.any():
        i = int(np.argmax(bad_p))
        raise ValueError(f"p[{i}] must lie in [0, 1), got {p[i]}")
    # a nan budget fails every comparison and would pass a budget < 0.0 test
    bad_budget = ~(budget >= 0.0)
    if bad_budget.any():
        i = int(np.argmax(bad_budget))
        raise ValueError(f"budget[{i}] must be non-negative, got {budget[i]}")
    q = p.copy()
    positive = np.flatnonzero(budget > 0.0)
    saturated = binary_kl_rows(p[positive], np.full(positive.size, SATURATION)) <= budget[positive]
    q[positive[saturated]] = SATURATION
    # invariant: binary_kl(p, lo) <= budget < binary_kl(p, hi); lo = p is
    # never evaluated (divergence there is 0 by definition).  The loop tests
    # binary_kl(p, mid) <= budget with the divergence written out: mid lies
    # in (0, 1), and for a positive budget the clamp max(value, 0.0) does not
    # change the test
    live = positive[~saturated]
    p, budget = p[live], budget[live]
    rest = 1.0 - p
    lo, hi = p.copy(), np.full(live.size, SATURATION)
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        moving = (mid > lo) & (mid < hi)
        if not moving.all():
            q[live[~moving]] = lo[~moving]
            live, p, budget, rest, lo, hi, mid = (a[moving] for a in (live, p, budget, rest, lo, hi, mid))
            if not live.size:
                break
        upper, lower = _divergence_terms(p, rest, mid, np.log)
        value = upper + lower
        # upper >= 0 >= lower: mid > p puts the first log's argument at or above 1, the second's at or below
        near = np.flatnonzero(np.abs(value - budget) <= LOG_BAND * (upper - lower))
        if near.size:
            exact = _divergence_terms(p[near], rest[near], mid[near], lambda x: per_element(math.log, x))
            value[near] = exact[0] + exact[1]
        below = value <= budget
        lo = np.where(below, mid, lo)
        hi = np.where(below, hi, mid)
    q[live] = lo
    return q
