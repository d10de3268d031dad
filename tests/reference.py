"""Scalar references and helpers the test modules share; the package itself never calls them.

Each reference computes one value the direct way, one call or one loop
step at a time, for the tests to hold the package's array paths to.
"""

import math
import platform
from collections import namedtuple
from typing import Sequence

import numpy as np

from gibbslab.gibbs import _check_conditions, _exponential_log, _normalized_rows
from gibbslab.measures import SATURATION, binary_kl
from gibbslab.model import _check_parameters, empirical_losses, loss_matrix

# the platform the pinned report hashes and verdict lines were recorded on
PINNED_PLATFORM = "x86_64 numpy 2.4.6 x86_v4=True"


def float_platform() -> str:
    """What sets the last bits of numpy's vectorized exp and log here.

    X86_V4 reads whether numpy dispatches its AVX-512 loops, which
    NPY_DISABLE_CPU_FEATURES can switch off on a CPU that has AVX-512.
    """
    try:
        from numpy._core._multiarray_umath import __cpu_features__
    except ImportError:
        __cpu_features__ = {}
    return f"{platform.machine()} numpy {np.__version__} x86_v4={bool(__cpu_features__.get('X86_V4'))}"


def finite_array_error(values, name: str, nonnegative: bool = False):
    """The message model._finite_array rejects a nonempty float array with, or None: np.isfinite's test and a sign test per entry."""
    arr = np.asarray(values, dtype=float)
    if not np.all(np.isfinite(arr)) or (nonnegative and np.any(arr < 0.0)):
        return f"{name} entries must be finite{' and non-negative' if nonnegative else ''}"
    return None


LossProfile = namedtuple("LossProfile", "empirical true")


def loss_profile(space, domain, data) -> LossProfile:
    """Empirical losses of every hypothesis on a DataSet drawn from domain, and their true losses."""
    table = loss_matrix(space, domain)
    return LossProfile(empirical_losses(table, data.item_indices[None])[0], table @ domain.probs)


def stable_rows(space, losses):
    """Each row's positive-prior losses, their argsort(kind="stable") order, the sorted levels and the running prior mass."""
    positive = space.prior > 0.0
    values = np.asarray(losses, dtype=float)[:, positive]
    order = np.argsort(values, axis=1, kind="stable")
    levels = np.take_along_axis(values, order, axis=1)
    return values, order, levels, np.cumsum(space.prior[positive][order], axis=1)


def complexity_rows_reference(space, losses, h_indices, beta):
    """The per-hypothesis complexity kernel: each index's objective over every level of its row, minimized on its own.

    Index i's objective is beta_i * (level - own loss) - ln mass at every
    atom of the stable step-CDF order of its loss row: a (1, H) row serves
    every index through its own copy.
    """
    h_indices = np.asarray(h_indices)
    losses = np.broadcast_to(np.asarray(losses, dtype=float), (len(h_indices), len(space)))
    _, _, levels, mass = stable_rows(space, losses)
    rows = np.arange(len(losses))
    shifts = levels - losses[rows, h_indices][:, None]
    rate = float(beta) if np.ndim(beta) == 0 else np.asarray(beta, dtype=float)[:, None]
    objective = rate * shifts - np.log(mass)
    best = np.argmin(objective, axis=1)
    return objective[rows, best], shifts[rows, best]


def density_rows_reference(space, losses, family, gamma):
    """The row kernel that checks the density conditions on every level of every row, whatever the family.

    Weights prior * q(loss) / Z and ln Z of a (T, H) loss block, or the
    error of its first failing row.
    """
    _check_parameters(gamma=gamma)
    losses = np.asarray(losses, dtype=float)
    values, order, levels, _ = stable_rows(space, losses)
    values_log_q = np.asarray(family.log_density(values), dtype=float)
    if values_log_q.shape != values.shape:
        values_log_q = np.broadcast_to(values_log_q, values.shape)
    levels_log_q = np.take_along_axis(values_log_q, order, axis=1)
    _check_conditions(levels, levels_log_q, gamma, family.name)
    if gamma == 0.0:
        return np.broadcast_to(space.prior, losses.shape), levels_log_q[:, 0] + 0.0
    shift = None
    if getattr(family.log_density, "func", None) is _exponential_log:
        shift = levels[:, :1]
        values_log_q = family.log_density(values - shift)
    positive = space.prior > 0.0
    total = np.full(losses.shape, -np.inf)
    total[:, positive] = np.log(space.prior[positive]) + values_log_q
    weights, log_z = _normalized_rows(total)
    if shift is not None:
        log_z = log_z + family.log_density(shift[:, 0])
    return weights, log_z


# the stream law's constants, written out here so that the tests do not read them from the package
STREAM_GAMMA = 0x9E3779B97F4A7C15
STREAM_MASK = 2**64 - 1


def stream_mix(z: int) -> int:
    """SplitMix64's finalizer on one int, masked to 64 bits after every step."""
    z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & STREAM_MASK
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & STREAM_MASK
    return z ^ (z >> 31)


def stream_outputs(key: int, n: int) -> list:
    """The first n outputs of a key: output i is mix(key + (i + 1) * GAMMA) mod 2**64."""
    return [stream_mix((key + (i + 1) * STREAM_GAMMA) & STREAM_MASK) for i in range(n)]


def stream_uniforms(key: int, n: int) -> list:
    """The first n uniforms of a key: the top 53 bits of each output times 2**-53."""
    return [(output >> 11) / 2.0**53 for output in stream_outputs(key, n)]


def trial_key(master_seed: int, *path: int) -> int:
    """mix folded as key = mix(key ^ word) from 0 over the master seed's 32-bit words, their count and the path."""
    words = []
    while True:
        words.append(master_seed % 2**32)
        master_seed //= 2**32
        if master_seed == 0:
            break
    key = 0
    for word in [*words, len(words), *path]:
        key = stream_mix(key ^ word)
    return key


def seed_pair_reference(master_seed: int, *path: int) -> tuple:
    """A trial's data key and draw key: the first two outputs of its key."""
    return tuple(stream_outputs(trial_key(master_seed, *path), 2))


def inverse_upper_reference(p, budget):
    """The bisection with one binary_kl call per step."""
    if budget == 0.0:
        return p
    hi = SATURATION
    if binary_kl(p, hi) <= budget:
        return hi
    lo = p
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        if mid <= lo or mid >= hi:
            break
        if binary_kl(p, mid) <= budget:
            lo = mid
        else:
            hi = mid
    return lo


def binary_kl_inverse_relaxed(p: float, budget: float) -> float:
    """Closed-form upper bound p + sqrt(2*p*budget) + 2*budget on the exact inverse.

    Not clamped to 1; callers that need a probability clamp themselves.
    """
    if not 0.0 <= p <= 1.0:
        raise ValueError(f"p must lie in [0, 1], got {p}")
    if not budget >= 0.0:
        raise ValueError(f"budget must be non-negative, got {budget}")
    return p + math.sqrt(2.0 * p * budget) + 2.0 * budget


def score(h: tuple, z: Sequence[float]) -> float:
    """Signed distance surrogate <direction, z> - bias of a hypothesis h = (direction, bias)."""
    direction, bias = h
    if len(z) != len(direction):
        raise ValueError(f"dimension mismatch: point has {len(z)}, hypothesis {len(direction)}")
    return float(sum(u * v for u, v in zip(direction, z))) - bias


def zero_one_loss(h: tuple, point: tuple) -> float:
    """0 when score * label of a point (z, label) is strictly positive, 1 otherwise (ties are errors)."""
    z, y = point
    return 0.0 if score(h, z) * y > 0.0 else 1.0
