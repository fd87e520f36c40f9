"""Rule deciding which edge, if any, a discovered triangle is charged to.

Every edge of the triangle gets an estimated incident-triangle count: the
fraction of wedge samples from its anchor that closed, scaled by the edge
degree, or infinity outright when the edge degree exceeds the cheapness
cutoff m * kappa^2 / (eps^2 * T). The edge with the smallest estimate wins
(ties by canonical edge order) unless even that estimate exceeds the load
cutoff kappa / (2 * eps), in which case the triangle stays unassigned.

`assign_rows` is the rule, over a (k, 3) array of estimates with one row
per triangle. The estimator applies it once per repetition to all the
triangles it discovered and keeps the rows' charged columns as its memo,
so each triangle is charged to at most one of its own edges.
"""

from __future__ import annotations

import math
from typing import Callable

import numpy as np

from .errors import ConfigError

INFINITY = math.inf


def degree_cutoff(m: int, epsilon: float, t_hat: int, kappa_hat: int) -> float:
    """Edges with d_e above this are never estimated, only skipped."""
    return m * kappa_hat * kappa_hat / (epsilon * epsilon * t_hat)


def load_cutoff(epsilon: float, kappa_hat: int) -> float:
    """Largest estimated count an edge may have and still accept a triangle."""
    return kappa_hat / (2.0 * epsilon)


def _log2n(n: int) -> float:
    """log2(n), read as 1 below n = 2, as every sample size uses it."""
    return math.log2(n) if n >= 2 else 1.0


def _ceil_size(name: str, size: Callable[[], float], **inputs) -> int:
    """max(1, ceil(size())), or a ConfigError naming `inputs` when they take
    the size out of float range: an int too large for a float, eps^2
    underflowing to 0, or an infinite product."""
    try:
        return max(1, math.ceil(size()))
    except ArithmeticError:
        given = ", ".join(f"{key} {value}" for key, value in inputs.items())
        raise ConfigError(f"{name} is out of float range for {given}") from None


def compute_s(n: int, m: int, epsilon: float, t_hat: int, kappa_hat: int,
              scale: float = 1.0) -> int:
    """Wedge samples per estimated edge.

    ceil(scale * 61 * log2(n) / eps^2 * m * kappa_hat / t_hat); 61 is above
    the analysis floor 60. Per-edge saturation (sampling the whole
    neighborhood once s >= d_e) is handled at request time.
    """
    if t_hat < 1:
        raise ConfigError(f"t_hat must be >= 1, got {t_hat}")
    if epsilon <= 0:
        raise ConfigError(f"epsilon must be positive, got {epsilon}")
    return _ceil_size("s", lambda: scale * (61 * _log2n(n) / (epsilon * epsilon)
                                            * m * kappa_hat / t_hat),
                      epsilon=epsilon, t_hat=t_hat, kappa_hat=kappa_hat)


def assign_rows(y, epsilon: float, kappa_hat: int) -> np.ndarray:
    """The assignment rule over rows of estimates, one row per triangle.

    Row i holds the estimates of triangle i's edges in canonical order, the
    order of `triangle_edges`. Per row: the column of the edge with the
    smallest estimate, ties to the canonical-first edge, or -1 when even
    that estimate exceeds the load cutoff.
    """
    y = np.asarray(y, dtype=np.float64).reshape(-1, 3)
    best = y.argmin(axis=1)  # the first column holding the minimum
    return np.where(y[np.arange(len(y)), best] > load_cutoff(epsilon, kappa_hat), -1, best)
