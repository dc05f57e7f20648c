"""Configuration-space geometry: distances, the potential and feasibility tests.

A configuration is a flat float array of length n.  For k robots in a
d-dimensional workspace n = k * d and the coordinates are the stacked
per-robot positions.  Every obstacle is an open axis-aligned box in the
workspace: its interior is infeasible, its boundary feasible.  An
environment snapshot holds its revealed boxes as (P, d) corner arrays `lo`
and `hi`, and each test below reads them in one call: `box_distances` for
distances, one point-in-box expression for positions, and the slab test
`segments_hit_boxes` for many segments at once.  A single segment goes
through the scalar `segment_hits_box`, which is also the oracle the batched
kernels are tested against.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np


def as_config(x) -> np.ndarray:
    a = np.asarray(x, dtype=float)
    if a.ndim != 1:
        raise ValueError(f"configuration must be a flat vector, got shape {a.shape}")
    return a


def distance(a, b) -> float:
    """Euclidean distance between two configurations of equal dimension."""
    a = as_config(a)
    b = as_config(b)
    if a.shape != b.shape:
        raise ValueError(f"dimension mismatch: {a.shape[0]} vs {b.shape[0]}")
    return float(np.linalg.norm(a - b))


@dataclass(frozen=True, eq=False)
class PotentialField:
    """Convex potential with unique global minimum at the target: ||x - target||."""

    target: np.ndarray

    def value(self, x) -> float:
        return distance(x, self.target)

    def gradient(self, x) -> np.ndarray:
        """Analytic gradient; zero vector at the target itself."""
        d = as_config(x) - self.target
        n = np.linalg.norm(d)
        if n == 0.0:
            return np.zeros_like(d)
        return d / n


@dataclass(frozen=True, eq=False)
class ObstaclePrimitive:
    """One obstacle: the open axis-aligned box (lo, hi).

    `known` marks boxes available before any sensing.
    """

    lo: np.ndarray
    hi: np.ndarray
    known: bool = False

    @staticmethod
    def box(lo, hi, known: bool = False) -> "ObstaclePrimitive":
        lo = np.asarray(lo, dtype=float)
        hi = np.asarray(hi, dtype=float)
        if lo.shape != hi.shape or np.any(lo > hi):
            raise ValueError(f"invalid box corners {lo} .. {hi}")
        return ObstaclePrimitive(lo=lo, hi=hi, known=known)


def box_distances(points: np.ndarray, lo: np.ndarray, hi: np.ndarray) -> np.ndarray:
    """Distances from points (..., d) to the boxes lo/hi (P, d), shaped (..., P); 0 inside.

    `vecdot` sums the squared gaps as the one-vector `np.linalg.norm` does, so
    every distance is bit-identical to the one-box computation; the batched
    `np.linalg.norm(axis=-1)` is not.
    """
    p = points[..., None, :]
    gap = np.maximum(np.maximum(lo - p, p - hi), 0.0)
    return np.sqrt(np.vecdot(gap, gap))


def segment_hits_box(a: np.ndarray, b: np.ndarray, lo: np.ndarray, hi: np.ndarray) -> bool:
    """True iff segment [a, b] intersects the OPEN box (lo, hi).

    Grazing a face or an edge (boundary contact only) does not count.
    """
    d = b - a
    t0, t1 = 0.0, 1.0
    for i in range(a.shape[0]):
        if d[i] == 0.0:
            if not (lo[i] < a[i] < hi[i]):
                return False
        else:
            ta = (lo[i] - a[i]) / d[i]
            tb = (hi[i] - a[i]) / d[i]
            if ta > tb:
                ta, tb = tb, ta
            t0 = max(t0, ta)
            t1 = min(t1, tb)
            if t0 >= t1:
                return False
    return t1 > t0


def segments_hit_boxes(starts: np.ndarray, ends: np.ndarray, lo: np.ndarray, hi: np.ndarray) -> np.ndarray:
    """Vectorized open-box slab test.

    starts/ends: (N, d) segment endpoints; lo/hi: (P, d) box corners.
    Returns a boolean (N,) array: segment crosses the interior of any box.
    """
    n = starts.shape[0]
    if n == 0 or lo.shape[0] == 0:
        return np.zeros(n, dtype=bool)
    a = starts[:, None, :]  # (N, 1, d)
    d = ends[:, None, :] - a
    with np.errstate(divide="ignore", invalid="ignore"):
        ta = (lo[None, :, :] - a) / d
        tb = (hi[None, :, :] - a) / d
    zero = d == 0.0
    inside = (lo[None, :, :] < a) & (a < hi[None, :, :])
    lo_t = np.minimum(ta, tb)
    hi_t = np.maximum(ta, tb)
    # Degenerate axes: full line if inside the slab, empty otherwise.
    lo_t = np.where(zero, np.where(inside, -np.inf, np.inf), lo_t)
    hi_t = np.where(zero, np.where(inside, np.inf, -np.inf), hi_t)
    t0 = np.maximum(lo_t.max(axis=2), 0.0)
    t1 = np.minimum(hi_t.min(axis=2), 1.0)
    return np.any(t1 > t0, axis=1)


def point_feasible(x, env) -> bool:
    """True iff every robot position is in bounds and outside every revealed box."""
    pos = env.robot_positions(x)
    if (pos < env.bounds_lo).any() or (pos > env.bounds_hi).any():
        return False
    p = pos[:, None, :]
    return not ((env.lo < p) & (p < env.hi)).all(axis=-1).any()


def segment_feasible(a, b, env) -> bool:
    """True iff no robot's straight segment from a to b crosses a revealed box."""
    for ra, rb in zip(env.robot_positions(a), env.robot_positions(b)):
        for lo, hi in zip(env.lo, env.hi):
            if segment_hits_box(ra, rb, lo, hi):
                return False
    return True


def multi_robot_feasible(x, env, dmin: float, dmax: float) -> bool:
    """Pairwise distance band plus unblocked robot-to-robot links at x."""
    positions = env.robot_positions(x)
    k = len(positions)
    for i in range(k):
        for j in range(i + 1, k):
            d = float(np.linalg.norm(positions[i] - positions[j]))
            if d < dmin or d > dmax:
                return False
            for lo, hi in zip(env.lo, env.hi):
                if segment_hits_box(positions[i], positions[j], lo, hi):
                    return False
    return True


def _pair_distance_band_over_motion(pa, pb, qa, qb, dmin: float, dmax: float) -> bool:
    """Distance between two linearly moving points stays in [dmin, dmax].

    The squared distance is a convex quadratic in t, so the max is attained
    at an endpoint and the min at the clamped vertex.
    """
    r0 = pa - qa
    r1 = pb - qb
    dr = r1 - r0
    if float(np.linalg.norm(r0)) > dmax or float(np.linalg.norm(r1)) > dmax:
        return False
    denom = float(np.dot(dr, dr))
    if denom > 0.0:
        t = float(np.clip(-np.dot(r0, dr) / denom, 0.0, 1.0))
    else:
        t = 0.0
    if float(np.linalg.norm(r0 + t * dr)) < dmin:
        return False
    return True


def formation_segment_feasible(a, b, env, dmin: Optional[float], dmax: Optional[float],
                               link_step: float) -> bool:
    """Full admission test for moving the stacked configuration from a to b.

    Combines per-robot segment tests with the pairwise distance band held
    along the whole motion and robot-to-robot links sampled at `link_step`.
    """
    if not segment_feasible(a, b, env):
        return False
    if dmin is None or dmax is None:
        return True
    pa = env.robot_positions(a)
    pb = env.robot_positions(b)
    k = len(pa)
    if k < 2:
        return True
    for i in range(k):
        for j in range(i + 1, k):
            if not _pair_distance_band_over_motion(pa[i], pb[i], pa[j], pb[j], dmin, dmax):
                return False
    # Link blocking along the motion, sampled at the configuration pitch.
    steps = max(int(np.ceil(distance(a, b) / link_step)), 1)
    t = np.arange(steps + 1)[:, None, None] / steps
    pos = pa + t * (pb - pa)  # (steps + 1, k, d)
    i, j = np.triu_indices(k, 1)
    dim = env.dim
    return not np.any(segments_hit_boxes(pos[:, i].reshape(-1, dim), pos[:, j].reshape(-1, dim),
                                         env.lo, env.hi))
