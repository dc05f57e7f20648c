"""Configuration-space geometry: distances and feasibility tests.

A configuration is a flat float array of length n.  For k robots in a
d-dimensional workspace n = k * d and the coordinates are the stacked
per-robot positions.  Every obstacle is an open axis-aligned box in the
workspace: its interior is infeasible, its boundary feasible.  An
environment snapshot holds its revealed boxes as (P, d) corner arrays `lo`
and `hi`, and each test below reads them in one call: `box_distances` for
distances, one point-in-box expression for positions, and the slab test
`segments_hit_boxes` for many segments at once.  The slab test answers per
box and segment; its callers reduce over the boxes, and the planner's
motion check also reads which boxes block.  The scalar `segment_hits_box`
runs only in the scalar tests below, which validate scenario files and are
the oracles the batched kernels are tested against; `planner` does not
call it.

The `rows_*` functions answer a scalar test for every row of a batch of
configurations (N, n), or of moves given as start and end rows, in one
numpy pass; the scalar functions they mirror stay as their oracles.  Norms
are `sqrt(vecdot)`, which sums the squares as the one-vector
`np.linalg.norm` and `np.dot` do, so every distance and every decision is
bit-identical to the scalar test's.  `rows_formation_feasible` also tests
every robot's own segment, and builds link samples and slab-tests only the
moves whose clearance box, the box spanned by every robot position at both
ends, meets a revealed box; the others cannot hit one.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from typing import Optional, Tuple

import numpy as np

_MARGIN = 1e-9  # relative widening of a clearance box, far above rounding error


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


def edge_lengths(points: np.ndarray) -> np.ndarray:
    """Length of each edge of the polyline `points` (M, n), shaped (M - 1,).

    `vecdot` sums the squares as the one-vector `np.linalg.norm` does, so each
    length is bit-identical to `distance` of the edge's endpoints.
    """
    d = np.diff(points, axis=0)
    return np.sqrt(np.vecdot(d, d))


def _norms(v: np.ndarray) -> np.ndarray:
    """Euclidean norms along the last axis, bit-identical to `np.linalg.norm`
    of each vector."""
    return np.sqrt(np.vecdot(v, v))


@lru_cache(maxsize=16)
def robot_pairs(k: int) -> Tuple[np.ndarray, np.ndarray]:
    """Read-only index arrays (i, j) of every robot pair i < j of k robots."""
    pairs = np.triu_indices(k, 1)
    for a in pairs:
        a.flags.writeable = False
    return pairs


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
    Returns a boolean (P, N) array: segment n crosses the interior of box p.

    An axis along which a segment does not move divides by zero: strictly
    inside the slab its entry and exit are -inf and +inf (the whole line),
    outside both have one sign (empty), and on a face 0/0 gives NaN, which
    the max/min reductions carry into a false comparison (empty).  The
    arrays are laid out (d, P, N), segments innermost: numpy runs a
    ufunc or a reduction over a 2- or 3-long innermost axis many times
    slower per element.
    """
    n = starts.shape[0]
    if n == 0 or lo.shape[0] == 0:
        return np.zeros((lo.shape[0], n), dtype=bool)
    a = np.ascontiguousarray(starts.T)[:, None, :]  # (d, 1, N)
    d = np.ascontiguousarray(ends.T)[:, None, :] - a
    with np.errstate(divide="ignore", invalid="ignore"):
        ta = (lo.T[:, :, None] - a) / d  # (d, P, N)
        tb = (hi.T[:, :, None] - a) / d
    t0 = np.maximum(np.minimum(ta, tb).max(axis=0), 0.0)
    t1 = np.minimum(np.maximum(ta, tb).min(axis=0), 1.0)
    return t1 > t0


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
    """Full admission test for moving the stacked configuration from a to b:
    per-robot segment tests plus `formation_motion_feasible`."""
    return segment_feasible(a, b, env) and formation_motion_feasible(
        a, b, env, dmin, dmax, link_step)


def formation_motion_feasible(a, b, env, dmin: Optional[float], dmax: Optional[float],
                              link_step: float) -> bool:
    """The formation terms of moving from a to b: the pairwise distance band
    held along the whole motion and robot-to-robot links sampled at
    `link_step`.  True without a band or with a single robot."""
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
    i, j = robot_pairs(k)
    dim = env.dim
    return not np.any(segments_hit_boxes(pos[:, i].reshape(-1, dim), pos[:, j].reshape(-1, dim),
                                         env.lo, env.hi))


# -- batched forms of the tests above, one answer per row ---------------------

def _rows_robots(x: np.ndarray, dim: int) -> np.ndarray:
    """The (N, k, dim) robot positions of configuration rows x (N, n); N may be 0."""
    return x.reshape(x.shape[0], x.shape[1] // dim, dim)


def rows_point_feasible(x: np.ndarray, env) -> np.ndarray:
    """`point_feasible` of each configuration row of x (N, n), shaped (N,)."""
    pos = _rows_robots(x, env.dim)
    ok = ~((pos < env.bounds_lo) | (pos > env.bounds_hi)).any(axis=(1, 2))
    p = pos[..., None, :]
    return ok & ~((env.lo < p) & (p < env.hi)).all(axis=-1).any(axis=(1, 2))


def rows_segment_feasible(a: np.ndarray, b: np.ndarray, env) -> np.ndarray:
    """`segment_feasible` of each move from row a[r] to row b[r], every
    robot's segment in one slab test."""
    dim = env.dim
    hit = segments_hit_boxes(a.reshape(-1, dim), b.reshape(-1, dim), env.lo, env.hi).any(axis=0)
    return ~hit.reshape(a.shape[0], a.shape[1] // dim).any(axis=1)


def _owners_blocked(starts: np.ndarray, ends: np.ndarray, owner: np.ndarray, env,
                    rows: int) -> np.ndarray:
    """Per row r < rows, whether some segment starts[m] -> ends[m] (M, d)
    with owner[m] == r crosses a box, in one slab test."""
    blocked = np.zeros(rows, dtype=bool)
    blocked[owner[segments_hit_boxes(starts, ends, env.lo, env.hi).any(axis=0)]] = True
    return blocked


def rows_multi_robot_feasible(x: np.ndarray, env, dmin: float, dmax: float) -> np.ndarray:
    """`multi_robot_feasible` of each configuration row of x (N, n)."""
    rows, dim = x.shape[0], env.dim
    pos = _rows_robots(x, dim)
    i, j = robot_pairs(pos.shape[1])
    d = _norms(pos[:, i] - pos[:, j])  # (N, pairs)
    ok = ~((d < dmin) | (d > dmax)).any(axis=1)
    return ok & ~_owners_blocked(pos[:, i].reshape(-1, dim), pos[:, j].reshape(-1, dim),
                                 np.repeat(np.arange(rows), len(i)), env, rows)


def rows_formation_feasible(a: np.ndarray, b: np.ndarray, env, dmin: float, dmax: float,
                            link_step: float) -> np.ndarray:
    """Per move from row a[r] to row b[r] (N, n): `segment_feasible(a[r], b[r])
    and multi_robot_feasible(b[r]) and formation_motion_feasible(a[r], b[r])`,
    the band being set.

    The band over the motion takes each pair's convex-quadratic minimum as
    `_pair_distance_band_over_motion` does.  A row still in the band whose
    clearance box meets a revealed box then sends its links at b, its link
    samples and every robot's own segment through one slab test; the other
    rows pass.  That is exact: every segment tested has both endpoints in the
    clearance box, as a sample `start + t * (pb - start)` lies within a few
    ulps of the hull of its endpoints, and `segments_hit_boxes` finds no hit
    for a segment whose endpoints lie on or beyond one face plane of a box,
    since rounded subtraction and division are monotone."""
    rows, dim = b.shape[0], env.dim
    pa = _rows_robots(a, dim)
    pb = _rows_robots(b, dim)
    k = pa.shape[1]
    i, j = robot_pairs(k)
    r0 = pa[:, i] - pa[:, j]  # (N, pairs, d)
    r1 = pb[:, i] - pb[:, j]
    dr = r1 - r0
    denom = np.vecdot(dr, dr)
    t = np.clip(np.divide(-np.vecdot(r0, dr), denom, out=np.zeros_like(denom),
                          where=denom > 0.0), 0.0, 1.0)
    d1 = _norms(r1)
    ok = ~((d1 < dmin) | (d1 > dmax) | (_norms(r0) > dmax)
           | (_norms(r0 + t[..., None] * dr) < dmin)).any(axis=1)
    # A row whose clearance box (every robot position at a and b, widened by
    # _MARGIN) is apart from every box along some axis passes unsampled.
    idx = np.flatnonzero(ok)
    hull = np.concatenate([pa[idx], pb[idx]], axis=1)  # (N', 2k, d)
    lo, hi = hull.min(axis=1), hull.max(axis=1)
    lo = lo - _MARGIN * (1.0 + np.abs(lo))
    hi = hi + _MARGIN * (1.0 + np.abs(hi))
    idx = idx[((lo[:, None] < env.hi) & (env.lo < hi[:, None])).all(axis=-1).any(axis=1)]
    if idx.shape[0] == 0:
        return ok
    # Link samples along the motion at link_step, as in
    # formation_motion_feasible: sample m of a row with s steps sits at m / s.
    steps = np.maximum(np.ceil(_norms(a[idx] - b[idx]) / link_step), 1.0).astype(int)
    row = np.repeat(idx, steps + 1)
    m = np.arange(row.shape[0]) - np.repeat(np.cumsum(steps + 1) - (steps + 1), steps + 1)
    start = pa[row]
    pos = np.concatenate([pb[idx], start + (m / np.repeat(steps, steps + 1))[:, None, None]
                          * (pb[row] - start)])
    starts = np.concatenate([pos[:, i].reshape(-1, dim), pa[idx].reshape(-1, dim)])
    ends = np.concatenate([pos[:, j].reshape(-1, dim), pb[idx].reshape(-1, dim)])
    owner = np.concatenate([np.repeat(np.concatenate([idx, row]), len(i)), np.repeat(idx, k)])
    return ok & ~_owners_blocked(starts, ends, owner, env, rows)
