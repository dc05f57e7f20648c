"""Configuration-space geometry: distances and feasibility tests.

A configuration is a flat float array of length n.  For k robots in a
d-dimensional workspace n = k * d and the coordinates are the stacked
per-robot positions.  Every obstacle is an open axis-aligned box in the
workspace: its interior is infeasible, its boundary feasible.  An
environment snapshot holds its revealed boxes as (P, d) corner arrays `lo`
and `hi`, and each test below reads them in one call: `box_distances` for
distances, one point-in-box expression for positions, and the slab test
`segments_hit_boxes` for many segments at once, per box and segment.  The
point, clearance-box and slab tests lay their work out (d, P, N), the N
positions, moves or segments innermost.

Every feasibility test is one `rows_*` kernel, which answers for every row
of a batch of configurations (N, n), or of moves given as start and end
rows, in one numpy pass.  `point_feasible`, `segment_feasible`,
`multi_robot_feasible` and `formation_segment_feasible` call a kernel on
one configuration or move.  Norms are `sqrt(vecdot)`, which sums the
squares as the one-vector `np.linalg.norm` and `np.dot` do, so every
distance and every decision is bit-identical to a per-pair, per-box scalar
loop; the test suite keeps such loops as its reference
(`tests/geometry_oracles.py`).  `rows_formation_feasible` also tests
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


def _rows_robots(x: np.ndarray, dim: int) -> np.ndarray:
    """The (N, k, dim) robot positions of configuration rows x (N, n); N may be 0."""
    return x.reshape(x.shape[0], x.shape[1] // dim, dim)


def rows_point_feasible(x: np.ndarray, env) -> np.ndarray:
    """Per configuration row of x (N, n), shaped (N,): every robot position
    is in bounds and outside every revealed box.  The N * k positions are
    laid out (d, P, N * k), positions innermost, as in `segments_hit_boxes`."""
    dim = env.dim
    p = np.ascontiguousarray(x.reshape(-1, dim).T)  # (d, N * k)
    bad = ((p < env.bounds_lo[:, None]) | (p > env.bounds_hi[:, None])).any(axis=0)
    p = p[:, None, :]
    bad |= ((env.lo.T[:, :, None] < p) & (p < env.hi.T[:, :, None])).all(axis=0).any(axis=0)
    return ~bad.reshape(x.shape[0], x.shape[1] // dim).any(axis=1)


def rows_segment_feasible(a: np.ndarray, b: np.ndarray, env) -> np.ndarray:
    """Per move from row a[r] to row b[r]: no robot's straight segment
    crosses a revealed box, every segment in one slab test."""
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
    """Per configuration row of x (N, n): every robot pair's distance lies
    in [dmin, dmax] and no pair's link crosses a revealed box."""
    rows, dim = x.shape[0], env.dim
    pos = _rows_robots(x, dim)
    i, j = robot_pairs(pos.shape[1])
    d = _norms(pos[:, i] - pos[:, j])  # (N, pairs)
    ok = ~((d < dmin) | (d > dmax)).any(axis=1)
    return ok & ~_owners_blocked(pos[:, i].reshape(-1, dim), pos[:, j].reshape(-1, dim),
                                 np.repeat(np.arange(rows), len(i)), env, rows)


def rows_formation_feasible(a: np.ndarray, b: np.ndarray, env, dmin: float, dmax: float,
                            link_step: float) -> np.ndarray:
    """Per move from row a[r] to row b[r] (N, n): `rows_segment_feasible`,
    `rows_multi_robot_feasible` at b[r], every pair's distance at most dmax
    at a[r] and at least dmin all along the motion, and no robot-to-robot
    link crossing a revealed box at samples `link_step` apart along it.

    A pair's squared distance is a convex quadratic in the motion's time, so
    its minimum sits at the clamped vertex.  A row still in the band whose
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
    # Laid out (d, P, N'), rows innermost.
    idx = np.flatnonzero(ok)
    hull = np.concatenate([pa[idx], pb[idx]], axis=1)  # (N', 2k, d)
    lo = np.ascontiguousarray(hull.min(axis=1).T)[:, None, :]  # (d, 1, N')
    hi = np.ascontiguousarray(hull.max(axis=1).T)[:, None, :]
    lo = lo - _MARGIN * (1.0 + np.abs(lo))
    hi = hi + _MARGIN * (1.0 + np.abs(hi))
    meets = (lo < env.hi.T[:, :, None]) & (env.lo.T[:, :, None] < hi)
    idx = idx[meets.all(axis=0).any(axis=0)]
    if idx.shape[0] == 0:
        return ok
    # Link samples along the motion: sample m of a row whose motion takes
    # s = max(ceil(|b - a| / link_step), 1) steps sits at m / s.
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


# -- one-configuration forms, for the start, target and target-link checks --

def _one_row(x, env) -> np.ndarray:
    """Configuration x as a (1, n) batch, its length checked against env.dim."""
    return env.robot_positions(x).reshape(1, -1)


def point_feasible(x, env) -> bool:
    """True iff every robot position is in bounds and outside every revealed box."""
    return bool(rows_point_feasible(_one_row(x, env), env)[0])


def segment_feasible(a, b, env) -> bool:
    """True iff no robot's straight segment from a to b crosses a revealed box."""
    return bool(rows_segment_feasible(_one_row(a, env), _one_row(b, env), env)[0])


def multi_robot_feasible(x, env, dmin: float, dmax: float) -> bool:
    """Pairwise distance band plus unblocked robot-to-robot links at x."""
    return bool(rows_multi_robot_feasible(_one_row(x, env), env, dmin, dmax)[0])


def formation_segment_feasible(a, b, env, dmin: Optional[float], dmax: Optional[float],
                               link_step: float) -> bool:
    """Full admission test for moving the stacked configuration from a to b:
    every robot's segment and, with a band, `rows_formation_feasible`'s band
    at b and over the motion and its robot-to-robot links."""
    if dmin is None or dmax is None:
        return segment_feasible(a, b, env)
    return bool(rows_formation_feasible(_one_row(a, env), _one_row(b, env), env, dmin, dmax,
                                        link_step)[0])
