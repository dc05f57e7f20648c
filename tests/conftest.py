"""Shared scenario builders for the test suite.

Every generator is seeded, so repeated calls produce identical worlds.
"""

import numpy as np
import pytest

import latticeplan as lp
from latticeplan import fpe

MAZE_STEP = 0.03
# Vertex budget of a maze run, about twice the largest tree a test maze grows
# (109): a fault that re-admits visited vertices fails fast instead of
# growing toward the default budget of 500,000.
MAZE_BUDGET = 250
TUBE_RADIUS = 0.045  # clear-tube radius kept around every carved corridor


def _box_gap(lo1, hi1, lo2, hi2) -> float:
    gap = np.maximum(np.maximum(lo1 - hi2, lo2 - hi1), 0.0)
    return float(np.linalg.norm(gap))


def make_maze(seed: int):
    """Random 2D world with an axis-aligned corridor from start to target that
    keeps a clear tube of radius TUBE_RADIUS; obstacles are unknown."""
    rng = np.random.default_rng(1000 + seed)
    start = np.array([0.08, rng.uniform(0.15, 0.85)])
    target = np.array([0.92, rng.uniform(0.15, 0.85)])
    x1 = rng.uniform(0.3, 0.45)
    x2 = rng.uniform(0.55, 0.75)
    y1 = rng.uniform(0.1, 0.9)
    pts = [start, np.array([x1, start[1]]), np.array([x1, y1]),
           np.array([x2, y1]), np.array([x2, target[1]]), target]
    tubes = [(np.minimum(a, b), np.maximum(a, b)) for a, b in zip(pts, pts[1:])]
    obstacles = []
    for _ in range(40):
        if len(obstacles) >= 10:
            break
        c = rng.uniform(0.05, 0.95, 2)
        half = rng.uniform(0.02, 0.09, 2)
        lo = np.clip(c - half, 0.0, 1.0)
        hi = np.clip(c + half, 0.0, 1.0)
        if all(_box_gap(lo, hi, tlo, thi) >= TUBE_RADIUS for tlo, thi in tubes):
            obstacles.append(lp.ObstaclePrimitive.box(lo, hi))
    truth = lp.GroundTruth.create(2, [0, 0], [1, 1], obstacles)
    return truth, start, target


def make_sealed(seed: int):
    """Target enclosed in a rectangular room of known walls; no way in."""
    rng = np.random.default_rng(2000 + seed)
    c = rng.uniform(0.45, 0.7, 2)
    s = rng.uniform(0.07, 0.12)
    t = 0.05  # thicker than the lattice step: no edge can hop a wall
    lo, hi = c - s, c + s
    walls = [
        lp.ObstaclePrimitive.box([lo[0] - t, lo[1] - t], [lo[0], hi[1] + t], known=True),
        lp.ObstaclePrimitive.box([hi[0], lo[1] - t], [hi[0] + t, hi[1] + t], known=True),
        lp.ObstaclePrimitive.box([lo[0], lo[1] - t], [hi[0], lo[1]], known=True),
        lp.ObstaclePrimitive.box([lo[0], hi[1]], [hi[0], hi[1] + t], known=True),
    ]
    truth = lp.GroundTruth.create(2, [0, 0], [1, 1], walls)
    return truth, np.array([0.08, 0.08]), c


def make_corridor(k: int, step: float = 0.04, dmax: float = 0.13):
    """Straight corridor wide enough for a vertical k-robot file; a file of
    more than three robots needs a wider band than the default."""
    walls = [lp.ObstaclePrimitive.box([0.25, 0.0], [0.75, 0.33]),
             lp.ObstaclePrimitive.box([0.25, 0.67], [0.75, 1.0])]
    dmin, dmax = (0.03, dmax) if k > 1 else (None, None)
    truth = lp.GroundTruth.create(2, [0, 0], [1, 1], walls, dmin=dmin, dmax=dmax)
    ys = [0.5 - 0.06 * (k - 1) / 2 + 0.06 * i for i in range(k)]
    start = np.array([[0.1, y] for y in ys]).ravel()
    target = np.array([[0.9, y] for y in ys]).ravel()
    return truth, start, target


def make_deadend(k: int = 2, dmax: float = 0.13):
    """C-shaped pocket opening toward the start; a vertical file of k robots
    0.06 apart (0.47 and 0.53 for two)."""
    prims = [lp.ObstaclePrimitive.box([0.55, 0.28], [0.61, 0.72]),
             lp.ObstaclePrimitive.box([0.33, 0.28], [0.55, 0.34]),
             lp.ObstaclePrimitive.box([0.33, 0.66], [0.55, 0.72])]
    truth = lp.GroundTruth.create(2, [0, 0], [1, 1], prims, dmin=0.03, dmax=dmax)
    ys = [0.5 + 0.06 * (i - (k - 1) / 2) for i in range(k)]
    start = np.array([[0.12, y] for y in ys]).ravel()
    target = np.array([[0.88, y] for y in ys]).ravel()
    return truth, start, target


def containment_scenes():
    """Five fully-known worlds whose targets sit on the start-anchored lattice.

    Obstacle faces are kept off lattice planes and layouts are asymmetric so
    the density argmax/argmin selections are unique.
    """
    B = lp.ObstaclePrimitive.box
    return [
        ("open", [], [0.1, 0.2], [0.8, 0.55]),
        ("wall-up", [B([0.41, 0.0], [0.44, 0.68], known=True)],
         [0.1, 0.35], [0.9, 0.35]),
        ("wall-down", [B([0.41, 0.32], [0.44, 1.0], known=True)],
         [0.1, 0.65], [0.9, 0.6]),
        ("staggered", [B([0.33, 0.0], [0.37, 0.62], known=True),
                       B([0.58, 0.43], [0.62, 1.0], known=True)],
         [0.1, 0.3], [0.9, 0.4]),
        ("pocket", [B([0.52, 0.22], [0.57, 0.63], known=True),
                    B([0.33, 0.22], [0.52, 0.27], known=True),
                    B([0.33, 0.58], [0.52, 0.63], known=True)],
         [0.1, 0.4], [0.9, 0.4]),
    ]


def hand_lattice(coords, p, edges, dx: float = 0.1):
    """A lattice built by hand from its nodes (on the grid of pitch dx
    anchored at the origin), potentials and edges, with the neighbour table
    and the dense key grid `fpe.Lattice.build` would give it.  Each edge
    must join two nodes one key apart along one axis."""
    coords = np.asarray(coords, dtype=float)
    n = coords.shape[1]
    keys = np.rint(coords / dx).astype(int)
    nbr = np.full((len(coords), 2 * n), -1)
    for j, k in np.asarray(edges, dtype=int).reshape(-1, 2).tolist():
        step = keys[k] - keys[j]
        axes = np.flatnonzero(step)
        if axes.shape[0] != 1 or abs(step[axes[0]]) != 1:
            raise ValueError(f"edge ({j}, {k}) is not one key step along one axis")
        lo, hi = (j, k) if step[axes[0]] > 0 else (k, j)
        nbr[hi, axes[0]] = lo
        nbr[lo, n + axes[0]] = hi
    kmin = keys.min(axis=0) - 1  # a border of -1 one key wide, as built
    index = np.full(keys.max(axis=0) - kmin + 2, -1)
    index[tuple((keys - kmin).T)] = np.arange(len(coords))
    return fpe.Lattice(coords=coords, dx=dx, anchor=np.zeros(n), p=np.asarray(p, dtype=float),
                       nbr=nbr, index=index, kmin=kmin)


@pytest.fixture(scope="session")
def maze_results():
    """Plan all 50 random mazes once; several acceptance checks reuse them."""
    out = []
    for seed in range(50):
        truth, start, target = make_maze(seed)
        cfg = lp.PlannerConfig(step=MAZE_STEP, sensing_radius=0.1, max_vertices=MAZE_BUDGET)
        out.append((truth, start, target, cfg, lp.plan(truth, start, target, cfg)))
    return out
