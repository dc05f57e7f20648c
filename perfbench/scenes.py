"""Seeded inputs for the four workloads.

Every input is generated here from the run's seed and handed to the program
as scenario text only; the program parses it with `scenario.parse_scenario`,
the same path the command line uses.  The checks read the geometry from the
`Input` itself, never from what the program parsed.

One pass of a workload is the list `pass_inputs` returns.  Its make-up (how
many inputs of each family, and for the region scenes which lattice layout
each one has) is fixed, so passes of different seeds time comparable work;
the seed moves the geometry inside each family.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Tuple

import numpy as np

Box = Tuple[np.ndarray, np.ndarray]

WORKLOADS = ("unknown-mazes", "sealed-rooms", "region-scenes", "formation-escape")

MAZE_STEP = 0.03
MAZE_TUBE = 0.045   # clear radius kept around the carved corridor
MAZES_PER_PASS = 100
SEALED_STEP = 0.025
SEALED_WALL = 0.05  # thicker than the pitch: no lattice edge hops a wall
ROOMS_PER_PASS = 20
REGION_STEP_2D = 0.2
REGION_STEP_3D = 0.25
FORMATION_STEP = 0.04
BAND = (0.03, 0.13)  # dmin, dmax of every multi-robot formation


@dataclass(frozen=True, eq=False)
class Input:
    """One generated world, start and target, with the planner settings."""

    family: str
    dim: int
    start: np.ndarray
    target: np.ndarray
    boxes: Tuple[Box, ...]
    step: float
    sensing_radius: float
    known: bool = False
    robots: int = 1
    escape: str = "none"
    band: Optional[Tuple[float, float]] = None
    stop_fraction: float = 0.5

    @property
    def text(self) -> str:
        def fmt(vals) -> str:
            return " ".join(f"{float(v):.17g}" for v in np.atleast_1d(vals))

        suffix = " known" if self.known else ""
        lines = [f"dim {self.dim}", f"robots {self.robots}",
                 f"workspace {fmt(np.zeros(self.dim))} {fmt(np.ones(self.dim))}",
                 f"start {fmt(self.start)}", f"target {fmt(self.target)}"]
        lines += [f"obstacle box {fmt(lo)} {fmt(hi)}{suffix}" for lo, hi in self.boxes]
        lines += [f"sensing_radius {fmt(self.sensing_radius)}", f"step {fmt(self.step)}",
                  f"stop_fraction {fmt(self.stop_fraction)}", f"escape {self.escape}"]
        if self.band is not None:
            lines += [f"dmin {fmt(self.band[0])}", f"dmax {fmt(self.band[1])}"]
        return "\n".join(lines) + "\n"


def _boxes(pairs) -> Tuple[Box, ...]:
    return tuple((np.asarray(lo, dtype=float), np.asarray(hi, dtype=float))
                 for lo, hi in pairs)


def _rng(seed: int, workload: str, i: int) -> np.random.Generator:
    return np.random.default_rng([seed, WORKLOADS.index(workload), i])


def _box_gap(lo1, hi1, lo2, hi2) -> float:
    gap = np.maximum(np.maximum(lo1 - hi2, lo2 - hi1), 0.0)
    return float(np.linalg.norm(gap))


# -- unknown-mazes ----------------------------------------------------------

def maze(rng: np.random.Generator) -> Input:
    """Unknown 2-D boxes around an axis-aligned corridor from start to target
    that keeps a clear tube of radius MAZE_TUBE, so a path exists."""
    start = np.array([0.08, rng.uniform(0.15, 0.85)])
    target = np.array([0.92, rng.uniform(0.15, 0.85)])
    x1 = rng.uniform(0.3, 0.45)
    x2 = rng.uniform(0.55, 0.75)
    y1 = rng.uniform(0.1, 0.9)
    pts = [start, np.array([x1, start[1]]), np.array([x1, y1]),
           np.array([x2, y1]), np.array([x2, target[1]]), target]
    tubes = [(np.minimum(a, b), np.maximum(a, b)) for a, b in zip(pts, pts[1:])]
    boxes = []
    for _ in range(40):
        if len(boxes) >= 10:
            break
        c = rng.uniform(0.05, 0.95, 2)
        half = rng.uniform(0.02, 0.09, 2)
        lo = np.clip(c - half, 0.0, 1.0)
        hi = np.clip(c + half, 0.0, 1.0)
        if all(_box_gap(lo, hi, tlo, thi) >= MAZE_TUBE for tlo, thi in tubes):
            boxes.append((lo, hi))
    return Input("maze", 2, start, target, _boxes(boxes), MAZE_STEP, 0.1)


# -- sealed-rooms -----------------------------------------------------------

def sealed_room(rng: np.random.Generator) -> Input:
    """Target inside a room of known walls with no way in."""
    c = rng.uniform(0.45, 0.7, 2)
    s = rng.uniform(0.07, 0.12)
    t = SEALED_WALL
    lo, hi = c - s, c + s
    walls = [([lo[0] - t, lo[1] - t], [lo[0], hi[1] + t]),
             ([hi[0], lo[1] - t], [hi[0] + t, hi[1] + t]),
             ([lo[0], lo[1] - t], [hi[0], lo[1]]),
             ([lo[0], hi[1]], [hi[0], hi[1] + t])]
    # A random start keeps the lattice planes off the workspace faces, where
    # rounding alone would decide whether a boundary point is feasible.
    start = rng.uniform(0.06, 0.1, 2)
    return Input("room", 2, start, c, _boxes(walls), SEALED_STEP, 0.1, known=True)


# -- region-scenes ----------------------------------------------------------
# Scenes are fully known.  The seed moves start, walls and cuts only inside
# one lattice cell, so each layout below keeps its lattice; the layouts are
# what a pass enumerates.

def region_2d(rng: np.random.Generator, layout) -> Input:
    """2-D scene on the start-anchored lattice of pitch REGION_STEP_2D.

    layout = ("open", row, dy): no obstacle, target 4 columns right and dy
    rows up.  layout = ("wall", row, side): a wall between start and target
    leaving a gap above (side +1) or below (side -1) the start row, so the
    descent sweep stalls at it and the Gibbs layers have to find the gap.
    """
    dx = REGION_STEP_2D
    kind, row, arg = layout
    start = rng.uniform(0.05, 0.15, 2) + np.array([0.0, row * dx])
    if kind == "open":
        return Input("open-2d", 2, start, start + dx * np.array([4, arg]), (),
                     dx, 0.12, known=True)
    wx = start[0] + dx * rng.uniform(1.3, 1.5)
    cut = start[1] + arg * dx * rng.uniform(0.6, 0.9)
    wall = ([wx, 0.0], [wx + 0.03, cut]) if arg > 0 else ([wx, cut], [wx + 0.03, 1.0])
    return Input("wall-2d", 2, start, start + dx * np.array([4, 0]), _boxes([wall]),
                 dx, 0.12, known=True)


def region_3d(rng: np.random.Generator, layout) -> Input:
    """3-D scene on the start-anchored lattice of pitch REGION_STEP_3D.

    layout = ("open", dy, dz): no obstacle, target 3 columns right.
    layout = ("wall", axis, side): a slab between start and target leaving a
    gap on one side of the start along `axis` (1 = y, 2 = z).
    """
    dx = REGION_STEP_3D
    kind, a, b = layout
    start = rng.uniform(0.05, 0.2, 3) + np.array([0.0, dx, dx])
    if kind == "open":
        return Input("open-3d", 3, start, start + dx * np.array([3, a, b]), (),
                     dx, 0.12, known=True)
    wx = start[0] + dx * rng.uniform(1.3, 1.5)
    cut = start[a] + b * dx * rng.uniform(0.6, 0.9)
    lo, hi = np.array([wx, 0.0, 0.0]), np.array([wx + 0.03, 1.0, 1.0])
    if b > 0:
        hi[a] = cut
    else:
        lo[a] = cut
    return Input("wall-3d", 3, start, start + dx * np.array([3, 0, 0]),
                 _boxes([(lo, hi)]), dx, 0.12, known=True)


# Wall layouts repeat so that most scenes of a pass stall the descent sweep
# and run the diffusion alternation: 8 of the 12 in 2-D, 5 of the 8 in 3-D.
REGION_LAYOUTS_2D = ([("open", 1, 2), ("open", 2, 0), ("open", 3, -1), ("open", 2, 1)]
                     + [("wall", row, side) for row in (1, 2, 3) for side in (1, -1)]
                     + [("wall", 2, 1), ("wall", 2, -1)])
REGION_LAYOUTS_3D = ([("open", 0, 0), ("open", 1, -1), ("open", -1, 1)]
                     + [("wall", axis, side) for axis in (1, 2) for side in (1, -1)]
                     + [("wall", 1, 1)])


# -- formation-escape -------------------------------------------------------

def _file_of_robots(x: float, y: float, k: int) -> np.ndarray:
    ys = [y - 0.06 * (k - 1) / 2 + 0.06 * i for i in range(k)]
    return np.array([[x, yi] for yi in ys]).ravel()


def offset_corridor(rng: np.random.Generator, k: int) -> Input:
    """A thick wall whose corridor opens above the robots' line: the file of
    k robots is trapped at the wall and escapes with its shape fixed."""
    x0 = rng.uniform(0.38, 0.42)
    a = rng.uniform(0.55, 0.6)
    walls = [([x0, 0.0], [x0 + 0.2, a]), ([x0, a + 0.3], [x0 + 0.2, 1.0])]
    y = rng.uniform(0.28, 0.32)
    return Input(f"corridor-{k}", 2, _file_of_robots(0.1, y, k),
                 _file_of_robots(0.9, y, k), _boxes(walls), FORMATION_STEP, 0.12,
                 robots=k, escape="fixed-shape", band=BAND)


def _pocket(rng: np.random.Generator) -> Tuple[Box, ...]:
    """C-shaped pocket opening toward the start."""
    d = np.tile(rng.uniform(-0.01, 0.01, 2), 2)
    return _boxes([(np.array(lo) + d[:2], np.array(hi) + d[2:]) for lo, hi in
                   (([0.55, 0.28], [0.61, 0.72]), ([0.33, 0.28], [0.55, 0.34]),
                    ([0.33, 0.66], [0.55, 0.72]))])


def deadend(rng: np.random.Generator, k: int) -> Input:
    """A file of k robots heading into the pocket; fixed-shape escape."""
    boxes = _pocket(rng)
    y = 0.5 + rng.uniform(-0.01, 0.01)
    return Input(f"deadend-{k}", 2, _file_of_robots(0.12, y, k),
                 _file_of_robots(0.88, y, k), boxes, FORMATION_STEP, 0.12,
                 robots=k, escape="fixed-shape", band=BAND)


def pocket_single(rng: np.random.Generator) -> Input:
    """One robot heading into the pocket; wall-hugging escape."""
    boxes = _pocket(rng)
    y = 0.5 + rng.uniform(-0.01, 0.01)
    return Input("pocket-1", 2, np.array([0.12, y]), np.array([0.88, y]), boxes,
                 FORMATION_STEP, 0.12, escape="near-obstacle")


FORMATION_MIX = ((lambda r: offset_corridor(r, 2), 6), (lambda r: offset_corridor(r, 3), 4),
                 (lambda r: deadend(r, 2), 4), (lambda r: deadend(r, 3), 2),
                 (pocket_single, 4))


# -- passes -----------------------------------------------------------------

def pass_inputs(workload: str, seed: int) -> List[Input]:
    """The fixed, seeded input list of one pass of `workload`."""
    if workload == "unknown-mazes":
        return [maze(_rng(seed, workload, i)) for i in range(MAZES_PER_PASS)]
    if workload == "sealed-rooms":
        return [sealed_room(_rng(seed, workload, i)) for i in range(ROOMS_PER_PASS)]
    if workload == "region-scenes":
        makers = ([(region_2d, lay) for lay in REGION_LAYOUTS_2D]
                  + [(region_3d, lay) for lay in REGION_LAYOUTS_3D])
        return [make(_rng(seed, workload, i), lay) for i, (make, lay) in enumerate(makers)]
    if workload == "formation-escape":
        makers = [make for make, count in FORMATION_MIX for _ in range(count)]
        return [make(_rng(seed, workload, i)) for i, make in enumerate(makers)]
    raise ValueError(f"unknown workload {workload!r}")
