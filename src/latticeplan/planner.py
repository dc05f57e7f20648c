"""The replanning loop: generate a tree, extract the path, move along it
while sensing, stop short of newly revealed obstacles, repeat.

The walk resamples the path in one numpy pass.  Its blocking check is one
slab test (`segments_hit_boxes`) over every remaining motion, which gives
both the first blocked sample and the boxes that block it; one clearance
pass to those boxes then gives the stop sample and its clearance.  None of
the three loops over boxes, samples or edges in Python, and the scalar
`segment_hits_box` is not called here.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Optional, Tuple

import numpy as np

from .environment import GroundTruth, KnownEnvironment, clearances, distance_to_revealed, sense
from .errors import ModelViolationError, ResourceLimitError
from .geometry import (as_config, box_distances, distance, edge_lengths, point_feasible,
                       robot_pairs, rows_point_feasible, segments_hit_boxes)
from .graph import GenConfig, SearchGraph, generate_graph
from .pathfind import GraphPath, backtrace
from .trap_escape import TrapEscapePolicy


@dataclass
class PlannerConfig:
    step: float
    sensing_radius: float
    stop_fraction: float = 0.5
    connect_radius: Optional[float] = None
    max_vertices: int = 500_000
    escape: TrapEscapePolicy = field(default_factory=TrapEscapePolicy)

    def __post_init__(self):
        if self.step <= 0 or self.sensing_radius <= 0:
            raise ValueError("step and sensing_radius must be positive")
        if not (0.0 < self.stop_fraction < 1.0):
            raise ValueError("stop_fraction must lie in (0, 1)")

    @property
    def motion_step(self) -> float:
        return self.step / 10.0

    def gen_config(self) -> GenConfig:
        return GenConfig(step=self.step, connect_radius=self.connect_radius,
                         max_vertices=self.max_vertices)


@dataclass
class MotionOutcome:
    traversed: List[np.ndarray]
    status: str  # reached-target | blocked | exhausted
    stop_point: np.ndarray
    stop_clearance: float


@dataclass
class PlanSegment:
    graph: SearchGraph
    path: GraphPath
    motion: MotionOutcome


@dataclass
class PlanResult:
    segments: List[PlanSegment]
    full_trajectory: List[np.ndarray]
    status: str  # success | no-feasible-path | resource-limit
    metrics: dict


def densify(polyline: List[np.ndarray], step: float,
            lengths: Optional[np.ndarray] = None) -> np.ndarray:
    """Resample a polyline into (M, n) samples at most `step` apart.

    An edge of length L > 0 gives m = max(ceil(L / step), 1) samples
    `a + (j / m) * (b - a)`, j = 1..m, whose last is the endpoint b itself,
    so original vertices are kept exactly; a zero-length edge gives none.
    `lengths` are the polyline's `edge_lengths`, computed here when not given.
    """
    points = np.asarray(polyline)
    if lengths is None:
        lengths = edge_lengths(points)
    m = np.where(lengths > 0.0, np.maximum(np.ceil(lengths / step), 1.0), 0.0).astype(int)
    edge = np.repeat(np.arange(m.shape[0]), m)  # the edge of each sample after the first
    j = np.arange(1, edge.shape[0] + 1) - np.repeat(np.cumsum(m) - m, m)
    a, b = points[:-1][edge], points[1:][edge]
    out = a + (j / m[edge])[:, None] * (b - a)
    last = j == m[edge]
    out[last] = b[last]
    return np.concatenate([points[:1], out])


def _first_blocking_index(samples: np.ndarray, start: int,
                          known: KnownEnvironment) -> Tuple[Optional[int], np.ndarray]:
    """Smallest j >= start such that the motion past sample j is infeasible,
    and the rows of `known.lo`/`hi` of the boxes that make it so; None and
    no rows when every remaining motion is feasible.

    One slab test covers every remaining inter-sample segment of every robot
    and, for several robots, every robot-to-robot link at the sample after
    each segment; its per-box answers name the blocking boxes.
    """
    remaining = np.asarray(samples[start:])
    if remaining.shape[0] < 2:
        return None, np.zeros(0, dtype=int)
    dim = known.dim
    positions = remaining.reshape(remaining.shape[0], -1, dim)  # (samples, k, dim)
    i, j = robot_pairs(positions.shape[1])
    starts = np.concatenate([positions[:-1], positions[1:, i]], axis=1)
    ends = np.concatenate([positions[1:], positions[1:, j]], axis=1)
    hit = segments_hit_boxes(starts.reshape(-1, dim), ends.reshape(-1, dim), known.lo, known.hi)
    hit = hit.reshape(-1, *starts.shape[:2]).any(axis=2)  # (boxes, segments)
    idx = np.flatnonzero(hit.any(axis=0))
    if idx.size == 0:
        return None, np.zeros(0, dtype=int)
    return start + int(idx[0]), np.flatnonzero(hit[:, idx[0]])


def _reveal_events(samples: np.ndarray, known: KnownEnvironment) -> List[int]:
    """Sorted indices > 0 of the samples at which some box not yet revealed
    first comes within the sensing radius of a robot.  Each block of 512
    samples is tested only against the boxes within R of its bounding box,
    which bounds the memory in cluttered worlds."""
    truth, radius = known.truth, known.sensing_radius
    unseen = np.ones(len(truth.primitives), dtype=bool)
    unseen[sorted(known.revealed)] = False
    events = set()
    for s in range(0, len(samples), 512):
        block = samples[s:s + 512]
        flat = block.reshape(-1, known.dim)  # every robot position in the block
        gap = np.maximum(np.maximum(truth.lo - flat.max(axis=0), flat.min(axis=0) - truth.hi), 0.0)
        rows = np.flatnonzero(unseen & (np.sqrt(np.vecdot(gap, gap)) <= radius))
        near = (box_distances(block.reshape(len(block), -1, known.dim), truth.lo[rows],
                              truth.hi[rows]) <= radius).any(axis=1)  # (block, rows)
        hit = near.any(axis=0)
        events.update((s + near.argmax(axis=0)[hit]).tolist())
        unseen[rows[hit]] = False
    return sorted(events - {0})


def move_along(path: GraphPath, known: KnownEnvironment,
               cfg: PlannerConfig) -> Tuple[MotionOutcome, KnownEnvironment]:
    """Advance along the path polyline in motion-step increments; on a newly
    revealed block, stop at the last sample before the intersection whose
    clearance is at least stop_fraction * R.  Sensing happens only at reveal
    events; a box containing a sample is at distance 0 from it, so it is
    known by then, and each stretch walked is checked at its end."""
    samples = densify(path.coords, cfg.motion_step, path.edges)
    if len(samples) < 2:
        x = samples[0]
        return MotionOutcome([x], "exhausted", x, distance_to_revealed(x, known)), known

    known = sense(known, samples[0])
    i = 0
    end = len(samples) - 1
    for event in _reveal_events(samples, known) + [end + 1]:  # end + 1: no more events
        jb, blockers = _first_blocking_index(samples, i, known)
        stop_at = end
        if jb is not None:
            # Clearance is measured to the boxes that cut the path:
            # earlier walls may legally sit closer than the stop band.
            c = clearances(samples[i:jb + 1], known, blockers)
            safe = np.flatnonzero(c >= cfg.stop_fraction * known.sensing_radius)
            stop_at = i + int(safe[-1]) if safe.size else i
            clearance = float(c[stop_at - i])
        reach = min(event, stop_at)
        if event <= stop_at:
            known = sense(known, samples[event])
        if not rows_point_feasible(samples[i + 1:reach + 1], known).all():
            raise ModelViolationError("robot discovered inside an obstacle while moving")
        i = reach
        if event > stop_at:
            break

    if jb is None:
        clearance = distance_to_revealed(samples[i], known)
    # A blocked walk stops at or before its blocking sample jb < end.
    out = MotionOutcome(traversed=list(samples[:i + 1]),
                        status="reached-target" if jb is None else "blocked",
                        stop_point=samples[i], stop_clearance=clearance)
    return out, known


def lattice_capacity(truth: GroundTruth, step: float, n: int) -> int:
    """Number of lattice points of the given pitch inside the workspace, per
    configuration dimension."""
    per_axis = np.floor((truth.bounds_hi - truth.bounds_lo) / step).astype(int) + 1
    cap = 1
    for _ in range(n // truth.dim):
        for c in per_axis:
            cap *= int(c)
    return cap


def plan(truth: GroundTruth, start, target, cfg: PlannerConfig) -> PlanResult:
    """Run the full replanning loop from start to target."""
    start = as_config(start)
    target = as_config(target)
    known = sense(KnownEnvironment.initial(truth, cfg.sensing_radius), start)
    if not point_feasible(start, known):
        raise ValueError("start configuration is infeasible under known constraints")

    gencfg = cfg.gen_config()
    cap = max(4 * lattice_capacity(truth, cfg.step, start.shape[0]), 4)

    segments: List[PlanSegment] = []
    trees: List[SearchGraph] = []  # every tree grown, an exhausted last one included
    trajectory: List[np.ndarray] = [start]
    x_c = start
    status = "resource-limit"
    while True:
        if distance(x_c, target) == 0.0:
            status = "success"
            break
        try:
            g = generate_graph(x_c, target, known, gencfg, escape=cfg.escape)
        except ResourceLimitError as exc:
            trees.append(exc.graph)
            status = "resource-limit"
            break
        trees.append(g)
        if g.target_id is None:
            status = "no-feasible-path"
            break
        path = backtrace(g)
        outcome, known = move_along(path, known, cfg)
        segments.append(PlanSegment(graph=g, path=path, motion=outcome))
        trajectory.extend(outcome.traversed[1:])
        x_c = outcome.stop_point
        if outcome.status == "reached-target":
            status = "success"
            break
        if len(segments) >= cap:
            status = "resource-limit"
            break

    counts = [g.count for g in trees]
    metrics = {
        "num_robots": start.shape[0] // truth.dim,
        "l": cfg.step,
        "dim": start.shape[0],
        "avg_vertices": float(np.mean(counts)) if counts else 0.0,
        "max_vertices": max(counts) if counts else 0,
        "trapped": any(g.trapped for g in trees),
        "num_graphs": len(trees),
    }
    return PlanResult(segments=segments, full_trajectory=trajectory,
                      status=status, metrics=metrics)


def trajectory_text(result: PlanResult) -> str:
    """One row per motion step: t, segment_index, coord..."""
    t = 0
    lines = []
    header = "t,segment," + ",".join(
        f"x{i}" for i in range(len(result.full_trajectory[0])))
    lines.append(header)
    for si, seg in enumerate(result.segments):
        pts = seg.motion.traversed if si == 0 else seg.motion.traversed[1:]
        for p in pts:
            lines.append(f"{t},{si}," + ",".join(f"{c:.12g}" for c in p))
            t += 1
    if not result.segments:
        for p in result.full_trajectory:
            lines.append(f"{t},0," + ",".join(f"{c:.12g}" for c in p))
            t += 1
    return "\n".join(lines) + "\n"


def metrics_text(result: PlanResult) -> str:
    m = result.metrics
    header = "num_robots,l,dim,avg_vertices,max_vertices,trapped,num_graphs"
    row = (f"{m['num_robots']},{m['l']:.12g},{m['dim']},{m['avg_vertices']:.12g},"
           f"{m['max_vertices']},{str(m['trapped']).lower()},{m['num_graphs']}")
    return header + "\n" + row + "\n"
