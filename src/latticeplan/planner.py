"""The replanning loop: generate a tree, extract the path, move along it
while sensing, stop short of newly revealed obstacles, repeat.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Optional, Tuple

import numpy as np

from .environment import GroundTruth, KnownEnvironment, distance_to_revealed, sense
from .errors import ModelViolationError, ResourceLimitError
from .geometry import (as_config, box_distances, distance, point_feasible,
                       segment_hits_box, segments_hit_boxes)
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
    max_segments: Optional[int] = None
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


def densify(polyline: List[np.ndarray], step: float) -> List[np.ndarray]:
    """Resample a polyline so consecutive points are at most `step` apart.

    Original vertices are kept exactly (the last sample of each edge is the
    edge endpoint itself).
    """
    samples = [polyline[0]]
    for a, b in zip(polyline, polyline[1:]):
        length = distance(a, b)
        if length == 0.0:
            continue
        m = max(int(np.ceil(length / step)), 1)
        for s in range(1, m):
            samples.append(a + (s / m) * (b - a))
        samples.append(b)
    return samples


def _first_blocking_index(samples: List[np.ndarray], start: int,
                          known: KnownEnvironment) -> Optional[int]:
    """Smallest j >= start such that the motion past sample j is infeasible.

    One slab test covers every remaining inter-sample segment of every robot
    and, for several robots, every robot-to-robot link at the sample after
    each segment.
    """
    remaining = np.asarray(samples[start:])
    if remaining.shape[0] < 2:
        return None
    dim = known.dim
    positions = remaining.reshape(remaining.shape[0], -1, dim)  # (samples, k, dim)
    i, j = np.triu_indices(positions.shape[1], 1)
    starts = np.concatenate([positions[:-1], positions[1:, i]], axis=1)
    ends = np.concatenate([positions[1:], positions[1:, j]], axis=1)
    hit = segments_hit_boxes(starts.reshape(-1, dim), ends.reshape(-1, dim),
                             known.lo, known.hi)
    idx = np.flatnonzero(hit.reshape(starts.shape[:2]).any(axis=1))
    if idx.size == 0:
        return None
    return start + int(idx[0])


def _blocking_rows(a: np.ndarray, b: np.ndarray, known: KnownEnvironment) -> List[int]:
    """Rows of the revealed boxes responsible for the segment a -> b being
    infeasible (crossed per robot, or cutting a robot link at b)."""
    pa = known.robot_positions(a)
    pb = known.robot_positions(b)
    i, j = np.triu_indices(len(pb), 1)
    segments = list(zip(pa, pb)) + list(zip(pb[i], pb[j]))
    return [r for r, (lo, hi) in enumerate(zip(known.lo, known.hi))
            if any(segment_hits_box(s, e, lo, hi) for s, e in segments)]


def _clearance_to(x: np.ndarray, rows: List[int], known: KnownEnvironment) -> float:
    if not rows:
        return distance_to_revealed(x, known)
    d = box_distances(known.robot_positions(x), known.lo[rows], known.hi[rows])
    return float(d.min())


def move_along(path: GraphPath, known: KnownEnvironment,
               cfg: PlannerConfig) -> Tuple[MotionOutcome, KnownEnvironment]:
    """Advance along the path polyline in motion-step increments, sensing at
    each sample; on a newly revealed block, stop at the last sample before
    the intersection whose clearance is at least stop_fraction * R."""
    delta = cfg.motion_step
    samples = densify(path.coords, delta)
    if len(samples) < 2:
        out = MotionOutcome(traversed=[samples[0]], status="exhausted",
                            stop_point=samples[0],
                            stop_clearance=distance_to_revealed(samples[0], known))
        return out, known

    known = sense(known, samples[0])
    i = 0
    traversed = [samples[0]]
    end = len(samples) - 1
    stop_at = end
    blocked = False
    blockers: List[int] = []  # rows of known.lo/hi; recomputed whenever known changes
    need_check = True
    while True:
        if need_check:
            need_check = False
            jb = _first_blocking_index(samples, i, known)
            if jb is None:
                stop_at = end
                blocked = False
                blockers = []
            else:
                blocked = True
                blockers = _blocking_rows(samples[jb], samples[jb + 1], known)
                threshold = cfg.stop_fraction * known.sensing_radius
                stop_at = i
                # Clearance is measured to the boxes that cut the path:
                # earlier walls may legally sit closer than the stop band.
                for j in range(jb, i - 1, -1):
                    if _clearance_to(samples[j], blockers, known) >= threshold:
                        stop_at = j
                        break
        if i >= stop_at:
            break
        i += 1
        traversed.append(samples[i])
        new_known = sense(known, samples[i])
        if new_known is not known:
            known = new_known
            need_check = True
        if not point_feasible(samples[i], known):
            raise ModelViolationError(
                "robot discovered inside an obstacle while moving")

    status = "blocked" if blocked and i < end else "reached-target"
    clearance = (_clearance_to(samples[i], blockers, known) if status == "blocked"
                 else distance_to_revealed(samples[i], known))
    out = MotionOutcome(traversed=traversed, status=status,
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
    cap = cfg.max_segments
    if cap is None:
        cap = max(4 * lattice_capacity(truth, cfg.step, start.shape[0]), 4)

    segments: List[PlanSegment] = []
    trajectory: List[np.ndarray] = [start]
    x_c = start
    status = "resource-limit"
    while True:
        if distance(x_c, target) == 0.0:
            status = "success"
            break
        try:
            g = generate_graph(x_c, target, known, gencfg, escape=cfg.escape)
        except ResourceLimitError:
            status = "resource-limit"
            break
        if g is None:
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

    counts = [s.graph.count for s in segments]
    metrics = {
        "num_robots": start.shape[0] // truth.dim,
        "l": cfg.step,
        "dim": start.shape[0],
        "avg_vertices": float(np.mean(counts)) if counts else 0.0,
        "max_vertices": max(counts) if counts else 0,
        "trapped": any(s.graph.trapped for s in segments),
        "num_graphs": len(segments),
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
