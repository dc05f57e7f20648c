"""Line-oriented scenario files.

One directive per line: `key value...`; blank lines and `#` comments are
ignored.  Keys: dim, workspace, robots, start, target, obstacle, sensing_radius,
step, beta, escape, stop_fraction, dmin, dmax, connect_radius, grid_step,
max_vertices, region_shift.  Parsing errors carry the 1-based line number.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Optional, Tuple

import numpy as np

from .environment import GroundTruth, KnownEnvironment
from .errors import ScenarioError
from .geometry import ObstaclePrimitive, point_feasible
from .planner import PlannerConfig
from .trap_escape import TrapEscapePolicy


@dataclass
class Scenario:
    dim: int = 2
    robots: int = 1
    workspace_lo: np.ndarray = field(default_factory=lambda: np.zeros(2))
    workspace_hi: np.ndarray = field(default_factory=lambda: np.ones(2))
    start: Optional[np.ndarray] = None
    target: Optional[np.ndarray] = None
    obstacles: List[Tuple[np.ndarray, np.ndarray, bool]] = field(default_factory=list)
    sensing_radius: float = 0.1
    step: float = 0.03
    beta: Optional[float] = None
    escape: str = "none"
    stop_fraction: float = 0.5
    dmin: Optional[float] = None
    dmax: Optional[float] = None
    connect_radius: Optional[float] = None
    grid_step: Optional[float] = None
    max_vertices: int = 500_000
    region_shift: Optional[np.ndarray] = None

    # -- derived objects --------------------------------------------------

    def ground_truth(self) -> GroundTruth:
        prims = [
            ObstaclePrimitive.box(lo, hi, known=known)
            for lo, hi, known in self.obstacles
        ]
        return GroundTruth.create(dim=self.dim, bounds_lo=self.workspace_lo,
                                  bounds_hi=self.workspace_hi, primitives=prims,
                                  dmin=self.dmin, dmax=self.dmax)

    def planner_config(self) -> PlannerConfig:
        return PlannerConfig(step=self.step, sensing_radius=self.sensing_radius,
                             stop_fraction=self.stop_fraction,
                             connect_radius=self.connect_radius,
                             max_vertices=self.max_vertices,
                             escape=TrapEscapePolicy(mode=self.escape))


def _floats(parts: List[str], want: int, key: str, line: int) -> np.ndarray:
    if len(parts) != want:
        raise ScenarioError(f"{key} expects {want} numbers, got {len(parts)}", line)
    try:
        vals = np.array([float(p) for p in parts])
    except ValueError as exc:
        raise ScenarioError(f"{key}: {exc}", line)
    if not np.all(np.isfinite(vals)):
        raise ScenarioError(f"{key}: numbers must be finite", line)
    return vals


def parse_scenario(text: str) -> Scenario:
    sc = Scenario()
    sized_at = None  # first line whose number count depends on dim
    for ln, raw in enumerate(text.splitlines(), start=1):
        stripped = raw.split("#", 1)[0].strip()
        if not stripped:
            continue
        parts = stripped.split()
        key, args = parts[0], parts[1:]
        if key in ("workspace", "start", "target", "obstacle", "region_shift"):
            sized_at = sized_at or ln
        if key == "dim":
            if len(args) != 1 or args[0] not in ("2", "3"):
                raise ScenarioError("dim must be 2 or 3", ln)
            if int(args[0]) != sc.dim and sized_at is not None:
                raise ScenarioError(f"dim {args[0]} must come before line {sized_at}, "
                                    f"which was read for dim {sc.dim}", ln)
            sc.dim = int(args[0])
            if sc.workspace_lo.shape[0] != sc.dim:
                sc.workspace_lo = np.zeros(sc.dim)
                sc.workspace_hi = np.ones(sc.dim)
        elif key == "robots":
            try:
                sc.robots = int(args[0]) if len(args) == 1 else -1
            except ValueError:
                sc.robots = -1
            if sc.robots < 1:
                raise ScenarioError("robots must be a positive integer", ln)
        elif key == "workspace":
            vals = _floats(args, 2 * sc.dim, key, ln)
            sc.workspace_lo = vals[:sc.dim]
            sc.workspace_hi = vals[sc.dim:]
            if np.any(sc.workspace_hi <= sc.workspace_lo):
                raise ScenarioError("workspace upper bounds must exceed lower bounds", ln)
        elif key in ("start", "target"):
            vals = _floats(args, sc.dim * sc.robots, key, ln)
            setattr(sc, key, vals)
        elif key == "obstacle":
            if not args or args[0] != "box":
                raise ScenarioError("obstacle kind must be 'box'", ln)
            rest = args[1:]
            known = False
            if rest and rest[-1] == "known":
                known = True
                rest = rest[:-1]
            vals = _floats(rest, 2 * sc.dim, key, ln)
            lo, hi = vals[:sc.dim], vals[sc.dim:]
            if np.any(hi < lo):
                raise ScenarioError("obstacle box upper corner below lower corner", ln)
            sc.obstacles.append((lo, hi, known))
        elif key == "region_shift":
            sc.region_shift = _floats(args, sc.dim * sc.robots, key, ln)
        elif key in ("sensing_radius", "step", "beta", "stop_fraction",
                     "dmin", "dmax", "connect_radius", "grid_step"):
            val = float(_floats(args, 1, key, ln)[0])
            if key not in ("dmin",) and val <= 0:
                raise ScenarioError(f"{key} must be positive", ln)
            setattr(sc, key, val)
        elif key == "max_vertices":
            try:
                sc.max_vertices = int(args[0]) if len(args) == 1 else -1
            except ValueError:
                sc.max_vertices = -1
            if sc.max_vertices < 1:
                raise ScenarioError("max_vertices must be a positive integer", ln)
        elif key == "escape":
            if len(args) != 1 or args[0] not in ("none", "near-obstacle", "fixed-shape"):
                raise ScenarioError(
                    "escape must be none, near-obstacle or fixed-shape", ln)
            sc.escape = args[0]
        else:
            raise ScenarioError(f"unknown directive {key!r}", ln)
    validate_scenario(sc)
    return sc


def validate_scenario(sc: Scenario) -> None:
    """Structural checks that need the whole file."""
    if sc.start is None:
        raise ScenarioError("missing start")
    if sc.target is None:
        raise ScenarioError("missing target")
    if sc.start.shape[0] != sc.dim * sc.robots:
        raise ScenarioError("start length does not match dim * robots")
    if sc.target.shape[0] != sc.dim * sc.robots:
        raise ScenarioError("target length does not match dim * robots")
    if sc.robots > 1:
        if sc.dmin is None or sc.dmax is None:
            raise ScenarioError("multi-robot scenarios need dmin and dmax")
        if not (0 <= sc.dmin < sc.dmax):
            raise ScenarioError("need 0 <= dmin < dmax")
    if not (0.0 < sc.stop_fraction < 1.0):
        raise ScenarioError("stop_fraction must lie in (0, 1)")
    truth = sc.ground_truth()
    full = KnownEnvironment.initial(truth, sc.sensing_radius).fully_revealed()
    for name, q in (("start", sc.start), ("target", sc.target)):
        if not point_feasible(q, full):
            raise ScenarioError(f"{name} is infeasible in the ground-truth "
                                "environment")


def serialize_scenario(sc: Scenario) -> str:
    """Inverse of parse_scenario up to formatting; stable %.10g numbers."""
    def fmt(vals) -> str:
        return " ".join(f"{float(v):.10g}" for v in np.atleast_1d(vals))

    lines = [f"dim {sc.dim}", f"robots {sc.robots}",
             f"workspace {fmt(sc.workspace_lo)} {fmt(sc.workspace_hi)}",
             f"start {fmt(sc.start)}", f"target {fmt(sc.target)}"]
    for lo, hi, known in sc.obstacles:
        suffix = " known" if known else ""
        lines.append(f"obstacle box {fmt(lo)} {fmt(hi)}{suffix}")
    lines.append(f"sensing_radius {fmt(sc.sensing_radius)}")
    lines.append(f"step {fmt(sc.step)}")
    lines.append(f"stop_fraction {fmt(sc.stop_fraction)}")
    lines.append(f"escape {sc.escape}")
    lines.append(f"max_vertices {sc.max_vertices}")
    for key in ("beta", "dmin", "dmax", "connect_radius", "grid_step"):
        val = getattr(sc, key)
        if val is not None:
            lines.append(f"{key} {fmt(val)}")
    if sc.region_shift is not None:
        lines.append(f"region_shift {fmt(sc.region_shift)}")
    return "\n".join(lines) + "\n"
