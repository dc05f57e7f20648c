"""Line-oriented scenario files.

One directive per line: `key value...`; blank lines and `#` comments are
ignored.  Keys: dim, workspace, robots, start, target, obstacle, sensing_radius,
step, beta, escape, stop_fraction, dmin, dmax, connect_radius, grid_step,
max_vertices.  Parsing errors carry the 1-based line number.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

import numpy as np

from .environment import GroundTruth, KnownEnvironment
from .errors import ScenarioError
from .geometry import ObstaclePrimitive, multi_robot_feasible, point_feasible
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
    lines: Dict[str, int] = {}  # the line each directive was last read from
    for ln, raw in enumerate(text.splitlines(), start=1):
        stripped = raw.split("#", 1)[0].strip()
        if not stripped:
            continue
        parts = stripped.split()
        key, args = parts[0], parts[1:]
        lines[key] = ln
        if key in ("workspace", "start", "target", "obstacle"):
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
    validate_scenario(sc, lines)
    return sc


def validate_scenario(sc: Scenario, lines: Optional[Dict[str, int]] = None) -> None:
    """Structural checks that need the whole file.  `lines` maps a directive
    to the line it was read from, for the messages."""
    lines = lines or {}
    if sc.start is None:
        raise ScenarioError("missing start")
    if sc.target is None:
        raise ScenarioError("missing target")
    for name in ("start", "target"):
        if getattr(sc, name).shape[0] != sc.dim * sc.robots:
            raise ScenarioError(f"{name} length does not match dim * robots", lines.get(name))
    if sc.robots > 1:
        if sc.dmin is None or sc.dmax is None:
            raise ScenarioError("multi-robot scenarios need dmin and dmax", lines.get("robots"))
        if not (0 <= sc.dmin < sc.dmax):
            raise ScenarioError("need 0 <= dmin < dmax",
                                lines.get("dmin" if sc.dmin < 0 else "dmax"))
    elif sc.escape == "fixed-shape":
        raise ScenarioError("escape fixed-shape needs robots 2 or more", lines.get("escape"))
    if not (0.0 < sc.stop_fraction < 1.0):
        raise ScenarioError("stop_fraction must lie in (0, 1)", lines.get("stop_fraction"))
    truth = sc.ground_truth()
    full = KnownEnvironment.initial(truth, sc.sensing_radius).fully_revealed()
    for name, q in (("start", sc.start), ("target", sc.target)):
        if not point_feasible(q, full):
            raise ScenarioError(f"{name} is infeasible in the ground-truth "
                                "environment", lines.get(name))
        if sc.dmin is not None and sc.dmax is not None and not multi_robot_feasible(
                q, full, sc.dmin, sc.dmax):
            raise ScenarioError(f"{name} has a robot pair outside [dmin, dmax] or a "
                                "robot-to-robot link crossing a box in the ground-truth "
                                "environment", lines.get(name))

