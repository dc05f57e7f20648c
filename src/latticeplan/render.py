"""Deterministic SVG rendering of 2D scenes: obstacles, tree, path, region.

All numbers are emitted with fixed %.4f formatting so identical inputs give
byte-identical files.  Only the first workspace plane is drawn; multi-robot
configurations are split into per-robot polylines.
"""

from __future__ import annotations

from typing import List, Optional, Sequence

import numpy as np

from .environment import KnownEnvironment
from .fpe import Region
from .graph import SearchGraph
from .planner import PlanResult

_UNDETECTED = "#d9d9d9"
_DETECTED = "#6e6e6e"
_EDGE = "#4878c8"
_PATH = "#d62728"
_REGION = "#bdbdbd"

_SIZE = 640.0


def _fmt(v: float) -> str:
    return f"{v:.4f}"


class _Canvas:
    def __init__(self, lo: np.ndarray, hi: np.ndarray):
        self.lo = lo
        span = float(max(hi[0] - lo[0], hi[1] - lo[1]))
        self.scale = _SIZE / span
        self.h = (hi[1] - lo[1]) * self.scale
        self.w = (hi[0] - lo[0]) * self.scale
        self.parts: List[str] = [
            f'<svg xmlns="http://www.w3.org/2000/svg" width="{_fmt(self.w)}" '
            f'height="{_fmt(self.h)}" viewBox="0 0 {_fmt(self.w)} {_fmt(self.h)}">',
            f'<rect x="0" y="0" width="{_fmt(self.w)}" height="{_fmt(self.h)}" '
            'fill="#ffffff"/>',
        ]

    def xy(self, p) -> tuple:
        x = (p[0] - self.lo[0]) * self.scale
        y = self.h - (p[1] - self.lo[1]) * self.scale  # y grows upward on screen
        return x, y

    def rect(self, lo, hi, fill: str, opacity: float = 1.0):
        x0, y1 = self.xy(lo)
        x1, y0 = self.xy(hi)
        self.parts.append(
            f'<rect x="{_fmt(x0)}" y="{_fmt(y0)}" width="{_fmt(x1 - x0)}" '
            f'height="{_fmt(y1 - y0)}" fill="{fill}" fill-opacity="{_fmt(opacity)}"/>')

    def line(self, a, b, stroke: str, width: float):
        xa, ya = self.xy(a)
        xb, yb = self.xy(b)
        self.parts.append(
            f'<line x1="{_fmt(xa)}" y1="{_fmt(ya)}" x2="{_fmt(xb)}" y2="{_fmt(yb)}" '
            f'stroke="{stroke}" stroke-width="{_fmt(width)}"/>')

    def polyline(self, pts, stroke: str, width: float):
        coords = " ".join(f"{_fmt(x)},{_fmt(y)}" for x, y in (self.xy(p) for p in pts))
        self.parts.append(
            f'<polyline points="{coords}" fill="none" stroke="{stroke}" '
            f'stroke-width="{_fmt(width)}"/>')

    def circle(self, p, r: float, fill: str):
        x, y = self.xy(p)
        self.parts.append(
            f'<circle cx="{_fmt(x)}" cy="{_fmt(y)}" r="{_fmt(r)}" fill="{fill}"/>')

    def diamond(self, p, r: float, fill: str):
        x, y = self.xy(p)
        pts = f"{_fmt(x)},{_fmt(y - r)} {_fmt(x + r)},{_fmt(y)} " \
              f"{_fmt(x)},{_fmt(y + r)} {_fmt(x - r)},{_fmt(y)}"
        self.parts.append(f'<polygon points="{pts}" fill="{fill}"/>')

    def finish(self) -> str:
        return "\n".join(self.parts + ["</svg>"]) + "\n"


def _robot_points(x: np.ndarray, dim: int) -> List[np.ndarray]:
    return list(np.asarray(x).reshape(-1, dim))


def _draw_environment(c: _Canvas, known: KnownEnvironment):
    for i, (lo, hi) in enumerate(zip(known.truth.lo, known.truth.hi)):
        c.rect(lo, hi, _DETECTED if i in known.revealed else _UNDETECTED)


def render_scene(known: KnownEnvironment, start, target,
                 graph: Optional[SearchGraph] = None,
                 path_coords: Optional[Sequence] = None,
                 region: Optional[Region] = None) -> str:
    """Compose one frame; start is a red diamond, target a red circle."""
    dim = known.dim
    if dim != 2:
        raise ValueError("rendering is only available for 2D workspaces")
    c = _Canvas(known.bounds_lo, known.bounds_hi)
    _draw_environment(c, known)
    if region is not None:
        lat = region.lattice
        hw = region.half_width
        for i in region.nodes:
            pos = lat.coords[i][:2]
            c.rect(pos - hw, pos + hw, _REGION, opacity=0.5)
    if graph is not None:
        for vid, a in enumerate(graph.ancestor):
            if a is None:
                continue
            for pa, pb in zip(_robot_points(graph.coords[a], dim),
                              _robot_points(graph.coords[vid], dim)):
                c.line(pa, pb, _EDGE, 1.0)
    if path_coords is not None and len(path_coords) > 0:
        pts = [_robot_points(p, dim) for p in path_coords]
        k = len(pts[0])
        for r in range(k):
            c.polyline([row[r] for row in pts], _PATH, 2.5)
    for p in _robot_points(np.asarray(start, dtype=float), dim):
        c.diamond(p, 7.0, _PATH)
    for p in _robot_points(np.asarray(target, dtype=float), dim):
        c.circle(p, 6.0, _PATH)
    return c.finish()


def render_plan_segment(result: PlanResult, index: int,
                        known: KnownEnvironment) -> str:
    """One replanning round: its tree, its path, and the trajectory so far."""
    seg = result.segments[index]
    start = seg.path.coords[0]
    target = seg.graph.target
    return render_scene(known, start, target, graph=seg.graph,
                        path_coords=seg.motion.traversed)
