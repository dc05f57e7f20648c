"""Lattice-tree generation: grow a rooted tree from the current configuration
toward the target, expanding the lowest-potential vertex first and admitting
only candidates that pass all revealed constraints.

Returns None ("empty graph") when every vertex has been expanded and no new
candidate can be added, which certifies that no path exists at this pitch.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Tuple

import numpy as np

from .environment import KnownEnvironment
from .errors import LatticeConsistencyError, ResourceLimitError
from .geometry import (PotentialField, as_config, distance,
                       formation_segment_feasible, multi_robot_feasible,
                       point_feasible)

_TARGET_SNAP = 1e-12


@dataclass
class GenConfig:
    """Knobs for one graph generation run."""

    step: float
    connect_radius: Optional[float] = None
    max_vertices: int = 500_000

    def __post_init__(self):
        if self.step <= 0:
            raise ValueError("step must be positive")
        if self.connect_radius is None:
            self.connect_radius = self.step
        if self.connect_radius <= 0 or self.max_vertices < 1:
            raise ValueError("connect_radius must be positive and max_vertices >= 1")

    @property
    def link_step(self) -> float:
        return self.step / 10.0


class SearchGraph:
    """Rooted tree of lattice configurations with potentials and ancestor links.

    Vertices are stored in insertion order; the root has ancestor None.  The
    target vertex, once linked, may sit off-lattice (key None).
    """

    def __init__(self, root: np.ndarray, target: np.ndarray, step: float):
        self.step = step
        self.anchor = root.copy()
        self.target = target.copy()
        self.n = root.shape[0]
        self.coords: List[np.ndarray] = []
        self.ancestor: List[Optional[int]] = []
        self.keys: List[Optional[Tuple[int, ...]]] = []
        self.key_map: dict = {}
        self._pot = np.empty(64, dtype=float)
        self._expanded = np.zeros(64, dtype=bool)
        self.count = 0
        self.target_id: Optional[int] = None
        self.trapped = False
        self.trap_events: List[int] = []
        self.escape_log: List[dict] = []

    # -- storage ---------------------------------------------------------

    def _grow(self):
        cap = self._pot.shape[0]
        if self.count >= cap:
            self._pot = np.resize(self._pot, cap * 2)
            exp = np.zeros(cap * 2, dtype=bool)
            exp[:cap] = self._expanded
            self._expanded = exp

    def insert(self, coords: np.ndarray, pot_value: float,
               ancestor: Optional[int], key: Optional[Tuple[int, ...]]) -> int:
        self._grow()
        vid = self.count
        self.coords.append(coords)
        self.ancestor.append(ancestor)
        self.keys.append(key)
        if key is not None:
            self.key_map[key] = vid
        self._pot[vid] = pot_value
        self._expanded[vid] = False
        self.count += 1
        return vid

    # -- views -----------------------------------------------------------

    def potential_of(self, vid: int) -> float:
        return float(self._pot[vid])

    def is_expanded(self, vid: int) -> bool:
        return bool(self._expanded[vid])

    def mark_expanded(self, vid: int):
        self._expanded[vid] = True

    def argmin_unexpanded(self) -> Optional[int]:
        """Lowest-potential unexpanded vertex; FIFO tie-break by insertion order."""
        pot = self._pot[:self.count]
        mask = self._expanded[:self.count]
        masked = np.where(mask, np.inf, pot)
        vid = int(np.argmin(masked))
        if masked[vid] == np.inf:
            return None
        return vid

    def edges(self):
        for vid in range(self.count):
            a = self.ancestor[vid]
            if a is not None:
                yield (a, vid)

    def dump(self) -> str:
        """One vertex per line: id ancestor_id potential coord..."""
        lines = []
        for vid in range(self.count):
            a = self.ancestor[vid]
            anc = str(a) if a is not None else "-"
            coords = " ".join(f"{c:.12g}" for c in self.coords[vid])
            lines.append(f"{vid} {anc} {self._pot[vid]:.12g} {coords}")
        return "\n".join(lines) + "\n"


def lattice_key(x, g: SearchGraph) -> Tuple[int, ...]:
    """Integer lattice coordinates of x relative to the graph anchor.

    Raises when any component is farther than a quarter step from the
    nearest lattice multiple (the point was not generated by +-step moves).
    """
    rel = (as_config(x) - g.anchor) / g.step
    rounded = np.rint(rel)
    if np.any(np.abs(rel - rounded) > 0.25):
        raise LatticeConsistencyError(
            f"configuration {x} is off-lattice for anchor {g.anchor}, step {g.step}")
    return tuple(int(v) for v in rounded)


def _band(env: KnownEnvironment):
    return env.truth.dmin, env.truth.dmax


def candidate_admissible(g: SearchGraph, from_id: int, q: np.ndarray,
                         env: KnownEnvironment, cfg: GenConfig) -> bool:
    """Admission test for a lattice candidate reached from an existing vertex."""
    key = lattice_key(q, g)
    if key in g.key_map:
        return False
    if not point_feasible(q, env):
        return False
    dmin, dmax = _band(env)
    if dmin is not None and dmax is not None:
        if not multi_robot_feasible(q, env, dmin, dmax):
            return False
    return formation_segment_feasible(g.coords[from_id], q, env, dmin, dmax, cfg.link_step)


def axis_candidates(g: SearchGraph, vid: int) -> List[np.ndarray]:
    """The 2n lattice moves from a vertex, in deterministic axis order."""
    v = g.coords[vid]
    out = []
    for axis in range(g.n):
        for sign in (1.0, -1.0):
            q = v.copy()
            q[axis] += sign * g.step
            out.append(q)
    return out


def target_linkable(g: SearchGraph, vid: int, env: KnownEnvironment, cfg: GenConfig) -> bool:
    if distance(g.coords[vid], g.target) > cfg.connect_radius:
        return False
    dmin, dmax = _band(env)
    return formation_segment_feasible(g.coords[vid], g.target, env, dmin, dmax, cfg.link_step)


def _link_target(g: SearchGraph, vid: int):
    g.target_id = g.insert(g.target.copy(), 0.0, vid, None)


def insert_candidates(g: SearchGraph, vid: int, candidates: List[np.ndarray],
                      env: KnownEnvironment, cfg: GenConfig,
                      pot: PotentialField) -> List[int]:
    """Admit, insert and target-link a batch of candidates from vertex vid."""
    admitted = [q for q in candidates if candidate_admissible(g, vid, q, env, cfg)]
    if g.count + len(admitted) > cfg.max_vertices:
        raise ResourceLimitError(
            f"vertex budget {cfg.max_vertices} exceeded during graph generation")
    new_ids = []
    for q in admitted:
        if distance(q, g.target) < _TARGET_SNAP:
            # The candidate IS the target: treat the new vertex as the target.
            qid = g.insert(q, pot.value(q), vid, lattice_key(q, g))
            g.target_id = qid
            return new_ids + [qid]
        new_ids.append(g.insert(q, pot.value(q), vid, lattice_key(q, g)))
    for qid in new_ids:
        if target_linkable(g, qid, env, cfg):
            _link_target(g, qid)
            break
    return new_ids


def expand_vertex(g: SearchGraph, vid: int, env: KnownEnvironment, cfg: GenConfig,
                  pot: Optional[PotentialField] = None) -> List[int]:
    """Expand one vertex with its axis candidates; always marks it expanded."""
    if g.is_expanded(vid):
        raise ValueError(f"vertex {vid} already expanded")
    if pot is None:
        pot = PotentialField(target=g.target)
    new_ids = insert_candidates(g, vid, axis_candidates(g, vid), env, cfg, pot)
    g.mark_expanded(vid)
    return new_ids


def generate_graph(start, target, env: KnownEnvironment, cfg: GenConfig,
                   pot: Optional[PotentialField] = None,
                   escape=None) -> Optional[SearchGraph]:
    """Grow the lattice tree until the target is linked or the frontier dies.

    Returns the graph with `target_id` set on success, None when no candidate
    can ever be added (certified no-path at this pitch), and raises on vertex
    budget exhaustion.  Deterministic for fixed inputs.
    """
    start = as_config(start)
    target = as_config(target)
    if pot is None:
        pot = PotentialField(target=target)
    g = SearchGraph(start, target, cfg.step)
    root = g.insert(start, pot.value(start), None, tuple([0] * g.n))
    if distance(start, target) < _TARGET_SNAP:
        g.target_id = root
        return g
    if target_linkable(g, root, env, cfg):
        _link_target(g, root)
        return g

    from . import trap_escape  # deferred: trap_escape builds on this module

    used_traps: set = set()
    while g.target_id is None:
        vid = g.argmin_unexpanded()
        if vid is None:
            return None
        base_pot = g.potential_of(vid)
        new_ids = expand_vertex(g, vid, env, cfg, pot)
        if g.target_id is not None:
            break
        improved = any(g.potential_of(i) < base_pot for i in new_ids)
        if not improved:
            g.trapped = True
            g.trap_events.append(vid)
            if escape is not None and escape.mode != "none" and vid not in used_traps:
                used_traps.add(vid)
                if escape.mode == "near-obstacle":
                    trap_escape.escape_near_obstacle(g, vid, env, cfg)
                else:
                    trap_escape.escape_fixed_shape(g, vid, env, cfg, escape)
    return g
