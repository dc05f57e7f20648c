"""Lattice-tree generation: grow a rooted tree from the current configuration
toward the target, expanding the lowest-potential vertex first and admitting
only candidates that pass all revealed constraints.

Every vertex carries an integer lattice key.  The root's is all zeros; a
move's key is its parent's key +-1 on each moved axis, so no key is ever
rounded from floats.  The unexpanded vertices sit in a heap of
(potential, id), which gives the lowest potential first and the lowest id
on ties.

A tree that ends with every vertex expanded and no target link (`target_id`
None) certifies that no path exists at this pitch.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass
from typing import List, Optional, Tuple

import numpy as np

from .environment import KnownEnvironment
from .errors import ResourceLimitError
from .geometry import (as_config, distance, formation_segment_feasible,
                       multi_robot_feasible, point_feasible)

_TARGET_SNAP = 1e-12

Key = Tuple[int, ...]
Candidate = Tuple[np.ndarray, Key]  # a move's coordinates and lattice key


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

    Vertices are stored in insertion order; the root has ancestor None.  A
    vertex's potential is its distance to the target.  The target vertex,
    once linked, may sit off-lattice (key None).
    """

    def __init__(self, root: np.ndarray, target: np.ndarray, step: float):
        self.step = step
        self.anchor = root.copy()
        self.target = target.copy()
        self.n = root.shape[0]
        self.coords: List[np.ndarray] = []
        self.ancestor: List[Optional[int]] = []
        self.keys: List[Optional[Key]] = []
        self.key_map: dict = {}
        self._pot = np.empty(64, dtype=float)
        self._expanded: List[bool] = []
        self._frontier: List[Tuple[float, int]] = []  # heap of (potential, id)
        self.count = 0
        self.target_id: Optional[int] = None
        self.trapped = False
        self.trap_events: List[int] = []
        self.escape_log: List[dict] = []

    # -- storage ---------------------------------------------------------

    def insert(self, coords: np.ndarray, pot_value: float,
               ancestor: Optional[int], key: Optional[Key]) -> int:
        vid = self.count
        if vid == self._pot.shape[0]:
            self._pot = np.resize(self._pot, 2 * vid)
        self.coords.append(coords)
        self.ancestor.append(ancestor)
        self.keys.append(key)
        if key is not None:
            self.key_map[key] = vid
        self._pot[vid] = pot_value
        self._expanded.append(False)
        heapq.heappush(self._frontier, (pot_value, vid))
        self.count += 1
        return vid

    # -- views -----------------------------------------------------------

    def potential_of(self, vid: int) -> float:
        return float(self._pot[vid])

    @property
    def potentials(self) -> np.ndarray:
        """Read-only view of every vertex's potential, by id."""
        view = self._pot[:self.count]
        view.flags.writeable = False
        return view

    def is_expanded(self, vid: int) -> bool:
        return self._expanded[vid]

    def mark_expanded(self, vid: int):
        self._expanded[vid] = True

    def argmin_unexpanded(self) -> Optional[int]:
        """Lowest-potential unexpanded vertex; FIFO tie-break by insertion order."""
        heap = self._frontier
        while heap and self._expanded[heap[0][1]]:
            heapq.heappop(heap)
        return heap[0][1] if heap else None

    def dump(self) -> str:
        """One vertex per line: id ancestor_id potential coord..."""
        lines = []
        for vid in range(self.count):
            a = self.ancestor[vid]
            anc = str(a) if a is not None else "-"
            coords = " ".join(f"{c:.12g}" for c in self.coords[vid])
            lines.append(f"{vid} {anc} {self._pot[vid]:.12g} {coords}")
        return "\n".join(lines) + "\n"


def candidate_open(g: SearchGraph, q: np.ndarray, key: Key,
                   env: KnownEnvironment) -> bool:
    """Point-level admission: unvisited, in bounds, outside the revealed boxes
    and, for a formation, inside the distance band."""
    if key in g.key_map or not point_feasible(q, env):
        return False
    dmin, dmax = env.truth.dmin, env.truth.dmax
    return dmin is None or dmax is None or multi_robot_feasible(q, env, dmin, dmax)


def candidate_admissible(g: SearchGraph, from_id: int, q: np.ndarray, key: Key,
                         env: KnownEnvironment, cfg: GenConfig) -> bool:
    """Admission test for a lattice candidate reached from an existing vertex."""
    return candidate_open(g, q, key, env) and formation_segment_feasible(
        g.coords[from_id], q, env, env.truth.dmin, env.truth.dmax, cfg.link_step)


def axis_candidates(g: SearchGraph, vid: int) -> List[Candidate]:
    """The 2n lattice moves from a vertex, in deterministic axis order."""
    v, key = g.coords[vid], g.keys[vid]
    out = []
    for axis in range(g.n):
        for sign in (1, -1):
            q = v.copy()
            q[axis] += sign * g.step
            out.append((q, key[:axis] + (key[axis] + sign,) + key[axis + 1:]))
    return out


def target_linkable(g: SearchGraph, vid: int, env: KnownEnvironment, cfg: GenConfig) -> bool:
    # The stored potential is the distance to the target.
    return g._pot[vid] <= cfg.connect_radius and formation_segment_feasible(
        g.coords[vid], g.target, env, env.truth.dmin, env.truth.dmax, cfg.link_step)


def insert_candidates(g: SearchGraph, vid: int, candidates: List[Candidate],
                      env: KnownEnvironment, cfg: GenConfig) -> List[int]:
    """Admit, insert and target-link a batch of candidates from vertex vid."""
    admitted = [(q, key) for q, key in candidates
                if candidate_admissible(g, vid, q, key, env, cfg)]
    if g.count + len(admitted) > cfg.max_vertices:
        raise ResourceLimitError(
            f"vertex budget {cfg.max_vertices} exceeded during graph generation")
    new_ids = []
    for q, key in admitted:
        p = distance(q, g.target)
        qid = g.insert(q, p, vid, key)
        if p < _TARGET_SNAP:
            # The candidate IS the target: treat the new vertex as the target.
            g.target_id = qid
            return new_ids + [qid]
        new_ids.append(qid)
    for qid in new_ids:
        if target_linkable(g, qid, env, cfg):
            g.target_id = g.insert(g.target.copy(), 0.0, qid, None)
            break
    return new_ids


def generate_graph(start, target, env: KnownEnvironment, cfg: GenConfig,
                   escape=None) -> SearchGraph:
    """Grow the lattice tree until the target is linked or the frontier dies.

    Returns the graph, with `target_id` set on success and None when no
    candidate can ever be added (certified no-path at this pitch); raises on
    vertex budget exhaustion.  A vertex none of whose admitted children lowers
    the potential is a trap, where the `escape` policy runs once.
    Deterministic for fixed inputs.
    """
    start = as_config(start)
    target = as_config(target)
    g = SearchGraph(start, target, cfg.step)
    root = g.insert(start, distance(start, target), None, tuple([0] * g.n))
    if g.potential_of(root) < _TARGET_SNAP:
        g.target_id = root
        return g
    if target_linkable(g, root, env, cfg):
        g.target_id = g.insert(g.target.copy(), 0.0, root, None)
        return g

    from . import trap_escape  # deferred: trap_escape builds on this module

    used_traps: set = set()
    while g.target_id is None:
        vid = g.argmin_unexpanded()
        if vid is None:
            return g
        base_pot = g.potential_of(vid)
        new_ids = insert_candidates(g, vid, axis_candidates(g, vid), env, cfg)
        g.mark_expanded(vid)
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
                    trap_escape.escape_fixed_shape(g, vid, env, cfg)
    return g
