"""Lattice-tree generation: grow a rooted tree from the current configuration
toward the target, expanding the lowest-potential vertex first and admitting
only moves that pass all revealed constraints.

Every vertex carries an integer lattice key.  The root's is all zeros; a
move's key is its parent's key plus the move's key step, +-1 on each moved
axis, so no key is ever rounded from floats.  The unexpanded vertices sit in
a heap of (potential, id), which gives the lowest potential first and the
lowest id on ties.

Moves come from one generator, `group_steps`: each group of robots steps
together by one pitch along one workspace axis; single robots give the 2n
axis moves.  One conjunction, `admit_rows`, admits a batch of moves: the
bounds and the revealed box interiors at the end point, then every robot's
segment or, for a formation, `rows_formation_feasible` (the band at the end
point and over the motion, the sampled robot-to-robot links and the
segments).  `MoveBlocks` runs it over the moves of many vertices in passes
of at most `_ADMIT_ROWS` moves and keeps every move's verdict and
potential.  These depend only on the environment, which is fixed while a
tree grows, so expanding a vertex later only looks its moves' keys up.  The
main loop prepares every vertex inserted since its last block; a restricted
escape search, with its own moves, prepares a vertex from before the search
alone and the vertices it added in blocks the same way.
`candidate_admissible` and `candidate_open` are the per-candidate oracles
the batched tests are checked against.

A tree that ends with every vertex expanded and no target link (`target_id`
None) certifies that no path exists at this pitch.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass
from typing import List, Optional, Sequence, Tuple

import numpy as np

from .environment import KnownEnvironment
from .errors import ResourceLimitError
from .geometry import (as_config, distance, formation_segment_feasible, multi_robot_feasible,
                       point_feasible, rows_formation_feasible, rows_multi_robot_feasible,
                       rows_point_feasible, rows_segment_feasible)

_TARGET_SNAP = 1e-12
_ADMIT_ROWS = 1024  # moves per admission pass

Key = Tuple[int, ...]
Admitted = Tuple[np.ndarray, Key, float]  # a move's coordinates, lattice key and potential


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
        self._xy = np.empty((64, self.n), dtype=float)
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
            self._xy = np.resize(self._xy, (2 * vid, self.n))
        self._xy[vid] = coords
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

    @property
    def coords(self) -> np.ndarray:
        """Read-only (count, n) view of every vertex's coordinates, by id."""
        view = self._xy[:self.count]
        view.flags.writeable = False
        return view

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
            coords = " ".join(f"{c:.12g}" for c in self._xy[vid])
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


def _band(env: KnownEnvironment) -> Optional[Tuple[float, float]]:
    dmin, dmax = env.truth.dmin, env.truth.dmax
    return None if dmin is None or dmax is None else (dmin, dmax)


def open_rows(q: np.ndarray, env: KnownEnvironment) -> np.ndarray:
    """`candidate_open` of each configuration row of q (N, n), the key
    test aside, in one pass."""
    ok = rows_point_feasible(q, env)
    band = _band(env)
    if band is not None and ok.any():
        idx = np.flatnonzero(ok)
        ok[idx] = rows_multi_robot_feasible(q[idx], env, *band)
    return ok


def admit_rows(a: np.ndarray, q: np.ndarray, env: KnownEnvironment,
               cfg: GenConfig) -> np.ndarray:
    """`candidate_admissible` of each move from row a[r] to row q[r] (N, n),
    the key test aside: the end point and every robot's segment or, for a
    formation, `rows_formation_feasible` on the rows whose end point passes."""
    ok = rows_point_feasible(q, env)
    band = _band(env)
    if band is None:
        return ok & rows_segment_feasible(a, q, env)
    idx = np.flatnonzero(ok)
    ok[idx] = rows_formation_feasible(a[idx], q[idx], env, *band, cfg.link_step)
    return ok


def group_steps(groups: Sequence[Sequence[int]], dim: int, n: int) -> np.ndarray:
    """The key steps (M, n) that translate each robot group by one pitch
    along each workspace axis, in (group, axis, +/-) order.  Singleton
    groups give the 2n axis moves, axis by axis."""
    steps = np.zeros((len(groups), dim, n), dtype=int)
    for i, group in enumerate(groups):
        for r in group:
            steps[i, :, r * dim:(r + 1) * dim] = np.eye(dim, dtype=int)
    return np.stack([steps, -steps], axis=2).reshape(-1, n)


def move_rows(v: np.ndarray, steps: np.ndarray, step: float) -> np.ndarray:
    """The moves `steps` (M, n) from each configuration row of v (N, n),
    shaped (N, M, n).  A moved coordinate is v[c] +- step; the others keep
    v's floats (adding 0.0 would turn -0.0 into 0.0)."""
    q = v[:, None, :] + step * steps
    np.copyto(q, v[:, None, :], where=steps == 0)
    return q


class MoveBlocks:
    """Admission results of the moves `steps` (M, n) by vertex id:
    `passed[v, m]` holds whether move m of vertex v passes `admit_rows` and
    the optional row mask `keep`, `pot[v, m]` its potential.  `prepared` is
    one past the highest id prepared."""

    def __init__(self, steps: np.ndarray, keep=None):
        self.steps = steps
        self.keep = keep
        self.prepared = 0
        self.passed = np.empty((64, len(steps)), dtype=bool)
        self.pot = np.empty((64, len(steps)), dtype=float)
        # Per move, its moved coordinates and their signs.
        self._moves = [[(c, d) for c, d in enumerate(s) if d] for s in steps.tolist()]

    def prepare(self, g: SearchGraph, first: int, last: int, env: KnownEnvironment,
                cfg: GenConfig) -> None:
        """Test the moves of the vertices [first, last) in passes of at most
        `_ADMIT_ROWS` moves, which bound the kernels' work arrays."""
        m = len(self.steps)
        if last > len(self.pot):
            size = 1 << (last - 1).bit_length()
            self.passed = np.resize(self.passed, (size, m))
            self.pot = np.resize(self.pot, (size, m))
        per = max(_ADMIT_ROWS // m, 1)
        for s in range(first, last, per):
            rows = slice(s, min(s + per, last))
            v = g._xy[rows]
            q = move_rows(v, self.steps, g.step).reshape(-1, g.n)
            ok = admit_rows(np.repeat(v, m, axis=0), q, env, cfg)
            if self.keep is not None:
                ok &= self.keep(q)
            d = q - g.target
            self.passed[rows] = ok.reshape(-1, m)
            self.pot[rows] = np.sqrt(np.vecdot(d, d)).reshape(-1, m)  # bit-identical to distance()
        self.prepared = max(self.prepared, last)

    def admitted(self, g: SearchGraph, vid: int) -> List[Admitted]:
        """The moves of a prepared vertex that are admitted now: passed when
        prepared and unvisited, in move order."""
        v, key, step = g._xy[vid], g.keys[vid], g.step
        out = []
        for moved, ok, p in zip(self._moves, self.passed[vid].tolist(), self.pot[vid].tolist()):
            if not ok:
                continue
            k = list(key)
            for c, sign in moved:
                k[c] += sign
            qkey = tuple(k)
            if qkey in g.key_map:
                continue
            q = v.copy()
            for c, sign in moved:
                q[c] += sign * step
            out.append((q, qkey, p))
        return out


def target_linkable(g: SearchGraph, vid: int, env: KnownEnvironment, cfg: GenConfig) -> bool:
    # The stored potential is the distance to the target.
    return g._pot[vid] <= cfg.connect_radius and formation_segment_feasible(
        g.coords[vid], g.target, env, env.truth.dmin, env.truth.dmax, cfg.link_step)


def insert_admitted(g: SearchGraph, vid: int, admitted: List[Admitted],
                    env: KnownEnvironment, cfg: GenConfig) -> List[int]:
    """Insert admitted moves from vertex vid and target-link the first new
    vertex that can be."""
    if g.count + len(admitted) > cfg.max_vertices:
        raise ResourceLimitError(
            f"vertex budget {cfg.max_vertices} exceeded during graph generation", graph=g)
    new_ids = []
    for q, key, p in admitted:
        qid = g.insert(q, p, vid, key)
        if p < _TARGET_SNAP:
            # The candidate IS the target: treat the new vertex as the target.
            g.target_id = qid
            return new_ids + [qid]
        new_ids.append(qid)
    for qid in new_ids:
        if target_linkable(g, qid, env, cfg):
            g.target_id = g.insert(g.target, 0.0, qid, None)
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
        g.target_id = g.insert(g.target, 0.0, root, None)
        return g

    from . import trap_escape  # deferred: trap_escape builds on this module

    blocks = MoveBlocks(group_steps([[r] for r in range(g.n // env.dim)], env.dim, g.n))
    used_traps: set = set()
    while g.target_id is None:
        vid = g.argmin_unexpanded()
        if vid is None:
            return g
        if vid >= blocks.prepared:
            blocks.prepare(g, blocks.prepared, g.count, env, cfg)
        base_pot = g.potential_of(vid)
        new_ids = insert_admitted(g, vid, blocks.admitted(g, vid), env, cfg)
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
