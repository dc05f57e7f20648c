"""Lattice-tree generation: grow a rooted tree from the current configuration
toward the target, expanding the lowest-potential vertex first and admitting
only candidates that pass all revealed constraints.

Every vertex carries an integer lattice key.  The root's is all zeros; a
move's key is its parent's key +-1 on each moved axis, so no key is ever
rounded from floats.  The unexpanded vertices sit in a heap of
(potential, id), which gives the lowest potential first and the lowest id
on ties.

The main loop admits the 2n axis moves of its vertices in blocks.  A block
is every vertex inserted since the last one; it is prepared when the loop
pops the first vertex at or past the prepared range.  One numpy pass builds
the moves of the whole block and tests the workspace bounds, the revealed
box interiors and the moving robot's segment (the other robots do not move,
and a zero-length segment crosses a box exactly when its point lies inside
it), and computes every move's potential; for a formation, one more pass
over the moves that passed tests the band at the end point, the band over
the motion and the sampled robot-to-robot links (`rows_formation_feasible`).
These depend only on the environment, which is fixed while a tree grows, so
a vertex expanded later only looks its moves' keys up.  The trap escapes
admit a vertex's whole candidate list in one such pass (`admit_candidates`).
`candidate_admissible` and `candidate_open` are the per-candidate oracles
both are tested against.

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
from .geometry import (as_config, distance, formation_segment_feasible, multi_robot_feasible,
                       point_feasible, rows_formation_feasible, rows_multi_robot_feasible,
                       rows_point_feasible, rows_segment_feasible, segments_hit_boxes)

_TARGET_SNAP = 1e-12

Key = Tuple[int, ...]
Candidate = Tuple[np.ndarray, Key]  # a move's coordinates and lattice key
Admitted = Tuple[np.ndarray, Key, float]  # ... plus its potential


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


def admit_candidates(g: SearchGraph, vid: int, candidates: List[Candidate],
                     env: KnownEnvironment, cfg: GenConfig) -> List[Admitted]:
    """The candidates from vertex vid that `candidate_admissible` admits,
    with their potentials, tested in one pass."""
    fresh = [c for c in candidates if c[1] not in g.key_map]
    if not fresh:
        return []
    q = np.array([q for q, _ in fresh])
    a = np.broadcast_to(g._xy[vid], q.shape)
    ok = rows_point_feasible(q, env)
    band = _band(env)
    if band is None:
        ok &= rows_segment_feasible(a, q, env)
    elif ok.any():
        idx = np.flatnonzero(ok)
        ok[idx] = rows_formation_feasible(a[idx], q[idx], env, *band, cfg.link_step,
                                          segments=True)
    d = q - g.target
    pot = np.sqrt(np.vecdot(d, d))  # bit-identical to distance()
    return [(c, key, p) for (c, key), good, p in zip(fresh, ok.tolist(), pot.tolist()) if good]


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


class AxisBlocks:
    """Block-admission results for the axis moves of every vertex below
    `prepared`, by vertex id: move 2a + s of a vertex steps axis a by +step
    (s = 0) or -step (s = 1), as `axis_candidates` orders them.  `passed`
    holds whether a move is in bounds, outside every revealed box and not
    crossing one and, for a formation, passes `rows_formation_feasible`;
    `pot` holds its potential."""

    def __init__(self, n: int, dim: int):
        self.prepared = 0
        self.passed = np.empty((64, 2 * n), dtype=bool)
        self.pot = np.empty((64, 2 * n), dtype=float)
        self._axes = np.arange(n)
        self._moves = np.arange(2 * n)
        self._movers = self._moves // (2 * dim)  # the robot each move moves

    def prepare(self, g: SearchGraph, env: KnownEnvironment, cfg: GenConfig) -> None:
        """Test the moves of the vertices [prepared, g.count) in one pass."""
        first, last = self.prepared, g.count
        if last > self.passed.shape[0]:
            size = 1 << (last - 1).bit_length()
            self.passed = np.resize(self.passed, (size, 2 * g.n))
            self.pot = np.resize(self.pot, (size, 2 * g.n))
        # The rows are zero-padded to a power of two, so the temporaries
        # below come in few sizes: numpy keeps freed buffers under 1 kB in a
        # cache per size, and blocks of every size filled it with about
        # 0.3 MB more on sealed rooms.
        b, n, dim = last - first, g.n, env.dim
        v = np.zeros((1 << (b - 1).bit_length(), n))
        v[:b] = g.coords[first:last]
        rows, axes, moves, movers = len(v), self._axes, self._moves, self._movers
        # The same floats as axis_candidates: v[axis] + sign * step.
        q = np.repeat(v[:, None, :], 2 * n, axis=1)  # (rows, 2n, n)
        q[:, moves[0::2], axes] = v + g.step
        q[:, moves[1::2], axes] = v - g.step
        passed = rows_point_feasible(q.reshape(-1, n), env).reshape(rows, 2 * n)
        pos = q.reshape(rows, 2 * n, -1, dim)  # robot positions
        # Only the moving robot's segment can cross a box the points miss.
        start = v.reshape(rows, -1, dim)[:, movers]
        end = pos[:, moves, movers]
        passed &= ~segments_hit_boxes(start.reshape(-1, dim), end.reshape(-1, dim),
                                      env.lo, env.hi).reshape(rows, 2 * n)
        band = _band(env)
        if band is not None:
            idx = np.flatnonzero(passed[:b])  # move r * 2n + m of block row r
            passed.flat[idx] = rows_formation_feasible(
                v[idx // (2 * n)], q.reshape(-1, n)[idx], env, *band, cfg.link_step)
        d = q - g.target
        self.passed[first:last] = passed[:b]
        self.pot[first:last] = np.sqrt(np.vecdot(d, d))[:b]  # bit-identical to distance()
        self.prepared = last


def block_admitted(g: SearchGraph, vid: int, blocks: AxisBlocks) -> List[Admitted]:
    """The axis moves of a prepared vertex that are admitted now: passed by
    its block and unvisited."""
    v, key = g._xy[vid], g.keys[vid]
    out = []
    for move, (ok, p) in enumerate(zip(blocks.passed[vid].tolist(), blocks.pot[vid].tolist())):
        if not ok:
            continue
        axis, sign = move >> 1, 1 - 2 * (move & 1)
        qkey = key[:axis] + (key[axis] + sign,) + key[axis + 1:]
        if qkey in g.key_map:
            continue
        q = v.copy()
        q[axis] += sign * g.step
        out.append((q, qkey, p))
    return out


def target_linkable(g: SearchGraph, vid: int, env: KnownEnvironment, cfg: GenConfig) -> bool:
    # The stored potential is the distance to the target.
    return g._pot[vid] <= cfg.connect_radius and formation_segment_feasible(
        g.coords[vid], g.target, env, env.truth.dmin, env.truth.dmax, cfg.link_step)


def insert_candidates(g: SearchGraph, vid: int, candidates: List[Candidate],
                      env: KnownEnvironment, cfg: GenConfig) -> List[int]:
    """Admit, insert and target-link a batch of candidates from vertex vid."""
    return insert_admitted(g, vid, admit_candidates(g, vid, candidates, env, cfg), env, cfg)


def insert_admitted(g: SearchGraph, vid: int, admitted: List[Admitted],
                    env: KnownEnvironment, cfg: GenConfig) -> List[int]:
    """Insert admitted moves from vertex vid and target-link the first new
    vertex that can be."""
    if g.count + len(admitted) > cfg.max_vertices:
        raise ResourceLimitError(
            f"vertex budget {cfg.max_vertices} exceeded during graph generation")
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

    blocks = AxisBlocks(g.n, env.dim)
    used_traps: set = set()
    while g.target_id is None:
        vid = g.argmin_unexpanded()
        if vid is None:
            return g
        if vid >= blocks.prepared:
            blocks.prepare(g, env, cfg)
        base_pot = g.potential_of(vid)
        new_ids = insert_admitted(g, vid, block_admitted(g, vid, blocks), env, cfg)
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
